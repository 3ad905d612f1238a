"""Every op of the benchmark's seed-1 pools passes the bench's own checks.

bench/workloads.py draws each workload's pool of `qsemi` command lines and
judges each op's output (gates, exit codes, report fields).  This runs the
seed-1 pool of every workload in-process through cli.main, as bench/run.py
does, so an op whose output the bench would call incorrect fails here in
about a second, without a timed bench run.
"""
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from qsemi import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    return rc, out.getvalue()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_op_of_the_seed_1_pool_passes_its_check(workload, tmp_path):
    ops = workloads.generate(workload, 1, tmp_path)
    assert ops
    failed = {}
    for i, op in enumerate(ops):
        reason, _ = workloads.check(op, *run(op.argv))
        if reason is not None:
            failed[f"{i}: {' '.join(op.argv)}"] = reason
    assert not failed
