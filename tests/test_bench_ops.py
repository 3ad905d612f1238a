"""Every op of the benchmark's seed-1 pools passes the bench's own checks.

bench/workloads.py draws each workload's pool of `qsemi` command lines and
judges each op's output (gates, exit codes, report fields).  This runs the
seed-1 pool of every workload in-process through cli.main, as bench/run.py
does, so an op whose output the bench would call incorrect fails here in
about a second, without a timed bench run.  The exponents ops' norms, which
come from the flow exp(-2itJQ), are also held to the Mehler symbol route.
"""
import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from qsemi import cli, kernel_from_symbol, mehler_symbol
from qsemi.evolve import norm_sweep, op_norm_edge
from qsemi.matfun import DEFAULT_TOL

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


def test_a_bench_form_with_a_large_im_q_keeps_its_singular_space(tmp_path):
    # an n = 10 form of rank-n Re Q with Im Q scaled by 8: its first bracket
    # has full rank, so S = {0} and k0 = 1, as at Im Q unscaled
    re, im = workloads.random_form(np.random.default_rng(0), 10, 1)
    path = tmp_path / "im8.json"
    workloads.write_problem(path, 10, re, 8 * im)
    rc, out = run(["analyze", str(path)])
    rep = json.loads(out)
    assert rc == cli.EXIT_OK and (rep["S_dim"], rep["k0"]) == (0, 1)


def test_exponents_norms_match_the_symbol_route(tmp_path):
    ops = workloads.generate("exponents-sweep", 1, tmp_path)
    T = workloads.T_VALUES
    for i, op in enumerate(ops):
        problem = {} if op.fixture else json.loads(Path(op.argv[1]).read_text())
        form = cli.load_problem(op.fixture, problem, DEFAULT_TOL)
        norms = norm_sweep(form, T, *op.pq)
        ref = op_norm_edge(kernel_from_symbol(mehler_symbol(form, T)), *op.pq)
        assert np.abs(norms / ref - 1).max() <= 1e-12, (i, op.argv)
