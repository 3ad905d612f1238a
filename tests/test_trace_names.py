"""The bench's traced names must still name functions of the library.

bench/spans.py rebinds each name of TRACED (<module>.<function> of the qsemi
package) to time its calls; a name that no longer resolves breaks
`bench/run.py --trace 1`.  This checks them without running the bench.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


spans = load_spans()


@pytest.mark.parametrize("qualified", spans.TRACED)
def test_every_traced_name_resolves(qualified):
    module, name = qualified.split(".")
    assert callable(getattr(importlib.import_module("qsemi." + module), name, None))
