"""The bench's traced names must still name functions of the library, and
its hooks must still find the fields they read.

bench/spans.py rebinds each name of TRACED (<module>.<function> of the qsemi
package) to time its calls, and its hooks read fields of some results; a name
that no longer resolves, or a field that is gone, breaks
`bench/run.py --trace 1`.  This checks both without running the bench.
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


def test_the_bench_hooks_read_the_fields_they_need():
    # each hook of Tracer reads a field of its function's result (or an
    # argument): a change that drops one fails here, not in a traced bench run
    from qsemi import decompose, matfun
    from qsemi.fixtures import kolmogorov
    from qsemi.singular import graph_condition, singular_space

    originals = {name: getattr(importlib.import_module("qsemi." + name.split(".")[0]),
                               name.split(".")[1]) for name in spans.TRACED}
    q = kolmogorov()
    rep = singular_space(q)
    tracer = spans.Tracer()
    record = {}
    tracer.install()
    try:
        tracer.begin_op(0, record)
        pol = decompose.polar_factors(q, 0.03)
        decompose.unitary_factorization(pol.B, 0.03)
        matfun.sqrt_det_cos_tracked(q.Q, 0.1)
        decompose.select_gamma(q, rep, graph_condition(rep))
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert dict(tracer.counters) == {key: 0 for key in spans.COUNTERS}
    assert tracer.polar_distinct == 1
    assert record["t0"] == 0.1
    assert {span[0] for span in tracer.spans} >= {
        "decompose.polar_factors", "decompose.unitary_factorization",
        "matfun.sqrt_det_cos_tracked", "decompose.select_gamma"}
    for name, fn in originals.items():
        module, attr = name.split(".")
        assert getattr(importlib.import_module("qsemi." + module), attr) is fn, name
