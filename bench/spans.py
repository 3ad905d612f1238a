"""Spans around calls into qsemi's public functions, recorded from outside.

`Tracer.install` rebinds each traced function in every qsemi module namespace
that holds it, including the module that defines it, so calls made inside the
library go through the wrapper too.  scipy.linalg.expm and logm are rebound on
the scipy.linalg module, which the library reaches as `sla.expm`/`sla.logm`.
`Tracer.uninstall` puts the originals back.  The library itself is unchanged.

A span is (name, start, end, parent index, op id).  Self time is a span's
duration minus the durations of its direct children; calls on one thread nest,
so the children never overlap.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import scipy.linalg

#: the op itself: one cli.main call, opened by the runner
ROOT = "cli.main"

#: traced functions, as <module>.<function> (modules of the qsemi package)
TRACED = (
    "cli.load_problem", "cli.dumps_canonical",
    "singular.singular_space", "singular.graph_condition",
    "decompose.build_decomposition", "decompose.select_gamma",
    "decompose.polar_factors", "decompose.unitary_factorization",
    "decompose.strang_middle", "decompose.verify_decomposition",
    "mehler.mehler_symbol", "mehler.kernel_from_symbol",
    "mehler.mehler_inverse_twisted", "mehler.compose_kernels",
    "mehler.sqrt_det_pd",
    "matfun.sqrt_det_cos_tracked", "matfun.mat_cos", "matfun.mat_log_principal",
    "quadform.embed_xixi", "quadform.embed_cross", "quadform.embed_xx",
    "evolve.op_norm_lower_gaussian", "evolve.apply_kernel_gaussian",
    "evolve.lp_norm", "evolve.op_norm_1_inf",
)
SCIPY = ("expm", "logm")

LAYERS = (ROOT,) + TRACED + tuple(f"scipy.linalg.{f}" for f in SCIPY)

#: counters summed from results, per op
COUNTERS = ("decompose.unitary_factorization.newton_iterations",
            "matfun.sqrt_det_cos_tracked.steps")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list = []
        self._dump_depth = 0
        self.op = -1
        self.op_record: dict = {}
        self.counters = defaultdict(float)
        self._polar_keys: set = set()
        self.polar_distinct = 0

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id: int, record: dict) -> None:
        """Start op `op_id`; `record` receives what its spans reveal (t0)."""
        self.end_op()
        self.op = op_id
        self.op_record = record

    def end_op(self) -> None:
        """Add the op's distinct (Q, t) pairs of polar_factors to the count."""
        self.polar_distinct += len(self._polar_keys)
        self._polar_keys = set()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.op)

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_after_" + name.split(".")[-1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(result, *args)
            return result

        if name == "cli.dumps_canonical":  # recursive: span the outermost call
            @functools.wraps(fn)
            def outermost(*args, **kwargs):
                if self._dump_depth:
                    return fn(*args, **kwargs)
                self._dump_depth += 1
                try:
                    return self.call(name, fn, *args, **kwargs)
                finally:
                    self._dump_depth -= 1
            return outermost
        return wrapper

    def _after_unitary_factorization(self, result, *args):
        self.counters[COUNTERS[0]] += result.iterations

    def _after_sqrt_det_cos_tracked(self, result, *args):
        self.counters[COUNTERS[1]] += result.steps_used

    def _after_polar_factors(self, result, q, t, *args):
        self._polar_keys.add((q.Q.tobytes(), float(t)))

    def _after_select_gamma(self, result, *args):
        self.op_record["t0"] = result.t0

    # -- rebinding ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qsemi" or name.startswith("qsemi."))]
        for qualified in TRACED:
            mod, fn_name = qualified.split(".")
            orig = getattr(importlib.import_module("qsemi." + mod), fn_name)
            wrapper = self._wrap(qualified, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrapper)
        for fn_name in SCIPY:
            orig = getattr(scipy.linalg, fn_name)
            self._patched.append((scipy.linalg, fn_name, orig))
            setattr(scipy.linalg, fn_name, self._wrap(f"scipy.linalg.{fn_name}", orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched = []

    # -- results -----------------------------------------------------------

    def _child_time(self) -> list:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def totals(self, scale: dict) -> dict:
        """{name: [calls, total_s, self_s]} over the spans recorded so far,
        each op's times multiplied by scale[op id]."""
        out = {name: [0, 0.0, 0.0] for name in LAYERS}
        for (name, start, end, _, op), c in zip(self.spans, self._child_time()):
            agg = out[name]
            agg[0] += 1
            agg[1] += (end - start) * scale[op]
            agg[2] += (end - start - c) * scale[op]
        return out

    def self_by_op(self, scale: dict) -> dict:
        """{op id: {name: self_s}}, times multiplied by scale[op id]."""
        out = defaultdict(lambda: defaultdict(float))
        for (name, start, end, _, op), c in zip(self.spans, self._child_time()):
            out[op][name] += (end - start - c) * scale[op]
        return out

    def write(self, path: Path) -> None:
        """Spans as gzip'd CSV: name, start_us, end_us, parent, op."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_us,end_us,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f},"
                         f"{parent},{op}\n")
