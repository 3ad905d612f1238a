"""Benchmark of the qsemi command line, called in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from ./src.
A workload is a pool of ops generated from the seed (workloads.py); an op is
one `qsemi.cli.main(argv)` call, whose report is checked.  One caller runs
the pool in passes, in a closed loop: the next op starts when the previous
one has returned.

--trace 0 measures the end-to-end metrics, with tracing off, for about
--seconds (two passes at least).  --trace 1 runs each op untraced and then
traced (spans.py) and reports per-layer metrics per op.  Times are reported
at reference speed; see REF_MS.

A readable report goes to stderr and, with the inputs, the raw timings and
the environment, to bench/out/.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
only when every op passed its checks, and 2 when the checkout holds no qsemi
sources.
"""
import time

T_START = time.perf_counter()

import os  # noqa: E402

# BLAS threads are pinned to one before numpy loads, for this process and the
# set-up probes it starts: the matrices are at most 20 x 20.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BLAS_BEFORE = {k: os.environ.get(k) for k in BLAS_PIN}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.linalg import expm  # noqa: E402  (bound here, so tracing never wraps it)

import workloads  # noqa: E402
from spans import COUNTERS, ROOT as ROOT_SPAN, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3  # this process plus two probes in fresh processes

#: Op times are reported at reference speed.  After every op the runner times
#: a fixed kernel of small dense linear algebra, the same kind of work qsemi
#: does; an op's wall and CPU time are divided by the mean of the kernel runs
#: just before and after it and multiplied by REF_MS, the kernel's time when
#: the machine the bounds were set on (a 2-vCPU Xeon KVM guest, OpenBLAS on
#: one thread) was quiet.  That machine is shared: the same op slowed by up
#: to 1.7x for tens of seconds at a time, and over 10-s windows the ratio to
#: the neighbouring kernel runs moved by 3% (relative SD) where raw times
#: moved by 19%.  Raw figures are kept in the report.
REF_MS = 7.5
_REF_MATRICES = [np.random.default_rng(0).standard_normal((4, 4)) * 0.5 for _ in range(8)]


def reference() -> tuple[float, float]:
    """(wall s, CPU s) of one run of the reference kernel."""
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(25):
        for M in _REF_MATRICES:
            E = expm(M)
            np.linalg.solve(E, M)
            np.linalg.eigvals(E)
    return time.perf_counter() - wall, time.process_time() - cpu


def load_cli():
    """qsemi.cli from this checkout's src/, or exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "qsemi" / "cli.py").is_file():
        print(f"bench: no qsemi sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import qsemi
    import qsemi.cli
    if Path(qsemi.__file__).resolve().parent != src / "qsemi":
        print(f"bench: imported qsemi from {qsemi.__file__}, not from {src}",
              file=sys.stderr)
        sys.exit(2)
    return qsemi.cli


def call(main, argv):
    """One op: (exit code or None on a traceback, stdout, seconds)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # noqa: BLE001 - a traceback is a failed op, recorded
        rc = None
        buf.write(traceback.format_exc())
    return rc, buf.getvalue(), time.perf_counter() - start


def setup(workload: str, seed: int):
    """Import qsemi, generate the inputs, warm up one op per command.

    Returns (cli module, pool of ops, {"raw": seconds since this process
    started, "at_reference": the same at reference speed}); the speed is
    taken from three reference kernel runs right after the set-up.
    """
    cli = load_cli()
    pool = workloads.generate(workload, seed, OUT / f"{workload}-s{seed}")
    warmed = set()
    for op in pool:
        if op.command not in warmed:
            warmed.add(op.command)
            call(cli.main, op.argv)
    raw = time.perf_counter() - T_START
    ref = statistics.median(reference()[0] for _ in range(3))
    return cli, pool, {"raw": raw, "at_reference": raw * REF_MS / 1e3 / ref}


def setup_probe(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------

def run_op(cli, op, failures: list, tracer=None):
    """Run and check one op; returns (wall s, process CPU s, gate margin)."""
    cpu = time.process_time()
    if tracer is None:
        rc, out, dt = call(cli.main, op.argv)
    else:
        rc, out, dt = tracer.call(ROOT_SPAN, call, cli.main, op.argv)
    cpu = time.process_time() - cpu
    if rc is None:
        reason, margin = "traceback: " + out.strip().splitlines()[-1], math.nan
    else:
        try:
            reason, margin = workloads.check(op, rc, out)
        except (KeyError, TypeError, ValueError) as exc:
            reason, margin = f"malformed report: {exc!r}", math.nan
    if reason is not None:
        failures.append({"argv": op.argv, "reason": reason})
    return dt, cpu, margin


def tail(values: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 values beyond it."""
    xs = sorted(values)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * k / len(xs)


def ends_in_time(start: float, passes: int, seconds: float) -> bool:
    """Whether one more pass, as long as the mean pass so far, ends in time."""
    return (time.perf_counter() - start) * (passes + 1) / passes <= seconds


def measure(cli, pool, seconds: float) -> dict:
    """Pass over the pool in a closed loop for about `seconds`.

    Every pass runs every op once; there are two passes at least, and no
    further pass that would end after `seconds`.  An op's time is the
    median over passes of its time at reference speed (see REF_MS).  The
    gate margin is the mean over ops of each op's smallest margin, from the
    first pass, so it depends on the seed alone.
    """
    failures, margins = [], []
    wall = [[] for _ in pool]
    cpu = [[] for _ in pool]
    raw = [[] for _ in pool]
    refs = [reference()]
    start = time.perf_counter()
    passes = 0
    while passes < 2 or ends_in_time(start, passes, seconds):
        for j, op in enumerate(pool):
            dt, dcpu, margin = run_op(cli, op, failures)
            refs.append(reference())
            (w0, c0), (w1, c1) = refs[-2:]
            wall[j].append(dt / (w0 + w1) * 2 * REF_MS / 1e3)
            cpu[j].append(dcpu / (c0 + c1) * 2 * REF_MS / 1e3)
            raw[j].append(dt)
            if passes == 0 and math.isfinite(margin):
                margins.append(margin)
        passes += 1
    op_s = [statistics.median(v) for v in wall]
    op_raw = [statistics.median(v) for v in raw]
    by_kind = {}
    for op, dt in zip(pool, op_s):
        by_kind.setdefault(op.kind(), []).append(dt)
    tail_s, tail_pct = tail(op_s)
    return {
        "ops": passes * len(pool), "distinct_ops": len(pool), "passes": passes,
        "failures": failures,
        "latency_tail_percentile": tail_pct,
        "gate_margin_min_digits": min(margins),
        "reference_ms": {"median": statistics.median(w for w, _ in refs) * 1e3,
                         "min": min(w for w, _ in refs) * 1e3, "nominal": REF_MS},
        "raw": {"latency_p50_ms": statistics.median(op_raw) * 1e3,
                "latency_tail_ms": tail(op_raw)[0] * 1e3,
                "throughput_ops_s": len(pool) / math.fsum(op_raw)},
        "latency_by_kind_ms": {k: {"ops": len(v), "median": statistics.median(v) * 1e3}
                               for k, v in sorted(by_kind.items())},
        "metrics": {
            "latency_p50_ms": (statistics.median(op_s) * 1e3, "ms"),
            "latency_tail_ms": (tail_s * 1e3, "ms"),
            "throughput_ops_s": (len(pool) / math.fsum(op_s), "1/s"),
            "cpu_ms_per_op": (statistics.fmean(statistics.median(v) for v in cpu) * 1e3, "ms"),
            "gate_margin_digits": (statistics.fmean(margins), "digits"),
            "failed_ops_ratio": (len(failures) / (passes * len(pool)), "ratio"),
        },
    }


def measure_traced(cli, pool, seconds: float, spans_path: Path) -> dict:
    """Per-layer metrics per op, at reference speed (see REF_MS).

    Passes over the pool, each op run untraced then traced: one pass at
    least, and no further pass that would end after `seconds`.
    """
    tracer = Tracer()
    failures = []
    wall = {"untraced": 0.0, "traced": 0.0}

    def factor(before, after):
        return 2 * REF_MS / 1e3 / (before[0] + after[0])

    ref = reference()
    reps = 0
    start = time.perf_counter()
    while reps == 0 or ends_in_time(start, reps, seconds):
        scale = {}
        for j, op in enumerate(pool):
            dt = run_op(cli, op, failures)[0]
            mid = reference()
            wall["untraced"] += dt * factor(ref, mid)
            tracer.begin_op(j, op.record)
            tracer.install()
            try:
                dt = run_op(cli, op, failures, tracer)[0]
            finally:
                tracer.uninstall()
            ref = reference()
            scale[j] = factor(mid, ref)
            wall["traced"] += dt * scale[j]
        reps += 1
        if reps == 1:
            tracer.end_op()
            tracer.write(spans_path)
            totals = tracer.totals(scale)
            polar_distinct, counters = tracer.polar_distinct, dict(tracer.counters)
            by_kind = {}
            for op_id, layers in tracer.self_by_op(scale).items():
                kind = by_kind.setdefault(pool[op_id].kind(), {})
                for name, self_s in layers.items():
                    kind[name] = kind.get(name, 0.0) + self_s * 1e3
        else:
            for name, (calls, total, self_s) in tracer.totals(scale).items():
                totals[name][1] += total
                totals[name][2] += self_s
        tracer.spans = []
    n_ops = len(pool)
    metrics = {}
    for name, (calls, total, self_s) in totals.items():
        metrics[f"{name}.calls"] = (calls / n_ops, "calls/op")
        metrics[f"{name}.total_ms"] = (total / reps / n_ops * 1e3, "ms/op")
        metrics[f"{name}.self_ms"] = (self_s / reps / n_ops * 1e3, "ms/op")
    for name in COUNTERS:
        metrics[name] = (counters.get(name, 0.0) / n_ops, "count/op")
    polar_calls = totals["decompose.polar_factors"][0]
    metrics["decompose.polar_factors.distinct_t_ratio"] = (
        polar_distinct / polar_calls if polar_calls else 0.0, "ratio")
    metrics["trace_overhead_ratio"] = (wall["traced"] / wall["untraced"], "ratio")
    per_kind = {}
    for op in pool:
        per_kind[op.kind()] = per_kind.get(op.kind(), 0) + 1
    top_self = {kind: {name: ms / per_kind[kind]
                       for name, ms in sorted(layers.items(), key=lambda kv: -kv[1])[:5]}
                for kind, layers in sorted(by_kind.items())}
    return {"ops": 2 * reps * n_ops, "distinct_ops": n_ops, "passes": reps,
            "failures": failures, "top_self_ms_by_kind": top_self, "metrics": metrics}


# --------------------------------------------------------------------------

def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches[f"L{_read(d / 'level')} {_read(d / 'type')}"] = _read(d / "size")
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": model, "caches": caches,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": int(BLAS_PIN["OPENBLAS_NUM_THREADS"]),
                 "pinned_by_benchmark": BLAS_PIN, "environment_before": BLAS_BEFORE},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
    }


def report(args, result: dict, inputs: list) -> None:
    print(f"bench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['ops']} ops, {len(result['failures'])} failed", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:58s} {value:14.6g} {unit}", file=sys.stderr)
    if "latency_tail_percentile" in result:
        print(f"  latency_tail_ms is p{result['latency_tail_percentile']:.2f} "
              f"of {result['distinct_ops']} ops, {result['passes']} passes",
              file=sys.stderr)
    for kind, d in result.get("latency_by_kind_ms", {}).items():
        print(f"  {kind:40s} {d['ops']:5d} ops, median {d['median']:10.2f} ms",
              file=sys.stderr)
    if "reference_ms" in result:
        print(f"  reference kernel {result['reference_ms']}, raw {result['raw']}",
              file=sys.stderr)
    for kind, layers in result.get("top_self_ms_by_kind", {}).items():
        top = ", ".join(f"{name} {ms:.1f}" for name, ms in list(layers.items())[:3])
        print(f"  self ms/op, {kind}: {top}", file=sys.stderr)
    for f in result["failures"][:10]:
        print(f"  FAILED {' '.join(f['argv'])}: {f['reason']}", file=sys.stderr)
    full = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                seconds=args.seconds, environment=environment(), inputs=inputs,
                metrics={k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()})
    path = OUT / f"report-{args.workload}-s{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full, indent=1, default=str))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    cli, pool, setup_time = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps(setup_time))
        return 0
    if args.trace:
        result = measure_traced(cli, pool, args.seconds,
                                OUT / f"spans-{args.workload}-s{args.seed}.csv.gz")
    else:
        setup_samples = [setup_time] + [setup_probe(args.workload, args.seed)
                                        for _ in range(SETUP_SAMPLES - 1)]
        result = measure(cli, pool, args.seconds)
        result["metrics"]["setup_s"] = (
            statistics.median(x["at_reference"] for x in setup_samples), "s")
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        result["setup_samples_s"] = setup_samples
    report(args, result, [op.describe() for op in pool])

    shown = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()
             if k != "failed_ops_ratio"}
    failed = len(result["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": result["ops"],
                      "failed": failed, "metrics": shown}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
