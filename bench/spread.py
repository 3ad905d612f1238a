"""Run the benchmark on several seeds; print each metric's median and spread.

    python3 bench/spread.py --seeds 1,2,3 [--workload A,B] [--seconds 30] [--trace 0]

Runs are sequential, one process at a time, over every workload of
BENCHMARK.json unless --workload names some.  The spread of a metric is the
distance between its first and third quartile over the runs
(statistics.quantiles(values, n=4)) as a share of its median; for end-to-end
metrics it is printed next to the bound from BENCHMARK.json.  The runs'
result lines are saved to
bench/out/spread-<workload>-trace<t>-s<first seed>-<last seed>.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else float("nan")


def run_seeds(workload: str, seeds: list, seconds: int, trace: int, bounds: dict) -> bool:
    """Run one workload on every seed, save and print; True if all were correct."""
    runs = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", seed, "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = int(seed)
        runs.append(result)
        print(f"seed {seed}: exit {proc.returncode}, {result['attempted']} ops, "
              f"{result['failed']} failed", file=sys.stderr)

    out = HERE / "out" / f"spread-{workload}-trace{trace}-s{seeds[0]}-{seeds[-1]}.json"
    out.write_text(json.dumps(runs, indent=1))
    print(f"{workload}: {len(runs)} runs of {seconds} s, seeds {','.join(seeds)}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med, rel = spread(values)
        bound = bounds.get(name)
        note = "" if bound is None else f"  bound {bound:.3f}  (bound/3 {bound / 3:.3f})"
        print(f"  {name:58s} median {med:12.6g} {first['unit']:9s} spread {rel:7.4f}{note}")
    return all(r["correct"] for r in runs)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="comma-separated workloads (default: all)",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", required=True, help="comma-separated seeds")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = [run_seeds(w, args.seeds.split(","), args.seconds, args.trace, bounds)
          for w in args.workload.split(",")]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
