"""conidx benchmark: runs the workloads and prints every metric by name with its unit.

    python3 perfbench/run.py --workload cold-index --seed 0 --seconds 25 --trace 0

Run from the root of a checkout that holds `src/conidx`.  Each workload runs
in its own single-threaded process (perfbench/worker.py) with the BLAS
thread pools pinned to one thread; set-up runs SETUP_SAMPLES times, in
separate processes before, in and after the timed run, and `setup_s` is
their median.  With `--trace 1` the
worker measures untraced for half the run and traced for the other half and
reports the per-layer metrics.  Times are also converted to reference units
(`ref`, perfbench/reference.py), which cancel the drift of the machine's CPU
speed; `wall_ref` is the gated pass time.  The last line of output is one JSON object:
`correct`, `attempted`, `failed` and `metrics`.  Without `--workload` all four
workloads run one after another, and that object prefixes each metric with
its workload's name.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import COMPUTED, PER_LAYER  # noqa: E402

WORKLOADS = ("cold-index", "warm-index", "corner-measure", "verify")
SETUP_SAMPLES = 5  # odd: the timed run's own set-up is the middle one
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0"}
P90_MIN_BEYOND = 10  # p90 is reported only with this many samples above it
END_TO_END = ("wall_ref", "setup_s", "peak_rss_mb")
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def worker(workload: str, args, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ, PYTHONPATH="src", **PINNED)
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values, q: float) -> float:
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q) - 1]


def run_workload(workload: str, args) -> dict:
    """Run one workload, print its metrics by name, return its result object."""
    deadline = time.monotonic() + DEADLINE_S

    def setup_only() -> list:
        return [worker(workload, args, deadline, True)["setup_s"]
                for _ in range(SETUP_SAMPLES // 2)]

    setups = setup_only()
    out = worker(workload, args, deadline, False)
    setups += [out["summary"]["setup_s"]] + setup_only()
    summary = out["summary"]
    passes = f"median of {out['env']['passes'][0]} passes"

    print("env: " + json.dumps(out["env"], sort_keys=True))
    rows = []
    for kind, unit in (("ref", "ref"), ("s", "s")):
        ops = summary[f"op_{kind}"]
        rows += [(f"wall_{kind}", summary[f"wall_{kind}"], unit, passes),
                 (f"op_{kind}.p50", statistics.median(ops), unit, f"{len(ops)} operations")]
        if len(ops) * 0.1 >= P90_MIN_BEYOND:
            rows.append((f"op_{kind}.p90", percentile(ops, 90), unit, f"{len(ops)} operations"))
    rows += [("ref_chunk_ms", summary["ref_chunk_ms"], "ms", "median reference chunk"),
             ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
             ("peak_rss_mb", summary["peak_rss_mb"], "MB", "ru_maxrss of the worker"),
             ("fail_ratio", out["failed"] / max(1, out["attempted"]), "1",
              f"{out['failed']} of {out['attempted']} operations failed")]
    for name, value, unit, note in rows:
        print(f"{workload:15s} {name:12s} {value:12.6g} {unit:3s}  {note}")
    for name, value in out["layer"].items():
        note = "  (computed from input sizes)" if name in COMPUTED else ""
        print(f"{workload:15s} {name:52s} {value:14.6g} {PER_LAYER[name][0]}{note}")
    for problem in out["problems"]:
        print(f"problem: {problem}")

    if args.trace:
        metrics = {name: {"value": out["layer"][name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in rows if name in END_TO_END}
    return {"correct": not out["problems"] and out["failed"] == 0,
            "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="the workload to run (default: all four, one after another)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (Path.cwd() / "src" / "conidx" / "__init__.py").is_file():
        print("error: run from the root of a conidx checkout (no src/conidx here)",
              file=sys.stderr)
        return 2
    results = {}
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            results[workload] = run_workload(workload, args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload:
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
