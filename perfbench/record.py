"""Measure a commit and write its entry of the BENCH trajectory.

    python3 perfbench/record.py --commit <short-sha> [--seeds 10] [workload ...]

Runs every workload once per seed 0..seeds-1 with tracing off and once with
tracing on (seed 0), and writes perfbench/trajectory/BENCH_<commit>.json:
the environment, every run's result object as `run.py` prints it, and per
end-to-end metric the median and the spread (interquartile range over the
median, `statistics.quantiles(values, n=4)`).  An entry claims no gain by
itself (`"claim": null`); a change that claims one names it there.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import RUN_SECONDS, WORKLOADS  # noqa: E402


def run(workload: str, seed: int, trace: int, seconds: float) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    env = json.loads(lines[0].removeprefix("env: "))
    return env, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    ap.add_argument("--commit", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    entry = {"commit": args.commit, "claim": None, "run_seconds": args.seconds,
             "workloads": {}}
    for workload in args.workloads:
        runs, envs = [], []
        for seed in range(args.seeds):
            env, result = run(workload, seed, 0, args.seconds)
            envs.append(env)
            runs.append({"seed": seed, "result": result})
        stats = {}
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            stats[metric["name"]] = {"median": median, "spread": (q3 - q1) / median,
                                     "bound": metric["bound"], "unit": metric["unit"]}
        _, traced = run(workload, 0, 1, args.seconds)
        entry["workloads"][workload] = {
            "env": envs[0], "window_by_seed": [e["window"] for e in envs],
            "runs": runs, "end_to_end": stats, "traced_seed_0": traced,
        }
        print(workload, json.dumps(stats))
    out = HERE / "trajectory" / f"BENCH_{args.commit}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(entry, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
