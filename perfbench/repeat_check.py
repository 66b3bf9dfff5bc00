"""Check that the traced counts repeat exactly across two runs.

    python3 perfbench/repeat_check.py [--seed N] [--seconds S] [workload ...]

Runs `run.py --trace 1` twice per workload (default: all four) and compares
every per-layer metric that is not a time: the calls counts and the counts
computed from input sizes.  Exits 1 if any differs, or if a run fails.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import RUN_SECONDS, WORKLOADS  # noqa: E402
from spans import PER_LAYER, TIMES  # noqa: E402


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
                          stdout=subprocess.PIPE, text=True, timeout=200)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload}: traced run failed")
    return {name: m["value"] for name, m in result["metrics"].items()
            if name not in TIMES and PER_LAYER[name][0] != "ratio"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    args = ap.parse_args()
    ok = True
    for workload in args.workloads:
        first, second = (traced_counts(workload, args.seed, args.seconds) for _ in range(2))
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        ok &= not diff
        print(f"{workload}: {len(first)} counts, "
              + ("identical in both runs" if not diff else f"differ: {diff}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
