"""One workload in one process: set up, run timed passes, check every output.

Run by `perfbench/run.py`, which pins the BLAS thread pools and starts this
script several times for the set-up samples.  Prints one JSON object.
"""
import time

T_START = time.perf_counter()  # set-up time counts from here: imports included

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))  # the checkout under test
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from conidx import cli, density, harness, lagrange, points, profiles, reports  # noqa: E402
from conidx import shepard, stepfn, suites  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODS = {"cli": cli, "density": density, "harness": harness, "lagrange": lagrange,
        "points": points, "profiles": profiles, "reports": reports, "shepard": shepard,
        "stepfn": stepfn, "suites": suites}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure(wl, seconds: float, tracer=None) -> list:
    """Whole passes, back to back, while the next is expected to end in time."""
    passes, spent = [], []  # spent: a pass's time with its reference chunks
    t0 = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        if tracer:
            tracer.begin_pass()
        passes.append(wl.run_pass())
        if tracer:
            tracer.end_pass()
        spent.append(time.perf_counter() - t_pass)
        if time.perf_counter() - t0 + statistics.median(spent) > seconds:
            return passes


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(wl, passes, samples) -> dict:
    return {
        "workload": wl.name, "seed": wl.seed, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(), "cpu": cpu_model(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "window": wl.windows(), "passes": passes, "op_samples": samples,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    golden = json.loads((HERE / "golden.json").read_text())[args.workload]
    root = Path.cwd()
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, MODS)
        wl.setup()
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = measure(wl, budget)
        traced, tracer = [], None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = measure(wl, budget, tracer)
            finally:
                tracer.uninstall()
        runs = untraced + traced
        for res in runs:
            wl.compare(golden, runs[0], res)
        wl.final_checks(runs[-1])
    finally:
        os.chdir(root)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()

    op_s = sorted(t for res in untraced for t in res.op_s)
    attempted = sum(len(res.outputs) for res in runs)
    summary = {
        "wall_s": statistics.median(res.wall_s for res in untraced),
        "wall_ref": statistics.median(res.wall_ref for res in untraced),
        "op_s": op_s,
        "op_ref": sorted(c for res in untraced for c in res.op_ref),
        "ref_chunk_ms": 1e3 * statistics.median(wl.ref.chunks),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    problems = list(wl.problems)
    layer = {}
    if tracer:
        layer, trace_problems = tracer.metrics()
        problems += trace_problems
        for name, want in wl.expected_spans().items():
            got = int(tracer.passes[0].get(name, 0))
            if got != want:
                problems.append(f"span count {name} = {got}, the inputs imply {want}")
        runtimes = [dict(zip(res.outputs, res.op_s)) for res in untraced]
        for check, slug in spans.SUITE_CHECKS.items():
            values = [r[check] for r in runtimes if check in r]
            layer[f"suites.{slug}.runtime_s"] = statistics.median(values) if values else 0.0
        layer["trace.overhead_s"] = (statistics.median(res.wall_s for res in traced)
                                     - summary["wall_s"])
    print(json.dumps({
        "summary": summary, "layer": layer, "attempted": attempted,
        "failed": wl.fail_count, "problems": problems,
        "env": environment(wl, [len(untraced), len(traced)], len(op_s)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
