"""Regenerate perfbench/golden.json: the expected output of every pool config.

    PYTHONPATH=src python3 perfbench/make_golden.py

Runs one pass of each workload over every config its slots can draw, at the
current commit, and records each operation's outcome (exit code, verdict)
and output digests.  The benchmark then compares every run, under any seed,
against these entries.  Regenerate only when a change to the package is
meant to change its outputs, and say so in the change.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from workloads import WORKLOADS, pool  # noqa: E402


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True).stdout.strip() or None
    golden = {"commit": commit}
    for name, cls in WORKLOADS.items():
        root = Path.cwd()
        workdir = root / ".perfbench_work" / f"golden-{name}-{os.getpid()}"
        workdir.mkdir(parents=True)
        os.chdir(workdir)
        try:
            wl = cls(0, worker.MODS, cfgs=pool(cls.slots))
            wl.setup()
            res = wl.run_pass()
        finally:
            os.chdir(root)
            shutil.rmtree(workdir, ignore_errors=True)
        golden[name] = res.outputs
        unusual = {k: v[0] for k, v in res.outputs.items()
                   if not (v[0] is True or (type(v[0]) is int and v[0] == 0))}
        print(f"{name}: {len(res.outputs)} operations, {res.wall_s:.1f}s; "
              f"outcomes other than pass: {json.dumps(unusual, indent=1)}")
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
