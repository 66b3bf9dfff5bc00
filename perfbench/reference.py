"""Fixed reference work that tracks the machine's speed through a run.

The CPU speed of the machine the benchmark was defined on drifts by 10 to 60%
over seconds to minutes (README.md, "Steadiness").  So a fixed chunk of work is
run between operations, and an operation's cost in *reference units* (`ref`)
is its wall time divided by the mean time of the chunks run just before and
just after it.  The drift is not the same for every kind of code: code bound
by interpreter and numpy call overhead slows more than vector arithmetic on
large arrays.  The chunk is therefore made of the kinds of work that take a
workload's time, chosen from the three conidx does: many numpy calls on small
arrays (window generation, the suites), vector arithmetic on large arrays
(the special functions) and float formatting (the CSV and report writers).
It calls nothing in conidx, so a change to the package cannot move it.
"""
import math
import time

import numpy as np

SHARE = 0.25  # reference time run per second of operation time
_LARGE = np.linspace(0.01, 1.0, 60_000)


def _small_arrays() -> float:
    """Many numpy calls on small arrays, as in window generation."""
    acc = 0.0
    for n in range(2, 80):
        k = np.arange(1, n + 1)
        nodes = np.cos((k - 1) * (math.pi / (n - 1)))
        sign = np.where(k % 2 == 0, 1.0, -1.0)
        acc += float(sign / (0.3 - nodes) @ nodes)
    return acc


def _large_arrays() -> float:
    """Vector arithmetic on a large array, as in the special functions."""
    return sum(float(np.log1p(1.0 / (_LARGE + shift)).sum() + (_LARGE ** 0.3).sum())
               for shift in (0.0, 1.0))


def _formatting() -> float:
    """Float formatting, as in the CSV and report writers."""
    return float(len(",".join(f"{x:.17g}" for x in _LARGE[:1200])))


PARTS = {"small-arrays": _small_arrays, "large-arrays": _large_arrays,
         "formatting": _formatting}
ALL_PARTS = tuple(PARTS)


class Reference:
    """Runs reference chunks around operations and converts their times."""

    def __init__(self, parts):
        self.work = [PARTS[name] for name in parts]
        self.chunks: list[float] = []  # every chunk time of the run
        self.before: list[float] = []

    def chunk(self) -> float:
        """Run the reference work once (1 to 3 ms); return its wall time."""
        t0 = time.perf_counter()
        acc = sum(work() for work in self.work)
        if not math.isfinite(acc):
            raise ArithmeticError("reference work gave a non-finite sum")
        return time.perf_counter() - t0

    def block(self, at_least: float) -> list[float]:
        times = [self.chunk()]
        while sum(times) < at_least:
            times.append(self.chunk())
        self.chunks += times
        return times

    def start_pass(self) -> None:
        """Before the first operation of a run, measure the speed once; later
        operations take the chunks run after their predecessor."""
        if not self.before:
            self.before = self.block(0.0)

    def after_op(self, op_s: float) -> float:
        """The cost, in reference units, of an operation that just took `op_s`."""
        after = self.block(SHARE * op_s)
        around = self.before + after
        self.before = after
        return op_s * len(around) / sum(around)
