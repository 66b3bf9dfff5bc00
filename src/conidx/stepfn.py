"""Step test functions with one jump, in the orientations the operators need.

The value taken exactly at the jump point matters: interpolatory operators
reproduce it whenever the point lands on a node, and that node-hit arm is one
of the clusters being measured.  Every orientation therefore spells out its
left value, its value at the jump, and its right value.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StepFn1D:
    """Piecewise-constant function with a single jump at x0."""

    x0: float
    left: float
    at: float
    right: float

    @classmethod
    def jump(cls, x0: float, d: float) -> "StepFn1D":
        """0 below x0, d at x0, 1 above (the basic jump test function)."""
        return cls(x0=x0, left=0.0, at=d, right=1.0)

    @classmethod
    def indicator_from(cls, x0: float) -> "StepFn1D":
        """Indicator of [x0, +inf): 1 at and above x0."""
        return cls(x0=x0, left=0.0, at=1.0, right=1.0)

    @classmethod
    def indicator_upto(cls, x0: float) -> "StepFn1D":
        """Indicator of (-inf, x0]: 1 at and below x0.

        This closed orientation is the one the Shepard predictions assume:
        on a node hit the operator returns the node value, and the node-hit
        cluster equals 1 only if the jump point itself carries 1.
        """
        return cls(x0=x0, left=1.0, at=1.0, right=0.0)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < self.x0, self.left, np.where(x > self.x0, self.right, self.at))
        return float(out) if out.ndim == 0 else out


class GridSamples:
    """The values of a step at the nodes of a growing grid, kept in one vector.

    The nodes of each grid are monotone, so its n entries are three runs:
    vals[0] on the first a nodes, vals[1] on nodes a..b-1 (those equal to
    the jump), vals[2] on the rest.  The first `update` fills the runs; each
    later one moves the vector to a larger grid and rewrites, entry by
    entry, only those that can change: the entries between the old and the
    new run ends, and those from the old last node on.  With folded=True
    (grids of n >= 2 nodes) entry k also carries the sign (-1)^(k+1) and is
    halved at both ends of the grid: the exact power-of-two factors of the
    Lagrange weights.
    """

    def __init__(self, size: int, vals: tuple[float, float, float], folded: bool = False):
        self.buf = np.zeros(size)
        self.vals = tuple(float(v) for v in vals)
        self.folded = folded
        self.n = self.a = self.b = 0

    def update(self, n: int, a: int, b: int) -> None:
        """Hold the samples of the n-node grid whose runs end at a and b."""
        buf, vals = self.buf, self.vals
        if self.n == 0:
            buf[:a], buf[a:b], buf[b:n] = vals
            if self.folded:
                buf[:n:2] *= -1.0
                buf[0] *= 0.5
                buf[n - 1] *= 0.5
        else:
            # a folded old last node loses its halving
            for lo, hi in ((min(a, self.a), max(b, self.b)),
                           (self.n - 1 if self.folded else self.n, n)):
                for k in range(lo, hi):
                    v = vals[0] if k < a else vals[1] if k < b else vals[2]
                    if self.folded:
                        v = -v if k % 2 == 0 else v
                        if k == 0 or k == n - 1:
                            v *= 0.5
                    buf[k] = v
        self.n, self.a, self.b = n, a, b


@dataclass(frozen=True)
class StepFn2D:
    """Tensor-product step h(x, y) = fx(x) * fy(y)."""

    fx: StepFn1D
    fy: StepFn1D

    @classmethod
    def upper_right(cls, x0: float, y0: float) -> "StepFn2D":
        """1 on the closed quadrant [x0, 1] x [y0, 1], 0 elsewhere."""
        return cls(StepFn1D.indicator_from(x0), StepFn1D.indicator_from(y0))

    @classmethod
    def lower_left(cls, x0: float, y0: float) -> "StepFn2D":
        """1 on the closed rectangle [0, x0] x [0, y0], 0 elsewhere."""
        return cls(StepFn1D.indicator_upto(x0), StepFn1D.indicator_upto(y0))

    def __call__(self, x, y):
        return self.fx(x) * self.fy(y)
