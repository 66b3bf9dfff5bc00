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

    def sample_sorted(self, nodes: np.ndarray, out: np.ndarray) -> None:
        """Write self(nodes) into out for monotone nodes, as three slice fills.

        The two ends of the run of nodes equal to x0 are found by binary
        search, so the values equal self(nodes) entry for entry.
        """
        n = len(nodes)
        ascending = nodes[::-1] if n > 1 and nodes[0] > nodes[-1] else nodes
        lo = int(ascending.searchsorted(self.x0, "left"))
        hi = int(ascending.searchsorted(self.x0, "right"))
        if ascending is nodes:
            out[:lo], out[lo:hi], out[hi:] = self.left, self.at, self.right
        else:
            out[:n - hi], out[n - hi:n - lo], out[n - lo:] = self.right, self.at, self.left


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
