"""Step test functions with one jump, in the orientations the operators need.

The value taken exactly at the jump point matters: interpolatory operators
reproduce it whenever the point lands on a node, and that node-hit arm is one
of the clusters being measured.  Every orientation therefore spells out its
left value, its value at the jump, and its right value.

The window kernels serve one step each, `jump` (Lagrange) and
`indicator_upto` (Shepard); the per-n evaluators take any step.
`window_indices` checks the n a window kernel evaluates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class StepFn1D:
    """Piecewise-constant function with a single jump at x0."""

    x0: float
    left: float
    at: float
    right: float

    def __post_init__(self):
        # an infinite x0 is a constant step; a NaN one compares false with
        # every point and would give the jump value everywhere
        if math.isnan(self.x0):
            raise ValueError("jump point must not be NaN")
        if not all(map(math.isfinite, (self.left, self.at, self.right))):
            raise ValueError("step values must be finite")

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


def tensor_value(wx: np.ndarray, sx: np.ndarray, wy: np.ndarray, sy: np.ndarray,
                 tol: float, cross_check: bool) -> float:
    """A tensor-product operator at one point, (wx . sx)(wy . sy), from each
    factor's weights and node samples.

    With cross_check the full double sum over the node grid is also
    evaluated and must agree to tol.
    """
    out = float(wx @ sx) * float(wy @ sy)
    if cross_check:
        direct = float(wx @ (sx[:, None] * sy[None, :]) @ wy)
        if abs(direct - out) > tol:
            raise AssertionError(
                f"product decomposition {out!r} disagrees with double sum {direct!r}"
            )
    return out


def window_indices(n_max: int, indices: Sequence[int] | None = None) -> Sequence[int]:
    """The n a window of size n_max evaluates, as Python ints: 1..n_max, or
    the index set `indices`, which must be integers, strictly increasing
    and inside 1..n_max."""
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if indices is None:
        return range(1, n_max + 1)
    ns = np.asarray(indices)
    if ns.ndim != 1 or ns.size == 0 or not np.issubdtype(ns.dtype, np.integer):
        raise ValueError("indices must be a non-empty 1-d set of integers")
    if np.any(ns[1:] <= ns[:-1]):
        raise ValueError("indices must be strictly increasing")
    if ns[0] < 1 or ns[-1] > n_max:
        raise ValueError(f"indices must lie in 1..n_max = 1..{n_max}")
    return ns.tolist()
