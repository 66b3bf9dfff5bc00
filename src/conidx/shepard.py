"""Univariate Shepard operators on equispaced nodes of [0,1], and their tensor
product.

S_n f(x) is the inverse-distance weighted average of the node values with
weights |x - i/n|^-s, s >= 1.  At a node the weights degenerate to the unit
vector there, so the operator interpolates; node hits against a rational
evaluation point are detected in exact integer arithmetic (p*n divisible
by q), because the q-periodic cluster structure hinges on them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .points import PointSpec
from .stepfn import StepFn1D, StepFn2D

NODE_PROXIMITY = 1e-13


@dataclass(frozen=True)
class ShepardParams:
    """Exponent s >= 1 and subdivision count n (nodes i/n, i = 0..n)."""

    s: float
    n: int

    def __post_init__(self):
        if not self.s >= 1.0:  # NaN fails too
            raise ValueError("exponent s must be >= 1")
        if self.n < 1:
            raise ValueError("need at least 1 subdivision")

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n


def node_index(spec: PointSpec, n: int) -> int | None:
    """Index i with i/n == spec value, or None; exact for rational specs."""
    if spec.is_rational:
        return (spec.p * n) // spec.q if (spec.p * n) % spec.q == 0 else None
    scaled = spec.value * n
    i = int(round(scaled))
    if 0 <= i <= n and abs(scaled - i) <= NODE_PROXIMITY * n:
        return i
    return None


def _weights(w: np.ndarray, nodes: np.ndarray, x: float, s: float) -> int | None:
    """Normalized weights at x into w, or the index of a node within
    NODE_PROXIMITY of x (w is then left holding distances).

    Distances are scaled by the nearest one before exponentiation so large
    s cannot overflow.
    """
    np.subtract(x, nodes, out=w)
    np.abs(w, out=w)
    j = int(np.argmin(w))
    if w[j] <= NODE_PROXIMITY:
        return j
    np.divide(w[j], w, out=w)
    w **= s
    w /= w.sum()
    return None


def shepard_weights_1d(params: ShepardParams, x: float,
                       hit: int | None = None) -> np.ndarray:
    """Normalized weight vector over the n+1 nodes at evaluation point x.

    A node collision (given exactly via `hit`, or detected by proximity)
    yields the unit vector there.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("evaluation point must lie in [0, 1]")
    w = np.empty(params.n + 1)
    if hit is None:
        hit = _weights(w, params.nodes, x, params.s)
    if hit is not None:
        w[:] = 0.0
        w[hit] = 1.0
    return w


def shepard_eval_1d(f, params: ShepardParams, x: float,
                    spec: PointSpec | None = None) -> float:
    """S_n f(x); f may be a StepFn1D, a callable, or a node-sample array.

    Passing the PointSpec of x enables exact node-hit detection.
    """
    hit = node_index(spec, params.n) if spec is not None else None
    w = shepard_weights_1d(params, x, hit=hit)
    if isinstance(f, np.ndarray):
        samples = f
    else:
        samples = np.asarray(f(params.nodes), dtype=float)
    return float(w @ samples)


def shepard_eval_2d(h: StepFn2D, params_x: ShepardParams, params_y: ShepardParams,
                    x: float, y: float, cross_check: bool = False) -> float:
    """S_{n,m} h(x, y) for a tensor step, via the product decomposition."""
    vx = shepard_eval_1d(h.fx, params_x, x)
    vy = shepard_eval_1d(h.fy, params_y, y)
    out = vx * vy
    if cross_check:
        wx = shepard_weights_1d(params_x, x)
        wy = shepard_weights_1d(params_y, y)
        hmat = h.fx(params_x.nodes)[:, None] * h.fy(params_y.nodes)[None, :]
        direct = float(wx @ hmat @ wy)
        if abs(direct - out) > 1e-10:
            raise AssertionError(
                f"product decomposition {out!r} disagrees with double sum {direct!r}"
            )
    return out


def _window(step: StepFn1D, s: float, x: float, n_max: int,
            spec: PointSpec | None = None) -> np.ndarray:
    """Values S_n(step)(x) for n = 1..n_max.

    With spec, n is a node hit exactly when x = spec value is a node; a node
    within NODE_PROXIMITY of x is a hit in either case.  A hit returns the
    step value there.  Otherwise the value is the dot product of the weights
    with the step values at the nodes, computed in three buffers allocated
    once.  Every value is bit-identical to the per-n evaluation
    (`shepard_eval_1d`); tests/test_kernels.py holds the reference loops.
    """
    if not s >= 1.0:
        raise ValueError("exponent s must be >= 1")
    if not 0.0 <= x <= 1.0:
        raise ValueError("evaluation point must lie in [0, 1]")
    kf = np.arange(n_max + 1, dtype=float)
    nodes_buf, w_buf, vals_buf = np.empty(n_max + 1), np.empty(n_max + 1), np.empty(n_max + 1)
    out = np.empty(n_max)
    for n in range(1, n_max + 1):
        if spec is not None and node_index(spec, n) is not None:
            out[n - 1] = step(x)
            continue
        nodes, w, vals = nodes_buf[:n + 1], w_buf[:n + 1], vals_buf[:n + 1]
        np.divide(kf[:n + 1], n, out=nodes)
        j = _weights(w, nodes, x, s)
        if j is not None:
            out[n - 1] = step(nodes[j])
            continue
        step.sample_sorted(nodes, vals)
        out[n - 1] = w @ vals
    return out


def step_sequence_at(step: StepFn1D, s: float, x: float, n_max: int) -> np.ndarray:
    """Values S_n(step)(x) for n = 1..n_max at a general point x.

    Bit-identical to `shepard_eval_1d` at every n (tests/test_kernels.py).
    """
    return _window(step, s, x, n_max)


def step_sequence(spec: PointSpec, s: float, n_max: int,
                  step: StepFn1D | None = None) -> np.ndarray:
    """Values S_n(step)(x0) for n = 1..n_max at the jump point x0 = spec value.

    step defaults to the closed left indicator (1 on [0, x0]); node hits
    are resolved exactly for rational specs.  Every value is bit-identical
    to the earlier per-n loop kept in tests/test_kernels.py.
    """
    x0 = spec.value
    if step is None:
        step = StepFn1D.indicator_upto(x0)
    return _window(step, s, x0, n_max, spec)
