"""Univariate Shepard operators on equispaced nodes of [0,1], and their tensor
product.

S_n f(x) is the inverse-distance weighted average of the node values with
weights |x - i/n|^-s, s >= 1.  At a node the weights degenerate to the unit
vector there, so the operator interpolates; node hits against a rational
evaluation point are detected in exact integer arithmetic (p*n divisible
by q), because the q-periodic cluster structure hinges on them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .points import PointSpec
from .stepfn import StepFn1D, StepFn2D, tensor_value, window_indices

NODE_PROXIMITY = 1e-13
# The most doubles a block of window rows holds (256 kB), unless one row
# alone is longer
_BLOCK = 1 << 15


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


def _first_node_at_or_above(x: float, n: int) -> int:
    """The least i in 0..n+1 with i/n >= x (n + 1 if there is none).

    Python's i/n rounds as numpy's division of the node grid does, so the
    answer is the one the grid itself gives; ceil(x*n) is only the guess.
    """
    i = math.ceil(min(max(x, 0.0), 1.0) * n)
    while i > 0 and (i - 1) / n >= x:
        i -= 1
    while i <= n and i / n < x:
        i += 1
    return i


def _nearest(x: float, n: int) -> tuple[int, int, float]:
    """(g, j, d) for x in [0, 1]: g = `_first_node_at_or_above`, j the index
    of the node nearest x (the lower one at a tie, as argmin takes it) and
    d = |x - j/n|."""
    g = _first_node_at_or_above(x, n)
    if g == 0:  # x = 0, node 0
        return g, 0, 0.0
    d_lo, d_hi = x - (g - 1) / n, g / n - x
    return (g, g - 1, d_lo) if d_lo <= d_hi else (g, g, d_hi)


def shepard_weights_1d(params: ShepardParams, x: float) -> np.ndarray:
    """Normalized weight vector over the n+1 nodes at evaluation point x.

    A node within NODE_PROXIMITY of x yields the unit vector there.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("evaluation point must lie in [0, 1]")
    n = params.n
    _, j, d = _nearest(x, n)
    if d <= NODE_PROXIMITY:
        w = np.zeros(n + 1)
        w[j] = 1.0
        return w
    (w,) = _weight_rows(np.empty((1, n + 1)), np.arange(n + 1, dtype=float), [n], [d], x,
                        params.s)
    return w


def shepard_eval_1d(f, params: ShepardParams, x: float) -> float:
    """S_n f(x); f may be a StepFn1D or any callable on node arrays."""
    w = shepard_weights_1d(params, x)
    return float(w @ np.asarray(f(params.nodes), dtype=float))


def shepard_eval_2d(h: StepFn2D, params_x: ShepardParams, params_y: ShepardParams,
                    x: float, y: float, cross_check: bool = False) -> float:
    """S_{n,m} h(x, y) for a tensor step, via the product decomposition; with
    cross_check=True the full double sum must agree to 1e-10."""
    return tensor_value(shepard_weights_1d(params_x, x), h.fx(params_x.nodes),
                        shepard_weights_1d(params_y, y), h.fy(params_y.nodes),
                        1e-10, cross_check)


def _window(x0: float, s: float, x: float, ns: Sequence[int],
            spec: PointSpec | None = None) -> np.ndarray:
    """Values S_n h(x) of the closed left indicator h =
    `StepFn1D.indicator_upto(x0)` for the n in ns: a range 1..N or a
    strictly increasing list of Python ints (`window_indices`).

    With spec, n is a node hit exactly when x = spec value is a node; a node
    within NODE_PROXIMITY of x is a hit in either case.  A hit returns h
    there.  The other n are evaluated in blocks (`_rows`), each value the
    full-length dot product of the normalized weights with h at the nodes:
    a view of one vector of N + 1 ones and N + 1 zeros, N the last n, that
    puts the ones on the b nodes at or below x0.  No value depends on the
    other n in ns, so every value is bit-identical to the per-n evaluation
    (`shepard_eval_1d`) and to a prefix window's entry at the same n;
    tests/test_kernels.py holds the reference loops.
    """
    if not s >= 1.0:
        raise ValueError("exponent s must be >= 1")
    if not 0.0 <= x <= 1.0:
        raise ValueError("evaluation point must lie in [0, 1]")
    top = ns[-1]
    kf = np.arange(top + 1, dtype=float)
    buf = np.empty(max(min(_BLOCK, (top + 1) * len(ns)), top + 1))
    steps = np.repeat([1.0, 0.0], top + 1)
    out = np.empty(len(ns))
    step = StepFn1D.indicator_upto(x0)
    at_x = step(x)
    # the non-hit n of the block being collected, their nearest distances,
    # their counts b of nodes at or below x0 and their places in out
    rows, ds, bs, at = [], [], [], []
    for i, n in enumerate(ns):
        if spec is not None and node_index(spec, n) is not None:
            out[i] = at_x
            continue
        g, j, d = _nearest(x, n)
        if d <= NODE_PROXIMITY:
            out[i] = step(j / n)
            continue
        if (len(rows) + 1) * (n + 1) > _BLOCK and rows:
            _rows(out, buf, kf, steps, x, s, rows, ds, bs, at)
            rows, ds, bs, at = [], [], [], []
        a = g if x0 == x else _first_node_at_or_above(x0, n)
        rows.append(n)
        ds.append(d)
        bs.append(a + (a <= n and a / n == x0))
        at.append(i)
    if rows:
        _rows(out, buf, kf, steps, x, s, rows, ds, bs, at)
    return out


def _weight_rows(w: np.ndarray, kf: np.ndarray, ns: list, ds: list, x: float,
                 s: float) -> Iterator[np.ndarray]:
    """The normalized weights (d / |x - k/n|)^s of the n in ns, each the
    head of one row of w as long as its n + 1 nodes, in turn; d = ds[i] is
    the distance from x to the nearest node of n = ns[i], w is as wide as
    the last n + 1 and kf holds k = 0.0, 1.0, 2.0, ... at least that far.

    The nodes k/n, |x - node| and the weights are taken elementwise over
    the rows.  A difference and its negation round alike, so the one
    subtraction and `abs` equal a subtraction from each side of x.  Entries
    past a row's n (k/n > 1 >= x, so no division by zero) are never read.
    Scaling by the nearest distance before exponentiation keeps large s
    from overflowing; at s = 1 the power is the identity and is skipped.
    Each row is normalized by the sum of its own weights, and pairwise
    summation depends only on their number, so no row depends on the others.
    """
    nd = np.array((ns, ds), dtype=float)[:, :, None]
    np.divide(kf[:w.shape[1]], nd[0], out=w)
    np.subtract(w, x, out=w)
    np.abs(w, out=w)
    np.divide(nd[1], w, out=w)
    if s != 1.0:
        w **= s
    for row, n in zip(w, ns):
        row = row[:n + 1]
        row /= row.sum()
        yield row


def _rows(out: np.ndarray, buf: np.ndarray, kf: np.ndarray, steps: np.ndarray,
          x: float, s: float, ns: list, ds: list, bs: list, at: list) -> None:
    """The window values at the non-hit n in ns into out at the places at,
    their `_weight_rows` in one block of buf; ds are the nearest distances
    and bs the counts of nodes at or below x0.

    Each dot product has the full length n + 1 and takes the ones of h on
    the first b nodes from a view of steps.
    """
    w = buf[:len(ns) * (ns[-1] + 1)].reshape(len(ns), ns[-1] + 1)
    top = steps.size // 2
    for row, n, b, i in zip(_weight_rows(w, kf, ns, ds, x, s), ns, bs, at):
        out[i] = row @ steps[top - b:top + 1 - b + n]


def step_sequence_at(x0: float, s: float, x: float, n_max: int) -> np.ndarray:
    """Values S_n h(x) for n = 1..n_max at a general point x, where h is the
    closed left indicator `StepFn1D.indicator_upto(x0)`.

    Bit-identical to `shepard_eval_1d` at every n (tests/test_kernels.py).
    Raises ValueError for n_max below 1.
    """
    return _window(x0, s, x, window_indices(n_max))


def step_sequence(spec: PointSpec, s: float, n_max: int, *,
                  indices: Sequence[int] | None = None) -> np.ndarray:
    """Values S_n h(x0) for n = 1..n_max at the jump point x0 = spec value,
    where h is the closed left indicator `StepFn1D.indicator_upto(x0)`;
    with `indices`, a strictly increasing integer set inside 1..n_max, only
    for the n in it, in its order.

    Node hits are resolved exactly for rational specs.  Every value is
    bit-identical to the earlier per-n loop kept in tests/test_kernels.py,
    so an index set's values are exactly the prefix window's entries at
    those n, at O(n) cost per index.  Raises ValueError for n_max below 1
    or an index set that is empty, not strictly increasing or outside
    1..n_max.
    """
    return _window(spec.value, s, spec.value, window_indices(n_max, indices), spec)
