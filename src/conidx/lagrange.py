"""Lagrange interpolation at Chebyshev nodes of the second type.

Nodes are x[k] = cos((k-1) pi / (n-1)), k = 1..n, endpoints included.  The
fundamental polynomials are evaluated through the closed trigonometric form

    ell[k](cos t) = (-1)^k / ((n-1)(1 + [k=1] + [k=n])) *
                    sin((n-1) t) sin t / (cos t - cos t[k]),

with a short-circuit to the Kronecker value when the evaluation point
collides with a node (the quotient has a removable singularity there).

For a step function with jump at x0 = cos(t0), the value L_n h(x0) admits an
exact three-part rewrite: a boundary term, a partial alternating series whose
limit is the jump profile, and a bounded correction sum.  That rewrite is
implemented independently of the direct summation and serves as its oracle;
the fractional grid offset that drives it is computed in exact integer
arithmetic whenever the jump angle is a rational multiple of pi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .points import PointSpec
from .stepfn import StepFn1D, StepFn2D

# |x - node| below this times n counts as a node hit (removable singularity)
NODE_COLLISION = 1e-13


@dataclass(frozen=True)
class ChebGrid:
    """Chebyshev nodes of the second type on [-1, 1], endpoints included."""

    n: int
    angles: np.ndarray
    nodes: np.ndarray


def cheb_grid(n: int) -> ChebGrid:
    if n < 2:
        raise ValueError("need at least 2 nodes")
    k = np.arange(1, n + 1)
    angles = (k - 1) * (math.pi / (n - 1))
    return ChebGrid(n=n, angles=angles, nodes=np.cos(angles))


def _alternating(n: int) -> np.ndarray:
    """The barycentric signs (-1)^k for k = 1..n."""
    alt = np.ones(n)
    alt[::2] = -1.0
    return alt


def _node_hit(nodes: np.ndarray, x: float, dist: np.ndarray) -> int | None:
    """Index of the node nearest x if it lies within NODE_COLLISION * n of x.

    dist receives |x - nodes|.
    """
    np.subtract(x, nodes, out=dist)
    np.abs(dist, out=dist)
    j = int(np.argmin(dist))
    return j if dist[j] <= NODE_COLLISION * len(nodes) else None


def _weights(w: np.ndarray, diff: np.ndarray, nodes: np.ndarray, alt: np.ndarray,
             x: float, theta: float, n: int) -> None:
    """ell[1..K](x) into w for x = cos(theta) off the nodes of the n-node grid,
    where K = len(nodes) <= n; diff receives x - nodes.

    The numerator is (-1)^k c with c = (1/(n-1)) sin((n-1) theta) sin theta,
    halved at both endpoints: halving is exact, so every entry rounds as
    sign / ((n-1) fac) * s does.
    """
    c = (1.0 / (n - 1)) * (math.sin((n - 1) * theta) * math.sin(theta))
    np.multiply(alt, c, out=w)
    w[0] *= 0.5
    if len(w) == n:
        w[-1] *= 0.5
    np.subtract(x, nodes, out=diff)
    np.divide(w, diff, out=w)


def fundamental_weights(grid: ChebGrid, x: float) -> np.ndarray:
    """The fundamental polynomial values ell[1..n](x), as one vector."""
    n = grid.n
    w, work = np.zeros(n), np.empty(n)
    j = _node_hit(grid.nodes, x, work)
    if j is not None:
        w[j] = 1.0
    else:
        _weights(w, work, grid.nodes, _alternating(n), x, math.acos(min(1.0, max(-1.0, x))), n)
    return w


def _node_samples(f, grid: ChebGrid, x: float) -> np.ndarray:
    """f at the nodes, where a callable f is sampled at x itself at a node hit.

    The hit node is x up to rounding, and a step whose jump is x must give
    its value at the jump, not that of the side the rounded node falls on.
    """
    if isinstance(f, np.ndarray):
        if f.shape != (grid.n,):
            raise ValueError("sample array length must equal the node count")
        return f
    samples = np.array(f(grid.nodes), dtype=float)
    j = _node_hit(grid.nodes, x, np.empty(grid.n))
    if j is not None:
        samples[j] = f(x)
    return samples


def lagrange_eval_1d(f, n: int, x: float) -> float:
    """L_n f(x); f may be a StepFn1D, a callable, or a node-sample array."""
    grid = cheb_grid(n)
    return float(fundamental_weights(grid, x) @ _node_samples(f, grid, x))


def lagrange_eval_2d(h: StepFn2D, n: int, m: int, x: float, y: float,
                     cross_check: bool = False) -> float:
    """L_{n,m} h(x, y) for a tensor step, via the product decomposition.

    With cross_check=True the full double sum over the node grid is also
    evaluated and must agree to 1e-9.
    """
    gx, gy = cheb_grid(n), cheb_grid(m)
    wx, wy = fundamental_weights(gx, x), fundamental_weights(gy, y)
    sx, sy = _node_samples(h.fx, gx, x), _node_samples(h.fy, gy, y)
    out = float(wx @ sx) * float(wy @ sy)
    if cross_check:
        direct = float(wx @ (sx[:, None] * sy[None, :]) @ wy)
        if abs(direct - out) > 1e-9:
            raise AssertionError(
                f"product decomposition {out!r} disagrees with double sum {direct!r}"
            )
    return out


# ---------------------------------------------------------------------------
# grid offset and the decomposed jump-value oracle


def grid_offset(spec: PointSpec, n: int) -> float:
    """Fractional part of (n-1) * theta0/pi: the position of the jump angle
    within the node spacing.  Zero means the jump point is a node."""
    if n < 2:
        raise ValueError("grid offset needs n >= 2")
    return spec.multiple_mod1(n - 1)


def offset_subsequence(p: int, q: int, m: int) -> Iterator[int]:
    """Indices k = l + n*q + 1 (n >= 1) along which grid_offset == m/q exactly.

    l in {0..q-1} solves l*p = m (mod q); it exists and is unique because
    gcd(p, q) = 1.
    """
    if math.gcd(p, q) != 1:
        raise ValueError("p and q must be coprime")
    if not 0 <= m < q:
        raise ValueError("residue m must lie in 0..q-1")
    l = (m * pow(p, -1, q)) % q
    assert (l * p) % q == m
    n = 1
    while True:
        yield l + n * q + 1
        n += 1


def _correction_term(theta0: float, n: int, k0: int, sigma: float, m: np.ndarray) -> np.ndarray:
    """g_{t0}(t[k0-m]) = sin t0 / (cos t[k0-m] - cos t0) - (n-1)/(pi (sigma+m)).

    cos t - cos t0 is expanded as a product of sines, with the half-gap
    (t0 - t)/2 = pi (sigma+m) / (2(n-1)) formed without subtraction; the
    direct difference cancels catastrophically when the node is close.
    """
    t_node = (k0 - m - 1) * math.pi / (n - 1)
    half_gap = math.pi * (sigma + m) / (2.0 * (n - 1))
    denom = 2.0 * np.sin((theta0 + t_node) / 2.0) * np.sin(half_gap)
    return math.sin(theta0) / denom - (n - 1) / (math.pi * (sigma + m))


def eval_jump_decomposed(spec: PointSpec, d: float, n: int) -> float:
    """L_n h(x0) for the jump step, via the exact three-part rewrite.

    Returns d when the jump point is a node (offset zero).  Otherwise the
    value is boundary + profile partial sum + bounded correction, all driven
    by the grid offset; sin((n-1) t0) is reduced through the offset, so no
    large-argument sine is evaluated.
    """
    if n < 2:
        raise ValueError("decomposition needs n >= 2")
    sigma = grid_offset(spec, n)
    if sigma == 0.0:
        return float(d)
    theta0 = math.pi * spec.value
    k0 = int((n - 1) * spec.value) + 1 if not spec.is_rational else ((n - 1) * spec.p) // spec.q + 1
    sin_pi_sigma = math.sin(math.pi * sigma)
    # sin((n-1) t0) = (-1)^(k0-1) sin(pi sigma)
    boundary = (
        (-1.0) ** (k0 - 1)
        * sin_pi_sigma
        * math.sin(theta0)
        / (2.0 * (n - 1) * (math.cos(theta0) - 1.0))
    )
    m = np.arange(k0, dtype=float)
    alt = np.where(np.arange(k0) % 2 == 0, 1.0, -1.0)
    series = sin_pi_sigma / math.pi * float((alt / (sigma + m)).sum())
    corr = sin_pi_sigma / (n - 1) * float((alt * _correction_term(theta0, n, k0, sigma, m)).sum())
    return boundary + series + corr


def _window(step: StepFn1D, x: float, theta: float, ns: range,
            spec: PointSpec | None = None) -> np.ndarray:
    """Values L_n(step)(x) for the n in ns (all >= 2), with x = cos(theta).

    With spec, x is the jump point cos(pi * spec.value) and n is a node hit
    exactly when the grid offset is zero; without, a node within
    NODE_COLLISION * n of x is a hit.  A hit returns the step value at x.
    Otherwise the value is the dot product of the weights with the step
    values at the nodes, computed in three buffers allocated once.  With
    spec and step.left == 0, the step is 0 on every node below step.x0, so
    the nodes, weights and step values are computed only on the head
    k < K of nodes at or above it, and both vectors are zeroed past it (the
    buffers may hold nan there, and 0 * nan is nan): the full-length dot
    product sums the same nonzero terms.  Every value is
    bit-identical to the per-n evaluation (`lagrange_eval_1d`);
    tests/test_kernels.py holds the reference loops.
    """
    size = ns.stop - 1
    kf = np.arange(size, dtype=float)
    alt = _alternating(size)
    nodes_buf, w_buf, work_buf = np.empty(size), np.empty(size), np.empty(size)
    out = np.empty(len(ns))
    # the jump angle of the step over pi: nodes k <= (n-1) cut lie at or above it
    cut = math.acos(min(1.0, max(-1.0, step.x0))) / math.pi
    at_x = step(x)
    for i, n in enumerate(ns):
        if spec is not None and grid_offset(spec, n) == 0.0:
            out[i] = at_x
            continue
        K = n if spec is None or step.left != 0.0 else min(n, int((n - 1) * cut) + 1)
        while True:  # the estimate is confirmed on the rounded nodes, never trusted
            head = min(K + 1, n)
            np.multiply(kf[:head], math.pi / (n - 1), out=work_buf[:head])
            np.cos(work_buf[:head], out=nodes_buf[:head])
            if K == n or nodes_buf[K] < step.x0:
                break
            K += 1
        nodes, w, work = nodes_buf[:K], w_buf[:K], work_buf[:K]
        if spec is None:
            j = _node_hit(nodes, x, work)
            if j is not None:
                out[i] = at_x
                continue
        _weights(w, work, nodes, alt[:K], x, theta, n)
        step.sample_sorted(nodes, work)
        w_buf[K:n] = 0.0
        work_buf[K:n] = 0.0
        out[i] = w_buf[:n] @ work_buf[:n]
    return out


def jump_value_direct(spec: PointSpec, d: float, n: int) -> float:
    """L_n h(x0) by direct summation of the fundamental polynomials."""
    theta0 = math.pi * spec.value
    x0 = math.cos(theta0)
    return float(_window(StepFn1D.jump(x0, d), x0, theta0, range(n, n + 1), spec)[0])


def step_sequence_at(step: StepFn1D, x: float, n_max: int) -> np.ndarray:
    """Values L_n(step)(x) for n = 1..n_max at a general point x.

    Node collisions are resolved by the proximity short-circuit; the n = 1
    entry is the one-node constant interpolant step(+1).  Bit-identical to
    `lagrange_eval_1d` at every n (tests/test_kernels.py).
    """
    out = np.empty(n_max)
    out[0] = step(1.0)
    out[1:] = _window(step, x, math.acos(min(1.0, max(-1.0, x))), range(2, n_max + 1))
    return out


def jump_sequence(spec: PointSpec, d: float, n_max: int,
                  step: StepFn1D | None = None) -> np.ndarray:
    """Values L_n(step)(x0) for n = 1..n_max by direct evaluation.

    The n = 1 entry uses the one-node convention: interpolation on the
    single node +1 is the constant step(+1).  step defaults to the basic
    jump function with value d at x0.  Node hits are the n with zero grid
    offset.  Every value is bit-identical to the earlier per-n loop kept in
    tests/test_kernels.py.
    """
    theta0 = math.pi * spec.value
    x0 = math.cos(theta0)
    if step is None:
        step = StepFn1D.jump(x0, d)
    out = np.empty(n_max)
    out[0] = step(1.0)
    out[1:] = _window(step, x0, theta0, range(2, n_max + 1), spec)
    return out
