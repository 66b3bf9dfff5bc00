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
from typing import Sequence

import numpy as np

from .points import PointSpec
from .stepfn import StepFn1D, StepFn2D, tensor_value, window_indices

# |x - node| at or below this is a node hit (removable singularity): exact
# hits round to within 4.4e-16, other nodes stay about 1e-12 or more away
# (presets, p/q with q <= 2000, n <= 10**6)
NODE_COLLISION = 1e-13


def cheb_grid(n: int) -> np.ndarray:
    """The n Chebyshev nodes of the second type on [-1, 1], endpoints included."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    k = np.arange(1, n + 1)
    return np.cos((k - 1) * (math.pi / (n - 1)))


def _acos(x: float) -> float:
    """The angle of x on [-1, 1], where the closed trigonometric form holds."""
    if not -1.0 <= x <= 1.0:
        raise ValueError("evaluation point must lie in [-1, 1]")
    return math.acos(x)


def _node_hit(n: int, x: float, theta: float) -> int | None:
    """Index of the node of the n-node grid nearest x = cos(theta) if it lies
    within NODE_COLLISION of x, else None.

    The angle of x lies between those of the nodes j and j + 1,
    j = floor((n-1) theta / pi), up to rounding, so the nearest node is
    among j - 1 .. j + 2; only those four are computed, each as
    cos(k pi/(n-1)) like `cheb_grid`.  The gap between the distances of
    hits and of other nodes and NODE_COLLISION absorbs any last-bit
    difference between this cosine and the vector one.
    """
    h = math.pi / (n - 1)
    j = int((n - 1) * theta / math.pi)
    k = min(range(max(j - 1, 0), min(j + 3, n)), key=lambda k: abs(x - math.cos(k * h)))
    return k if abs(x - math.cos(k * h)) <= NODE_COLLISION else None


def _weights(w: np.ndarray, nodes: np.ndarray, x: float, c: float) -> None:
    """c / (x - nodes) into w, for x off the nodes.

    With c = (1/(n-1)) sin((n-1) theta) sin theta at x = cos(theta) these
    are the fundamental polynomial values ell[k](x) without their factor
    (-1)^k and the halving at both ends of the n-node grid.  Both are exact
    powers of two, so a product with them rounds the same either way.
    """
    np.subtract(x, nodes, out=w)
    np.divide(c, w, out=w)


def _numerator(n: int, theta: float) -> float:
    """c = (1/(n-1)) sin((n-1) theta) sin theta of `_weights`."""
    return (1.0 / (n - 1)) * (math.sin((n - 1) * theta) * math.sin(theta))


def fundamental_weights(nodes: np.ndarray, x: float) -> np.ndarray:
    """The fundamental polynomial values ell[1..n](x) of the n `cheb_grid`
    nodes, as one vector."""
    n, theta = nodes.size, _acos(x)
    w = np.zeros(n)
    j = _node_hit(n, x, theta)
    if j is not None:
        w[j] = 1.0
    else:
        _weights(w, nodes, x, _numerator(n, theta))
        w[::2] *= -1.0
        w[0] *= 0.5
        w[-1] *= 0.5
    return w


def _node_samples(f, nodes: np.ndarray, x: float) -> np.ndarray:
    """f at the nodes, where f is sampled at x itself at a node hit.

    The hit node is x up to rounding, and a step whose jump is x must give
    its value at the jump, not that of the side the rounded node falls on.
    """
    samples = np.array(f(nodes), dtype=float)
    j = _node_hit(nodes.size, x, _acos(x))
    if j is not None:
        samples[j] = f(x)
    return samples


def lagrange_eval_1d(f, n: int, x: float) -> float:
    """L_n f(x); f may be a StepFn1D or any callable on node arrays."""
    nodes = cheb_grid(n)
    return float(fundamental_weights(nodes, x) @ _node_samples(f, nodes, x))


def lagrange_eval_2d(h: StepFn2D, n: int, m: int, x: float, y: float,
                     cross_check: bool = False) -> float:
    """L_{n,m} h(x, y) for a tensor step, via the product decomposition; with
    cross_check=True the full double sum must agree to 1e-9."""
    gx, gy = cheb_grid(n), cheb_grid(m)
    return tensor_value(fundamental_weights(gx, x), _node_samples(h.fx, gx, x),
                        fundamental_weights(gy, y), _node_samples(h.fy, gy, y),
                        1e-9, cross_check)


# ---------------------------------------------------------------------------
# grid offset and the decomposed jump-value oracle


def grid_offset(spec: PointSpec, n: int) -> float:
    """Fractional part of (n-1) * theta0/pi: the position of the jump angle
    within the node spacing.  Zero means the jump point is a node."""
    if n < 2:
        raise ValueError("grid offset needs n >= 2")
    return spec.multiple_mod1(n - 1)


def _correction_terms(theta0: float, n: int, k0: int, pi_sigma_m: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
    """g_{t0}(t[k0-m]) = sin t0 / (cos t[k0-m] - cos t0) - (n-1)/(pi (sigma+m))
    for m = 0..k0-1 into out, given pi_sigma_m = pi (sigma + m), which
    becomes (n-1)/(pi (sigma+m)).

    cos t - cos t0 is expanded as a product of sines, with the half-gap
    (t0 - t)/2 = pi (sigma+m) / (2(n-1)) formed without subtraction; the
    direct difference cancels catastrophically when the node is close.  The
    node angles t[k0-m] = (k0-m-1) pi/(n-1) take their exact integers from
    the ramp read backwards.
    """
    t_node = np.multiply(_ramp(k0)[::-1], math.pi, out=out)
    t_node /= n - 1
    t_node += theta0
    t_node /= 2.0
    denom = np.sin(t_node, out=t_node)
    denom *= 2.0
    half_gap = np.divide(pi_sigma_m, 2.0 * (n - 1))
    denom *= np.sin(half_gap, out=half_gap)
    g = np.divide(math.sin(theta0), denom, out=denom)
    g -= np.divide(n - 1, pi_sigma_m, out=pi_sigma_m)
    return g


def _cached(k: int, cache: list, make) -> np.ndarray:
    """The first k entries of the read-only vector cache[0], replaced by
    make(2k) when it is shorter; a slice taken earlier keeps its values."""
    if cache[0].size < k:
        vec = make(2 * k)
        vec.flags.writeable = False
        cache[0] = vec
    return cache[0][:k]


# +1, -1, +1, ...: the signs of the rewrite's sums, and 0, 1, 2, ...: its
# offsets m and node numbers
_ALTERNATING, _RAMP = [np.empty(0)], [np.empty(0)]


def _alternating(k: int) -> np.ndarray:
    """The first k entries of +1, -1, +1, ..., read-only."""
    return _cached(k, _ALTERNATING, lambda size: np.resize([1.0, -1.0], size))


def _ramp(k: int) -> np.ndarray:
    """The first k entries of 0.0, 1.0, 2.0, ..., read-only."""
    return _cached(k, _RAMP, lambda size: np.arange(size, dtype=float))


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
    sigma_m = np.add(_ramp(k0), sigma)
    pi_sigma_m = np.multiply(sigma_m, math.pi)
    alt = _alternating(k0)
    terms = np.divide(alt, sigma_m, out=sigma_m)
    series = sin_pi_sigma / math.pi * float(terms.sum())
    terms = _correction_terms(theta0, n, k0, pi_sigma_m, out=terms)
    terms *= alt
    corr = sin_pi_sigma / (n - 1) * float(terms.sum())
    return boundary + series + corr


def _window(x0: float, d: float, x: float, theta: float, ns: Sequence[int],
            spec: PointSpec | None = None) -> np.ndarray:
    """Values L_n h(x) of the jump h = `StepFn1D.jump(x0, d)` for the n in
    ns, with x = cos(theta): a range 1..N or a strictly increasing list of
    Python ints (`window_indices`).

    n = 1 is the one-node grid {+1}, whose interpolant is the constant
    h(+1).  With spec, x is the jump point cos(pi * spec.value) and n is
    a node hit exactly when the grid offset is zero; without, when a node
    lies within NODE_COLLISION of x (`_node_hit`).  A hit returns h(x).
    Otherwise the value is the full-length dot product of `_weights` with
    h at the nodes times their sign and endpoint factors.  h is 0 below
    x0, so the weights are nonzero only on the head k < b of nodes at or
    above it, where h is 1: the samples are the first n signs, the first
    node halved, patched in a copy where a node equals x0 without a hit
    (to d) or the head reaches the last node (halved).  No value depends
    on the other n in ns, so every value is bit-identical to the per-n
    evaluation (`lagrange_eval_1d`) and to a prefix window's entry at the
    same n; tests/test_kernels.py holds the reference loops.
    """
    size = ns[-1]
    kf = np.arange(size, dtype=float)
    nodes, w = np.empty(size), np.zeros(size)
    signs = np.ones(size)
    signs[::2] = -1.0
    signs[:1] = -0.5
    out = np.empty(len(ns))
    step = StepFn1D.jump(x0, d)
    # the jump angle over pi: nodes k <= (n-1) cut lie at or above x0
    cut = math.acos(min(1.0, max(-1.0, x0))) / math.pi
    at_x = step(x)
    # the weights past this index are zero; the head only grows with n as
    # long as the rounded nodes do, so zeroing is for a head that shrank
    written = 0
    multiply, cos = np.multiply, np.cos
    for i, n in enumerate(ns):
        if n == 1:
            out[i] = step(1.0)
            continue
        if (grid_offset(spec, n) == 0.0 if spec is not None
                else _node_hit(n, x, theta) is not None):
            out[i] = at_x
            continue
        h = math.pi / (n - 1)
        # b counts the nodes at or above x0: estimated, then confirmed on the
        # rounded nodes by comparing the last nodes of the head with x0
        b = min(n, int((n - 1) * cut) + 1)
        while True:
            head = min(b + 1, n)
            angles = nodes[:head]
            multiply(kf[:head], h, out=angles)
            cos(angles, out=angles)
            while b < head and nodes[b] >= x0:
                b += 1
            if b < head or b == n:
                break
        while b > 0 and nodes[b - 1] < x0:
            b -= 1
        a = b
        while a > 0 and nodes[a - 1] == x0:
            a -= 1
        _weights(w[:b], nodes[:b], x, _numerator(n, theta))
        if b < written:
            w[b:written] = 0.0
        written = b
        samples = signs[:n]
        if a < b or b == n:
            samples = samples.copy()
            samples[a:b] *= d
            if b == n:
                samples[-1] *= 0.5
        out[i] = w[:n] @ samples
    return out


def step_sequence_at(x0: float, x: float, n_max: int) -> np.ndarray:
    """Values L_n h(x) for n = 1..n_max at a general point x, where h is the
    jump `StepFn1D.jump(x0, 1)` of a tensor factor.

    Node hits are the n with a node within NODE_COLLISION of x; the n = 1
    entry is the one-node constant interpolant h(+1).  Bit-identical to
    `lagrange_eval_1d` at every n (tests/test_kernels.py).  Raises
    ValueError for n_max below 1.
    """
    return _window(x0, 1.0, x, _acos(x), window_indices(n_max))


def jump_sequence(spec: PointSpec, d: float, n_max: int, *,
                  indices: Sequence[int] | None = None) -> np.ndarray:
    """Values L_n h(x0) for n = 1..n_max by direct evaluation, where h is the
    basic jump `StepFn1D.jump(x0, d)`; with `indices`, a strictly increasing
    integer set inside 1..n_max, only for the n in it, in its order.

    The n = 1 entry uses the one-node convention: interpolation on the
    single node +1 is the constant h(+1).  Node hits are the n with zero
    grid offset.  Every value is bit-identical to the earlier per-n loop
    kept in tests/test_kernels.py, so an index set's values are exactly the
    prefix window's entries at those n, at O(n) cost per index.  Raises
    ValueError for n_max below 1 or an index set that is empty, not
    strictly increasing or outside 1..n_max.
    """
    theta0 = math.pi * spec.value
    x0 = math.cos(theta0)
    return _window(x0, d, x0, theta0, window_indices(n_max, indices), spec)
