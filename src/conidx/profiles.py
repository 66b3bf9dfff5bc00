"""Limit profiles of the interpolation operators at a jump, and their measures.

Two special functions drive everything: the alternating Lerch series at s=1,
which yields the Lagrange jump profile

    profile(x) = sin(pi x)/pi * sum_{n>=0} (-1)^n / (n + x),   profile(0) = 1,

and the Hurwitz zeta function, which yields the Shepard jump profile

    profile_s(t) = zeta(s, t) / (zeta(s, t) + zeta(s, 1 - t)),  profile_s(0) = 1.

Both are continuous, strictly decreasing bijections of [0, 1) onto (0, 1],
which is what makes preimage measures of intervals computable by bisection.
Short Euler-Maclaurin kernels for psi and zeta place guards around each
root; the series evaluators decide every bisection step between them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np


SERIES_TOL = 1e-12        # absolute-error budget of the series evaluators
BISECT_TOL = 1e-10
# The screens never step the wrong way by more than this between two points
# of (0, 1): measured on a dense grid, the largest such step is 1.1e-16.
SCREEN_ETA = 1e-13
# Entries of the (points x terms) table that the series kernels build at a
# time: 120 KB of doubles, so the table stays in cache however many points a
# call evaluates, and below the 128 KB from which malloc maps fresh pages for
# every temporary.
_TABLE_BLOCK = 15 * 1024
# Targets whose screen guards invert_monotone finds at a time
_GUARD_BLOCK = 2048


def _row_sums(a_arr: np.ndarray, n_terms: int,
              terms: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """terms(a[:, None]).sum(axis=-1) for every element a of a_arr, shaped like a_arr.

    Each row is summed on its own, so a value does not depend on the block
    it falls in.
    """
    flat = a_arr.reshape(-1)
    out = np.empty(flat.shape)
    rows = max(1, _TABLE_BLOCK // n_terms)
    for start in range(0, flat.size, rows):
        out[start:start + rows] = terms(flat[start:start + rows, None]).sum(axis=-1)
    return out.reshape(a_arr.shape)


def lerch_j1(a):
    """Alternating series sum_{n>=0} (-1)^n/(n+a) for 0 < a <= 1.

    Consecutive terms are folded into the positive series
    sum_k 1/((2k+a)(2k+a+1)), summed to M terms with an Euler-Maclaurin
    tail (integral + t(M)/2 - t'(M)/12).  The first neglected correction
    is ~ 0.27*(2M+a)^-5, which fixes M from the tolerance.
    """
    a_arr = np.asarray(a, dtype=float)
    if not np.all((a_arr > 0.0) & (a_arr <= 1.0)):  # NaN fails too
        raise ValueError("lerch_j1 requires 0 < a <= 1")
    M = int(math.ceil(0.5 * (0.27 / SERIES_TOL) ** 0.2)) + 8
    two_k = 2.0 * np.arange(M, dtype=float)

    def terms(col):
        base = two_k + col
        return 1.0 / (base * (base + 1.0))

    partial = _row_sums(a_arr, M, terms)
    x = 2.0 * M + a_arr
    integral = 0.5 * np.log1p(1.0 / x)
    t_m = 1.0 / (x * (x + 1.0))
    tp_m = -2.0 * (x**-2 - (x + 1.0) ** -2)
    out = partial + integral + 0.5 * t_m - tp_m / 12.0
    return float(out) if out.ndim == 0 else out


def lagrange_jump_profile(x):
    """sin(pi x)/pi * lerch_j1(x) on (0,1), extended by 1 at x = 0."""
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr >= 0.0) & (x_arr < 1.0)):
        raise ValueError("profile argument must lie in [0, 1)")
    # evaluate the series at a safe stand-in where x == 0, then overwrite
    safe = np.where(x_arr == 0.0, 0.5, x_arr)
    vals = np.sin(np.pi * safe) / np.pi * lerch_j1(safe)
    out = np.where(x_arr == 0.0, 1.0, vals)
    return float(out) if out.ndim == 0 else out


def hurwitz_zeta(s: float, a):
    """sum_{n>=0} (n+a)^-s for s > 1, a > 0.

    M explicit terms plus the Euler-Maclaurin tail
    (M+a)^(1-s)/(s-1) + (M+a)^-s/2 + s (M+a)^(-s-1)/12, with M chosen so
    the next correction term s(s+1)(s+2)(M+a)^(-s-3)/720 is below SERIES_TOL.
    """
    s = float(s)
    if not 1.0 < s < math.inf:
        raise ValueError("hurwitz_zeta requires a finite s > 1 (no analytic continuation)")
    a_arr = np.asarray(a, dtype=float)
    if not np.all((a_arr > 0.0) & (a_arr < math.inf)):
        raise ValueError("hurwitz_zeta requires a finite a > 0")
    coeff = s * (s + 1.0) * (s + 2.0) / 720.0
    ratio = coeff / SERIES_TOL
    if math.isfinite(ratio):
        M = int(math.ceil(ratio ** (1.0 / (s + 3.0)))) + 8
    else:  # from s ~ 5e99 the ratio overflows, so take its root from logarithms
        log_ratio = (math.log(s) + math.log(s + 1.0) + math.log(s + 2.0)
                     - math.log(720.0) - math.log(SERIES_TOL))
        M = int(math.ceil(math.exp(log_ratio / (s + 3.0)))) + 8
    n = np.arange(M, dtype=float)
    partial = _row_sums(a_arr, M, lambda col: (n + col) ** -s)
    x = M + a_arr
    tail = x ** (1.0 - s) / (s - 1.0) + 0.5 * x**-s + s / 12.0 * x ** (-s - 1.0)
    out = partial + tail
    return float(out) if out.ndim == 0 else out


# Euler-Maclaurin kernels (Johansson, arXiv:1309.2877): shift the argument up
# by _EM_SHIFT steps of the recurrence, then apply the asymptotic expansion
# with the Bernoulli numbers B_2, B_4, ..., B_20.  They place the bisection's
# guards only; the series above stay the evaluators.
_EM_SHIFT = 12
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
              43867 / 798, -174611 / 330)


def _psi(x: np.ndarray) -> np.ndarray:
    """Digamma psi(x) for x > 0: psi(x + M) - sum_{k<M} 1/(x + k), with
    psi(z) ~ log z - 1/(2z) - sum_j B_2j / (2j z^2j)."""
    shift = np.zeros_like(x)
    for k in range(_EM_SHIFT - 1, -1, -1):
        shift += 1.0 / (x + k)
    z = x + _EM_SHIFT
    w = 1.0 / (z * z)
    tail = np.zeros_like(x)
    for j in range(len(_BERNOULLI), 0, -1):
        tail += _BERNOULLI[j - 1] / (2 * j)
        tail *= w
    return np.log(z) - 0.5 / z - tail - shift


def _zeta(s: float, a: np.ndarray) -> np.ndarray:
    """Hurwitz zeta(s, a) for s > 1, a > 0: sum_{k<M} (a + k)^-s plus
    z^(1-s)/(s-1) + z^-s/2 + sum_j B_2j/(2j)! s(s+1)..(s+2j-2) z^(-s-2j+1)
    at z = a + M."""
    total = np.zeros_like(a)
    for k in range(_EM_SHIFT - 1, -1, -1):
        total += (a + k) ** -s
    coeffs, rising, factorial = [], s, 2.0
    for j, b in enumerate(_BERNOULLI, 1):
        coeffs.append(b / factorial * rising)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        factorial *= (2 * j + 1) * (2 * j + 2)
    z = a + _EM_SHIFT
    w = 1.0 / (z * z)
    tail = np.zeros_like(a)
    for c in reversed(coeffs):
        tail *= w
        tail += c
    return total + z**-s * (z / (s - 1.0) + 0.5 + tail / z)


def _lagrange_screen(x: np.ndarray) -> np.ndarray:
    """The Lagrange profile on (0, 1) through psi:
    lerch_j1(x) = [psi((x+1)/2) - psi(x/2)] / 2."""
    return np.sin(np.pi * x) / np.pi * 0.5 * (_psi(0.5 * (x + 1.0)) - _psi(0.5 * x))


def _shepard_scaled(s: float, t: np.ndarray) -> np.ndarray:
    """The Shepard profile on (0, 1) with t^-s and (1-t)^-s factored out.

    zeta(s, a) = a^-s (1 + a^s zeta(s, a + 1)), and the profile's
    numerator and denominator are scaled by the larger of t^-s and
    (1-t)^-s, so only (min/max)^s <= 1 is raised to the power s: nothing
    overflows.
    """
    lo, hi = np.minimum(t, 1.0 - t), np.maximum(t, 1.0 - t)
    ratio = (lo / hi) ** s
    zt = 1.0 + t**s * hurwitz_zeta(s, t + 1.0)
    zu = 1.0 + (1.0 - t) ** s * hurwitz_zeta(s, 2.0 - t)
    num = np.where(t <= 0.5, zt, ratio * zt)
    return num / (num + np.where(t <= 0.5, ratio * zu, zu))


def _shepard_ratio(s: float, t: np.ndarray,
                   zeta: Callable[[float, np.ndarray], np.ndarray]) -> np.ndarray:
    """zeta(s,t) / (zeta(s,t) + zeta(s,1-t)) on (0, 1).

    Where t^-s or (1-t)^-s overflows (large s, t near an end) the value
    comes from `_shepard_scaled` instead; everywhere else it is the plain
    ratio.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # redone below
        num = zeta(s, t)
        den = np.asarray(num + zeta(s, 1.0 - t))
        over = ~np.isfinite(den)
        vals = np.divide(num, den, out=den)
    if over.any():
        vals[over] = _shepard_scaled(s, t[over])
    return vals


def shepard_jump_profile(s: float, t):
    """zeta(s,t) / (zeta(s,t) + zeta(s,1-t)) on (0,1), extended by 1 at t = 0."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr >= 0.0) & (t_arr < 1.0)):
        raise ValueError("profile argument must lie in [0, 1)")
    safe = np.where(t_arr == 0.0, 0.5, t_arr)
    out = np.where(t_arr == 0.0, 1.0, _shepard_ratio(s, safe, hurwitz_zeta))
    return float(out) if out.ndim == 0 else out


_MONOTONE_GRID = 1024


@dataclass(frozen=True)
class Profile1D:
    """Continuous, strictly monotone map of [0,1) used as a cluster profile.

    value_at_0 and limit_at_1 are the endpoint values in the monotone
    direction; monotonicity is verified on a fixed grid at construction.
    screen, if given, is a cheaper stand-in for fn on (0, 1) that stays well
    within invert_monotone's margin of it wherever it is finite, and that
    never steps against fn's direction by more than SCREEN_ETA (checked on
    `_screen_table`'s grid, with ValueError).  The bisection places its
    guards with it and never decides a step on it.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    kind: str
    value_at_0: float
    limit_at_1: float
    screen: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        xs = np.linspace(0.0, 1.0 - 1e-9, _MONOTONE_GRID)
        vals = np.asarray(self.fn(xs), dtype=float)
        diffs = np.diff(vals)
        scale = max(1.0, abs(self.value_at_0), abs(self.limit_at_1))
        # a saturating profile (Shepard at large s) rounds to its endpoint
        # value, or to within a few ulps of it, on a run of the grid; only
        # neighbours there may tie or step by up to that many ulps either way
        band = 8 * np.spacing(scale)
        near_end = np.minimum(abs(vals[1:] - self.value_at_0),
                              abs(vals[1:] - self.limit_at_1)) <= band
        strict = diffs[(abs(diffs) > band) | ~near_end]
        if strict.size == 0 or not (np.all(strict > 0.0) or np.all(strict < 0.0)):
            raise ValueError(f"profile {self.kind!r} is not strictly monotone on the check grid")
        # declared endpoints drive preimage clamping, so they must match fn
        if abs(vals[0] - self.value_at_0) > 1e-9 * scale:
            raise ValueError(f"profile {self.kind!r}: value at 0 disagrees with declaration")
        if abs(vals[-1] - self.limit_at_1) > 1e-3 * scale:
            raise ValueError(f"profile {self.kind!r}: limit at 1 disagrees with declaration")

    @property
    def decreasing(self) -> bool:
        return self.value_at_0 > self.limit_at_1

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    @cached_property
    def _screen_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, u): the screen on an increasing grid of (0, 1), negated if
        the profile decreases and made nondecreasing, so that roots can be
        looked up.  The grid has steps of 2**-10, and within 2**-10 of either
        end, where the profiles are least smooth, 256 points from 2**-50 to
        2**-11 away from it in geometric steps.  Raises ValueError where the
        screen steps the wrong way by more than SCREEN_ETA on this grid."""
        ends = 0.5 ** np.linspace(11.0, 50.0, 256)
        x = np.concatenate([ends[::-1], np.linspace(0.0, 1.0, 1025)[1:-1], 1.0 - ends])
        u = np.asarray(self.screen(x), dtype=float)
        if self.decreasing:
            u = -u
        top = np.maximum.accumulate(u)
        with np.errstate(invalid="ignore"):  # a non-finite screen value is not a step
            wrong_way = np.max(top[:-1] - u[1:])
        if wrong_way > SCREEN_ETA:
            raise ValueError(f"profile {self.kind!r}: screen steps the wrong way by "
                             f"{wrong_way:.3g} > SCREEN_ETA")
        return x, top

    @classmethod
    def lagrange(cls) -> "Profile1D":
        return cls(fn=lagrange_jump_profile, kind="lagrange", value_at_0=1.0, limit_at_1=0.0,
                   screen=_lagrange_screen)

    @classmethod
    def shepard(cls, s: float) -> "Profile1D":
        return cls(
            fn=lambda x: shepard_jump_profile(s, x),
            kind=f"shepard(s={s:g})",
            value_at_0=1.0,
            limit_at_1=0.0,
            screen=lambda x: _shepard_ratio(s, x, _zeta),
        )

    @classmethod
    def identity(cls) -> "Profile1D":
        return cls(fn=lambda x: np.asarray(x, dtype=float), kind="identity",
                   value_at_0=0.0, limit_at_1=1.0)


def _chord(x0, u0, x1, u1, t, lo, hi):
    """Where the chord through (x0, u0) and (x1, u1) meets height t, kept in
    [lo, hi] (at lo where it is undefined)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = x0 + (t - u0) / (u1 - u0) * (x1 - x0)
    return np.fmin(np.fmax(x, lo), hi)


def _table_root(x_tab: np.ndarray, u_tab: np.ndarray, cell: np.ndarray,
                t: np.ndarray) -> np.ndarray:
    """Where u = t in the table cell [x_tab[cell], x_tab[cell + 1]]: the
    cubic in u through the four table points around the cell, or the chord
    across the cell where that cubic leaves it."""
    first = np.clip(cell - 1, 0, x_tab.size - 4)
    us = [u_tab[first + k] for k in range(4)]
    root = np.zeros(t.shape)
    with np.errstate(divide="ignore", invalid="ignore"):  # tied table values
        for k in range(4):
            term = x_tab[first + k]
            for m in range(4):
                if m != k:
                    term *= (t - us[m]) / (us[k] - us[m])
            root += term
    a, b = x_tab[cell], x_tab[cell + 1]
    off = ~((root >= a) & (root <= b))
    root[off] = _chord(a[off], u_tab[cell[off]], b[off], u_tab[cell[off] + 1], t[off],
                       a[off], b[off])
    return root


def _screen_guards(profile: Profile1D, y: np.ndarray, reach: tuple[float, float],
                   margin: float):
    """Guards (g_lo, g_hi) of the screen's root for every target in y, found
    _GUARD_BLOCK targets at a time so that their temporaries stay small."""
    g_lo, g_hi = np.empty(y.size), np.empty(y.size)
    for start in range(0, y.size, _GUARD_BLOCK):
        part = slice(start, start + _GUARD_BLOCK)
        g_lo[part], g_hi[part] = _guard_block(profile, y[part], reach, margin)
    return g_lo, g_hi


def _guard_block(profile: Profile1D, y: np.ndarray, reach: tuple[float, float],
                 margin: float):
    """Guards (g_lo, g_hi) of the root of profile = y for every target in y.

    A guard holds when the screen there clears y by more than margin +
    SCREEN_ETA on its own side (value_at_0's at g_lo, limit_at_1's at g_hi).
    The screen steps the wrong way by at most SCREEN_ETA, so it then clears
    y by more than the margin at every point up to g_lo and from g_hi on,
    and fn, within the margin of it, lies on the same side of y: the root is
    right of g_lo and left of g_hi.  A guard that does not hold is 0 (g_lo)
    or 1 (g_hi), which no midpoint reaches.

    The screen's root comes from the profile's screen table and one chord
    step on the screen.  The guards sit a little more than the margin's
    width in x from it, within reach, the span of the bisection's midpoints,
    and move out twice if they fail.  A root beyond the table is beyond
    reach too (at any tol above 1e-15); its one guard sits at that end of
    reach.
    """
    x_tab, u_tab = profile._screen_table
    sign = -1.0 if profile.decreasing else 1.0
    t = sign * y  # roots of u = t, with u = sign * screen increasing
    clear = margin + SCREEN_ETA

    def u(x):
        return sign * np.asarray(profile.screen(x), dtype=float)

    cell = np.searchsorted(u_tab, t, side="right") - 1  # NaN sorts past the end
    left, right = cell < 0, cell >= x_tab.size - 1
    root = np.where(left, reach[0], reach[1])
    width = np.zeros(y.size)
    inner = np.flatnonzero(~(left | right))
    if inner.size:
        ti, ci = t[inner], cell[inner]
        guess = _table_root(x_tab, u_tab, ci, ti)
        at_guess = u(guess)
        # a chord step to the end of the cell on the root's other side
        end = ci + (at_guess < ti)
        x_end, u_end = x_tab[end], u_tab[end]
        root[inner] = _chord(x_end, u_end, guess, at_guess, ti, np.minimum(x_end, guess),
                             np.maximum(x_end, guess))
        with np.errstate(divide="ignore", invalid="ignore"):  # clear over the chord's slope
            width[inner] = 1.25 * clear * (x_end - guess) / (u_end - at_guess)
        del ti, ci, guess, at_guess, end, x_end, u_end
    g_lo, g_hi = np.zeros(y.size), np.ones(y.size)
    for side, guard, beyond in ((-1.0, g_lo, left), (1.0, g_hi, right)):
        pick = np.flatnonzero(~beyond)  # no lower guard left of the table, no upper right of it
        for widen in (1.0, 16.0, 256.0):
            at = np.fmin(np.fmax(root[pick] + side * widen * width[pick], reach[0]), reach[1])
            held = side * (u(at) - t[pick]) > clear
            guard[pick[held]] = at[held]
            pick = pick[~held & (width[pick] > 0.0)]
            if not pick.size:
                break
    return g_lo, g_hi


def invert_monotone(profile: Profile1D, y, tol: float = BISECT_TOL):
    """Solve profile(x) = y on [0, 1) by bisection, vectorized over y.

    Values outside the profile range clamp to the matching endpoint, so
    interval preimages come out right without special-casing.  With a
    screen, `_screen_guards` certifies guards g_lo < root < g_hi for each
    target: a midpoint at or below g_lo goes right and one at or above g_hi
    goes left, as fn would send it.  fn decides every other step, so the
    roots are those of the bisection on fn alone.  The profiles compute
    element by element, so a value does not depend on which other points
    share the call.
    """
    y_arr = np.atleast_1d(np.asarray(y, dtype=float)).ravel()
    size = y_arr.size
    steps = int(math.ceil(math.log2(1.0 / tol))) + 2
    margin = 10.0 * SERIES_TOL  # the screen certifies a guard only this far from y
    top = 1.0 - 1e-15  # every midpoint lies in (0, 1), and in [top * 2**-steps, top]
    reach = (top * 0.5**steps, top)
    g_lo, g_hi = 0.0, 1.0
    if profile.screen is not None and size:
        g_lo, g_hi = _screen_guards(profile, y_arr, reach, margin)
    # profile(mid) > y sends a root right (< y if increasing): the same test
    # as profile(mid) - y > 0, since a difference rounds to 0 only when equal
    right = np.greater if profile.decreasing else np.less
    lo, hi = np.zeros(size), np.full(size, top)
    mid = np.empty(size)
    go_right = np.empty(size, dtype=bool)
    for _ in range(steps):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        np.less_equal(mid, g_lo, out=go_right)
        ask = (mid > g_lo) & (mid < g_hi)
        if ask.any():
            go_right[ask] = right(profile.fn(mid[ask]), y_arr[ask])
        np.copyto(lo, mid, where=go_right)
        np.logical_not(go_right, out=go_right)
        np.copyto(hi, mid, where=go_right)
    out = 0.5 * (lo + hi)
    return float(out[0]) if np.ndim(y) == 0 else out.reshape(np.shape(y))


def _normalize_intervals(intervals) -> np.ndarray:
    """Disjoint intervals as a (k, 2) array of (a, b) rows, sorted."""
    ivs = [(float(a), float(b)) for a, b in intervals]
    for a, b in ivs:
        if b < a:
            raise ValueError(f"empty interval [{a}, {b}]")
    ivs.sort()
    for (_, b1), (a2, _) in zip(ivs, ivs[1:]):
        if a2 < b1:
            raise ValueError("intervals must be disjoint")
    return np.array(ivs, dtype=float).reshape(-1, 2)


def _interval_roots(profile: Profile1D, bounds: np.ndarray, tol: float) -> np.ndarray:
    """Preimage ends of intervals, shape (k, 2, ...) like bounds.

    Both ends of every interval go through one bisection, so they share
    midpoints; [:, 0] is the lower end in x, [:, 1] the upper.
    """
    roots = invert_monotone(profile, bounds.ravel(), tol).reshape(bounds.shape)
    return roots[:, ::-1] if profile.decreasing else roots


def preimage_measure_1d(profile: Profile1D, intervals, tol: float = BISECT_TOL) -> float:
    """Total length of profile^-1(A) in [0,1) for A a disjoint interval union."""
    total = 0.0
    for x_lo, x_hi in _interval_roots(profile, _normalize_intervals(intervals), tol).tolist():
        total += max(0.0, x_hi - x_lo)
    return total


@dataclass(frozen=True)
class Profile2D:
    """Product profile value(x, y) = fx(x) * fy(y).

    It keeps fx on every slice grid `slice_values` was asked for, so the
    targets of one experiment evaluate it once per grid; a new Profile2D
    starts with none.
    """

    fx: Profile1D
    fy: Profile1D
    _slices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def slice_values(self, slices: int) -> np.ndarray:
        """fx at the midpoints (i + 1/2)/slices of a uniform grid, read-only."""
        cx = self._slices.get(slices)
        if cx is None:
            xs = (np.arange(slices) + 0.5) / slices
            cx = np.array(self.fx(xs), dtype=float)
            if np.any(cx <= 0.0):
                raise ValueError("x-factor must be positive on (0,1) for slicing")
            cx.flags.writeable = False
            self._slices[slices] = cx
        return cx


def preimage_measure_2d(profile: Profile2D, intervals, tol: float = BISECT_TOL,
                        slices: int = 4096) -> float:
    """Plane measure of {(x,y) in [0,1)^2 : fx(x)*fy(y) in A} by x-slicing.

    For each midpoint x of a uniform grid the y-section is an interval
    (both factors are monotone and positive), found by bisection on fy;
    section lengths are integrated with the midpoint rule.  The values of
    fx on the grid come from `Profile2D.slice_values`, so calls on one
    profile share them; both ends of every interval, at every slice, go
    through one `invert_monotone` call.
    """
    bounds = _normalize_intervals(intervals)
    cx = profile.slice_values(slices)
    total = 0.0
    for y_lo, y_hi in _interval_roots(profile.fy, bounds[:, :, None] / cx, tol):
        total += float(np.maximum(0.0, y_hi - y_lo).sum()) / slices
    return total
