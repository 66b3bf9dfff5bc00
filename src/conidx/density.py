"""Natural density of index sets and the index of convergence of sequences.

The index of convergence of a sequence to a target A is the infimum over
eps > 0 of the lower density of the hit set {indices : value in A + B_eps}.
At desk scale both limits are replaced by estimates on a finite window:
densities become prefix ratios at a geometric checkpoint grid, and the
liminf/limsup pair becomes the min/max of the ratios over the tail half of
that grid (the early checkpoints only absorb transients).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def default_checkpoints(n_max: int, count: int = 16) -> np.ndarray:
    """Geometric checkpoint grid from n_max/8 up to n_max."""
    if n_max < 2:
        raise ValueError("window must contain at least 2 indices")
    lo = max(2, n_max // 8)
    cps = np.unique(np.geomspace(lo, n_max, count).round().astype(int))
    return cps


# ---------------------------------------------------------------------------
# densities


@dataclass(frozen=True)
class DensityEstimate:
    """Prefix ratios at checkpoints plus tail-half liminf/limsup estimates."""

    checkpoints: tuple[int, ...]
    ratios: tuple[float, ...]
    lower_est: float
    upper_est: float

    @classmethod
    def from_counts(cls, checkpoints, counts, dim: int) -> "DensityEstimate":
        cps = np.asarray(checkpoints, dtype=int)
        ratios = np.asarray(counts, dtype=float) / cps.astype(float) ** dim
        tail = ratios[len(ratios) // 2 :]
        return cls(
            checkpoints=tuple(int(c) for c in cps),
            ratios=tuple(float(r) for r in ratios),
            lower_est=float(tail.min()),
            upper_est=float(tail.max()),
        )


def complement_identity_check(indicator: SeqWindow, checkpoints) -> bool:
    """lower(K) + upper(K^c) = 1, checkpoint by checkpoint.

    K is the index set on which the 0/1 indicator window is 1.  The counts
    of K and K^c are complementary integers at every checkpoint; that
    identity is checked exactly.  The ratio identity then holds up to one
    rounding of each division, so it is checked to 1e-12.
    """
    cps = np.asarray(checkpoints)
    dim = indicator.dim
    est, est_c = (DensityEstimate.from_counts(cps, counts, dim)
                  for counts in indicator.hit_counts([[(0.5, 1.5)], [(-0.5, 0.5)]], cps))
    for cp, r, rc in zip(cps, est.ratios, est_c.ratios):
        total = round(r * cp**dim) + round(rc * cp**dim)
        if total != cp**dim:
            return False
    return abs(est.lower_est + est_c.upper_est - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# targets


def merge_open(intervals) -> tuple[tuple[float, float], ...]:
    """The union of open intervals as disjoint open intervals, in order.

    Only overlapping intervals merge: (a, b) and (b, c) stay apart, since
    their shared end b lies in neither.
    """
    merged: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


@dataclass(frozen=True)
class Target:
    """Convergence target: a value, a finite union of closed intervals, or +-inf."""

    kind: str
    value: float | None = None
    intervals: tuple[tuple[float, float], ...] | None = None

    @classmethod
    def point(cls, value: float) -> "Target":
        return cls(kind="value", value=float(value))

    @classmethod
    def interval_union(cls, intervals) -> "Target":
        ivs = sorted((float(a), float(b)) for a, b in intervals)
        for a, b in ivs:
            if b < a:
                raise ValueError(f"empty interval [{a}, {b}]")
        for (_, b1), (a2, _) in zip(ivs, ivs[1:]):
            if a2 <= b1:
                raise ValueError("target intervals must be disjoint")
        return cls(kind="set", intervals=tuple(ivs))

    @classmethod
    def plus_infinity(cls) -> "Target":
        return cls(kind="plus_inf")

    @classmethod
    def minus_infinity(cls) -> "Target":
        return cls(kind="minus_inf")

    def dilated(self, eps: float) -> tuple[tuple[float, float], ...]:
        """The eps-dilation A + (-eps, eps), merged into disjoint open intervals."""
        if self.kind == "value":
            return ((self.value - eps, self.value + eps),)
        if self.kind == "set":
            return merge_open((a - eps, b + eps) for a, b in self.intervals)
        raise ValueError("infinite targets have no dilation; supply cutoffs instead")

    def describe(self) -> str:
        if self.kind == "value":
            return f"{self.value:g}"
        if self.kind == "set":
            return " u ".join(f"[{a:g},{b:g}]" for a, b in self.intervals)
        return "+inf" if self.kind == "plus_inf" else "-inf"


# ---------------------------------------------------------------------------
# sequence windows


@dataclass(frozen=True)
class SeqWindow:
    """Evaluated finite prefix of a single or double sequence.

    A double sequence is stored in factor form x[n,m] = op(u[n], v[m]), op
    np.multiply (`from_product`) or np.add (`from_sum`), as the two factor
    arrays; counting never materializes the matrix.
    """

    dim: int
    n_max: int
    values: np.ndarray | None = None
    factors: tuple[np.ndarray, np.ndarray] | None = None
    op: np.ufunc = np.multiply

    @classmethod
    def from_values_1d(cls, values) -> "SeqWindow":
        v = np.asarray(values, dtype=float)
        if v.ndim != 1:
            raise ValueError("expected a 1-d array")
        if not np.isfinite(v).all():
            raise ValueError("window values must be finite")
        return cls(dim=1, n_max=v.size, values=v)

    @classmethod
    def from_product(cls, u, v) -> "SeqWindow":
        return cls._from_factors(u, v, np.multiply)

    @classmethod
    def from_sum(cls, u, v) -> "SeqWindow":
        return cls._from_factors(u, v, np.add)

    @classmethod
    def _from_factors(cls, u, v, op: np.ufunc) -> "SeqWindow":
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError("factor arrays must be 1-d of equal length")
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise ValueError("window values must be finite")
        return cls(dim=2, n_max=u.size, factors=(u, v), op=op)

    def hit_counts(self, unions, checkpoints) -> np.ndarray:
        """Counts of indices with value in each open interval union, per checkpoint.

        `unions` is a sequence of interval unions; the result has one row
        per union and one column per checkpoint.  An interval end may be
        infinite: (c, inf) counts the values above c.  Checkpoints are
        integral indices in 1..n_max, in any order.
        """
        cps = np.asarray(checkpoints)
        if (cps.ndim != 1 or cps.size == 0
                or not np.all((cps >= 1) & (cps <= self.n_max) & (cps == np.floor(cps)))):
            raise ValueError(f"checkpoints must be one or more indices in 1..{self.n_max}")
        cps = cps.astype(np.int64)
        if self.dim == 2:
            return _factor_counts(*self.factors, self.op, unions, cps)
        counts = np.empty((len(unions), cps.size), dtype=np.int64)
        for row, intervals in zip(counts, unions):
            mask = np.zeros(self.values.shape, dtype=bool)
            for lo, hi in intervals:
                mask |= (self.values > lo) & (self.values < hi)
            row[:] = mask.cumsum()[cps - 1]
        return counts


def _factor_counts(u: np.ndarray, v: np.ndarray, op: np.ufunc, unions,
                   cps: np.ndarray) -> np.ndarray:
    """Pairs (n,m) <= cp with op(u[n], v[m]) in each open interval union, per checkpoint.

    Never materializes the matrix, and counts the same pairs as its rounded
    entries would, ties at the interval ends included.  A checkpoint's
    square grows from the previous one's by its rows n against the columns
    m up to it, and by its columns m against the earlier rows.  So every
    index is one query against the other factor (`_strip_counts`; op is
    commutative), and the counts per checkpoint are prefix sums over the
    indices.  All unions share the queries: their interval ends form one
    threshold array, and a sign matrix sums the thresholds' counts into
    each union's.
    """
    levels, slot = np.unique(cps, return_inverse=True)
    size = int(levels[-1])
    # an open (lo, hi) holds the entries x <= pred(hi) minus those x <= lo;
    # a union's overlapping intervals are merged first, so no pair counts twice
    rows, ends, signs = [], [], []
    for row, intervals in enumerate(unions):
        for lo, hi in merge_open(iv for iv in intervals if iv[0] < iv[1]):
            rows += [row, row]
            ends += [float(np.nextafter(hi, -np.inf)), float(lo)]
            signs += [1, -1]
    ends, col = np.unique(np.array(ends, dtype=float), return_inverse=True)
    sign_matrix = np.zeros((len(unions), ends.size), dtype=np.int64)
    np.add.at(sign_matrix, (np.array(rows, dtype=np.intp), col), signs)
    ends = ends[:, None]
    level = np.searchsorted(levels, np.arange(1, size + 1))
    # one strip at a time, so one level table is alive at a time
    per_index = _strip_counts(u[:size], level, v[:size], level, op, ends, sign_matrix)
    per_index += _strip_counts(v[:size], level - 1, u[:size], level, op, ends, sign_matrix)
    return np.cumsum(per_index, axis=1)[:, levels - 1][:, slot]


def _strip_counts(w: np.ndarray, allowed: np.ndarray, other: np.ndarray,
                  other_level: np.ndarray, op: np.ufunc, ends: np.ndarray,
                  signs: np.ndarray) -> np.ndarray:
    """For each union k and query w[i]: sum over r of signs[k, r] *
    #{j : other_level[j] <= allowed[i], fl(op(w[i], other[j])) <= ends[r]}.

    fl(|w| x) and fl(w + x) are nondecreasing in x, so over the sorted
    `other` the entries at or below a threshold form a prefix (a suffix for
    a product with w < 0, where fl(w x) <= t is fl(|w| x) > pred(-t)).  The
    rounded t / |w| or t - w only guesses the prefix's length: an entry can
    tie t, or an x within an ulp or two of the guess can land on the other
    side.  The guess is moved run by run of equal values until the entries
    on either side of it agree with their rounded op.  A table of prefix
    counts per level then turns the length into the number of allowed
    entries.
    """
    order = np.argsort(other)
    xs = other[order]
    n = xs.size
    # table[l + 1, r]: how many of the r smallest entries have level <= l
    top = np.arange(-1, int(other_level.max()) + 1)
    # built in place: a cumsum into the column slice would buffer a second table
    table = np.zeros((top.size, n + 1), dtype=np.int32)
    np.less_equal(other_level[order], top[:, None], out=table[:, 1:])
    np.cumsum(table, axis=1, out=table)
    padded = np.concatenate(([-np.inf], xs, [np.inf]))
    before, at = padded[:-1], padded[1:]
    # a zero product query gets the guess +-inf or nan (0/0), which the
    # checks settle at once: its products are 0, and nan at the infinite
    # ends; pred(-t) of the largest finite end t overflows to -inf, as it
    # should, and an overflowing t - w or w + x is settled like a tie
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if op is np.add:
            neg, a, t = None, w, ends
            k = np.searchsorted(xs, t - a, "right")
        else:
            neg = w < 0.0
            a = np.abs(w)
            t = np.where(neg, np.nextafter(-ends, -np.inf), ends)
            k = np.searchsorted(xs, t / a, "right")
        while True:
            back = op(before.take(k), a) > t
            ahead = op(at.take(k), a) <= t
            if not (back.any() or ahead.any()):
                break
            k[back] = np.searchsorted(xs, before.take(k[back]), "left")
            k[ahead] = np.searchsorted(xs, at.take(k[ahead]), "right")
    flat = table.ravel()
    base = (allowed + 1) * (n + 1)
    below = flat.take(base + k)
    if neg is not None:
        below = np.where(neg, flat.take(base + n) - below, below)
    return signs @ below


# ---------------------------------------------------------------------------
# index reports


@dataclass
class IndexReport:
    """Estimated index of convergence to one target, with optional verdict."""

    target: Target
    epsilon: float | None
    estimate: DensityEstimate
    predicted: float | None = None
    predicted_is_lower_bound: bool = False
    tolerance: float | None = None
    verdict: str | None = None
    cutoffs: tuple[float, ...] | None = None
    label: str | None = None  # the cluster's name in its prediction table

    def judge(self, predicted: float, tolerance: float, lower_bound: bool = False) -> "IndexReport":
        """Attach a theoretical value and a pass/fail verdict."""
        self.predicted = float(predicted)
        self.predicted_is_lower_bound = lower_bound
        self.tolerance = float(tolerance)
        if lower_bound:
            ok = self.estimate.lower_est >= predicted - tolerance
        else:
            ok = abs(self.estimate.lower_est - predicted) <= tolerance
        self.verdict = "pass" if ok else "fail"
        return self


def index_to_target(
    win: SeqWindow,
    target: Target,
    epsilon: float | None,
    checkpoints,
    cutoffs: Sequence[float] | None = None,
) -> IndexReport:
    """Density estimate of the hit set {indices : value in target + B_eps}.

    For +-inf targets the dilation is replaced by a caller-supplied cutoff
    grid; the reported estimate is the infimum over the grid, mirroring the
    supremum in the definition of the index.
    """
    cps = np.asarray(checkpoints)
    if target.kind in ("value", "set"):
        if epsilon is None or epsilon <= 0.0:
            raise ValueError("epsilon must be positive for value/set targets")
        counts = win.hit_counts([target.dilated(epsilon)], cps)[0]
        est = DensityEstimate.from_counts(cps, counts, win.dim)
        return IndexReport(target=target, epsilon=epsilon, estimate=est)
    if not cutoffs:
        raise ValueError("infinite targets require a cutoff grid")
    above = target.kind == "plus_inf"
    unions = [[(float(m_cut), np.inf) if above else (-np.inf, float(m_cut))]
              for m_cut in cutoffs]
    best: DensityEstimate | None = None
    for counts in win.hit_counts(unions, cps):
        est = DensityEstimate.from_counts(cps, counts, win.dim)
        if best is None or est.lower_est < best.lower_est:
            best = est
    return IndexReport(target=target, epsilon=None, estimate=best,
                       cutoffs=tuple(float(m) for m in cutoffs))


def sum_rule_check(win: SeqWindow, targets: Sequence[Target], epsilon: float,
                   tol: float) -> bool:
    """Disjoint-target sum rule: the index estimates sum to at most 1 + tol.

    Raises if the eps-dilations overlap (the rule's hypothesis); also
    verifies the exact per-checkpoint identity sum(counts) <= cp^dim.
    """
    cps = default_checkpoints(win.n_max)
    dilations = [t.dilated(epsilon) for t in targets]
    flat = sorted(iv for d in dilations for iv in d)
    for (_, b1), (a2, _) in zip(flat, flat[1:]):
        if a2 < b1:
            raise ValueError("dilated targets overlap; shrink epsilon")
    all_counts = win.hit_counts(dilations, cps)
    per_cp = np.sum(all_counts, axis=0)
    if np.any(per_cp > cps.astype(np.int64) ** win.dim):
        return False
    total = sum(
        DensityEstimate.from_counts(cps, c, win.dim).lower_est for c in all_counts
    )
    return total <= 1.0 + tol
