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
    if count < 2:  # one point would stop at n_max/8
        raise ValueError(f"checkpoint count must be at least 2, got {count}")
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
    counts = indicator.hit_counts([[(0.5, 1.5)], [(-0.5, 0.5)]], cps)
    if not np.array_equal(counts.sum(axis=0), cps.astype(np.int64) ** dim):
        return False
    est, est_c = (DensityEstimate.from_counts(cps, row, dim) for row in counts)
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
        if np.isnan(value):
            raise ValueError("target value must not be NaN")
        return cls(kind="value", value=float(value))

    @classmethod
    def interval_union(cls, intervals) -> "Target":
        ivs = sorted((float(a), float(b)) for a, b in intervals)
        for a, b in ivs:
            if not a <= b:  # NaN fails too
                raise ValueError(f"empty or NaN interval [{a}, {b}]")
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
    levels, the index ranges between consecutive checkpoints.  All unions
    share the queries: their interval ends form one threshold array, and a
    sign matrix sums the thresholds' counts into each union's.
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
    # level l holds the indices n with levels[l-1] < n <= levels[l]
    level = np.searchsorted(levels, np.arange(1, size + 1))
    first = np.concatenate(([0], levels[:-1]))
    fu, fv = (_SortedFactor.of(f[:size], level) for f in (u, v))
    # one strip at a time, so one level table is alive at a time
    per_level = _strip_counts(fu, level, fv, op, ends, first)
    per_level += _strip_counts(fv, level - 1, fu, op, ends, first)
    return np.cumsum(sign_matrix @ per_level, axis=1)[:, slot]


@dataclass(frozen=True)
class _SortedFactor:
    """A factor sorted once.  As the other side of a strip it gives its sorted
    values between -inf and inf, and their levels in the narrowest integer
    type that counts to its length; as the query side it gives its distinct
    values, and each index's class: values[cls[i]] == f[i]."""

    padded: np.ndarray
    sorted_level: np.ndarray
    values: np.ndarray
    cls: np.ndarray

    @classmethod
    def of(cls, f: np.ndarray, level: np.ndarray) -> "_SortedFactor":
        order = np.argsort(f)
        xs = f[order]
        # -0.0 and 0.0 share a class: every query sees them alike
        new = np.concatenate(([True], xs[1:] != xs[:-1]))
        classes = np.empty(f.size, dtype=np.intp)
        classes[order] = np.cumsum(new) - 1
        return cls(np.concatenate(([-np.inf], xs, [np.inf])),
                   level[order].astype(np.min_scalar_type(f.size)), xs[new], classes)


def _strip_counts(query: _SortedFactor, allowed: np.ndarray, other: _SortedFactor,
                  op: np.ufunc, ends: np.ndarray, first: np.ndarray) -> np.ndarray:
    """For each threshold r and level l: the sum over the queries w[i] with
    first[l] <= i < first[l+1] of
    #{j : level of other[j] <= allowed[i], fl(op(w[i], other[j])) <= ends[r]}.

    `_prefix_lengths` finds, per distinct query value, how many of the
    sorted entries count.  A table of prefix counts per level turns each
    index's length into the number of its allowed entries.
    """
    n = other.sorted_level.size
    # table[l + 1, r]: how many of the r smallest entries have level <= l,
    # built in place: a cumsum into the column slice would buffer a second
    # table, and a comparison in another type a cast of the first
    top = np.arange(int(other.sorted_level.max()) + 1, dtype=other.sorted_level.dtype)
    table = np.zeros((top.size + 1, n + 1), dtype=other.sorted_level.dtype)
    np.less_equal(other.sorted_level, top[:, None], out=table[1:, 1:])
    np.cumsum(table, axis=1, dtype=table.dtype, out=table)
    # for a product, fl(w x) <= t is fl(|w| x) <= t when w >= 0, and
    # fl(|w| x) > pred(-t) when w < 0: the entries outside a prefix.  The
    # distinct values are sorted, so the negative ones come first.
    w = query.values
    if op is np.add:
        neg, lengths = 0, _prefix_lengths(w, other.padded, op, ends)
    else:
        neg = int(np.searchsorted(w, 0.0))
        # pred(-t) of the largest finite end t overflows to -inf, as it should
        with np.errstate(over="ignore"):
            flipped = np.nextafter(-ends, -np.inf)
        lengths = np.concatenate((_prefix_lengths(-w[:neg], other.padded, op, flipped),
                                  _prefix_lengths(np.abs(w[neg:]), other.padded, op, ends)),
                                 axis=1)
    base = (allowed + 1) * (n + 1)
    index = lengths.take(query.cls, axis=1)
    del lengths  # freed before the lookups are taken
    index += base
    # the lookups stay in the table's type; only their sums per level widen,
    # in the memory of the index array
    below = table.ravel().take(index)
    if neg:
        np.subtract(table.ravel().take(base + n), below, out=below, where=query.cls < neg)
    np.copyto(index, below)
    return np.add.reduceat(index, first, axis=1)


def _prefix_lengths(a: np.ndarray, padded: np.ndarray, op: np.ufunc,
                    t: np.ndarray) -> np.ndarray:
    """For each threshold t (rows) and query a (columns): how many of the
    sorted entries x have fl(op(a, x)) <= t; a >= 0 for a product.

    fl(a x) and fl(a + x) are nondecreasing in x, so those entries form a
    prefix.  The rounded t / a or t - a only guesses its length: an entry
    can tie t, or an x within an ulp or two of the guess can land on the
    other side.  The guess is moved run by run of equal values until the
    entries on either side of it agree with their rounded op.
    """
    xs, before, at = padded[1:-1], padded[:-1], padded[1:]
    # a zero product query gets the guess +-inf or nan (0/0), which the
    # checks settle at once: its products are 0, and nan at the infinite
    # ends; an overflowing t - a or a + x is settled like a tie
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        k = np.searchsorted(xs, t - a if op is np.add else t / a, "right")

        def rounded(side):  # op of the entries on one side, one array alive
            x = side.take(k)
            return op(x, a, out=x)

        while True:
            back = rounded(before) > t
            ahead = rounded(at) <= t
            if not (back.any() or ahead.any()):
                return k
            k[back] = np.searchsorted(xs, before.take(k[back]), "left")
            k[ahead] = np.searchsorted(xs, at.take(k[ahead]), "right")


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
