"""Cluster-prediction tables, operator windows, and index experiments.

An experiment pins an operator at a point of its jump cross, generates the
operator value sequence over a finite window, builds the table of predicted
cluster targets with their theoretical indices, and estimates the index of
convergence to each target.  Bivariate windows are kept in product form
(two factor arrays), which the tensor decompositions of both operator
families make exact.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

import numpy as np

from . import lagrange as lg
from . import shepard as sh
from .density import (
    DensityEstimate,
    IndexReport,
    SeqWindow,
    Target,
    default_checkpoints,
    index_to_target,
    merge_open,
)
from .points import PointSpec
from .profiles import (
    Profile1D,
    Profile2D,
    lagrange_jump_profile,
    preimage_measure_1d,
    preimage_measure_2d,
    shepard_jump_profile,
)
from .stepfn import CrossCheckError, StepFn1D, StepFn2D

MERGE_TOL = 1e-9          # clusters with equal values merge into one entry
MIN_CLUSTER_GAP = 2e-3    # below this the eps-dilations cannot separate them
EPS_CAP = 0.05
PROFILE_EPS = 0.005       # default dilation for measure-profile targets

MAX_WINDOW_1D = 10_000
MAX_WINDOW_2D = 3_000

RULE_EPS = 0.01           # dilation and tolerance of the sequence-law checks
RULE_TOL = 0.02
SCAN_GRID = 32            # grid points per axis of a 2-d scan region
SCAN_MIN_DISTANCE = 0.1   # scan regions keep this far from the jump set
SCAN_SLACK = 0.2          # relative growth of a sup error a scan tolerates


@dataclass(frozen=True)
class Prediction:
    """One predicted target with its theoretical index."""

    target: Target
    index: float
    lower_bound_only: bool = False
    label: str | None = None


@dataclass
class PredictionTable:
    """Cluster predictions for one operator/point case, or a measure profile.

    Discrete cases carry Prediction entries; irrational cases carry the
    monotone profile whose preimage measure gives the index of any interval.
    """

    predictions: list[Prediction] = field(default_factory=list)
    profile: Profile1D | Profile2D | None = None

    def __post_init__(self):
        total = sum(p.index for p in self.predictions if not p.lower_bound_only)
        if total > 1.0 + 1e-9:
            raise ValueError(f"predicted indices sum to {total} > 1")


def _table(entries) -> PredictionTable:
    """Discrete clusters from (value, index, label) arms.

    Arms with coinciding values merge into one entry with the summed index;
    distinct values must lie far enough apart for their dilations to separate.
    """
    preds: list[Prediction] = []
    for value, idx, label in entries:
        for i, existing in enumerate(preds):
            if abs(existing.target.value - value) <= MERGE_TOL:
                preds[i] = Prediction(existing.target, existing.index + idx,
                                      label=f"{existing.label}={label}")
                break
        else:
            preds.append(Prediction(Target.point(value), idx, label=label))
    vals = sorted(p.target.value for p in preds)
    for a, b in zip(vals, vals[1:]):
        if b - a < MIN_CLUSTER_GAP:
            raise ValueError(
                f"cluster values {a:.6g} and {b:.6g} are closer than {MIN_CLUSTER_GAP}; "
                "their dilations cannot be separated"
            )
    return PredictionTable(predictions=preds)


def _shepard_s1_table(factors: list[PointSpec]) -> PredictionTable:
    """The stated s = 1 Shepard rows, which no profile gives.

    One factor: the node arm tends to 1 with index 1/q, every other arm to
    1/2.  At the corner the rows are the stated table, 1/2 with index
    1/(q1 q2) over the rational factors and 1/4 with the rest, not the
    products of the factor tables (README, "A known red check").  Without a
    rational factor the whole index goes to the lower cluster.
    """
    (high, high_label), (low, low_label) = (
        ((1.0, "node arm"), (0.5, "1/2")) if len(factors) == 1
        else ((0.5, "1/2"), (0.25, "1/4")))
    q = math.prod(point.q for point in factors if point.is_rational)
    rows = [(high, 1.0 / q, high_label), (low, 1.0 - 1.0 / q, low_label)]
    if q == 1:  # no rational factor
        rows = [(low, 1.0, low_label)]
    return PredictionTable(predictions=[Prediction(Target.point(value), idx, label=label)
                                        for value, idx, label in rows])


# ---------------------------------------------------------------------------
# experiments


@dataclass
class ExperimentSpec:
    """One index experiment: operator, jump specs, window, and tolerances."""

    operator: str
    spec_x: PointSpec
    spec_y: PointSpec | None = None
    d: float = 1.0
    s: float = 2.0
    window: int = 1000
    epsilon: float | None = None
    checkpoint_count: int = 16
    tolerance: float = 0.03
    eval_point: tuple[float, float] | None = None  # None: at the discontinuity
    targets: list[tuple[float, float]] | None = None
    cross_check: bool = False

    def __post_init__(self):
        if self.operator not in ("lagrange1d", "lagrange2d", "shepard1d", "shepard2d"):
            raise ValueError(f"unknown operator {self.operator!r}")
        bivariate = self.operator.endswith("2d")
        limit = MAX_WINDOW_2D if bivariate else MAX_WINDOW_1D
        if not 2 <= self.window <= limit:
            raise ValueError(f"window must lie in [2, {limit}] for {self.operator}")
        if bivariate and self.spec_y is None:
            raise ValueError(f"{self.operator} needs a second point spec")
        if self.epsilon is not None and not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if not 2 <= self.checkpoint_count <= MAX_WINDOW_1D:
            raise ValueError(f"checkpoint_count must lie in [2, {MAX_WINDOW_1D}]")
        if not self.tolerance > 0.0:  # NaN fails too
            raise ValueError("tolerance must be positive")


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    table: PredictionTable
    epsilon: float | None
    reports: list[IndexReport]
    residual_mass: float | None
    window: SeqWindow

    @property
    def all_pass(self) -> bool:
        return all(r.verdict == "pass" for r in self.reports)


@dataclass(frozen=True)
class _Family:
    """How the harness drives one operator family.

    The generators and evaluators take the Shepard exponent s, which
    Lagrange ignores, and look their kernels up in the kernel modules at
    call time.
    """

    jump: Callable[[float], float]           # point spec value -> jump coordinate
    step: Callable[[float, float], StepFn1D]  # (x0, d) -> step with value d at x0
    far: float               # the side of the square the jump cross runs to
    # (point spec, s, n_max, d, indices=None) -> values of step(jump, d) there,
    # at n = 1..n_max or at the n of the index set
    at_jump: Callable
    at_point: Callable       # (jump, s, x, n_max) -> values of step(jump, 1) at x
    eval_1d: Callable        # (step, s, n, x) -> one value
    eval_2d: Callable        # (h, s, n, m, x, y, cross_check) -> one value
    first_index: Callable[[int, int, int], int]  # (p, q, m) -> first n of arm m/q
    profile: Callable[[float, float], float]  # (s, t) -> jump profile at arm offset t
    make_profile: Callable[[float], Profile1D]  # s -> the profile of irrational points
    corner_name: str         # the profile's name in corner labels


_FAMILIES = {
    "lagrange": _Family(
        jump=lambda v: math.cos(math.pi * v),
        step=StepFn1D.jump,
        far=1.0,
        at_jump=lambda point, s, n_max, d, indices=None: lg.jump_sequence(
            point, d, n_max, indices=indices),
        at_point=lambda jump, s, x, n_max: lg.step_sequence_at(jump, x, n_max),
        eval_1d=lambda step, s, n, x: lg.lagrange_eval_1d(step, n, x),
        eval_2d=lambda h, s, n, m, x, y, cross_check: lg.lagrange_eval_2d(
            h, n, m, x, y, cross_check=cross_check),
        first_index=lambda p, q, m: (m * pow(p, -1, q)) % q + q + 1,
        profile=lambda s, t: lagrange_jump_profile(t),
        make_profile=lambda s: Profile1D.lagrange(),
        corner_name="profile",
    ),
    "shepard": _Family(
        jump=lambda v: v,
        step=lambda x0, d: StepFn1D.indicator_upto(x0),
        far=0.0,
        at_jump=lambda point, s, n_max, d, indices=None: sh.step_sequence(
            point, s, n_max, indices=indices),
        at_point=lambda jump, s, x, n_max: sh.step_sequence_at(jump, s, x, n_max),
        eval_1d=lambda step, s, n, x: sh.shepard_eval_1d(step, sh.ShepardParams(s, n), x),
        eval_2d=lambda h, s, n, m, x, y, cross_check: sh.shepard_eval_2d(
            h, sh.ShepardParams(s, n), sh.ShepardParams(s, m), x, y, cross_check=cross_check),
        first_index=lambda p, q, m: (m * pow(p, -1, q)) % q or q,
        # for s = 1 every arm off the node hits tends to 1/2
        profile=lambda s, t: 0.5 if s == 1.0 else shepard_jump_profile(s, t),
        make_profile=Profile1D.shepard,
        corner_name="profile_s",
    ),
}


def _family(spec: ExperimentSpec) -> _Family:
    return _FAMILIES[spec.operator[:-2]]


def _cross(fam: _Family, jumps: list[float]) -> list[tuple[float, float, float, float]]:
    """The jump set as axis-parallel segments (ax, ay, bx, by): a univariate
    jump is a point on the x axis, and the cross of a tensor step runs from
    the corner to the far sides of the square."""
    if len(jumps) == 1:
        return [(jumps[0], 0.0, jumps[0], 0.0)]
    x0, y0 = jumps
    return [(x0, y0, x0, fam.far), (x0, y0, fam.far, y0)]


def _rect_distance_to_cross(rect, segs) -> float:
    """Distance from an axis-aligned rectangle to the jump cross segments.

    The segments are axis-parallel, so each is a degenerate rectangle, and
    the distance is the hypotenuse of the gaps between the x and y extents.
    """

    def gap(lo, hi, a, b):
        return max(lo - max(a, b), min(a, b) - hi, 0.0)

    return min(math.hypot(gap(rect[0], rect[1], ax, bx), gap(rect[2], rect[3], ay, by))
               for ax, ay, bx, by in segs)


@dataclass(frozen=True)
class _Axis:
    """One factor: its point spec, jump coordinate, step (value d at the jump
    for a univariate operator, 1 for a tensor factor) and eval coordinate.
    It is pinned, and oscillates, when at == jump; off the jump it converges."""

    point: PointSpec
    jump: float
    step: StepFn1D
    at: float


def _axes(spec: ExperimentSpec) -> list[_Axis]:
    """Place the experiment on its jump cross, one axis per factor.  An eval
    coordinate within 1e-12 of its jump snaps onto it, and the snapped point
    must lie on the cross, inside the square."""
    fam = _family(spec)
    points = [point for point in (spec.spec_x, spec.spec_y) if point is not None]
    jumps = [fam.jump(point.value) for point in points]
    at = jumps
    if spec.eval_point is not None and len(points) == 2:
        at = [jump if abs(c - jump) <= 1e-12 else c for c, jump in zip(spec.eval_point, jumps)]
        if _rect_distance_to_cross((at[0], at[0], at[1], at[1]), _cross(fam, jumps)) != 0.0:
            raise ValueError(f"evaluation point {spec.eval_point} does not lie on the jump cross")
    height = spec.d if len(points) == 1 else 1.0
    return [_Axis(point, jump, fam.step(jump, height), c)
            for point, jump, c in zip(points, jumps, at)]


def _arm_limit(fam: _Family, axis: _Axis, s: float, m: int) -> float:
    """Limit of arm m of an axis pinned at p/q: the step's value at the jump
    on the node-hit arm m = 0, the family's jump profile at m/q off it."""
    return float(axis.step.at) if m == 0 else float(fam.profile(s, m / axis.point.q))


def build_table(spec: ExperimentSpec) -> PredictionTable:
    """Predicted clusters of the experiment's operator on its jump cross.

    The table is that of the factors pinned at their jumps: both at the
    corner, one on an edge, where the other factor converges.  A rational
    factor p/q splits the window into its q arms, and the clusters are the
    products of the rational factors' arms, with index 1/(q1 q2).  A rational
    factor against an irrational one, whose values fill (0, 1], gives the
    lower bounds 1/q on [0, limit].  Irrational factors alone give the
    measure profile, and Shepard with s = 1 its stated rows.
    """
    fam, pinned = _family(spec), [axis for axis in _axes(spec) if axis.at == axis.jump]
    for axis in pinned:
        axis.point.require_interior()
    shepard = spec.operator.startswith("shepard")
    if shepard and spec.s < 1.0:
        raise ValueError("exponent s must be >= 1")
    if shepard and spec.s == 1.0:
        return _shepard_s1_table([axis.point for axis in pinned])
    rational = [axis for axis in pinned if axis.point.is_rational]
    if not rational:
        factor = fam.make_profile(spec.s)
        return PredictionTable(profile=Profile2D(factor, factor) if len(pinned) == 2
                               else factor)
    # a factor's arms are named profile(m/q), a corner's by the family, and
    # the node-hit arm of lagrange1d by its value d
    name = fam.corner_name if len(pinned) == 2 else "profile"
    arms = [[(_arm_limit(fam, axis, spec.s, m),
              "d" if m == 0 and spec.operator == "lagrange1d" else f"{name}({m}/{axis.point.q})")
             for m in range(axis.point.q)] for axis in rational]
    q = math.prod(axis.point.q for axis in rational)
    if len(rational) < len(pinned):
        return PredictionTable(predictions=[
            Prediction(Target.interval_union([(0.0, limit)]), 1.0 / q,
                       lower_bound_only=True, label=f"[0, {label}]")
            for limit, label in arms[0]])
    return _table([(math.prod(limit for limit, _ in combo), 1.0 / q,
                    "*".join(label for _, label in combo))
                   for combo in itertools.product(*arms)])


def generate_window(spec: ExperimentSpec) -> SeqWindow:
    """Operator value sequence over the window; product form for bivariate."""
    fam, n_max = _family(spec), spec.window
    factors = [fam.at_jump(axis.point, spec.s, n_max, axis.step.at) if axis.at == axis.jump
               else fam.at_point(axis.jump, spec.s, axis.at, n_max) for axis in _axes(spec)]
    return (SeqWindow.from_product(*factors) if len(factors) == 2
            else SeqWindow.from_values_1d(factors[0]))


def _auto_epsilon(table: PredictionTable) -> float:
    """Half the smallest gap between distinct predicted values, capped."""
    vals: list[float] = []
    for p in table.predictions:
        if p.target.kind == "value":
            vals.append(p.target.value)
        else:
            vals.extend(end for iv in p.target.intervals for end in iv)
    vals = sorted(set(vals))
    if len(vals) < 2:
        return EPS_CAP
    gap = min(b - a for a, b in zip(vals, vals[1:]) if b > a)
    return min(gap / 2.0, EPS_CAP)


def _cross_check_window(spec: ExperimentSpec, win: SeqWindow) -> None:
    """Spot-check the product decomposition against the full double sum."""
    axis_x, axis_y = _axes(spec)
    h = StepFn2D(axis_x.step, axis_y.step)
    u, v = win.factors
    for n in np.unique(np.geomspace(2, min(spec.window, 200), 5).astype(int)):
        n = int(n)
        direct = _family(spec).eval_2d(h, spec.s, n, n, axis_x.at, axis_y.at, True)
        prod = float(u[n - 1] * v[n - 1])
        if abs(direct - prod) > 1e-9:
            raise CrossCheckError(
                f"window factor product at n=m={n} is {prod!r}, double sum {direct!r}")


def run_index_experiment(spec: ExperimentSpec,
                         window: SeqWindow | None = None) -> ExperimentResult:
    """Estimate the index of convergence for every predicted target.

    The dilation half-width defaults to half the minimum inter-cluster gap
    (capped); measure-profile cases use explicit interval targets compared
    against the profile preimage measure.  For cluster tables the residual
    mass is the window fraction hitting none of the dilated targets at the
    final checkpoint.  A precomputed window (e.g. from the sequence cache)
    may be supplied.
    """
    table = build_table(spec)
    if table.profile is not None and not spec.targets:
        raise ValueError("irrational case: supply interval targets to measure")
    if table.profile is None and spec.targets:
        raise ValueError("interval targets apply only to measure-profile "
                         "(irrational) cases; this case predicts discrete clusters")
    if window is not None and window.n_max != spec.window:
        raise ValueError("supplied window size disagrees with the experiment spec")
    win = window if window is not None else generate_window(spec)
    if spec.cross_check and win.factors is not None:
        _cross_check_window(spec, win)
    cps = default_checkpoints(spec.window, spec.checkpoint_count)
    if table.profile is not None:
        eps = spec.epsilon if spec.epsilon is not None else PROFILE_EPS
        measure = (preimage_measure_2d if isinstance(table.profile, Profile2D)
                   else preimage_measure_1d)
        rows = [Prediction(Target.interval_union([iv]), measure(table.profile, [iv]))
                for iv in spec.targets]
    else:
        eps = spec.epsilon if spec.epsilon is not None else _auto_epsilon(table)
        rows = table.predictions
    # every row and the residual's union of all rows are counted in one pass
    unions = [pred.target.dilated(eps) for pred in rows]
    if table.profile is None:
        unions.append(merge_open(iv for union in unions for iv in union))
    counts = win.hit_counts(unions, cps)
    reports: list[IndexReport] = []
    for pred, row in zip(rows, counts):
        rep = IndexReport(target=pred.target, epsilon=eps, label=pred.label,
                          estimate=DensityEstimate.from_counts(cps, row, win.dim))
        rep.judge(pred.index, spec.tolerance, lower_bound=pred.lower_bound_only)
        reports.append(rep)
    residual = None
    if table.profile is None:
        assert cps[-1] == spec.window, "the residual is read at the window's last checkpoint"
        residual = 1.0 - int(counts[-1, -1]) / spec.window**win.dim
    return ExperimentResult(spec=spec, table=table, epsilon=eps,
                            reports=reports, residual_mass=residual, window=win)


# ---------------------------------------------------------------------------
# subsequence witnesses


@dataclass(frozen=True)
class WitnessReport:
    """Explicit subsequence realizing one cluster, with its tail behavior."""

    limit: float
    tail_value: float
    tail_deviation: float
    density_estimate: float


def cluster_witness(spec: ExperimentSpec, m: int) -> WitnessReport:
    """Exhibit the subsequence along which the offset equals m/q.

    Works for univariate experiments with a rational point spec.  Returns
    the tail value of the operator along the subsequence, its deviation
    from the predicted cluster limit, and a density estimate of the index
    set within the window.  The tail value is the operator at the arm's
    last index in the window, evaluated alone (the window generator's
    one-index set), so a witness costs O(N), not the O(N^2) of the window.
    """
    point = spec.spec_x
    if not point.is_rational:
        raise ValueError("witnesses require a rational point spec")
    if spec.spec_y is not None:
        raise ValueError("witnesses are defined for univariate experiments")
    fam, q = _family(spec), point.q
    if not 0 <= m < q:
        raise ValueError("residue m must lie in 0..q-1")
    indices = range(fam.first_index(point.p, q, m), spec.window + 1, q)
    if not indices:
        raise ValueError(f"window {spec.window} too small to reach the residue-{m} arm")
    (axis,) = _axes(spec)
    limit = _arm_limit(fam, axis, spec.s, m)
    tail_value = float(fam.at_jump(point, spec.s, spec.window, axis.step.at,
                                   indices=[indices[-1]])[0])
    return WitnessReport(
        limit=limit,
        tail_value=tail_value,
        tail_deviation=abs(tail_value - limit),
        density_estimate=len(indices) / spec.window,
    )


# ---------------------------------------------------------------------------
# sequence laws: rotations, products, uniform limits


def rotation_sequence(alpha: PointSpec | str, beta: float, n_max: int) -> SeqWindow:
    """x_n = frac(n*alpha + beta) for an irrational preset alpha.

    Equidistribution makes the index of convergence to any interval equal
    its length.
    """
    if isinstance(alpha, str):
        alpha = PointSpec.irrational(alpha)
    if alpha.is_rational:
        raise ValueError("rotation sequences require an irrational multiplier")
    if not 0.0 <= beta < 1.0:
        raise ValueError("shift beta must lie in [0, 1)")
    n = np.arange(1, n_max + 1, dtype=float)
    return SeqWindow.from_values_1d((n * alpha.value + beta) % 1.0)


def product_measure(a: float, b: float) -> float:
    """Plane measure of {(x,y) in [0,1)^2 : x*y in [a,b]}.

    The region under x*y <= t has area t - t*ln(t) (limit 0 at t = 0).
    """

    def under(t: float) -> float:
        if t <= 0.0:
            return 0.0
        if t >= 1.0:
            return 1.0
        return t - t * math.log(t)

    return under(b) - under(a)


def check_product_rule(alpha: PointSpec | str, gamma: PointSpec | str,
                       interval: tuple[float, float], n_max: int) -> IndexReport:
    """Index of x_n * y_m for two rotations against the closed-form measure."""
    u = rotation_sequence(alpha, 0.0, n_max).values
    v = rotation_sequence(gamma, 0.0, n_max).values
    win = SeqWindow.from_product(u, v)
    a, b = interval
    target = Target.interval_union([(a, b)])
    rep = index_to_target(win, target, RULE_EPS, default_checkpoints(n_max))
    return rep.judge(product_measure(a, b), RULE_TOL)


def check_uniform_limit_rule(n_max: int) -> IndexReport:
    """x_{n,m} = y_n + 1/m, with y_n the sqrt2_minus_1 rotation, converges to
    y_n uniformly in n along all m.

    The index of the double sequence to [0, 1/2] must then be at least the
    index of y_n to it (the approximating subsequence has density 1).
    """
    y = rotation_sequence("sqrt2_minus_1", 0.0, n_max).values
    cps = default_checkpoints(n_max)
    target = Target.interval_union([(0.0, 0.5)])
    rep_1d = index_to_target(SeqWindow.from_values_1d(y), target, RULE_EPS, cps)
    m = np.arange(1, n_max + 1, dtype=float)
    rep_2d = index_to_target(SeqWindow.from_sum(y, 1.0 / m), target, RULE_EPS, cps)
    return rep_2d.judge(rep_1d.estimate.lower_est, RULE_TOL, lower_bound=True)


# ---------------------------------------------------------------------------
# uniform convergence away from the jump set


def uniform_convergence_scan(spec: ExperimentSpec, regions, n_list):
    """Sup of |operator - step| over grids on regions avoiding the jump set.

    1-d regions are intervals (a, b) on a grid of 2 * SCAN_GRID points; 2-d
    regions are rectangles (x_lo, x_hi, y_lo, y_hi) on a SCAN_GRID square
    grid.  Returns one row per (region, n) with the sup error.  Before any
    evaluation, a region whose length is not twice the spec's dimension, or
    which lies closer than SCAN_MIN_DISTANCE to the jump set, is rejected.
    """
    fam, axes = _family(spec), _axes(spec)
    steps = [axis.step for axis in axes]
    segs = _cross(fam, [axis.jump for axis in axes])
    size = SCAN_GRID if len(axes) == 2 else 2 * SCAN_GRID
    regions = [tuple(region) for region in regions]
    for region in regions:
        if len(region) != 2 * len(axes):
            raise ValueError(f"region {region} must have {2 * len(axes)} ends, not {len(region)}")
        # an interval is a flat rectangle on the x axis, which holds a 1-d jump
        rect = region if len(region) == 4 else (*region, 0.0, 0.0)
        if _rect_distance_to_cross(rect, segs) < SCAN_MIN_DISTANCE:
            raise ValueError(f"region {region} is within {SCAN_MIN_DISTANCE} of the jump set")
    rows = []
    for region in regions:
        grids = [np.linspace(lo, hi, size) for lo, hi in zip(region[::2], region[1::2])]
        exact = reduce(np.multiply.outer, [f(ts) for f, ts in zip(steps, grids)])
        for n in n_list:
            approx = reduce(np.multiply.outer, [
                np.array([fam.eval_1d(f, spec.s, n, float(t)) for t in ts])
                for f, ts in zip(steps, grids)])
            rows.append({"region": region, "n": int(n),
                         "sup_error": float(np.abs(approx - exact).max())})
    return rows


def scan_decreasing(rows) -> bool:
    """True when, per region, sup errors never grow by more than SCAN_SLACK."""
    by_region: dict[tuple, list[tuple[int, float]]] = {}
    for row in rows:
        by_region.setdefault(row["region"], []).append((row["n"], row["sup_error"]))
    for seq in by_region.values():
        seq.sort()
        for (_, e1), (_, e2) in zip(seq, seq[1:]):
            if e2 > e1 * (1.0 + SCAN_SLACK):
                return False
    return True
