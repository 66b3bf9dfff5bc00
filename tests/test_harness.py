import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conidx import harness
from conidx import lagrange as lg
from conidx import shepard as sh
from conidx.density import SeqWindow, Target, default_checkpoints, index_to_target
from conidx.harness import (
    ExperimentSpec,
    WitnessReport,
    build_table,
    check_product_rule,
    check_uniform_limit_rule,
    cluster_witness,
    product_measure,
    rotation_sequence,
    run_index_experiment,
    scan_decreasing,
    uniform_convergence_scan,
)
from conidx.points import PointSpec
from conidx.profiles import Profile2D, lagrange_jump_profile, preimage_measure_2d
from conidx.stepfn import StepFn1D

THIRD = PointSpec.rational(1, 3)
HALF = PointSpec.rational(1, 2)
IRR = PointSpec.irrational("inv_sqrt2")


# ---------------------------------------------------------------------------
# prediction tables


def lagrange_1d(spec, d):
    return build_table(ExperimentSpec(operator="lagrange1d", spec_x=spec, d=d))


def lagrange_2d(spec_x, spec_y, eval_point=None):
    return build_table(ExperimentSpec(operator="lagrange2d", spec_x=spec_x, spec_y=spec_y,
                                      eval_point=eval_point))


def shepard_1d(s, spec):
    return build_table(ExperimentSpec(operator="shepard1d", spec_x=spec, s=s))


def shepard_2d(s, spec_x, spec_y, eval_point=None):
    return build_table(ExperimentSpec(operator="shepard2d", spec_x=spec_x, spec_y=spec_y,
                                      s=s, eval_point=eval_point))


def test_lagrange_1d_table_rational():
    table = lagrange_1d(THIRD, d=1.0)
    values = sorted(p.target.value for p in table.predictions)
    want = sorted([1.0, lagrange_jump_profile(1 / 3), lagrange_jump_profile(2 / 3)])
    assert values == pytest.approx(want, abs=1e-12)
    assert all(p.index == pytest.approx(1.0 / 3.0) for p in table.predictions)


def test_lagrange_1d_table_merges_matching_d():
    # d landing on a profile value doubles that cluster's index
    table = lagrange_1d(HALF, d=0.5)
    assert len(table.predictions) == 1
    only = table.predictions[0]
    assert only.target.value == pytest.approx(0.5)
    assert only.index == pytest.approx(1.0)


def test_lagrange_1d_table_irrational_carries_profile():
    table = lagrange_1d(IRR, d=1.0)
    assert table.profile is not None
    assert not table.predictions


def test_lagrange_2d_corner_table():
    table = lagrange_2d(THIRD, HALF)
    assert len(table.predictions) == 6
    assert all(p.index == pytest.approx(1.0 / 6.0) for p in table.predictions)
    total = sum(p.index for p in table.predictions)
    assert total == pytest.approx(1.0)


def test_lagrange_2d_edge_table_has_unit_arm():
    table = lagrange_2d(THIRD, HALF, eval_point=(0.5, 0.5))  # on x = cos(pi/3)
    values = sorted(p.target.value for p in table.predictions)
    assert values[-1] == pytest.approx(1.0)   # offset-zero arm: profile(0) = 1
    assert len(values) == 3


def test_lagrange_2d_mixed_corner_lower_bounds():
    table = lagrange_2d(THIRD, IRR)
    assert len(table.predictions) == 3
    for pred in table.predictions:
        assert pred.lower_bound_only
        assert pred.target.kind == "set"
        (lo, hi), = pred.target.intervals
        assert lo == 0.0 and 0.0 < hi <= 1.0
        assert pred.index == pytest.approx(1.0 / 3.0)


def test_lagrange_2d_double_irrational_profile():
    table = lagrange_2d(IRR, PointSpec.irrational("golden_frac"))
    assert isinstance(table.profile, Profile2D)


def test_shepard_tables_s1():
    edge = shepard_1d(1.0, HALF)
    got = {p.target.value: p.index for p in edge.predictions}
    assert got == {1.0: pytest.approx(0.5), 0.5: pytest.approx(0.5)}
    corner = shepard_2d(1.0, HALF, HALF)
    got = {p.target.value: p.index for p in corner.predictions}
    assert got[0.5] == pytest.approx(0.25)
    assert got[0.25] == pytest.approx(0.75)
    mixed = shepard_2d(1.0, HALF, IRR)
    got = {p.target.value: p.index for p in mixed.predictions}
    assert got[0.5] == pytest.approx(0.5)
    both = shepard_2d(1.0, IRR, IRR)
    assert both.predictions[0].target.value == 0.25
    assert both.predictions[0].index == 1.0


def test_shepard_tables_s2_mirror_lagrange_shape():
    table = shepard_2d(2.0, THIRD, HALF)
    assert len(table.predictions) == 6
    assert all(p.index == pytest.approx(1.0 / 6.0) for p in table.predictions)
    edge = shepard_2d(2.0, THIRD, HALF, eval_point=(0.2, 0.5))
    assert {round(p.target.value, 6) for p in edge.predictions} == {0.5, 1.0}
    # an irrational edge coordinate turns the table into a measure profile
    irr_edge = shepard_2d(2.0, THIRD, IRR, eval_point=(0.2, IRR.value))
    assert irr_edge.profile is not None and irr_edge.profile.kind.startswith("shepard")


def test_table_rejects_inseparable_clusters():
    # a jump value within 2e-3 of a profile cluster cannot be told apart
    bad_d = lagrange_jump_profile(1 / 3) + 1e-3
    with pytest.raises(ValueError, match="closer than"):
        lagrange_1d(THIRD, d=bad_d)


def test_tables_reject_endpoint_specs():
    with pytest.raises(ValueError):
        lagrange_1d(PointSpec.rational(0, 1), d=1.0)
    with pytest.raises(ValueError):
        shepard_1d(2.0, PointSpec.rational(1, 1))


# Each table shape of both families as recorded: per entry the target (a
# value, or the lower-bound interval), its index, its label and its
# lower-bound flag, in table order.  The floats are the exact doubles.
P = PointSpec.parse
RECORDED_TABLES = {
    "lagrange1d 1/3": (
        dict(operator="lagrange1d", spec_x=P("1/3")),
        [(1.0, 0.3333333333333333, "d", False),
         (0.6910760347115987, 0.3333333333333333, "profile(1/3)", False),
         (0.30892396528875304, 0.3333333333333333, "profile(2/3)", False)]),
    "lagrange1d 1/2, d merged into profile(1/2)": (
        dict(operator="lagrange1d", spec_x=P("1/2"), d=0.5),
        [(0.5, 1.0, "d=profile(1/2)", False)]),
    "lagrange1d 2/5 d=0.25": (
        dict(operator="lagrange1d", spec_x=P("2/5"), d=0.25),
        [(0.25, 0.2, "d", False),
         (0.8310078278598693, 0.2, "profile(1/5)", False),
         (0.615908065515799, 0.2, "profile(2/5)", False),
         (0.3840919344845871, 0.2, "profile(3/5)", False),
         (0.16899217214036957, 0.2, "profile(4/5)", False)]),
    "shepard1d 1/3": (
        dict(operator="shepard1d", spec_x=P("1/3"), s=2.0),
        [(1.0, 0.3333333333333333, "profile(0/3)", False),
         (0.7671733877433137, 0.3333333333333333, "profile(1/3)", False),
         (0.23282661225668644, 0.3333333333333333, "profile(2/3)", False)]),
    "lagrange2d edge 1/3 x 1/2": (
        dict(operator="lagrange2d", spec_x=P("1/3"), spec_y=P("1/2"), eval_point=(0.5, 0.5)),
        [(1.0, 0.3333333333333333, "profile(0/3)", False),
         (0.6910760347115987, 0.3333333333333333, "profile(1/3)", False),
         (0.30892396528875304, 0.3333333333333333, "profile(2/3)", False)]),
    "shepard2d edge 1/3 x 1/2": (
        dict(operator="shepard2d", spec_x=P("1/3"), spec_y=P("1/2"), s=2.0,
             eval_point=(0.2, 0.5)),
        [(1.0, 0.5, "profile(0/2)", False), (0.5, 0.5, "profile(1/2)", False)]),
    "lagrange2d 1/3 x inv_sqrt2": (
        dict(operator="lagrange2d", spec_x=P("1/3"), spec_y=P("inv_sqrt2")),
        [(((0.0, 1.0),), 0.3333333333333333, "[0, profile(0/3)]", True),
         (((0.0, 0.6910760347115987),), 0.3333333333333333, "[0, profile(1/3)]", True),
         (((0.0, 0.30892396528875304),), 0.3333333333333333, "[0, profile(2/3)]", True)]),
    "shepard2d golden_frac x 1/2": (
        dict(operator="shepard2d", spec_x=P("golden_frac"), spec_y=P("1/2"), s=3.0),
        [(((0.0, 1.0),), 0.5, "[0, profile_s(0/2)]", True),
         (((0.0, 0.5),), 0.5, "[0, profile_s(1/2)]", True)]),
    "lagrange2d 1/3 x 1/2": (
        dict(operator="lagrange2d", spec_x=P("1/3"), spec_y=P("1/2")),
        [(1.0, 0.16666666666666666, "profile(0/3)*profile(0/2)", False),
         (0.5000000000002031, 0.16666666666666666, "profile(0/3)*profile(1/2)", False),
         (0.6910760347115987, 0.16666666666666666, "profile(1/3)*profile(0/2)", False),
         (0.3455380173559397, 0.16666666666666666, "profile(1/3)*profile(1/2)", False),
         (0.30892396528875304, 0.16666666666666666, "profile(2/3)*profile(0/2)", False),
         (0.15446198264443925, 0.16666666666666666, "profile(2/3)*profile(1/2)", False)]),
    "lagrange2d 1/2 x 1/2, two products merged": (
        dict(operator="lagrange2d", spec_x=P("1/2"), spec_y=P("1/2")),
        [(1.0, 0.25, "profile(0/2)*profile(0/2)", False),
         (0.5000000000002031, 0.5, "profile(0/2)*profile(1/2)=profile(1/2)*profile(0/2)", False),
         (0.25000000000020306, 0.25, "profile(1/2)*profile(1/2)", False)]),
    "shepard2d 1/2 x 1/3": (
        dict(operator="shepard2d", spec_x=P("1/2"), spec_y=P("1/3"), s=2.0),
        [(1.0, 0.16666666666666666, "profile_s(0/2)*profile_s(0/3)", False),
         (0.7671733877433137, 0.16666666666666666, "profile_s(0/2)*profile_s(1/3)", False),
         (0.23282661225668644, 0.16666666666666666, "profile_s(0/2)*profile_s(2/3)", False),
         (0.5, 0.16666666666666666, "profile_s(1/2)*profile_s(0/3)", False),
         (0.38358669387165684, 0.16666666666666666, "profile_s(1/2)*profile_s(1/3)", False),
         (0.11641330612834322, 0.16666666666666666, "profile_s(1/2)*profile_s(2/3)",
          False)]),
}


@pytest.mark.parametrize("case", RECORDED_TABLES)
def test_build_table_keeps_the_recorded_clusters(case):
    kwargs, want = RECORDED_TABLES[case]
    table = build_table(ExperimentSpec(**kwargs))
    assert table.profile is None
    got = [(p.target.value if p.target.kind == "value" else p.target.intervals,
            p.index, p.label, p.lower_bound_only) for p in table.predictions]
    assert got == want


@pytest.mark.parametrize("operator,points,kind", [
    ("lagrange1d", ["inv_sqrt2"], "lagrange"),
    ("shepard1d", ["golden_frac"], "shepard(s=2)"),
    ("lagrange2d", ["inv_sqrt2", "golden_frac"], "lagrange"),
    ("shepard2d", ["inv_sqrt2", "golden_frac"], "shepard(s=2)"),
])
def test_build_table_without_a_rational_factor_keeps_the_recorded_profile(operator, points,
                                                                          kind):
    specs = dict(zip(("spec_x", "spec_y"), map(P, points)))
    table = build_table(ExperimentSpec(operator=operator, s=2.0, **specs))
    assert not table.predictions
    if len(points) == 1:
        assert table.profile.kind == kind
    else:  # one factor profile on both axes
        assert isinstance(table.profile, Profile2D) and table.profile.fx is table.profile.fy
        assert table.profile.fx.kind == kind


@pytest.mark.parametrize("kwargs,message", [
    (dict(operator="lagrange1d", spec_x=P("1/3"), d=0.692),
     "cluster values 0.691076 and 0.692 are closer than 0.002"),
    (dict(operator="shepard1d", spec_x=P("5/12"), s=3.0),
     "cluster values 0.99912 and 1 are closer than 0.002"),
    (dict(operator="lagrange2d", spec_x=P("1/3"), spec_y=P("3/5")),
     "cluster values 0.116786 and 0.118655 are closer than 0.002"),
    (dict(operator="lagrange2d", spec_x=P("0/1"), spec_y=P("1/2")),
     "point 0/1 must lie strictly inside"),
    (dict(operator="shepard2d", spec_x=P("1/2"), spec_y=P("1/1"), eval_point=(0.25, 1.0)),
     "point 1/1 must lie strictly inside"),
])
def test_build_table_keeps_the_recorded_errors(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_table(ExperimentSpec(**kwargs))


def test_shepard_tables_reject_s_below_one_in_1d_and_2d():
    for table in (lambda: shepard_1d(0.5, HALF), lambda: shepard_2d(0.5, HALF, HALF)):
        with pytest.raises(ValueError, match="exponent s must be >= 1"):
            table()


# ---------------------------------------------------------------------------
# experiments


def test_experiment_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(operator="nope", spec_x=THIRD)
    with pytest.raises(ValueError):
        ExperimentSpec(operator="lagrange1d", spec_x=THIRD, window=20_000)
    with pytest.raises(ValueError):
        ExperimentSpec(operator="lagrange2d", spec_x=THIRD, spec_y=HALF, window=5000)
    with pytest.raises(ValueError):
        ExperimentSpec(operator="shepard2d", spec_x=HALF, window=100)
    for eps in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            ExperimentSpec(operator="lagrange1d", spec_x=THIRD, epsilon=eps)


@pytest.mark.parametrize("count", [1, -3, 0, 10_001])
def test_experiment_rejects_checkpoint_counts_outside_the_config_range(count):
    """The range `parse_config` allows; 1 used to fail an assertion at the
    residual and -3 inside numpy."""
    with pytest.raises(ValueError, match=r"checkpoint_count must lie in \[2, 10000\]"):
        ExperimentSpec("lagrange1d", PointSpec.rational(1, 3), window=100,
                       checkpoint_count=count)
    for ok in (2, 10_000):
        ExperimentSpec("lagrange1d", PointSpec.rational(1, 3), window=100, checkpoint_count=ok)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0])
def test_experiment_rejects_tolerances_that_are_not_positive(tol):
    """A NaN or negative tolerance used to run and fail every verdict."""
    with pytest.raises(ValueError, match="tolerance must be positive"):
        ExperimentSpec("lagrange1d", PointSpec.rational(1, 3), window=100, tolerance=tol)


def test_eval_point_classification_errors():
    for point in ((0.9, 0.9), (math.nan, 0.5), (0.5, math.nan)):
        spec = ExperimentSpec(operator="shepard2d", spec_x=HALF, spec_y=HALF, s=2.0,
                              window=50, eval_point=point)
        with pytest.raises(ValueError, match="jump cross"):
            run_index_experiment(spec)


FACTOR_POINTS = st.sampled_from([HALF, THIRD, PointSpec.rational(2, 3),
                                 PointSpec.rational(1, 4), PointSpec.rational(2, 5),
                                 IRR, PointSpec.irrational("golden_frac")])
JUMP = {"lagrange": lambda v: math.cos(math.pi * v), "shepard": lambda v: v}
FAR = {"lagrange": 1.0, "shepard": 0.0}  # the side of the square the cross runs to


def table_rows(table):
    if table.profile is not None:
        return table.profile.kind, table.profile.value_at_0, table.profile.limit_at_1
    return [(p.target, p.index, p.lower_bound_only, p.label) for p in table.predictions]


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["lagrange", "shepard"]), s=st.sampled_from([1.0, 2.0, 3.0]),
       points=st.tuples(FACTOR_POINTS, FACTOR_POINTS), pinned=st.sampled_from([0, 1]),
       along=st.floats(0.01, 1.0), snap=st.sampled_from([0.0, 1e-13, -1e-13]),
       off=st.floats(1e-9, 0.5))
def test_edge_experiments_reduce_to_the_pinned_factor(family, s, points, pinned, along,
                                                      snap, off):
    """On an edge of the jump cross one factor is pinned at its jump and the
    other converges: the table is the 1-d table of the pinned factor, and the
    pinned factor of the window is the corner window's, bit for bit.  Points
    off the cross raise, beyond the far side of the square too."""
    jumps = [JUMP[family](point.value) for point in points]
    corner = ExperimentSpec(operator=f"{family}2d", spec_x=points[0], spec_y=points[1],
                            s=s, window=40)
    free = 1 - pinned
    at = list(jumps)
    at[pinned] += snap  # within 1e-12 of the jump: snapped onto it
    at[free] += along * (FAR[family] - jumps[free])
    edge = dataclasses.replace(corner, eval_point=tuple(at))
    factor = ExperimentSpec(operator=f"{family}1d", spec_x=points[pinned], s=s)
    try:
        want = table_rows(build_table(factor))
    except ValueError as exc:  # clusters too close: the edge table fails alike
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            build_table(edge)
    else:
        got = table_rows(build_table(edge))
        if family == "lagrange" and points[pinned].is_rational:
            # the univariate step's node arm is its value d = 1 = profile(0)
            want = [row[:3] + (f"profile(0/{points[pinned].q})" if row[3] == "d" else row[3],)
                    for row in want]
        assert got == want
    assert np.array_equal(harness.generate_window(edge).factors[pinned],
                          harness.generate_window(corner).factors[pinned])
    toward = math.copysign(1.0, FAR[family] - jumps[free])
    for bad in ((jumps[pinned] + off, at[free]),            # off the pinned line
                (jumps[pinned], jumps[free] - toward * off),  # behind the corner
                (jumps[pinned], FAR[family] + toward * off)):  # beyond the square
        bad = bad if pinned == 0 else bad[::-1]
        with pytest.raises(ValueError, match="jump cross"):
            build_table(dataclasses.replace(corner, eval_point=bad))


def lagrange_at(x0, d, x):
    """n -> L_n of the jump `StepFn1D.jump(x0, d)` at x, one n at a time."""
    return lambda n: lg.lagrange_eval_1d(StepFn1D.jump(x0, d), n, x)


def shepard_at(x0, x):
    """n -> S_n of `StepFn1D.indicator_upto(x0)` at x, s = 2, one n at a time."""
    return lambda n: sh.shepard_eval_1d(StepFn1D.indicator_upto(x0), sh.ShepardParams(2.0, n), x)


@pytest.mark.parametrize("spec, evaluators", [
    (ExperimentSpec("lagrange1d", PointSpec.rational(2, 5), d=0.5, window=400),
     [lagrange_at(math.cos(0.4 * math.pi), 0.5, math.cos(0.4 * math.pi))]),
    (ExperimentSpec("lagrange2d", THIRD, HALF, window=400, eval_point=(0.75, 0.0)),
     [lagrange_at(math.cos(math.pi / 3), 1.0, 0.75),
      lagrange_at(math.cos(math.pi / 2), 1.0, math.cos(math.pi / 2))]),
    (ExperimentSpec("shepard2d", PointSpec.rational(3, 4), HALF, window=400,
                    eval_point=(0.375, 0.5)),
     [shepard_at(0.75, 0.375), shepard_at(0.5, 0.5)]),
], ids=["lagrange1d d=0.5", "lagrange2d edge", "shepard2d edge"])
def test_generate_window_wires_each_factor_to_its_step(spec, evaluators):
    """Each factor of the window is the family's step with the jump value d
    (Lagrange 1-d) or 1 at its axis's jump coordinate, evaluated at the
    axis's coordinate of the eval point.  n = 11, 51 and 301 are node hits
    of 2/5, where the window returns d."""
    win = harness.generate_window(spec)
    factors = win.factors if win.factors is not None else [win.values]
    assert len(factors) == len(evaluators)
    for factor, evaluate in zip(factors, evaluators):
        for n in (2, 3, 4, 5, 7, 11, 51, 120, 301, 400):
            assert factor[n - 1] == evaluate(n), n


def test_lagrange_1d_experiment_passes():
    spec = ExperimentSpec(operator="lagrange1d", spec_x=THIRD, d=1.0, window=1500,
                          tolerance=0.02)
    result = run_index_experiment(spec)
    assert result.all_pass
    assert result.epsilon == pytest.approx(0.05)
    assert result.residual_mass <= 0.01
    labels = [r.label for r in result.reports]
    assert labels == [p.label for p in result.table.predictions]
    assert set(labels) == {"d", "profile(1/3)", "profile(2/3)"}


def test_touching_dilations_leave_their_shared_end_in_the_residual():
    """Dilations are open: (0.75, 1.25) and (0.25, 0.75) touch at 0.75, which
    lies in neither, so the two values there count in the residual."""
    spec = ExperimentSpec(operator="shepard1d", spec_x=HALF, s=1.0, window=8, epsilon=0.25)
    win = SeqWindow.from_values_1d([1, .5, .75, 1, .5, .75, 1, .5])
    result = run_index_experiment(spec, window=win)
    assert [r.estimate.ratios[-1] for r in result.reports] == [0.375, 0.375]
    assert result.residual_mass == 0.25


CLUSTER_SPECS = [
    ExperimentSpec(operator="shepard1d", spec_x=HALF, s=1.0),
    ExperimentSpec(operator="shepard1d", spec_x=THIRD, s=2.0),
    ExperimentSpec(operator="shepard1d", spec_x=PointSpec.rational(2, 5), s=3.0),
    ExperimentSpec(operator="lagrange1d", spec_x=HALF, d=1.0),
    ExperimentSpec(operator="lagrange1d", spec_x=PointSpec.rational(1, 4), d=0.25),
]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_residual_and_cluster_counts_partition_the_window(data):
    """With pairwise disjoint or touching dilations every index counts once:
    for the one target whose open dilation holds its value, or in the
    residual, shared ends of touching dilations included."""
    base = data.draw(st.sampled_from(CLUSTER_SPECS))
    values = sorted(p.target.value for p in build_table(base).predictions)
    gap = min(b - a for a, b in zip(values, values[1:]))
    eps = gap / 2.0 * data.draw(st.sampled_from([1.0, 0.5]) | st.floats(0.01, 1.0))
    ends = sorted(end for v in values for end in (v - eps, v + eps))
    assume(all(b1 <= a2 for b1, a2 in zip(ends[1::2], ends[2::2])))
    n = data.draw(st.integers(2, 64))
    pool = st.sampled_from(values + ends) | st.floats(-0.5, 1.5)
    win = SeqWindow.from_values_1d(data.draw(st.lists(pool, min_size=n, max_size=n)))
    result = run_index_experiment(dataclasses.replace(base, window=n, epsilon=eps),
                                  window=win)
    counts = [round(r.estimate.ratios[-1] * n) for r in result.reports]
    assert sum(counts) + round(result.residual_mass * n) == n


@pytest.mark.parametrize("spec", [
    ExperimentSpec(operator="lagrange2d", spec_x=THIRD, spec_y=HALF, window=120),
    ExperimentSpec(operator="shepard2d", spec_x=HALF, spec_y=PointSpec.rational(2, 3),
                   window=120),
    ExperimentSpec(operator="lagrange1d", spec_x=THIRD, window=300),
], ids=["lagrange2d", "shepard2d", "lagrange1d"])
def test_residual_mass_equals_the_materialized_misses_at_the_window(spec):
    """The residual comes out of the same batched count as the rows; it
    equals the share of the materialized window outside every dilation."""
    result = run_index_experiment(spec)
    win = result.window
    values = win.values if win.dim == 1 else win.op.outer(*win.factors)
    hit = np.zeros(values.shape, dtype=bool)
    for rep in result.reports:
        for lo, hi in rep.target.dilated(result.epsilon):
            hit |= (values > lo) & (values < hi)
    assert result.residual_mass == 1.0 - np.count_nonzero(hit) / spec.window**win.dim


def test_experiment_with_supplied_window_matches_cold_run():
    spec = ExperimentSpec(operator="lagrange1d", spec_x=THIRD, d=1.0, window=600)
    cold = run_index_experiment(spec)
    warm = run_index_experiment(spec, window=cold.window)
    assert [r.estimate.ratios for r in warm.reports] == [
        r.estimate.ratios for r in cold.reports]
    with pytest.raises(ValueError):
        run_index_experiment(spec, window=SeqWindow.from_values_1d(np.zeros(10)))


def test_shepard_corner_s1_true_cluster_structure():
    """The product decomposition fixes the corner clusters: the univariate
    factors are exactly {1 on node hits, 1/2 otherwise} at x0 = 1/2, so the
    products give {1: 1/4, 1/2: 1/2, 1/4: 1/4}.  The tabulated corner
    prediction for s = 1 ({1/2: 1/4, 1/4: 3/4}) contradicts this; the
    experiment verdicts report that mismatch instead of hiding it."""
    spec = ExperimentSpec(operator="shepard2d", spec_x=HALF, spec_y=HALF, s=1.0,
                          window=800, tolerance=0.03)
    result = run_index_experiment(spec)
    by_value = {r.target.value: r for r in result.reports}
    assert by_value[0.5].estimate.lower_est == pytest.approx(0.5, abs=0.01)
    assert by_value[0.25].estimate.lower_est == pytest.approx(0.25, abs=0.01)
    assert by_value[0.5].verdict == "fail"
    assert by_value[0.25].verdict == "fail"
    # the unpredicted node-hit x node-hit cluster at 1 carries the rest
    win = result.window
    rep_one = index_to_target(win, Target.point(1.0), 0.05, default_checkpoints(800))
    assert rep_one.estimate.lower_est == pytest.approx(0.25, abs=0.01)
    assert result.residual_mass == pytest.approx(0.25, abs=0.01)


def test_shepard_mixed_corner_s1_is_log_slow():
    """With an irrational factor and s = 1 the factor deviates from 1/2 by
    roughly cot(pi t_m)/(4 ln m), a heavy-tailed coefficient over a log
    rate, so no desk-scale window resolves the predicted clusters.  The
    experiment must still build the predicted table and report honest,
    depressed estimates rather than erroring out."""
    spec = ExperimentSpec(operator="shepard2d", spec_x=HALF, spec_y=IRR, s=1.0,
                          window=1000, tolerance=0.03)
    result = run_index_experiment(spec)
    predicted = {r.target.value: r.predicted for r in result.reports}
    assert predicted == {0.5: pytest.approx(0.5), 0.25: pytest.approx(0.5)}
    for rep in result.reports:
        assert rep.estimate.lower_est < rep.predicted
        assert rep.verdict in ("pass", "fail")


def test_lagrange_mixed_corner_lower_bounds_pass():
    spec = ExperimentSpec(operator="lagrange2d", spec_x=THIRD, spec_y=IRR,
                          window=500, tolerance=0.02)
    result = run_index_experiment(spec)
    assert result.all_pass
    assert all(r.predicted_is_lower_bound for r in result.reports)


def test_lagrange_double_irrational_corner_measure():
    spec = ExperimentSpec(operator="lagrange2d", spec_x=IRR,
                          spec_y=PointSpec.irrational("golden_frac"),
                          window=800, tolerance=0.03, targets=[(0.2, 0.6)])
    result = run_index_experiment(spec)
    rep = result.reports[0]
    want = preimage_measure_2d(result.table.profile, [(0.2, 0.6)])
    assert rep.predicted == pytest.approx(want)
    assert rep.verdict == "pass"
    assert rep.label is None  # measure targets are not table rows


def count_windows(monkeypatch) -> list:
    """Record each generate_window call the harness makes."""
    calls = []
    generate = harness.generate_window
    monkeypatch.setattr(harness, "generate_window",
                        lambda spec: calls.append(spec) or generate(spec))
    return calls


def test_profile_case_requires_targets(monkeypatch):
    calls = count_windows(monkeypatch)
    for spec in (ExperimentSpec(operator="lagrange1d", spec_x=IRR, window=300),
                 ExperimentSpec(operator="shepard1d", spec_x=IRR, s=2.0, window=300)):
        with pytest.raises(ValueError, match="targets"):
            run_index_experiment(spec)
    assert calls == []  # the config error comes before the window is built


def test_discrete_case_rejects_targets(monkeypatch):
    calls = count_windows(monkeypatch)
    spec = ExperimentSpec(operator="lagrange1d", spec_x=THIRD, window=300,
                          targets=[(0.2, 0.4)])
    with pytest.raises(ValueError, match="measure-profile"):
        run_index_experiment(spec)
    assert calls == []


def test_window_values_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        SeqWindow.from_values_1d(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="finite"):
        SeqWindow.from_product(np.array([1.0, np.inf]), np.array([1.0, 2.0]))


def test_cross_check_mode_runs():
    spec = ExperimentSpec(operator="shepard2d", spec_x=HALF, spec_y=HALF, s=2.0,
                          window=120, cross_check=True)
    result = run_index_experiment(spec)
    assert len(result.reports) >= 2


# ---------------------------------------------------------------------------
# witnesses


def test_lagrange_witnesses():
    spec = ExperimentSpec(operator="lagrange1d", spec_x=THIRD, d=1.0, window=2000)
    for m in range(3):
        wit = cluster_witness(spec, m)
        assert wit.tail_deviation <= 5e-3
        assert wit.density_estimate >= 1.0 / 3.0 - 0.02


def test_shepard_witnesses():
    spec = ExperimentSpec(operator="shepard1d", spec_x=THIRD, s=2.0, window=2000)
    for m in range(3):
        wit = cluster_witness(spec, m)
        assert wit.tail_deviation <= 5e-3
        assert wit.density_estimate >= 1.0 / 3.0 - 0.02


def full_window_witnesses(spec):
    """Each arm's witness read off the whole prefix window of spec.window:
    the reference a one-index witness must match."""
    point, fam = spec.spec_x, harness._family(spec)
    p, q = point.p, point.q
    lagrange = spec.operator == "lagrange1d"
    values = (lg.jump_sequence(point, spec.d, spec.window) if lagrange
              else sh.step_sequence(point, spec.s, spec.window))
    reports = []
    for m in range(q):
        arm = range(fam.first_index(p, q, m), spec.window + 1, q)
        # arm m: grid offset (n - 1) p/q (Lagrange) or n p/q (Shepard) is m/q mod 1
        assert all((p * (n - lagrange)) % q == m for n in arm)
        limit = (spec.d if lagrange else 1.0) if m == 0 else fam.profile(spec.s, m / q)
        tail = float(values[arm[-1] - 1])
        reports.append(WitnessReport(limit, tail, abs(tail - limit), len(arm) / spec.window))
    return reports


@pytest.mark.parametrize("operator, point, d, s, limits", [
    ("lagrange1d", THIRD, 1.0, 2.0, [1.0, 0.6910760347115987, 0.30892396528875304]),
    ("lagrange1d", PointSpec.rational(2, 5), 0.5, 2.0,
     [0.5, 0.8310078278598693, 0.615908065515799, 0.3840919344845871, 0.16899217214036957]),
    ("shepard1d", THIRD, 1.0, 1.0, [1.0, 0.5, 0.5]),
    ("shepard1d", THIRD, 1.0, 2.0, [1.0, 0.7671733877433137, 0.23282661225668644]),
    ("shepard1d", PointSpec.rational(1, 4), 1.0, 1.0, [1.0, 0.5, 0.5, 0.5]),
    ("shepard1d", PointSpec.rational(1, 4), 1.0, 2.0,
     [1.0, 0.8712268727107461, 0.5, 0.12877312728925397]),
], ids=["lagrange-1/3", "lagrange-2/5-d0.5", "shepard-1/3-s1", "shepard-1/3-s2",
        "shepard-1/4-s1", "shepard-1/4-s2"])
def test_witness_evaluates_only_its_tail_index(monkeypatch, operator, point, d, s, limits):
    """Every arm's witness equals the one read off the full window, from one
    generator call that evaluates one index, the arm's last.  The arm limits
    are the recorded ones, so the reference does not only repeat the
    profile call the witness makes."""
    spec = ExperimentSpec(operator=operator, spec_x=point, d=d, s=s, window=2000)
    want = full_window_witnesses(spec)
    assert [report.limit for report in want] == limits
    module, name = (lg, "jump_sequence") if operator == "lagrange1d" else (sh, "step_sequence")
    calls = []
    generator = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(kwargs.get("indices"))
        return generator(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    for m, report in enumerate(want):
        calls.clear()
        got = cluster_witness(spec, m)
        assert got == report
        assert len(calls) == 1 and calls[0] is not None and np.size(calls[0]) == 1


@pytest.mark.parametrize("operator, s", [("lagrange1d", 2.0), ("shepard1d", 1.0),
                                         ("shepard1d", 2.0)])
@pytest.mark.parametrize("m", [3, -1])
def test_witness_residue_outside_0_to_q_minus_1_is_rejected(operator, s, m, monkeypatch):
    """m = q and m = -1 at 1/3 raise before any window is built; at s = 1
    the Shepard arm m = 3 used to read as the node arm."""
    def no_window(*args, **kwargs):
        raise AssertionError("a window was built")

    monkeypatch.setattr(lg, "jump_sequence", no_window)
    monkeypatch.setattr(sh, "step_sequence", no_window)
    spec = ExperimentSpec(operator=operator, spec_x=THIRD, s=s, window=2000)
    with pytest.raises(ValueError, match=r"^residue m must lie in 0\.\.q-1$"):
        cluster_witness(spec, m)


def test_witness_requires_rational():
    spec = ExperimentSpec(operator="lagrange1d", spec_x=IRR, window=100)
    with pytest.raises(ValueError):
        cluster_witness(spec, 0)


# ---------------------------------------------------------------------------
# rotations, products, uniform limits


def test_rotation_equidistribution():
    win = rotation_sequence("sqrt2_minus_1", 0.0, 5000)
    cps = default_checkpoints(5000)
    rep = index_to_target(win, Target.interval_union([(0.0, 0.5)]), 0.005, cps)
    assert rep.estimate.lower_est == pytest.approx(0.5, abs=0.02)
    # shift invariance
    win_b = rotation_sequence("sqrt2_minus_1", 0.37, 5000)
    rep_b = index_to_target(win_b, Target.interval_union([(0.0, 0.5)]), 0.005, cps)
    assert rep_b.estimate.lower_est == pytest.approx(rep.estimate.lower_est, abs=0.02)
    # full range
    rep_all = index_to_target(win, Target.interval_union([(0.0, 1.0)]), 0.005, cps)
    assert rep_all.estimate.lower_est == 1.0


def test_rotation_validation():
    with pytest.raises(ValueError):
        rotation_sequence(PointSpec.rational(1, 3), 0.0, 100)
    with pytest.raises(ValueError):
        rotation_sequence("inv_sqrt2", 1.2, 100)


def test_product_measure_closed_form():
    assert product_measure(0.0, 0.5) == pytest.approx((1.0 + math.log(2.0)) / 2.0)
    assert product_measure(0.0, 1.0) == 1.0
    assert product_measure(0.2, 0.2) == 0.0


def test_product_rule_check():
    rep = check_product_rule("sqrt2_minus_1", "golden_frac", (0.0, 0.5), 1500)
    assert rep.verdict == "pass"
    rep_full = check_product_rule("sqrt2_minus_1", "golden_frac", (0.0, 1.0), 800)
    assert rep_full.estimate.lower_est == 1.0


def test_uniform_limit_rule_check():
    rep = check_uniform_limit_rule(800)
    assert rep.verdict == "pass"


def test_uniform_limit_rule_degenerate_cases():
    # constant base sequence: both indices are 1
    n = 600
    y = np.full(n, 0.25)
    m = np.arange(1, n + 1, dtype=float)
    cps = default_checkpoints(n)
    target = Target.interval_union([(0.2, 0.3)])
    rep1 = index_to_target(SeqWindow.from_values_1d(y), target, 0.01, cps)
    win = SeqWindow.from_sum(y, 1.0 / m)
    rep2 = index_to_target(win, target, 0.01, cps)
    # the sum form counts what the materialized matrix holds
    matrix = y[:, None] + 1.0 / m[None, :]
    (lo, hi), = target.dilated(0.01)
    mask = (matrix > lo) & (matrix < hi)
    assert np.array_equal(win.hit_counts([[(lo, hi)]], cps)[0],
                          [np.count_nonzero(mask[:cp, :cp]) for cp in cps])
    assert rep1.estimate.lower_est == 1.0
    assert rep2.estimate.lower_est >= 0.9
    # target disjoint from the range: both zero
    far = Target.interval_union([(5.0, 6.0)])
    assert index_to_target(SeqWindow.from_values_1d(y), far, 0.01, cps).estimate.upper_est == 0.0


# ---------------------------------------------------------------------------
# uniform convergence scans


def test_scan_lagrange_1d():
    spec = ExperimentSpec(operator="lagrange1d", spec_x=THIRD, d=1.0, window=10)
    x0 = math.cos(math.pi / 3.0)
    rows = uniform_convergence_scan(spec, [(-1.0, x0 - 0.2), (x0 + 0.2, 1.0)],
                                    [250, 500, 1000])
    assert max(r["sup_error"] for r in rows if r["n"] == 1000) <= 0.05
    assert scan_decreasing(rows)


def test_scan_constant_step_zero_error():
    # a step jumping outside the scan region is reproduced up to rounding
    spec = ExperimentSpec(operator="shepard1d", spec_x=PointSpec.rational(9, 10),
                          s=2.0, window=10)
    rows = uniform_convergence_scan(spec, [(0.0, 0.5)], [50, 100])
    assert max(r["sup_error"] for r in rows) <= 0.02


def test_scan_rejects_regions_near_jump(monkeypatch):
    spec = ExperimentSpec(operator="lagrange1d", spec_x=THIRD, d=1.0, window=10)
    with pytest.raises(ValueError):
        uniform_convergence_scan(spec, [(0.0, 1.0)], [100])
    spec2 = ExperimentSpec(operator="shepard2d", spec_x=HALF, spec_y=HALF, s=2.0, window=10)
    with pytest.raises(ValueError):
        uniform_convergence_scan(spec2, [(0.45, 1.0, 0.0, 1.0)], [100])
    # the jump cross of 1/3 x 1/2 runs up from (1/2, ~0) along x = 1/2: the
    # first region is 0.099997 from it, the second 0.100003
    spec3 = ExperimentSpec(operator="lagrange2d", spec_x=THIRD, spec_y=HALF, window=10)
    with pytest.raises(ValueError, match="within 0.1"):
        uniform_convergence_scan(spec3, [(0.599997, 1.0, 0.501, 0.502)], [])
    assert uniform_convergence_scan(spec3, [(0.600003, 1.0, 0.501, 0.502)], []) == []
    # a region must have two ends per dimension, checked before any evaluation:
    # a 4-tuple on a 1-d spec would be measured by its y extent and scan across
    # the jump at 0.5, and a 2-tuple on a 2-d spec would scan the x factor alone
    def no_eval(*args, **kwargs):
        raise AssertionError("the operator was evaluated")

    monkeypatch.setattr(lg, "lagrange_eval_1d", no_eval)
    monkeypatch.setattr(sh, "shepard_eval_1d", no_eval)
    with pytest.raises(ValueError, match="must have 2 ends, not 4"):
        uniform_convergence_scan(spec, [(0.3, 0.7, 0.2, 1.0)], [50, 100])
    with pytest.raises(ValueError, match="must have 4 ends, not 2"):
        uniform_convergence_scan(spec2, [(0.7, 1.0)], [50, 100])


def test_scan_shepard_2d_decreases():
    spec = ExperimentSpec(operator="shepard2d", spec_x=HALF, spec_y=HALF, s=2.0, window=10)
    rows = uniform_convergence_scan(spec, [(0.7, 1.0, 0.0, 1.0)], [200, 400, 800])
    assert scan_decreasing(rows)
    assert max(r["sup_error"] for r in rows if r["n"] == 800) <= 0.01
