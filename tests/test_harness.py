import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conidx.density import SeqWindow, Target, default_checkpoints, index_to_target
from conidx import harness
from conidx.harness import (
    ExperimentSpec,
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
    assert np.array_equal(win.hit_counts([(lo, hi)], cps),
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


def test_scan_rejects_regions_near_jump():
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


def test_scan_shepard_2d_decreases():
    spec = ExperimentSpec(operator="shepard2d", spec_x=HALF, spec_y=HALF, s=2.0, window=10)
    rows = uniform_convergence_scan(spec, [(0.7, 1.0, 0.0, 1.0)], [200, 400, 800])
    assert scan_decreasing(rows)
    assert max(r["sup_error"] for r in rows if r["n"] == 800) <= 0.01
