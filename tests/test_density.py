import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conidx.density import (
    DensityEstimate,
    SeqWindow,
    Target,
    complement_identity_check,
    default_checkpoints,
    index_to_target,
    merge_open,
    sum_rule_check,
)
from conidx.harness import ExperimentSpec, generate_window, run_index_experiment
from conidx.points import PointSpec


def cos_quarter(n):
    """cos(n pi / 2) exactly from the residue of n mod 4."""
    n = np.asarray(n)
    return np.where(n % 2 == 1, 0.0, np.where(n % 4 == 0, 1.0, -1.0))


def cos_product_window(n_max):
    u = cos_quarter(np.arange(1, n_max + 1))
    return SeqWindow.from_product(u, u)


def nonzero_window(n_max):
    """Indicator of the pairs where cos(n pi/2) cos(m pi/2) is not zero."""
    a = (cos_quarter(np.arange(1, n_max + 1)) != 0.0).astype(float)
    return SeqWindow.from_product(a, a)


def members(indicator, checkpoints):
    """Prefix counts of the index set on which a 0/1 indicator window is 1."""
    return indicator.hit_counts([[(0.5, 1.5)]], checkpoints)[0]


def zeros(indicator, checkpoints):
    return indicator.hit_counts([[(-0.5, 0.5)]], checkpoints)[0]


def ref_matrix_counts(values, intervals, cps):
    """Reference counts of a materialized double window: the 2-d prefix table
    of its mask (two N x N int64 tables), read on its diagonal."""
    mask = np.zeros(values.shape, dtype=bool)
    for lo, hi in intervals:
        mask |= (values > lo) & (values < hi)
    return mask.cumsum(axis=0).cumsum(axis=1)[cps - 1, cps - 1]


# ---------------------------------------------------------------------------
# reference counting: the factor-form count as it was before its queries were
# taken once per distinct factor value and summed per checkpoint level; each
# strip sorts the other factor, and every index is its own query over a
# thresholds x N grid


def ref_factor_counts(u, v, op, unions, cps):
    levels, slot = np.unique(cps, return_inverse=True)
    size = int(levels[-1])
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
    per_index = ref_strip_counts(u[:size], level, v[:size], level, op, ends, sign_matrix)
    per_index += ref_strip_counts(v[:size], level - 1, u[:size], level, op, ends, sign_matrix)
    return np.cumsum(per_index, axis=1)[:, levels - 1][:, slot]


def ref_strip_counts(w, allowed, other, other_level, op, ends, signs):
    order = np.argsort(other)
    xs = other[order]
    n = xs.size
    top = np.arange(-1, int(other_level.max()) + 1)
    table = np.zeros((top.size, n + 1), dtype=np.int32)
    np.less_equal(other_level[order], top[:, None], out=table[:, 1:])
    np.cumsum(table, axis=1, out=table)
    padded = np.concatenate(([-np.inf], xs, [np.inf]))
    before, at = padded[:-1], padded[1:]
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


def density(indicator, checkpoints):
    return DensityEstimate.from_counts(checkpoints, members(indicator, checkpoints),
                                       indicator.dim)


def test_count_prefix_cos_zero_set():
    # 4x4 grid: only the 4 pairs with both indices even avoid the zero set
    assert zeros(nonzero_window(4), [4])[0] == 12


def test_count_prefix_empty_and_full():
    assert members(SeqWindow.from_product(np.zeros(100), np.zeros(100)), [100])[0] == 0
    ones = SeqWindow.from_sum(np.full(10, 0.25), np.full(10, 0.75))
    assert members(ones, [10])[0] == 100
    assert ref_matrix_counts(np.ones((10, 10)), [(0.5, 1.5)], np.array([10]))[0] == 100


def test_count_prefix_monotone_in_n():
    counts = zeros(nonzero_window(30), np.arange(1, 30))
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_density_evens():
    evens = SeqWindow.from_values_1d(np.arange(1, 1001) % 2 == 0)
    est = density(evens, np.arange(100, 1001, 60))
    assert est.lower_est == pytest.approx(0.5, abs=0.01)
    assert est.upper_est == pytest.approx(0.5, abs=0.01)


def test_density_cos_zero_set():
    cps = default_checkpoints(2000)
    est = DensityEstimate.from_counts(cps, zeros(nonzero_window(2000), cps), 2)
    assert est.lower_est == pytest.approx(0.75, abs=0.01)
    assert est.upper_est == pytest.approx(0.75, abs=0.01)


def test_density_finite_strip_is_null():
    rows = np.arange(1, 1501)
    strip = SeqWindow.from_product((rows <= 10).astype(float), np.ones(1500))
    est = density(strip, default_checkpoints(1500))
    assert est.upper_est <= 0.02


@pytest.mark.parametrize("index_set", [
    SeqWindow.from_values_1d(np.arange(1, 4001) % 2 == 0),
    nonzero_window(1500),
    SeqWindow.from_values_1d((np.arange(1, 4001) * 2654435761) % 97 < 31),
])
def test_complement_identity(index_set):
    assert complement_identity_check(index_set, default_checkpoints(index_set.n_max))


def test_exact_complementarity_counts():
    win = nonzero_window(311)
    cps = [7, 50, 311]
    assert np.array_equal(members(win, cps) + zeros(win, cps), np.square(cps))


def test_index_cos_product_to_zero():
    win = cos_product_window(2000)
    rep = index_to_target(win, Target.point(0.0), 0.1, default_checkpoints(2000))
    assert rep.estimate.lower_est == pytest.approx(0.75, abs=0.01)


def test_index_constant_sequence():
    win = SeqWindow.from_values_1d(np.full(500, 5.0))
    rep = index_to_target(win, Target.point(5.0), 1e-6, default_checkpoints(500))
    assert rep.estimate.lower_est == 1.0
    assert rep.estimate.upper_est == 1.0


def test_index_divergent_to_plus_infinity():
    # the reported estimate is the infimum over the cutoff grid; at a fixed
    # cutoff the hit set is cofinite, so the estimate tends to 1 as the
    # window grows and the cutoff-vs-window ratio shrinks
    win = SeqWindow.from_values_1d(np.arange(1, 5001, dtype=float))
    rep = index_to_target(win, Target.plus_infinity(), None,
                          default_checkpoints(5000), cutoffs=[10, 100, 1000])
    assert rep.cutoffs == (10.0, 100.0, 1000.0)
    small = index_to_target(win, Target.plus_infinity(), None,
                            default_checkpoints(5000), cutoffs=[10])
    assert small.estimate.lower_est >= 0.99
    # binding cutoff is the largest one; its head transient caps the estimate
    assert 0.45 <= rep.estimate.lower_est <= small.estimate.lower_est


def test_index_bounded_sequence_not_divergent():
    win = SeqWindow.from_values_1d(np.sin(np.arange(1, 2001, dtype=float)))
    rep = index_to_target(win, Target.plus_infinity(), None,
                          default_checkpoints(2000), cutoffs=[2.0])
    assert rep.estimate.upper_est == 0.0
    rep_minus = index_to_target(win, Target.minus_infinity(), None,
                                default_checkpoints(2000), cutoffs=[-2.0])
    assert rep_minus.estimate.upper_est == 0.0


def test_index_infinite_target_needs_cutoffs():
    win = SeqWindow.from_values_1d(np.arange(1, 101, dtype=float))
    with pytest.raises(ValueError):
        index_to_target(win, Target.plus_infinity(), None, default_checkpoints(100))


def test_index_requires_positive_epsilon():
    win = cos_product_window(200)
    with pytest.raises(ValueError):
        index_to_target(win, Target.point(0.0), 0.0, default_checkpoints(200))


def test_default_checkpoints_need_two_to_reach_the_window():
    """The grid runs from n_max / 8 up to n_max, so it needs at least two
    checkpoints: one would stop at n_max / 8, and none is empty."""
    assert default_checkpoints(1000, 2).tolist() == [125, 1000]
    for count in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2"):
            default_checkpoints(1000, count)


def test_index_checkpoint_must_fit_window():
    win = cos_product_window(100)
    with pytest.raises(ValueError):
        index_to_target(win, Target.point(0.0), 0.1, [50, 200])


def ten_value_windows():
    values = np.linspace(-1.0, 1.0, 10)
    return [SeqWindow.from_values_1d(values), SeqWindow.from_product(values, values),
            SeqWindow.from_sum(values, values)]


@pytest.mark.parametrize("checkpoints", [[0], [-1], [11], [12, 3], [3, 0, 5], []],
                         ids=["zero", "negative", "past-end", "unsorted-past-end",
                              "unsorted-zero", "none"])
def test_hit_counts_rejects_checkpoints_outside_the_window(checkpoints):
    # a check on the last checkpoint alone misses all but "past-end": 0
    # would read index -1, the whole 1-d window and 0 in the factor forms
    for win in ten_value_windows():
        with pytest.raises(ValueError, match=r"checkpoints must be .* in 1\.\.10"):
            win.hit_counts([[(-0.5, 0.5)]], checkpoints)


@pytest.mark.parametrize("checkpoints", [[2.9], [2.5], [1, 4.5, 7], [np.nan], [np.inf]],
                         ids=["2.9", "2.5", "among-integers", "nan", "inf"])
def test_hit_counts_rejects_non_integral_checkpoints(checkpoints):
    # a cast to int would count the first 2 indices for 2.9 and 2.5
    for win in ten_value_windows():
        with pytest.raises(ValueError, match=r"checkpoints must be .* in 1\.\.10"):
            win.hit_counts([[(-0.5, 0.5)]], checkpoints)


def test_hit_counts_accept_integral_checkpoints_of_any_dtype():
    for win in ten_value_windows():
        want = win.hit_counts([[(-0.5, 0.5)]], [3, 10])
        for cps in ([3.0, 10.0], np.array([3, 10], dtype=np.int32), np.array([3.0, 10.0])):
            assert np.array_equal(win.hit_counts([[(-0.5, 0.5)]], cps), want)


def test_hit_counts_take_checkpoints_in_any_order():
    for win in ten_value_windows():
        ordered = win.hit_counts([[(-0.5, 0.5)]], [1, 3, 7, 10])[0]
        assert np.array_equal(win.hit_counts([[(-0.5, 0.5)]], [10, 3, 7, 3, 1])[0],
                              ordered[[3, 1, 2, 1, 0]])


def test_epsilon_monotonicity():
    win = cos_product_window(800)
    cps = default_checkpoints(800)
    target = Target.point(1.0)
    small = win.hit_counts([target.dilated(0.05)], cps)[0]
    large = win.hit_counts([target.dilated(0.4)], cps)[0]
    assert np.all(small <= large)


def test_sum_rule_cos_product():
    win = cos_product_window(2000)
    targets = [Target.point(0.0), Target.point(1.0), Target.point(-1.0)]
    assert sum_rule_check(win, targets, 0.1, 0.02)


def test_sum_rule_constant():
    win = SeqWindow.from_values_1d(np.full(400, 5.0))
    assert sum_rule_check(win, [Target.point(5.0), Target.point(7.0)], 0.5, 0.0)


def test_sum_rule_rotation_product_intervals():
    n = np.arange(1, 1001)
    u = (n * (np.sqrt(2.0) - 1.0)) % 1.0
    v = (n * ((np.sqrt(5.0) - 1.0) / 2.0)) % 1.0
    win = SeqWindow.from_product(u, v)
    targets = [Target.interval_union([(0.0, 0.2)]), Target.interval_union([(0.5, 0.7)])]
    assert sum_rule_check(win, targets, 0.02, 0.02)


def test_sum_rule_rejects_overlapping_dilations():
    win = cos_product_window(200)
    with pytest.raises(ValueError):
        sum_rule_check(win, [Target.point(0.0), Target.point(0.3)], 0.2, 0.02)


def test_product_counts_match_materialized_matrix():
    rng = np.random.default_rng(7)
    u = rng.normal(size=150)
    v = rng.normal(size=150)
    win = SeqWindow.from_product(u, v)
    cps = default_checkpoints(150)
    for lo, hi in [(-0.4, 0.3), (0.0, 2.0), (-3.0, -0.1)]:
        got = win.hit_counts([[(lo, hi)]], cps)[0]
        assert np.array_equal(got, ref_matrix_counts(u[:, None] * v[None, :], [(lo, hi)], cps))


def test_product_counts_handle_zero_factors():
    u = np.array([0.0, 1.0, -1.0, 0.0])
    v = np.array([2.0, 0.5, -0.5, 0.0])
    win = SeqWindow.from_product(u, v)
    cps = np.array([2, 4])
    for iv in [(-0.1, 0.1), (0.4, 0.6), (-2.5, 2.5)]:
        assert np.array_equal(win.hit_counts([[iv]], cps)[0],
                              ref_matrix_counts(u[:, None] * v[None, :], [iv], cps))


FACTOR = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-4.0, 4.0))
INFINITE = st.sampled_from([-np.inf, np.inf])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_product_counts_match_materialized_matrix_property(data):
    # interval ends drawn from the products themselves tie with some
    # u[n]*v[m], where a division by u[n] may round to either side; the
    # infinite ends are those of the +-inf targets' cutoff intervals
    n = data.draw(st.integers(1, 12), label="n")
    u = np.array(data.draw(st.lists(FACTOR, min_size=n, max_size=n), label="u"))
    v = np.array(data.draw(st.lists(FACTOR, min_size=n, max_size=n), label="v"))
    products = (u[:, None] * v[None, :]).ravel().tolist()
    end = st.one_of(st.sampled_from(products), st.floats(-20.0, 20.0), INFINITE)
    ends = sorted(data.draw(st.lists(end, min_size=2, max_size=8), label="ends"))
    intervals = list(zip(ends[::2], ends[1::2]))
    win = SeqWindow.from_product(u, v)
    cps = np.arange(1, n + 1)
    assert np.array_equal(win.hit_counts([intervals], cps)[0],
                          ref_matrix_counts(u[:, None] * v[None, :], intervals, cps))


def test_product_counts_at_a_product_tie():
    # 5.266044227959522 is the double u*v; the quotient by u rounds above v,
    # so a count by division alone takes the pair into the open interval
    u = np.array([3.829850347606925])
    v = np.array([1.375])
    win = SeqWindow.from_product(u, v)
    ends = (0.0, float(u[0] * v[0]))
    assert win.hit_counts([[ends]], [1])[0, 0] == 0
    assert ref_matrix_counts(u[:, None] * v[None, :], [ends], np.array([1]))[0] == 0
    # an empty open interval at a product counts nothing, not minus one
    single = SeqWindow.from_product(np.array([1.0]), np.array([0.5]))
    assert single.hit_counts([[(0.5, 0.5)]], [1])[0, 0] == 0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sum_counts_match_materialized_matrix_property(data):
    # ends drawn from the sums themselves tie with some u[n]+v[m], where
    # the difference t - u[n] may round to either side; the infinite ends
    # are those of the +-inf targets' cutoff intervals
    n = data.draw(st.integers(1, 8), label="n")
    u = np.array(data.draw(st.lists(FACTOR, min_size=n, max_size=n), label="u"))
    v = np.array(data.draw(st.lists(FACTOR, min_size=n, max_size=n), label="v"))
    sums = u[:, None] + v[None, :]
    end = st.one_of(st.sampled_from(sums.ravel().tolist()), st.floats(-20.0, 20.0), INFINITE)
    ends = sorted(data.draw(st.lists(end, min_size=2, max_size=8), label="ends"))
    intervals = list(zip(ends[::2], ends[1::2]))
    cps = np.array(data.draw(st.lists(st.integers(1, n), min_size=1, max_size=6),
                             label="checkpoints"))
    got = SeqWindow.from_sum(u, v).hit_counts([intervals], cps)[0]
    assert got.dtype == np.int64
    assert np.array_equal(got, ref_matrix_counts(sums, intervals, cps))


def test_sum_counts_match_materialized_matrix_at_default_checkpoints():
    u, v = np.random.default_rng(11).normal(size=(2, 300))
    cps = default_checkpoints(300)
    for intervals in ([(-0.4, 0.3)], [(-np.inf, -1.0), (0.5, np.inf)], [(2.0, 1.0)]):
        got = SeqWindow.from_sum(u, v).hit_counts([intervals], cps)[0]
        assert np.array_equal(got, ref_matrix_counts(u[:, None] + v[None, :], intervals, cps))


def test_sum_counts_at_a_sum_tie():
    # 2.308 is the double u+v, but 2.308 - u rounds below v, so a count by
    # the difference alone takes the pair into the open interval above it
    u, v = np.array([2.198]), np.array([0.11])
    ends = (float(u[0] + v[0]), 5.0)
    assert SeqWindow.from_sum(u, v).hit_counts([[ends]], [1])[0, 0] == 0
    assert ref_matrix_counts(u[:, None] + v[None, :], [ends], np.array([1]))[0] == 0


@settings(max_examples=300, deadline=None)
@given(data=st.data(), op=st.sampled_from([np.multiply, np.add]))
def test_batched_counts_match_materialized_matrix_property(data, op):
    # several unions in one call share the thresholds and the level tables;
    # intervals are drawn from a small pool of ends, so they overlap, touch
    # or come out empty (lo >= hi), and the pool holds entries of the
    # matrix (ties), infinities and the ends of other unions
    n = data.draw(st.integers(1, 10), label="n")
    u = np.array(data.draw(st.lists(FACTOR, min_size=n, max_size=n), label="u"))
    v = np.array(data.draw(st.lists(FACTOR, min_size=n, max_size=n), label="v"))
    values = op.outer(u, v)
    end = st.one_of(st.sampled_from(values.ravel().tolist()), st.floats(-20.0, 20.0), INFINITE)
    pool = data.draw(st.lists(end, min_size=1, max_size=6), label="pool")
    interval = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
    unions = data.draw(st.lists(st.lists(interval, max_size=4), min_size=1, max_size=5),
                       label="unions")
    cps = np.array(data.draw(st.lists(st.integers(1, n), min_size=1, max_size=6),
                             label="checkpoints"))
    win = SeqWindow._from_factors(u, v, op)
    got = win.hit_counts(unions, cps)
    assert got.shape == (len(unions), cps.size) and got.dtype == np.int64
    for row, union in zip(got, unions):
        assert np.array_equal(row, ref_matrix_counts(values, union, cps))


def test_batched_counts_of_a_1d_window_are_one_row_per_union():
    values = np.linspace(-1.0, 1.0, 21)
    win = SeqWindow.from_values_1d(values)
    unions = [[(-0.5, 0.5)], [], [(0.0, np.inf), (-0.2, 0.1)], [(0.3, 0.3)]]
    cps = [21, 4, 10, 4]
    got = win.hit_counts(unions, cps)
    assert got.shape == (4, 4) and got.dtype == np.int64
    for row, union in zip(got, unions):
        mask = np.zeros(values.shape, dtype=bool)
        for lo, hi in union:
            mask |= (values > lo) & (values < hi)
        assert np.array_equal(row, [np.count_nonzero(mask[:cp]) for cp in cps])


def test_batched_counts_keep_peak_memory_of_one_union():
    """Five unions counted in one call need no more memory than one: the
    strips run one after the other, one level table at a time, and the
    unions share it.  At 10 000 checkpoints every index from 375 to 3000
    is its own level, so the table (16 MB of uint16, the narrowest type that
    counts to 3000) is as large as it gets at N = 3000."""
    import tracemalloc

    u, v = np.random.default_rng(5).normal(size=(2, 3000))
    win = SeqWindow.from_product(u, v)
    cps = default_checkpoints(3000, 10_000)
    peaks = []
    for unions in ([[(-0.5, 0.5)]], [[(k / 4 - 0.5, k / 4)] for k in range(5)]):
        tracemalloc.start()
        try:
            win.hit_counts(unions, cps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    table = (len(cps) + 2) * (3000 + 1) * np.min_scalar_type(3000).itemsize
    assert peaks[0] <= 1.5 * table  # one level table alive, and no buffered copy
    assert peaks[1] <= 1.1 * peaks[0]


# the four 2-d windows of the benchmark's warm-index workload at seed 0
WARM_WINDOWS = {
    "lagrange2d 1/3 x 1/2": ("lagrange2d", PointSpec.rational(1, 3), PointSpec.rational(1, 2)),
    "lagrange2d 1/3 x golden_frac": ("lagrange2d", PointSpec.rational(1, 3),
                                     PointSpec.irrational("golden_frac")),
    "shepard2d 1/2 x 1/3": ("shepard2d", PointSpec.rational(1, 2), PointSpec.rational(1, 3)),
    "shepard2d 1/2 x inv_sqrt2": ("shepard2d", PointSpec.rational(1, 2),
                                  PointSpec.irrational("inv_sqrt2")),
}
# each factor negated sends the queries through the negative-factor suffix
# counts; u - 0.5 mixes signs within one factor
FACTOR_VARIANTS = {
    "product": (np.multiply, lambda u, v: (u, v)),
    "-u": (np.multiply, lambda u, v: (-u, v)),
    "-v": (np.multiply, lambda u, v: (u, -v)),
    "u - 0.5": (np.multiply, lambda u, v: (u - 0.5, v)),
    "sum": (np.add, lambda u, v: (u, v)),
}


@pytest.fixture(scope="module")
def warm_windows():
    """Each window's factors at N = 3000, and the unions the harness counts
    on it: its prediction rows and the residual union, at the automatic eps."""
    out = {}
    for name, (operator, spec_x, spec_y) in WARM_WINDOWS.items():
        spec = ExperimentSpec(operator=operator, spec_x=spec_x, spec_y=spec_y, window=3000)
        win = generate_window(spec)
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            count = SeqWindow.hit_counts
            mp.setattr(SeqWindow, "hit_counts",
                       lambda self, unions, cps: seen.append(unions) or count(self, unions, cps))
            run_index_experiment(spec, window=win)
        (unions,) = seen
        out[name] = win.factors, unions
    return out


@pytest.mark.parametrize("variant", FACTOR_VARIANTS)
@pytest.mark.parametrize("name", WARM_WINDOWS)
def test_factor_counts_equal_the_reference_on_warm_windows(warm_windows, name, variant):
    (u, v), unions = warm_windows[name]
    op, make = FACTOR_VARIANTS[variant]
    x, y = make(u, v)
    win = SeqWindow._from_factors(x, y, op)
    for count in (16, 32, 64):
        cps = default_checkpoints(3000, count)
        got = win.hit_counts(unions, cps)
        assert got.dtype == np.int64
        assert np.array_equal(got, ref_factor_counts(x, y, op, unions, cps))


# factors drawn from a small pool repeat their values within a checkpoint
# level and across levels, so many indices share one distinct value's query
REPEATED = [0.0, -0.0, 0.5, -0.5, 1.0 / 3.0, 1.0]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), op=st.sampled_from([np.multiply, np.add]))
def test_counts_of_repeated_factor_values_match_materialized_matrix_property(data, op):
    extra = data.draw(st.lists(st.floats(-4.0, 4.0), max_size=3), label="extra")
    factor = st.sampled_from(REPEATED + extra)
    n = data.draw(st.integers(1, 64), label="n")
    u = np.array(data.draw(st.lists(factor, min_size=n, max_size=n), label="u"))
    v = np.array(data.draw(st.lists(factor, min_size=n, max_size=n), label="v"))
    values = op.outer(u, v)
    end = st.one_of(st.sampled_from(values.ravel().tolist()), st.sampled_from(REPEATED),
                    st.floats(-20.0, 20.0), INFINITE)
    pool = data.draw(st.lists(end, min_size=1, max_size=6), label="pool")
    interval = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
    unions = data.draw(st.lists(st.lists(interval, min_size=1, max_size=3),
                                min_size=1, max_size=4), label="unions")
    cps = np.array(data.draw(st.lists(st.integers(1, n), min_size=1, max_size=64),
                             label="checkpoints"))
    got = SeqWindow._from_factors(u, v, op).hit_counts(unions, cps)
    assert got.shape == (len(unions), cps.size) and got.dtype == np.int64
    for row, union in zip(got, unions):
        assert np.array_equal(row, ref_matrix_counts(values, union, cps))


def traced_peak(count, *args):
    tracemalloc.start()
    try:
        count(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("op", [np.multiply, np.add])
@pytest.mark.parametrize("checkpoints", [16, 64])
def test_counts_keep_peak_memory_within_four_threshold_arrays(op, checkpoints):
    """Twelve one-interval unions with distinct ends make 24 thresholds.  The
    tie search holds a few thresholds x (distinct values) arrays, and the
    lookups stay in the level table's narrow type until they are summed per
    level, so the peak, level table included, stays below four thresholds x
    N int64 arrays.  The reference count peaks at 4.4 to 6.4 of them."""
    u, v = np.random.default_rng(5).normal(size=(2, 3000))
    unions = [[(k / 4 - 1.5, k / 4 - 1.4)] for k in range(12)]
    cps = default_checkpoints(3000, checkpoints)
    win = SeqWindow._from_factors(u, v, op)
    peak = traced_peak(win.hit_counts, unions, cps)
    assert peak <= 4 * 24 * 3000 * 8
    assert peak <= traced_peak(ref_factor_counts, u, v, op, unions, cps)


def test_target_validation():
    with pytest.raises(ValueError):
        Target.interval_union([(0.0, 0.5), (0.4, 0.8)])
    with pytest.raises(ValueError):
        Target.interval_union([(0.5, 0.2)])
    # NaN values and ends are rejected, infinite ends keep their meaning
    with pytest.raises(ValueError, match="NaN"):
        Target.point(float("nan"))
    for iv in [(0.2, float("nan")), (float("nan"), 0.5)]:
        with pytest.raises(ValueError, match="NaN"):
            Target.interval_union([iv])
    assert Target.interval_union([(0.2, float("inf"))]).intervals == ((0.2, float("inf")),)
    t = Target.interval_union([(0.0, 0.2), (0.3, 0.5)])
    dil = t.dilated(0.04)
    assert len(dil) == 2
    assert dil[0] == pytest.approx((-0.04, 0.24))
    assert dil[1] == pytest.approx((0.26, 0.54))
    # dilation merges once the gap closes
    merged = t.dilated(0.06)
    assert len(merged) == 1
    assert merged[0] == pytest.approx((-0.06, 0.56))


def test_index_set_listing():
    primes = SeqWindow.from_values_1d(np.isin(np.arange(1, 11), [2, 3, 5, 7, 11]))
    assert members(primes, [10])[0] == 4
    rows, cols = np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0])
    pairs = SeqWindow.from_product(rows, cols)
    assert members(pairs, [3])[0] == 4
    assert np.array_equal(members(pairs, [1, 2, 3]),
                          ref_matrix_counts(np.outer(rows, cols), [(0.5, 1.5)], np.arange(1, 4)))
