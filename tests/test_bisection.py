"""Bit-identity of the shared-midpoint bisection and the blocked series kernels.

The reference functions below are the code these replaced: series kernels
that build the whole (points x terms) table at once, a bisection that
evaluates the profile at every bracket midpoint, and preimage measures that
bisect each interval end on its own.  The fast paths must give the same IEEE
doubles, so arrays are compared with `.tobytes()` and measures with `==`.
The Lagrange and Shepard profiles also carry an Euler-Maclaurin screen; the
reference bisection never looks at it.  The bisection certifies guards around
each root from the screen, sends the midpoints outside them the way the
series would, and evaluates the series at every midpoint between them;
`runs_invert_monotone` is an older screened bisection, which decides steps on
the screen at every level and asks the series only within the margin of y.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conidx import profiles
from conidx.harness import ExperimentSpec, build_table
from conidx.points import PointSpec
from conidx.profiles import (
    BISECT_TOL,
    SCREEN_ETA,
    SERIES_TOL,
    Profile1D,
    Profile2D,
    hurwitz_zeta,
    invert_monotone,
    lagrange_jump_profile,
    lerch_j1,
    preimage_measure_1d,
    preimage_measure_2d,
)

# the interval targets of the benchmark's irrational corners
TARGETS_CORNER = [(0.05, 0.15), (0.3, 0.45), (0.6, 0.8)]
BISECT_STEPS = int(math.ceil(math.log2(1.0 / BISECT_TOL))) + 2

# ---------------------------------------------------------------------------
# reference code


def ref_lerch_j1(a, abs_tol=SERIES_TOL):
    a_arr = np.asarray(a, dtype=float)
    M = int(math.ceil(0.5 * (0.27 / abs_tol) ** 0.2)) + 8
    k = np.arange(M, dtype=float)
    base = 2.0 * k + a_arr[..., None]
    partial = (1.0 / (base * (base + 1.0))).sum(axis=-1)
    x = 2.0 * M + a_arr
    integral = 0.5 * np.log1p(1.0 / x)
    t_m = 1.0 / (x * (x + 1.0))
    tp_m = -2.0 * (x**-2 - (x + 1.0) ** -2)
    out = partial + integral + 0.5 * t_m - tp_m / 12.0
    return float(out) if out.ndim == 0 else out


def ref_hurwitz_zeta(s, a, abs_tol=SERIES_TOL):
    s = float(s)
    a_arr = np.asarray(a, dtype=float)
    coeff = s * (s + 1.0) * (s + 2.0) / 720.0
    M = int(math.ceil((coeff / abs_tol) ** (1.0 / (s + 3.0)))) + 8
    n = np.arange(M, dtype=float)
    partial = ((n + a_arr[..., None]) ** -s).sum(axis=-1)
    x = M + a_arr
    tail = x ** (1.0 - s) / (s - 1.0) + 0.5 * x**-s + s / 12.0 * x ** (-s - 1.0)
    out = partial + tail
    return float(out) if out.ndim == 0 else out


def ref_invert_monotone(profile, y, tol=BISECT_TOL):
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    lo = np.zeros_like(y_arr)
    hi = np.full_like(y_arr, 1.0 - 1e-15)
    steps = int(math.ceil(math.log2(1.0 / tol))) + 2
    sign = 1.0 if profile.decreasing else -1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        go_right = sign * (np.asarray(profile.fn(mid)) - y_arr) > 0.0
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    out = 0.5 * (lo + hi)
    return float(out[0]) if np.ndim(y) == 0 else out


def runs_invert_monotone(profile, y, tol=BISECT_TOL):
    """The screened bisection without guards: each level evaluates the screen
    once per run of equal midpoints in y order, and the series on the runs
    whose screen value lies within the margin of a y or is not finite."""
    y_in = np.atleast_1d(np.asarray(y, dtype=float)).ravel()
    order = np.argsort(y_in, kind="stable")
    y_arr = y_in[order]
    lo, hi = np.zeros(y_arr.size), np.full(y_arr.size, 1.0 - 1e-15)
    right = np.greater if profile.decreasing else np.less
    margin = 10.0 * SERIES_TOL
    for _ in range(int(math.ceil(math.log2(1.0 / tol))) + 2):
        mid = 0.5 * (lo + hi)
        new = np.concatenate([[True], mid[1:] != mid[:-1]])
        distinct = mid[new]
        vals = np.asarray(profile.screen(distinct), dtype=float)
        slot = np.cumsum(new) - 1
        at_mid = vals[slot]
        unsure = ~(np.isfinite(at_mid) & (np.abs(at_mid - y_arr) > margin))
        if unsure.any():
            need = np.zeros(vals.shape, dtype=bool)
            need[slot[unsure]] = True
            vals[need] = profile.fn(distinct[need])
            at_mid[unsure] = vals[slot[unsure]]
        go_right = right(at_mid, y_arr)
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    out = np.empty(y_arr.size)
    out[order] = 0.5 * (lo + hi)
    return float(out[0]) if np.ndim(y) == 0 else out.reshape(np.shape(y))


def ref_preimage_measure_1d(profile, intervals, tol=BISECT_TOL):
    total = 0.0
    for a, b in sorted((float(a), float(b)) for a, b in intervals):
        if profile.decreasing:
            x_lo, x_hi = ref_invert_monotone(profile, b, tol), ref_invert_monotone(profile, a, tol)
        else:
            x_lo, x_hi = ref_invert_monotone(profile, a, tol), ref_invert_monotone(profile, b, tol)
        total += max(0.0, x_hi - x_lo)
    return total


def ref_preimage_measure_2d(profile, intervals, tol=BISECT_TOL, slices=4096):
    xs = (np.arange(slices) + 0.5) / slices
    cx = np.asarray(profile.fx(xs), dtype=float)
    total = 0.0
    for a, b in sorted((float(a), float(b)) for a, b in intervals):
        lo_y = np.asarray(a, dtype=float) / cx
        hi_y = np.asarray(b, dtype=float) / cx
        if profile.fy.decreasing:
            y_lo = ref_invert_monotone(profile.fy, hi_y, tol)
            y_hi = ref_invert_monotone(profile.fy, lo_y, tol)
        else:
            y_lo = ref_invert_monotone(profile.fy, lo_y, tol)
            y_hi = ref_invert_monotone(profile.fy, hi_y, tol)
        total += float(np.maximum(0.0, y_hi - y_lo).sum()) / slices
    return total


@pytest.fixture
def ref_kernels(monkeypatch):
    """Inside the test, `ref_kernels()` swaps the reference series kernels in
    under the profiles, and `ref_kernels.undo()` swaps the new ones back."""

    class Swap:
        def __call__(self):
            monkeypatch.setattr(profiles, "lerch_j1", ref_lerch_j1)
            monkeypatch.setattr(profiles, "hurwitz_zeta", ref_hurwitz_zeta)

        def undo(self):
            monkeypatch.undo()

    return Swap()


def affine_profile(left, right):
    """left + (right - left) * profile(x): right at x = 0, tending to left."""
    return Profile1D(fn=lambda x: left + (right - left) * lagrange_jump_profile(x),
                     kind=f"affine({left:g},{right:g})", value_at_0=right, limit_at_1=left)


def endpoints(profile):
    """The profile's declared endpoint values, in increasing order."""
    return sorted((profile.value_at_0, profile.limit_at_1))


PROFILES = {
    "lagrange": Profile1D.lagrange(),
    "shepard1.5": Profile1D.shepard(1.5),
    "shepard2": Profile1D.shepard(2.0),
    "shepard3": Profile1D.shepard(3.0),
    "affine-up": affine_profile(1.0, -1.0),
    "affine-down": affine_profile(2.0, 4.0),
    "identity": Profile1D.identity(),
}


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# series kernels


KERNEL_POINTS = {
    "scalar": 0.37,
    "one": np.array([1.0]),
    "few": np.array([1e-6, 0.5, 1.0, 0.25, 0.999999]),
    "across-blocks": np.random.default_rng(3).uniform(1e-9, 1.0, 5000),
    "2-d": np.random.default_rng(4).uniform(1e-9, 1.0, (3, 700)),
    "empty": np.zeros(0),
}


@pytest.mark.parametrize("points", KERNEL_POINTS.values(), ids=KERNEL_POINTS.keys())
@pytest.mark.parametrize("abs_tol", [SERIES_TOL, 1e-8], ids=["1e-12", "1e-8"])
def test_series_kernels_bit_identical(points, abs_tol, monkeypatch):
    # the kernels size their series from the module's budget at call time
    monkeypatch.setattr(profiles, "SERIES_TOL", abs_tol)
    assert same_bits(lerch_j1(points), ref_lerch_j1(points, abs_tol))
    for s in (1.5, 2.0, 3.0):
        # the shift keeps a > 0 and covers the a > 1 arguments a profile never uses
        for a in (points, np.asarray(points) + 1.5):
            assert same_bits(hurwitz_zeta(s, a), ref_hurwitz_zeta(s, a, abs_tol))
    assert isinstance(lerch_j1(points), float) == (np.ndim(points) == 0)


# ---------------------------------------------------------------------------
# bisection


def sample_ys(profile):
    lo, hi = endpoints(profile)
    span = hi - lo
    inside = lo + span * np.linspace(0.0, 1.0, 257)
    outside = np.array([lo - span, lo - 1e-12, hi + 1e-12, hi + 2.0 * span])
    return np.concatenate([inside, outside, inside[::7], outside, [lo, hi, lo, hi]])


@pytest.mark.parametrize("name", PROFILES)
def test_invert_monotone_bit_identical(name):
    prof = PROFILES[name]
    ys = sample_ys(prof)
    assert same_bits(invert_monotone(prof, ys), ref_invert_monotone(prof, ys))
    assert same_bits(invert_monotone(prof, ys[::-1]), ref_invert_monotone(prof, ys[::-1]))
    assert same_bits(invert_monotone(prof, np.sort(ys)), ref_invert_monotone(prof, np.sort(ys)))


@pytest.mark.parametrize("name", PROFILES)
def test_invert_monotone_scalar_bit_identical(name):
    prof = PROFILES[name]
    lo, hi = endpoints(prof)
    for y in (lo + 0.3 * (hi - lo), lo - 1.0, hi + 1.0, lo, hi):
        got = invert_monotone(prof, y)
        assert isinstance(got, float)
        assert got == ref_invert_monotone(prof, y)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(PROFILES)),
       fractions=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=48),
       order=st.sampled_from(["as drawn", "ascending", "descending"]))
def test_invert_monotone_bit_identical_sweep(name, fractions, order):
    prof = PROFILES[name]
    lo, hi = endpoints(prof)
    ys = lo + (hi - lo) * np.array(fractions)
    if order != "as drawn":
        ys = np.sort(ys) if order == "ascending" else np.sort(ys)[::-1]
    assert same_bits(invert_monotone(prof, ys), ref_invert_monotone(prof, ys))


# ---------------------------------------------------------------------------
# the screen: its margin, and the bits of screened bisection

MARGIN = 10.0 * SERIES_TOL
# every midpoint the bisection can reach: down to (1 - 1e-15) / 2**36 at 0,
# up to the bracket's end 1 - 1e-15
SCREEN_GRID = np.unique(np.concatenate([
    np.geomspace(1.4e-11, 0.5, 20_000), 1.0 - np.geomspace(1e-15, 0.5, 20_000),
    np.linspace(0.0, 1.0, 20_001)[1:-1]]))
SCREENED = [None, 1.0001, 1.01, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0]


def jump_profile(s):
    """Profile1D.lagrange() for s None, else Profile1D.shepard(s)."""
    return Profile1D.lagrange() if s is None else Profile1D.shepard(s)


@pytest.mark.parametrize("s", SCREENED, ids=lambda s: "lagrange" if s is None else f"s={s:g}")
def test_screen_stays_within_a_tenth_of_the_margin(s):
    prof = jump_profile(s)
    exact, screen = prof.fn(SCREEN_GRID), prof.screen(SCREEN_GRID)
    finite = np.isfinite(exact)
    assert np.array_equal(finite, np.isfinite(screen))
    assert np.max(np.abs(exact - screen)[finite]) <= MARGIN / 10.0


@pytest.mark.parametrize("s", SCREENED, ids=lambda s: "lagrange" if s is None else f"s={s:g}")
def test_screen_never_steps_the_wrong_way_by_more_than_eta(s):
    """The guards' premise: the profiles decrease, and the screen at no grid
    point exceeds its value at any point left of it by more than SCREEN_ETA
    (at most 1.1e-16 here)."""
    screen = jump_profile(s).screen(SCREEN_GRID)
    lowest_so_far = np.minimum.accumulate(screen)
    assert np.max(screen[1:] - lowest_so_far[:-1]) <= SCREEN_ETA


@pytest.mark.parametrize("bump", [5e-13, 5e-14])
def test_screen_that_steps_the_wrong_way_is_rejected(bump):
    """A screen within the margin of fn that rises by more than SCREEN_ETA
    on the saturated run of Shepard s = 100 would give wrong guards:
    invert_monotone refuses it, and keeps the series-only roots below."""
    base = Profile1D.shepard(100.0)
    prof = dataclasses.replace(base, screen=lambda x: base.screen(x) + bump * (x > 0.01))
    y = np.linspace(-0.1, 1.1, 257)
    if bump > SCREEN_ETA:
        with pytest.raises(ValueError, match="wrong way"):
            invert_monotone(prof, y)
    else:
        assert invert_monotone(prof, y).tobytes() == ref_invert_monotone(base, y).tobytes()


@settings(max_examples=40, deadline=None)
@given(s=st.one_of(st.none(), st.floats(1.01, 10.0)),
       xs=st.lists(st.floats(1.4e-11, 1.0 - 1e-15), min_size=1, max_size=16),
       ulps=st.lists(st.integers(-4, 4), min_size=16, max_size=16),
       shifts=st.lists(st.floats(-1e-11, 1e-11), min_size=16, max_size=16))
def test_screened_bisection_bit_identical_near_roots(s, xs, ulps, shifts):
    """y within a few ulps to 1e-11 of a profile value, so the steps near the
    root fall inside the margin and go to the series."""
    prof = jump_profile(s)
    exact = np.asarray(prof.fn(np.array(xs)))
    k = len(xs)
    ys = exact + np.array(ulps[:k]) * np.spacing(exact) + np.array(shifts[:k])
    assert same_bits(invert_monotone(prof, ys), ref_invert_monotone(prof, ys))


def screened_affine(left, right):
    """affine_profile(left, right) with the Lagrange screen under the same map,
    so a screened profile that increases when right < left."""
    prof = affine_profile(left, right)
    return Profile1D(fn=prof.fn, kind=f"screened {prof.kind}", value_at_0=right,
                     limit_at_1=left,
                     screen=lambda x: left + (right - left) * profiles._lagrange_screen(x))


CERTIFIED = {
    "lagrange": PROFILES["lagrange"],
    "affine-up": PROFILES["affine-up"],
    "affine-down": PROFILES["affine-down"],
    "identity": PROFILES["identity"],
    "screened-affine-up": screened_affine(1.0, -1.0),
}


@settings(max_examples=30, deadline=None)
@given(name=st.one_of(st.sampled_from(sorted(CERTIFIED)), st.floats(1.01, 100.0)),
       seed=st.integers(0, 2**32 - 1),
       slices=st.integers(64, 1024),
       ends=st.lists(st.floats(-0.2, 1.2), min_size=2, max_size=2),
       order=st.sampled_from(["shuffled", "ascending", "descending"]))
def test_certified_bisection_bit_identical(name, seed, slices, ends, order):
    """The guarded bisection against the series-only reference on corner
    traffic (both ends of an interval over the Lagrange factor on a random
    slice grid: thousands of targets, so the guards are certified), targets
    a few ulps up to 1e-11 from a profile value, clamped targets, the
    infinities and duplicates, in any order.  A float name is a Shepard s."""
    prof = CERTIFIED[name] if isinstance(name, str) else Profile1D.shepard(name)
    rng = np.random.default_rng(seed)
    lo, hi = endpoints(prof)
    cx = lagrange_jump_profile(rng.uniform(0.0, 1.0, slices))
    traffic = ((lo + (hi - lo) * np.array(ends))[:, None] / cx).ravel()
    exact = np.asarray(prof.fn(rng.uniform(1.4e-11, 1.0 - 1e-15, 24)))
    near = np.concatenate([
        exact[:12] + rng.integers(-4, 5, 12) * np.spacing(exact[:12]),
        exact[12:] + rng.choice([-1.0, 1.0], 12) * 10.0 ** rng.uniform(-16.0, -11.0, 12)])
    clamped = [lo - 1.0, lo - 1e-11, lo - 1e-12, lo, hi, hi + 1e-12, hi + 1e-11, hi + 1.0]
    ys = np.concatenate([traffic, near, clamped, [np.inf, -np.inf]])
    ys = np.concatenate([ys, ys[rng.integers(0, ys.size, 32)]])
    ys = {"shuffled": rng.permutation(ys), "ascending": np.sort(ys),
          "descending": np.sort(ys)[::-1]}[order]
    assert same_bits(invert_monotone(prof, ys), ref_invert_monotone(prof, ys))


def recording(profile, log):
    """profile with its fn and screen appending (name, points) to log per call."""

    def record(name, kernel):
        def fn(x):
            log.append((name, np.array(x, dtype=float)))
            return kernel(x)
        return fn

    rec = Profile1D(fn=record("fn", profile.fn), kind=profile.kind,
                    value_at_0=profile.value_at_0, limit_at_1=profile.limit_at_1,
                    screen=profile.screen and record("screen", profile.screen))
    log.clear()  # the monotonicity check at construction
    return rec


def corner_traffic(fac):
    """The y values one corner target sends to the bisection: both ends of
    [0.3, 0.45] over the factor on the 4096-slice grid, then every 97th of
    them again and the infinities."""
    cx = fac((np.arange(4096) + 0.5) / 4096)
    ys = (np.array([0.3, 0.45])[:, None] / cx).ravel()
    return np.concatenate([ys, ys[::97], [np.inf, -np.inf, np.inf]])


def bisection_midpoints(roots):
    """Every level's bracket midpoints of the bisection that ends at roots: a
    step goes right exactly when the root lies right of its midpoint."""
    lo, hi = np.zeros(roots.size), np.full(roots.size, 1.0 - 1e-15)
    levels = []
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        levels.append(mid)
        right = roots > mid
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    assert same_bits(0.5 * (lo + hi), roots)
    return levels


def check_series_between_guards(calls, profile, ys, roots):
    """The calls of one invert_monotone(profile, ys) that returned roots: the
    screen only before the level loop, for its table and the guard search
    (at most 1 + 7 calls per _GUARD_BLOCK targets), then the series once per
    level at each target's midpoints strictly between its guards, in target
    order, and at no other point."""
    g_lo, g_hi = 0.0, 1.0
    if profile.screen is not None:
        top = 1.0 - 1e-15
        g_lo, g_hi = profiles._screen_guards(profile, ys, (top * 0.5**BISECT_STEPS, top),
                                             MARGIN)
    want = [mid[(mid > g_lo) & (mid < g_hi)] for mid in bisection_midpoints(roots)]
    names = [name for name, _ in calls]
    assert "screen" not in names[names.index("fn"):]
    assert names.count("screen") <= 1 + 7 * -(-ys.size // profiles._GUARD_BLOCK)
    series = [pts for name, pts in calls if name == "fn"]
    want = [pts for pts in want if pts.size]
    assert len(series) == len(want)
    assert all(same_bits(got, pts) for got, pts in zip(series, want))


@pytest.mark.parametrize("s", [None, 2.0], ids=["lagrange", "shepard2"])
def test_corner_traffic_bit_identical_with_series_between_guards(s):
    """Clamped runs (y > 1 where the factor is below 0.45), exact duplicates
    away from their first copies and both infinities: the roots keep their
    bits, the screen only places the guards, and the series decides every
    midpoint between them."""
    fac = jump_profile(s)
    ys = corner_traffic(fac)
    assert np.sum(ys > 1.0) > 1000 and np.unique(ys).size < ys.size
    log = []
    got = invert_monotone(recording(fac, log), ys)
    assert same_bits(got, ref_invert_monotone(fac, ys))
    assert same_bits(got, runs_invert_monotone(fac, ys))
    check_series_between_guards(log, fac, ys, got)


# ---------------------------------------------------------------------------
# preimage measures


@pytest.mark.parametrize("s", [None, 2.0], ids=["lagrange", "shepard2"])
def test_preimage_measure_2d_bit_identical(s, ref_kernels):
    fac = Profile1D.lagrange() if s is None else Profile1D.shepard(s)
    prof = Profile2D(fac, fac)
    ref_kernels()
    want = [ref_preimage_measure_2d(prof, [iv]) for iv in TARGETS_CORNER]
    want_union = ref_preimage_measure_2d(prof, TARGETS_CORNER, slices=512)
    ref_kernels.undo()
    assert [preimage_measure_2d(prof, [iv]) for iv in TARGETS_CORNER] == want
    assert preimage_measure_2d(prof, TARGETS_CORNER, slices=512) == want_union


def test_preimage_measure_2d_mixed_factors_bit_identical():
    prof = Profile2D(Profile1D.shepard(3.0), affine_profile(1.0, -1.0))
    prof_id = Profile2D(Profile1D.identity(), Profile1D.identity())
    for p in (prof, prof_id):
        for ivs in ([(0.0, 0.5)], [(-1.0, 0.2), (0.4, 3.0)], TARGETS_CORNER):
            assert preimage_measure_2d(p, ivs, slices=256) == ref_preimage_measure_2d(
                p, ivs, slices=256)


def test_preimage_measure_2d_evaluates_fx_once_per_profile_and_grid():
    """Three targets at two slice counts evaluate fx once per grid; a new
    Profile2D evaluates it again, and one with another fx gets its own."""
    log = []
    fx = recording(Profile1D.lagrange(), log)
    fy = Profile1D.lagrange()
    prof = Profile2D(fx, fy)
    want = {}
    for slices in (4096, 512, 4096, 512):
        want[slices] = [preimage_measure_2d(prof, [iv], slices=slices) for iv in TARGETS_CORNER]
    fx_calls = [level.size for name, level in log if name == "fn"]
    assert fx_calls == [4096, 512]
    assert preimage_measure_2d(Profile2D(fx, fy), [TARGETS_CORNER[1]], slices=512) == \
        want[512][1]
    assert [level.size for name, level in log if name == "fn"] == [4096, 512, 512]
    other = Profile2D(Profile1D.shepard(2.0), fy)
    assert preimage_measure_2d(other, [TARGETS_CORNER[1]], slices=512) == \
        ref_preimage_measure_2d(other, [TARGETS_CORNER[1]], slices=512)


@pytest.mark.parametrize("name", PROFILES)
def test_preimage_measure_1d_bit_identical(name, ref_kernels):
    prof = PROFILES[name]
    lo, hi = endpoints(prof)
    cases = [[iv] for iv in TARGETS_CORNER] + [
        TARGETS_CORNER,
        [(lo + 0.3 * (hi - lo), lo + 0.6 * (hi - lo))],
        [(lo - 5.0, hi + 5.0)],
    ]
    ref_kernels()
    want = [ref_preimage_measure_1d(prof, ivs) for ivs in cases]
    ref_kernels.undo()
    assert [preimage_measure_1d(prof, ivs) for ivs in cases] == want


# ---------------------------------------------------------------------------
# regression guard: how many midpoints the bisection evaluates


def corner_factors(operator):
    """(fx, fy) of the inv_sqrt2 x golden_frac corner's product profile."""
    profile = build_table(ExperimentSpec(operator=operator,
                                         spec_x=PointSpec.irrational("inv_sqrt2"),
                                         spec_y=PointSpec.irrational("golden_frac"))).profile
    return profile.fx, profile.fy


def trace_inversions(monkeypatch, log):
    """A list that gets (targets, roots, calls) for each invert_monotone call
    from here on; calls are the entries it added to log."""
    inversions, invert = [], profiles.invert_monotone

    def traced(profile, y, tol=BISECT_TOL):
        start = len(log)
        roots = invert(profile, y, tol)
        inversions.append((np.ravel(y), np.ravel(roots), log[start:]))
        return roots

    monkeypatch.setattr(profiles, "invert_monotone", traced)
    return inversions


def test_corner_bisection_without_a_screen_evaluates_every_midpoint(monkeypatch):
    """The Lagrange corner at the benchmark targets with the screen dropped:
    the measures of the reference bisection, and the series at every
    midpoint of every level, as that bisection evaluates it."""
    fx, fy = corner_factors("lagrange2d")
    bare, log = dataclasses.replace(fy, screen=None), []
    prof = Profile2D(fx, recording(bare, log))
    inversions = trace_inversions(monkeypatch, log)
    for iv in TARGETS_CORNER:
        assert preimage_measure_2d(prof, [iv]) == ref_preimage_measure_2d(
            Profile2D(fx, bare), [iv])
    assert len(inversions) == len(TARGETS_CORNER)
    for ys, roots, calls in inversions:
        assert [(name, pts.size) for name, pts in calls] == [("fn", ys.size)] * BISECT_STEPS
        check_series_between_guards(calls, bare, ys, roots)


# series points of the three benchmark targets at each corner: measured at
# 25,460 (Lagrange) and 20,207 (Shepard s = 2), and rounded up
CORNER_SERIES_POINTS = {"lagrange2d": 26_000, "shepard2d": 21_000}


@pytest.mark.parametrize("operator", ["lagrange2d", "shepard2d"])
def test_corner_bisection_evaluates_the_series_only_near_a_root(operator, monkeypatch):
    """The inv_sqrt2 x golden_frac corner at the benchmark targets, against
    the unguarded screened bisection: the same measures, the screen only for
    the table and the guard search, the series at every midpoint between the
    guards and at no other, and no more series points than measured."""
    fx, fy = corner_factors(operator)
    log = []
    prof = Profile2D(fx, recording(fy, log))
    inversions = trace_inversions(monkeypatch, log)
    got = [preimage_measure_2d(prof, [iv]) for iv in TARGETS_CORNER]
    monkeypatch.setattr(profiles, "invert_monotone", runs_invert_monotone)
    assert got == [preimage_measure_2d(Profile2D(fx, fy), [iv]) for iv in TARGETS_CORNER]
    assert len(inversions) == len(TARGETS_CORNER)
    for ys, roots, calls in inversions:
        check_series_between_guards(calls, fy, ys, roots)
    assert sum(pts.size for name, pts in log if name == "fn") <= CORNER_SERIES_POINTS[operator]
