import json
import math

import mpmath
import numpy as np
import pytest
from scipy.special import psi
from scipy.special import zeta as scipy_zeta

from conidx import profiles
from conidx.cli import main
from conidx.profiles import (
    Profile1D,
    Profile2D,
    hurwitz_zeta,
    invert_monotone,
    lagrange_jump_profile,
    lerch_j1,
    preimage_measure_1d,
    preimage_measure_2d,
    shepard_jump_profile,
)


def test_lerch_j1_closed_forms():
    assert lerch_j1(1.0) == pytest.approx(math.log(2.0), abs=1e-10)
    assert lerch_j1(0.5) == pytest.approx(math.pi / 2.0, abs=1e-10)


def test_lerch_j1_small_argument_blowup():
    # leading term 1/a dominates; the remainder stays O(1)
    assert 999.0 < lerch_j1(0.001) < 1001.0


@pytest.mark.parametrize("a", [0.01, 0.1, 1 / 3, 0.5, 0.77, 1.0])
def test_lerch_j1_against_mpmath(a):
    ref = float(mpmath.lerchphi(-1, 1, a))
    assert lerch_j1(a) == pytest.approx(ref, abs=5e-12)


def test_lerch_j1_domain():
    with pytest.raises(ValueError):
        lerch_j1(0.0)
    with pytest.raises(ValueError):
        lerch_j1(1.5)
    for bad in (math.nan, np.array([0.5, math.nan]), math.inf):
        with pytest.raises(ValueError):
            lerch_j1(bad)


def with_budget(monkeypatch, abs_tol, fn, *args):
    """fn(*args) with the series evaluators sized for the budget abs_tol."""
    monkeypatch.setattr(profiles, "SERIES_TOL", abs_tol)
    return fn(*args)


def test_lerch_j1_tolerance_stability(monkeypatch):
    # halving the budget may not move the value by more than the old one
    for a in (0.05, 0.4, 0.9):
        coarse = with_budget(monkeypatch, 1e-8, lerch_j1, a)
        fine = with_budget(monkeypatch, 5e-9, lerch_j1, a)
        assert abs(coarse - fine) <= 1e-8


def test_hurwitz_zeta_closed_forms():
    assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-10)
    assert hurwitz_zeta(2.0, 0.5) == pytest.approx(math.pi**2 / 2.0, abs=1e-10)
    assert hurwitz_zeta(3.0, 1.0) == pytest.approx(1.2020569031595943, abs=1e-10)


def test_hurwitz_zeta_direct_summation_oracle():
    # brute partial sum plus an integral tail bracket; the bracket is opened
    # by the evaluator's own tolerance and the oracle's summation rounding
    s, a, terms = 2.5, 0.7, 200_000
    n = np.arange(terms)
    partial = math.fsum((n + a) ** -s)
    tail_lo = (terms + a) ** (1 - s) / (s - 1)
    val = hurwitz_zeta(s, a)
    slack = 2e-12
    assert partial + tail_lo - slack <= val <= partial + tail_lo + (terms + a) ** -s + slack


@pytest.mark.parametrize("s,a", [(2.0, 0.25), (1.5, 0.9), (4.0, 1.0), (2.0, 2.5)])
def test_hurwitz_zeta_against_scipy(s, a):
    assert hurwitz_zeta(s, a) == pytest.approx(float(scipy_zeta(s, a)), abs=1e-10)


def test_hurwitz_zeta_domain():
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 0.5)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 0.0)
    for s, a in [(math.nan, 0.5), (math.inf, 0.5), (2.0, math.nan), (2.0, math.inf),
                 (2.0, np.array([0.5, math.nan]))]:
        with pytest.raises(ValueError):
            hurwitz_zeta(s, a)


def test_hurwitz_zeta_tolerance_stability(monkeypatch):
    for s, a in [(1.5, 0.3), (2.0, 0.8), (3.5, 1.7)]:
        coarse = with_budget(monkeypatch, 1e-8, hurwitz_zeta, s, a)
        fine = with_budget(monkeypatch, 5e-9, hurwitz_zeta, s, a)
        assert abs(coarse - fine) <= 1e-8


# (0, 1], with 1e-6 and 1, for the Euler-Maclaurin kernels behind the screens
EM_POINTS = np.concatenate([[1e-6, 1e-4, 1e-2], np.linspace(0.0, 1.0, 301)[1:]])


def max_relative_error(got, want):
    return max(abs((mpmath.mpf(float(g)) - w) / w) for g, w in zip(got, want))


def test_em_psi_and_lerch_against_mpmath():
    # lerchphi at 30 digits takes ~0.1 s a point, so it gets every 12th point
    lerch_points = np.concatenate([EM_POINTS[:3], EM_POINTS[3::12], [1.0]])
    with mpmath.workdps(30):
        psi_want = [mpmath.digamma(mpmath.mpf(float(a))) for a in EM_POINTS]
        lerch_want = [mpmath.lerchphi(-1, 1, mpmath.mpf(float(a))) for a in lerch_points]
        lerch = 0.5 * (profiles._psi(0.5 * (lerch_points + 1.0))
                       - profiles._psi(0.5 * lerch_points))
        assert max_relative_error(profiles._psi(EM_POINTS), psi_want) <= 1e-14
        assert max_relative_error(lerch, lerch_want) <= 1e-14


@pytest.mark.parametrize("s", [1.01, 1.5, 2.0, 3.0, 5.0])
def test_em_zeta_against_mpmath(s):
    with mpmath.workdps(30):
        want = [mpmath.zeta(mpmath.mpf(s), mpmath.mpf(float(a))) for a in EM_POINTS]
        assert max_relative_error(profiles._zeta(s, EM_POINTS), want) <= 1e-14


def test_profile_values():
    assert lagrange_jump_profile(0.5) == pytest.approx(0.5, abs=1e-10)
    assert lagrange_jump_profile(0.0) == 1.0
    third = lagrange_jump_profile(1 / 3) + lagrange_jump_profile(2 / 3)
    assert third == pytest.approx(1.0, abs=1e-10)


def test_profile_reflection_grid():
    xs = np.linspace(0.0, 1.0, 1026)[1:-1]
    total = lagrange_jump_profile(xs) + lagrange_jump_profile(1.0 - xs)
    assert np.abs(total - 1.0).max() <= 1e-10


def test_profile_domain():
    with pytest.raises(ValueError):
        lagrange_jump_profile(1.0)
    with pytest.raises(ValueError):
        lagrange_jump_profile(-0.1)
    for bad in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError):
            lagrange_jump_profile(bad)
        with pytest.raises(ValueError):
            shepard_jump_profile(2.0, bad)


def test_shepard_profile_values():
    for s in (1.5, 2.0, 3.0):
        assert shepard_jump_profile(s, 0.5) == pytest.approx(0.5, abs=1e-12)
        assert shepard_jump_profile(s, 0.0) == 1.0
    # symmetry holds exactly by construction
    total = shepard_jump_profile(2.0, 0.25) + shepard_jump_profile(2.0, 0.75)
    assert abs(total - 1.0) <= 1e-12


def test_profiles_strictly_decreasing():
    xs = np.linspace(0.0, 1.0 - 1e-9, 1024)
    for vals in (lagrange_jump_profile(xs), shepard_jump_profile(2.0, xs)):
        assert np.all(np.diff(vals) < 0.0)


def test_profile_monotonicity_guard():
    with pytest.raises(ValueError):
        Profile1D(fn=lambda x: np.sin(6.0 * np.asarray(x)), kind="wiggle",
                  value_at_0=0.0, limit_at_1=1.0)


@pytest.mark.parametrize("s", [5.5, 6.0, 8.0, 12.0])
def test_saturating_shepard_profiles_build(s):
    # the profile rounds to 1.0, or to within an ulp or two of it, on the
    # first points of the check grid; those ties are saturation
    xs = np.linspace(0.0, 1.0 - 1e-9, 1024)
    assert np.any(np.diff(shepard_jump_profile(s, xs)) == 0.0)
    prof = Profile1D.shepard(s)
    assert prof.decreasing


@pytest.mark.parametrize("start, stop, level", [(0.29, 0.31, 0.7), (0.0, 0.1, 1.0 - 1e-12)],
                         ids=["middle", "near-endpoint"])
def test_profile_monotonicity_guard_rejects_an_inner_plateau(start, stop, level):
    # a nonincreasing profile with a flat run strictly between its endpoint
    # values is no saturation, even a few thousand ulps below the endpoint 1
    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= start) & (x < stop), level, 1.0 - x)

    with pytest.raises(ValueError, match="not strictly monotone"):
        Profile1D(fn=fn, kind="plateau", value_at_0=1.0, limit_at_1=0.0)
    with pytest.raises(ValueError, match="not strictly monotone"):
        Profile1D(fn=lambda x: np.full(np.shape(x), 1.0), kind="flat",
                  value_at_0=1.0, limit_at_1=1.0)


def test_profile_endpoint_declaration_guard():
    with pytest.raises(ValueError, match="value at 0"):
        Profile1D(fn=lambda x: np.asarray(x, dtype=float), kind="ident",
                  value_at_0=0.5, limit_at_1=1.0)
    with pytest.raises(ValueError, match="limit at 1"):
        Profile1D(fn=lambda x: np.asarray(x, dtype=float), kind="ident",
                  value_at_0=0.0, limit_at_1=2.0)


def test_invert_monotone_clamps():
    prof = Profile1D.lagrange()
    assert invert_monotone(prof, 2.0) == pytest.approx(0.0, abs=1e-9)
    assert invert_monotone(prof, -1.0) == pytest.approx(1.0, abs=1e-9)
    assert prof(invert_monotone(prof, 0.37)) == pytest.approx(0.37, abs=1e-9)


def test_preimage_1d_examples():
    prof = Profile1D.lagrange()
    assert preimage_measure_1d(prof, [(0.0, 1.0)]) == pytest.approx(1.0, abs=1e-9)
    assert preimage_measure_1d(prof, [(0.5, 1.0)]) == pytest.approx(0.5, abs=2e-10)
    ident = Profile1D.identity()
    assert preimage_measure_1d(ident, [(0.2, 0.5)]) == pytest.approx(0.3, abs=2e-10)


def test_preimage_1d_grid_oracle():
    # Riemann count on a fine grid, independent of the bisection route
    prof = Profile1D.lagrange()
    for a, b in [(0.3, 0.6), (0.1, 0.2), (0.55, 0.9)]:
        assert preimage_measure_1d(prof, [(a, b)]) == pytest.approx(
            grid_measure(prof, a, b), abs=1e-5)


def grid_measure(prof, a, b, size=2_000_000):
    """Riemann count of {x in [0, 1) : a <= prof(x) <= b} on a midpoint grid."""
    vals = prof((np.arange(size) + 0.5) / size)
    return float(np.count_nonzero((vals >= a) & (vals <= b))) / size


def test_index_on_a_saturating_shepard_profile(tmp_path):
    # s = 6 ties at the start of the check grid; the config is valid, so
    # the run gives a verdict (exit 0 or 1), not a config error (exit 2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "experiment": "shepard1d",
                               "x0": {"irrational": "inv_sqrt2"}, "s": 6.0,
                               "window": 2000, "targets": [[0.3, 0.45]]}))
    report = tmp_path / "report.json"
    assert main(["index", "--config", str(cfg), "--out", str(report)]) in (0, 1)
    (entry,) = json.loads(report.read_text())["targets"]
    assert entry["predicted"] == pytest.approx(
        grid_measure(Profile1D.shepard(6.0), 0.3, 0.45), abs=1e-5)


def test_preimage_1d_additivity():
    prof = Profile1D.lagrange()
    tol = 1e-10
    joint = preimage_measure_1d(prof, [(0.1, 0.3), (0.5, 0.8)], tol)
    split = (preimage_measure_1d(prof, [(0.1, 0.3)], tol)
             + preimage_measure_1d(prof, [(0.5, 0.8)], tol))
    assert abs(joint - split) <= 4 * tol


def test_preimage_2d_identity_area():
    prof = Profile2D(Profile1D.identity(), Profile1D.identity())
    want = (1.0 + math.log(2.0)) / 2.0
    assert preimage_measure_2d(prof, [(0.0, 0.5)]) == pytest.approx(want, abs=1e-6)
    assert preimage_measure_2d(prof, [(0.0, 1.0)]) == pytest.approx(1.0, abs=1e-9)


def test_preimage_2d_slicing_consistency():
    prof = Profile2D(Profile1D.lagrange(), Profile1D.lagrange())
    coarse = preimage_measure_2d(prof, [(0.25, 1.0)], slices=4096)
    fine = preimage_measure_2d(prof, [(0.25, 1.0)], slices=8192)
    assert abs(coarse - fine) <= 1e-6


def test_preimage_2d_monte_carlo_oracle():
    prof = Profile2D(Profile1D.lagrange(), Profile1D.lagrange())
    measured = preimage_measure_2d(prof, [(0.25, 1.0)])
    rng = np.random.default_rng(1234)

    def profile(x):
        # sin(pi x)/pi * lerch_j1(x), with lerch_j1 in closed form through digamma
        return np.sin(np.pi * x) / np.pi * 0.5 * (psi((x + 1.0) / 2.0) - psi(x / 2.0))

    hits = 0
    samples = 10_000_000
    chunk = 1_000_000
    for _ in range(samples // chunk):
        u = rng.random(chunk)
        v = rng.random(chunk)
        g = profile(u) * profile(v)
        hits += int(np.count_nonzero(g >= 0.25))
    assert measured == pytest.approx(hits / samples, abs=5e-3)
