"""Acceptance criteria, one test per criterion, one pass/fail line each.

Every asymptotic claim is reproduced at desk scale with the stated window,
tolerance, and runtime budget.  Criterion 8 asserts the s = 1 Shepard
corner table at (1/2, 1/2) that the tensor decomposition gives, derived by
parity in the test itself; the tabulated table it contradicts stays on
record as the failing `conidx verify shepard` check.
"""
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conidx import suites
from conidx.density import SeqWindow, Target, default_checkpoints, index_to_target
from conidx.harness import (
    EPS_CAP,
    ExperimentSpec,
    check_product_rule,
    cluster_witness,
    run_index_experiment,
    scan_decreasing,
    uniform_convergence_scan,
)
from conidx.lagrange import eval_jump_decomposed, jump_sequence
from conidx.points import PointSpec
from conidx.profiles import (
    Profile1D,
    Profile2D,
    hurwitz_zeta,
    lagrange_jump_profile,
    lerch_j1,
    preimage_measure_1d,
    preimage_measure_2d,
)
from conidx.shepard import ShepardParams, shepard_eval_2d, shepard_weights_1d
from conidx.stepfn import StepFn2D

ROOT = Path(__file__).resolve().parents[1]


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_01_cos_product_indices():
    t0 = time.perf_counter()
    n = np.arange(1, 2001)
    u = np.where(n % 2 == 1, 0.0, np.where(n % 4 == 0, 1.0, -1.0))
    win = SeqWindow.from_product(u, u)
    cps = default_checkpoints(2000)
    estimates = {}
    for tgt, want in ((0.0, 0.75), (1.0, 0.125), (-1.0, 0.125)):
        rep = index_to_target(win, Target.point(tgt), 0.1, cps)
        estimates[tgt] = (rep.estimate.lower_est, want)
    dt = time.perf_counter() - t0
    ok = all(abs(est - want) <= 0.01 for est, want in estimates.values()) and dt < 1.0
    report("criterion 1 (cos-product example)",
           ok, ", ".join(f"i({t:g})={e:.4f}" for t, (e, _) in estimates.items())
           + f"; runtime {dt:.2f}s")
    for est, want in estimates.values():
        assert est == pytest.approx(want, abs=0.01)
    assert dt < 1.0


def test_criterion_02_special_functions():
    t0 = time.perf_counter()
    e1 = abs(lagrange_jump_profile(0.5) - 0.5)
    e2 = abs(lerch_j1(1.0) - math.log(2.0))
    e3 = abs(hurwitz_zeta(2.0, 1.0) - math.pi**2 / 6.0)
    xs = np.linspace(0.0, 1.0, 1026)[1:-1]
    e4 = float(np.abs(lagrange_jump_profile(xs)
                      + lagrange_jump_profile(1.0 - xs) - 1.0).max())
    dt = time.perf_counter() - t0
    ok = max(e1, e2, e3, e4) <= 1e-10 and dt < 1.0
    report("criterion 2 (special functions)", ok,
           f"errors {e1:.1e}, {e2:.1e}, {e3:.1e}, reflection {e4:.1e}; runtime {dt:.2f}s")
    assert max(e1, e2, e3, e4) <= 1e-10
    assert dt < 1.0


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for spec in (PointSpec.rational(1, 3), PointSpec.irrational("inv_sqrt2")):
        direct = jump_sequence(spec, 1.0, 2000)
        for n in range(2, 2001):
            worst = max(worst, abs(direct[n - 1] - eval_jump_decomposed(spec, 1.0, n)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 5.0
    report("criterion 3 (oracle equivalence)", ok,
           f"max |direct - decomposed| = {worst:.2e}; runtime {dt:.2f}s")
    assert worst <= 1e-8
    assert dt < 5.0


def test_criterion_04_lagrange_rational_clusters():
    t0 = time.perf_counter()
    spec = ExperimentSpec(operator="lagrange1d", spec_x=PointSpec.rational(1, 3),
                          d=1.0, window=3000, tolerance=0.02)
    result = run_index_experiment(spec)
    wit_spec = ExperimentSpec(operator="lagrange1d", spec_x=PointSpec.rational(1, 3),
                              d=1.0, window=2000)
    tails = [cluster_witness(wit_spec, m).tail_deviation for m in range(3)]
    dt = time.perf_counter() - t0
    ok = result.all_pass and max(tails) <= 5e-3 and dt < 10.0
    report("criterion 4 (rational angle clusters)", ok,
           ", ".join(f"{r.label}={r.estimate.lower_est:.4f}"
                     for r in result.reports)
           + f"; worst tail {max(tails):.1e}; runtime {dt:.2f}s")
    for rep in result.reports:
        assert rep.estimate.lower_est == pytest.approx(1.0 / 3.0, abs=0.02)
    assert max(tails) <= 5e-3
    assert dt < 10.0


def test_criterion_05_lagrange_irrational_measure():
    t0 = time.perf_counter()
    spec = ExperimentSpec(operator="lagrange1d", spec_x=PointSpec.irrational("inv_sqrt2"),
                          d=1.0, window=5000, tolerance=0.02, targets=[(0.3, 0.6)])
    result = run_index_experiment(spec)
    rep = result.reports[0]
    want = preimage_measure_1d(Profile1D.lagrange(), [(0.3, 0.6)])
    dt = time.perf_counter() - t0
    ok = abs(rep.estimate.lower_est - want) <= 0.02 and dt < 10.0
    report("criterion 5 (irrational angle measure)", ok,
           f"estimate {rep.estimate.lower_est:.4f} vs measure {want:.4f}; runtime {dt:.2f}s")
    assert rep.estimate.lower_est == pytest.approx(want, abs=0.02)
    assert dt < 10.0


def test_criterion_06_lagrange_corner_products():
    t0 = time.perf_counter()
    spec = ExperimentSpec(operator="lagrange2d", spec_x=PointSpec.rational(1, 3),
                          spec_y=PointSpec.rational(1, 2), window=600, tolerance=0.03)
    result = run_index_experiment(spec)
    dt = time.perf_counter() - t0
    ok = (len(result.reports) == 6 and result.all_pass
          and result.residual_mass <= 0.03 and dt < 30.0)
    report("criterion 6 (corner product clusters)", ok,
           ", ".join(f"{r.estimate.lower_est:.3f}" for r in result.reports)
           + f" vs 1/6; residual {result.residual_mass:.4f}; runtime {dt:.2f}s")
    assert len(result.reports) == 6
    for rep in result.reports:
        assert rep.estimate.lower_est == pytest.approx(1.0 / 6.0, abs=0.03)
    assert result.residual_mass <= 0.03
    assert dt < 30.0


def test_criterion_07_shepard_edge_s2():
    spec = ExperimentSpec(operator="shepard2d", spec_x=PointSpec.rational(3, 4),
                          spec_y=PointSpec.rational(1, 2), s=2.0, window=1000,
                          tolerance=0.02, eval_point=(0.375, 0.5))
    result = run_index_experiment(spec)
    by_value = {round(r.target.value, 6): r.estimate.lower_est for r in result.reports}
    ok = all(abs(v - 0.5) <= 0.02 for v in by_value.values()) and set(by_value) == {1.0, 0.5}
    report("criterion 7 (shepard edge, s=2)", ok,
           ", ".join(f"i({k:g})={v:.4f}" for k, v in by_value.items()))
    assert set(by_value) == {1.0, 0.5}
    for est in by_value.values():
        assert est == pytest.approx(0.5, abs=0.02)


def _half_factor_s1(n: int) -> float:
    """S_n(1 on [0, 1/2])(1/2) at s = 1, from parity alone: for even n the
    point 1/2 is the node n/2 and the operator interpolates, giving 1; for
    odd n the nodes left and right of 1/2 mirror each other, so the two
    weight sums are equal and the value is 1/2."""
    return 1.0 if n % 2 == 0 else 0.5


def test_criterion_08_shepard_corner_s1():
    """s = 1 Shepard corner at (1/2, 1/2), step 1 on [0, 1/2] x [0, 1/2].

    The weights are a tensor product, so S_{n,m} = S_n * S_m exactly, and
    each factor is 1 for even and 1/2 for odd n (`_half_factor_s1`).  Each
    parity class holds half of the indices on its axis, so the corner
    values are 1 (both even), 1/2 (exactly one even) and 1/4 (both odd)
    with indices {1: 1/4, 1/2: 1/2, 1/4: 1/4}, and nothing else is left.
    The exact values are checked against the direct double sum and the
    window's factor product before the indices are estimated.

    The stated table {1/2: 1/(q1 q2), 1/4: 1 - 1/(q1 q2)}, i.e.
    {1/2: 1/4, 1/4: 3/4} here, contradicts this derivation; it stays on
    record as the red `conidx verify shepard` check.
    """
    spec = ExperimentSpec(operator="shepard2d", spec_x=PointSpec.rational(1, 2),
                          spec_y=PointSpec.rational(1, 2), s=1.0, window=1000,
                          tolerance=0.03)
    derived: dict[float, float] = {}
    for n in (1, 2):
        for m in (1, 2):
            val = _half_factor_s1(n) * _half_factor_s1(m)
            derived[val] = derived.get(val, 0.0) + 0.25
    assert derived == {1.0: 0.25, 0.5: 0.5, 0.25: 0.25}

    result = run_index_experiment(spec)
    win = result.window
    u, v = win.factors
    h = StepFn2D.lower_left(0.5, 0.5)
    worst = 0.0
    for n, m in ((2, 4), (998, 1000), (2, 3), (999, 1000), (3, 5), (997, 999)):
        px, py = ShepardParams(spec.s, n), ShepardParams(spec.s, m)
        wx, wy = shepard_weights_1d(px, 0.5), shepard_weights_1d(py, 0.5)
        double_sum = float(wx @ h(px.nodes[:, None], py.nodes[None, :]) @ wy)
        evaluated = shepard_eval_2d(h, px, py, 0.5, 0.5, cross_check=True)
        want = _half_factor_s1(n) * _half_factor_s1(m)
        for got in (double_sum, evaluated, u[n - 1] * v[m - 1]):
            worst = max(worst, abs(got - want))

    values = sorted(derived)
    eps = min(min(b - a for a, b in zip(values, values[1:])) / 2.0, EPS_CAP)
    cps = default_checkpoints(spec.window)
    estimates = {val: index_to_target(win, Target.point(val), eps, cps).estimate.lower_est
                 for val in values}
    dilated = [iv for val in values for iv in Target.point(val).dilated(eps)]
    residual = 1.0 - int(win.hit_counts([dilated], [spec.window])[0, 0]) / spec.window**2

    tol = spec.tolerance
    ok = (worst <= 1e-12 and residual <= tol
          and all(abs(estimates[val] - derived[val]) <= tol for val in values))
    report("criterion 8 (shepard corner, s=1)", ok,
           ", ".join(f"i({Fraction(val)})={estimates[val]:.4f} (derived {Fraction(derived[val])})"
                     for val in sorted(values, reverse=True))
           + f"; residual {residual:.4f}; exact-value deviation {worst:.1e}; "
           "stated {1/2: 1/4, 1/4: 3/4} (red in `conidx verify shepard`)")
    assert worst <= 1e-12
    for val in values:
        assert estimates[val] == pytest.approx(derived[val], abs=tol)
    assert residual <= tol


def test_criterion_09_product_rule_and_mc():
    rep = check_product_rule("sqrt2_minus_1", "golden_frac", (0.0, 0.5), 1500)
    want = (1.0 + math.log(2.0)) / 2.0
    prof = Profile2D(Profile1D.identity(), Profile1D.identity())
    measure = preimage_measure_2d(prof, [(0.0, 0.5)])
    mc = suites.monte_carlo_hits() / suites.MC_PAIRS
    ok = abs(rep.estimate.lower_est - want) <= 0.02 and abs(measure - mc) <= 5e-3
    report("criterion 9 (product rule + MC)", ok,
           f"index {rep.estimate.lower_est:.4f} vs {want:.4f}; "
           f"measure {measure:.5f} vs MC {mc:.5f}")
    assert rep.estimate.lower_est == pytest.approx(want, abs=0.02)
    assert measure == pytest.approx(mc, abs=5e-3)


@pytest.mark.parametrize("block", [7, 999, 4096, 1 << 16, 100_000, 250_000])
def test_streamed_monte_carlo_equals_one_shot_draw(block):
    rng = np.random.default_rng(suites.SEED)
    xy = rng.random((100_000, 2))
    want = int(np.count_nonzero(xy[:, 0] * xy[:, 1] <= suites.MC_BOUND))
    assert suites.monte_carlo_hits(100_000, block) == want


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_rule_checks_run_in_bounded_memory():
    # VmHWM is the peak resident set of the child's own address space; its
    # ru_maxrss would also carry the peak of this process, the one it was
    # started from, across the exec
    script = ("from conidx import suites\n"
              "assert suites.check_product_rule_and_measure().passed\n"
              "assert suites.check_uniform_limit_rule().passed\n"
              "status = open('/proc/self/status').read()\n"
              "print(status.split('VmHWM:')[1].split()[0])\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    peak_mb = int(done.stdout) / 1024.0
    assert peak_mb < 60.0


def test_criterion_10_uniform_convergence():
    lag_spec = ExperimentSpec(operator="lagrange1d", spec_x=PointSpec.rational(1, 3),
                              d=1.0, window=10)
    x0 = math.cos(math.pi / 3.0)
    lag_rows = uniform_convergence_scan(lag_spec, [(-1.0, x0 - 0.2), (x0 + 0.2, 1.0)],
                                        [500, 1000, 2000])
    shep_spec = ExperimentSpec(operator="shepard2d", spec_x=PointSpec.rational(1, 2),
                               spec_y=PointSpec.rational(1, 2), s=2.0, window=10)
    shep_rows = uniform_convergence_scan(
        shep_spec, [(0.7, 1.0, 0.0, 1.0), (0.0, 1.0, 0.7, 1.0)], [500, 1000, 2000])
    worst_500 = max(r["sup_error"] for r in lag_rows + shep_rows if r["n"] == 500)
    ok = worst_500 <= 0.05 and scan_decreasing(lag_rows) and scan_decreasing(shep_rows)
    report("criterion 10 (uniform convergence)", ok,
           f"sup error at n=500: {worst_500:.4f}, nonincreasing through n=2000")
    assert worst_500 <= 0.05
    assert scan_decreasing(lag_rows)
    assert scan_decreasing(shep_rows)


def test_criterion_11_property_suite():
    res = suites.check_randomized_properties()
    report("criterion 11 (randomized properties)", res.passed,
           f"{res.detail}; runtime {res.runtime_s:.1f}s")
    assert res.passed
    assert res.runtime_s < 60.0


@pytest.mark.parametrize("check, rule", [("sum_rule_check", "sum rule violated"),
                                         ("complement_identity_check",
                                          "complement identity violated")])
def test_property_suite_fails_on_each_rule(monkeypatch, check, rule):
    """The sum rule runs once before the trials, the complement identity in
    every trial; either one failing fails the suite and names the rule."""
    monkeypatch.setattr(suites, check, lambda *args: False)
    res = suites.check_randomized_properties()
    assert not res.passed
    assert rule in res.detail
