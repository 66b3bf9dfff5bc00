"""Built-in verification suites: every headline result at desk scale.

Each check reproduces one asymptotic statement on a finite window with a
stated tolerance and runtime budget.  The suites drive `conidx verify` and
the acceptance test module; both report one pass/fail line per check.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import harness, lagrange as lg
from .density import (
    SeqWindow,
    Target,
    complement_identity_check,
    default_checkpoints,
    index_to_target,
    sum_rule_check,
)
from .harness import ExperimentSpec, run_index_experiment
from .points import PointSpec
from .profiles import (
    Profile1D,
    Profile2D,
    hurwitz_zeta,
    lagrange_jump_profile,
    lerch_j1,
    preimage_measure_2d,
)
from .shepard import ShepardParams, shepard_weights_1d

SEED = 20250810


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    runtime_s: float
    budget_s: float | None = None

    def __post_init__(self):
        # a check that overruns its runtime budget fails; numpy comparisons
        # give numpy booleans, which json cannot write
        within = self.budget_s is None or self.runtime_s < self.budget_s
        self.passed = bool(self.passed) and within

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail} ({self.runtime_s:.2f}s)"


def _check(name: str, budget_s: float | None = None):
    """Turn a function returning (passed, detail) into a check that times
    the call and reports it as a CheckResult named `name`."""

    def wrap(fn):
        @functools.wraps(fn)
        def check() -> CheckResult:
            t0 = time.perf_counter()
            passed, detail = fn()
            return CheckResult(name, passed, detail, time.perf_counter() - t0, budget_s)

        return check

    return wrap


# ---------------------------------------------------------------------------
# props suite


@_check("cos-product indices (N=2000, eps=0.1)", 1.0)
def check_cos_product_example():
    """Double sequence cos(n pi/2) cos(m pi/2): indices 3/4, 1/8, 1/8."""
    n = np.arange(1, 2001)
    u = np.where(n % 2 == 1, 0.0, np.where(n % 4 == 0, 1.0, -1.0))
    win = SeqWindow.from_product(u, u)
    cps = default_checkpoints(2000)
    out = {}
    for tgt, want in ((0.0, 0.75), (1.0, 0.125), (-1.0, 0.125)):
        rep = index_to_target(win, Target.point(tgt), 0.1, cps)
        out[tgt] = (rep.estimate.lower_est, want)
    ok = all(abs(est - want) <= 0.01 for est, want in out.values())
    return ok, ", ".join(f"i({t:g})={est:.4f} (want {want})" for t, (est, want) in out.items())


@_check("special-function values and reflection", 1.0)
def check_special_functions():
    """Profile and zeta spot values plus the reflection identity."""
    errs = {
        "profile(1/2)-1/2": abs(lagrange_jump_profile(0.5) - 0.5),
        "lerch_j1(1)-ln2": abs(lerch_j1(1.0) - math.log(2.0)),
        "hurwitz(2,1)-pi^2/6": abs(hurwitz_zeta(2.0, 1.0) - math.pi**2 / 6.0),
    }
    xs = np.linspace(0.0, 1.0, 1026)[1:-1]  # 1024 interior points
    refl = np.abs(lagrange_jump_profile(xs) + lagrange_jump_profile(1.0 - xs) - 1.0)
    errs["reflection"] = float(refl.max())
    ok = all(e <= 1e-10 for e in errs.values())
    return ok, ", ".join(f"{k}={v:.2e}" for k, v in errs.items())


MC_PAIRS = 10_000_000
MC_BOUND = 0.5


def monte_carlo_hits(pairs: int = MC_PAIRS, block: int = 1 << 16) -> int:
    """How many of the first `pairs` uniform pairs (x, y) of
    default_rng(SEED) have x * y <= MC_BOUND.

    The pairs are drawn `block` at a time into one buffer.  Generator.random
    fills its output in C order, so the blocks are the rows of the one-shot
    draw rng.random((pairs, 2)) and the count is the same, in bounded memory.
    """
    rng = np.random.default_rng(SEED)
    buf = np.empty((block, 2))
    prod = np.empty(block)
    hits = 0
    for start in range(0, pairs, block):
        xy = buf[: min(block, pairs - start)]
        rng.random(out=xy)
        p = np.multiply(xy[:, 0], xy[:, 1], out=prod[: len(xy)])
        hits += int(np.count_nonzero(p <= MC_BOUND))
    return hits


@_check("product rule (rotations, N=1500) + MC measure")
def check_product_rule_and_measure():
    """Rotation product index vs the closed-form measure, plus a Monte Carlo
    cross-check of the 2-d preimage measure."""
    rep = harness.check_product_rule("sqrt2_minus_1", "golden_frac", (0.0, 0.5), 1500)
    prof = Profile2D(Profile1D.identity(), Profile1D.identity())
    meas = preimage_measure_2d(prof, [(0.0, 0.5)])
    mc = monte_carlo_hits() / MC_PAIRS
    truth = harness.product_measure(0.0, 0.5)
    ok = rep.verdict == "pass" and abs(meas - mc) <= 5e-3 and abs(meas - truth) <= 1e-6
    return ok, (f"index={rep.estimate.lower_est:.4f} vs {truth:.4f}; "
                f"measure={meas:.5f}, monte-carlo={mc:.5f}")


@_check("uniform-limit rule (y_n + 1/m)")
def check_uniform_limit_rule():
    rep = harness.check_uniform_limit_rule(2000)
    return rep.verdict == "pass", (f"2d index {rep.estimate.lower_est:.4f} >= "
                                   f"1d index {rep.predicted:.4f} - 0.02")


PROPERTY_CONFIGS = 100


@_check("randomized property suite", 60.0)
def check_randomized_properties():
    """Partition of unity, interpolation, weight normalization,
    eps-monotonicity, complement identity, and the disjoint-target sum rule
    on seeded random configurations."""
    rng = np.random.default_rng(SEED)
    failures: list[str] = []
    rotation = harness.rotation_sequence("inv_sqrt2", 0.0, 4000)
    # the sum rule sees the same window and targets in every trial
    targets = [Target.point(0.1), Target.point(0.5), Target.point(0.9)]
    if not sum_rule_check(rotation, targets, 0.05, 0.02):
        failures.append("sum rule violated")
    rotation_cps, residue_cps = default_checkpoints(4000), default_checkpoints(3000)
    indices = np.arange(1, 3001)
    for trial in range(PROPERTY_CONFIGS):
        n = int(rng.integers(2, 80))
        nodes = lg.cheb_grid(n)
        x = float(rng.uniform(-1.0, 1.0))
        weights = lg.fundamental_weights(nodes, x)
        if abs(weights.sum() - 1.0) > 1e-10:
            failures.append(f"{trial}: partition of unity off by {weights.sum()-1:.2e}")
        k = int(rng.integers(1, n + 1))
        node_w = lg.fundamental_weights(nodes, float(nodes[k - 1]))
        expect = np.zeros(n)
        expect[k - 1] = 1.0
        if np.abs(node_w - expect).max() > 1e-12:
            failures.append(f"{trial}: node interpolation broken at k={k}")
        params = ShepardParams(s=float(rng.uniform(1.0, 4.0)), n=int(rng.integers(1, 90)))
        xs = float(rng.random())
        w = shepard_weights_1d(params, xs)
        if w.min() < 0.0 or abs(w.sum() - 1.0) > 1e-12:
            failures.append(f"{trial}: shepard weights not a distribution")
        i_node = int(rng.integers(0, params.n + 1))
        w_node = shepard_weights_1d(params, float(params.nodes[i_node]))
        if abs(w_node[i_node] - 1.0) > 0.0 or np.count_nonzero(w_node) != 1:
            failures.append(f"{trial}: shepard node weight not a unit vector")
        # eps-monotonicity on a rotation window
        center = float(rng.random())
        e1, e2 = sorted(rng.uniform(0.01, 0.2, size=2))
        c1, c2 = rotation.hit_counts([[(center - e, center + e)] for e in (e1, e2)],
                                     rotation_cps)
        if np.any(c1 > c2):
            failures.append(f"{trial}: eps-monotonicity violated")
        # complement identity on a random residue set
        mod = int(rng.integers(2, 12))
        res = int(rng.integers(0, mod))
        residues = SeqWindow.from_values_1d(indices % mod == res)
        if not complement_identity_check(residues, residue_cps):
            failures.append(f"{trial}: complement identity violated")
    if failures:
        return False, "; ".join(failures[:3])
    return True, f"{PROPERTY_CONFIGS} configurations"


# ---------------------------------------------------------------------------
# lagrange suites


@_check("jump-value decomposition oracle (n<=2000)", 5.0)
def check_lagrange_oracle_equivalence():
    """Direct evaluation at the jump equals the decomposed form, n <= 2000."""
    worst = 0.0
    for spec in (PointSpec.rational(1, 3), PointSpec.irrational("inv_sqrt2")):
        direct = lg.jump_sequence(spec, 1.0, 2000)
        for n in range(2, 2001):
            worst = max(worst, abs(direct[n - 1] - lg.eval_jump_decomposed(spec, 1.0, n)))
    return worst <= 1e-8, f"max deviation {worst:.2e}"


@_check("lagrange clusters at angle 1/3 pi (N=3000)", 10.0)
def check_lagrange_rational_clusters():
    """Angle p/q = 1/3, d = 1: three clusters with index 1/3 each, and the
    explicit subsequences land within 5e-3 of their limits near k = 2000."""
    spec = ExperimentSpec(operator="lagrange1d", spec_x=PointSpec.rational(1, 3),
                          d=1.0, window=3000, tolerance=0.02)
    result = run_index_experiment(spec)
    wit_spec = ExperimentSpec(operator="lagrange1d", spec_x=PointSpec.rational(1, 3),
                              d=1.0, window=2000)
    tails = max(harness.cluster_witness(wit_spec, m).tail_deviation for m in range(3))
    ests = ", ".join(f"{r.label}={r.estimate.lower_est:.4f}" for r in result.reports)
    return result.all_pass and tails <= 5e-3, f"{ests}; worst tail dev {tails:.1e}"


@_check("lagrange irrational angle, measure target (N=5000)", 10.0)
def check_lagrange_irrational_measure():
    """Irrational angle: index of [0.3, 0.6] equals the profile preimage."""
    spec = ExperimentSpec(operator="lagrange1d", spec_x=PointSpec.irrational("inv_sqrt2"),
                          d=1.0, window=5000, tolerance=0.02, targets=[(0.3, 0.6)])
    result = run_index_experiment(spec)
    rep = result.reports[0]
    return result.all_pass, (f"estimate {rep.estimate.lower_est:.4f} "
                             f"vs measure {rep.predicted:.4f}")


@_check("lagrange corner products 1/3 x 1/2 (N=600/axis)", 30.0)
def check_lagrange_corner_products():
    """Corner 1/3 x 1/2: six product clusters, index 1/6 each."""
    spec = ExperimentSpec(operator="lagrange2d", spec_x=PointSpec.rational(1, 3),
                          spec_y=PointSpec.rational(1, 2), window=600, tolerance=0.03)
    result = run_index_experiment(spec)
    ok = (result.all_pass and len(result.reports) == 6
          and result.residual_mass <= 0.03)
    ests = ", ".join(f"{r.estimate.lower_est:.3f}" for r in result.reports)
    return ok, f"estimates [{ests}] vs 1/6; residual {result.residual_mass:.4f}"


def _scan_verdict(spec: ExperimentSpec, regions) -> tuple[bool, str]:
    """Scan the regions at n = 500, 1000, 2000: the sup error is at most
    0.05 at n = 500 and does not grow beyond the scan's slack."""
    rows = harness.uniform_convergence_scan(spec, regions, [500, 1000, 2000])
    largest = max(r["sup_error"] for r in rows if r["n"] == 500)
    return (largest <= 0.05 and harness.scan_decreasing(rows),
            f"sup error at n=500: {largest:.4f}, nonincreasing to n=2000")


@_check("lagrange uniform convergence off the jump")
def check_lagrange_uniform_convergence():
    """Away from the jump the interpolants converge uniformly."""
    spec = ExperimentSpec(operator="lagrange1d", spec_x=PointSpec.rational(1, 3),
                          d=1.0, window=10)
    x0 = math.cos(math.pi / 3.0)
    return _scan_verdict(spec, [(-1.0, x0 - 0.2), (x0 + 0.2, 1.0)])


# ---------------------------------------------------------------------------
# shepard suite


@_check("shepard edge clusters s=2, y0=1/2 (N=1000/axis)")
def check_shepard_edge_clusters():
    """s = 2, jump ordinate 1/2, evaluation left of the corner: clusters
    1 (node arm) and 1/2, each with index 1/2."""
    spec = ExperimentSpec(operator="shepard2d", spec_x=PointSpec.rational(3, 4),
                          spec_y=PointSpec.rational(1, 2), s=2.0, window=1000,
                          tolerance=0.02, eval_point=(0.375, 0.5))
    result = run_index_experiment(spec)
    return result.all_pass, ", ".join(f"{r.label}={r.estimate.lower_est:.4f}"
                                      for r in result.reports)


@_check("shepard corner s=1 at (1/2,1/2) (N=1000/axis)")
def check_shepard_corner_s1():
    """s = 1 corner at (1/2, 1/2): predicted indices 1/4 for cluster 1/2 and
    3/4 for cluster 1/4.

    The tensor decomposition S_{n,m} = S_n * S_m makes the corner clusters
    products of the univariate ones ({1 on node hits, 1/2 otherwise}), which
    yields {1: 1/4, 1/2: 1/2, 1/4: 1/4} instead; the tabulated corner
    prediction for s = 1 is not consistent with the decomposition, so this
    check is expected to fail and is reported honestly.
    """
    spec = ExperimentSpec(operator="shepard2d", spec_x=PointSpec.rational(1, 2),
                          spec_y=PointSpec.rational(1, 2), s=1.0, window=1000,
                          tolerance=0.03)
    result = run_index_experiment(spec)
    return result.all_pass, ", ".join(
        f"i({r.target.value:g})={r.estimate.lower_est:.4f} (predicted {r.predicted:g})"
        for r in result.reports)


@_check("shepard uniform convergence off the jump set")
def check_shepard_uniform_convergence():
    spec = ExperimentSpec(operator="shepard2d", spec_x=PointSpec.rational(1, 2),
                          spec_y=PointSpec.rational(1, 2), s=2.0, window=10)
    return _scan_verdict(spec, [(0.7, 1.0, 0.0, 1.0), (0.0, 1.0, 0.7, 1.0)])


# ---------------------------------------------------------------------------
# suite registry


SUITES = {
    "lagrange1": (check_lagrange_oracle_equivalence, check_lagrange_rational_clusters,
                  check_lagrange_irrational_measure, check_lagrange_uniform_convergence),
    "lagrange2": (check_lagrange_corner_products,),
    "shepard": (check_shepard_edge_clusters, check_shepard_corner_s1,
                check_shepard_uniform_convergence),
    "props": (check_cos_product_example, check_special_functions,
              check_product_rule_and_measure, check_uniform_limit_rule,
              check_randomized_properties),
}


def run_suites(names=None) -> list[CheckResult]:
    """Run the named suites (all by default) in order; an unknown name
    raises before any check runs."""
    names = list(SUITES) if not names else list(names)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; suites: {', '.join(SUITES)}")
    return [check() for name in names for check in SUITES[name]]
