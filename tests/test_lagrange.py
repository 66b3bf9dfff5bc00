import math

import numpy as np
import pytest

from conidx import lagrange as lg
from conidx.harness import _FAMILIES
from conidx.lagrange import (
    cheb_grid,
    eval_jump_decomposed,
    fundamental_weights,
    grid_offset,
    jump_sequence,
    lagrange_eval_1d,
    lagrange_eval_2d,
    step_sequence_at,
)
from conidx.points import PointSpec
from conidx.profiles import lagrange_jump_profile
from conidx.stepfn import StepFn1D, StepFn2D


def product_formula_weight(nodes, k, x):
    """O(n^2) textbook product form, as an independent route."""
    num = 1.0
    den = 1.0
    for i, xi in enumerate(nodes):
        if i == k - 1:
            continue
        num *= x - xi
        den *= nodes[k - 1] - xi
    return num / den


def test_grid_small_cases():
    assert np.allclose(cheb_grid(2), [1.0, -1.0])
    assert np.allclose(cheb_grid(3), [1.0, 0.0, -1.0], atol=1e-15)
    assert cheb_grid(5)[1] == pytest.approx(math.sqrt(2.0) / 2.0)


def test_grid_monotone_and_endpoints():
    for n in (2, 7, 40):
        g = cheb_grid(n)
        assert g[0] == 1.0 and g[-1] == -1.0
        assert np.all(np.diff(g) < 0.0)
    with pytest.raises(ValueError):
        cheb_grid(1)


def test_fundamental_weight_kronecker():
    g = cheb_grid(9)
    for j in range(1, 10):
        want = np.zeros(9)
        want[j - 1] = 1.0
        assert np.array_equal(fundamental_weights(g, float(g[j - 1])), want)


def test_fundamental_weight_closed_case():
    g = cheb_grid(3)
    assert fundamental_weights(g, 0.5)[1] == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 11, 24])
def test_fundamental_weight_product_formula_oracle(n):
    g = cheb_grid(n)
    rng = np.random.default_rng(42 + n)
    for x in rng.uniform(-1.0, 1.0, size=6):
        weights = fundamental_weights(g, float(x))
        assert weights.shape == (n,)
        for k in range(1, n + 1):
            want = product_formula_weight(g, k, float(x))
            assert weights[k - 1] == pytest.approx(want, abs=1e-9)


def test_partition_of_unity():
    rng = np.random.default_rng(3)
    for n in (2, 17, 150, 900):
        g = cheb_grid(n)
        for x in rng.uniform(-1.0, 1.0, size=4):
            assert fundamental_weights(g, float(x)).sum() == pytest.approx(1.0, abs=1e-10)


def test_eval_constant_reproduced():
    for n in (2, 8, 101):
        assert lagrange_eval_1d(lambda x: np.full_like(x, 3.25), n, 0.123) == pytest.approx(
            3.25, abs=1e-10)


def test_eval_outside_the_interval_raises():
    """The closed trigonometric form holds only on [-1, 1]: interpolating x^2
    reproduces it, so 1.5 would give 2.25, but the closed form gives 0.0."""
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        lagrange_eval_1d(lambda x: x**2, 10, 1.5)
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        step_sequence_at(0.5, -1.5, 10)
    assert lagrange_eval_1d(lambda x: x**2, 10, 1.0) == 1.0


def test_eval_step_at_node_is_node_value():
    step = StepFn1D.jump(0.4, 0.77)
    g = cheb_grid(12)
    for node in g:
        assert lagrange_eval_1d(step, 12, float(node)) == step(float(node))


def test_eval_at_jump_matches_decomposition_when_offset_zero():
    spec = PointSpec.rational(1, 3)
    assert grid_offset(spec, 4) == 0.0
    assert eval_jump_decomposed(spec, 0.3, 4) == 0.3
    vals = jump_sequence(spec, 0.3, 4)
    assert vals[3] == 0.3


def test_grid_offset_values():
    spec = PointSpec.rational(1, 3)
    assert grid_offset(spec, 5) == pytest.approx(1.0 / 3.0)
    irr = PointSpec.irrational("inv_sqrt2")
    assert grid_offset(irr, 2) == pytest.approx((1.0 / math.sqrt(2.0)) % 1.0)


def arm(family, p, q, m, n_max):
    """The indices n <= n_max of the arm m/q of p/q, first_index on, step q."""
    return list(range(_FAMILIES[family].first_index(p, q, m), n_max + 1, q))


def test_offset_subsequence_examples():
    """The offset subsequences of a rational point start at first_index and
    step by q."""
    assert arm("lagrange", 1, 3, 2, 12) == [6, 9, 12]
    assert arm("lagrange", 1, 3, 0, 10) == [4, 7, 10]
    # 3*2 = 6 = 1 mod 5, so l = 3 and n - 1 = 3 + 5
    assert arm("lagrange", 2, 5, 1, 19) == [9, 14, 19]
    assert arm("shepard", 1, 3, 0, 9) == [3, 6, 9]
    assert arm("shepard", 2, 5, 1, 13) == [3, 8, 13]


def test_offset_subsequence_hits_offset_exactly():
    """Over every p/q with q <= 30 and every residue m, each index of the
    arm m/q has offset m/q, and the arm starts at the first such index: the
    grid offset of n - 1 (Lagrange, from n = q + 1 on) or the fractional
    part of n p/q (Shepard, from n = 1)."""
    offsets = {"lagrange": (grid_offset, lambda q: q + 1),
               "shepard": (lambda spec, n: spec.multiple_mod1(n), lambda q: 1)}
    for family, (offset, start) in offsets.items():
        for q in range(2, 31):
            for p in (p for p in range(1, q) if math.gcd(p, q) == 1):
                spec = PointSpec.rational(p, q)
                for m in range(q):
                    indices = arm(family, p, q, m, 3 * q)
                    assert all(offset(spec, n) == m / q for n in indices), (family, p, q, m)
                    assert indices[0] == next(n for n in range(start(q), start(q) + q)
                                              if offset(spec, n) == m / q)


def test_decomposition_oracle_matches_direct():
    spec = PointSpec.rational(1, 3)
    vals = jump_sequence(spec, 1.0, 500)
    for n in (2, 3, 17, 100, 499, 500):
        assert vals[n - 1] == pytest.approx(eval_jump_decomposed(spec, 1.0, n), abs=1e-9)


def test_subsequence_converges_to_profile():
    spec = PointSpec.rational(1, 3)
    limit = lagrange_jump_profile(1.0 / 3.0)
    ks = arm("lagrange", 1, 3, 1, 2000)
    tail = eval_jump_decomposed(spec, 1.0, ks[-1])
    assert abs(tail - limit) <= 5e-3


def test_node_hit_subsequence_returns_d():
    spec = PointSpec.rational(1, 3)
    vals = jump_sequence(spec, 0.42, 100)
    for k in arm("lagrange", 1, 3, 0, 100):
        assert vals[k - 1] == 0.42


def test_eval_2d_interpolates_grid():
    h = StepFn2D.upper_right(0.3, -0.2)
    gx, gy = cheb_grid(7), cheb_grid(5)
    for xi in gx[:3]:
        for yj in gy[:3]:
            got = lagrange_eval_2d(h, 7, 5, float(xi), float(yj))
            assert got == pytest.approx(h(float(xi), float(yj)), abs=1e-10)


def test_eval_2d_double_node_hit_gives_one():
    # both offsets vanish: n-1 divisible by 3 and by 2
    spec_x, spec_y = PointSpec.rational(1, 3), PointSpec.rational(1, 2)
    n, m = 7, 7
    assert grid_offset(spec_x, n) == 0.0 and grid_offset(spec_y, m) == 0.0
    x0, y0 = math.cos(math.pi / 3.0), math.cos(math.pi / 2.0)
    h = StepFn2D.upper_right(x0, y0)
    assert lagrange_eval_2d(h, n, m, x0, y0, cross_check=True) == pytest.approx(1.0, abs=1e-12)


def test_eval_2d_constant_one():
    h = StepFn2D.upper_right(-2.0, -2.0)  # step is 1 on all of [-1,1]^2
    assert lagrange_eval_2d(h, 9, 6, 0.37, -0.81, cross_check=True) == pytest.approx(
        1.0, abs=1e-10)


def test_node_hit_samples_the_step_at_the_jump():
    # x0 = cos(pi/3) is a node whenever 3 divides n - 1, but the rounded node
    # falls below x0, where the quadrant step is 0; every evaluator must give
    # the step's value at the jump there, as the windows do
    spec_x, spec_y = PointSpec.rational(1, 3), PointSpec.rational(1, 2)
    x0, y0 = math.cos(math.pi / 3.0), math.cos(math.pi / 2.0)
    h = StepFn2D.upper_right(x0, y0)
    u = jump_sequence(spec_x, 1.0, 200)
    v = jump_sequence(spec_y, 1.0, 200)
    at_x0 = step_sequence_at(x0, x0, 200)
    for n in range(2, 201):
        assert lagrange_eval_1d(h.fx, n, x0) == u[n - 1] == at_x0[n - 1]
        assert lagrange_eval_2d(h, n, n, x0, y0, cross_check=True) == u[n - 1] * v[n - 1]
    assert lagrange_eval_2d(h, 100, 100, x0, y0) == pytest.approx(0.5, abs=1e-12)


def test_no_false_node_hits_at_large_n():
    """Near n = 10**6 the nodes closest to cos(pi/50) lie 4e-9 or more from
    it unless the grid offset is zero; a hit must mean that offset."""
    spec = PointSpec.rational(1, 50)
    theta0 = math.pi * spec.value
    x0 = math.cos(theta0)
    step = StepFn1D.indicator_from(x0)
    want = eval_jump_decomposed(spec, 1.0, 999_000)
    assert want == pytest.approx(0.014190206, abs=1e-9)
    assert lagrange_eval_1d(step, 999_000, x0) == pytest.approx(want, abs=1e-9)
    assert jump_sequence(spec, 1.0, 999_000, indices=[999_000])[0] == pytest.approx(want, abs=1e-9)
    assert lagrange_eval_1d(step, 999_001, x0) == 1.0
    for n in range(999_000, 1_000_001):
        assert (lg._node_hit(n, x0, theta0) is not None) == (grid_offset(spec, n) == 0.0), n


def test_cplus_h_polynomial_reproduction():
    for n in (3, 6, 20):
        got = lagrange_eval_1d(lambda x: x**2, n, 0.31)
        assert got == pytest.approx(0.31**2, abs=1e-10)


def test_cplus_h_two_jump_convergence_scan():
    # a continuous part plus two weighted jumps is interpolated as one function
    jumps = [(math.cos(math.pi / 3.0), 1.0, 1.0), (math.cos(2.0 * math.pi / 5.0), 0.5, -2.0)]

    def truth(x):
        total = np.cos(np.asarray(x))
        for xk, dk, ck in jumps:
            total = total + ck * StepFn1D.jump(xk, dk)(x)
        return total

    grid = np.concatenate([
        np.linspace(-1.0, jumps[1][0] - 0.2, 24),
        np.linspace(jumps[0][0] + 0.2, 1.0, 24),
    ])
    sups = []
    for n in (250, 1000):
        err = [abs(lagrange_eval_1d(truth, n, float(x)) - truth(float(x))) for x in grid]
        sups.append(max(err))
    assert sups[1] < sups[0]
    assert sups[1] <= 0.02


def test_uniform_boundedness_at_jump():
    for spec in (PointSpec.rational(1, 3), PointSpec.irrational("inv_sqrt2")):
        vals = jump_sequence(spec, 1.0, 5000)
        assert np.abs(vals).max() <= 10.0


def test_step_sequence_at_away_from_jump_converges():
    vals = step_sequence_at(0.5, 0.9, 400)
    assert abs(vals[-1] - 1.0) <= 0.01
    vals_lo = step_sequence_at(0.5, -0.4, 400)
    assert abs(vals_lo[-1]) <= 0.01
