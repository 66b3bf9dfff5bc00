import numpy as np
import pytest

from conidx.points import PointSpec
from conidx.profiles import shepard_jump_profile
from conidx.shepard import (
    ShepardParams,
    node_index,
    shepard_eval_1d,
    shepard_eval_2d,
    shepard_weights_1d,
    step_sequence,
    step_sequence_at,
)
from conidx.stepfn import StepFn1D, StepFn2D


def test_params_validation():
    with pytest.raises(ValueError):
        ShepardParams(s=0.5, n=10)
    with pytest.raises(ValueError):
        ShepardParams(s=2.0, n=0)
    with pytest.raises(ValueError):
        ShepardParams(s=float("nan"), n=3)


def test_weights_worked_example():
    # distances 1/4, 1/4, 3/4 -> raw weights 4, 4, 4/3 -> (3/7, 3/7, 1/7)
    w = shepard_weights_1d(ShepardParams(s=1.0, n=2), 0.25)
    assert np.allclose(w, [3.0 / 7.0, 3.0 / 7.0, 1.0 / 7.0], atol=1e-12)


def test_weights_unit_vector_at_nodes():
    params = ShepardParams(s=2.0, n=7)
    for i, node in enumerate(params.nodes):
        w = shepard_weights_1d(params, float(node))
        assert w[i] == 1.0 and np.count_nonzero(w) == 1


def test_weights_symmetric_midpoint():
    w = shepard_weights_1d(ShepardParams(s=2.0, n=1), 0.5)
    assert np.allclose(w, [0.5, 0.5], atol=1e-15)


def test_weights_normalized_and_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(40):
        params = ShepardParams(s=float(rng.uniform(1.0, 6.0)), n=int(rng.integers(1, 120)))
        w = shepard_weights_1d(params, float(rng.random()))
        assert w.min() >= 0.0
        assert abs(w.sum() - 1.0) <= 1e-12


def test_weights_domain():
    with pytest.raises(ValueError):
        shepard_weights_1d(ShepardParams(s=2.0, n=3), 1.5)


def test_eval_constant_and_range():
    params = ShepardParams(s=2.0, n=25)
    assert shepard_eval_1d(lambda x: np.full_like(x, 2.5), params, 0.3) == pytest.approx(2.5)
    step = StepFn1D.indicator_upto(0.4)
    rng = np.random.default_rng(5)
    for x in rng.random(25):
        v = shepard_eval_1d(step, params, float(x))
        assert 0.0 <= v <= 1.0


def test_node_index_exact_rational():
    spec = PointSpec.rational(1, 3)
    hits = [n for n in range(1, 31) if node_index(spec, n) is not None]
    assert hits == [3, 6, 9, 12, 15, 18, 21, 24, 27, 30]
    assert node_index(spec, 6) == 2
    assert node_index(PointSpec.irrational("inv_sqrt2"), 1000) is None


def test_eval_2d_grid_values_and_cross_check():
    h = StepFn2D.lower_left(0.5, 0.5)
    px, py = ShepardParams(s=2.0, n=8), ShepardParams(s=2.0, n=6)
    for xi in (0.0, 0.25, 0.5):
        for yj in (0.0, 0.5, 1.0):
            got = shepard_eval_2d(h, px, py, xi, yj, cross_check=True)
            assert got == pytest.approx(h(xi, yj), abs=1e-12)


def test_eval_2d_all_ones():
    h = StepFn2D.lower_left(2.0, 2.0)  # 1 on every node
    got = shepard_eval_2d(h, ShepardParams(s=1.5, n=9), ShepardParams(s=1.5, n=4),
                          0.37, 0.81, cross_check=True)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_step_sequence_clusters_s2_half():
    # jump at 1/2: even n hit the node (closed step value 1), odd n give 1/2
    spec = PointSpec.rational(1, 2)
    vals = step_sequence(spec, 2.0, 400)
    assert np.allclose(vals[1::2], 1.0)           # even n
    assert abs(vals[-2] - 0.5) <= 1e-12           # odd n, exact by symmetry
    assert abs(shepard_jump_profile(2.0, 0.5) - 0.5) <= 1e-12


def test_step_sequence_clusters_s2_third():
    # offsets cycle with period 3; non-node arms approach the power profile
    spec = PointSpec.rational(1, 3)
    vals = step_sequence(spec, 2.0, 2000)
    lim1 = shepard_jump_profile(2.0, 1.0 / 3.0)
    lim2 = shepard_jump_profile(2.0, 2.0 / 3.0)
    assert vals[2000 - 1 - 0] == pytest.approx(lim2, abs=5e-3)  # 2000*1 mod 3 = 2
    assert vals[1999 - 1] == pytest.approx(lim1, abs=5e-3)      # 1999 mod 3 = 1
    assert vals[2000 - 1 - 2] == 1.0                            # 1998 divisible by 3


def test_step_sequence_s1_odd_arm_is_half():
    spec = PointSpec.rational(1, 2)
    vals = step_sequence(spec, 1.0, 1001)
    assert np.allclose(vals[0::2], 0.5)   # odd n, exact by symmetry
    assert np.allclose(vals[1::2], 1.0)   # node hits


def test_eval_2d_s1_corner_odd_odd_quarter():
    h = StepFn2D.lower_left(0.5, 0.5)
    params = ShepardParams(s=1.0, n=1999)
    got = shepard_eval_2d(h, params, params, 0.5, 0.5)
    assert got == pytest.approx(0.25, abs=1e-2)


def test_step_sequence_at_converges_off_jump():
    vals = step_sequence_at(0.75, 2.0, 0.3, 500)
    assert abs(vals[-1] - 1.0) <= 0.01
    vals_hi = step_sequence_at(0.75, 2.0, 0.95, 500)
    assert abs(vals_hi[-1]) <= 0.02
