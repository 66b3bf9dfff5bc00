import math

import numpy as np
import pytest

from conidx import lagrange as lg
from conidx import shepard as sh
from conidx.points import IRRATIONAL_VALUES, PointSpec
from conidx.stepfn import StepFn1D, StepFn2D


def test_rational_validation():
    with pytest.raises(ValueError):
        PointSpec.rational(2, 4)
    with pytest.raises(ValueError):
        PointSpec.rational(1, 0)
    with pytest.raises(ValueError):
        PointSpec.rational(5, 3)
    spec = PointSpec.rational(2, 5)
    assert spec.value == pytest.approx(0.4)
    assert spec.label() == "2/5"


def test_irrational_presets():
    for name, value in IRRATIONAL_VALUES.items():
        spec = PointSpec.irrational(name)
        assert 0.0 < spec.value < 1.0
        assert spec.value == value
        assert not spec.is_rational
    with pytest.raises(ValueError, match="presets"):
        PointSpec.irrational("sqrt3")


def test_parse():
    assert PointSpec.parse("1/3") == PointSpec.rational(1, 3)
    assert PointSpec.parse("golden_frac") == PointSpec.irrational("golden_frac")


def test_multiples_exact_for_rationals():
    spec = PointSpec.rational(2, 5)
    assert spec.multiple_mod1(7) == pytest.approx(4.0 / 5.0)
    # huge multiplier stays exact where floats would have drifted
    assert spec.multiple_mod1(10**12 + 3) == ((2 * (10**12 + 3)) % 5) / 5
    irr = PointSpec.irrational("e_minus_2")
    assert irr.multiple_mod1(3) == pytest.approx((3 * (math.e - 2.0)) % 1.0)


def test_require_interior():
    PointSpec.rational(1, 2).require_interior()
    with pytest.raises(ValueError):
        PointSpec.rational(0, 1).require_interior()
    with pytest.raises(ValueError):
        PointSpec.rational(1, 1).require_interior()


def test_step_orientations():
    jump = StepFn1D.jump(0.3, 0.8)
    assert (jump(0.0), jump(0.3), jump(0.5)) == (0.0, 0.8, 1.0)
    le = StepFn1D.indicator_upto(0.3)
    assert (le(0.2), le(0.3), le(0.4)) == (1.0, 1.0, 0.0)


def test_step_vectorized():
    step = StepFn1D.jump(0.0, -1.0)
    out = step(np.array([-0.5, 0.0, 0.5]))
    assert np.array_equal(out, [0.0, -1.0, 1.0])


def test_step_rejects_nan_jump_and_non_finite_values():
    """A NaN jump point compares false with every point, so the step took
    its jump value everywhere: the Lagrange window returned 1.0 at every n
    and the Shepard window failed on converting NaN to an integer."""
    for make in (lambda: StepFn1D.jump(math.nan, 1.0),
                 lambda: lg.step_sequence_at(math.nan, 0.3, 6),
                 lambda: sh.step_sequence_at(math.nan, 2.0, 0.3, 6),
                 lambda: lg.lagrange_eval_1d(StepFn1D.jump(math.nan, 1.0), 6, 0.3)):
        with pytest.raises(ValueError, match="jump point must not be NaN"):
            make()
    for values in ((math.nan, 1.0, 1.0), (0.0, math.inf, 1.0), (0.0, 1.0, -math.inf)):
        with pytest.raises(ValueError, match="step values must be finite"):
            StepFn1D(0.3, *values)
    with pytest.raises(ValueError, match="step values must be finite"):
        lg.lagrange_eval_1d(StepFn1D.jump(0.3, math.nan), 6, 0.3)


def test_step_with_infinite_jump_is_constant():
    for x0, below in ((math.inf, 0.0), (-math.inf, 1.0)):
        jump = StepFn1D.jump(x0, 0.5)
        assert np.array_equal(jump(np.array([-1.0, 0.3, 1.0])), [below] * 3)
        assert lg.step_sequence_at(x0, 0.3, 6) == pytest.approx([below] * 6, abs=1e-15)
        assert lg.lagrange_eval_1d(jump, 6, 0.3) == pytest.approx(below, abs=1e-15)
        assert sh.step_sequence_at(x0, 2.0, 0.3, 6) == pytest.approx([1.0 - below] * 6)


def test_step2d_factorizations():
    ur = StepFn2D.upper_right(0.2, -0.1)
    assert ur(0.2, -0.1) == 1.0
    assert ur(0.5, 0.5) == 1.0
    assert ur(0.0, 0.5) == 0.0
    ll = StepFn2D.lower_left(0.5, 0.5)
    # closed rectangle: the corner itself carries 1
    assert ll(0.5, 0.5) == 1.0
    assert ll(0.2, 0.2) == 1.0
    assert ll(0.6, 0.2) == 0.0
    # tensor identity everywhere
    for x in (0.0, 0.5, 0.7):
        for y in (0.3, 0.5, 0.9):
            assert ll(x, y) == ll.fx(x) * ll.fy(y)
