"""Bit-identity of the window generators and the CSV writer.

The reference functions below are the per-n loops the generators and the
writer replaced: one fresh node grid, sign, weight and step-value array per
n, and one formatted line per CSV row.  The fast paths must give the same
IEEE doubles and the same bytes, so results are compared with `.tobytes()`
(a -0.0 prints as `-0` in a CSV, which `array_equal` would not notice).
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conidx import lagrange as lg
from conidx import shepard as sh
from conidx.density import SeqWindow
from conidx.points import IRRATIONAL_VALUES, PointSpec
from conidx.reports import emit_csv
from conidx.stepfn import StepFn1D

# ---------------------------------------------------------------------------
# reference loops


def ref_lagrange_weights(n, x):
    nodes = np.cos((np.arange(1, n + 1) - 1) * (math.pi / (n - 1)))
    dist = np.abs(x - nodes)
    j = int(np.argmin(dist))
    if dist[j] <= lg.NODE_COLLISION * n:
        out = np.zeros(n)
        out[j] = 1.0
        return out
    theta = math.acos(min(1.0, max(-1.0, x)))
    k = np.arange(1, n + 1)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    fac = 1.0 + (k == 1) + (k == n)
    s = math.sin((n - 1) * theta) * math.sin(theta)
    return sign / ((n - 1) * fac) * s / (x - nodes)


def ref_jump_value(step, x0, theta0, sigma, n):
    if sigma == 0.0:
        return float(step(x0))
    k = np.arange(1, n + 1)
    nodes = np.cos((k - 1) * (math.pi / (n - 1)))
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    fac = 1.0 + (k == 1) + (k == n)
    s = math.sin((n - 1) * theta0) * math.sin(theta0)
    weights = sign / ((n - 1) * fac) * s / (x0 - nodes)
    return float(weights @ step(nodes))


def ref_jump_sequence(spec, d, n_max, step=None):
    theta0 = math.pi * spec.value
    x0 = math.cos(theta0)
    if step is None:
        step = StepFn1D.jump(x0, d)
    out = np.empty(n_max)
    out[0] = step(1.0)
    for n in range(2, n_max + 1):
        out[n - 1] = ref_jump_value(step, x0, theta0, lg.grid_offset(spec, n), n)
    return out


def ref_lagrange_step_sequence_at(step, x, n_max):
    out = np.empty(n_max)
    out[0] = step(1.0)
    for n in range(2, n_max + 1):
        nodes = np.cos((np.arange(1, n + 1) - 1) * (math.pi / (n - 1)))
        # a node hit samples the step at x itself, not at the rounded node
        nodes = np.where(np.abs(x - nodes) <= lg.NODE_COLLISION * n, x, nodes)
        out[n - 1] = float(ref_lagrange_weights(n, x) @ np.asarray(step(nodes), dtype=float))
    return out


def ref_shepard_weights(s, n, x):
    nodes = np.arange(n + 1) / n
    dist = np.abs(x - nodes)
    j = int(np.argmin(dist))
    if dist[j] <= sh.NODE_PROXIMITY:
        out = np.zeros(n + 1)
        out[j] = 1.0
        return out
    w = (dist[j] / dist) ** s
    return w / w.sum()


def ref_shepard_step_sequence(spec, s, n_max, step=None):
    x0 = spec.value
    if step is None:
        step = StepFn1D.indicator_upto(x0)
    out = np.empty(n_max)
    for n in range(1, n_max + 1):
        if sh.node_index(spec, n) is not None:
            out[n - 1] = step(x0)
            continue
        out[n - 1] = float(ref_shepard_weights(s, n, x0) @ step(np.arange(n + 1) / n))
    return out


def ref_shepard_step_sequence_at(step, s, x, n_max):
    out = np.empty(n_max)
    for n in range(1, n_max + 1):
        samples = np.asarray(step(np.arange(n + 1) / n), dtype=float)
        out[n - 1] = float(ref_shepard_weights(s, n, x) @ samples)
    return out


def ref_emit_csv(win, path):
    lines = []
    if win.dim == 1:
        lines.append("n,value")
        for i, v in enumerate(win.values, start=1):
            lines.append(f"{i},{v:.17g}")
    else:
        lines.append("n,m,value")
        u, v = win.factors
        matrix = u[:, None] + v[None, :] if win.op is np.add else u[:, None] * v[None, :]
        for n in range(1, win.n_max + 1):
            for m in range(1, win.n_max + 1):
                lines.append(f"{n},{m},{matrix[n - 1, m - 1]:.17g}")
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# windows

RATIONALS = [(1, 3), (2, 5), (1, 4), (1, 2), (3, 7)]
SPECS = ([PointSpec.rational(p, q) for p, q in RATIONALS]
         + [PointSpec.irrational(name) for name in sorted(IRRATIONAL_VALUES)])
SPEC_IDS = [spec.label() for spec in SPECS]


def same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.tobytes() != want.tobytes():
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        pytest.fail(f"{bad.size} entries differ, first n = {bad[0] + 1}: "
                    f"{got[bad[0]]!r} != {want[bad[0]]!r}")


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_jump_sequence_bit_identical(spec):
    for d in (0.5, 1.0):
        same_bits(lg.jump_sequence(spec, d, 2000), ref_jump_sequence(spec, d, 2000))
    x0 = math.cos(math.pi * spec.value)
    for step in (StepFn1D.indicator_from(x0), StepFn1D.indicator_upto(x0)):
        same_bits(lg.jump_sequence(spec, 1.0, 700, step=step),
                  ref_jump_sequence(spec, 1.0, 700, step=step))


def head_steps(x0):
    """The step orientations through `lagrange._window`: left = 0 (head only)
    and left != 0 (every node)."""
    return (StepFn1D.jump(x0, 0.5), StepFn1D.indicator_from(x0), StepFn1D.indicator_upto(x0),
            StepFn1D(x0=x0, left=0.0, at=-0.3, right=2.5),
            StepFn1D(x0=x0, left=-1.25, at=0.0, right=0.75))


@settings(max_examples=25, deadline=None)
@given(q=st.integers(2, 2000), p=st.integers(1, 1999), d=st.sampled_from([0.0, 0.5, 1.0]),
       n_max=st.integers(2, 2000))
def test_jump_sequence_head_bit_identical_over_rationals(q, p, d, n_max):
    """Large q puts the jump within 1/q of a node; d = 0 zeroes the jump value too."""
    p = p % q or 1
    g = math.gcd(p, q)
    spec = PointSpec.rational(p // g, q // g)
    same_bits(lg.jump_sequence(spec, d, n_max), ref_jump_sequence(spec, d, n_max))


@pytest.mark.parametrize("p", [1, 996])
def test_jump_sequence_head_edges(p):
    """At 1/997 the head holds one node up to n = 997 and two up to 1994; at
    996/997 it holds all but the last node, and left != 0 makes it all."""
    spec = PointSpec.rational(p, 997)
    theta0 = math.pi * spec.value
    x0 = math.cos(theta0)
    for step in head_steps(x0):
        same_bits(lg.jump_sequence(spec, step.at, 2000, step=step),
                  ref_jump_sequence(spec, step.at, 2000, step=step))
    for n in (2, 3, 997, 998, 1994, 1995):
        got = lg.jump_value_direct(spec, 0.5, n)
        want = ref_jump_value(StepFn1D.jump(x0, 0.5), x0, theta0, lg.grid_offset(spec, n), n)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_jump_sequence_head_at_rounded_nodes():
    """Steps whose jump is a rounded node, or the end -1, where the estimated
    head falls short of the nodes at or above the jump and has to grow."""
    n, k = 7, 1
    node = float(np.cos(k * (math.pi / (n - 1))))
    assert int((n - 1) * math.acos(node) / math.pi) + 1 <= k
    spec = PointSpec.rational(2, 7)
    for x0 in (node, -1.0):
        for step in head_steps(x0):
            same_bits(lg.jump_sequence(spec, 1.0, 600, step=step),
                      ref_jump_sequence(spec, 1.0, 600, step=step))


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_shepard_step_sequence_bit_identical(spec):
    for s in (1.0, 2.0, 2.5, 3.0):
        same_bits(sh.step_sequence(spec, s, 2000), ref_shepard_step_sequence(spec, s, 2000))
    step = StepFn1D.indicator_from(spec.value)
    same_bits(sh.step_sequence(spec, 2.0, 700, step=step),
              ref_shepard_step_sequence(spec, 2.0, 700, step=step))


def test_lagrange_step_sequence_at_bit_identical():
    x0 = math.cos(math.pi / 3)
    # 0.5 = x0 is a node whenever 3 divides n - 1: the proximity rule decides it
    for x in (0.9, -0.4, 0.5, math.cos(math.pi / 4), 0.0):
        for step in (StepFn1D.indicator_from(x0), StepFn1D.indicator_upto(x0)):
            same_bits(lg.step_sequence_at(step, x, 600),
                      ref_lagrange_step_sequence_at(step, x, 600))


def test_shepard_step_sequence_at_bit_identical():
    for s in (1.0, 2.0, 2.5, 3.0):
        for x in (0.3, 0.5, 0.95, 0.0, 1.0, IRRATIONAL_VALUES["golden_frac"]):
            for step in (StepFn1D.indicator_from(0.5), StepFn1D.indicator_upto(1 / 3)):
                same_bits(sh.step_sequence_at(step, s, x, 400),
                          ref_shepard_step_sequence_at(step, s, x, 400))


@settings(max_examples=30, deadline=None)
@given(q=st.integers(2, 60), p=st.integers(1, 59), d=st.sampled_from([0.5, 1.0]),
       n_max=st.integers(2, 400), s=st.sampled_from([1.0, 2.0, 2.5, 3.0]))
def test_windows_bit_identical_over_rationals(q, p, d, n_max, s):
    p = p % q or 1
    g = math.gcd(p, q)
    spec = PointSpec.rational(p // g, q // g)
    same_bits(lg.jump_sequence(spec, d, n_max), ref_jump_sequence(spec, d, n_max))
    same_bits(sh.step_sequence(spec, s, n_max), ref_shepard_step_sequence(spec, s, n_max))


def test_single_values_bit_identical():
    """`jump_value_direct` (`conidx eval`) and the one-n weight vectors."""
    for spec in SPECS:
        theta0 = math.pi * spec.value
        x0 = math.cos(theta0)
        step = StepFn1D.jump(x0, 0.5)
        for n in (2, 3, 12, 301, 1000):
            got = lg.jump_value_direct(spec, 0.5, n)
            want = ref_jump_value(step, x0, theta0, lg.grid_offset(spec, n), n)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 200))
        x = float(rng.uniform(-1.0, 1.0))
        same_bits(lg.fundamental_weights(lg.cheb_grid(n), x), ref_lagrange_weights(n, x))
        node = float(lg.cheb_grid(n).nodes[int(rng.integers(0, n))])
        same_bits(lg.fundamental_weights(lg.cheb_grid(n), node), ref_lagrange_weights(n, node))
        s = float(rng.uniform(1.0, 4.0))
        xs = float(rng.random())
        params = sh.ShepardParams(s, n)
        same_bits(sh.shepard_weights_1d(params, xs), ref_shepard_weights(s, n, xs))
        node = float(params.nodes[int(rng.integers(0, n + 1))])
        same_bits(sh.shepard_weights_1d(params, node), ref_shepard_weights(s, n, node))


def test_sample_sorted_matches_call():
    step = StepFn1D.jump(0.25, 0.5)
    for nodes in (np.array([1.0, 0.5, 0.25, 0.25, 0.0, -1.0]), np.linspace(-1.0, 1.0, 9),
                  np.array([0.25]), np.array([0.3, 0.2]), np.array([-2.0, 2.0])):
        out = np.empty_like(nodes)
        step.sample_sorted(nodes, out)
        same_bits(out, step(nodes))


# ---------------------------------------------------------------------------
# CSV emission

WINDOWS = {
    "1d": SeqWindow.from_values_1d([0.1, -0.0, 1.0, 1e-300, 2.0 / 3.0, 123456789.0]),
    "product": SeqWindow.from_product(np.random.default_rng(0).random(37) - 0.5,
                                      np.r_[-0.0, np.random.default_rng(1).random(36)]),
    "sum": SeqWindow.from_sum(np.random.default_rng(2).random(23) * 1e-7,
                              np.r_[-0.0, -np.random.default_rng(3).random(22) * 1e-7]),
}


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_emit_csv_bytes_match_line_writer(tmp_path, name):
    win = WINDOWS[name]
    emit_csv(win, tmp_path / "new.csv")
    ref_emit_csv(win, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
