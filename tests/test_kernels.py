"""Bit-identity of the window generators and the CSV writer.

The reference functions below are the per-n loops the generators and the
writer replaced: one fresh node grid, sign, weight and step-value array per
n, and one formatted line per CSV row.  The fast paths must give the same
IEEE doubles and the same bytes, so results are compared with `.tobytes()`
(a -0.0 prints as `-0` in a CSV, which `array_equal` would not notice).
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conidx import lagrange as lg
from conidx import reports
from conidx import shepard as sh
from conidx.density import SeqWindow
from conidx.harness import MAX_WINDOW_2D, ExperimentSpec, generate_window
from conidx.points import IRRATIONAL_VALUES, PointSpec
from conidx.reports import emit_csv
from conidx.stepfn import StepFn1D

# ---------------------------------------------------------------------------
# reference loops


def ref_lagrange_weights(n, x):
    nodes = np.cos((np.arange(1, n + 1) - 1) * (math.pi / (n - 1)))
    dist = np.abs(x - nodes)
    j = int(np.argmin(dist))
    if dist[j] <= lg.NODE_COLLISION:
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


def ref_lagrange_step_value(step, x, n):
    nodes = np.cos((np.arange(1, n + 1) - 1) * (math.pi / (n - 1)))
    # a node hit samples the step at x itself, not at the rounded node
    nodes = np.where(np.abs(x - nodes) <= lg.NODE_COLLISION, x, nodes)
    return float(ref_lagrange_weights(n, x) @ np.asarray(step(nodes), dtype=float))


def ref_lagrange_step_sequence_at(step, x, n_max):
    out = np.empty(n_max)
    out[0] = step(1.0)
    for n in range(2, n_max + 1):
        out[n - 1] = ref_lagrange_step_value(step, x, n)
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


def ref_shepard_value(spec, s, n, step):
    x0 = spec.value
    if sh.node_index(spec, n) is not None:
        return float(step(x0))
    return float(ref_shepard_weights(s, n, x0) @ step(np.arange(n + 1) / n))


def ref_shepard_step_sequence(spec, s, n_max, step=None):
    if step is None:
        step = StepFn1D.indicator_upto(spec.value)
    return np.array([ref_shepard_value(spec, s, n, step) for n in range(1, n_max + 1)])


def ref_shepard_step_sequence_at(step, s, x, n_max):
    out = np.empty(n_max)
    for n in range(1, n_max + 1):
        samples = np.asarray(step(np.arange(n + 1) / n), dtype=float)
        out[n - 1] = float(ref_shepard_weights(s, n, x) @ samples)
    return out


def ref_correction_term(theta0, n, k0, m, sigma_m):
    t_node = (k0 - m - 1) * math.pi / (n - 1)
    half_gap = math.pi * sigma_m / (2.0 * (n - 1))
    denom = 2.0 * np.sin((theta0 + t_node) / 2.0) * np.sin(half_gap)
    return math.sin(theta0) / denom - (n - 1) / (math.pi * sigma_m)


def ref_eval_jump_decomposed(spec, d, n):
    sigma = lg.grid_offset(spec, n)
    if sigma == 0.0:
        return float(d)
    theta0 = math.pi * spec.value
    k0 = int((n - 1) * spec.value) + 1 if not spec.is_rational else ((n - 1) * spec.p) // spec.q + 1
    sin_pi_sigma = math.sin(math.pi * sigma)
    boundary = (
        (-1.0) ** (k0 - 1)
        * sin_pi_sigma
        * math.sin(theta0)
        / (2.0 * (n - 1) * (math.cos(theta0) - 1.0))
    )
    m = np.arange(k0, dtype=float)
    sigma_m = sigma + m
    alt = np.resize([1.0, -1.0], k0)
    series = sin_pi_sigma / math.pi * float((alt / sigma_m).sum())
    corr = sin_pi_sigma / (n - 1) * float(
        (alt * ref_correction_term(theta0, n, k0, m, sigma_m)).sum())
    return boundary + series + corr


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


# the jump values of the Lagrange step `StepFn1D.jump(x0, d)`; d = 0 zeroes
# the value at a node hit too
JUMP_VALUES = (0.0, 0.5, 1.0)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_jump_sequence_bit_identical(spec):
    for d, n_max in ((0.0, 700), (0.5, 2000), (1.0, 2000)):
        same_bits(lg.jump_sequence(spec, d, n_max), ref_jump_sequence(spec, d, n_max))


@settings(max_examples=25, deadline=None)
@given(q=st.integers(2, 2000), p=st.integers(1, 1999), d=st.sampled_from(JUMP_VALUES),
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
    996/997 it holds all but the last node."""
    spec = PointSpec.rational(p, 997)
    theta0 = math.pi * spec.value
    x0 = math.cos(theta0)
    for d in JUMP_VALUES:
        same_bits(lg.jump_sequence(spec, d, 2000), ref_jump_sequence(spec, d, 2000))
    for n in (2, 3, 997, 998, 1994, 1995):
        got = lg.jump_sequence(spec, 0.5, n, indices=[n])[0]
        want = ref_jump_value(StepFn1D.jump(x0, 0.5), x0, theta0, lg.grid_offset(spec, n), n)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_jump_sequence_head_at_rounded_nodes():
    """Jumps at a rounded node, or at the end -1, where the estimated head
    falls short of the nodes at or above the jump and has to grow.  The node
    equals x0 without a node hit at x, so its sample is patched to +-d; at
    -1 the head reaches the last node, whose sample is patched to its
    halving."""
    n, k = 7, 1
    node = float(np.cos(k * (math.pi / (n - 1))))
    assert int((n - 1) * math.acos(node) / math.pi) + 1 <= k
    spec = PointSpec.rational(2, 7)
    theta = math.pi * spec.value
    x = math.cos(theta)
    for x0 in (node, -1.0):
        same_bits(lg.step_sequence_at(x0, x, 600),
                  ref_lagrange_step_sequence_at(StepFn1D.jump(x0, 1.0), x, 600))
        # no public window has a jump value d != 1 off its jump point
        for d in JUMP_VALUES:
            same_bits(lg._window(x0, d, x, theta, range(1, 601), spec),
                      ref_jump_sequence(spec, 1.0, 600, step=StepFn1D.jump(x0, d)))


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_shepard_step_sequence_bit_identical(spec):
    for s in (1.0, 2.0, 2.5, 3.0):
        same_bits(sh.step_sequence(spec, s, 2000), ref_shepard_step_sequence(spec, s, 2000))


def shepard_blocks(monkeypatch, block=None):
    """The rows (their n) of every block the Shepard kernel evaluates, as it
    runs; with block, a block holds at most that many doubles."""
    if block is not None:
        monkeypatch.setattr(sh, "_BLOCK", block)
    blocks = []
    rows = sh._rows

    def spy(out, buf, kf, steps, x, s, ns, *rest):
        blocks.append(list(ns))
        rows(out, buf, kf, steps, x, s, ns, *rest)

    monkeypatch.setattr(sh, "_rows", spy)
    return blocks


BLOCK_EXPONENTS = (1.0, 1.5, 2.0, 3.0, 40.0)


@pytest.mark.parametrize("s", BLOCK_EXPONENTS)
@pytest.mark.parametrize("block", [None, 1000, 1], ids=["256kB", "1000", "one-row"])
def test_shepard_blocks_bit_identical(monkeypatch, s, block):
    """Windows whose rows split across blocks: at the jump with exact node
    hits between the rows (1/3, 2/5) and without hits (golden_frac), and at
    general points with proximity hits (x = 3/7, a node whenever 7 divides
    n) and without."""
    blocks = shepard_blocks(monkeypatch, block)
    n_max = 400
    for spec in (PointSpec.rational(1, 3), PointSpec.rational(2, 5),
                 PointSpec.irrational("golden_frac")):
        same_bits(sh.step_sequence(spec, s, n_max), ref_shepard_step_sequence(spec, s, n_max))
    for x0, x in ((1 / 3, 3 / 7), (3 / 7, 3 / 7), (0.5, 0.8), (0.8, 0.5)):
        same_bits(sh.step_sequence_at(x0, s, x, n_max),
                  ref_shepard_step_sequence_at(StepFn1D.indicator_upto(x0), s, x, n_max))
    if block == 1:
        assert {len(b) for b in blocks} == {1}
    else:
        assert len(blocks) > 7 and max(map(len, blocks)) > 1
        # hits fall between the rows of a block
        assert any(np.any(np.diff(b) > 1) for b in blocks)


# the rational windows above, and the oracle's edge cases: one node above the
# jump (1/997), all but one (996/997) and a jump next to the middle (498/997)
DECOMPOSED_SPECS = SPECS + [PointSpec.rational(p, 997) for p in (1, 498, 996)]


@pytest.mark.parametrize("spec", DECOMPOSED_SPECS, ids=lambda spec: spec.label())
def test_eval_jump_decomposed_bit_identical(spec):
    """Every n up to 300 and 40 sampled n up to 10**4."""
    ns = np.r_[2:301, np.random.default_rng(5).integers(301, 10_001, 40)].tolist()
    for d in JUMP_VALUES:
        got = np.array([lg.eval_jump_decomposed(spec, d, n) for n in ns])
        want = np.array([ref_eval_jump_decomposed(spec, d, n) for n in ns])
        assert got.tobytes() == want.tobytes(), [n for n, a, b in zip(ns, got, want) if a != b]


def test_lagrange_step_sequence_at_bit_identical():
    x0 = math.cos(math.pi / 3)
    # 0.5 = x0 is a node whenever 3 divides n - 1: the proximity rule decides it
    for x in (0.9, -0.4, 0.5, math.cos(math.pi / 4), 0.0):
        same_bits(lg.step_sequence_at(x0, x, 600),
                  ref_lagrange_step_sequence_at(StepFn1D.jump(x0, 1.0), x, 600))


def test_shepard_step_sequence_at_bit_identical():
    for s in (1.0, 2.0, 2.5, 3.0):
        for x in (0.3, 0.5, 0.95, 0.0, 1.0, IRRATIONAL_VALUES["golden_frac"]):
            for x0 in (0.5, 1 / 3):
                same_bits(sh.step_sequence_at(x0, s, x, 400),
                          ref_shepard_step_sequence_at(StepFn1D.indicator_upto(x0), s, x, 400))


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
    """The one-index windows {n} (`conidx eval`) and the one-n weight vectors."""
    for spec in SPECS:
        theta0 = math.pi * spec.value
        x0 = math.cos(theta0)
        step = StepFn1D.jump(x0, 0.5)
        for n in (2, 3, 12, 301, 1000):
            got = lg.jump_sequence(spec, 0.5, n, indices=[n])[0]
            want = ref_jump_value(step, x0, theta0, lg.grid_offset(spec, n), n)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 200))
        x = float(rng.uniform(-1.0, 1.0))
        same_bits(lg.fundamental_weights(lg.cheb_grid(n), x), ref_lagrange_weights(n, x))
        node = float(lg.cheb_grid(n)[int(rng.integers(0, n))])
        same_bits(lg.fundamental_weights(lg.cheb_grid(n), node), ref_lagrange_weights(n, node))
        s = float(rng.uniform(1.0, 4.0))
        xs = float(rng.random())
        params = sh.ShepardParams(s, n)
        same_bits(sh.shepard_weights_1d(params, xs), ref_shepard_weights(s, n, xs))
        node = float(params.nodes[int(rng.integers(0, n + 1))])
        same_bits(sh.shepard_weights_1d(params, node), ref_shepard_weights(s, n, node))


def rational(p, q):
    p = p % q or 1
    g = math.gcd(p, q)
    return PointSpec.rational(p // g, q // g)


def check_windows_at_the_jump(spec, d, s, n_max):
    """Both operators at the jump of spec: Lagrange with jump value d."""
    same_bits(lg.jump_sequence(spec, d, n_max), ref_jump_sequence(spec, d, n_max))
    same_bits(sh.step_sequence(spec, s, n_max), ref_shepard_step_sequence(spec, s, n_max))


@settings(max_examples=40, deadline=None)
@given(q=st.integers(2, 2000), p=st.integers(1, 1999), d=st.sampled_from(JUMP_VALUES),
       s=st.sampled_from([1.0, 2.0, 2.5, 3.0]), n_max=st.integers(2, 700))
def test_windows_bit_identical_over_rationals_and_steps(q, p, d, s, n_max):
    check_windows_at_the_jump(rational(p, q), d, s, n_max)


@settings(max_examples=30, deadline=None)
@given(spec=st.sampled_from(SPECS), d=st.sampled_from(JUMP_VALUES),
       s=st.sampled_from([1.0, 2.0, 2.5, 3.0]), n_max=st.integers(2, 700))
def test_windows_bit_identical_over_presets_and_steps(spec, d, s, n_max):
    check_windows_at_the_jump(spec, d, s, n_max)


@pytest.mark.parametrize("p, q", [(1, 2), (1, 3), (2, 3), (1, 4), (3, 4)])
def test_windows_bit_identical_between_node_hits(p, q):
    """At small q every q-th n (Shepard) or every q-th n - 1 (Lagrange) is a
    node hit, so the weights must move across the skipped grids."""
    for d in JUMP_VALUES:
        for s in (1.0, 2.0, 2.5, 3.0):
            check_windows_at_the_jump(PointSpec.rational(p, q), d, s, 300)


@settings(max_examples=60, deadline=None)
@given(spec=st.one_of(st.sampled_from(SPECS),
                      st.builds(rational, st.integers(1, 1999), st.integers(2, 2000))),
       d=st.sampled_from(JUMP_VALUES), n=st.integers(2, 3000))
def test_single_n_windows_bit_identical(spec, d, n):
    theta0 = math.pi * spec.value
    x0 = math.cos(theta0)
    got = lg.jump_sequence(spec, d, n, indices=[n])[0]
    want = ref_jump_value(StepFn1D.jump(x0, d), x0, theta0, lg.grid_offset(spec, n), n)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


# ---------------------------------------------------------------------------
# index sets: a window at chosen n holds the prefix window's entries there

INDEX_N = 600


def taken(window, ns):
    return window[np.asarray(ns) - 1]


def lagrange_index_sets(spec, n_max):
    """n = 1 and the node hits with their neighbours, every 7th n, and single
    indices: n = 1, 2, the first node hit, the one after it and n_max."""
    hits = [n for n in range(2, n_max + 1) if lg.grid_offset(spec, n) == 0.0]
    mixed = sorted({1, n_max, *hits, *(n + 1 for n in hits[:-1]), *range(3, n_max, 7)})
    singles = {1, 2, n_max, *hits[:1], *(n + 1 for n in hits[:1])}
    return [mixed, np.array(hits[::3] or [n_max])] + [[n] for n in sorted(singles)]


@pytest.mark.parametrize("spec", DECOMPOSED_SPECS, ids=lambda spec: spec.label())
def test_jump_sequence_index_sets_bit_identical(spec):
    for d in JUMP_VALUES:
        full = lg.jump_sequence(spec, d, INDEX_N)
        for ns in lagrange_index_sets(spec, INDEX_N):
            same_bits(lg.jump_sequence(spec, d, INDEX_N, indices=ns), taken(full, ns))
        n = INDEX_N // 2
        same_bits(lg.jump_sequence(spec, d, n, indices=[n]), full[n - 1:n])


@pytest.mark.parametrize("s", BLOCK_EXPONENTS)
@pytest.mark.parametrize("block", [None, 1000], ids=["256kB", "1000"])
def test_shepard_index_sets_bit_identical(monkeypatch, s, block):
    """Exact node hits at 1/3 (every 3rd n) and proximity hits at x = 3/7
    (every 7th n) inside the sets; with 1000-double blocks the sets' rows
    straddle block boundaries."""
    blocks = shepard_blocks(monkeypatch, block)
    n_max = 400
    sets = [sorted({1, n_max, *range(2, n_max, 5), *range(3, n_max, 3), *range(7, n_max, 7)}),
            np.arange(250, 320), [1], [3], [7], [n_max]]
    spec = PointSpec.rational(1, 3)
    full = sh.step_sequence(spec, s, n_max)
    for ns in sets:
        blocks.clear()
        same_bits(sh.step_sequence(spec, s, n_max, indices=ns), taken(full, ns))
        if block == 1000 and len(ns) > 1:
            assert len(blocks) > 1 and max(map(len, blocks)) > 1
    # no public window takes an index set at a general point
    for x0 in (1 / 3, 3 / 7):
        full = sh.step_sequence_at(x0, s, 3 / 7, n_max)
        for ns in sets:
            same_bits(sh._window(x0, s, 3 / 7, np.asarray(ns).tolist()), taken(full, ns))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), spec=st.one_of(st.sampled_from(SPECS),
                                      st.builds(rational, st.integers(1, 1999), st.integers(2, 2000))),
       d=st.sampled_from(JUMP_VALUES), s=st.sampled_from([1.0, 2.0, 2.5, 3.0]),
       n_max=st.integers(1, 2000))
def test_index_sets_bit_identical_over_subsets(data, spec, d, s, n_max):
    ns = sorted(data.draw(st.sets(st.integers(1, n_max), min_size=1, max_size=60)))
    same_bits(lg.jump_sequence(spec, d, n_max, indices=ns), taken(lg.jump_sequence(spec, d, n_max), ns))
    same_bits(sh.step_sequence(spec, s, n_max, indices=ns), taken(sh.step_sequence(spec, s, n_max), ns))


THIRD = PointSpec.rational(1, 3)
SIZED = {
    "jump_sequence": lambda n, ns=None: lg.jump_sequence(THIRD, 1.0, n, indices=ns),
    "shepard.step_sequence": lambda n, ns=None: sh.step_sequence(THIRD, 2.0, n, indices=ns),
}


@pytest.mark.parametrize("call", [
    SIZED["jump_sequence"],
    SIZED["shepard.step_sequence"],
    lambda n: lg.step_sequence_at(0.5, 0.3, n),
    lambda n: sh.step_sequence_at(0.5, 2.0, 0.3, n),
], ids=["jump_sequence", "shepard.step_sequence", "lagrange.step_sequence_at",
        "shepard.step_sequence_at"])
@pytest.mark.parametrize("n", [0, -3])
def test_generators_reject_sizes_below_one(call, n):
    """n = 0 used to give an empty window or an IndexError, and n < 0 numpy's
    negative dimensions."""
    with pytest.raises(ValueError, match=rf"^n_max must be at least 1, got {n}$"):
        call(n)


OUTSIDE = r"^indices must lie in 1\.\.n_max = 1\.\.10$"


@pytest.mark.parametrize("generator", sorted(SIZED))
@pytest.mark.parametrize("ns, message", [
    ([], "non-empty"), ([[1, 2]], "1-d"), ([1.0, 2.0], "integers"),
    ([3, 2], "strictly increasing"), ([2, 2], "strictly increasing"),
    ([0, 1], OUTSIDE), ([5, 11], OUTSIDE), ([-1], OUTSIDE),
], ids=["empty", "2-d", "floats", "decreasing", "repeated", "zero", "past-n_max", "negative"])
def test_generators_reject_bad_index_sets(generator, ns, message):
    with pytest.raises(ValueError, match=message):
        SIZED[generator](10, ns)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 12), m=st.integers(1, 12), jump=st.one_of(st.none(), st.floats(0.0, 1.0)),
       s=st.sampled_from([1.0, 2.0, 2.5, 3.0]), n_max=st.integers(1, 300))
def test_windows_at_general_points_with_node_hits(k, m, jump, s, n_max):
    """x = k/m (Shepard) or cos(pi k/m) (Lagrange), a node for every n (or
    n - 1) divisible by m over gcd(k, m), found by proximity; the step jumps
    at x or at another point."""
    t = min(k, m) / m
    x = math.cos(math.pi * t)
    x0 = x if jump is None else 2.0 * jump - 1.0
    same_bits(lg.step_sequence_at(x0, x, n_max),
              ref_lagrange_step_sequence_at(StepFn1D.jump(x0, 1.0), x, n_max))
    t0 = t if jump is None else jump
    same_bits(sh.step_sequence_at(t0, s, t, n_max),
              ref_shepard_step_sequence_at(StepFn1D.indicator_upto(t0), s, t, n_max))


def cap_indices(cap):
    """The reference at every 11th n and at the last 100: the weights have
    moved through every n below each of them."""
    return np.unique(np.r_[np.arange(2, cap + 1, 11), np.arange(cap - 99, cap + 1)])


CAP = 10_000
CAP_INDICES = cap_indices(CAP)


@pytest.mark.parametrize("spec", [PointSpec.rational(1, 3), PointSpec.irrational("golden_frac")],
                         ids=lambda spec: spec.label())
def test_jump_sequence_at_the_cap(spec):
    theta0 = math.pi * spec.value
    x0 = math.cos(theta0)
    step = StepFn1D.jump(x0, 1.0)
    got = lg.jump_sequence(spec, 1.0, CAP)[CAP_INDICES - 1]
    want = np.array([ref_jump_value(step, x0, theta0, lg.grid_offset(spec, n), n)
                     for n in CAP_INDICES])
    same_bits(got, want)


@pytest.mark.parametrize("spec, s", [(PointSpec.rational(1, 3), 2.0),
                                     (PointSpec.irrational("inv_sqrt2"), 3.0)],
                         ids=["1/3-s2", "inv_sqrt2-s3"])
def test_shepard_step_sequence_at_the_cap(spec, s):
    step = StepFn1D.indicator_upto(spec.value)
    got = sh.step_sequence(spec, s, CAP)[CAP_INDICES - 1]
    want = np.array([ref_shepard_value(spec, s, n, step) for n in CAP_INDICES])
    same_bits(got, want)


@pytest.mark.parametrize("s", [1.5, 40.0])
def test_shepard_one_row_block_at_the_cap(monkeypatch, s):
    """A window near the 1-d cap that ends in a block of one row.  golden_frac
    has no node hit there, so every n is a row and the rows' widths alone
    fix the blocks: the window ends at the first row of a block."""
    n_max = count = 0
    for n in range(1, CAP + 1):
        if count and (count + 1) * (n + 1) > sh._BLOCK:
            n_max, count = n, 0
        count += 1
    blocks = shepard_blocks(monkeypatch)
    spec = PointSpec.irrational("golden_frac")
    got = sh.step_sequence(spec, s, n_max)
    assert blocks[-1] == [n_max] and len(blocks[-2]) > 1
    ns = np.union1d(cap_indices(n_max), blocks[-2])
    step = StepFn1D.indicator_upto(spec.value)
    same_bits(got[ns - 1], np.array([ref_shepard_value(spec, s, n, step) for n in ns]))


@pytest.mark.parametrize("spec", [PointSpec.rational(1, 3), PointSpec.irrational("inv_sqrt2")],
                         ids=lambda spec: spec.label())
def test_step_sequence_at_the_2d_cap(spec):
    """The converging factor of an edge window: general points near and far
    from the jump on both sides."""
    x0 = math.cos(math.pi * spec.value)
    step = StepFn1D.jump(x0, 1.0)
    ns = cap_indices(MAX_WINDOW_2D)
    for x in (x0 + dx for dx in (1e-9, -1e-9, 1e-4, -1e-4, 0.25, -0.25)):
        got = lg.step_sequence_at(x0, x, MAX_WINDOW_2D)[ns - 1]
        same_bits(got, np.array([ref_lagrange_step_value(step, x, n) for n in ns]))


# A window at the cap holds its output and a few vectors of CAP doubles
# (80 kB each): the peaks are 0.40 MB (Lagrange at its jump) and 0.48 MB
# (Lagrange with its jump at -1, whose head is every node and whose samples
# are copied at every n, and Shepard, whose step vector holds 2 CAP doubles).
# Temporaries kept for a block of n would show here.
WINDOW_PEAK = 1_000_000


def test_window_memory_at_the_cap():
    spec = PointSpec.rational(1, 3)
    x0 = math.cos(math.pi * spec.value)
    for run in (lambda: lg.jump_sequence(spec, 1.0, CAP),
                lambda: lg.step_sequence_at(-1.0, x0, CAP),
                lambda: sh.step_sequence(spec, 2.0, CAP)):
        assert traced_peak(run) < WINDOW_PEAK


# ---------------------------------------------------------------------------
# CSV emission

def rational_window(operator, a, b, s=2.0, window=120):
    """A product window of the harness at the corner (a, b), each a (p, q)."""
    spec = ExperimentSpec(operator, PointSpec.rational(*a), PointSpec.rational(*b), s=s,
                          window=window)
    return generate_window(spec)


RNG = np.random.default_rng(4)
NO_REPEATS = RNG.random(41) - 0.5
# 13 values repeated in turn: more classes than the writer holds row texts for
WITH_REPEATS = np.tile(np.r_[0.25, -1.5, 2.0 / 3.0, RNG.random(10)], 4)[:41]
SIGNED_ZEROS = np.r_[0.0, -0.0, 1.0, -0.0, 0.5, 0.0, -0.0, 0.0, RNG.random(33)]
WINDOWS = {
    "1d": SeqWindow.from_values_1d([0.1, -0.0, 1.0, 1e-300, 2.0 / 3.0, 123456789.0]),
    "product": SeqWindow.from_product(np.random.default_rng(0).random(37) - 0.5,
                                      np.r_[-0.0, np.random.default_rng(1).random(36)]),
    "sum": SeqWindow.from_sum(np.random.default_rng(2).random(23) * 1e-7,
                              np.r_[-0.0, -np.random.default_rng(3).random(22) * 1e-7]),
    "lagrange2d 1/3 x 1/2": rational_window("lagrange2d", (1, 3), (1, 2)),
    "lagrange2d 1/2 x 1/3": rational_window("lagrange2d", (1, 2), (1, 3)),
    "shepard2d s=2 1/2 x 2/3": rational_window("shepard2d", (1, 2), (2, 3)),
    "shepard2d s=1 2/3 x 1/2": rational_window("shepard2d", (2, 3), (1, 2), s=1.0),
    "sum with repeats": SeqWindow.from_sum(WITH_REPEATS * 1e-7, SIGNED_ZEROS),
    "signed zeros": SeqWindow.from_product(SIGNED_ZEROS, SIGNED_ZEROS[::-1]),
    "repeats in u only": SeqWindow.from_product(WITH_REPEATS, NO_REPEATS),
    "repeats in v only": SeqWindow.from_product(NO_REPEATS, WITH_REPEATS),
    "no repeats": SeqWindow.from_product(NO_REPEATS, NO_REPEATS[::-1] * 3.0),
}


def repeats(x):
    return np.unique(x.view(np.uint64)).size < x.size


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_emit_csv_bytes_match_line_writer(tmp_path, name):
    win = WINDOWS[name]
    emit_csv(win, tmp_path / "new.csv")
    ref_emit_csv(win, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_emit_csv_windows_repeat_as_named():
    """The windows above reach each branch of the writer: repeats in u
    (shared rows), in v (shared values), both, or neither."""
    expect = {"lagrange2d 1/3 x 1/2": (True, True), "lagrange2d 1/2 x 1/3": (True, True),
              "shepard2d s=2 1/2 x 2/3": (True, True), "shepard2d s=1 2/3 x 1/2": (True, True),
              "sum with repeats": (True, True), "signed zeros": (True, True),
              "repeats in u only": (True, False), "repeats in v only": (False, True),
              "no repeats": (False, False), "product": (False, False), "sum": (False, False)}
    for name, want in expect.items():
        assert tuple(map(repeats, WINDOWS[name].factors)) == want, name
    zeros = np.float64(0.0).tobytes(), np.float64(-0.0).tobytes()
    cells = [x.tobytes() for x in SIGNED_ZEROS]
    assert all(cells.count(z) > 1 for z in zeros)
    assert np.unique(WITH_REPEATS).size > reports._HELD_ROWS


POOL = [0.0, -0.0, 1.0, -1.0, 0.5, 1.0 / 3.0, -2.0 / 3.0, 1e-300, 123456789.0]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), size=st.integers(1, 30), op=st.sampled_from(["product", "sum"]))
def test_emit_csv_bytes_match_line_writer_over_value_pools(tmp_path_factory, data, size, op):
    """Factors drawn from a small pool, so values repeat in both factors in
    every pattern, with 0.0 and -0.0 apart."""
    factor = st.lists(st.sampled_from(POOL), min_size=size, max_size=size)
    u, v = data.draw(factor), data.draw(factor)
    win = SeqWindow.from_product(u, v) if op == "product" else SeqWindow.from_sum(u, v)
    tmp = tmp_path_factory.mktemp("csv")
    emit_csv(win, tmp / "new.csv")
    ref_emit_csv(win, tmp / "ref.csv")
    assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


def ref_stream_csv_chunks(win, rows=None):
    """The 2-d rows (all, or those numbered in rows) as the streaming writer
    formatted them before it shared repeated values: every value through
    one template."""
    yield "n,m,value\n"
    size = win.n_max
    template = "".join(f"%d,{m},%.17g\n" for m in range(1, size + 1))
    args = [0] * (2 * size)
    u, v = win.factors
    for n in range(1, size + 1) if rows is None else rows:
        args[::2] = [n] * size
        args[1::2] = win.op(u[n - 1], v).tolist()
        yield template % tuple(args)


def traced_peak(write):
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# What holding row texts may add to the peak of the writer above.  On the
# window below the earlier writer peaks at 0.12 MB and emit_csv at 0.41 MB
# (CPython 3.11, numpy 2.4.6): 8 held rows of 26 kB and the distinct values.
CSV_PEAK_SLACK = 400_000


def test_emit_csv_memory_stays_near_the_row_writer(tmp_path):
    """A 1000 x 1000 rational window whose u repeats its values in many
    classes: the writer holds a few row texts, not one per class."""
    win = rational_window("shepard2d", (1, 2), (2, 3), window=1000)
    # the earlier writer holds one row at a time, so its first and last rows
    # (the longest) give its peak to within 5 kB in a fiftieth of the time
    rows = [*range(1, 11), *range(991, 1001)]
    before = traced_peak(lambda: reports._atomic_write(tmp_path / "before.csv",
                                                       ref_stream_csv_chunks(win, rows)))
    after = traced_peak(lambda: emit_csv(win, tmp_path / "after.csv"))
    assert after <= before + CSV_PEAK_SLACK, (before, after)
