import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conidx.density import SeqWindow
from conidx.harness import run_index_experiment
from conidx.points import IRRATIONAL_VALUES
from conidx.reports import (
    ConfigError,
    SequenceCache,
    _digest,
    build_run_report,
    emit_csv,
    emit_report,
    parse_config,
)

MINIMAL = {
    "schema_version": 1,
    "experiment": "lagrange1d",
    "theta": {"rational": [1, 3]},
    "window": 300,
}


def make_config(**overrides):
    doc = dict(MINIMAL)
    doc.update(overrides)
    return json.dumps(doc)


def test_parse_minimal_config():
    spec = parse_config(make_config()).spec
    assert spec.operator == "lagrange1d"
    assert spec.spec_x.q == 3
    assert spec.window == 300
    assert spec.tolerance == 0.03


def test_parse_round_trip():
    cfg = parse_config(make_config(d=0.25, epsilon=0.04, tol=0.01, checkpoints=12))
    again = parse_config(json.dumps(cfg.to_json_dict()))
    assert again == cfg


POINT = st.one_of(
    st.sampled_from([[1, 2], [1, 3], [2, 3], [1, 4], [2, 5], [3, 7]]).map(
        lambda pq: {"rational": pq}),
    st.sampled_from(sorted(IRRATIONAL_VALUES)).map(lambda name: {"irrational": name}))
POSITIVE = st.one_of(st.integers(1, 8), st.floats(0.01, 8.0))
PATH = st.text("abc/._-", min_size=1, max_size=8)
OPTIONAL_FIELDS = {
    "d": st.one_of(st.integers(-2, 2), st.floats(-2.0, 2.0)),
    "s": st.one_of(st.integers(1, 6), st.floats(1.0, 6.0)),
    "epsilon": POSITIVE,
    "checkpoints": st.integers(2, 64),
    "tol": POSITIVE,
    "targets": st.lists(st.lists(st.floats(-1.0, 2.0), min_size=2, max_size=2),
                        min_size=1, max_size=3),
    "eval_point": st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
    "cross_check": st.booleans(),
    "out": st.fixed_dictionaries({}, optional={"report": PATH, "csv": PATH}),
    "cache_dir": PATH,
}
POINT_FIELDS = {"lagrange1d": ("theta",), "lagrange2d": ("theta", "gamma"),
                "shepard1d": ("x0",), "shepard2d": ("x0", "y0")}


@st.composite
def raw_configs(draw):
    experiment = draw(st.sampled_from(sorted(POINT_FIELDS)))
    raw = {"schema_version": 1, "experiment": experiment,
           "window": draw(st.integers(2, 3000))}
    for name in POINT_FIELDS[experiment]:
        raw[name] = draw(POINT)
    for name, values in OPTIONAL_FIELDS.items():
        if draw(st.booleans()):
            raw[name] = draw(values)
    return raw


@settings(max_examples=300, deadline=None)
@given(raw=raw_configs())
def test_parse_round_trip_property(raw):
    """Every config that parses comes back unchanged through to_json_dict, so
    the config a run report echoes is the one that ran."""
    try:
        cfg = parse_config(json.dumps(raw))
    except ConfigError:
        return
    assert parse_config(json.dumps(cfg.to_json_dict())) == cfg


def test_parse_rejects_reversed_targets():
    """A reversed target is a config error, reported before any window is built."""
    doc = {"schema_version": 1, "experiment": "lagrange1d",
           "theta": {"irrational": "inv_sqrt2"}, "window": 10_000}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({**doc, "targets": [[0.5, 0.3]]}))
    assert exc.value.errors == ["target [0.5, 0.3] must have lo <= hi"]
    assert parse_config(json.dumps({**doc, "targets": [[0.3, 0.3]]})).spec.targets == [(0.3, 0.3)]


def test_parse_rejects_inapplicable_parameters():
    with pytest.raises(ConfigError, match="'s' does not apply to lagrange1d"):
        parse_config(make_config(s=3.0))
    doc = {"schema_version": 1, "experiment": "shepard1d",
           "x0": {"rational": [1, 2]}, "window": 100, "d": 0.5}
    with pytest.raises(ConfigError, match="'d' does not apply to shepard1d"):
        parse_config(json.dumps(doc))
    with pytest.raises(ConfigError, match="'d' does not apply to lagrange2d"):
        parse_config(make_config(experiment="lagrange2d", gamma={"rational": [1, 2]}, d=0.5))
    with pytest.raises(ConfigError, match="string paths"):
        parse_config(make_config(out={"report": 5}))


def test_parse_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown field"):
        parse_config(make_config(bogus=1))


SHEPARD_IRRATIONAL = ('{"schema_version": 1, "experiment": "shepard1d", '
                      '"x0": {"irrational": "inv_sqrt2"}, "window": 100, %s}')


@pytest.mark.parametrize("fields,needles", [
    ('"tol": NaN', ["tol must be positive"]),
    ('"s": Infinity', ["s must be >= 1"]),
    ('"targets": [[NaN, 0.5]]', ["targets must be"]),
    ('"s": true, "tol": true', ["s must be >= 1", "tol must be positive"]),
    ('"tol": 1e400', ["tol must be positive"]),
    ('"epsilon": 1' + "0" * 400, ["epsilon must be positive"]),
    ('"targets": [[false, true]]', ["targets must be"]),
])
def test_parse_rejects_non_finite_and_boolean_numbers(fields, needles):
    """json reads NaN, Infinity and 1e400 as non-finite floats and true as 1."""
    with pytest.raises(ConfigError) as err:
        parse_config(SHEPARD_IRRATIONAL % fields)
    errors = err.value.errors
    assert len(errors) == len(needles)
    assert all(e.startswith(n) for e, n in zip(errors, needles))


@pytest.mark.parametrize("overrides,needle", [
    ({"theta": {"rational": [True, 3]}}, "expected a pair of integers"),
    ({"theta": {"irrational": ["inv_sqrt2"]}}, "unknown preset"),
    ({"experiment": ["lagrange1d"]}, "experiment must be one of"),
    ({"window": 10_001}, "window must lie in [2, 10000]"),
    ({"schema_version": True}, "schema_version must be 1"),
    ({"checkpoints": 10_001}, "checkpoints must be an integer >= 2 and <= 10000"),
])
def test_parse_rejects_wrong_types_and_window_caps(overrides, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(make_config(**overrides))
    assert any(needle in e for e in err.value.errors)


def test_parse_overrides_replace_fields_before_the_checks():
    cfg = parse_config(make_config(tol=0.5, out={"csv": "w.csv"}),
                       {"tol": 0.01, "out": {"report": "r.json"}})
    assert cfg.spec.tolerance == 0.01
    assert (cfg.out_report, cfg.out_csv) == ("r.json", "w.csv")
    with pytest.raises(ConfigError, match="checkpoints must be an integer >= 2"):
        parse_config(make_config(), {"checkpoints": 0})


def test_parse_rejects_s_below_one():
    doc = {"schema_version": 1, "experiment": "shepard1d",
           "x0": {"rational": [1, 2]}, "window": 100, "s": 0.5}
    with pytest.raises(ConfigError, match="s must be >= 1"):
        parse_config(json.dumps(doc))


def test_parse_rejects_unknown_irrational_listing_presets():
    doc = {"schema_version": 1, "experiment": "shepard1d",
           "x0": {"irrational": "sqrt3"}, "window": 100}
    with pytest.raises(ConfigError, match="presets:"):
        parse_config(json.dumps(doc))


def test_parse_rejects_zero_denominator():
    with pytest.raises(ConfigError, match="q must be nonzero"):
        parse_config(make_config(theta={"rational": [1, 0]}))


def test_parse_collects_all_violations():
    doc = {"schema_version": 7, "experiment": "shepard2d", "window": 0,
           "s": 0.2, "extra": True, "x0": {"irrational": "nope"}}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    text = str(err.value)
    for needle in ("schema_version", "window", "s must be", "extra", "nope", "y0"):
        assert needle in text


def test_parse_rejects_invalid_json():
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config("{not json")


def test_parse_rejects_misplaced_spec_fields():
    with pytest.raises(ConfigError, match="does not apply"):
        parse_config(make_config(x0={"rational": [1, 2]}))


def test_emit_csv_dim1(tmp_path):
    win = SeqWindow.from_values_1d(np.array([0.5, 1.0, -0.25]))
    path = tmp_path / "w.csv"
    emit_csv(win, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 4
    assert lines[3] == "3,-0.25"


def test_emit_csv_dim2_product(tmp_path):
    win = SeqWindow.from_product(np.array([2.0, 3.0]), np.array([0.5, 0.25]))
    path = tmp_path / "w.csv"
    emit_csv(win, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,m,value"
    assert len(lines) == 5
    assert lines[1] == "1,1,1"
    assert lines[4] == "2,2,0.75"


def test_emit_csv_deterministic(tmp_path):
    win = SeqWindow.from_values_1d(np.linspace(0.0, 1.0, 57) ** 3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(win, p1)
    emit_csv(win, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_report_schema_and_emission(tmp_path):
    cfg = parse_config(make_config())
    result = run_index_experiment(cfg.to_experiment_spec())
    report = build_run_report(cfg, result, runtime_ms=12.5)
    path = tmp_path / "report.json"
    emit_report(report, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"config", "targets", "residual_mass", "runtime_ms", "version"}
    assert doc["config"]["experiment"] == "lagrange1d"
    entry = doc["targets"][0]
    assert set(entry) >= {"target", "epsilon", "estimate", "predicted", "verdict"}
    assert set(entry["estimate"]) == {"checkpoints", "ratios", "lower", "upper"}
    assert all(e["verdict"] == "pass" for e in doc["targets"])


def test_cache_round_trip(tmp_path):
    cfg = parse_config(make_config())
    spec = cfg.to_experiment_spec()
    cache = SequenceCache(tmp_path / "cache")
    assert cache.load(spec) is None
    cold = run_index_experiment(spec)
    cache.store(spec, cold.window)
    warm_window = cache.load(spec)
    assert warm_window is not None
    np.testing.assert_array_equal(warm_window.values, cold.window.values)
    warm = run_index_experiment(spec, window=warm_window)
    cold_report = build_run_report(cfg, cold, 0.0).to_json()
    warm_report = build_run_report(cfg, warm, 0.0).to_json()
    assert cold_report == warm_report


def test_cache_key_separates_parameters(tmp_path):
    cfg_a = parse_config(make_config())
    cfg_b = parse_config(make_config(window=301))
    cache = SequenceCache(tmp_path)
    assert cache.key(cfg_a.to_experiment_spec()) != cache.key(cfg_b.to_experiment_spec())


def test_cache_entry_of_another_kernel_revision_is_a_miss(tmp_path, monkeypatch):
    from conidx import reports

    spec = parse_config(make_config()).to_experiment_spec()
    cache = SequenceCache(tmp_path)
    window = SeqWindow.from_values_1d(np.zeros(spec.window))
    monkeypatch.setattr(reports, "KERNEL_REVISION", reports.KERNEL_REVISION + 1)
    cache.store(spec, window)
    assert cache.load(spec) is not None
    monkeypatch.undo()
    assert len(cache.entries()) == 1
    assert cache.load(spec) is None


def test_cache_product_windows(tmp_path):
    doc = {"schema_version": 1, "experiment": "shepard2d",
           "x0": {"rational": [1, 2]}, "y0": {"rational": [1, 2]},
           "s": 2.0, "window": 60}
    cfg = parse_config(json.dumps(doc))
    spec = cfg.to_experiment_spec()
    cache = SequenceCache(tmp_path)
    result = run_index_experiment(spec)
    cache.store(spec, result.window)
    loaded = cache.load(spec)
    np.testing.assert_array_equal(loaded.factors[0], result.window.factors[0])
    np.testing.assert_array_equal(loaded.factors[1], result.window.factors[1])
    assert len(cache.entries()) == 1
    assert cache.clear() == 1
    assert cache.entries() == []
    # an entry holds no op, so a sum window would load as a product
    with pytest.raises(ValueError, match="product windows only"):
        cache.store(spec, SeqWindow.from_sum(*result.window.factors))
    assert cache.entries() == []


def test_cache_key_holds_the_resolved_eval_point(tmp_path):
    """Eval points that the harness snaps onto the same corner run the same
    window, so they share one key and one entry; a point on an edge does not."""
    doc = {"schema_version": 1, "experiment": "lagrange2d", "theta": {"rational": [1, 3]},
           "gamma": {"rational": [1, 2]}, "window": 50}
    corner = [None, [math.cos(math.pi / 3), math.cos(math.pi / 2)], [0.5, 6.123e-17],
              [0.5, 0.0]]
    specs = [parse_config(json.dumps({**doc, "eval_point": point})).spec for point in corner]
    cache = SequenceCache(tmp_path)
    assert len({cache.key(spec) for spec in specs}) == 1
    window = run_index_experiment(specs[0]).window
    cache.store(specs[1], window)
    for spec in specs:
        loaded = cache.load(spec)
        assert loaded is not None
        for got, want in zip(loaded.factors, run_index_experiment(spec).window.factors):
            assert got.tobytes() == want.tobytes()
    assert len(cache.entries()) == 1
    edge = parse_config(json.dumps({**doc, "eval_point": [0.5, 0.25]})).spec
    assert cache.key(edge) != cache.key(specs[0]) and cache.load(edge) is None
    off_cross = parse_config(json.dumps({**doc, "eval_point": [0.25, 0.25]})).spec
    with pytest.raises(ValueError, match="does not lie on the jump cross"):
        cache.key(off_cross)


def test_parse_rejects_eval_point_in_univariate_configs():
    for doc in (MINIMAL, {"schema_version": 1, "experiment": "shepard1d",
                          "x0": {"rational": [1, 3]}, "window": 100}):
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps({**doc, "eval_point": [0.5, 0.5]}))
        assert any("eval_point" in err and "does not apply" in err for err in exc.value.errors)


def test_parse_rejects_cross_check_in_univariate_configs():
    """cross_check compares 2-d product windows with the double sum; a 1-d
    config has nothing to cross-check, so the field is rejected even when false."""
    for doc in (MINIMAL, {"schema_version": 1, "experiment": "shepard1d",
                          "x0": {"rational": [1, 3]}, "window": 100}):
        for value in (True, False):
            with pytest.raises(ConfigError) as exc:
                parse_config(json.dumps({**doc, "cross_check": value}))
            assert exc.value.errors == [
                f"field 'cross_check' does not apply to {doc['experiment']}"]
    cfg = parse_config(make_config(experiment="lagrange2d", gamma={"rational": [1, 2]},
                                   cross_check=True))
    assert cfg.spec.cross_check


def test_cache_entry_whose_digest_does_not_match_is_a_miss(tmp_path):
    """An entry is served only when its arrays match the digest stored with
    them; a changed array or a missing digest is a miss."""
    spec = parse_config(make_config()).to_experiment_spec()
    cache = SequenceCache(tmp_path)
    values = np.linspace(0.0, 1.0, spec.window)
    path = cache.store(spec, SeqWindow.from_values_1d(values))
    np.testing.assert_array_equal(cache.load(spec).values, values)
    with np.load(path) as data:
        digest = data["digest"]
    changed = values.copy()
    changed[7] += 1e-12
    np.savez(path, digest=digest, values=changed)
    assert cache.load(spec) is None
    np.savez(path, values=values)
    assert cache.load(spec) is None
    np.savez(path, digest=digest, values=values)
    assert cache.load(spec) is not None


@pytest.mark.parametrize("content", [b"garbage", b"", b"PK\x03\x04truncated"])
def test_cache_unreadable_entry_is_a_miss(tmp_path, content):
    spec = parse_config(make_config()).to_experiment_spec()
    cache = SequenceCache(tmp_path)
    cache.dir.mkdir(exist_ok=True)
    cache.path_for(spec).write_bytes(content)
    assert cache.load(spec) is None


def test_cache_entry_of_the_wrong_shape_is_a_miss(tmp_path):
    spec = parse_config(make_config()).to_experiment_spec()
    cache = SequenceCache(tmp_path)
    cache.store(spec, SeqWindow.from_values_1d(np.zeros(spec.window - 1)))
    assert cache.load(spec) is None
    cache.store(spec, SeqWindow.from_product(np.zeros(spec.window), np.zeros(spec.window)))
    assert cache.load(spec) is None
    np.savez(cache.path_for(spec), other=np.zeros(3))
    assert cache.load(spec) is None
    cache.store(spec, SeqWindow.from_values_1d(np.zeros(spec.window)))
    assert cache.load(spec) is not None
    # store writes product windows only, so a full matrix is never served
    spec_2d = parse_config(make_config(experiment="lagrange2d",
                                       gamma={"rational": [1, 2]})).to_experiment_spec()
    matrix = {"values": np.zeros((spec_2d.window, spec_2d.window))}
    np.savez(cache.path_for(spec_2d), digest=np.array(_digest(matrix)), **matrix)
    assert cache.load(spec_2d) is None
