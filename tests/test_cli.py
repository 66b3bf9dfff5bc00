import json
import math

import pytest

from conidx import suites
from conidx.cli import main
from conidx.suites import CheckResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zeta_profile(capsys):
    code, out, _ = run_cli(capsys, "zeta", "profile", "0.5")
    assert code == 0
    assert float(out) == pytest.approx(0.5, abs=1e-10)


def test_zeta_lerch_and_hurwitz(capsys):
    code, out, _ = run_cli(capsys, "zeta", "lerch-j1", "1.0")
    assert code == 0 and float(out) == pytest.approx(math.log(2.0), abs=1e-10)
    code, out, _ = run_cli(capsys, "zeta", "hurwitz", "--s", "2", "1.0")
    assert code == 0 and float(out) == pytest.approx(math.pi**2 / 6.0, abs=1e-10)
    code, out, _ = run_cli(capsys, "zeta", "profile-s", "--s", "2", "0.5")
    assert code == 0 and float(out) == pytest.approx(0.5)


def test_zeta_domain_error_is_usage(capsys):
    code, _, err = run_cli(capsys, "zeta", "hurwitz", "--s", "0.5", "1.0")
    assert code == 2
    assert "s > 1" in err


def test_eval_lagrange_cross_check(capsys):
    code, out, err = run_cli(capsys, "eval", "lagrange1d", "--theta-rational", "1/3",
                             "--n", "200", "--cross-check")
    assert code == 0
    assert "cross-check ok" in err


def test_eval_requires_exactly_one_angle(capsys):
    code, _, err = run_cli(capsys, "eval", "lagrange1d", "--n", "50")
    assert code == 2
    assert "exactly one" in err
    code, _, err = run_cli(capsys, "eval", "lagrange1d", "--n", "50",
                           "--theta-rational", "1/3", "--theta-irrational", "inv_sqrt2")
    assert code == 2


def test_eval_shepard2d(capsys):
    code, out, _ = run_cli(capsys, "eval", "shepard2d", "--x0", "1/2", "--y0", "1/2",
                           "--s", "1", "--n", "999", "--cross-check")
    assert code == 0
    assert float(out) == pytest.approx(0.25, abs=1e-10)


def test_eval_lagrange2d_at_a_node_hit(capsys):
    # n = 100 puts a node on both jumps; the factors there are the step's
    # value at the jump, 1, and 0.5 off it
    code, out, _ = run_cli(capsys, "eval", "lagrange2d", "--theta-rational", "1/3",
                           "--gamma-rational", "1/2", "--n", "100", "--cross-check")
    assert code == 0
    assert float(out) == pytest.approx(0.5, abs=1e-12)


def test_index_cross_check_at_node_hits(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "schema_version": 1, "experiment": "lagrange2d", "theta": {"rational": [1, 3]},
        "gamma": {"rational": [1, 2]}, "window": 100, "cross_check": True}))
    code, out, _ = run_cli(capsys, "index", "--config", str(cfg_path))
    assert code in (0, 1) and "residual mass" in out


def test_index_pass_and_report(tmp_path, capsys):
    cfg = {"schema_version": 1, "experiment": "lagrange1d",
           "theta": {"rational": [1, 3]}, "window": 400, "tol": 0.03}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "win.csv"
    code, out, _ = run_cli(capsys, "index", "--config", str(cfg_path),
                           "--out", str(out_path), "--csv", str(csv_path))
    assert code == 0
    assert out.count("[pass]") == 3
    doc = json.loads(out_path.read_text())
    assert doc["config"]["experiment"] == "lagrange1d"
    assert csv_path.read_text().startswith("n,value\n")


def test_index_failing_verdict_exits_one(tmp_path, capsys):
    cfg = {"schema_version": 1, "experiment": "shepard2d",
           "x0": {"rational": [1, 2]}, "y0": {"rational": [1, 2]},
           "s": 1.0, "window": 500}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "index", "--config", str(cfg_path))
    assert code == 1
    assert "[fail]" in out


def test_index_bad_config_exits_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, "experiment": "shepard1d",
                                    "x0": {"irrational": "sqrt3"}, "window": 100}))
    code, _, err = run_cli(capsys, "index", "--config", str(cfg_path))
    assert code == 2
    assert "presets" in err
    code, _, err = run_cli(capsys, "index", "--config", str(tmp_path / "missing.json"))
    assert code == 2


def test_index_uses_cache(tmp_path, capsys):
    cfg = {"schema_version": 1, "experiment": "lagrange1d",
           "theta": {"rational": [1, 3]}, "window": 300,
           "cache_dir": str(tmp_path / "cache")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out1, _ = run_cli(capsys, "index", "--config", str(cfg_path))
    assert code == 0 and "cache" not in out1
    code, out2, _ = run_cli(capsys, "index", "--config", str(cfg_path))
    assert code == 0
    assert "window loaded from cache" in out2
    for line in out1.splitlines():
        if line.startswith("[pass]"):
            assert line in out2
    code, out, _ = run_cli(capsys, "cache", "list", "--cache-dir", str(tmp_path / "cache"))
    assert code == 0 and "1 cached windows" in out
    code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", str(tmp_path / "cache"))
    assert code == 0 and "removed 1" in out


def test_index_recomputes_a_corrupt_cache_entry(tmp_path, capsys):
    cfg = {"schema_version": 1, "experiment": "lagrange1d",
           "theta": {"rational": [1, 3]}, "window": 300,
           "cache_dir": str(tmp_path / "cache")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, first, _ = run_cli(capsys, "index", "--config", str(cfg_path))
    assert code == 0
    (entry,) = (tmp_path / "cache").glob("*.npz")
    entry.write_text("garbage")
    code, out, _ = run_cli(capsys, "index", "--config", str(cfg_path))
    assert code == 0 and out == first
    code, out, _ = run_cli(capsys, "index", "--config", str(cfg_path))
    assert code == 0 and "window loaded from cache" in out


def test_verify_out_write_failure_is_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run_cli(capsys, "verify", "lagrange2", "--out", str(blocker / "x.json"))
    assert code == 2
    assert "cannot write" in err and "Traceback" not in err
    path = tmp_path / "new" / "x.json"
    code, out, _ = run_cli(capsys, "verify", "lagrange2", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["checks"][0]["passed"] is True


@pytest.mark.parametrize("flags", [["--checkpoints", "0"], ["--checkpoints", "1"],
                                   ["--tol", "-1"], ["--tol", "nan"],
                                   ["--epsilon", "nan"], ["--epsilon", "inf"],
                                   ["--checkpoints", "10001"]])
def test_index_flags_are_checked_like_config_fields(tmp_path, capsys, flags):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, "experiment": "lagrange1d",
                                    "theta": {"rational": [1, 3]}, "window": 100}))
    code, out, err = run_cli(capsys, "index", "--config", str(cfg_path), *flags)
    assert code == 2
    assert "config errors:" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("flag,target", [("--out", "r.json"), ("--csv", "w.csv"),
                                         ("--cache-dir", None)])
def test_index_write_failure_is_usage_error(tmp_path, capsys, flag, target):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, "experiment": "lagrange1d",
                                    "theta": {"rational": [1, 3]}, "window": 100}))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    path = blocker / target if target else blocker
    code, _, err = run_cli(capsys, "index", "--config", str(cfg_path), flag, str(path))
    assert code == 2
    assert f"cannot write {path}" in err and "Traceback" not in err


@pytest.mark.parametrize("action", ["list", "clear"])
def test_cache_dir_that_is_a_file_is_usage_error(tmp_path, capsys, action):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, out, err = run_cli(capsys, "cache", action, "--cache-dir", str(blocker))
    assert code == 2
    assert "not a directory" in err and out == ""


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "lagrange2")
    assert code == 0
    assert "[PASS]" in out
    assert "1/1 checks passed" in out


def test_verify_all_suites(tmp_path, capsys):
    """All four suites: every check passes but the stated s = 1 Shepard corner
    row, and the JSON summary carries each check's runtime budget."""
    path = tmp_path / "verify.json"
    code, out, _ = run_cli(capsys, "verify", "--out", str(path))
    assert code == 1
    assert "12/13 checks passed" in out
    checks = json.loads(path.read_text())["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == [
        "shepard corner s=1 at (1/2,1/2) (N=1000/axis)"]
    budgets = {c["name"]: c["budget_s"] for c in checks}
    assert budgets["cos-product indices (N=2000, eps=0.1)"] == 1.0
    assert budgets["shepard corner s=1 at (1/2,1/2) (N=1000/axis)"] is None


def test_check_fails_at_its_runtime_budget():
    assert not CheckResult("c", True, "", runtime_s=1.0, budget_s=1.0).passed
    assert CheckResult("c", True, "", runtime_s=0.5, budget_s=1.0).passed
    assert CheckResult("c", True, "", runtime_s=90.0).passed


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "nonsense")
    assert code == 2
    assert "unknown suite" in err


def test_unknown_suite_is_rejected_before_any_check_runs(monkeypatch):
    experiments = []
    monkeypatch.setattr(suites, "run_index_experiment", experiments.append)
    with pytest.raises(ValueError, match="unknown suite 'nonsense'"):
        suites.run_suites(["lagrange2", "nonsense"])
    assert experiments == []
