import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conidx
from conidx import lagrange, shepard, stepfn, suites
from conidx.cli import main
from conidx.lagrange import jump_sequence, lagrange_eval_2d
from conidx.density import SeqWindow
from conidx.points import IRRATIONAL_VALUES, PointSpec
from conidx.reports import SequenceCache, parse_config
from conidx.shepard import ShepardParams, shepard_eval_2d, step_sequence
from conidx.stepfn import StepFn2D
from conidx.suites import CheckResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_with_closed_stdout(*argv):
    """Run the CLI in a child process whose stdout is a pipe nobody reads."""
    env = dict(os.environ, PYTHONPATH=str(Path(conidx.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "conidx.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=300)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr.decode()


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


@pytest.mark.parametrize("s", ["5.07e99", "1e100", "1e200", "1.7e308"])
def test_zeta_hurwitz_at_a_huge_exponent(capsys, s):
    """From s ~ 5.06e99 the truncation point's ratio s(s+1)(s+2)/720/tol
    overflows; zeta(s, 1) = 1 + 2^-s + ... is 1 in doubles."""
    code, out, _ = run_cli(capsys, "zeta", "hurwitz", "--s", s, "1.0")
    assert (code, out) == (0, "1\n")


# values past the largest double: 2^2000, (1e-200)^-2 and about 1e320
ZETA_OVERFLOWS = [["hurwitz", "--s", "2000", "0.5"], ["hurwitz", "--s", "2", "1e-200"],
                  ["lerch-j1", "1e-320"]]


@pytest.mark.parametrize("argv", ZETA_OVERFLOWS)
def test_zeta_overflow_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "zeta", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(" overflows a double\n")
    assert err.count("\n") == 1


def test_zeta_overflow_prints_one_line_and_no_warning():
    env = dict(os.environ, PYTHONPATH=str(Path(conidx.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "conidx.cli", "zeta", *ZETA_OVERFLOWS[0]],
                          capture_output=True, text=True, env=env, timeout=300)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: zeta hurwitz at s = 2000.0, a = 0.5 overflows a double\n"


def test_zeta_profile_next_to_zero(capsys):
    # the series overflows there, and the profile takes its limit 1
    code, out, err = run_cli(capsys, "zeta", "profile", "1e-315")
    assert (code, out, err) == (0, "1\n", "")


def test_zeta_domain_error_is_usage(capsys):
    code, _, err = run_cli(capsys, "zeta", "hurwitz", "--s", "0.5", "1.0")
    assert code == 2
    assert "s > 1" in err


@pytest.mark.parametrize("argv", [["lerch-j1", "nan"], ["profile", "nan"],
                                  ["hurwitz", "--s", "2", "nan"],
                                  ["hurwitz", "--s", "2", "inf"],
                                  ["profile-s", "--s", "2", "nan"],
                                  ["hurwitz", "--s", "inf", "1.0"],
                                  ["hurwitz", "--s", "nan", "1.0"]])
def test_zeta_non_finite_input_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "zeta", *argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_eval_lagrange_cross_check(capsys):
    code, out, err = run_cli(capsys, "eval", "lagrange1d", "--theta", "1/3",
                             "--n", "200", "--cross-check")
    assert code == 0
    assert "cross-check ok" in err


def test_eval_requires_exactly_one_angle(capsys):
    code, _, err = run_cli(capsys, "eval", "lagrange1d", "--n", "50")
    assert code == 2
    assert "lagrange1d needs --theta" in err
    code, _, err = run_cli(capsys, "eval", "lagrange1d", "--n", "50",
                           "--theta", "1/3", "--gamma", "inv_sqrt2")
    assert code == 2
    assert "--gamma does not apply to lagrange1d" in err


def test_eval_shepard2d(capsys):
    code, out, _ = run_cli(capsys, "eval", "shepard2d", "--x0", "1/2", "--y0", "1/2",
                           "--s", "1", "--n", "999", "--cross-check")
    assert code == 0
    assert float(out) == pytest.approx(0.25, abs=1e-10)


def test_eval_lagrange2d_at_a_node_hit(capsys):
    # n = 100 puts a node on both jumps; the factors there are the step's
    # value at the jump, 1, and 0.5 off it
    code, out, _ = run_cli(capsys, "eval", "lagrange2d", "--theta", "1/3",
                           "--gamma", "1/2", "--n", "100", "--cross-check")
    assert code == 0
    assert float(out) == pytest.approx(0.5, abs=1e-12)


def test_eval_lagrange2d_off_the_nodes_at_large_n(capsys):
    # no node of n = 999000 is within rounding of cos(pi/50): the x factor
    # is the jump value, 0.01419..., not the step's value at the jump
    code, out, _ = run_cli(capsys, "eval", "lagrange2d", "--theta", "1/50",
                           "--gamma", "1/2", "--n", "999000")
    assert code == 0
    assert float(out) == pytest.approx(0.0070951031, abs=1e-9)


def _cos_pi(text):
    return math.cos(math.pi * PointSpec.parse(text).value)


def _lagrange1d(text, d, n):
    """The jump window's value at the one-index set {n}."""
    return jump_sequence(PointSpec.parse(text), d, n, indices=[n])[0]


def _shepard1d(text, s, n):
    """The indicator window's value at the one-index set {n}."""
    return step_sequence(PointSpec.parse(text), s, n, indices=[n])[0]


# (command line, printed value, the library call it must equal bit for bit)
EVAL_CASES = [
    ("lagrange1d --theta 1/3 --n 200 --cross-check", "0.69170273256735748",
     lambda: _lagrange1d("1/3", 1.0, 200)),
    ("lagrange1d --theta inv_sqrt2 --n 1234 --d 0.25 --cross-check", "0.10988540722095885",
     lambda: _lagrange1d("inv_sqrt2", 0.25, 1234)),
    # n = 4 puts a node on cos(pi/3), where the value is d; n = 5 does not
    ("lagrange1d --theta 1/3 --n 4 --d 0.5 --cross-check", "0.5",
     lambda: _lagrange1d("1/3", 0.5, 4)),
    ("lagrange1d --theta 1/3 --n 5 --d 0.5 --cross-check", "0.71783008588991049",
     lambda: _lagrange1d("1/3", 0.5, 5)),
    ("lagrange2d --theta 1/3 --gamma 1/2 --n 100 --cross-check", "0.50000000000000189",
     lambda: lagrange_eval_2d(StepFn2D.upper_right(_cos_pi("1/3"), _cos_pi("1/2")), 100, 100,
                              _cos_pi("1/3"), _cos_pi("1/2"))),
    ("lagrange2d --theta inv_sqrt2 --gamma golden_frac --n 77 --m 91 --cross-check",
     "0.081329279127191845",
     lambda: lagrange_eval_2d(StepFn2D.upper_right(_cos_pi("inv_sqrt2"), _cos_pi("golden_frac")),
                              77, 91, _cos_pi("inv_sqrt2"), _cos_pi("golden_frac"))),
    ("shepard1d --x0 1/3 --n 999 --s 3", "1",
     lambda: _shepard1d("1/3", 3.0, 999)),
    ("shepard1d --x0 inv_sqrt2 --n 500", "0.40964980290247333",
     lambda: _shepard1d("inv_sqrt2", 2.0, 500)),
    # an exact node hit at an even n, the exponent s = 1 and the one-interval grid
    ("shepard1d --x0 1/2 --n 10", "1", lambda: _shepard1d("1/2", 2.0, 10)),
    ("shepard1d --x0 1/3 --n 100 --s 1", "0.54631339748037944",
     lambda: _shepard1d("1/3", 1.0, 100)),
    ("shepard1d --x0 inv_sqrt2 --n 777 --s 1", "0.552818096965219",
     lambda: _shepard1d("inv_sqrt2", 1.0, 777)),
    ("shepard1d --x0 1/3 --n 1", "0.80000000000000004", lambda: _shepard1d("1/3", 2.0, 1)),
    ("shepard2d --x0 1/2 --y0 1/2 --s 1 --n 999 --cross-check", "0.25000000000000688",
     lambda: shepard_eval_2d(StepFn2D.lower_left(0.5, 0.5), ShepardParams(1.0, 999),
                             ShepardParams(1.0, 999), 0.5, 0.5)),
    ("shepard2d --x0 golden_frac --y0 2/3 --n 50 --m 60", "0.017659244473411783",
     lambda: shepard_eval_2d(StepFn2D.lower_left(IRRATIONAL_VALUES["golden_frac"], 2 / 3),
                             ShepardParams(2.0, 50), ShepardParams(2.0, 60),
                             IRRATIONAL_VALUES["golden_frac"], 2 / 3)),
]


@pytest.mark.parametrize("argv,printed,library", EVAL_CASES, ids=[c[0] for c in EVAL_CASES])
def test_eval_prints_the_library_value(capsys, argv, printed, library):
    code, out, err = run_cli(capsys, "eval", *argv.split())
    assert code == 0
    assert out == f"{library():.17g}\n" == printed + "\n"
    assert ("cross-check ok" in err) == argv.startswith("lagrange1d")


@pytest.mark.parametrize("argv,message", [
    ("shepard1d --x0 1/3 --n 10 --d 5", "--d does not apply to shepard1d"),
    ("shepard1d --x0 1/3 --n 10 --cross-check", "--cross-check does not apply"),
    ("shepard1d --x0 1/3 --n 10 --theta 1/3", "--theta does not apply"),
    ("shepard1d --x0 1/3 --n 10 --m 10", "--m does not apply"),
    ("lagrange2d --theta 1/3 --gamma 1/2 --n 10 --s 7", "--s does not apply to lagrange2d"),
    ("lagrange2d --theta 1/3 --gamma 1/2 --n 10 --d 0.5", "--d does not apply"),
    ("shepard1d --n 10", "shepard1d needs --x0"),
    ("shepard2d --x0 1/3 --n 10", "shepard2d needs --y0"),
    ("shepard1d --x0 1/3 --n 10 --s nan", "--s must be >= 1"),
    ("shepard2d --x0 1/3 --y0 1/2 --n 10 --s inf", "--s must be >= 1"),
    ("shepard1d --x0 1/3 --n 10 --s 0.5", "--s must be >= 1"),
    ("lagrange1d --theta 1/3 --n 10 --d nan", "--d must be a number"),
    ("shepard2d --x0 1/3 --y0 1/2 --n 10 --m 0", "--m must be >= 1"),
    ("lagrange2d --theta 1/3 --gamma 1/2 --n 10 --m 0", "--m must be >= 2"),
    ("lagrange2d --theta 1/3 --gamma 1/2 --n 10 --m 1", "--m must be >= 2"),
    ("lagrange2d --theta 1/3 --gamma 1/2 --n 1", "--n must be >= 2"),
    ("lagrange1d --theta 1/3 --n 1", "--n must be >= 2"),
    ("shepard1d --x0 1/3 --n 0", "--n must be >= 1"),
    ("shepard2d --x0 1/3 --y0 1/2 --n 1 --m 0", "--m must be >= 1"),
    ("lagrange1d --theta 0/1 --n 10", "--theta: point 0/1 must lie strictly inside"),
    ("shepard2d --x0 1/2 --y0 1/1 --n 10", "--y0: point 1/1 must lie strictly inside"),
    ("lagrange2d --theta 1/3 --gamma 2/4 --n 10", "--gamma: p/q=2/4 not in lowest terms"),
    ("shepard1d --x0 pi --n 10", "--x0: unknown irrational preset 'pi'"),
    # numpy cannot allocate 10^13 nodes and fails at once; the bound comes first
    ("lagrange1d --theta 1/3 --n 10000000000000", "--n must be <= 1000000"),
    ("shepard2d --x0 1/3 --y0 1/2 --n 10000000000000", "--n must be <= 1000000"),
    ("shepard1d --x0 1/3 --n 1000001", "--n must be <= 1000000"),
    ("lagrange2d --theta 1/3 --gamma 1/2 --n 10 --m 1000001", "--m must be <= 1000000"),
    ("lagrange2d --theta 1/3 --gamma 1/2 --n 3001 --cross-check",
     "--n must be <= 3000 with --cross-check"),
    ("shepard2d --x0 1/3 --y0 1/2 --n 10 --m 3001 --cross-check",
     "--m must be <= 3000 with --cross-check"),
])
def test_eval_bad_input_is_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, "eval", *argv.split())
    assert code == 2
    assert message in err and "Traceback" not in err
    assert out == ""


def test_eval_old_point_flags_are_gone():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "shepard1d", "--x0", "1/3", "--n", "10", "--theta-rational", "1/3"])
    assert exc.value.code == 2


def test_index_cross_check_at_node_hits(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "schema_version": 1, "experiment": "lagrange2d", "theta": {"rational": [1, 3]},
        "gamma": {"rational": [1, 2]}, "window": 100, "cross_check": True}))
    code, out, _ = run_cli(capsys, "index", "--config", str(cfg_path))
    assert code in (0, 1) and "residual mass" in out


@pytest.mark.parametrize("experiment,point", [("lagrange1d", "theta"), ("shepard1d", "x0")])
def test_index_cross_check_flag_on_a_1d_config_is_usage_error(tmp_path, capsys,
                                                             experiment, point):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, "experiment": experiment,
                                    point: {"rational": [1, 3]}, "window": 100}))
    code, out, err = run_cli(capsys, "index", "--config", str(cfg_path), "--cross-check")
    assert code == 2 and out == ""
    assert f"field 'cross_check' does not apply to {experiment}" in err


def test_index_failed_cross_check_exits_one_and_writes_nothing(tmp_path, capsys):
    """A cached product window whose u factor is off by 0.01 disagrees with
    the double sum: one line on stderr, exit 1, no report, CSV or traceback.
    Its digest matches, so only the cross-check can catch it."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "schema_version": 1, "experiment": "lagrange2d", "theta": {"rational": [1, 3]},
        "gamma": {"rational": [1, 2]}, "window": 100, "cache_dir": str(tmp_path / "cache")}))
    code, _, _ = run_cli(capsys, "index", "--config", str(cfg_path))
    assert code == 0
    # a wrong kernel: stored through the cache, so its digest matches
    cache = SequenceCache(tmp_path / "cache")
    spec = parse_config(cfg_path.read_text()).spec
    u, v = cache.load(spec).factors
    cache.store(spec, SeqWindow.from_product(u + 0.01, v))
    report, csv = tmp_path / "r.json", tmp_path / "w.csv"
    code, out, err = run_cli(capsys, "index", "--config", str(cfg_path), "--cross-check",
                             "--out", str(report), "--csv", str(csv))
    assert code == 1 and out == ""
    assert err.startswith("cross-check FAILED: window factor product at n=m=2 is ")
    assert err.count("\n") == 1
    assert not report.exists() and not csv.exists()


@pytest.mark.parametrize("operator,points", [
    ("lagrange2d", {"theta": "1/3", "gamma": "1/2"}),
    ("shepard2d", {"x0": "1/3", "y0": "1/2"}),
])
@pytest.mark.parametrize("command", ["eval", "index"])
def test_a_product_that_disagrees_with_the_double_sum_fails_in_one_line(
        tmp_path, capsys, monkeypatch, command, operator, points):
    """With a negative tolerance every product decomposition disagrees with
    its double sum: `eval` and `index` print one line on stderr and exit 1,
    with no value, report, CSV or traceback."""
    tensor_value = stepfn.tensor_value

    def strict(wx, sx, wy, sy, tol, cross_check):
        return tensor_value(wx, sx, wy, sy, -1.0, cross_check)

    for module in (lagrange, shepard):
        monkeypatch.setattr(module, "tensor_value", strict)
    report, csv = tmp_path / "r.json", tmp_path / "w.csv"
    if command == "eval":
        flags = [arg for name, text in points.items() for arg in (f"--{name}", text)]
        argv = ["eval", operator, *flags, "--n", "50", "--cross-check"]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "schema_version": 1, "experiment": operator, "window": 100,
            **{name: {"rational": [int(k) for k in text.split("/")]}
               for name, text in points.items()}}))
        argv = ["index", "--config", str(cfg_path), "--cross-check",
                "--out", str(report), "--csv", str(csv)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("cross-check FAILED: product decomposition ")
    assert err.count("\n") == 1
    assert not report.exists() and not csv.exists()


def test_index_report_labels_only_cluster_targets(tmp_path, capsys):
    """Cluster targets carry their table label; measure targets carry no label key."""
    docs = {}
    for name, cfg in (("clusters", {"experiment": "shepard1d", "x0": {"rational": [1, 3]}}),
                      ("measure", {"experiment": "shepard1d", "x0": {"irrational": "inv_sqrt2"},
                                   "targets": [[0.2, 0.4], [0.6, 0.9]]})):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps({"schema_version": 1, "window": 200, **cfg}))
        report = tmp_path / f"{name}-report.json"
        run_cli(capsys, "index", "--config", str(cfg_path), "--out", str(report))
        docs[name] = json.loads(report.read_text())["targets"]
    assert [t["label"] for t in docs["clusters"]] == [
        "profile(0/3)", "profile(1/3)", "profile(2/3)"]
    assert all("label" not in t for t in docs["measure"]) and len(docs["measure"]) == 2


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


def test_index_calls_in_one_process_share_no_flag_values(tmp_path, capsys):
    """The parser is built once per process; a flag given to one call must
    not carry over to the next, which reads the config's defaults."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, "experiment": "lagrange2d",
                                    "theta": {"rational": [1, 3]},
                                    "gamma": {"rational": [1, 2]}, "window": 200}))
    docs = []
    for flags in (("--checkpoints", "32", "--tol", "0.05"), ()):
        out_path = tmp_path / f"report{len(docs)}.json"
        code, _, _ = run_cli(capsys, "index", "--config", str(cfg_path),
                             "--out", str(out_path), *flags)
        assert code in (0, 1)
        docs.append(json.loads(out_path.read_text()))
    assert (docs[0]["config"]["checkpoints"], docs[0]["config"]["tol"]) == (32, 0.05)
    assert (docs[1]["config"]["checkpoints"], docs[1]["config"]["tol"]) == (16, 0.03)
    grids = [doc["targets"][0]["estimate"]["checkpoints"] for doc in docs]
    assert len(grids[0]) > len(grids[1])


def test_version_and_usage_errors_exit_as_before_on_repeated_calls(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"conidx {conidx.__version__}\n"
        with pytest.raises(SystemExit) as exc:
            main(["index"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err


def test_index_failing_verdict_exits_one(tmp_path, capsys):
    cfg = {"schema_version": 1, "experiment": "shepard2d",
           "x0": {"rational": [1, 2]}, "y0": {"rational": [1, 2]},
           "s": 1.0, "window": 500}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "index", "--config", str(cfg_path))
    assert code == 1
    assert "[fail]" in out


@pytest.mark.parametrize("s", [1e100, 1e200])
@pytest.mark.parametrize("points", [
    {"x0": {"rational": [1, 3]}},
    {"x0": {"rational": [1, 3]}, "y0": {"irrational": "inv_sqrt2"}},
], ids=["shepard1d", "shepard2d"])
def test_index_at_a_huge_shepard_exponent_gives_a_verdict(tmp_path, capsys, s, points):
    """The Shepard profile's zeta values at such s used to raise an
    OverflowError, a traceback with exit 1, which is reserved for a failed
    verdict."""
    cfg = {"schema_version": 1, "experiment": f"shepard{len(points)}d", "s": s,
           "window": 300, **points}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "index", "--config", str(cfg_path))
    assert code in (0, 1)
    assert "residual mass" in out


def test_index_bad_config_exits_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, "experiment": "shepard1d",
                                    "x0": {"irrational": "sqrt3"}, "window": 100}))
    code, _, err = run_cli(capsys, "index", "--config", str(cfg_path))
    assert code == 2
    assert "presets" in err
    code, _, err = run_cli(capsys, "index", "--config", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("extra", [(), ("--cross-check",), ("--cache-dir",)])
def test_index_eval_point_outside_the_square_exits_two(tmp_path, capsys, extra):
    """(0.5, 5.0) lies on the line x = cos(pi/3) but beyond the far side of
    the square, where no Lagrange evaluation is defined: a usage error
    before any window is built or cache entry looked up."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "schema_version": 1, "experiment": "lagrange2d", "theta": {"rational": [1, 3]},
        "gamma": {"rational": [1, 2]}, "window": 100, "eval_point": [0.5, 5.0]}))
    if extra == ("--cache-dir",):
        extra += (str(tmp_path / "cache"),)
    code, out, err = run_cli(capsys, "index", "--config", str(cfg_path), *extra)
    assert code == 2 and out == ""
    assert err == "error: evaluation point (0.5, 5.0) does not lie on the jump cross\n"
    assert not (tmp_path / "cache").exists()


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
    (entry,) = (tmp_path / "cache").glob("*.f64")
    entry.write_text("garbage")
    code, out, _ = run_cli(capsys, "index", "--config", str(cfg_path))
    assert code == 0 and out == first
    code, out, _ = run_cli(capsys, "index", "--config", str(cfg_path))
    assert code == 0 and "window loaded from cache" in out


@pytest.mark.parametrize("cfg", [
    {"experiment": "lagrange1d", "theta": {"rational": [1, 3]}, "window": 300},
    {"experiment": "lagrange2d", "theta": {"rational": [1, 3]},
     "gamma": {"rational": [1, 2]}, "window": 100},
])
def test_index_recomputes_a_tampered_cache_entry(tmp_path, capsys, cfg):
    """An entry whose arrays no longer match their digest is a miss, also
    without --cross-check: the run recomputes the window, reports what the
    cold run reported, and overwrites the entry."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, **cfg,
                                    "cache_dir": str(tmp_path / "cache")}))
    reports = [tmp_path / "cold.json", tmp_path / "tampered.json"]
    code, _, _ = run_cli(capsys, "index", "--config", str(cfg_path), "--out", str(reports[0]))
    assert code == 0
    (entry,) = (tmp_path / "cache").glob("*.f64")
    # shift the first row (values, or u), which follows the 32-byte digest, by 0.01
    data = bytearray(entry.read_bytes())
    end = 32 + 8 * cfg["window"]
    data[32:end] = (np.frombuffer(data[32:end], dtype="<f8") + 0.01).astype("<f8").tobytes()
    entry.write_bytes(data)
    code, out, _ = run_cli(capsys, "index", "--config", str(cfg_path), "--out", str(reports[1]))
    assert code == 0 and "window loaded from cache" not in out
    cold, tampered = (json.loads(path.read_text()) for path in reports)
    for key in ("targets", "residual_mass"):
        assert tampered[key] == cold[key]
    code, out, _ = run_cli(capsys, "index", "--config", str(cfg_path))
    assert code == 0 and "window loaded from cache" in out


def test_cache_lists_and_clears_old_npz_entries_but_never_loads_them(tmp_path, capsys):
    """An .npz entry left by an earlier version, under the key of the
    config, is listed and cleared with the current entries; index does not
    read it and writes its own entry beside it."""
    cache_dir = tmp_path / "cache"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, "experiment": "lagrange1d",
                                    "theta": {"rational": [1, 3]}, "window": 300,
                                    "cache_dir": str(cache_dir)}))
    spec = parse_config(cfg_path.read_text()).spec
    cache = SequenceCache(cache_dir)
    cache_dir.mkdir()
    old = cache.path_for(spec).with_suffix(".npz")
    np.savez(old, digest=np.array("0" * 64), values=np.zeros(spec.window))
    code, out, _ = run_cli(capsys, "cache", "list", "--cache-dir", str(cache_dir))
    assert code == 0 and out == f"{old.name}\n1 cached windows in {cache_dir}\n"
    code, out, _ = run_cli(capsys, "index", "--config", str(cfg_path))
    assert code == 0 and "window loaded from cache" not in out
    code, out, _ = run_cli(capsys, "index", "--config", str(cfg_path))
    assert code == 0 and "window loaded from cache" in out
    code, out, _ = run_cli(capsys, "cache", "list", "--cache-dir", str(cache_dir))
    names = sorted([cache.path_for(spec).name, old.name])
    assert code == 0 and out == "".join(f"{name}\n" for name in names) + (
        f"2 cached windows in {cache_dir}\n")
    code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", str(cache_dir))
    assert code == 0 and out == f"removed 2 cached windows from {cache_dir}\n"
    assert list(cache_dir.iterdir()) == []


def test_cache_clear_that_cannot_remove_an_entry_is_usage_error(tmp_path, capsys):
    """An entry that cannot be unlinked (here a directory named like one)
    exits 2 with one error line, not a traceback."""
    (tmp_path / "bad.f64").mkdir()
    code, out, err = run_cli(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {tmp_path}: ") and err.count("\n") == 1
    assert (tmp_path / "bad.f64").is_dir()


def test_verify_out_write_failure_is_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run_cli(capsys, "verify", "lagrange2", "--out", str(blocker / "x.json"))
    assert code == 2
    assert "cannot write" in err and "Traceback" not in err
    missing = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "verify", "lagrange2", "--out", str(missing))
    assert code == 2
    assert f"cannot write {missing}" in err and "Traceback" not in err
    assert not missing.parent.exists()
    path = tmp_path / "x.json"
    code, out, _ = run_cli(capsys, "verify", "lagrange2", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["checks"][0]["passed"] is True


def test_index_with_closed_stdout_writes_every_output_and_exits_two(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, "experiment": "lagrange1d",
                                    "theta": {"rational": [1, 3]}, "window": 300}))
    report, csv, cache_dir = tmp_path / "r.json", tmp_path / "w.csv", tmp_path / "cache"
    code, err = run_with_closed_stdout("index", "--config", str(cfg_path), "--out", str(report),
                                       "--csv", str(csv), "--cache-dir", str(cache_dir))
    assert code == 2
    assert "cannot write to stdout" in err and "Traceback" not in err
    assert json.loads(report.read_text())["config"]["experiment"] == "lagrange1d"
    assert csv.read_text().startswith("n,value\n")
    assert len(SequenceCache(cache_dir).entries()) == 1


def test_verify_with_closed_stdout_writes_the_summary_and_exits_two(tmp_path):
    path = tmp_path / "verify.json"
    code, err = run_with_closed_stdout("verify", "lagrange2", "--out", str(path))
    assert code == 2
    assert "cannot write to stdout" in err and "Traceback" not in err
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
                                         ("--cache-dir", None),
                                         ("--out", "missing/r.json"),
                                         ("--csv", "missing/w.csv")])
def test_index_write_failure_is_usage_error(tmp_path, capsys, flag, target):
    """Paths under a file, a cache dir that is a file, and paths in a
    directory that does not exist: outputs create no directories."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, "experiment": "lagrange1d",
                                    "theta": {"rational": [1, 3]}, "window": 100}))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    if target is None:
        path = blocker
    else:
        path = tmp_path / target if target.startswith("missing/") else blocker / target
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


def test_verify_suites_make_the_span_counts_the_benchmark_pins(monkeypatch):
    """One pass of all four suites under the benchmark's tracer gives every
    span count that its verify workload expects, and every check's verdict
    and line, apart from its timing, as recorded in perfbench/golden.json (a
    traced run reports the outputs incorrect otherwise)."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    import conidx.cli  # noqa: F401  (the tracer wraps names in loaded modules only)
    import conidx.reports  # noqa: F401
    import spans
    import workloads

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_pass()
        results = suites.run_suites()
        tracer.end_pass()
    finally:
        tracer.uninstall()
    want = workloads.Verify(0, {}).expected_spans()
    assert {key: tracer.passes[0].get(key, 0) for key in want} == want
    golden = json.loads((bench / "golden.json").read_text())["verify"]
    assert sorted(r.name for r in results) == sorted(golden)
    for r in results:
        assert [r.passed, workloads.check_line(r.line)] == golden[r.name], r.name


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
