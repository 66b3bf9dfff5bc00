"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload is a closed loop run by one single-threaded process: the next
operation starts only after the previous one has returned.  A *pass* is one
sweep over the workload's operations; the worker repeats passes for the run
length and reports medians over them.

Inputs come from `--seed`.  Every workload has a fixed list of *slots*; each
slot holds a small pool of configs with the same operator, window size and
cost class (for rational points the same denominator, because a node hit
skips the O(n) kernel on 1/q of the indices).  Seed 0, the default, takes the
first config of every slot, which is the committed list in README.md; other
seeds pick one config per slot with `random.Random(seed)`.

The package is driven only through public entry points: `conidx.cli.main`
in-process, `harness.run_index_experiment` and `suites.run_suites`.  The
window checks call the public evaluators of `lagrange` and `shepard`.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from reference import ALL_PARTS, Reference

DEFAULT_SEED = 0

IRRATIONALS = ("golden_frac", "inv_sqrt2", "sqrt2_minus_1", "e_minus_2")


def R(p: int, q: int) -> dict:
    return {"rational": [p, q]}


def I(name: str) -> dict:
    return {"irrational": name}


def _config(experiment: str, points: dict, window: int, **extra) -> dict:
    cfg = {"schema_version": 1, "experiment": experiment, **points, "window": window}
    cfg.update({k: v for k, v in extra.items() if v is not None})
    return cfg


def lag1(theta, window=10_000, d=None, targets=None) -> dict:
    return _config("lagrange1d", {"theta": theta}, window, d=d, targets=targets)


def shep1(x0, s, window=10_000, targets=None) -> dict:
    return _config("shepard1d", {"x0": x0}, window, s=s, targets=targets)


def lag2(theta, gamma, window, targets=None) -> dict:
    return _config("lagrange2d", {"theta": theta, "gamma": gamma}, window, targets=targets)


def shep2(x0, y0, window, s=2, targets=None) -> dict:
    return _config("shepard2d", {"x0": x0, "y0": y0}, window, s=s, targets=targets)


TARGETS_1D = [[0.1, 0.3], [0.45, 0.55], [0.7, 0.9]]
TARGETS_CORNER = [[0.05, 0.15], [0.3, 0.45], [0.6, 0.8]]
IRR_PAIRS = [("inv_sqrt2", "golden_frac"), ("golden_frac", "e_minus_2"),
             ("sqrt2_minus_1", "inv_sqrt2"), ("e_minus_2", "sqrt2_minus_1")]
SHEP_IRR = ("inv_sqrt2", "golden_frac", "sqrt2_minus_1", "e_minus_2")

# cold-index: six 1-d configs at the 1-d cap and two 2-d configs whose CSVs
# hold 1M rows each.  Slot 5 is the s = 1 rational case whose `1/2` verdict
# is expected to read fail (README.md, "Expected fail verdicts").
COLD_SLOTS = [
    [lag1(R(1, 3)), lag1(R(2, 3))],
    [lag1(R(p, 5), d=0.5) for p in (2, 1, 3, 4)],
    [lag1(I(n), targets=TARGETS_1D) for n in IRRATIONALS],
    [shep1(R(1, 3), 2), shep1(R(2, 3), 2)],
    [shep1(R(1, 4), 1), shep1(R(3, 4), 1)],
    [shep1(I(n), 3, targets=[[0.2, 0.5]]) for n in SHEP_IRR],
    [lag2(R(1, 3), R(1, 2), 1000), lag2(R(2, 3), R(1, 2), 1000),
     lag2(R(1, 2), R(1, 3), 1000), lag2(R(1, 2), R(2, 3), 1000)],
    [shep2(R(1, 2), R(2, 3), 1000), shep2(R(1, 2), R(1, 3), 1000),
     shep2(R(2, 3), R(1, 2), 1000), shep2(R(1, 3), R(1, 2), 1000)],
]

# warm-index: rational and mixed (rational x irrational) configs, 2-d at the
# 2-d cap and 1-d at the 1-d cap, re-analysed from the cache.
WARM_SLOTS = [
    [lag2(R(1, 3), R(1, 2), 3000), lag2(R(2, 3), R(1, 2), 3000),
     lag2(R(1, 2), R(1, 3), 3000), lag2(R(1, 2), R(2, 3), 3000)],
    [shep2(R(1, 2), R(1, 3), 3000), shep2(R(1, 2), R(2, 3), 3000),
     shep2(R(1, 3), R(1, 2), 3000), shep2(R(2, 3), R(1, 2), 3000)],
    [lag2(R(1, 3), I(n), 3000) for n in IRRATIONALS],
    [shep2(R(1, 2), I(n), 3000) for n in SHEP_IRR],
    [lag1(R(1, 4)), lag1(R(3, 4))],
    [shep1(R(p, 5), 2) for p in (2, 1, 3, 4)],
]
WARM_SWEEP = [(cp, tol) for cp in (16, 32, 64) for tol in (0.03, 0.05)]

# corner-measure: the two irrational x irrational corners, whose index of an
# interval is a 2-d preimage measure, and a rational x irrational corner with
# lower-bound targets.
CORNER_SLOTS = [
    [lag2(I(a), I(b), 3000, targets=TARGETS_CORNER) for a, b in IRR_PAIRS],
    [shep2(I(b), I(a), 3000, targets=TARGETS_CORNER) for a, b in IRR_PAIRS],
    [lag2(R(p, 3), I(n), 3000) for p in (1, 2) for n in IRRATIONALS],
]

SUITE_ORDER = ["lagrange1", "lagrange2", "shepard", "props"]

# Product windows must match the full double sum to the tolerance of the
# harness's own cross-check; 1-d Lagrange windows must match the decomposed
# jump value to the tolerance of the `lagrange1` oracle check.  (At the 1-d
# cap, irrational angles put a few n between 1e-9 and 5e-9: README.md.)
CROSS_CHECK_TOL = 1e-9
DECOMPOSED_TOL = 1e-8


def config_key(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def label(cfg: dict) -> str:
    """Short name of a config: operator and point specs."""
    def point(raw):
        return "/".join(map(str, raw["rational"])) if "rational" in raw else raw["irrational"]

    specs = " ".join(f"{k}={point(v)}" for k, v in cfg.items()
                     if k in ("theta", "gamma", "x0", "y0"))
    s = f" s={cfg['s']}" if "s" in cfg else ""
    return f"{cfg['experiment']} {specs}{s}"


def pick(slots, seed: int) -> list[dict]:
    if seed == DEFAULT_SEED:
        return [pool[0] for pool in slots]
    rng = random.Random(seed)
    return [rng.choice(pool) for pool in slots]


def pool(slots) -> list[dict]:
    return [cfg for slot in slots for cfg in slot]


# ---------------------------------------------------------------------------
# output digests


_RUNTIME_LINE = re.compile(rb'^\s*"runtime_ms": [^\n]*\n', re.MULTILINE)
_CHECK_TIMING = re.compile(r" \(\d+\.\d\ds\)$")


def report_digest(path: Path) -> str:
    """sha256 of a run report with its `runtime_ms` line removed."""
    return hashlib.sha256(_RUNTIME_LINE.sub(b"", path.read_bytes())).hexdigest()


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def result_digest(result) -> str:
    """sha256 of everything an ExperimentResult reports, floats at full precision."""
    doc = {
        "residual_mass": result.residual_mass,
        "epsilon": result.epsilon,
        "reports": [
            {"target": r.target.describe(), "checkpoints": list(r.estimate.checkpoints),
             "ratios": list(r.estimate.ratios), "lower": r.estimate.lower_est,
             "upper": r.estimate.upper_est, "predicted": r.predicted,
             "lower_bound": r.predicted_is_lower_bound, "verdict": r.verdict}
            for r in result.reports
        ],
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def check_line(line: str) -> str:
    """A `conidx verify` line with its `(x.xxs)` timing removed."""
    return _CHECK_TIMING.sub("", line)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class PassResult:
    wall_s: float
    wall_ref: float  # wall_s in reference units (reference.py)
    op_s: list
    op_ref: list  # the operations' costs in reference units
    # op key -> [outcome, digest...]; the outcome is an exit code, a verdict,
    # or the repr of the exception the operation raised
    outputs: dict


def _cli(cli, argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception as exc:  # an operation that raises has failed
        return repr(exc)


def _spec(points, raw: dict):
    if "rational" in raw:
        return points.PointSpec.rational(*raw["rational"])
    return points.PointSpec.irrational(raw["irrational"])


def _sample_n(rng: random.Random, n_max: int, k: int) -> list[int]:
    return sorted(rng.sample(range(2, n_max + 1), k))


class Workload:
    """Base class: subclasses define `slots`, `setup`, `run_pass` and checks."""

    name = ""
    slots: list = []
    reference = ALL_PARTS  # the kinds of reference work its speed is measured with

    def __init__(self, seed: int, mods: dict, cfgs=None):
        self.seed = seed
        self.mods = mods
        self.cfgs = pick(self.slots, seed) if cfgs is None else cfgs
        self.ref = Reference(self.reference)
        self.fail_count = 0
        self.problems: list = []

    def fail(self, key: str, why: str) -> None:
        self.fail_count += 1
        if len(self.problems) < 20:
            self.problems.append(f"{key}: {why}")

    def compare(self, golden: dict, first: PassResult, res: PassResult) -> None:
        """Golden and rerun checks of one pass; one failure per failed operation."""
        for key, out in res.outputs.items():
            want = golden.get(key)
            if want is None:
                why = "no golden entry"
            elif out[0] != want[0]:
                why = f"outcome {out[0]!r}, expected {want[0]!r}"
            elif out != want:
                why = f"output differs from golden: {out[1:]} != {want[1:]}"
            elif first.outputs.get(key) != out:
                why = "rerun output is not byte-identical"
            else:
                continue
            self.fail(key, why)

    def windows(self) -> dict:
        return {label(c): c["window"] for c in self.cfgs}

    def final_checks(self, last: PassResult) -> None:
        pass

    # -- oracle checks on windows -------------------------------------------

    def check_window(self, key: str, cfg: dict, win, rng: random.Random) -> None:
        if win.dim == 2:
            why = self._cross_check_2d(cfg, win, rng)
        elif cfg["experiment"] == "lagrange1d":
            why = self._decomposed(cfg, win.values, _sample_n(rng, cfg["window"], 16))
        else:
            why = None
        if why:
            self.fail(key, why)

    def _cross_check_2d(self, cfg: dict, win, rng: random.Random) -> str | None:
        """Factor products against the full double sum (`cross_check=True`).

        The double sum samples the step at floating-point Chebyshev nodes, so
        where a rational Lagrange angle makes the jump an exact node it can
        land on the wrong side of the jump (README.md, "Findings").  Those n
        are checked against the exact node-hit value instead: the factor
        there is the step's value at the jump, 1.
        """
        lg, sh, points = self.mods["lagrange"], self.mods["shepard"], self.mods["points"]
        step2d = self.mods["stepfn"].StepFn2D
        u, v = win.factors
        if cfg["experiment"] == "lagrange2d":
            sx, sy = _spec(points, cfg["theta"]), _spec(points, cfg["gamma"])
            x0, y0 = math.cos(math.pi * sx.value), math.cos(math.pi * sy.value)
            h = step2d.upper_right(x0, y0)
            for spec, factor in ((sx, u), (sy, v)):
                hits = [n for n in range(2, 201) if lg.grid_offset(spec, n) == 0.0]
                for n in rng.sample(hits, min(3, len(hits))):
                    if factor[n - 1] != 1.0:
                        return f"factor at the node hit n={n} is {factor[n - 1]!r}, not 1"
            n_values = rng.sample([n for n in range(2, 201) if lg.grid_offset(sx, n) != 0.0
                                   and lg.grid_offset(sy, n) != 0.0], 5)
            direct = [lg.lagrange_eval_2d(h, n, n, x0, y0, cross_check=True)
                      for n in n_values]
        else:
            x0 = _spec(points, cfg["x0"]).value
            y0 = _spec(points, cfg["y0"]).value
            h = step2d.lower_left(x0, y0)
            n_values = _sample_n(rng, 200, 5)
            direct = [sh.shepard_eval_2d(h, sh.ShepardParams(cfg["s"], n),
                                         sh.ShepardParams(cfg["s"], n), x0, y0,
                                         cross_check=True)
                      for n in n_values]
        for n, want in zip(n_values, direct):
            got = u[n - 1] * v[n - 1]
            if abs(got - want) > CROSS_CHECK_TOL:
                return f"factor product at n=m={n} is {got!r}, double sum {want!r}"
        return None

    def _decomposed(self, cfg: dict, values, n_values) -> str | None:
        """`eval_jump_decomposed` against a 1-d Lagrange window."""
        spec = _spec(self.mods["points"], cfg["theta"])
        d = cfg.get("d", 1.0)
        for n in n_values:
            want = self.mods["lagrange"].eval_jump_decomposed(spec, d, n)
            if abs(values[n - 1] - want) > DECOMPOSED_TOL:
                return f"window value at n={n} is {values[n - 1]!r}, decomposition {want!r}"
        return None


class IndexWorkload(Workload):
    """Shared parts of the two `conidx index` workloads.

    They run in an empty working directory and pass relative paths named
    after the config, so the paths a report echoes are the same in every run.
    """

    def setup(self) -> None:
        """Write each config to disk and parse it once."""
        parse = self.mods["reports"].parse_config
        self.paths = {}
        for cfg in self.cfgs:
            key = config_key(cfg)
            path = Path(f"config-{hashlib.sha256(key.encode()).hexdigest()[:12]}.json")
            path.write_text(json.dumps(cfg))
            parse(path.read_text())
            self.paths[key] = path
        self.cache_dir = Path("cache")

    def index(self, path: Path, out: Path, *extra):
        return _cli(self.mods["cli"], ["index", "--config", str(path), "--out", str(out),
                                       "--cache-dir", str(self.cache_dir), *extra])

    def check_cached_windows(self) -> None:
        reports = self.mods["reports"]
        cache = reports.SequenceCache(self.cache_dir)
        rng = random.Random(self.seed)
        for cfg in self.cfgs:
            key = config_key(cfg)
            win = cache.load(reports.parse_config(json.dumps(cfg)).to_experiment_spec())
            if win is None:
                self.fail(key, "window missing from the cache")
            else:
                self.check_window(key, cfg, win, rng)


class ColdIndex(IndexWorkload):
    """`conidx index --out --csv --cache-dir` once per config, empty cache."""

    name = "cold-index"
    slots = COLD_SLOTS

    def run_pass(self) -> PassResult:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        op_s, op_ref, codes = [], [], {}
        self.ref.start_pass()
        for key, path in self.paths.items():
            t0 = time.perf_counter()
            codes[key] = self.index_csv(path)
            op_s.append(time.perf_counter() - t0)
            op_ref.append(self.ref.after_op(op_s[-1]))
        outputs = {key: self.outputs(path, codes[key]) for key, path in self.paths.items()}
        return PassResult(sum(op_s), sum(op_ref), op_s, op_ref, outputs)

    def index_csv(self, path: Path):
        return self.index(path, path.with_suffix(".report.json"),
                          "--csv", str(path.with_suffix(".csv")))

    @staticmethod
    def outputs(path: Path, code) -> list:
        if not isinstance(code, int):
            return [code]
        return [code, report_digest(path.with_suffix(".report.json")),
                file_digest(path.with_suffix(".csv"))]

    def final_checks(self, last: PassResult) -> None:
        """The same commands on a warm cache give the same outputs; oracle
        checks on the cached windows."""
        for key, path in self.paths.items():
            if self.outputs(path, self.index_csv(path)) != last.outputs[key]:
                self.fail(key, "cache-hit outputs differ from the cold outputs")
        self.check_cached_windows()

    def expected_spans(self) -> dict:
        """Span counts per pass that the config list implies."""
        n = len(self.cfgs)
        exp = {"cli.main.calls": n, "reports.parse_config.calls": n,
               "reports.emit_csv.calls": n, "reports.emit_report.calls": n,
               "reports.cache.misses": n, "reports.cache.hits": 0,
               "reports.cache.stores": n, "harness.run_index_experiment.calls": n,
               "harness.generate_window.calls": n}
        exp.update(_generation_counts(self.cfgs))
        exp.update(_measure_counts(self.cfgs))
        return exp


class WarmIndex(IndexWorkload):
    """Checkpoint x tolerance sweep with `--out` over cached windows."""

    name = "warm-index"
    slots = WARM_SLOTS

    def setup(self) -> None:
        """Parse the configs and fill the cache with one cold run each.

        The cold run writes its report where the sweep's operation at the
        config's own settings (16 checkpoints, tol 0.03) writes, so the two
        reports echo the same paths and can be compared byte for byte.
        """
        super().setup()
        self.cold = {}
        for key, path in self.paths.items():
            out = self.out_path(path, 16, 0.03)
            code = self.index(path, out)
            self.cold[key] = [code] + ([report_digest(out)] if isinstance(code, int) else [])
        self.ops = [(key, path, cp, tol) for key, path in self.paths.items()
                    for cp, tol in WARM_SWEEP]

    @staticmethod
    def out_path(path: Path, cp: int, tol: float) -> Path:
        return path.with_suffix(f".{cp}.{tol}.json")

    def run_pass(self) -> PassResult:
        op_s, op_ref, codes = [], [], []
        self.ref.start_pass()
        for key, path, cp, tol in self.ops:
            t0 = time.perf_counter()
            codes.append(self.index(path, self.out_path(path, cp, tol),
                                    "--checkpoints", str(cp), "--tol", str(tol)))
            op_s.append(time.perf_counter() - t0)
            op_ref.append(self.ref.after_op(op_s[-1]))
        outputs = {}
        for code, (key, path, cp, tol) in zip(codes, self.ops):
            out = [code]
            if isinstance(code, int):
                out.append(report_digest(self.out_path(path, cp, tol)))
            outputs[f"{key} --checkpoints {cp} --tol {tol}"] = out
        return PassResult(sum(op_s), sum(op_ref), op_s, op_ref, outputs)

    def final_checks(self, last: PassResult) -> None:
        """The cache-hit report at the config's own settings equals the cold one."""
        for key, cold in self.cold.items():
            if last.outputs[f"{key} --checkpoints 16 --tol 0.03"] != cold:
                self.fail(key, "cache-hit report differs from the cold report")
        self.check_cached_windows()

    def expected_spans(self) -> dict:
        n = len(self.ops)
        exp = {"cli.main.calls": n, "reports.parse_config.calls": n,
               "reports.emit_csv.calls": 0, "reports.emit_report.calls": n,
               "reports.cache.hits": n, "reports.cache.misses": 0,
               "reports.cache.stores": 0, "harness.run_index_experiment.calls": n,
               "harness.generate_window.calls": 0}
        exp.update({k: 0 for k in _generation_counts(self.cfgs)})
        exp.update({k: v * len(WARM_SWEEP) for k, v in _measure_counts(self.cfgs).items()})
        return exp


class CornerMeasure(Workload):
    """`run_index_experiment` on 2-d corner configs at the 2-d cap."""

    name = "corner-measure"
    slots = CORNER_SLOTS
    # preimage_measure_2d, vector arithmetic on large arrays, takes most of
    # the time (README.md, "Steadiness")
    reference = ("large-arrays",)

    def setup(self) -> None:
        parse = self.mods["reports"].parse_config
        self.specs = {config_key(c): parse(json.dumps(c)).to_experiment_spec()
                      for c in self.cfgs}

    def run_pass(self) -> PassResult:
        harness = self.mods["harness"]
        op_s, op_ref, results = [], [], {}
        self.ref.start_pass()
        for key, spec in self.specs.items():
            t0 = time.perf_counter()
            try:
                results[key] = harness.run_index_experiment(spec)
            except Exception as exc:  # an operation that raises has failed
                results[key] = repr(exc)
            op_s.append(time.perf_counter() - t0)
            op_ref.append(self.ref.after_op(op_s[-1]))
        self.results = results
        outputs = {key: ([res] if isinstance(res, str)
                         else [res.all_pass, result_digest(res)])
                   for key, res in results.items()}
        return PassResult(sum(op_s), sum(op_ref), op_s, op_ref, outputs)

    def final_checks(self, last: PassResult) -> None:
        rng = random.Random(self.seed)
        for cfg in self.cfgs:
            key = config_key(cfg)
            res = self.results[key]
            if not isinstance(res, str):
                self.check_window(key, cfg, res.window, rng)

    def expected_spans(self) -> dict:
        n = len(self.cfgs)
        exp = {"cli.main.calls": 0, "reports.emit_csv.calls": 0,
               "harness.run_index_experiment.calls": n, "harness.generate_window.calls": n}
        exp.update(_generation_counts(self.cfgs))
        exp.update(_measure_counts(self.cfgs))
        return exp


class Verify(Workload):
    """All four suites through `suites.run_suites`; one operation is one check."""

    name = "verify"

    def __init__(self, seed: int, mods: dict, cfgs=None):
        super().__init__(seed, mods, cfgs)
        self.order = list(SUITE_ORDER)
        if seed != DEFAULT_SEED:
            random.Random(seed).shuffle(self.order)

    def setup(self) -> None:
        pass

    def run_pass(self) -> PassResult:
        """One `run_suites` call.  The reference chunks run around the call,
        so every check of the pass is converted at the pass's speed."""
        self.ref.start_pass()
        t_pass = time.perf_counter()
        try:
            results = self.mods["suites"].run_suites(self.order)
        except Exception as exc:  # the whole pass failed
            wall = time.perf_counter() - t_pass
            wall_ref = self.ref.after_op(wall)
            return PassResult(wall, wall_ref, [wall], [wall_ref], {"run_suites": [repr(exc)]})
        wall = time.perf_counter() - t_pass
        wall_ref = self.ref.after_op(wall)
        outputs = {r.name: [r.passed, check_line(r.line)] for r in results}
        return PassResult(wall, wall_ref, [r.runtime_s for r in results],
                          [r.runtime_s * wall_ref / wall for r in results], outputs)

    def expected_spans(self) -> dict:
        # Fixed by the suite definitions: the oracle check evaluates the
        # decomposition at n = 2..2000 for two angles, and jump_sequence runs
        # twice there, once for the clusters at 1/3, three times for their
        # witnesses, once for the irrational measure and twice for the
        # factors of the corner products.
        return {"lagrange.eval_jump_decomposed.calls": 2 * 1999,
                "lagrange.jump_sequence.calls": 9,
                "profiles.preimage_measure_1d.calls": 1,
                "profiles.preimage_measure_2d.calls": 1,
                "cli.main.calls": 0, "reports.emit_csv.calls": 0}


WORKLOADS = {w.name: w for w in (ColdIndex, WarmIndex, CornerMeasure, Verify)}


def _generation_counts(cfgs) -> dict:
    """One generator span per operator factor at the jump, with its indices."""
    exp = {"lagrange.jump_sequence.calls": 0, "lagrange.jump_sequence.indices": 0,
           "shepard.step_sequence.calls": 0, "shepard.step_sequence.indices": 0}
    for cfg in cfgs:
        factors = 2 if cfg["experiment"].endswith("2d") else 1
        gen = ("lagrange.jump_sequence" if cfg["experiment"].startswith("lagrange")
               else "shepard.step_sequence")
        exp[gen + ".calls"] += factors
        exp[gen + ".indices"] += factors * cfg["window"]
    return exp


def _measure_counts(cfgs) -> dict:
    """One preimage-measure call per interval target of an irrational case."""
    exp = {"profiles.preimage_measure_1d.calls": 0, "profiles.preimage_measure_2d.calls": 0}
    for cfg in cfgs:
        irrational = all("irrational" in cfg[k] for k in ("theta", "gamma", "x0", "y0")
                         if k in cfg)
        if irrational:
            dim = "2d" if cfg["experiment"].endswith("2d") else "1d"
            exp[f"profiles.preimage_measure_{dim}.calls"] += len(cfg["targets"])
    return exp
