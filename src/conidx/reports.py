"""Experiment configs, CSV/JSON emission, and the on-disk sequence cache.

Configs are strict JSON: unknown fields are rejected and all schema
violations are reported at once.  Output files are written atomically
(temp file + rename) and floats are printed with 17 significant digits so
a re-run produces byte-identical files.
"""
from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .density import IndexReport, SeqWindow
from .harness import MAX_WINDOW_1D, ExperimentResult, ExperimentSpec, _axes
from .points import IRRATIONAL_VALUES, PointSpec


class ConfigError(ValueError):
    """Carries the full list of schema violations."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


_SPEC_FIELDS = {"lagrange1d": ("theta",), "lagrange2d": ("theta", "gamma"),
                "shepard1d": ("x0",), "shepard2d": ("x0", "y0")}
# the jump value d moves only the univariate Lagrange step; s is Shepard's
_PARAM_FIELDS = {"lagrange1d": ("d",), "lagrange2d": (), "shepard1d": ("s",),
                 "shepard2d": ("s",)}
_KNOWN_FIELDS = {
    "schema_version", "experiment", "theta", "gamma", "x0", "y0", "d", "s",
    "window", "epsilon", "checkpoints", "tol", "targets", "eval_point",
    "cross_check", "out", "cache_dir",
}
# name: (default, integer, requirement, check).  window has no default, and
# epsilon's default None (absent or null) lets the harness derive it.  No
# window has more distinct checkpoints than the largest window, MAX_WINDOW_1D.
_NUMBER_FIELDS = {
    "window": (None, True, "an integer >= 2", lambda v: v >= 2),
    "s": (2.0, False, ">= 1", lambda v: v >= 1),
    "d": (1.0, False, "a number", lambda v: True),
    "epsilon": (None, False, "positive", lambda v: v > 0),
    "checkpoints": (16, True, f"an integer >= 2 and <= {MAX_WINDOW_1D}",
                    lambda v: 2 <= v <= MAX_WINDOW_1D),
    "tol": (0.03, False, "positive", lambda v: v > 0),
}


@dataclass
class ExperimentConfig:
    """A validated experiment config: the experiment and where its outputs go."""

    spec: ExperimentSpec
    out_report: str | None = None
    out_csv: str | None = None
    cache_dir: str | None = None

    def to_experiment_spec(self) -> ExperimentSpec:
        return self.spec

    def to_json_dict(self) -> dict:
        spec = self.spec
        out: dict = {"schema_version": 1, "experiment": spec.operator}
        for name, point in zip(_SPEC_FIELDS[spec.operator], (spec.spec_x, spec.spec_y)):
            out[name] = ({"rational": [point.p, point.q]} if point.is_rational
                         else {"irrational": point.name})
        for name in _PARAM_FIELDS[spec.operator]:
            out[name] = getattr(spec, name)
        out["window"] = spec.window
        if spec.epsilon is not None:
            out["epsilon"] = spec.epsilon
        out["checkpoints"] = spec.checkpoint_count
        out["tol"] = spec.tolerance
        if spec.targets is not None:
            out["targets"] = [list(t) for t in spec.targets]
        if spec.eval_point is not None:
            out["eval_point"] = list(spec.eval_point)
        if spec.cross_check:
            out["cross_check"] = True
        out_paths = {key: path for key, path in (("report", self.out_report),
                                                 ("csv", self.out_csv)) if path}
        if out_paths:
            out["out"] = out_paths
        if self.cache_dir:
            out["cache_dir"] = self.cache_dir
        return out


def _finite(value) -> bool:
    """True for a JSON number with a finite float value.  Booleans, NaN, the
    infinities (json reads 1e400 as inf) and integers too large for a float
    are not."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _finite_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_finite, value))


def _parse_point(raw, name: str, errors: list[str]) -> PointSpec | None:
    if not isinstance(raw, dict) or len(raw) != 1:
        errors.append(f"{name}: expected {{\"rational\": [p, q]}} or {{\"irrational\": name}}")
        return None
    if "rational" in raw:
        pq = raw["rational"]
        if not _finite_pair(pq) or not all(isinstance(v, int) for v in pq):
            errors.append(f"{name}.rational: expected a pair of integers")
            return None
        p, q = pq
        if q == 0:
            errors.append(f"{name}.rational: q must be nonzero")
            return None
        try:
            return PointSpec.rational(p, q)
        except ValueError as exc:
            errors.append(f"{name}.rational: {exc}")
            return None
    if "irrational" in raw:
        nm = raw["irrational"]
        if not isinstance(nm, str) or nm not in IRRATIONAL_VALUES:
            presets = ", ".join(sorted(IRRATIONAL_VALUES))
            errors.append(f"{name}.irrational: unknown preset {nm!r}; presets: {presets}")
            return None
        return PointSpec.irrational(nm)
    errors.append(f"{name}: must contain 'rational' or 'irrational'")
    return None


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a JSON experiment config; raise ConfigError listing
    every violation found.

    overrides (e.g. command-line flags) replace fields of the document before
    any check runs, so they are validated exactly as the fields would be.
    """
    errors: list[str] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    for key, value in (overrides or {}).items():  # an object replaces only its own keys
        both = isinstance(value, dict) and isinstance(raw.get(key), dict)
        raw[key] = {**raw[key], **value} if both else value
    for key in sorted(set(raw) - _KNOWN_FIELDS):
        errors.append(f"unknown field {key!r}")
    version = raw.get("schema_version")
    if not (_finite(version) and version == 1):
        errors.append("schema_version must be 1")
    experiment = raw.get("experiment")
    if not isinstance(experiment, str) or experiment not in _SPEC_FIELDS:
        errors.append(f"experiment must be one of {', '.join(_SPEC_FIELDS)}")
        raise ConfigError(errors)
    specs: list[PointSpec] = []
    for name in _SPEC_FIELDS[experiment]:
        if name not in raw:
            errors.append(f"missing required point spec {name!r}")
        else:
            spec = _parse_point(raw[name], name, errors)
            if spec is not None:
                specs.append(spec)
    for name in ("theta", "gamma", "x0", "y0", "d", "s"):
        if name in raw and name not in _SPEC_FIELDS[experiment] + _PARAM_FIELDS[experiment]:
            errors.append(f"field {name!r} does not apply to {experiment}")
    num = {}
    for name, (default, integer, requirement, check) in _NUMBER_FIELDS.items():
        value = raw.get(name, default)
        if value is None and name == "epsilon":
            num[name] = None
        elif _finite(value) and (isinstance(value, int) or not integer) and check(value):
            num[name] = value if integer else float(value)
        else:
            errors.append(f"{name} must be {requirement}")
            num[name] = default
    targets = raw.get("targets")
    if targets is not None:
        if isinstance(targets, list) and targets and all(map(_finite_pair, targets)):
            targets = [(float(a), float(b)) for a, b in targets]
            errors.extend(f"target [{a}, {b}] must have lo <= hi" for a, b in targets if a > b)
        else:
            errors.append("targets must be a nonempty list of finite [lo, hi] pairs")
    eval_point = raw.get("eval_point")
    if eval_point is not None and experiment.endswith("1d"):
        errors.append(f"field 'eval_point' does not apply to {experiment}")
    elif eval_point is not None and not _finite_pair(eval_point):
        errors.append("eval_point must be a finite pair [x, y]")
    elif eval_point is not None:
        eval_point = (float(eval_point[0]), float(eval_point[1]))
    cross_check = raw.get("cross_check", False)
    if "cross_check" in raw and experiment.endswith("1d"):
        errors.append(f"field 'cross_check' does not apply to {experiment}")
    elif not isinstance(cross_check, bool):
        errors.append("cross_check must be a boolean")
    out = raw.get("out", {})
    if (not isinstance(out, dict) or set(out) - {"report", "csv"}
            or not all(isinstance(path, str) for path in out.values())):
        errors.append("out must be an object with string paths at 'report' and/or 'csv'")
    cache_dir = raw.get("cache_dir")
    if cache_dir is not None and not isinstance(cache_dir, str):
        errors.append("cache_dir must be a string path")
    spec = None
    if len(specs) == len(_SPEC_FIELDS[experiment]) and num["window"] is not None:
        try:  # the window's upper cap is the operator's, checked by the spec
            spec = ExperimentSpec(
                operator=experiment, spec_x=specs[0], spec_y=specs[1] if specs[1:] else None,
                d=num["d"], s=num["s"], window=num["window"], epsilon=num["epsilon"],
                checkpoint_count=num["checkpoints"], tolerance=num["tol"],
                eval_point=eval_point, targets=targets, cross_check=cross_check)
        except ValueError as exc:
            errors.append(str(exc))
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(spec=spec, out_report=out.get("report"), out_csv=out.get("csv"),
                            cache_dir=cache_dir)


# ---------------------------------------------------------------------------
# emission


def _atomic_write(path: str | Path, chunks: Iterable, mode: str = "w") -> None:
    """Write the concatenated chunks (bytes for mode "wb") to path through a
    temp file and a rename.  The directory must exist."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Row texts a 2-d CSV holds for a later row with the same u value.  The
# node hits of a rational jump fill the first few; the cap bounds memory.
_HELD_ROWS = 8


def _bit_classes(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of x, told apart by their float64 bits (so 0.0
    and -0.0 stay apart), and the class of each entry."""
    keys, classes = np.unique(x.view(np.uint64), return_inverse=True)
    return keys.view(float), classes


def _csv_chunks(win: SeqWindow) -> Iterator[str]:
    """The CSV text of a window, one chunk per row of a 2-d window.

    Row n is op(u[n-1], v), rounded as the materialized matrix would be.
    Equal bits give equal results, so a 2-d row is formatted once per
    distinct u value, with NUL standing for n: one %-format call on a
    template of "NUL,m,%.17g" lines, or, when v repeats values, its distinct
    values formatted once each and put in column order.  A later row with
    the same u value reuses the text (at most _HELD_ROWS texts are held).
    '%.17g' % x and f"{x:.17g}" print the same bytes.
    """
    if win.dim == 1:
        yield "n,value\n"
        yield "".join(f"{n},{v:.17g}\n" for n, v in enumerate(win.values.tolist(), start=1))
        return
    yield "n,m,value\n"
    size = win.n_max
    u, v = win.factors
    v_vals, v_classes = _bit_classes(v)
    if v_vals.size < size:
        distinct = "%.17g\n" * v_vals.size
        by_column = operator.itemgetter(*v_classes.tolist())
        template = "".join(f"\0,{m},%s\n" for m in range(1, size + 1))

        def row(x) -> str:
            return template % by_column((distinct % tuple(win.op(x, v_vals).tolist())).split("\n"))
    else:
        template = "".join(f"\0,{m},%.17g\n" for m in range(1, size + 1))

        def row(x) -> str:
            return template % tuple(win.op(x, v).tolist())
    u_vals, u_classes = _bit_classes(u)
    last_row = np.empty(u_vals.size, dtype=np.int64)
    last_row[u_classes] = np.arange(1, size + 1)
    held: dict[int, str] = {}
    for n, k, last in zip(range(1, size + 1), u_classes.tolist(), last_row[u_classes].tolist()):
        text = held.get(k)
        if text is None:
            text = row(u_vals[k])
            if n < last and len(held) < _HELD_ROWS:
                held[k] = text
        elif n == last:
            del held[k]
        yield text.replace("\0", str(n))


def emit_csv(win: SeqWindow, path: str | Path) -> None:
    """Write the window values: `n,value` rows, or `n,m,value` row-major.

    The rows are streamed to the file.  A 2-d row is formatted from the
    distinct values of v, and a row whose u value came before reuses the
    text of that row.  The bytes equal those of the earlier
    one-line-at-a-time writer kept in tests/test_kernels.py.
    """
    _atomic_write(path, _csv_chunks(win))


def _target_to_json(report: IndexReport) -> dict:
    t = report.target
    if t.kind == "value":
        tgt: dict = {"value": t.value}
    elif t.kind == "set":
        tgt = {"intervals": [list(iv) for iv in t.intervals]}
    else:
        tgt = {"kind": t.kind}
    entry = {
        "target": tgt,
        "epsilon": report.epsilon,
        "estimate": {
            "checkpoints": list(report.estimate.checkpoints),
            "ratios": list(report.estimate.ratios),
            "lower": report.estimate.lower_est,
            "upper": report.estimate.upper_est,
        },
        "predicted": report.predicted,
        "verdict": report.verdict,
    }
    if report.predicted_is_lower_bound:
        entry["predicted_is_lower_bound"] = True
    if report.label is not None:
        entry["label"] = report.label
    return entry


@dataclass
class RunReport:
    """Everything one experiment run produced, ready for serialization."""

    config: dict
    targets: list[dict]
    residual_mass: float | None
    runtime_ms: float
    version: str = __version__

    def to_json(self) -> str:
        doc = {
            "config": self.config,
            "targets": self.targets,
            "residual_mass": self.residual_mass,
            "runtime_ms": round(self.runtime_ms, 3),
            "version": self.version,
        }
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def build_run_report(config: ExperimentConfig, result: ExperimentResult,
                     runtime_ms: float) -> RunReport:
    return RunReport(
        config=config.to_json_dict(),
        targets=[_target_to_json(r) for r in result.reports],
        residual_mass=result.residual_mass,
        runtime_ms=runtime_ms,
    )


def emit_report(report: RunReport, path: str | Path) -> None:
    _atomic_write(path, [report.to_json()])


# ---------------------------------------------------------------------------
# sequence cache


# Bump when a change to a window kernel (lagrange._window, shepard._window
# and what they call) changes the bits of a window, so that the sequence
# cache cannot serve windows the old kernel computed.
KERNEL_REVISION = 3


class SequenceCache:
    """Content-addressed store for computed operator windows.

    The key hashes the operator, its point specs and parameters, the window
    size, the tool version and the kernel revision, so stale entries never
    match.  It holds the eval point as the harness places it on the jump
    cross (None at the jump itself), so specs that run the same window share
    one entry.  An entry is the sha256 of its rows (32 bytes), then the rows
    as little-endian float64: the values of a 1-d window, or u then v of a
    product window.
    """

    def __init__(self, directory: str | Path):
        self.dir = Path(directory)

    def key(self, spec: ExperimentSpec) -> str:
        axes = _axes(spec)
        at_jump = all(axis.at == axis.jump for axis in axes)
        payload = {
            "operator": spec.operator,
            "spec_x": spec.spec_x.label(),
            "spec_y": spec.spec_y.label() if spec.spec_y else None,
            "d": spec.d,
            "s": spec.s,
            "window": spec.window,
            "eval_point": None if at_jump else [axis.at for axis in axes],
            "version": __version__,
            "kernel_revision": KERNEL_REVISION,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:24]

    def path_for(self, spec: ExperimentSpec) -> Path:
        return self.dir / f"{self.key(spec)}.f64"

    def load(self, spec: ExperimentSpec) -> SeqWindow | None:
        """The cached window for spec, or None on a miss.

        An entry that cannot be read, whose length is not that of the
        spec's rows, whose digest does not match its rows, or whose rows
        are not finite counts as a miss; the caller then recomputes the
        window and overwrites the entry.
        """
        rows, size = (2 if spec.operator.endswith("2d") else 1), spec.window
        try:
            data = self.path_for(spec).read_bytes()
        except OSError:
            return None
        body = memoryview(data)[32:]
        if len(body) != 8 * rows * size or hashlib.sha256(body).digest() != data[:32]:
            return None
        # a copy of each row, which owns its memory and is writable
        arrays = [row.astype(float) for row in np.frombuffer(body, "<f8").reshape(rows, size)]
        try:
            return SeqWindow.from_product(*arrays) if rows == 2 else SeqWindow.from_values_1d(*arrays)
        except ValueError:  # a row that is not finite
            return None

    def store(self, spec: ExperimentSpec, win: SeqWindow) -> Path:
        """Write win as spec's entry.  Its rows hold no op and no shape, so a
        sum window, or one of another dimension or size, is a ValueError."""
        if win.op is not np.multiply:
            raise ValueError("the cache holds 1-d and product windows only")
        if (win.dim, win.n_max) != (2 if spec.operator.endswith("2d") else 1, spec.window):
            raise ValueError(f"a {win.dim}-d window of size {win.n_max} does not fit "
                             f"{spec.operator} at window {spec.window}")
        body = b"".join(np.asarray(row, dtype="<f8").tobytes()
                        for row in (win.factors if win.dim == 2 else (win.values,)))
        path = self.path_for(spec)
        self.dir.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, [hashlib.sha256(body).digest(), body], "wb")
        return path

    def entries(self) -> list[Path]:
        if not self.dir.exists():
            return []
        # *.npz entries are left by earlier versions: listed and cleared, never loaded
        return sorted([*self.dir.glob("*.f64"), *self.dir.glob("*.npz")])

    def clear(self) -> int:
        n = 0
        for path in self.entries():
            path.unlink()
            n += 1
        return n
