"""Spans around the calls into each conidx module, recorded from outside.

`Tracer.install()` replaces every public function the benchmark times with
a wrapper.  `harness`, `cli` and `suites` bind many of these names with
`from ... import`, so a wrapper is installed on *every* module attribute that
names the function, not only on the defining module; methods are replaced on
their class.  A span's self time is its duration minus the time of the spans
it caused; `total_s`, kept for the spans whose children do the work, is the
whole duration.  Counts are aggregated per pass and the spans are not kept.

Counts named `*.points`, `*.indices`, `*.kernel_terms`, `*.checkpoints`
and `density.product_pairs` are computed from the call's input sizes; the
`*.bytes` counts are the size of the file the call wrote (for a report,
without the digits of its `runtime_ms`).  None is timed, so
each repeats exactly for the same inputs.
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _points(pos, name):
    def extra(st, key, args, kwargs, result):
        st[key + ".points"] += int(np.size(_arg(args, kwargs, pos, name)))
    return extra


def _sequence(pos, kernel_terms):
    """Windows of n = 1..n_max: indices, and the kernel terms they sum."""
    def extra(st, key, args, kwargs, result):
        n_max = int(_arg(args, kwargs, pos, "n_max"))
        st[key + ".indices"] += n_max
        st[key.split(".")[0] + ".kernel_terms"] += kernel_terms(n_max)
    return extra


def _decomposed(st, key, args, kwargs, result):
    st[key + ".indices"] += 1
    st["lagrange.kernel_terms"] += int(_arg(args, kwargs, 2, "n"))


def _hit_counts(st, key, args, kwargs, result):
    win = args[0]
    cps = np.asarray(_arg(args, kwargs, 2, "checkpoints"), dtype=np.int64)
    st[key + ".checkpoints"] += int(cps.size)
    if win.factors is not None:
        st["density.product_pairs"] += int((cps * cps).sum())


def _csv_bytes(st, key, args, kwargs, result):
    st[key + ".bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _report_bytes(st, key, args, kwargs, result):
    """Report size without the digits of `runtime_ms`, which vary with timing."""
    runtime = json.dumps(round(_arg(args, kwargs, 0, "report").runtime_ms, 3))
    st[key + ".bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path")) - len(runtime)


def _cache_load(st, key, args, kwargs, result):
    st["reports.cache.hits" if result is not None else "reports.cache.misses"] += 1


def _cache_store(st, key, args, kwargs, result):
    st["reports.cache.stores"] += 1


# span name -> (module, attribute path, per-call counter or None)
SPANS = {
    "profiles.lerch_j1": ("conidx.profiles", "lerch_j1", _points(0, "a")),
    "profiles.hurwitz_zeta": ("conidx.profiles", "hurwitz_zeta", _points(1, "a")),
    "profiles.invert_monotone": ("conidx.profiles", "invert_monotone", _points(1, "y")),
    "profiles.preimage_measure_1d": ("conidx.profiles", "preimage_measure_1d", None),
    "profiles.preimage_measure_2d": ("conidx.profiles", "preimage_measure_2d", None),
    "lagrange.jump_sequence": ("conidx.lagrange", "jump_sequence",
                               _sequence(2, lambda n: n * (n + 1) // 2)),
    "lagrange.step_sequence_at": ("conidx.lagrange", "step_sequence_at",
                                  _sequence(2, lambda n: n * (n + 1) // 2)),
    "lagrange.eval_jump_decomposed": ("conidx.lagrange", "eval_jump_decomposed", _decomposed),
    "shepard.step_sequence": ("conidx.shepard", "step_sequence",
                              _sequence(2, lambda n: n * (n + 1) // 2 + n)),
    "shepard.step_sequence_at": ("conidx.shepard", "step_sequence_at",
                                 _sequence(3, lambda n: n * (n + 1) // 2 + n)),
    "density.hit_counts": ("conidx.density", "SeqWindow.hit_counts", _hit_counts),
    "density.index_to_target": ("conidx.density", "index_to_target", None),
    "harness.build_table": ("conidx.harness", "build_table", None),
    "harness.generate_window": ("conidx.harness", "generate_window", None),
    "harness.run_index_experiment": ("conidx.harness", "run_index_experiment", None),
    "cli.main": ("conidx.cli", "main", None),
    "reports.emit_csv": ("conidx.reports", "emit_csv", _csv_bytes),
    "reports.emit_report": ("conidx.reports", "emit_report", _report_bytes),
    "reports.parse_config": ("conidx.reports", "parse_config", None),
    "reports.cache.load": ("conidx.reports", "SequenceCache.load", _cache_load),
    "reports.cache.store": ("conidx.reports", "SequenceCache.store", _cache_store),
}

# The per-layer metrics, as BENCHMARK.json lists them: name -> (unit, better).
_CALLS_SELF = ("calls", "self_s")
PER_LAYER = {}
for _name, _fields in [
    ("profiles.lerch_j1", ("calls", "points", "self_s")),
    ("profiles.hurwitz_zeta", ("calls", "points", "self_s")),
    ("profiles.invert_monotone", ("calls", "points", "self_s")),
    ("profiles.preimage_measure_1d", ("calls", "self_s", "total_s")),
    ("profiles.preimage_measure_2d", ("calls", "self_s", "total_s")),
    ("lagrange.jump_sequence", ("calls", "indices", "self_s")),
    ("lagrange.step_sequence_at", ("calls", "indices", "self_s")),
    ("lagrange.eval_jump_decomposed", ("calls", "indices", "self_s")),
    ("lagrange", ("kernel_terms",)),
    ("shepard.step_sequence", ("calls", "indices", "self_s")),
    ("shepard.step_sequence_at", ("calls", "indices", "self_s")),
    ("shepard", ("kernel_terms",)),
    ("density.hit_counts", ("calls", "checkpoints", "self_s")),
    ("density", ("product_pairs",)),
    ("density.index_to_target", _CALLS_SELF),
    ("harness.build_table", ("self_s",)),
    ("harness.generate_window", ("self_s", "total_s")),
    ("harness.run_index_experiment", ("self_s",)),
    ("cli.main", _CALLS_SELF),
    ("reports.emit_csv", ("calls", "bytes", "self_s")),
    ("reports.emit_report", ("calls", "bytes", "self_s")),
    ("reports.parse_config", _CALLS_SELF),
    ("reports.cache", ("load_s", "store_s", "hits", "misses", "hit_ratio")),
]:
    for _field in _fields:
        _unit = {"self_s": "s", "total_s": "s", "load_s": "s", "store_s": "s", "bytes": "B",
                 "hit_ratio": "ratio"}.get(_field, "count")
        _better = "higher" if _field in ("hits", "hit_ratio") else "lower"
        PER_LAYER[f"{_name}.{_field}"] = (_unit, _better)

# `conidx verify` check names -> the short names of their runtime metrics
SUITE_CHECKS = {
    "jump-value decomposition oracle (n<=2000)": "lagrange-oracle",
    "lagrange clusters at angle 1/3 pi (N=3000)": "lagrange-rational-clusters",
    "lagrange irrational angle, measure target (N=5000)": "lagrange-irrational-measure",
    "lagrange uniform convergence off the jump": "lagrange-uniform-convergence",
    "lagrange corner products 1/3 x 1/2 (N=600/axis)": "lagrange-corner-products",
    "shepard edge clusters s=2, y0=1/2 (N=1000/axis)": "shepard-edge-clusters",
    "shepard corner s=1 at (1/2,1/2) (N=1000/axis)": "shepard-corner-s1",
    "shepard uniform convergence off the jump set": "shepard-uniform-convergence",
    "cos-product indices (N=2000, eps=0.1)": "cos-product",
    "special-function values and reflection": "special-functions",
    "product rule (rotations, N=1500) + MC measure": "product-rule-mc",
    "uniform-limit rule (y_n + 1/m)": "uniform-limit-rule",
    "randomized property suite": "randomized-properties",
}
for _slug in SUITE_CHECKS.values():
    PER_LAYER[f"suites.{_slug}.runtime_s"] = ("s", "lower")
PER_LAYER["trace.overhead_s"] = ("s", "lower")

COMPUTED = tuple(k for k in PER_LAYER
                 if k.rsplit(".", 1)[1] in ("points", "indices", "kernel_terms",
                                            "checkpoints", "product_pairs", "bytes"))
TIMES = tuple(k for k, (unit, _) in PER_LAYER.items() if unit == "s")


class Tracer:
    """Wraps the functions in SPANS and sums their counts per pass."""

    def __init__(self):
        self.stack: list[float] = []   # child-span time of each open span
        self.stats = defaultdict(float)
        self.passes: list[dict] = []
        self.patches: list = []

    def _wrap(self, key: str, fn, extra):
        stack, perf = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            start = perf()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                st = self.stats
                st[key + ".calls"] += 1
                st[key + ".self_s"] += dur - child
                st[key + ".total_s"] += dur
            if extra is not None:
                extra(st, key, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "conidx" or n.startswith("conidx."))]
        for key, (modname, attr, extra) in SPANS.items():
            owner = sys.modules[modname]
            *cls, name = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = owner.__dict__[name]
            wrapper = self._wrap(key, original, extra)
            for target in [owner] if cls else modules:
                for binding, value in list(vars(target).items()):
                    if value is original:
                        self.patches.append((target, binding, original))
                        setattr(target, binding, wrapper)

    def uninstall(self) -> None:
        for target, binding, original in reversed(self.patches):
            setattr(target, binding, original)
        self.patches.clear()

    def begin_pass(self) -> None:
        self.stats = defaultdict(float)

    def end_pass(self) -> None:
        self.passes.append(dict(self.stats))

    def metrics(self) -> tuple[dict, list]:
        """Per-pass counts (identical in every pass) and median times."""
        problems = []
        out = {}
        for name in PER_LAYER:
            if name.startswith(("suites.", "trace.")):
                continue
            values = [_value(p, name) for p in self.passes]
            if name in TIMES:
                out[name] = statistics.median(values)
            else:
                if len(set(values)) != 1:
                    problems.append(f"{name} differs between traced passes: {values}")
                out[name] = values[0]
        return out, problems


def _value(stats: dict, name: str) -> float:
    if name == "reports.cache.load_s":
        return stats.get("reports.cache.load.self_s", 0.0)
    if name == "reports.cache.store_s":
        return stats.get("reports.cache.store.self_s", 0.0)
    if name == "reports.cache.hit_ratio":
        hits = stats.get("reports.cache.hits", 0)
        total = hits + stats.get("reports.cache.misses", 0)
        return hits / total if total else 0.0
    return stats.get(name, 0.0) if name in TIMES else int(stats.get(name, 0))
