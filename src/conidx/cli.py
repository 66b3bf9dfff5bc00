"""Command-line front end.

Subcommands mirror the library layout: `zeta` evaluates the special-function
kernels, `eval` computes a single operator value, `index` runs one configured
experiment, `verify` runs the built-in verification suites, and `cache`
manages the sequence cache.  Exit codes: 0 all verdicts pass, 1 any verdict
failed, 2 usage or config error -- nothing else.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import __version__
from .harness import _FAMILIES, MAX_WINDOW_2D, run_index_experiment
from .lagrange import eval_jump_decomposed
from .points import PointSpec
from .profiles import hurwitz_zeta, lagrange_jump_profile, lerch_j1, shepard_jump_profile
from .reports import (
    _NUMBER_FIELDS,
    _PARAM_FIELDS,
    _SPEC_FIELDS,
    ConfigError,
    SequenceCache,
    _atomic_write,
    _finite,
    build_run_report,
    emit_csv,
    emit_report,
    parse_config,
)
from .stepfn import CrossCheckError, StepFn2D
from .suites import SUITES, run_suites

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

MAX_EVAL_NODES = 1_000_000  # largest --n and --m of `eval`


@contextmanager
def _writing(path):
    """Report a failed write to path as a usage error (exit 2), not a traceback."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def cmd_zeta(args) -> int:
    # a value past the largest double is reported below, not warned about
    with np.errstate(over="ignore"):
        if args.evaluator == "lerch-j1":
            value = lerch_j1(args.a)
        elif args.evaluator == "hurwitz":
            value = hurwitz_zeta(args.s, args.a)
        elif args.evaluator == "profile":
            value = lagrange_jump_profile(args.x)
        else:  # profile-s
            value = shepard_jump_profile(args.s, args.x)
    if math.isinf(value):
        at = ", ".join(f"{name} = {getattr(args, name)!r}" for name in ("s", "a", "x")
                       if name in vars(args))
        raise ValueError(f"zeta {args.evaluator} at {at} overflows a double")
    print(f"{value:.17g}")
    return EXIT_PASS


def _eval_point(args, name: str) -> PointSpec:
    """The jump point flag --name, read and checked like the config field."""
    text = getattr(args, name)
    if text is None:
        raise ValueError(f"{args.operator} needs --{name}")
    try:
        point = PointSpec.parse(text)
        point.require_interior()
    except ValueError as exc:
        raise ValueError(f"--{name}: {exc}") from exc
    return point


def _eval_number(args, name: str) -> float:
    """The flag --d or --s, defaulted and checked like the config field."""
    default, _, requirement, check = _NUMBER_FIELDS[name]
    value = default if getattr(args, name) is None else getattr(args, name)
    if not (_finite(value) and check(value)):
        raise ValueError(f"--{name} must be {requirement}")
    return value


def cmd_eval(args) -> int:
    op = args.operator
    applies = (_SPEC_FIELDS[op] + _PARAM_FIELDS[op] + (("m",) if op.endswith("2d") else ())
               + (() if op == "shepard1d" else ("cross_check",)))
    for name in ("theta", "gamma", "x0", "y0", "d", "s", "m", "cross_check"):
        if getattr(args, name) not in (None, False) and name not in applies:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to {op}")
    d, s = _eval_number(args, "d"), _eval_number(args, "s")
    n, m = args.n, args.n if args.m is None else args.m
    least = 2 if op.startswith("lagrange") else 1  # the Chebyshev grid has both endpoints
    # the 2-d cross-check's double sum samples the whole n x m node grid
    most, why = ((MAX_WINDOW_2D, " with --cross-check")
                 if op.endswith("2d") and args.cross_check else (MAX_EVAL_NODES, ""))
    for name, count in (("n", n), ("m", m)):
        if count < least:
            raise ValueError(f"--{name} must be >= {least}")
        if count > most:
            raise ValueError(f"--{name} must be <= {most}{why}")
    fam = _FAMILIES[op[:-2]]
    points = [_eval_point(args, name) for name in _SPEC_FIELDS[op]]
    if op.endswith("1d"):
        # the window generator's value at the one-index set {n}
        value = float(fam.at_jump(points[0], s, n, d, indices=[n])[0])
    else:
        jumps = [fam.jump(point.value) for point in points]
        h = StepFn2D(*(fam.step(jump, 1.0) for jump in jumps))
        value = fam.eval_2d(h, s, n, m, *jumps, args.cross_check)
    print(f"{value:.17g}")
    if op == "lagrange1d" and args.cross_check:
        oracle = eval_jump_decomposed(points[0], d, n)
        ok = abs(oracle - value) <= 1e-8
        print(f"cross-check {'ok' if ok else 'FAILED'}: decomposition gives {oracle:.17g}",
              file=sys.stderr)
        return EXIT_PASS if ok else EXIT_FAIL
    return EXIT_PASS


def cmd_index(args) -> int:
    out = {key: path for key, path in (("report", args.out), ("csv", args.csv)) if path}
    flags = {"epsilon": args.epsilon, "checkpoints": args.checkpoints, "tol": args.tol,
             "cross_check": args.cross_check or None, "out": out or None,
             "cache_dir": args.cache_dir or None}
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    config = parse_config(text, {k: v for k, v in flags.items() if v is not None})
    spec = config.spec
    cache = SequenceCache(config.cache_dir) if config.cache_dir else None
    t0 = time.perf_counter()
    window = cache.load(spec) if cache else None
    cached = window is not None
    result = run_index_experiment(spec, window=window)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    if cache and not cached:
        with _writing(cache.dir):
            cache.store(spec, result.window)
    report = build_run_report(config, result, runtime_ms)
    # everything goes to disk before the first line, so a closed stdout loses no output
    if config.out_report:
        with _writing(config.out_report):
            emit_report(report, config.out_report)
    if config.out_csv:
        with _writing(config.out_csv):
            emit_csv(result.window, config.out_csv)
    for entry in report.targets:
        tgt = entry["target"]
        label = entry.get("label") or json.dumps(tgt)
        bound = ">=" if entry.get("predicted_is_lower_bound") else "vs"
        print(f"[{entry['verdict']}] {label}: estimate {entry['estimate']['lower']:.4f} "
              f"{bound} predicted {entry['predicted']:.4f}")
    if result.residual_mass is not None:
        print(f"residual mass: {result.residual_mass:.4f}")
    if cached:
        print("window loaded from cache")
    if config.out_report:
        print(f"report written to {config.out_report}")
    if config.out_csv:
        print(f"window written to {config.out_csv}")
    return EXIT_PASS if result.all_pass else EXIT_FAIL


def cmd_verify(args) -> int:
    names = args.suite or list(SUITES)
    results = run_suites(names)
    failed = [r for r in results if not r.passed]
    if args.out:
        doc = [
            {"name": r.name, "passed": r.passed, "detail": r.detail,
             "runtime_s": round(r.runtime_s, 3), "budget_s": r.budget_s}
            for r in results
        ]
        text = json.dumps({"version": __version__, "checks": doc}, indent=2) + "\n"
        with _writing(args.out):
            _atomic_write(args.out, [text])
    for res in results:
        print(res.line)
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if args.out:
        print(f"report written to {args.out}")
    return EXIT_PASS if not failed else EXIT_FAIL


def cmd_cache(args) -> int:
    cache = SequenceCache(args.cache_dir)
    if cache.dir.exists() and not cache.dir.is_dir():
        raise ValueError(f"cache dir {cache.dir} is not a directory")
    if args.action == "list":
        entries = cache.entries()
        for path in entries:
            print(path.name)
        print(f"{len(entries)} cached windows in {cache.dir}")
        return EXIT_PASS
    with _writing(cache.dir):
        removed = cache.clear()
    print(f"removed {removed} cached windows from {cache.dir}")
    return EXIT_PASS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing never changes it, so
    calls of `main` in one process share it."""
    parser = argparse.ArgumentParser(
        prog="conidx",
        description="Index-of-convergence experiments for interpolation at jumps")
    parser.add_argument("--version", action="version", version=f"conidx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_zeta = sub.add_parser("zeta", help="evaluate the special-function kernels")
    zeta_sub = p_zeta.add_subparsers(dest="evaluator", required=True)
    pz = zeta_sub.add_parser("profile", help="Lagrange jump profile on [0,1)")
    pz.add_argument("x", type=float)
    pzs = zeta_sub.add_parser("profile-s", help="Shepard jump profile on [0,1)")
    pzs.add_argument("--s", type=float, required=True)
    pzs.add_argument("x", type=float)
    pj = zeta_sub.add_parser("lerch-j1", help="alternating Lerch series at s=1")
    pj.add_argument("a", type=float)
    ph = zeta_sub.add_parser("hurwitz", help="Hurwitz zeta, s > 1")
    ph.add_argument("--s", type=float, required=True)
    ph.add_argument("a", type=float)
    p_zeta.set_defaults(func=cmd_zeta)

    p_eval = sub.add_parser("eval", help="single operator value at the jump")
    p_eval.add_argument("operator",
                        choices=["lagrange1d", "lagrange2d", "shepard1d", "shepard2d"])
    # each point flag is the config field of that name: p/q or a preset name
    p_eval.add_argument("--theta", metavar="p/q|NAME", help="jump angle / pi (Lagrange)")
    p_eval.add_argument("--gamma", metavar="p/q|NAME",
                        help="second jump angle / pi (lagrange2d)")
    p_eval.add_argument("--x0", metavar="p/q|NAME", help="jump abscissa (Shepard)")
    p_eval.add_argument("--y0", metavar="p/q|NAME", help="jump ordinate (shepard2d)")
    p_eval.add_argument("--n", type=int, required=True, help="node parameter")
    p_eval.add_argument("--m", type=int, help="second node parameter (2-d; default n)")
    p_eval.add_argument("--d", type=float, help="step value at the jump (lagrange1d; default 1)")
    p_eval.add_argument("--s", type=float, help="Shepard exponent (default 2)")
    p_eval.add_argument("--cross-check", action="store_true",
                        help="verify against the independent evaluation route "
                             "(all but shepard1d)")
    p_eval.set_defaults(func=cmd_eval)

    p_index = sub.add_parser("index", help="run one experiment config")
    p_index.add_argument("--config", required=True, metavar="PATH")
    p_index.add_argument("--out", metavar="PATH", help="write the JSON run report here")
    p_index.add_argument("--csv", metavar="PATH", help="write the window values here")
    p_index.add_argument("--epsilon", type=float, help="dilation half-width override")
    p_index.add_argument("--checkpoints", type=int, help="checkpoint count override")
    p_index.add_argument("--tol", type=float, help="verdict tolerance override")
    p_index.add_argument("--cross-check", action="store_true")
    p_index.add_argument("--cache-dir", metavar="PATH")
    p_index.set_defaults(func=cmd_index)

    p_verify = sub.add_parser("verify", help="run the built-in verification suites")
    p_verify.add_argument("suite", nargs="*",
                          help=f"suites to run (default all): {', '.join(SUITES)}")
    p_verify.add_argument("--out", metavar="PATH", help="write a JSON summary here")
    p_verify.set_defaults(func=cmd_verify)

    p_cache = sub.add_parser("cache", help="manage the sequence cache")
    p_cache.add_argument("action", choices=["list", "clear"])
    p_cache.add_argument("--cache-dir", required=True, metavar="PATH")
    p_cache.set_defaults(func=cmd_cache)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError as exc:
        # the outputs are on disk; send the rest of stdout, and its flush at
        # exit, to the null device so no second error follows
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CrossCheckError as exc:
        print(f"cross-check FAILED: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ConfigError as exc:
        print("config errors:", file=sys.stderr)
        for err in exc.errors:
            print(f"  - {err}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
