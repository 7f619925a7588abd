"""Command line interface.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 internal error (an unexpected exception), 141 standard output closed
early by its reader.  Every error, a bad command line included, is
reported on one stderr line starting with "error: "; a closed standard
output is not an error of the command and prints nothing.
The PROJSUM_TOL environment variable overrides the default tolerance of
verification commands.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .errors import ProjsumError, SerializationError
from .families import PROJECTION_TOL, validate_family
from .selftest import approx_rep_residuals, extract_dilation
from .serialize import (
    certificate_to_dict,
    correlation_to_dict,
    family_from_dict,
    family_to_dict,
    load_json,
    save_json,
    strategy_from_dict,
    strategy_to_dict,
)
from .strategies import (
    canonical_strategy,
    chsh_fixture,
    chsh_win_probability,
    marginals,
    synchronicity_defect,
)
from .sweep import SweepConfig, build_family, emit_report, run_sweep

# 128 + SIGPIPE: what a shell reports for a tool that a closed pipe stopped
EXIT_BROKEN_PIPE = 141


def _tolerance(args) -> float:
    """--tol, else PROJSUM_TOL, else PROJECTION_TOL: a finite number >= 0."""
    name = "PROJSUM_TOL" if args.tol is None else "--tol"
    raw = os.environ.get(name, PROJECTION_TOL) if args.tol is None else args.tol
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise SerializationError(f"{name}={raw!r} is not a finite number >= 0")
    return tol


class _Parser(argparse.ArgumentParser):
    """Hands a parse error to main, which reports it on one line."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="projsum",
        description="projection families, their strategies, and self-test certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    family = sub.add_parser("family", help="generate or verify projection families")
    fam_sub = family.add_subparsers(dest="family_command", required=True)
    gen = fam_sub.add_parser("gen", help="construct a family and write it to JSON")
    gen.add_argument("--n", type=int, required=True, help="number of projections")
    gen.add_argument("--k", type=int, default=1, help="ladder level (1 only for n = 3)")
    gen.add_argument("--out", required=True, help="output path for family.json")
    gen.set_defaults(run=_cmd_family_gen)
    verify = fam_sub.add_parser("verify", help="validate a family file")
    verify.add_argument("path", help="family.json to check")
    verify.add_argument("--tol", type=float, default=None, help="residual tolerance")
    verify.set_defaults(run=_cmd_family_verify)

    strat = sub.add_parser("strategy", help="construct strategies")
    strat_sub = strat.add_subparsers(dest="strategy_command", required=True)
    canon = strat_sub.add_parser("canonical", help="canonical strategy of a family")
    canon.add_argument("--n", type=int, required=True)
    canon.add_argument("--k", type=int, default=1)
    canon.add_argument("--out", required=True, help="output path for strategy.json")
    canon.set_defaults(run=_cmd_strategy_canonical)

    corr = sub.add_parser("correlate", help="induced correlation of a strategy file")
    corr.add_argument("strategy", help="strategy.json")
    corr.add_argument("--out", required=True, help="output path for correlation.json")
    corr.set_defaults(run=_cmd_correlate)

    selftest = sub.add_parser("selftest", help="extract a dilation certificate")
    selftest.add_argument("strategy", help="strategy.json")
    selftest.add_argument("--n", type=int, required=True)
    selftest.add_argument("--k", type=int, default=1)
    selftest.add_argument("--cert", required=True, help="output path for certificate.json")
    selftest.set_defaults(run=_cmd_selftest)

    sweep = sub.add_parser("sweep", help="run a noise sweep from a config file")
    sweep.add_argument("--config", required=True, help="sweep config JSON")
    sweep.add_argument("--out", required=True, help="output report path")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(run=_cmd_sweep)

    demo = sub.add_parser("demo", help="built-in demonstrations")
    demo.add_argument("name", choices=("chsh",), help="which demo to run")
    demo.set_defaults(run=_cmd_demo)
    return parser


def _cmd_family_gen(args) -> int:
    fam = build_family(args.n, args.k)
    save_json(family_to_dict(fam), args.out)
    print(f"wrote family n={fam.n} x={fam.x} d={fam.d} to {args.out}")
    return 0


def _cmd_family_verify(args) -> int:
    tol = _tolerance(args)
    fam = family_from_dict(load_json(args.path))
    report = validate_family(fam, tol=tol)
    print(
        f"n={report.n} d={report.d} x={report.x} tol={tol:g}\n"
        f"  hermiticity max {report.hermiticity.max():.3e}\n"
        f"  idempotency max {report.idempotency.max():.3e}\n"
        f"  sum residual    {report.sum_residual:.3e}\n"
        f"  ranks           {report.ranks} (expected {report.expected_rank})\n"
        f"  trace deviation {report.trace_deviation:.3e}"
    )
    if report.passed:
        print("PASS")
        return 0
    print("FAIL")
    return 1


def _cmd_strategy_canonical(args) -> int:
    fam = build_family(args.n, args.k)
    strategy = canonical_strategy(fam)
    save_json(strategy_to_dict(strategy), args.out)
    print(f"wrote canonical strategy for n={fam.n} x={fam.x} to {args.out}")
    return 0


def _cmd_correlate(args) -> int:
    corr = strategy_from_dict(load_json(args.strategy)).correlation
    save_json(correlation_to_dict(corr), args.out)
    _, _, signaling = marginals(corr)
    print(
        f"wrote {'x'.join(map(str, corr.shape))} table to {args.out}\n"
        f"  synchronicity defect {synchronicity_defect(corr):.3e}\n"
        f"  non-signaling residual {signaling:.3e}"
    )
    return 0


def _cmd_selftest(args) -> int:
    strategy = strategy_from_dict(load_json(args.strategy))
    fam = build_family(args.n, args.k)
    report = approx_rep_residuals(strategy, fam)
    cert = extract_dilation(strategy, fam)
    save_json(certificate_to_dict(cert, report), args.cert)
    print(
        f"wrote certificate to {args.cert}\n"
        f"  delta   {report.delta:.6e}\n"
        f"  epsilon {cert.epsilon:.6e}\n"
        f"  alpha   {cert.alpha:.9f}\n"
        f"  beta    {cert.beta:.6e}\n"
        f"  gap     {cert.gap:.9f}"
    )
    return 0


def _cmd_sweep(args) -> int:
    config = SweepConfig.from_dict(load_json(args.config))
    rows = run_sweep(config)
    emit_report(rows, args.format, args.out)
    failures = sum(1 for r in rows if r.extraction_failed)
    print(f"wrote {len(rows)} rows to {args.out} ({failures} extraction failures)")
    return 0


def _cmd_demo(args) -> int:
    corr = chsh_fixture().correlation
    print("correlation p(i,j|v,w) of the two-qubit xor-game strategy:")
    for v in range(2):
        for w in range(2):
            cells = "  ".join(
                f"p({i},{j})={corr[v, w, i, j]:.6f}"
                for i in range(2)
                for j in range(2)
            )
            print(f"  questions ({v},{w}): {cells}")
    win = chsh_win_probability(corr)
    print(f"uniform-question winning probability: {win:.9f}")
    print(f"reference value (2 + sqrt 2)/4:       {(2 + np.sqrt(2)) / 4:.9f}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        status = args.run(args)
        # a reader that closed the pipe early shows here, not at interpreter exit
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # nothing more reaches the reader; stdout goes to devnull so that the
        # interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProjsumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # bad inputs are usage errors; failed extractions are verification failures
        return 2 if isinstance(exc, ValueError) else 1
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
