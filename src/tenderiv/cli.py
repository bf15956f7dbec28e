"""Command-line surface.

Exit codes: 0 all checks passed, 1 a mathematical check failed or a domain
guard tripped, 2 usage or parse error.  Identical flags and seed produce
byte-identical JSON output; the wall-time line goes to stderr only.
"""

import argparse
import math
import os
import sys

import numpy as np

from .algebra import SingularTensorError, maxabs
from .bridge import to_nested_layout, to_trailing_layout
from .calculus import CATALOG, DomainError, fd_scalar_derivative, fd_tensor_derivative
from .serialize import SerializeError, dumps, load_json, parse_matrix, parse_tensor4
from .suites import full_identity_suite

SEED_ENV_VAR = "TENDERIV_SEED"


def _default_seed():
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw, 0)
    except ValueError:
        raise SerializeError(f"{SEED_ENV_VAR} is not an integer: {raw!r}") from None


def _emit(text, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SerializeError(f"cannot write {out_path}: {exc}") from None


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_identities(args):
    if args.trials < 1:
        return _usage_error("--trials must be at least 1")
    if not 0.0 < args.tol < math.inf:
        return _usage_error(f"--tol must be positive and finite, got {args.tol}")
    seed = _default_seed() if args.seed is None else args.seed
    if not 0 <= seed < 2**64:
        return _usage_error(f"seed must be in [0, 2**64), got {seed}")
    if args.out:
        _emit("", args.out)  # an unwritable --out fails now, before the suite runs
    summary = full_identity_suite(seed=seed, trials=args.trials, tol=args.tol)
    _emit(dumps(summary.to_obj()), args.out)
    failed = [r.name for r in summary.reports if not r.passed]
    print(
        f"identities: {len(summary.reports)} checks, "
        f"{len(failed)} failed, {summary.wall_time_ms} ms",
        file=sys.stderr,
    )
    for name in failed:
        print(f"  FAIL {name}", file=sys.stderr)
    return 0 if summary.all_pass else 1


def _finite(what, value):
    if not np.isfinite(value).all():
        raise DomainError(f"{what} is not finite at this argument")
    return value


def cmd_deriv(args):
    at = parse_matrix(load_json(args.at))
    fn = CATALOG[args.fn]
    key = "matrix" if fn.kind == "scalar" else "tensor4"
    fd_derivative = fd_scalar_derivative if fn.kind == "scalar" else fd_tensor_derivative
    payload = {"fn": fn.name, "kind": fn.kind, "at": {"matrix": at}}
    status = 0
    try:
        # overflow shows up as a non-finite result, reported as a domain error
        with np.errstate(all="ignore"):
            analytic = _finite("derivative", fn.deriv(at))
            payload["derivative"] = {key: analytic}
            if args.fd_check:
                fd = _finite("finite-difference derivative", fd_derivative(fn, at))
                payload["fd"] = {key: fd}
                payload["fd_max_abs_err"] = _finite("fd_max_abs_err", maxabs(fd - analytic))
    except (DomainError, SingularTensorError) as exc:
        payload["error"] = {"type": "domain-error", "message": str(exc)}
        status = 1
    _emit(dumps(payload), args.out)
    return status


_DIRECTIONS = {"to-group2": to_nested_layout, "to-group3": to_trailing_layout}


def cmd_convert(args):
    converted = _DIRECTIONS[args.direction](parse_tensor4(load_json(args.tensor)))
    _emit(dumps({"tensor4": converted}), args.out)
    return 0


def build_parser():
    """The full parser, and a table from each command name to that command's own parser."""
    parser = argparse.ArgumentParser(
        prog="tenderiv",
        description="Verify tensor-calculus identities and compute derivatives "
        "of functions of a 3x3 tensor argument.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def integer(text):  # argparse names this function in its "invalid integer value" error
        return int(text, 0)

    p_id = sub.add_parser("identities", help="run every identity suite")
    p_id.add_argument("--seed", type=integer, default=None,
                      help=f"PRNG seed (default: ${SEED_ENV_VAR} or 0)")
    p_id.add_argument("--trials", type=int, default=200,
                      help="random trials per fuzzed check (default 200)")
    p_id.add_argument("--tol", type=float, default=1e-12,
                      help="normalized tolerance for algebraic identities (default 1e-12)")
    p_id.add_argument("--out", default=None, help="write the JSON report to this path")
    p_id.set_defaults(run=cmd_identities)

    p_dv = sub.add_parser("deriv", help="analytic derivative of a catalog function")
    p_dv.add_argument("--fn", required=True, choices=CATALOG, metavar="NAME",
                      help="one of %(choices)s")
    p_dv.add_argument("--at", required=True, help='path to the argument {"matrix": ...} JSON')
    p_dv.add_argument("--fd-check", action="store_true",
                      help="include a central-difference comparison")
    p_dv.add_argument("--out", default=None, help="write the JSON result to this path")
    p_dv.set_defaults(run=cmd_deriv)

    p_cv = sub.add_parser("convert", help="convert a derivative between index layouts")
    p_cv.add_argument("--direction", required=True, choices=sorted(_DIRECTIONS),
                      help="to-group2 = nested layout, to-group3 = trailing layout")
    p_cv.add_argument("--tensor", required=True, help='path to the {"tensor4": ...} JSON')
    p_cv.add_argument("--out", default=None, help="write the JSON result to this path")
    p_cv.set_defaults(run=cmd_convert)
    return parser, {"identities": p_id, "deriv": p_dv, "convert": p_cv}


def _parse(parser, commands, argv):
    """Parse argv as the full parser does, scanning it once when argv[0] names a command."""
    command = commands.get(argv[0]) if argv else None
    if command is None:  # no arguments, -h, or an unknown command
        return parser.parse_args(argv)
    # the full parser hands every token after the command to this parser and
    # then rejects what it left over with its own usage line
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    return args


_parsers = None  # build_parser's pair, built by the first main call, then reused


def main(argv=None):
    global _parsers
    if _parsers is None:
        _parsers = build_parser()
    try:
        args = _parse(*_parsers, sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize other codes
        return int(exc.code) if exc.code else 0
    try:
        return args.run(args)
    except SerializeError as exc:
        return _usage_error(str(exc))


def entry():
    sys.exit(main())
