"""Command-line surface.

Exit codes: 0 all checks passed, 1 a mathematical check failed or a domain
guard tripped, 2 usage or parse error.  Identical flags and seed produce
byte-identical JSON output; the wall-time line goes to stderr only.
"""

import argparse
import os
import sys

from .algebra import SingularTensorError, maxabs
from .bridge import to_nested_layout, to_trailing_layout
from .calculus import DomainError, FDConfig, catalog, fd_scalar_derivative, fd_tensor_derivative
from .serialize import SerializeError, dumps, load_json, matrix_obj, parse_matrix, parse_tensor4, tensor4_obj
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
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_identities(args):
    if args.trials < 1:
        return _usage_error("--trials must be at least 1")
    if not (args.tol > 0.0):
        return _usage_error("--tol must be positive")
    seed = _default_seed() if args.seed is None else args.seed
    if not 0 <= seed < 2**64:
        return _usage_error(f"seed must be in [0, 2**64), got {seed}")
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


def cmd_deriv(args):
    fns = catalog()
    if args.fn not in fns:
        return _usage_error(
            f"unknown function {args.fn!r}; available: {', '.join(sorted(fns))}"
        )
    try:
        at = parse_matrix(load_json(args.at))
    except SerializeError as exc:
        return _usage_error(str(exc))

    fn = fns[args.fn]
    payload = {"fn": fn.name, "kind": fn.kind, "at": matrix_obj(at)}
    try:
        analytic = fn.deriv(at)
        if fn.kind == "scalar":
            payload["derivative"] = matrix_obj(analytic)
        else:
            payload["derivative"] = tensor4_obj(analytic)
        if args.fd_check:
            cfg = FDConfig()
            if fn.kind == "scalar":
                fd = fd_scalar_derivative(fn, at, cfg)
                payload["fd"] = matrix_obj(fd)
            else:
                fd = fd_tensor_derivative(fn, at, cfg)
                payload["fd"] = tensor4_obj(fd)
            payload["fd_max_abs_err"] = maxabs(fd - analytic)
    except (DomainError, SingularTensorError) as exc:
        payload["error"] = {"type": "domain-error", "message": str(exc)}
        _emit(dumps(payload), args.out)
        return 1
    _emit(dumps(payload), args.out)
    return 0


_DIRECTIONS = {"to-group2": to_nested_layout, "to-group3": to_trailing_layout}


def cmd_convert(args):
    try:
        tensor = parse_tensor4(load_json(args.tensor))
    except SerializeError as exc:
        return _usage_error(str(exc))
    converted = _DIRECTIONS[args.direction](tensor)
    _emit(dumps(tensor4_obj(converted)), args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tenderiv",
        description="Verify tensor-calculus identities and compute derivatives "
        "of functions of a 3x3 tensor argument.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identities", help="run every identity suite")
    p_id.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                      help=f"PRNG seed (default: ${SEED_ENV_VAR} or 0)")
    p_id.add_argument("--trials", type=int, default=200,
                      help="random trials per fuzzed check (default 200)")
    p_id.add_argument("--tol", type=float, default=1e-12,
                      help="normalized tolerance for algebraic identities (default 1e-12)")
    p_id.add_argument("--out", default=None, help="write the JSON report to this path")
    p_id.set_defaults(run=cmd_identities)

    p_dv = sub.add_parser("deriv", help="analytic derivative of a catalog function")
    p_dv.add_argument("--fn", required=True,
                      help="function name (I1, I2, I3, trI_pow_2..4, id, transpose, "
                           "square, cube, inverse)")
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
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize other codes
        return int(exc.code) if exc.code else 0
    try:
        return args.run(args)
    except SerializeError as exc:
        return _usage_error(str(exc))


def entry():
    sys.exit(main())
