"""Command-line front end: build, verify, and inspect resolutions.

Exit codes: 0 success, 1 check failure, 2 inadmissible inverse system,
3 malformed input, unwritable output (--out or stdout) or bad arguments,
4 internal error (the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable

from .differentials import build_resolution
from .exactness import Session
from .export import FRAGMENTS, report_json
from .invsys import InadmissibleSystemError, InverseSystem, ann_degree, load_invsys, random_invsys
from .polynomials import poly_str
from .verify import CHECK_NAMES, check_ann_match, run_checks

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_INADMISSIBLE = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL_ERROR = 4


class InputError(Exception):
    """The input could not be read or the output could not be written."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", metavar="PATH", help="inverse-system file (JSON)")
    sub.add_argument("--d", type=int, help="number of variables (>= 3)")
    sub.add_argument("--n", type=int, help="half socle degree parameter (>= 2)")
    sub.add_argument("--seed", type=int, help="seed for the random inverse system")
    sub.add_argument("--bound", type=int, default=5, help="coefficient bound (default 5)")
    sub.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    # the options that only some commands take, so that every command's namespace has them all
    sub.set_defaults(fmt="text", checks=None, degree=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gorlin", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_res = subs.add_parser("resolve", parents=[], help="build a resolution and dump it",
                            description="Build the resolution and write it out.")
    _add_input_options(p_res)
    p_res.add_argument("--format", dest="fmt", choices=("text", "json", "cas"), default="text")

    p_ver = subs.add_parser("verify", help="build a resolution and verify it",
                            description="Build the resolution and run the checks.")
    _add_input_options(p_ver)
    p_ver.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    p_ver.add_argument("--checks", help="comma-separated subset of: " + ",".join(CHECK_NAMES))

    p_ann = subs.add_parser("ann", help="print annihilator generators",
                            description="Print the annihilator basis from the oracle and from the resolution.")
    _add_input_options(p_ann)
    p_ann.add_argument("--degree", type=int, help="print the annihilator basis in this degree only")
    return parser


def _validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Check the parsed options, and split --checks into names, in place; parser.error exits with code 3."""
    has_file = args.input is not None
    has_params = args.d is not None or args.n is not None or args.seed is not None
    if has_file == has_params:
        parser.error("give exactly one input source: --input PATH, or --d/--n/--seed")
    if has_params:
        if args.d is None or args.n is None or args.seed is None:
            parser.error("generated input needs all of --d, --n, --seed")
        if args.d < 3:
            parser.error("--d must be at least 3")
        if args.n < 2:
            parser.error("--n must be at least 2")
    if args.bound < 0:
        parser.error("--bound must be nonnegative")
    if args.degree is not None and args.degree < 0:
        parser.error("--degree must be nonnegative")
    args.checks = args.checks.split(",") if args.checks else None
    unknown = [c for c in args.checks or () if c not in CHECK_NAMES]
    if unknown:
        parser.error(f"unknown checks: {unknown}; available: {CHECK_NAMES}")


def _load_phi(args: argparse.Namespace) -> InverseSystem:
    if args.input is None:
        return random_invsys(args.d, args.n, args.seed, args.bound)
    try:
        return load_invsys(args.input)
    except (OSError, ValueError) as exc:
        raise InputError(exc) from exc


def _write_stdout(fragments: Iterable[str]) -> None:
    """Write the fragments to stdout and flush it; a write error is an InputError.

    After a write error stdout is pointed at the null device, so that the
    flush at exit finds nowhere to fail and prints no second error.
    """
    try:
        for text in fragments:
            sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        try:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        except (OSError, ValueError):  # a stdout with no file descriptor
            pass
        raise InputError(exc) from exc


def _emit(args: argparse.Namespace, fragments: Iterable[str]) -> None:
    """Write the fragments to --out, or else to stdout, each as it comes; a write error is an InputError."""
    if args.out:
        try:
            with open(args.out, "w") as fh:
                for text in fragments:
                    fh.write(text)
        except OSError as exc:
            raise InputError(exc) from exc
    else:
        _write_stdout(fragments)


def cmd_resolve(args: argparse.Namespace) -> int:
    phi = _load_phi(args)
    res = build_resolution(phi)
    _write_stdout([f"delta  = {res.delta}\n",
                   f"betti  = {' '.join(str(b) for b in res.betti)}\n",
                   f"twists = {' '.join(str(t) for t in res.twists)}\n"])
    _emit(args, FRAGMENTS[args.fmt](res))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    phi = _load_phi(args)
    res = build_resolution(phi)
    report = run_checks(res, phi, checks=args.checks)
    _emit(args, [report.to_text() if args.fmt == "text" else report_json(report)])
    return EXIT_OK if report.passed else EXIT_CHECK_FAILURE


def cmd_ann(args: argparse.Namespace) -> int:
    phi = _load_phi(args)
    j = args.degree if args.degree is not None else phi.n
    oracle = ann_degree(phi, j)
    lines = [f"annihilator basis in degree {j} (oracle, {len(oracle)} elements):"]
    for g in oracle:
        lines.append(f"  {poly_str(g)}")
    if j == phi.n:
        try:
            res = build_resolution(phi)
        except InadmissibleSystemError:
            lines.append("inverse system is inadmissible (delta = 0); no resolution comparison")
        else:
            lines.append(f"generators from the first matrix ({res.betti[1]} columns):")
            session = Session(res, phi)
            b1 = session.matrix(1)
            lines += [f"  {poly_str(b1.entry(0, col))}" for col in range(res.betti[1])]
            spans_equal = check_ann_match(session).passed
            lines.append(f"spans agree: {'yes' if spans_equal else 'NO'}")
    _emit(args, ["\n".join(lines) + "\n"])
    return EXIT_OK


COMMANDS = {"resolve": cmd_resolve, "verify": cmd_verify, "ann": cmd_ann}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    try:
        return COMMANDS[args.command](args)
    except InadmissibleSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception:
        import traceback  # here alone: a run that ends well does not pay for its import

        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
