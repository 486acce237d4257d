"""Command-line front end: build, verify, and inspect resolutions.

Exit codes: 0 success, 1 check failure, 2 inadmissible inverse system,
3 malformed input, unwritable output or bad arguments, 4 internal error
(the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import dataclass

from .differentials import build_resolution
from .exactness import Session
from .export import report_json, resolution_cas_script, resolution_json, resolution_text
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


@dataclass
class Config:
    command: str
    input: str | None
    d: int | None
    n: int | None
    seed: int | None
    bound: int
    dmax: int | None
    fmt: str
    out: str | None
    checks: list[str] | None
    degree: int | None

    def validate(self, parser: argparse.ArgumentParser) -> None:
        has_file = self.input is not None
        has_params = self.d is not None or self.n is not None or self.seed is not None
        if has_file == has_params:
            parser.error("give exactly one input source: --input PATH, or --d/--n/--seed")
        if has_params:
            if self.d is None or self.n is None or self.seed is None:
                parser.error("generated input needs all of --d, --n, --seed")
            if self.d < 3:
                parser.error("--d must be at least 3")
            if self.n < 2:
                parser.error("--n must be at least 2")
        if self.bound < 0:
            parser.error("--bound must be nonnegative")
        if self.dmax is not None and self.dmax < 0:
            parser.error("--dmax must be nonnegative")
        if self.degree is not None and self.degree < 0:
            parser.error("--degree must be nonnegative")
        unknown = [c for c in self.checks or () if c not in CHECK_NAMES]
        if unknown:
            parser.error(f"unknown checks: {unknown}; available: {CHECK_NAMES}")


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", metavar="PATH", help="inverse-system file (JSON)")
    sub.add_argument("--d", type=int, help="number of variables (>= 3)")
    sub.add_argument("--n", type=int, help="half socle degree parameter (>= 2)")
    sub.add_argument("--seed", type=int, help="seed for the random inverse system")
    sub.add_argument("--bound", type=int, default=5, help="coefficient bound (default 5)")
    sub.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")


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
    p_ver.add_argument("--dmax", type=int, help="degree bound for the exactness check (default 2n+d)")

    p_ann = subs.add_parser("ann", help="print annihilator generators",
                            description="Print the annihilator basis from the oracle and from the resolution.")
    _add_input_options(p_ann)
    p_ann.add_argument("--degree", type=int, help="print the annihilator basis in this degree only")
    return parser


def _config_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Config:
    cfg = Config(
        command=args.command,
        input=args.input,
        d=args.d,
        n=args.n,
        seed=args.seed,
        bound=args.bound,
        dmax=getattr(args, "dmax", None),
        fmt=getattr(args, "fmt", "text"),
        out=args.out,
        checks=args.checks.split(",") if getattr(args, "checks", None) else None,
        degree=getattr(args, "degree", None),
    )
    cfg.validate(parser)
    return cfg


def _load_phi(cfg: Config) -> InverseSystem:
    if cfg.input is None:
        return random_invsys(cfg.d, cfg.n, cfg.seed, cfg.bound)
    try:
        return load_invsys(cfg.input)
    except (OSError, ValueError) as exc:
        raise InputError(exc) from exc


def _emit(cfg: Config, text: str) -> None:
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(exc) from exc
    else:
        sys.stdout.write(text)


def cmd_resolve(cfg: Config) -> int:
    phi = _load_phi(cfg)
    res = build_resolution(phi, ordering="selfdual")
    print(f"delta  = {res.delta}")
    print(f"betti  = {' '.join(str(b) for b in res.betti)}")
    print(f"twists = {' '.join(str(t) for t in res.twists)}")
    if cfg.fmt == "text":
        _emit(cfg, resolution_text(res))
    elif cfg.fmt == "json":
        _emit(cfg, resolution_json(res))
    else:
        _emit(cfg, resolution_cas_script(res))
    return EXIT_OK


def cmd_verify(cfg: Config) -> int:
    phi = _load_phi(cfg)
    res = build_resolution(phi, ordering="selfdual")
    report = run_checks(res, phi, checks=cfg.checks, dmax=cfg.dmax)
    _emit(cfg, report.to_text() if cfg.fmt == "text" else report_json(report))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILURE


def cmd_ann(cfg: Config) -> int:
    phi = _load_phi(cfg)
    j = cfg.degree if cfg.degree is not None else phi.n
    oracle = ann_degree(phi, j)
    lines = [f"annihilator basis in degree {j} (oracle, {len(oracle)} elements):"]
    for g in oracle:
        lines.append(f"  {poly_str(g)}")
    if j == phi.n:
        try:
            res = build_resolution(phi, ordering="selfdual")
        except InadmissibleSystemError:
            lines.append("inverse system is inadmissible (delta = 0); no resolution comparison")
        else:
            lines.append(f"generators from the first matrix ({res.betti[1]} columns):")
            for g in res.matrix(1).entries[0]:
                lines.append(f"  {poly_str(g)}")
            spans_equal = check_ann_match(Session(res, phi)).passed
            lines.append(f"spans agree: {'yes' if spans_equal else 'NO'}")
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


COMMANDS = {"resolve": cmd_resolve, "verify": cmd_verify, "ann": cmd_ann}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from_args(args, parser)
    try:
        return COMMANDS[cfg.command](cfg)
    except InadmissibleSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
