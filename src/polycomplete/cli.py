"""Command-line interface.

Subcommands: check (completeness decision), certify (produce an
incompleteness certificate), verify (check a certificate), extract
(incidence matrix from exact-rational geometry), gen (fixture files).

Exit codes are a contract for shell pipelines: 0 = yes/accept/success,
1 = no/reject, 2 = invalid input: every failure leaves through ``main``
as one ``error:`` line on stderr.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from . import fixtures
from .crosscut import SIDE_AUTO, SIDE_DUAL, SIDE_PRIMAL, analyze
from .geometry import parse_geometry, serialize_geometry, validate_instance
from .incidence import decimal_int, parse_incidence, serialize_incidence
from .pulling import find_certificate, parse_certificate, serialize_certificate, verify_certificate

EXIT_YES = 0
EXIT_NO = 1
EXIT_INVALID = 2


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None


def _write_output(path: Optional[str], text: str) -> int:
    if path is None or path == "-":
        sys.stdout.write(text)
        return EXIT_YES
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None
    return EXIT_YES


def cmd_check(args: argparse.Namespace) -> int:
    J = parse_incidence(_read_input(args.file))
    report = analyze(J.d, J, side=args.side)
    answer = "yes" if report.complete else "no"
    dr, dc = report.boundary_d_shape
    lr, lc = report.boundary_d1_shape
    if args.machine:
        print(
            f"answer={answer} d={report.d} side={report.side} "
            f"boundary_d={dr}x{dc} rank_d={report.boundary_d_rank} "
            f"boundary_d1={lr}x{lc} kernel_d1={report.boundary_d1_kernel} "
            f"homology={report.homology_dim}"
        )
    else:
        print(answer)
        s, s_col = report.stats
        print(f"side: {report.side} (max row {s}, max column {s_col})")
        print(f"boundary matrix d: {dr}x{dc}, rank {report.boundary_d_rank}")
        print(f"boundary matrix d-1: {lr}x{lc}, kernel dimension {report.boundary_d1_kernel}")
    return EXIT_YES if report.complete else EXIT_NO


def cmd_certify(args: argparse.Namespace) -> int:
    J = parse_incidence(_read_input(args.file))
    if J.d < 1:
        raise ValueError("certificates are defined for d >= 1 only")
    cert = find_certificate(J.d, J)
    if cert is None:
        print("COMPLETE")
        return EXIT_YES
    print(serialize_certificate(cert), end="")
    return EXIT_NO


def cmd_verify(args: argparse.Namespace) -> int:
    J = parse_incidence(_read_input(args.file))
    if J.d < 1:
        raise ValueError("certificates are defined for d >= 1 only")
    cert = parse_certificate(_read_input(args.certificate))
    accepted = verify_certificate(J.d, J, cert)
    print("accept" if accepted else "reject")
    return EXIT_YES if accepted else EXIT_NO


def cmd_extract(args: argparse.Namespace) -> int:
    report = validate_instance(parse_geometry(_read_input(args.file)))
    if report.ok:
        print("validation: all checks passed", file=sys.stderr)
    else:
        for issue in report.issues:
            print(f"validation: check={issue.check} {issue.subject}: {issue.detail}", file=sys.stderr)
        if not args.force:
            raise ValueError("validation failed (use --force to extract anyway)")
    return _write_output(args.output, serialize_incidence(report.incidence))


GEN_MAX_D = 6
GEN_MAX_N = 12

# The whole `gen` grammar: family -> (integer parameter count, incidence
# generator, geometry generator).  The parameters are d, then n.
GEN_FAMILIES = {
    "cube-km": (0, fixtures.cube_km, fixtures.geometric_cube_km),
    "simplex": (1, fixtures.simplex_incidence, fixtures.geometric_simplex),
    "crosspolytope": (1, fixtures.crosspolytope_incidence, fixtures.geometric_crosspolytope),
    "cyclic": (2, fixtures.cyclic_incidence, fixtures.geometric_cyclic),
}


def cmd_gen(args: argparse.Namespace) -> int:
    tokens = [t.lower().replace("_", "-") for t in args.family]
    prisms = 0
    while prisms < len(tokens) and tokens[prisms] == "prism":
        prisms += 1
    if prisms == len(tokens):
        raise ValueError("missing fixture family")
    family, rest = tokens[prisms], args.family[prisms + 1 :]
    if family not in GEN_FAMILIES:
        raise ValueError(f"unknown fixture family {family!r}")
    count, incidence, geometry = GEN_FAMILIES[family]
    if len(rest) != count:
        raise ValueError(f"family {family!r} takes {count} integer parameter(s)")
    try:
        params = [decimal_int(t) for t in rest]
    except ValueError:
        raise ValueError(f"parameters for {family!r} must be integers") from None
    if args.geometry and prisms:
        raise ValueError("no geometric coordinates for fixture family 'prism'")
    # Desk-scale caps: each prism doubles the columns and adds a dimension.
    for name, value, cap in zip("dn", params, (GEN_MAX_D, GEN_MAX_N)):
        if not 0 <= value <= cap:
            raise ValueError(f"fixture {name}={value} outside 0..{cap}")
    if args.geometry:
        return _write_output(args.output, serialize_geometry(geometry(*params)))
    J = incidence(*params)
    if J.d + prisms > GEN_MAX_D:
        raise ValueError(f"fixture d={J.d + prisms} outside 0..{GEN_MAX_D}")
    for _ in range(prisms):
        J = fixtures.prism(J)
    return _write_output(args.output, serialize_incidence(J))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycomplete",
        description="Decide completeness of partial vertex-facet incidence matrices "
        "of polytopes, and produce/verify incompleteness certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide completeness of an incidence file")
    p.add_argument("file", help="incidence file, or - for stdin")
    p.add_argument(
        "--side",
        choices=[SIDE_AUTO, SIDE_PRIMAL, SIDE_DUAL],
        default=SIDE_AUTO,
        help="run the homology on the matrix, its transpose, or whichever is smaller",
    )
    p.add_argument("--machine", action="store_true", help="single machine-readable line")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("certify", help="produce an incompleteness certificate or COMPLETE")
    p.add_argument("file", help="incidence file, or - for stdin")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="verify an incompleteness certificate")
    p.add_argument("file", help="incidence file, or - for stdin")
    p.add_argument("certificate", help="certificate file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extract", help="extract an incidence matrix from rational geometry")
    p.add_argument("file", help="geometry file, or - for stdin")
    p.add_argument("--force", action="store_true", help="extract even when validation fails")
    p.add_argument("-o", "--output", help="write the incidence file here instead of stdout")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("gen", help="emit fixture files (incidence or geometry format)")
    p.add_argument(
        "family",
        nargs="+",
        help="cube-km | simplex D | crosspolytope D | cyclic D N | prism FAMILY ...",
    )
    p.add_argument("--geometry", action="store_true", help="emit the geometry format")
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        message = str(exc)
    except MemoryError:
        message = "out of memory"
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INVALID


def run():  # console-script entry point
    raise SystemExit(main())


if __name__ == "__main__":  # python -m polycomplete.cli
    run()
