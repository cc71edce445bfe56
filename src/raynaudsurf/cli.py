"""Command-line front door.

Subcommands: validate, invariants, table, families, theorems, section-ring.
Output is byte-deterministic for fixed inputs: stable ordering everywhere,
rationals printed as reduced "num/den" strings, no floating point anywhere.
Exit codes: 0 ok, 1 internal error, 2 invalid input, 3 theorem contradiction.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import __version__
from .numclass import (
    canonical_X,
    cusp_exponents,
    fiber_genus,
    frac_str,
    is_ample_KX,
    kodaira_vanishing_KX,
    selfint_Etilde,
)
from .params import InvalidParams, Structure, SurfaceParams, enumerate_families, is_normal, is_smooth, validate
from .sectionring import local_cohomology_report
from .surfcoh import NMAX, TheoremContradicted, surface_cert, theorem_predicates


class SystemExit2(Exception):
    """Invalid input; turned into exit code 2 by main()."""


def _add_param_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("-p", type=int, required=True, help="characteristic (prime)")
    sp.add_argument("-g", type=int, required=True, help="genus of the base curve")
    sp.add_argument("--dD", type=int, required=True, help="degree of the divisor D")
    sp.add_argument("-e", type=int, required=True, help="root order, O(D) = N^e")
    sp.add_argument("--ell", type=int, required=True, help="degree of the cyclic cover")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--tango", action="store_true", help="(df) = pD exactly")
    grp.add_argument("--pretango", action="store_true", help="(df) >= pD only")


def _add_format_flag(sp: argparse.ArgumentParser, choices=("json", "csv", "pretty")) -> None:
    sp.add_argument("--format", choices=list(choices), default="json")


def _params_from_args(args: argparse.Namespace) -> SurfaceParams:
    structure = Structure.TANGO if args.tango else Structure.PRETANGO
    return validate(args.p, args.g, args.dD, args.e, args.ell, structure)


def _check_window(nmin: int, nmax: int) -> None:
    if nmin > nmax:
        raise SystemExit2(f"--nmin {nmin} exceeds --nmax {nmax}")
    if max(abs(nmin), abs(nmax)) > NMAX:
        raise SystemExit2(f"|n| is capped at {NMAX}; requested window [{nmin}, {nmax}]")


def _dump(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        params = _params_from_args(args)
    except InvalidParams as err:
        if args.format == "json":
            print(_dump({"valid": False, "violations": err.violations}))
        else:
            print("invalid parameters:")
            for v in err.violations:
                print(f"  {v}")
        return 2
    payload = {"valid": True, "params": params.to_json(), "dN": params.dN, "dNl": params.dNl}
    if args.format == "json":
        print(_dump(payload))
    else:
        print("valid parameters:")
        for key, val in payload["params"].items():
            print(f"  {key} = {val}")
        print(f"  dN = {params.dN}")
        print(f"  dNl = {params.dNl}")
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    kx = canonical_X(params)
    ell, p = cusp_exponents(params)
    payload = {
        "params": params.to_json(),
        "dN": params.dN,
        "dNl": params.dNl,
        "Etilde_sq": frac_str(selfint_Etilde(params)),
        "K_X": kx.to_json(),
        "K_X_ample": is_ample_KX(params),
        "kodaira_vanishing_KX": kodaira_vanishing_KX(params),
        "fiber_genus": fiber_genus(params),
        "cusp": [ell, p],
        "smooth": is_smooth(params),
        "normal": is_normal(params),
    }
    if args.format == "json":
        print(_dump(payload))
    else:
        print(f"parameters      : {params.to_json()}")
        print(f"Etilde^2        = {payload['Etilde_sq']}")
        print(f"K_X             = {kx.to_json()['cEt']} * Etilde + phi^*(deg {kx.to_json()['d']})")
        print(f"K_X ample       : {payload['K_X_ample']}")
        print(f"H1(X,K_X^-1)=0  : {payload['kodaira_vanishing_KX']}")
        print(f"fiber genus     = {payload['fiber_genus']}")
        print(f"cusp            : Z^{ell} = W^{p}")
        print(f"smooth          : {payload['smooth']}")
        print(f"normal          : {payload['normal']}")
    return 0


def _parse_i_list(raw: str) -> list[int]:
    try:
        ivals = [int(tok) for tok in raw.split(",") if tok != ""]
    except ValueError:
        raise SystemExit2(f"--i expects a comma list of cohomology degrees, got {raw!r}")
    if not ivals or any(i not in (0, 1, 2) for i in ivals):
        raise SystemExit2(f"--i entries must lie in {{0,1,2}}, got {raw!r}")
    return sorted(set(ivals))


def _cmd_table(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    _check_window(args.nmin, args.nmax)
    if args.a < 1 or not 1 <= args.b:
        raise SystemExit2("--a and --b must be >= 1")
    ivals = _parse_i_list(args.i)
    rows = []
    for i in ivals:
        for n in range(args.nmin, args.nmax + 1):
            sc = surface_cert(params, n, args.a, args.b)
            rows.append((i, n, sc))
    if args.format == "json":
        payload = {
            "params": params.to_json(),
            "a": args.a,
            "b": args.b,
            "rows": [
                {
                    "i": i,
                    "n": n,
                    "h": sc.h(i).to_json(),
                    "chi": sc.chi,
                    "terms": [t.to_json() for t in sc.terms],
                }
                for (i, n, sc) in rows
            ],
        }
        print(_dump(payload))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["i", "n", "kind", "lo", "hi", "chi"])
        for (i, n, sc) in rows:
            c = sc.h(i)
            writer.writerow([i, n, c.kind, c.lo, "" if c.hi is None else c.hi, sc.chi])
    else:
        print(f"h^i(X, Z_{{{args.a},{args.b}}}^n) for {params.to_json()}")
        for (i, n, sc) in rows:
            print(f"  i={i} n={n:>4} {str(sc.h(i)):>16} chi={sc.chi}")
    return 0


def _cmd_families(args: argparse.Namespace) -> int:
    if args.pmax < 1 or args.gmax < 1 or args.ddmax < 1:
        raise SystemExit2("--pmax, --gmax, --ddmax must be positive")
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["p", "g", "dD", "e", "ell", "structure"])
    total = 0
    for f in enumerate_families(args.pmax, args.gmax, args.ddmax):
        total += 1
        if args.format == "json":
            print(_dump(f.to_json()))
        elif args.format == "csv":
            writer.writerow([f.p, f.g, f.dD, f.e, f.ell, f.structure.value])
        else:
            print(
                f"p={f.p} g={f.g} dD={f.dD} e={f.e} ell={f.ell} {f.structure.value}"
                f"  (dN={f.dN}, dNl={f.dNl})"
            )
    print(f"total: {total}", file=sys.stderr)
    return 0


def _cmd_theorems(args: argparse.Namespace) -> int:
    if args.pmax < 1 or args.gmax < 1 or args.ddmax < 1:
        raise SystemExit2("--pmax, --gmax, --ddmax must be positive")
    if abs(args.nmin) > NMAX:
        raise SystemExit2(f"|n| is capped at {NMAX}; requested nmin {args.nmin}")
    if args.nmin >= 0:
        raise SystemExit2(f"--nmin must be negative, got {args.nmin}")
    tuples = stronger = 0
    for f in enumerate_families(args.pmax, args.gmax, args.ddmax):
        tuples += 1
        report = theorem_predicates(f, nneg_min=args.nmin)
        stronger += len(report.stronger)
        if args.format == "json":
            print(_dump(report.to_json()))
        else:
            print(
                f"p={f.p} g={f.g} dD={f.dD} e={f.e} ell={f.ell} {f.structure.value}: "
                f"{len(report.entries)} checks, {len(report.stronger)} unresolved"
            )
    print(f"tuples: {tuples}, unresolved: {stronger}", file=sys.stderr)
    return 0


def _cmd_section_ring(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    _check_window(args.nmin, args.nmax)
    report = local_cohomology_report(params, args.nmin, args.nmax)
    if args.format == "json":
        print(_dump(report.to_json()))
    else:
        print(f"graded local cohomology of the section ring, {params.to_json()}")
        for (j, n) in sorted(report.pieces):
            print(f"  H^{j}_m degree {n:>4}: {report.pieces[(j, n)]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raynaudsurf",
        description="Exact cohomology certificates for polarized cyclic covers of ruled surfaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a parameter tuple, echo it normalized")
    _add_param_flags(sp)
    _add_format_flag(sp, ("json", "pretty"))
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("invariants", help="numerical invariants of one surface")
    _add_param_flags(sp)
    _add_format_flag(sp, ("json", "pretty"))
    sp.set_defaults(func=_cmd_invariants)

    sp = sub.add_parser("table", help="certificate table for h^i(X, Z_{a,b}^n)")
    _add_param_flags(sp)
    sp.add_argument("--i", default="0,1,2", help="comma list of cohomology degrees")
    sp.add_argument("--nmin", type=int, required=True)
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--a", type=int, default=1, help="Etilde exponent of the polarization")
    sp.add_argument("--b", type=int, default=1, help="Nl exponent of the polarization")
    _add_format_flag(sp)
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("families", help="stream all valid tuples within bounds")
    sp.add_argument("--pmax", type=int, required=True)
    sp.add_argument("--gmax", type=int, required=True)
    sp.add_argument("--ddmax", type=int, required=True)
    _add_format_flag(sp)
    sp.set_defaults(func=_cmd_families)

    sp = sub.add_parser("theorems", help="cross-check the closed-form theorems over a sweep")
    sp.add_argument("--pmax", type=int, default=7)
    sp.add_argument("--gmax", type=int, default=20)
    sp.add_argument("--ddmax", type=int, default=20)
    sp.add_argument("--nmin", type=int, default=-40, help="lower end of the negative window")
    _add_format_flag(sp, ("json", "pretty"))
    sp.set_defaults(func=_cmd_theorems)

    sp = sub.add_parser("section-ring", help="graded local cohomology of the section ring")
    _add_param_flags(sp)
    sp.add_argument("--nmin", type=int, required=True)
    sp.add_argument("--nmax", type=int, required=True)
    _add_format_flag(sp, ("json", "pretty"))
    sp.set_defaults(func=_cmd_section_ring)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InvalidParams as err:
        for v in err.violations:
            print(f"error: {v}", file=sys.stderr)
        return 2
    except TheoremContradicted as err:
        print(f"theorem contradicted: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {err!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
