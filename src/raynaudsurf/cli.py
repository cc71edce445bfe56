"""Command-line front door.

Subcommands: validate, invariants, table, families, theorems, section-ring.
Output is byte-deterministic for fixed inputs: stable ordering everywhere,
rationals printed as reduced "num/den" strings, no floating point anywhere.
Exit codes: 0 ok, 1 internal error, 2 invalid input, 3 theorem contradiction.
"""

from __future__ import annotations

import argparse
import gc
import sys

from . import __version__
from .curvecoh import Cert, CohCert
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
from .surfcoh import NMAX, TermReduction, TheoremContradicted, surface_cert, theorem_predicates


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


BLOCK = 65536  # characters handed to the real stdout per write()


class _Blocks:
    """sys.stdout while a command runs: its text goes to `target` in blocks.

    Where stdout writes through (PYTHONUNBUFFERED=1 or python -u), each
    line a command writes would be one write(2).  The pending text is
    handed on as one target.write() once it reaches BLOCK characters, and
    the rest when flush() is called, so memory stays within one block and
    a long sweep still shows progress.  The target sees the same text in
    fewer, larger pieces: its own buffering, and so its flushing, is left
    as it was.
    """

    def __init__(self, target) -> None:
        self.target = target
        self.parts: list[str] = []
        self.size = 0

    def write(self, text: str) -> None:
        self.parts.append(text)
        self.size += len(text)
        if self.size >= BLOCK:
            self.flush()

    def flush(self) -> None:
        if self.parts:
            self.target.write("".join(self.parts))
            self.parts.clear()
            self.size = 0


def _dump(obj: dict | list) -> str:
    import json  # only the commands that encode dicts load it

    return json.dumps(obj, separators=(",", ":"))


def _params_json(params: SurfaceParams) -> str:
    """_dump(params.to_json()), written as text: five ints and a structure name."""
    return (
        f'{{"p":{params.p},"g":{params.g},"dD":{params.dD},"e":{params.e},"ell":{params.ell},'
        f'"structure":"{params.structure.value}"}}'
    )


def _cert_fields(h: Cert) -> str:
    return f'"kind":"{h.kind}","lo":{h.lo},"hi":{"null" if h.hi is None else h.hi}'


def _side_json(cc: CohCert | None) -> str:
    if cc is None:
        return "null"
    dual, m, t = cc.sheaf
    c = cc.chi
    return (
        f'{{"dual":{"true" if dual else "false"},"m":{m},"t":{t},"chi":{c},'
        f'"h0":{{{_cert_fields(cc.h0)},"chi":{c}}},"h1":{{{_cert_fields(cc.h1)},"chi":{c}}}}}'
    )


def _term_json(rec: TermReduction) -> str:
    """One `table` term as compact JSON, with the bytes json.dumps would write.

    The values are ints, true/false/null and the three Cert kinds, so
    nothing needs escaping and an f-string writes them directly.
    """
    term = rec.term
    return (
        f'{{"mtw":{term.mtw},"t":{term.t},"pi":{_side_json(rec.pushforward)},'
        f'"r1pi":{_side_json(rec.derived)},"chi":{rec.chi}}}'
    )


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


def _table_line(fmt: str, i: int, n: int, c: Cert, chi: int) -> str:
    """One `table` row as its line of text; a JSON row stops before its terms."""
    if fmt == "json":
        return f'{{"i":{i},"n":{n},"h":{{{_cert_fields(c)}}},"chi":{chi},"terms":\n'
    if fmt == "csv":
        # Ints and a Cert kind: no field ever needs quoting.
        return f"{i},{n},{c.kind},{c.lo},{'' if c.hi is None else c.hi},{chi}\n"
    return f"  i={i} n={n:>4} {str(c):>16} chi={chi}\n"


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
    as_json = args.format == "json"
    # The whole window is certified before the first byte is written, so an
    # error leaves stdout empty.  surface_cert keeps one twist, and a twist
    # leaves behind only the text the format prints: each cell's row, as
    # one line of its degree's buffer so that rows come out in (i, n)
    # order, and for JSON the twist's terms, encoded once (_term_json) for
    # the rows of all its degrees.  The rows are ASCII, and a bytearray
    # holds them at one byte a character, not as one object per row.
    lines = {i: bytearray() for i in ivals}
    terms: list[str] = []
    for n in range(args.nmin, args.nmax + 1):
        for i in ivals:
            sc = surface_cert(params, n, args.a, args.b)
            lines[i] += _table_line(args.format, i, n, sc.h(i), sc.chi).encode()
        if as_json:
            terms.append(f"[{','.join(map(_term_json, sc.terms))}]")
    out = sys.stdout
    if as_json:
        # The bytes of one json.dumps of the whole object, written as text.
        out.write(f'{{"params":{_params_json(params)},"a":{args.a},"b":{args.b},"rows":[')
        sep = ""
        for i in ivals:
            for head, twist_terms in zip(lines.pop(i).decode().splitlines(), terms):
                out.write(f"{sep}{head}{twist_terms}}}")
                sep = ","
        out.write("]}\n")
    else:
        if args.format == "csv":
            out.write("i,n,kind,lo,hi,chi\n")
        else:
            out.write(f"h^i(X, Z_{{{args.a},{args.b}}}^n) for {params.to_json()}\n")
        for i in ivals:
            out.write(lines.pop(i).decode())
    return 0


def _cmd_families(args: argparse.Namespace) -> int:
    if args.pmax < 1 or args.gmax < 1 or args.ddmax < 1:
        raise SystemExit2("--pmax, --gmax, --ddmax must be positive")
    # Ints and a structure name: no CSV field ever needs quoting.
    out = sys.stdout
    if args.format == "csv":
        out.write("p,g,dD,e,ell,structure\n")
    total = 0
    for f in enumerate_families(args.pmax, args.gmax, args.ddmax):
        total += 1
        if args.format == "json":
            out.write(f"{_params_json(f)}\n")
        elif args.format == "csv":
            out.write(f"{f.p},{f.g},{f.dD},{f.e},{f.ell},{f.structure.value}\n")
        else:
            print(
                f"p={f.p} g={f.g} dD={f.dD} e={f.e} ell={f.ell} {f.structure.value}"
                f"  (dN={f.dN}, dNl={f.dNl})"
            )
    out.flush()  # the tuples come before the summary on a shared stream
    print(f"total: {total}", file=sys.stderr)
    return 0


def _cmd_theorems(args: argparse.Namespace) -> int:
    if args.pmax < 1 or args.gmax < 1 or args.ddmax < 1:
        raise SystemExit2("--pmax, --gmax, --ddmax must be positive")
    if abs(args.nmin) > NMAX:
        raise SystemExit2(f"|n| is capped at {NMAX}; requested nmin {args.nmin}")
    if args.nmin >= 0:
        raise SystemExit2(f"--nmin must be negative, got {args.nmin}")
    as_json = args.format == "json"
    out = sys.stdout
    tuples = total = 0
    for f in enumerate_families(args.pmax, args.gmax, args.ddmax):
        tuples += 1
        report = theorem_predicates(f, nneg_min=args.nmin)
        # Both properties walk the stored claims: read each once per report.
        stronger, checks = report.stronger, report.checks
        unresolved = len(stronger)
        if as_json:
            # The bytes of _dump(report.to_json()), written as text: the
            # params are ints and a structure name, the counts ints.  A
            # stronger entry, which no real sweep has yet produced, keeps
            # its dict encoder.
            entries = ",".join([_dump(e.to_json()) for e in stronger])
            out.write(
                f'{{"params":{_params_json(f)},"checks":{checks},'
                f'"confirmed":{checks - unresolved},"stronger":[{entries}]}}\n'
            )
        else:
            out.write(
                f"p={f.p} g={f.g} dD={f.dD} e={f.e} ell={f.ell} {f.structure.value}: "
                f"{checks} checks, {unresolved} unresolved\n"
            )
        total += unresolved
    out.flush()  # the tuples come before the summary on a shared stream
    print(f"tuples: {tuples}, unresolved: {total}", file=sys.stderr)
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


def _surface_args(sp: argparse.ArgumentParser) -> None:
    _add_param_flags(sp)
    _add_format_flag(sp, ("json", "pretty"))


def _table_args(sp: argparse.ArgumentParser) -> None:
    _add_param_flags(sp)
    sp.add_argument("--i", default="0,1,2", help="comma list of cohomology degrees")
    sp.add_argument("--nmin", type=int, required=True)
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--a", type=int, default=1, help="Etilde exponent of the polarization")
    sp.add_argument("--b", type=int, default=1, help="Nl exponent of the polarization")
    _add_format_flag(sp)


def _families_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--pmax", type=int, required=True)
    sp.add_argument("--gmax", type=int, required=True)
    sp.add_argument("--ddmax", type=int, required=True)
    _add_format_flag(sp)


def _theorems_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--pmax", type=int, default=7)
    sp.add_argument("--gmax", type=int, default=20)
    sp.add_argument("--ddmax", type=int, default=20)
    sp.add_argument("--nmin", type=int, default=-40, help="lower end of the negative window")
    _add_format_flag(sp, ("json", "pretty"))


def _section_ring_args(sp: argparse.ArgumentParser) -> None:
    _add_param_flags(sp)
    sp.add_argument("--nmin", type=int, required=True)
    sp.add_argument("--nmax", type=int, required=True)
    _add_format_flag(sp, ("json", "pretty"))


# name -> (help line, argument filler, handler), in the order --help lists them.
_SUBCOMMANDS = {
    "validate": ("check a parameter tuple, echo it normalized", _surface_args, _cmd_validate),
    "invariants": ("numerical invariants of one surface", _surface_args, _cmd_invariants),
    "table": ("certificate table for h^i(X, Z_{a,b}^n)", _table_args, _cmd_table),
    "families": ("stream all valid tuples within bounds", _families_args, _cmd_families),
    "theorems": ("cross-check the closed-form theorems over a sweep", _theorems_args, _cmd_theorems),
    "section-ring": ("graded local cohomology of the section ring", _section_ring_args, _cmd_section_ring),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser, with arguments filled into the subcommand `command` alone.

    Every subcommand is registered, because the top-level help, the usage
    line and the invalid-choice error list them all; only the one that
    parses argv needs its arguments, and its own help and errors are then
    those of a parser that fills all six.  None, or a name that is no
    subcommand, fills none.
    """
    parser = argparse.ArgumentParser(
        prog="raynaudsurf",
        description="Exact cohomology certificates for polarized cyclic covers of ruled surfaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_args, func) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        if name == command:
            add_args(sp)
            sp.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The top-level parser has no option that takes a value, so argparse
    # reads the first word without a leading "-" as the subcommand: any
    # word before it is an option, or makes argparse stop at an invalid
    # choice, whose error names no subcommand's arguments.
    command = next((word for word in argv if not word.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    # The command writes to a _Blocks sink; whatever it holds reaches the
    # real stdout before an error below is written to stderr.
    stdout = sys.stdout
    sys.stdout = sink = _Blocks(stdout)
    try:
        try:
            return args.func(args)
        finally:
            sys.stdout = stdout
            sink.flush()
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


def run() -> None:
    """The console entry point: main() with the cyclic GC off, then exit skipping the shutdown collection.

    gc.disable() comes first.  The engine makes no reference cycles: every
    record is a tuple of values that exist before it, so reference counting
    frees whatever a run drops, and the collections the allocation counter
    would trigger only traverse the cached records.
    With the collector off, one gc.collect() after main() finds the same
    few hundred unreachable objects (argparse's parser graph) whatever the
    window or the sweep, so memory stays bounded without it.

    The certificate records are NamedTuple subclasses, which the cyclic GC
    keeps tracking (it un-tracks only exact tuples), so the twist a finished
    table leaves in surface_cert's memo is thousands of tracked objects at
    large ell, and interpreter
    finalization, which collects even when the collector is off, would
    traverse them in more than one collection.  gc.freeze() moves them out
    of every generation first, in a `finally`, so it also runs after
    --version, an argparse error or a non-zero exit code.  This is safe:
    sys.stdout and sys.stderr are still flushed at finalization, the CLI
    opens no file and creates no object with a finalizer, and the OS
    reclaims the frozen heap.  os._exit would skip the stdio flush and the
    atexit handlers.  main() itself neither disables the collector nor
    freezes anything, so in-process callers may call it any number of
    times.
    """
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
