from __future__ import annotations

import ast
import contextlib
import csv
import gc
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from raynaudsurf.cli import main

PS1_FLAGS = ["-p", "2", "-g", "4", "--dD", "3", "-e", "3", "--ell", "3", "--tango"]
PS2_FLAGS = ["-p", "3", "-g", "4", "--dD", "2", "-e", "2", "--ell", "2", "--tango"]
PS3_FLAGS = ["-p", "3", "-g", "7", "--dD", "4", "-e", "4", "--ell", "4", "--tango"]
PS4_FLAGS = ["-p", "5", "-g", "9", "--dD", "3", "-e", "3", "--ell", "3", "--pretango"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run_cli(capsys, ["validate", *PS1_FLAGS])
    assert code == 0
    blob = json.loads(out)
    assert blob["valid"] is True
    assert blob["params"]["structure"] == "tango"
    assert blob["dNl"] == 1


def test_validate_not_prime_exits_2(capsys):
    code, out, _ = run_cli(
        capsys,
        ["validate", "-p", "4", "-g", "5", "--dD", "2", "-e", "2", "--ell", "2", "--pretango"],
    )
    assert code == 2
    blob = json.loads(out)
    assert blob["valid"] is False
    assert any(v.startswith("NotPrime(4)") for v in blob["violations"])


def test_validate_reports_all_violations(capsys):
    code, out, _ = run_cli(
        capsys,
        ["validate", "-p", "3", "-g", "4", "--dD", "2", "-e", "2", "--ell", "3", "--pretango"],
    )
    assert code == 2
    blob = json.loads(out)
    assert len(blob["violations"]) >= 2


def test_invariants_ps3(capsys):
    code, out, _ = run_cli(capsys, ["invariants", *PS3_FLAGS])
    assert code == 0
    blob = json.loads(out)
    assert blob["K_X_ample"] is True
    assert blob["kodaira_vanishing_KX"] is True
    assert blob["fiber_genus"] == 3
    assert blob["cusp"] == [4, 3]
    assert blob["smooth"] is True and blob["normal"] is True
    assert blob["Etilde_sq"] == "1/1"
    assert blob["K_X"] == {"cEt": "4/1", "d": "7/1"}


def test_invariants_pretty(capsys):
    code, out, _ = run_cli(capsys, ["invariants", *PS3_FLAGS, "--format", "pretty"])
    assert code == 0
    assert "Z^4 = W^3" in out


def test_table_csv_raynaud_window(capsys):
    code, out, _ = run_cli(
        capsys,
        ["table", *PS1_FLAGS, "--i", "1", "--nmin", "-5", "--nmax", "-1", "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["n"] for r in rows] == ["-5", "-4", "-3", "-2", "-1"]
    assert [r["kind"] for r in rows] == ["exact"] * 5
    assert [r["lo"] for r in rows] == ["0", "0", "0", "0", "1"]


def test_table_json_and_determinism(capsys):
    argv = ["table", *PS1_FLAGS, "--i", "0,1,2", "--nmin", "-2", "--nmax", "2"]
    code, out1, _ = run_cli(capsys, argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, argv)
    assert out1 == out2
    blob = json.loads(out1)
    assert blob["params"]["p"] == 2
    assert len(blob["rows"]) == 15
    row = next(r for r in blob["rows"] if r["i"] == 1 and r["n"] == -1)
    assert row["h"] == {"kind": "exact", "lo": 1, "hi": 1}
    assert row["chi"] == 3
    assert len(row["terms"]) == 3
    assert row["terms"][2]["r1pi"]["h0"]["chi"] == -3


def test_table_twisted_family(capsys):
    code, out, _ = run_cli(
        capsys,
        ["table", *PS3_FLAGS, "--i", "1", "--nmin", "-1", "--nmax", "-1", "--a", "5", "--b", "3", "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["kind"] == "exact" and rows[0]["lo"] == "0"


def test_table_json_encodes_each_twists_terms_once(capsys, monkeypatch):
    import raynaudsurf.cli as cli_mod

    calls = 0
    term_json = cli_mod._term_json

    def counting(rec):
        nonlocal calls
        calls += 1
        return term_json(rec)

    monkeypatch.setattr(cli_mod, "_term_json", counting)
    code, out, _ = run_cli(capsys, ["table", *PS3_FLAGS, *WINDOW])
    assert code == 0 and len(json.loads(out)["rows"]) == 3 * 61
    # ell = 4 terms for each of the 61 twists, not again for each degree i.
    assert calls == 4 * 61


def _reference_side(cc):
    if cc is None:
        return None
    return {
        "dual": cc.sheaf.dualized,
        "m": cc.sheaf.m,
        "t": cc.sheaf.t,
        "chi": cc.chi,
        "h0": {**cc.h0.to_json(), "chi": cc.chi},
        "h1": {**cc.h1.to_json(), "chi": cc.chi},
    }


def _reference_term(rec):
    """The JSON shape of one `table` term, built as a dict (the text encoder's oracle)."""
    return {
        "mtw": rec.term.mtw,
        "t": rec.term.t,
        "pi": _reference_side(rec.pushforward),
        "r1pi": _reference_side(rec.derived),
        "chi": rec.chi,
    }


def test_term_text_matches_the_dict_reference():
    from raynaudsurf import Cert, surface_cert
    from raynaudsurf.cli import _cert_fields, _term_json

    from conftest import PS1, PS2, PS3, PS4

    kinds, terms = set(), 0
    for params, a, b in ((PS1, 1, 1), (PS2, 1, 1), (PS3, 1, 1), (PS4, 1, 1), (PS1, 2, 1)):
        for n in range(-30, 31):
            for rec in surface_cert(params, n, a, b).terms:
                text = _term_json(rec)
                want = _reference_term(rec)
                assert json.loads(text) == want, (params, n, a, b, rec.term)
                # The table's bytes: json.dumps of the dict with compact separators.
                assert text == json.dumps(want, separators=(",", ":"))
                kinds |= {side[h]["kind"] for side in (want["pi"], want["r1pi"]) if side for h in ("h0", "h1")}
                terms += 1
    assert terms == 61 * (3 + 2 + 4 + 3 + 3)
    assert kinds == {"exact", "range"}
    # A table row's "h" and a side's "h0"/"h1" share the Cert encoding; the
    # engine never yields a LowerBound, so it is pinned here.
    for cert in (Cert.exact(0), Cert(1, 4), Cert.at_least(1)):
        assert f"{{{_cert_fields(cert)}}}" == json.dumps(cert.to_json(), separators=(",", ":"))


def test_table_json_error_mid_window_prints_nothing(capsys, monkeypatch):
    import raynaudsurf.surfcoh as surfcoh
    from raynaudsurf import RuleConflict, TwistedSym, surface_cert

    from conftest import PS3

    # The curve sheaves of twist 7; certifying any of them fails.
    bad = {TwistedSym(*side) for _, _, side in surfcoh._terms(PS3, 7, 7) if side is not None}
    certify = surfcoh.certify

    def failing(params, sym):
        if sym in bad:
            raise RuleConflict("forced for the streaming test")
        return certify(params, sym)

    surface_cert.cache_clear()
    monkeypatch.setattr(surfcoh, "certify", failing)
    code, out, err = run_cli(capsys, ["table", *PS3_FLAGS, *WINDOW])
    # No head of a JSON object, no rows before twist 7: nothing at all.
    assert (code, out) == (1, "")
    assert "RuleConflict" in err


def test_table_rejects_bad_i(capsys):
    code, _, err = run_cli(capsys, ["table", *PS1_FLAGS, "--i", "3", "--nmin", "0", "--nmax", "1"])
    assert code == 2
    assert "--i" in err


def test_caps_and_bounds_reject_before_any_output(capsys):
    code, _, _ = run_cli(capsys, ["table", *PS1_FLAGS, "--i", "1", "--nmin", "-100", "--nmax", "-99"])
    assert code == 0
    code, out, err = run_cli(capsys, ["theorems", "--nmin", "-101"])
    assert (code, out) == (2, "") and "capped at 100" in err
    # A non-negative --nmin would silently drop every check below 0.
    code, out, err = run_cli(capsys, ["theorems", "--pmax", "3", "--gmax", "6", "--ddmax", "4", "--nmin", "5"])
    assert (code, out) == (2, "") and "--nmin must be negative" in err
    # families and theorems stream: the bounds must fail before the first tuple.
    for argv in (
        ["families", "--pmax", "0", "--gmax", "4", "--ddmax", "3"],
        ["families", "--pmax", "0", "--gmax", "4", "--ddmax", "3", "--format", "csv"],
        ["theorems", "--pmax", "0"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "must be positive" in err


def test_default_cap_is_100(capsys):
    code, _, err = run_cli(capsys, ["table", *PS1_FLAGS, "--i", "1", "--nmin", "-101", "--nmax", "0"])
    assert code == 2
    assert "capped at 100" in err


def test_families_stream(capsys):
    code, out, err = run_cli(capsys, ["families", "--pmax", "2", "--gmax", "4", "--ddmax", "3"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert {"p": 2, "g": 4, "dD": 3, "e": 3, "ell": 3, "structure": "tango"} in rows
    assert "total: 2" in err


def test_families_csv(capsys):
    code, out, _ = run_cli(capsys, ["families", "--pmax", "3", "--gmax", "4", "--ddmax", "2", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert any(r["p"] == "3" and r["structure"] == "tango" for r in rows)


def test_theorems_small_sweep(capsys):
    code, out, err = run_cli(
        capsys, ["theorems", "--pmax", "3", "--gmax", "8", "--ddmax", "6", "--nmin", "-20"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines
    for line in lines:
        assert json.loads(line)["stronger"] == []
    assert "unresolved: 0" in err


def _report_line(report) -> str:
    """A `theorems` JSON line as json.dumps writes the report's dict (the text writer's oracle)."""
    return json.dumps(report.to_json(), separators=(",", ":"))


def test_theorems_text_matches_the_dict_reference(capsys, sweep_small):
    from raynaudsurf import theorem_predicates

    for nneg_min in (-40, -1):
        code, out, _ = run_cli(capsys, ["theorems", "--pmax", "5", "--gmax", "12", "--ddmax", "8", "--nmin", str(nneg_min)])
        assert code == 0
        want = [_report_line(theorem_predicates(f, nneg_min=nneg_min)) for f in sweep_small]
        assert out.splitlines() == want, nneg_min


def test_theorems_text_writes_stronger_entries(capsys, monkeypatch):
    # No real sweep yields a "stronger" entry, so a hand-built report holds
    # them: one with a Range cert, and one with a LowerBound cert stored
    # over an n-range, beside a proven range claim and an identity.
    import raynaudsurf.cli as cli_mod
    from raynaudsurf import ZERO_CERT, Cert, ThmEntry, ThmReport

    claims = (
        ThmEntry("h1_nonzero_near_zero", -1, "nonvanishing", Cert(0, 2), "stronger"),
        ThmEntry("h0_zero_negative", range(-5, 0), "vanishing", ZERO_CERT, "confirmed"),
        ThmEntry("h1_nonzero_near_zero", range(-3, -1), "nonvanishing", Cert.at_least(1), "stronger"),
        ThmEntry("polarization_is_etilde_plus_root", None, "identity", None, "confirmed"),
    )
    reports = []

    def hand_built(params, nneg_min=-40):
        reports.append(ThmReport(params, claims))
        return reports[-1]

    monkeypatch.setattr(cli_mod, "theorem_predicates", hand_built)
    code, out, err = run_cli(capsys, ["theorems", "--pmax", "3", "--gmax", "8", "--ddmax", "6"])
    assert code == 0 and len(reports) > 1
    assert out.splitlines() == [_report_line(r) for r in reports]
    blob = json.loads(out.splitlines()[0])
    assert (blob["checks"], blob["confirmed"]) == (9, 6)
    assert [(e["n"], e["h"]["kind"]) for e in blob["stronger"]] == [(-1, "range"), (-3, "lower"), (-2, "lower")]
    assert f"unresolved: {3 * len(reports)}" in err


def test_section_ring_slice(capsys):
    code, out, _ = run_cli(capsys, ["section-ring", *PS1_FLAGS, "--nmin", "-3", "--nmax", "8"])
    assert code == 0
    blob = json.loads(out)
    assert blob["dimR"] == 3
    assert blob["pieces"]["2,-1"] == {"kind": "exact", "lo": 1, "hi": 1}
    assert blob["pieces"]["1,-2"] == {"kind": "exact", "lo": 0, "hi": 0}
    assert blob["pieces"]["3,7"] == {"kind": "exact", "lo": 0, "hi": 0}


TANGO1019_FLAGS = ["-p", "1019", "-g", "519691", "--dD", "1020", "-e", "1020", "--ell", "1020", "--tango"]


def test_section_ring_never_reads_surface_records(capsys, monkeypatch):
    # The section ring's pieces are single degrees, read through h_surface.
    # surface_cert builds ell TermReduction records per twist and caches
    # them, so a +-100 window at ell = 1020 would hold about 200000 records;
    # if section-ring ever goes back to it, this run raises.
    from raynaudsurf import h_surface, sectionring, surfcoh
    from raynaudsurf.params import validate

    def boom(*args, **kwargs):
        raise AssertionError("section-ring read surface_cert")

    for mod in (surfcoh, sectionring, sys.modules["raynaudsurf.cli"]):
        if hasattr(mod, "surface_cert"):
            monkeypatch.setattr(mod, "surface_cert", boom)
    code, out, _ = run_cli(capsys, ["section-ring", *TANGO1019_FLAGS, "--nmin", "-2", "--nmax", "2"])
    assert code == 0
    pieces = json.loads(out)["pieces"]
    params = validate(1019, 519691, 1020, 1020, 1020, "tango")
    for n in range(-2, 3):
        for j in (2, 3):
            assert pieces[f"{j},{n}"] == h_surface(params, j - 1, n).to_json(), (j, n)


def test_theorem_contradiction_exits_3(capsys, monkeypatch):
    import raynaudsurf.cli as cli_mod
    from raynaudsurf.surfcoh import TheoremContradicted

    def boom(params, nneg_min=-40):
        raise TheoremContradicted("forced for the exit-code test")

    monkeypatch.setattr(cli_mod, "theorem_predicates", boom)
    code, _, err = run_cli(capsys, ["theorems", "--pmax", "2", "--gmax", "4", "--ddmax", "3"])
    assert code == 3
    assert "theorem contradicted" in err


def test_internal_error_exits_1(capsys, monkeypatch):
    import raynaudsurf.cli as cli_mod

    def boom(params):
        raise RuntimeError("forced for the exit-code test")

    monkeypatch.setattr(cli_mod, "canonical_X", boom)
    code, _, err = run_cli(capsys, ["invariants", *PS1_FLAGS])
    assert code == 1
    assert "internal error" in err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["validate", "--bogus"])
    assert err.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


# Each CLI call fills the arguments of the invoked subcommand alone; its help
# and every argparse error must read as from a parser that fills all six.
PARSER_CASES = {
    "--help": ["--help"],
    "--help table": ["--help", "table"],
    **{f"{cmd} --help": [cmd, "--help"]
       for cmd in ("validate", "invariants", "table", "families", "theorems", "section-ring")},
    "--version": ["--version"],
    "no arguments": [],
    "unknown subcommand": ["bogus"],
    "-x table": ["-x", "table"],
    "validate no --ell": ["validate", *PS1_FLAGS[:-3], "--tango"],
    "invariants no structure": ["invariants", *PS1_FLAGS[:-1]],
    "table no --nmax": ["table", *PS1_FLAGS, "--nmin", "-1"],
    "table bad --format": ["table", *PS1_FLAGS, "--nmin", "-1", "--nmax", "1", "--format", "xml"],
    "families no --ddmax": ["families", "--pmax", "3", "--gmax", "4"],
    "theorems --pmax no value": ["theorems", "--pmax"],
    "section-ring no --nmin": ["section-ring", *PS1_FLAGS, "--nmax", "1"],
}

# md5 of "<exit code>\n<stdout>\n<stderr>" per case at COLUMNS=80, taken
# from the parser that filled every subcommand.
PARSER_MD5 = {
    "--help": "7b92fc82c7aae48204a0ed0ee28db4e1",
    "--help table": "7b92fc82c7aae48204a0ed0ee28db4e1",
    "validate --help": "7c37285744e4e1f9c0de519e0b4939cb",
    "invariants --help": "c480e4e3998f7468940a9d2dfe730a09",
    "table --help": "1e17f439daea4a82ccd322ad4eef7728",
    "families --help": "8becfe57d4685a305c3399446a17fbed",
    "theorems --help": "42c084083e75bffd523a27ac17d7b174",
    "section-ring --help": "3cdb538ccef01b71eac5b7a36c3dabce",
    "--version": "db0488ac3e62862db5fbe4e327f57a78",
    "no arguments": "9bb0497784cc0c9985d7b06b6673f1bc",
    "unknown subcommand": "2f1d6793d304ee395123cc92731b6cad",
    "-x table": "3b403c58a561c8c940a96356ad413cfc",
    "validate no --ell": "dbfca914aa5f866db0e6591d3c73fd9a",
    "invariants no structure": "fe20a371afb54c4ad045d0258e1eb3b6",
    "table no --nmax": "846d3c016c44c79714721ae73ae50fed",
    "table bad --format": "0ebb2425557c6a6caa60761a67847a5e",
    "families no --ddmax": "9217a46903132ae9cd49df0221733046",
    "theorems --pmax no value": "522c747dc96facc4de450436819c5294",
    "section-ring no --nmin": "3ef36e3e635213caec624883f6fc6d66",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's help layout differs between Python minor versions")
def test_help_and_parse_errors_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = {}
    for label, argv in PARSER_CASES.items():
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
        captured = capsys.readouterr()
        got[label] = hashlib.md5(f"{code}\n{captured.out}\n{captured.err}".encode()).hexdigest()
    assert got == PARSER_MD5


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the package from this checkout's src/."""
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_module_entry_point():
    proc = run_python("-m", "raynaudsurf", "invariants", *PS3_FLAGS)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["fiber_genus"] == 3


def test_main_freezes_nothing(capsys):
    # In-process callers (tests, benchmarks) call main() many times; only
    # run(), the process entry point, turns the collector off and freezes
    # the heap.  main() leaves the collector as it found it, on or off.
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            before = gc.get_freeze_count()
            assert main(["table", *PS3_FLAGS, "--nmin", "-3", "--nmax", "3"]) == 0
            capsys.readouterr()
            assert gc.get_freeze_count() == before
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_module_prints_what_main_prints(capsys):
    argv = ["table", *PS3_FLAGS, "--nmin", "-10", "--nmax", "10", "--format", "json"]
    proc = run_python("-m", "raynaudsurf", *argv)
    assert proc.returncode == 0, proc.stderr
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


EXIT_CASES = {
    "version": (["--version"], 0),
    "invalid": (["validate", "-p", "4", "-g", "5", "--dD", "2", "-e", "2", "--ell", "2", "--pretango"], 2),
    "table": (["table", *PS1_FLAGS, "--nmin", "-2", "--nmax", "2", "--format", "csv"], 0),
}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_module_exit_codes_and_frozen_exit(case):
    argv, code = EXIT_CASES[case]
    proc = run_python("-m", "raynaudsurf", *argv)
    assert proc.returncode == code, proc.stderr
    # atexit handlers run after run()'s finally: the heap is frozen and the
    # collector is off by then, on the argparse exit of --version as on
    # main()'s return codes.
    probe = (
        "import atexit, gc, sys; from raynaudsurf.cli import run; "
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, "
        "'collector', gc.isenabled(), file=sys.stderr)); "
        f"sys.argv[1:] = {argv!r}; run()"
    )
    frozen = run_python("-c", probe)
    assert (frozen.returncode, frozen.stdout) == (code, proc.stdout)
    assert frozen.stderr.endswith("frozen True collector False\n"), frozen.stderr


# The cheapest and a costly run of the same command.  The l = 24 tuple is
# the largest cover the benchmark's `tables` workload draws from.
ELL24_FLAGS = ["-p", "23", "-g", "295", "--dD", "24", "-e", "24", "--ell", "24", "--pretango"]
CYCLE_PAIRS = {
    "table": (
        ["table", *ELL24_FLAGS, "--nmin", "-1", "--nmax", "1"],
        ["table", *ELL24_FLAGS, "--nmin", "-100", "--nmax", "100"],
    ),
    # The smallest sweep holds the Tango and pre-Tango variants of one tuple.
    "theorems": (
        ["theorems", "--pmax", "2", "--gmax", "4", "--ddmax", "3"],
        ["theorems", "--pmax", "5", "--gmax", "12", "--ddmax", "8"],
    ),
}


def unreachable_after_main(argv: list[str]) -> int:
    """Objects a gc.collect() finds unreachable after main(argv), collector off throughout."""
    probe = "\n".join([
        "import gc",
        "gc.disable()",
        "import contextlib, io",
        "from raynaudsurf.cli import main",
        "gc.collect()",
        "out, err = io.StringIO(), io.StringIO()",
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):",
        f"    code = main({argv!r})",
        "print(code, len(out.getvalue()) > 0, gc.collect())",
    ])
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    code, wrote, unreachable = proc.stdout.split()
    assert (code, wrote) == ("0", "True"), argv
    return int(unreachable)


@pytest.mark.parametrize("command", sorted(CYCLE_PAIRS))
def test_engine_makes_no_reference_cycles(command):
    # run() keeps the cyclic collector off.  That is safe only while the
    # garbage it leaves does not grow with the work: the few hundred objects
    # left (argparse's parser graph) must be the same for a tiny and a large
    # window, and for a 2-tuple and a 70-tuple sweep.
    from raynaudsurf import enumerate_families

    assert [len(list(enumerate_families(2, 4, 3))), len(list(enumerate_families(5, 12, 8)))] == [2, 70]
    small, large = (unreachable_after_main(argv) for argv in CYCLE_PAIRS[command])
    assert small == large, (small, large)
    assert small < 1000


def test_console_script_and_module_share_the_entry_point():
    # The installed command and `python -m raynaudsurf` must not drift apart.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    import raynaudsurf.cli

    repo = Path(__file__).resolve().parent.parent
    scripts = tomllib.loads((repo / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"raynaudsurf": "raynaudsurf.cli:run"}
    module, name = scripts["raynaudsurf"].split(":")
    assert getattr(importlib.import_module(module), name) is raynaudsurf.cli.run
    tree = ast.parse((repo / "src" / "raynaudsurf" / "__main__.py").read_text())
    imported = [(node.level, node.module, [a.name for a in node.names]) for node in tree.body[:-1]]
    last = tree.body[-1]
    assert imported == [(1, "cli", ["run"])]
    # The call is guarded, so importing the module runs nothing.
    assert isinstance(last, ast.If) and ast.unparse(last.test) == "__name__ == '__main__'"
    assert not last.orelse and [ast.unparse(node) for node in last.body] == ["run()"]


def test_importing_the_main_module_runs_nothing():
    # Tools that import every submodule (pkgutil.walk_packages lists
    # raynaudsurf.__main__) must not start the CLI.
    proc = run_python("-c", "import raynaudsurf.__main__")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_cold_import_skips_dataclasses_and_inspect():
    # Every CLI call is a cold start.  The records are NamedTuples, so the
    # import needs neither dataclasses nor the inspect it pulls in; the
    # intersection numbers are ints, so it needs neither fractions nor the
    # decimal it pulls in.  -S keeps site-packages hooks from adding imports
    # that are not the package's.
    unused = "{'dataclasses', 'inspect', 'fractions', 'decimal'}"
    proc = run_python("-S", "-c", f"import sys, raynaudsurf.cli; print(sorted({unused} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Which of json and csv one cold call loads: only the formats that write
# through them do.  No call loads fractions or decimal: every number the
# package computes is an int.  Engine modules are never lazy: perfbench looks
# them up in sys.modules right after `import raynaudsurf.cli`.
STDLIB_CODEC_CASES = {
    "table json": (["table", *PS1_FLAGS, "--nmin", "-2", "--nmax", "2"], 0, ""),
    "theorems 2 tuples": (["theorems", "--pmax", "2", "--gmax", "4", "--ddmax", "3"], 0, ""),
    "version": (["--version"], 0, ""),
    "table csv": (["table", *PS1_FLAGS, "--nmin", "-2", "--nmax", "2", "--format", "csv"], 0, ""),
    "families json": (["families", "--pmax", "2", "--gmax", "4", "--ddmax", "3"], 0, ""),
    "families csv": (["families", "--pmax", "2", "--gmax", "4", "--ddmax", "3", "--format", "csv"], 0, ""),
    "invariants json": (["invariants", *PS3_FLAGS], 0, "json"),
}


@pytest.mark.parametrize("case", sorted(STDLIB_CODEC_CASES))
def test_json_and_csv_load_only_where_output_needs_them(case):
    argv, code, loaded = STDLIB_CODEC_CASES[case]
    # -S: without site, nothing but the package can load json or csv.
    probe = "\n".join([
        "import contextlib, io, sys",
        "import raynaudsurf.cli",
        "engine = ('params', 'numclass', 'curvecoh', 'surfcoh', 'sectionring')",
        "print(*[m for m in engine if f'raynaudsurf.{m}' not in sys.modules], sep=',')",
        "out = io.StringIO()",
        "with contextlib.redirect_stdout(out):",
        "    try:",
        f"        code = raynaudsurf.cli.main({argv!r})",
        "    except SystemExit as exit:",
        "        code = exit.code",
        "print(code, len(out.getvalue()) > 0)",
        "print(*sorted({'json', 'csv'} & set(sys.modules)), sep=',')",
        "print(*sorted({'fractions', 'decimal'} & set(sys.modules)), sep=',')",
    ])
    proc = run_python("-S", "-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["", f"{code} True", loaded, "", ""]


# The records are NamedTuples, so no call needs dataclasses or the inspect,
# ast, dis and tokenize it imports: about 20 ms of every cold start.
INTROSPECTION_CASES = {
    "version": ["--version"],
    "table": ["table", *PS1_FLAGS, "--nmin", "-2", "--nmax", "2"],
    "theorems": ["theorems", "--pmax", "2", "--gmax", "4", "--ddmax", "3"],
    "section-ring": ["section-ring", *PS1_FLAGS, "--nmin", "-3", "--nmax", "8"],
}


@pytest.mark.parametrize("case", sorted(INTROSPECTION_CASES))
def test_cold_call_loads_no_introspection_module(case):
    # -S, as above: only the package can load these.
    probe = "\n".join([
        "import contextlib, io, sys",
        "import raynaudsurf.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    try:",
        f"        raynaudsurf.cli.main({INTROSPECTION_CASES[case]!r})",
        "    except SystemExit:",
        "        pass",
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))",
    ])
    proc = run_python("-S", "-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_layer_tracing_contract(capsys):
    # perfbench/tracing.py traces the CLI from outside: right after
    # `import raynaudsurf.cli` it looks the engine modules up in sys.modules,
    # wraps certify in every module that binds it by name, and counts
    # surface_cert and certify calls on a table.  A lazy import, a second
    # certify, or a table that bypasses either would leave `--trace 1`
    # reading zeros without an error.
    modules = ("params", "numclass", "curvecoh", "surfcoh", "sectionring", "cli")
    probe = f"import sys, raynaudsurf.cli; print(*[m for m in {modules!r} if 'raynaudsurf.' + m not in sys.modules])"
    proc = run_python("-S", "-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"

    from raynaudsurf import curvecoh, surfcoh

    assert surfcoh.certify is curvecoh.certify
    surfcoh.surface_cert.cache_clear()
    curvecoh.certify.cache_clear()
    code, _, _ = run_cli(capsys, ["table", *PS1_FLAGS, "--nmin", "-4", "--nmax", "4", "--format", "csv"])
    assert code == 0
    surf, curve = surfcoh.surface_cert.cache_info(), curvecoh.certify.cache_info()
    assert surf.hits + surf.misses == 9 * 3
    assert curve.hits + curve.misses >= 1


# ------------------------------------------------------------- golden stdout

WINDOW = ["--nmin", "-30", "--nmax", "30"]
REFERENCE_FLAGS = {"PS1": PS1_FLAGS, "PS2": PS2_FLAGS, "PS3": PS3_FLAGS, "PS4": PS4_FLAGS}


def golden_commands() -> dict[str, list[str]]:
    cmds = {"theorems": ["theorems"]}
    for name, flags in REFERENCE_FLAGS.items():
        for fmt in ("json", "csv", "pretty"):
            cmds[f"table {name} {fmt}"] = ["table", *flags, *WINDOW, "--format", fmt]
    cmds["table PS1 Z_2,1"] = ["table", *PS1_FLAGS, *WINDOW, "--a", "2", "--b", "1"]
    # JSON rows are streamed: one degree, one twist (no comma between rows)
    # and a twist exponent b != 1.
    cmds["table PS3 json i=1"] = ["table", *PS3_FLAGS, *WINDOW, "--i", "1"]
    cmds["table PS3 json n=0"] = ["table", *PS3_FLAGS, "--nmin", "0", "--nmax", "0"]
    cmds["table PS3 Z_1,3"] = ["table", *PS3_FLAGS, *WINDOW, "--a", "1", "--b", "3"]
    # Degree subsets, one listed out of order: rows print in (i, n) order
    # though the window is certified twist by twist.
    cmds["table PS3 csv i=2,0"] = ["table", *PS3_FLAGS, *WINDOW, "--format", "csv", "--i", "2,0"]
    cmds["table PS1 Z_2,1 pretty i=0,2"] = [*cmds["table PS1 Z_2,1"], "--format", "pretty", "--i", "0,2"]
    cmds["section-ring PS1"] = ["section-ring", *PS1_FLAGS, *WINDOW]
    cmds["section-ring PS1 pretty"] = [*cmds["section-ring PS1"], "--format", "pretty"]
    cmds["section-ring PS3"] = ["section-ring", *PS3_FLAGS, *WINDOW]
    cmds["invariants PS3"] = ["invariants", *PS3_FLAGS]
    # Both K_X fields false, and the pretty layout.
    cmds["invariants PS1"] = ["invariants", *PS1_FLAGS]
    cmds["invariants PS4 pretty"] = ["invariants", *PS4_FLAGS, "--format", "pretty"]
    cmds["validate PS4"] = ["validate", *PS4_FLAGS]
    cmds["validate invalid"] = ["validate", "-p", "4", "-g", "4", "--dD", "2", "-e", "2", "--ell", "3", "--pretango"]
    cmds["families json"] = ["families", "--pmax", "7", "--gmax", "20", "--ddmax", "20"]
    cmds["families csv"] = [*cmds["families json"], "--format", "csv"]
    sweep2083 = ["theorems", "--pmax", "13", "--gmax", "40", "--ddmax", "40"]
    cmds["theorems 2083"] = sweep2083
    cmds["theorems 2083 pretty"] = [*sweep2083, "--format", "pretty"]
    cmds["theorems 2083 nmin -100"] = [*sweep2083, "--nmin", "-100"]
    # At the window edge -1, h0_zero_negative covers n = -1 alone and every
    # h1_zero_below_window range is empty.
    cmds["theorems nmin -1"] = ["theorems", "--nmin", "-1"]
    cmds["theorems nmin -1 pretty"] = ["theorems", "--nmin", "-1", "--format", "pretty"]
    return cmds


def stdout_md5(capsys, argv) -> str:
    code, out, _ = run_cli(capsys, argv)
    return hashlib.md5(f"{code}\n{out}".encode()).hexdigest()


# md5 of "<exit code>\n<stdout>" per command.  Any change to a certificate,
# to the enumeration order or to a serialization changes a hash; a change
# meant to keep behaviour must keep all of them.
GOLDEN_MD5 = {
    "theorems": "d09ded7489f0d781a880e91fb8c3af4a",
    "table PS1 json": "bce5a4768138cf7d4b81364b1d1c844d",
    "table PS1 csv": "45d8add91ac4d03f3ee4566d3d7a7393",
    "table PS1 pretty": "cde7d368c841db4d5a6d4edae7d8d558",
    "table PS2 json": "5f4d34d2fa4363079829834f2482b7eb",
    "table PS2 csv": "a24701f647da01b9347b8e9865bc9624",
    "table PS2 pretty": "8f4ff0e7a03f9d4c4d0d3957c7ac90a6",
    "table PS3 json": "e1d9007a6aecc5f7d94916cd9554a58a",
    "table PS3 csv": "76180178440118fcb6cec4506cd361c6",
    "table PS3 pretty": "59c54e9a45e259baa5f7a676561d9a9f",
    "table PS4 json": "d24d768fa14330d07f5fafdb23052fc7",
    "table PS4 csv": "3530377f1c2c5d66ecfe927a45d3472f",
    "table PS4 pretty": "d52c19b275cccbb354ad5a212e126d6a",
    "table PS1 Z_2,1": "f21132a10e08dc5a612d01d51cb327c7",
    "table PS3 json i=1": "691f5f4e642a23d3fc5196552005a061",
    "table PS3 json n=0": "ec7d5f053c57777bfa936d0227d944e3",
    "table PS3 Z_1,3": "b97dcd50c107d2fc7c6ca856412b55cf",
    "table PS3 csv i=2,0": "56f36fcbfb0a9c0bc6cd17f92edf0564",
    "table PS1 Z_2,1 pretty i=0,2": "2591c494872e56ed290ae1ac743f9934",
    "section-ring PS1": "cf973b2211edf452cbd2371632979bc4",
    "section-ring PS1 pretty": "2a7740f6281199929840380ce8c0e6e6",
    "section-ring PS3": "99d680eb367a4f8c3a43f615783e1f70",
    "invariants PS3": "952c5891dcfc7b6656c712ef3e4fe784",
    "invariants PS1": "2805c37f0b47360454c9bb90fa0db773",
    "invariants PS4 pretty": "4c56177b5b0e41dec2ee9671d2011a05",
    "validate PS4": "236363f13fad6bc1ca041122a8521841",
    "validate invalid": "4e2ecb2d8ec2b9c845743088320211a5",
    "families json": "4a994e0a9e358df7957384634fe8739d",
    "families csv": "b1a220d2db39f591de2288e976bf699b",
    "theorems 2083": "903bca58c0f67eee979b25dc066b697a",
    "theorems 2083 pretty": "92f8edcec0a6de21d137b2a7f901faea",
    "theorems 2083 nmin -100": "f6976a0a01df851fc9f6557284b7c32b",
    "theorems nmin -1": "c663bc7a727708d272ca71f819d06b24",
    "theorems nmin -1 pretty": "b5f11834adb3c668e8b468017de8fe72",
}


def test_golden_stdout_md5(capsys):
    got = {label: stdout_md5(capsys, argv) for label, argv in golden_commands().items()}
    assert got == GOLDEN_MD5


# ------------------------------------------------------------ output blocks


class CountingOut(io.StringIO):
    """A stdout that counts the write() calls it receives."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


BLOCK_CASES = {
    "theorems 2083": ["theorems", "--pmax", "13", "--gmax", "40", "--ddmax", "40"],
    **{f"table ell=24 {fmt}": ["table", *ELL24_FLAGS, "--nmin", "-100", "--nmax", "100", "--format", fmt]
       for fmt in ("json", "csv", "pretty")},
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_stdout_is_written_in_blocks(case):
    # One write() per 65536 characters and one for the rest, not one per
    # line, which would make 2083 for the sweep and 605, 604 and 1208 for
    # the three tables.
    out = CountingOut()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(BLOCK_CASES[case]) == 0
        assert sys.stdout is out  # main() puts back the stdout it found
    assert 0 < out.writes <= -(-len(out.getvalue()) // 65536) + 1, (out.writes, len(out.getvalue()))


def run_shared(argv):
    """(exit code, text) of main(argv) with stdout and stderr on one stream."""
    shared = io.StringIO()
    with contextlib.redirect_stdout(shared), contextlib.redirect_stderr(shared):
        code = main(argv)
    return code, shared.getvalue()


def test_contradiction_mid_sweep_keeps_the_lines_before_it(monkeypatch):
    # The lines written before the error reach stdout, in full, before the
    # error reaches stderr.
    import raynaudsurf.cli as cli_mod
    from raynaudsurf import enumerate_families, theorem_predicates
    from raynaudsurf.surfcoh import TheoremContradicted

    calls = []

    def fifth_fails(params, nneg_min=-40):
        calls.append(params)
        if len(calls) == 5:
            raise TheoremContradicted("forced on the fifth tuple")
        return theorem_predicates(params, nneg_min=nneg_min)

    monkeypatch.setattr(cli_mod, "theorem_predicates", fifth_fails)
    lines = "".join(_report_line(theorem_predicates(f)) + "\n" for f in list(enumerate_families(7, 20, 20))[:4])
    error = "theorem contradicted: forced on the fifth tuple\n"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["theorems"])
    assert (code, out.getvalue(), err.getvalue()) == (3, lines, error)
    calls.clear()
    assert run_shared(["theorems"]) == (3, lines + error)


@pytest.mark.parametrize("argv", [
    ["families", "--pmax", "3", "--gmax", "6", "--ddmax", "4"],
    ["theorems", "--pmax", "3", "--gmax", "6", "--ddmax", "4"],
], ids=["families", "theorems"])
def test_summary_line_follows_the_output(argv):
    code, text = run_shared(argv)
    *rows, summary = text.splitlines()
    assert code == 0 and rows
    assert summary.startswith("total: " if argv[0] == "families" else "tuples: ")
    assert all(row.startswith("{") for row in rows)


@pytest.mark.parametrize("label", ["theorems", "table PS1 csv"])
def test_buffering_mode_never_changes_bytes(label):
    argv = golden_commands()[label]
    digests = set()
    for unbuffered in (True, False):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-m", "raynaudsurf", *argv], capture_output=True, text=True, env=env)
        digests.add(hashlib.md5(f"{proc.returncode}\n{proc.stdout}".encode()).hexdigest())
    assert digests == {GOLDEN_MD5[label]}


# ------------------------------------------------------------ bounded work


def peak_traced_bytes(argv) -> int:
    """tracemalloc's peak over main(argv), with the cyclic collector off as in run()."""
    from raynaudsurf import surface_cert

    surface_cert.cache_clear()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
        surface_cert.cache_clear()


def test_table_memory_does_not_grow_with_the_window():
    # surface_cert keeps one twist, and a twist leaves behind only its
    # printed rows, so a +-100 window costs little more than a +-10 one.
    # Holding the ell = 24 term records of every twist made it about 8x.
    narrow, wide = (["table", *ELL24_FLAGS, "--nmin", str(-w), "--nmax", str(w), "--format", "csv"] for w in (10, 100))
    peak_traced_bytes(narrow)  # argparse's first-call allocations are no table's
    small, large = peak_traced_bytes(narrow), peak_traced_bytes(wide)
    assert large <= 1.5 * small, (small, large)


def test_table_huge_polarization_exponent(capsys):
    # Z_{a,1} with a = 10**9 pushes forward to S^m(E) with m near a/ell.
    from raynaudsurf import canonical_X, intersect_X, polarization_class, surface_cert

    from conftest import PS1

    a = 10**9
    code, out, _ = run_cli(capsys, ["table", *PS1_FLAGS, "--a", str(a), "--nmin", "-1", "--nmax", "1"])
    assert code == 0
    chi_n1 = {row["chi"] for row in json.loads(out)["rows"] if row["n"] == 1}
    z, kx = polarization_class(PS1, a, 1), canonical_X(PS1)
    # Z^2 - Z.K_X is even (adjunction); halve it on integers, never in float.
    twice = intersect_X(PS1, z, z) - intersect_X(PS1, z, kx)
    assert type(twice) is int and twice % 2 == 0
    assert chi_n1 == {surface_cert(PS1, 0).chi + twice // 2}


def test_invariants_at_large_ell_in_bounded_time(capsys):
    # ell = e = dD = p + 1 = 1000004: the Kodaira check tests two of the
    # ell classes L_i, not all of them.
    from conftest import time_limit

    p, ell = 1000003, 1000004
    flags = ["-p", str(p), "-g", str(p * ell // 2 + 1), "--dD", str(ell), "-e", str(ell), "--ell", str(ell), "--tango"]
    with time_limit():
        code, out, _ = run_cli(capsys, ["invariants", *flags])
    assert code == 0
    blob = json.loads(out)
    assert blob["Etilde_sq"] == "1/1" and blob["K_X_ample"] is True
    assert blob["kodaira_vanishing_KX"] is True


# ------------------------------------------------------------ public surface

# One spelling per query: a second public name for an existing one (an
# alias) has to be added here on purpose.
PUBLIC_NAMES = [
    "Cert", "ClassP", "ClassX", "CohCert", "ETILDE", "E_P", "FIBER_P", "FIBER_X",
    "InvalidParams", "LocalCohReport", "PTerm", "RuleConflict", "Structure", "SurfCert",
    "SurfaceParams", "TermReduction", "TheoremContradicted", "ThmEntry", "ThmReport",
    "TwistedSym", "ZERO_CERT", "branch_curve_class", "canonical_P", "canonical_X",
    "certify", "check", "chi", "cusp_exponents", "degree", "enumerate_families",
    "fiber_genus", "frac_str", "h1_nonvanishing_window", "h_surface", "intersect_P",
    "intersect_X", "is_ample_KX", "is_ample_P", "is_normal", "is_prime", "is_smooth",
    "kodaira_vanishing_KX", "li_class", "line_bundle_h0_bounds", "local_cohomology",
    "local_cohomology_report", "polarization_class", "pullback_psi", "rank",
    "selfint_Etilde", "surface_cert", "theorem_predicates", "validate", "zab_nonvanishing",
]


def test_public_surface():
    import raynaudsurf

    assert len(PUBLIC_NAMES) == 54
    assert sorted(raynaudsurf.__all__) == PUBLIC_NAMES
    assert len(set(raynaudsurf.__all__)) == len(raynaudsurf.__all__)
    for name in raynaudsurf.__all__:
        assert hasattr(raynaudsurf, name), name


def test_every_unexported_module_name_is_read():
    # A module-level definition outside its module's __all__ serves only
    # the program, so something in src/ must read it: a Name, an Attribute
    # or an import.  A name that only tests or docstrings mention is dead
    # code.
    src = Path(__file__).resolve().parent.parent / "src" / "raynaudsurf"
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for stem, tree in trees.items():
        exported = set(getattr(importlib.import_module(f"raynaudsurf.{stem}"), "__all__", ()))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            unread += [f"{stem}.{n}" for n in names if not n.startswith("__") and n not in exported and n not in read]
    assert unread == []


def readme_library_session() -> list[str]:
    """The lines of the README's "quick library session" code block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("A quick library session:", 1)[1].split("```python\n", 1)[1]
    return block.split("```", 1)[0].splitlines()


def test_readme_library_session_shows_true_values():
    # Each expression line's comment opens with the value it shows: that
    # must be str() of what the line evaluates to.
    namespace: dict = {}
    shown = []
    for line in readme_library_session():
        code, _, comment = line.partition("#")
        try:
            expr = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = eval(expr, namespace)
        shown.append(comment.split()[0].rstrip(":,"))
        assert str(value) == shown[-1], line
    assert shown == ["Exact(1)", "Exact(0)", "3", "()", "91"]
    # The comments' other figures: h0 - h1 + h2 = 0 - 1 + 4, and 5 claims.
    params, surface_cert, theorem_predicates = (namespace[k] for k in ("params", "surface_cert", "theorem_predicates"))
    assert [str(c) for c in surface_cert(params, -1)[:3]] == ["Exact(0)", "Exact(1)", "Exact(4)"]
    assert len(theorem_predicates(params).claims) == 5


# ------------------------------------------------------------------- records


def _record_factories() -> dict:
    """Record type name -> a factory building one instance from fresh fields."""
    from fractions import Fraction

    from raynaudsurf import (
        Cert, ClassP, ClassX, CohCert, LocalCohReport, PTerm, SurfaceParams, SurfCert,
        TermReduction, ThmEntry, ThmReport, TwistedSym,
    )

    def params():
        return SurfaceParams(2, 4, 3, 3, 3, "tango")

    def coh():
        return CohCert(TwistedSym(False, 0, 0), -3, Cert(1, 1), Cert(4, 4))

    def term():
        return TermReduction(PTerm(0, 0), coh(), None, -3)

    def entry():
        return ThmEntry("h2_vanishes_high", 6, "vanishing", Cert(0, 0), "confirmed")

    return {
        "SurfaceParams": params,
        "ClassP": lambda: ClassP(1, Fraction(-1, 2)),
        "ClassX": lambda: ClassX(Fraction(2, 4), 3),
        "Cert": lambda: Cert(1, None),
        "TwistedSym": lambda: TwistedSym(True, 2, -1),
        "CohCert": coh,
        "PTerm": lambda: PTerm(-2, 4),
        "TermReduction": term,
        "SurfCert": lambda: SurfCert(Cert(1, 1), Cert(4, 4), Cert(0, 0), -3, (term(),)),
        "ThmEntry": entry,
        "ThmReport": lambda: ThmReport(params(), (entry(),)),
        "LocalCohReport": lambda: LocalCohReport(params(), -1, -1, {(2, -1): Cert(1, None)}),
    }


def test_every_public_record_is_covered():
    import raynaudsurf

    public = {name: getattr(raynaudsurf, name) for name in raynaudsurf.__all__}
    records = {name for name, obj in public.items() if isinstance(obj, type) and hasattr(obj, "_fields")}
    assert records == set(_record_factories())


@pytest.mark.parametrize("name", sorted(_record_factories()))
def test_record_is_an_immutable_value(name):
    make = _record_factories()[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b and a == b
    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    if name == "LocalCohReport":
        # Its pieces field is a dict, so the tuple hash fails; no caller hashes a report.
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_make_and_replace_check_like_the_constructor():
    from fractions import Fraction

    from raynaudsurf import Cert, ClassP, ClassX, InvalidParams, RuleConflict, SurfaceParams

    with pytest.raises(ValueError):
        Cert(0, 0)._replace(lo=-1)
    with pytest.raises(RuleConflict):
        Cert._make([3, 1])
    with pytest.raises(InvalidParams):
        SurfaceParams._make([4, 2, 1, 1, 1, "x"])
    ps1 = SurfaceParams._make([2, 4, 3, 3, 3, "tango"])
    assert ps1 == SurfaceParams(2, 4, 3, 3, 3, "tango")
    with pytest.raises(InvalidParams):
        ps1._replace(p=4)
    assert Cert(1, 1)._replace(hi=None) == Cert.at_least(1)
    # Both coerce as the constructor does: a rational becomes a Fraction,
    # an int stays an int.
    half = ClassP._make([1, "1/2"])
    assert type(half.cf) is Fraction and half.cf == Fraction(1, 2)
    assert type(half.cE) is int
    three = ClassX(0, Fraction(1, 2))._replace(d=3)
    assert type(three.d) is int and three == ClassX(0, 3)
    half_d = ClassX(0, 0)._replace(d="1/2")
    assert type(half_d.d) is Fraction and half_d.d == Fraction(1, 2)
