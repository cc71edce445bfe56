from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
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


def test_section_ring_slice(capsys):
    code, out, _ = run_cli(capsys, ["section-ring", *PS1_FLAGS, "--nmin", "-3", "--nmax", "8"])
    assert code == 0
    blob = json.loads(out)
    assert blob["dimR"] == 3
    assert blob["pieces"]["2,-1"] == {"kind": "exact", "lo": 1, "hi": 1}
    assert blob["pieces"]["1,-2"] == {"kind": "exact", "lo": 0, "hi": 0}
    assert blob["pieces"]["3,7"] == {"kind": "exact", "lo": 0, "hi": 0}


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


def test_module_entry_point():
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "raynaudsurf", "invariants", *PS3_FLAGS],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["fiber_genus"] == 3


# ------------------------------------------------------------- golden stdout

WINDOW = ["--nmin", "-30", "--nmax", "30"]
REFERENCE_FLAGS = {"PS1": PS1_FLAGS, "PS2": PS2_FLAGS, "PS3": PS3_FLAGS, "PS4": PS4_FLAGS}


def golden_commands() -> dict[str, list[str]]:
    cmds = {"theorems": ["theorems"]}
    for name, flags in REFERENCE_FLAGS.items():
        for fmt in ("json", "csv", "pretty"):
            cmds[f"table {name} {fmt}"] = ["table", *flags, *WINDOW, "--format", fmt]
    cmds["table PS1 Z_2,1"] = ["table", *PS1_FLAGS, *WINDOW, "--a", "2", "--b", "1"]
    cmds["section-ring PS1"] = ["section-ring", *PS1_FLAGS, *WINDOW]
    cmds["invariants PS3"] = ["invariants", *PS3_FLAGS]
    cmds["validate PS4"] = ["validate", *PS4_FLAGS]
    cmds["validate invalid"] = ["validate", "-p", "4", "-g", "4", "--dD", "2", "-e", "2", "--ell", "3", "--pretango"]
    cmds["families csv"] = ["families", "--pmax", "7", "--gmax", "20", "--ddmax", "20", "--format", "csv"]
    cmds["theorems 2083"] = ["theorems", "--pmax", "13", "--gmax", "40", "--ddmax", "40"]
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
    "section-ring PS1": "cf973b2211edf452cbd2371632979bc4",
    "invariants PS3": "952c5891dcfc7b6656c712ef3e4fe784",
    "validate PS4": "236363f13fad6bc1ca041122a8521841",
    "validate invalid": "4e2ecb2d8ec2b9c845743088320211a5",
    "families csv": "b1a220d2db39f591de2288e976bf699b",
    "theorems 2083": "903bca58c0f67eee979b25dc066b697a",
}


def test_golden_stdout_md5(capsys):
    got = {label: stdout_md5(capsys, argv) for label, argv in golden_commands().items()}
    assert got == GOLDEN_MD5


# ------------------------------------------------------------ bounded work


def test_table_huge_polarization_exponent(capsys):
    # Z_{a,1} with a = 10**9 pushes forward to S^m(E) with m near a/ell.
    from raynaudsurf import canonical_X, intersect_X, polarization_class, surface_cert

    from conftest import PS1

    a = 10**9
    code, out, _ = run_cli(capsys, ["table", *PS1_FLAGS, "--a", str(a), "--nmin", "-1", "--nmax", "1"])
    assert code == 0
    chi_n1 = {row["chi"] for row in json.loads(out)["rows"] if row["n"] == 1}
    z, kx = polarization_class(PS1, a, 1), canonical_X(PS1)
    rr = surface_cert(PS1, 0).chi + (intersect_X(PS1, z, z) - intersect_X(PS1, z, kx)) / 2
    assert chi_n1 == {rr}


# ------------------------------------------------------------ public surface

# One spelling per query: a second public name for an existing one (an
# alias) has to be added here on purpose.
PUBLIC_NAMES = [
    "Cert", "ClassP", "ClassX", "CohCert", "ETILDE", "E_P", "FIBER_P", "FIBER_X",
    "InvalidParams", "LocalCohReport", "PTerm", "RuleConflict", "Structure", "SurfCert",
    "SurfaceParams", "TermReduction", "TheoremContradicted", "ThmEntry", "ThmReport",
    "TwistedSym", "ZERO_CERT", "branch_curve_class", "canonical_P", "canonical_X",
    "cert_sum", "certify", "check", "chi", "cusp_exponents", "decompose_twist", "degree",
    "enumerate_families", "fiber_genus", "frac_str", "h1_nonvanishing_window",
    "h1neg_closed_form", "h_surface", "intersect_P", "intersect_X", "is_ample_KX",
    "is_ample_P", "is_normal", "is_prime", "is_smooth", "kodaira_vanishing_KX", "li_class",
    "line_bundle_h0_bounds", "local_cohomology", "local_cohomology_report",
    "nonzero_negative_degrees", "polarization_class", "pullback_psi", "rank", "reduce_term",
    "result1_range", "selfint_Etilde", "surface_cert", "theorem_predicates", "validate",
    "zab_nonvanishing",
]


def test_public_surface():
    import raynaudsurf

    assert len(PUBLIC_NAMES) == 60
    assert sorted(raynaudsurf.__all__) == PUBLIC_NAMES
    assert len(set(raynaudsurf.__all__)) == len(raynaudsurf.__all__)
    for name in raynaudsurf.__all__:
        assert hasattr(raynaudsurf, name), name
