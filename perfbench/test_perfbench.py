"""Self-test of the benchmark: `python3 -m pytest perfbench -q` from the checkout root.

The corruption tests feed real CLI output, then damaged copies of it, to the
output checks.  The smoke tests run every workload once, untraced and
traced, with a one-second budget (about two minutes in all).
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import checks
import run
import workloads
from tracing import Tracer, package_modules, traced_functions

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import raynaudsurf  # noqa: E402
import raynaudsurf.cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TUPLE = ["-p", "2", "-g", "4", "--dD", "3", "-e", "3", "--ell", "3", "--tango"]
SMALL_SWEEP = ["theorems", "--pmax", "3", "--gmax", "8", "--ddmax", "6"]


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = raynaudsurf.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def failed(argv, code, out, err):
    outcomes = run.Outcomes()
    outcomes.record(argv, code, out, err)
    return outcomes.failed == 1


def test_own_enumeration_matches_the_documented_sweep_size():
    assert sum(1 for _ in workloads.families(*workloads.SWEEP_BOUNDS)) == 2083
    want = {tuple(f.to_json().values()) for f in raynaudsurf.enumerate_families(7, 30, 24)}
    assert set(workloads.families(7, 30, 24)) == want


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    assert workloads.invocations(workload, 3) == workloads.invocations(workload, 3)
    if workload != "sweep":
        assert any(workloads.invocations(workload, 3) != workloads.invocations(workload, s) for s in range(4, 8))


def test_tables_has_enough_invocations_for_p75():
    assert len(workloads.invocations("tables", 0)) >= 40


GOOD = [
    ["table", *TUPLE, "--nmin", "-6", "--nmax", "6"],
    ["table", *TUPLE, "--nmin", "-6", "--nmax", "6", "--format", "csv"],
    ["table", *TUPLE, "--nmin", "-6", "--nmax", "6", "--i", "1", "--format", "pretty"],
    ["table", *TUPLE, "--nmin", "-3", "--nmax", "3", "--a", "2", "--b", "2"],
    ["section-ring", *TUPLE, "--nmin", "-6", "--nmax", "6"],
    ["invariants", *TUPLE],
    SMALL_SWEEP,
]


@pytest.mark.parametrize("argv", GOOD, ids=lambda a: " ".join(a[:1] + a[-4:]))
def test_real_output_passes(argv):
    code, out, err = cli(argv)
    assert checks.problems(argv, code, out, err) == []


def _json_rows(edit):
    argv = GOOD[0]
    code, out, err = cli(argv)
    payload = json.loads(out)
    edit(payload["rows"])
    return argv, code, json.dumps(payload), err


def _bump_exact_chi(rows):
    cells = {}
    for r in rows:
        cells.setdefault(r["n"], []).append(r)
    n = next(n for n, rs in cells.items() if all(r["h"]["kind"] == "exact" for r in rs))
    for r in cells[n]:
        r["chi"] += 1
        r["terms"][0]["chi"] += 1  # keep the term sum intact, so only the identity breaks


def _lo_above_hi(rows):
    rows[3]["h"]["lo"] = 5
    rows[3]["h"]["hi"] = 3


def _negative_lo(rows):
    rows[0]["terms"][0]["pi" if rows[0]["terms"][0]["pi"] else "r1pi"]["h0"]["lo"] = -1


@pytest.mark.parametrize("edit", [lambda rows: rows.pop(), _lo_above_hi, _negative_lo, _bump_exact_chi],
                         ids=["dropped_row", "lo_above_hi", "negative_lo", "chi_identity"])
def test_corrupted_json_table_is_counted_as_failed(edit):
    assert failed(*_json_rows(edit))


def test_chi_identity_is_checked_on_its_own():
    bad = checks.problems(*_json_rows(_bump_exact_chi))
    assert len(bad) == 1 and "h0 - h1 + h2" in bad[0]


def test_corrupted_csv_and_pretty_tables_are_counted_as_failed():
    argv = GOOD[1]
    code, out, err = cli(argv)
    lines = out.splitlines(keepends=True)
    assert failed(argv, code, "".join(lines[:-1]), err)  # dropped row
    i, n, kind, lo, hi, chi = lines[1].strip().split(",")
    assert failed(argv, code, "".join([lines[0], f"{i},{n},range,4,2,{chi}\n"] + lines[2:]), err)
    argv = GOOD[2]
    code, out, err = cli(argv)
    lines = out.splitlines(keepends=True)
    assert failed(argv, code, "".join(lines[:-1]), err)
    bad = lines[1].replace("Exact(0)", "Range(4,2)").replace("Exact(1)", "Range(4,2)")
    assert bad != lines[1]
    assert failed(argv, code, "".join([lines[0], bad] + lines[2:]), err)


def test_wrong_tuple_count_is_counted_as_failed():
    code, out, err = cli(SMALL_SWEEP)
    n = int(err.split("tuples: ")[1].split(",")[0])
    assert failed(SMALL_SWEEP, code, out, err.replace(f"tuples: {n},", f"tuples: {n + 1},"))
    assert failed(SMALL_SWEEP, code, "\n".join(out.splitlines()[:-1]) + "\n", err)


def test_nonzero_exit_and_section_ring_damage_are_counted_as_failed():
    argv = GOOD[4]
    code, out, err = cli(argv)
    assert failed(argv, 1, out, err)
    payload = json.loads(out)
    payload["pieces"]["2,-1"] = {"kind": "range", "lo": 3, "hi": 1}
    assert failed(argv, code, json.dumps(payload), err)
    del payload["pieces"]["2,-1"]
    assert failed(argv, code, json.dumps(payload), err)


def test_every_binding_is_wrapped_and_restored():
    originals = traced_functions(raynaudsurf)
    assert {"curvecoh.certify", "surfcoh.surface_cert", "cli.main", "numclass.polarization_class"} <= set(originals)
    tracer = Tracer(originals)
    with tracer.install(raynaudsurf):
        stale = [
            (mod.__name__, attr)
            for mod in package_modules(raynaudsurf)
            for attr, val in vars(mod).items()
            if any(val is fn for fn in originals.values())
        ]
        assert stale == []
        assert raynaudsurf.surfcoh.certify is raynaudsurf.curvecoh.certify is not originals["curvecoh.certify"]
        for fn in originals.values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        tracer.begin_invocation()
        assert raynaudsurf.cli.main(["table", *TUPLE, "--nmin", "-4", "--nmax", "4", "--format", "csv"]) == 0
        tracer.end_invocation()
    assert raynaudsurf.surfcoh.certify is originals["curvecoh.certify"]
    info = originals["curvecoh.certify"].cache_info()
    metrics = tracer.layer_metrics(0)
    assert metrics["curvecoh.certify.calls"] == info.hits + info.misses > 0
    assert metrics["surfcoh.surface_cert.calls"] == 9 * 3
    assert metrics["curvecoh.certify.hit_ratio"] == info.hits / (info.hits + info.misses)


def test_times_are_scaled_by_the_probe_samples_taken_while_the_child_ran():
    samples = [(0.0, 0.006), (1.0, 0.003), (2.0, 0.0015)]
    assert run.scaled(samples, 0.95, 0.02) == pytest.approx(0.02)
    assert run.scaled(samples, 1.95, 0.1) == pytest.approx(0.2)
    assert run.scaled(samples, 0.0, 2.0) == pytest.approx(2.0 * 0.003 / (0.0105 / 3))
    assert run.scaled(samples, 5.0, 0.1) == pytest.approx(0.1 * 0.003 / (0.0105 / 3))  # none near: all


def test_probe_samples_until_stopped():
    probe = run.SpeedProbe()
    time.sleep(0.5)
    samples = probe.stop()
    assert len(samples) >= 2 and all(c > 0 for _, c in samples)


def _bench(*args):
    res = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                         capture_output=True, text=True, timeout=180)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_named_metric(workload, trace):
    result = _bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"] == {m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
                                 for m in named}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "0",
                          "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert res.returncode != 0 and res.stdout == ""
