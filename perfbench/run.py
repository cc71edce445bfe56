"""Benchmark for the raynaudsurf CLI.

    python3 perfbench/run.py --workload sweep|large_p|tables --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy.

--trace 0 times the CLI as users run it: each invocation is a cold child
process (`python -m raynaudsurf ...`), one at a time.  It first takes the
median of several cold `--version` starts (setup_s), then repeats the
workload's invocation list while another repetition fits in --seconds.
Each child's wall time is scaled to a reference CPU speed, measured by the
speed probe (probe.py) on the same CPU while the child ran; the raw times
are kept in the provenance.

--trace 1 calls `raynaudsurf.cli.main` in-process instead (inprocess.py),
alternating an untraced pass with a pass whose module functions are wrapped
in spans (tracing.py), each pass in a fresh interpreter, and reports the
per-layer metrics.

Every output is checked (checks.py); an invocation that exits non-zero or
fails a check counts as failed.  The last stdout line is the result object;
the line before it, and `.perfbench_out/` in the checkout, hold the
provenance of the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import checks
import workloads
from probe import PERIOD_S as PROBE_PERIOD_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_STARTS = 9  # timed cold starts per run, after one untimed start that writes bytecode
DEADLINE_S = 170.0  # a run never starts work past this, and kills a child that crosses it
PROBE_REF_S = 0.003  # probe CPU time per unit that reported CLI times are scaled to

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_s": "s",
    "call_p75_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
PER_LAYER_UNITS = {"trace.overhead_frac": "frac", "trace.traced_wall_s": "s", "trace.untraced_wall_s": "s"}


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Outcomes:
    """Attempted and failed invocations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, argv: list[str], returncode: int, stdout: str, stderr: str) -> None:
        self.attempted += 1
        bad = checks.problems(argv, returncode, stdout, stderr)
        if bad:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{' '.join(argv)}: {bad[0]}")


def run_child(cmd: list[str], env: dict, deadline: float) -> tuple[int, str, str, float, float, int]:
    """Run cmd to completion: (exit code, stdout, stderr, start, wall s, max RSS KiB)."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    bufs = [b"", b""]

    def drain(k, pipe):
        bufs[k] = pipe.read()

    readers = [threading.Thread(target=drain, args=kp) for kp in enumerate((proc.stdout, proc.stderr))]
    for r in readers:
        r.start()
    killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, bufs[0].decode(), bufs[1].decode(), t0, wall, usage.ru_maxrss


class SpeedProbe:
    """probe.py running beside the children on the same CPU."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "probe.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)

    def stop(self) -> list[tuple[float, float]]:
        """End the probe and return its (time, CPU time) samples."""
        self.proc.stdin.close()
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        if self.proc.wait() != 0 or not out:
            raise SystemExit(f"speed probe exited {self.proc.returncode}")
        return json.loads(out)


def scaled(samples: list[tuple[float, float]], start: float, wall: float) -> float:
    """wall, scaled from the probe speed while it ran to the reference probe speed."""
    near = [c for t, c in samples if start - PROBE_PERIOD_S <= t <= start + wall + PROBE_PERIOD_S]
    return wall * PROBE_REF_S / statistics.mean(near or [c for _, c in samples])


def measure_cli(invocations: list[list[str]], seconds: float, deadline: float, prov: dict) -> tuple[Outcomes, dict]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("RAYNAUD_NMAX", None)
    cli = [sys.executable, "-m", "raynaudsurf"]
    outcomes = Outcomes()
    setup, reps, md5s = [], [], []
    peak_kib = 0
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # children and the probe inherit it
    probe = SpeedProbe()
    try:
        for k in range(1 + SETUP_STARTS):
            code, out, err, t0, wall, kib = run_child(cli + ["--version"], env, deadline)
            outcomes.record(["--version"], code, out, err)
            peak_kib = max(peak_kib, kib)
            if k:
                setup.append((t0, wall))
        start = perf_counter()
        while True:
            rep_start = perf_counter()
            md5 = hashlib.md5()
            rep = []
            for argv in invocations:
                code, out, err, t0, wall, kib = run_child(cli + argv, env, deadline)
                outcomes.record(argv, code, out, err)
                md5.update(out.encode())
                rep.append((t0, wall))
                peak_kib = max(peak_kib, kib)
            reps.append(rep)
            md5s.append(md5.hexdigest())
            now = perf_counter()
            if now - start + (now - rep_start) > seconds or now + (now - rep_start) > deadline:
                break
    finally:
        samples = probe.stop()
    setup_s = [scaled(samples, t0, w) for t0, w in setup]
    rep_walls = [sum(scaled(samples, t0, w) for t0, w in rep) for rep in reps]
    calls = [scaled(samples, t0, w) for rep in reps for t0, w in rep]
    raw_calls = [w for rep in reps for _, w in rep]
    prov.update(
        cpu=cpu, reps=len(reps), call_samples=len(calls),
        probe_samples=len(samples), probe_median_s=statistics.median(c for _, c in samples),
        raw_setup_s=statistics.median(w for _, w in setup), raw_rep_wall_s=[sum(w for _, w in rep) for rep in reps],
        raw_call_p50_s=percentile(raw_calls, 50), raw_call_p75_s=percentile(raw_calls, 75),
        rep_wall_s=rep_walls, stdout_md5=md5s[0], stdout_md5_stable=len(set(md5s)) == 1,
    )
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(rep_walls),
        "call_p50_s": percentile(calls, 50),
        "call_p75_s": percentile(calls, 75),
        "peak_rss_mb": peak_kib / 1024,
        "ok_frac": (outcomes.attempted - outcomes.failed) / outcomes.attempted,
    }
    return outcomes, metrics


def measure_traced(workload: str, seed: int, seconds: float, deadline: float, prov: dict) -> tuple[Outcomes, dict]:
    env = dict(os.environ)
    env.pop("RAYNAUD_NMAX", None)
    outcomes = Outcomes()
    passes, md5s = [], []
    start = perf_counter()
    while True:
        pair_start = perf_counter()
        pair = {}
        for mode in ("untraced", "traced"):
            cmd = [sys.executable, str(HERE / "inprocess.py"), workload, str(seed), mode]
            code, out, err, _, _, _ = run_child(cmd, env, deadline)
            if code != 0:
                raise SystemExit(f"{mode} pass exited {code}: {err.strip()[-500:]}")
            pair[mode] = res = json.loads(out.splitlines()[-1])
            outcomes.attempted += res["attempted"]
            outcomes.failed += res["failed"]
            outcomes.reasons += res["reasons"][: 20 - len(outcomes.reasons)]
            md5s.append(res["stdout_md5"])
        metrics = pair["traced"]["metrics"]
        metrics["trace.traced_wall_s"] = pair["traced"]["wall_s"]
        metrics["trace.untraced_wall_s"] = pair["untraced"]["wall_s"]
        metrics["trace.overhead_frac"] = pair["traced"]["wall_s"] / pair["untraced"]["wall_s"] - 1
        passes.append(metrics)
        now = perf_counter()
        if now - start + (now - pair_start) > seconds or now + (now - pair_start) > deadline:
            break
    prov.update(pairs=len(passes), stdout_md5=md5s[0], stdout_md5_stable=len(set(md5s)) == 1,
                spans=pair["traced"]["spans"], spans_file=f"{OUT.name}/spans-{workload}.bin")
    return outcomes, {k: statistics.median(p[k] for p in passes) for k in passes[0]}


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    suffix = name.rsplit(".", 1)[1]
    return {"self_s": "s", "hit_ratio": "ratio", "out_bytes": "B"}.get(suffix, "count")


def git_commit() -> str | None:
    if not (ROOT / ".git").is_dir():
        return None
    res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return res.stdout.strip() if res.returncode == 0 else None


def src_digest() -> str:
    """sha256 over the package sources, which names the code under test without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "raynaudsurf").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    if not (SRC / "raynaudsurf" / "__init__.py").is_file():
        print(f"error: no raynaudsurf sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    invocations = workloads.invocations(args.workload, args.seed)
    prov = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_commit": git_commit(), "src_sha256": src_digest(),
        "python": sys.version.split()[0], "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "loop": "closed, 1 client", "invocations": invocations,
    }
    if args.trace:
        outcomes, values = measure_traced(args.workload, args.seed, args.seconds, deadline, prov)
        units = {name: per_layer_unit(name) for name in values}
    else:
        outcomes, values = measure_cli(invocations, args.seconds, deadline, prov)
        units = END_TO_END_UNITS
    prov["failures"] = outcomes.reasons
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "result": result}, indent=1))
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
