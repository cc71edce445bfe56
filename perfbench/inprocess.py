"""One in-process pass of a workload through `raynaudsurf.cli.main`.

    python3 perfbench/inprocess.py WORKLOAD SEED traced|untraced

run.py starts this script once per pass, so the untraced and the traced
pass each begin in a fresh interpreter, as a CLI invocation does.  Caches
are emptied before every invocation for the same reason.  Every output is
checked as in the CLI run.  Prints one JSON object: the pass's wall time
(invocations only, checks excluded), its outcomes and, when traced, the
per-layer metrics; the spans go to `.perfbench_out/spans-WORKLOAD.*`.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads
from run import OUT, SRC, Outcomes
from tracing import Tracer, clear_caches, traced_functions


def run_pass(pkg, invocations: list[list[str]], tracer: Tracer | None, originals: dict) -> dict:
    cli = sys.modules[pkg.__name__ + ".cli"]
    wall, nbytes, md5 = 0.0, 0, hashlib.md5()
    outcomes = Outcomes()
    for argv in invocations:
        clear_caches(originals)
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.begin_invocation()
        t0 = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))  # looked up per call, so the traced wrapper is used
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        wall += perf_counter() - t0
        if tracer:
            tracer.end_invocation()
        text = out.getvalue()
        outcomes.record(argv, code, text, err.getvalue())
        data = text.encode()
        nbytes += len(data)
        md5.update(data)
    return {"wall_s": wall, "out_bytes": nbytes, "stdout_md5": md5.hexdigest(),
            "attempted": outcomes.attempted, "failed": outcomes.failed, "reasons": outcomes.reasons}


def main(argv: list[str]) -> int:
    workload, seed, mode = argv
    if mode not in ("traced", "untraced"):
        raise SystemExit(f"mode must be traced or untraced, got {mode!r}")
    sys.path.insert(0, str(SRC))
    import raynaudsurf
    import raynaudsurf.cli  # noqa: F401  (imports every module the CLI uses)

    if Path(raynaudsurf.__file__).resolve().parent != SRC / "raynaudsurf":
        raise SystemExit(f"raynaudsurf imported from {raynaudsurf.__file__}, not from {SRC}")
    invocations = workloads.invocations(workload, int(seed))
    originals = traced_functions(raynaudsurf)
    if mode == "untraced":
        result = run_pass(raynaudsurf, invocations, None, originals)
    else:
        tracer = Tracer(originals)
        with tracer.install(raynaudsurf):
            result = run_pass(raynaudsurf, invocations, tracer, originals)
        result["metrics"] = tracer.layer_metrics(result["out_bytes"])
        result["spans"] = len(tracer.t0)
        tracer.write(OUT / f"spans-{workload}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
