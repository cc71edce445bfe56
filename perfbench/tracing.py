"""Spans around calls into raynaudsurf's modules, recorded from outside.

`Tracer.install(pkg)` replaces each traced public function with a timing
wrapper in every module namespace that binds it by name (for example both
`curvecoh.certify` and `surfcoh.certify`), and restores the originals on
exit.  Each call records a span (name, parent span, start, end) in memory;
`layer_metrics()` derives the per-layer figures from the spans afterwards.
A span's self time is its duration minus the durations of its wrapped
children.  Helpers that are not traced count toward their caller.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (module, public functions traced); numclass is traced as a whole.
TRACED = (
    ("params", ("validate", "check", "enumerate_families")),
    ("numclass", None),
    ("curvecoh", ("certify",)),
    ("surfcoh", ("surface_cert", "decompose_twist", "theorem_predicates")),
    ("sectionring", ("local_cohomology_report",)),
    ("cli", ("main",)),
)
CACHED = ("curvecoh.certify", "surfcoh.surface_cert")


def package_modules(pkg) -> list:
    return [pkg] + [m for name, m in sorted(sys.modules.items()) if name.startswith(pkg.__name__ + ".")]


def traced_functions(pkg) -> dict:
    """Span name -> original function, for every traced public function.

    A name the program no longer defines is skipped and its metrics read 0,
    so the benchmark still runs against a refactored program.
    """
    out = {}
    for modname, names in TRACED:
        mod = sys.modules[f"{pkg.__name__}.{modname}"]
        if names is None:
            names = [n for n in mod.__all__ if inspect.isfunction(getattr(mod, n))]
        for n in names:
            if hasattr(mod, n):
                out[f"{modname}.{n}"] = getattr(mod, n)
    return out


def clear_caches(originals: dict) -> None:
    """Empty the traced functions' caches, as a new CLI process starts."""
    for fn in originals.values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


class Tracer:
    """In-memory spans plus the counters read at the same boundaries.

    `originals` is `traced_functions(pkg)`, taken before anything is wrapped.
    """

    def __init__(self, originals: dict):
        self.originals = originals
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.invocation_starts: list[int] = []
        self._stack: list[int] = []
        self.certify_miss_m_sum = 0
        self.theorem_entries = 0
        self.cache = {name: {"hits": 0, "misses": 0, "entries": 0} for name in CACHED}

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, t0, t1, stack = self.name_id, self.parent, self.t0, self.t1, self._stack

        def span(*args, **kwargs):
            idx = len(t0)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            t0.append(0.0)
            t1.append(0.0)
            stack.append(idx)
            t0[idx] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1[idx] = perf_counter()
                stack.pop()

        return span

    def _wrap_certify(self, fn):
        span = self._wrap("curvecoh.certify", fn)
        info = getattr(fn, "cache_info", None)  # without a cache, every call does the O(m) work

        def certify(params, sheaf):
            before = info().misses if info else 0
            out = span(params, sheaf)
            if info is None or info().misses != before:
                self.certify_miss_m_sum += max(0, sheaf.m + 1)
            return out

        return certify

    def _wrap_theorems(self, fn):
        span = self._wrap("surfcoh.theorem_predicates", fn)

        def theorem_predicates(*args, **kwargs):
            report = span(*args, **kwargs)
            self.theorem_entries += len(report.entries)
            return report

        return theorem_predicates

    @contextmanager
    def install(self, pkg):
        """Wrap every binding of every traced function; restore on exit."""
        special = {"curvecoh.certify": self._wrap_certify, "surfcoh.theorem_predicates": self._wrap_theorems}
        # Keyed by id(); self.originals keeps every key alive, so ids stay unique.
        wrapper_of = {
            id(fn): special[name](fn) if name in special else self._wrap(name, fn)
            for name, fn in self.originals.items()
        }
        restore = []
        for mod in package_modules(pkg):
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapper_of:
                    setattr(mod, attr, wrapper_of[id(val)])
                    restore.append((mod, attr, val))
        try:
            yield
        finally:
            for mod, attr, val in restore:
                setattr(mod, attr, val)

    def begin_invocation(self) -> None:
        """Mark where an invocation's spans start; spans of one invocation share it."""
        self.invocation_starts.append(len(self.t0))

    def end_invocation(self) -> None:
        """Add the invocation's cache counters; call before the caches are cleared."""
        for name, fn in self.originals.items():
            if name in self.cache and hasattr(fn, "cache_info"):
                info, acc = fn.cache_info(), self.cache[name]
                acc["hits"] += info.hits
                acc["misses"] += info.misses
                acc["entries"] = max(acc["entries"], info.currsize)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (total self time in s, number of spans)."""
        n = len(self.t0)
        child = [0.0] * n
        for k in range(n):
            if self.parent[k] >= 0:
                child[self.parent[k]] += self.t1[k] - self.t0[k]
        out = {name: [0.0, 0] for name in self.names}
        for k in range(n):
            agg = out[self.names[self.name_id[k]]]
            agg[0] += self.t1[k] - self.t0[k] - child[k]
            agg[1] += 1
        return {name: (s, c) for name, (s, c) in out.items()}

    def layer_metrics(self, out_bytes: int) -> dict[str, float]:
        """The per-layer metrics of one traced pass (times in s)."""
        st = self.self_times()

        def self_s(name):
            return st.get(name, (0.0, 0))[0]

        def calls(name):
            return st.get(name, (0.0, 0))[1]

        def hit_ratio(name):
            acc = self.cache[name]
            total = acc["hits"] + acc["misses"]
            return acc["hits"] / total if total else 0.0

        numclass = [v for k, v in st.items() if k.startswith("numclass.")]
        return {
            "curvecoh.certify.self_s": self_s("curvecoh.certify"),
            "curvecoh.certify.calls": calls("curvecoh.certify"),
            "curvecoh.certify.hit_ratio": hit_ratio("curvecoh.certify"),
            "curvecoh.certify.miss_m_sum": self.certify_miss_m_sum,
            "curvecoh.certify.cache_entries": self.cache["curvecoh.certify"]["entries"],
            "surfcoh.surface_cert.self_s": self_s("surfcoh.surface_cert"),
            "surfcoh.surface_cert.calls": calls("surfcoh.surface_cert"),
            "surfcoh.surface_cert.hit_ratio": hit_ratio("surfcoh.surface_cert"),
            "surfcoh.surface_cert.cache_entries": self.cache["surfcoh.surface_cert"]["entries"],
            "surfcoh.decompose_twist.self_s": self_s("surfcoh.decompose_twist"),
            "surfcoh.decompose_twist.calls": calls("surfcoh.decompose_twist"),
            "surfcoh.theorem_predicates.self_s": self_s("surfcoh.theorem_predicates"),
            "surfcoh.theorem_predicates.calls": calls("surfcoh.theorem_predicates"),
            "surfcoh.theorem_predicates.entries": self.theorem_entries,
            "params.enumerate_families.self_s": self_s("params.enumerate_families"),
            "params.validate.self_s": self_s("params.validate"),
            "params.validate.calls": calls("params.validate"),
            "params.check.self_s": self_s("params.check"),
            "params.check.calls": calls("params.check"),
            "numclass.self_s": sum(s for s, _ in numclass),
            "numclass.calls": sum(c for _, c in numclass),
            "sectionring.local_cohomology_report.self_s": self_s("sectionring.local_cohomology_report"),
            "cli.self_s": self_s("cli.main"),
            "cli.out_bytes": out_bytes,
        }

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header beside the raw column arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "invocation_starts": self.invocation_starts,
            "spans": len(self.t0),
            "columns": [["name_id", "i4"], ["parent", "i4"], ["t0", "f8"], ["t1", "f8"]],
        }
        path.with_suffix(".json").write_text(json.dumps(header))
        with open(path.with_suffix(".bin"), "wb") as f:
            for col in (self.name_id, self.parent, self.t0, self.t1):
                col.tofile(f)
