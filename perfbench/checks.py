"""Output checks for one CLI invocation.

`problems(argv, returncode, stdout, stderr)` returns a list of what is wrong
with one invocation's output; an empty list means it passed.  A failed check
counts the invocation as failed, so a wrong answer never passes as a fast
run.  The checks are independent of the program: tuple sets come from the
benchmark's own enumeration, and the Euler characteristic identity
chi = h0 - h1 + h2 is tested on every fully exact table cell.
"""

from __future__ import annotations

import csv
import io
import json
import re
from functools import lru_cache

from workloads import families

_PRETTY_ROW = re.compile(r"^  i=(\d) n=\s*(-?\d+)\s+(\S+) chi=(-?\d+)$")
_PRETTY_CERT = re.compile(r"^(?:Exact\((-?\d+)\)|LowerBound\((-?\d+)\)|Range\((-?\d+),(-?\d+)\))$")
_THEOREMS_TAIL = re.compile(r"^tuples: (\d+), unresolved: (\d+)$", re.M)
_PARAM_KEYS = ("p", "g", "dD", "e", "ell")


def _opts(argv: list[str]) -> tuple[str, dict[str, str]]:
    opts: dict[str, str] = {}
    it = iter(argv[1:])
    for tok in it:
        if tok in ("--tango", "--pretango"):
            opts["structure"] = tok[2:]
        else:
            opts[tok.lstrip("-")] = next(it)
    return argv[0], opts


def _params(opts: dict[str, str]) -> dict:
    out: dict = {k: int(opts[k]) for k in _PARAM_KEYS}
    out["structure"] = opts["structure"]
    return out


def _cert(c, where: str) -> list[str]:
    """lo >= 0, hi null or >= lo, and a kind that agrees with them."""
    if not isinstance(c, dict) or not isinstance(c.get("lo"), int) or "hi" not in c:
        return [f"{where}: malformed certificate {c!r}"]
    lo, hi = c["lo"], c["hi"]
    if lo < 0:
        return [f"{where}: lo = {lo} < 0"]
    if hi is None:
        kind = "lower"
    elif not isinstance(hi, int) or hi < lo:
        return [f"{where}: hi = {hi!r} below lo = {lo}"]
    else:
        kind = "exact" if hi == lo else "range"
    if "kind" in c and c["kind"] != kind:
        return [f"{where}: kind {c['kind']!r} but lo={lo}, hi={hi}"]
    return []


def _windows(opts: dict[str, str]) -> list[tuple[int, int]]:
    ivals = sorted({int(x) for x in opts.get("i", "0,1,2").split(",")})
    return [(i, n) for i in ivals for n in range(int(opts["nmin"]), int(opts["nmax"]) + 1)]


def _table_cells(cells: list[tuple[int, int, dict, int]], opts: dict[str, str]) -> list[str]:
    """Shared checks on (i, n, cert, chi) cells of a table in any format."""
    bad = []
    want = _windows(opts)
    got = [(i, n) for (i, n, _, _) in cells]
    if got != want:
        bad.append(f"rows {len(got)} do not match the requested window ({len(want)} cells)")
    by_n: dict[int, dict] = {}
    for (i, n, c, chi) in cells:
        bad += _cert(c, f"row i={i} n={n}")
        by_n.setdefault(n, {})[i] = (c, chi)
    for n, row in by_n.items():
        if len({chi for (_, chi) in row.values()}) != 1:
            bad.append(f"n={n}: chi differs between degrees")
        if len(row) == 3 and all(c.get("hi") == c.get("lo") for (c, _) in row.values()):
            h = [row[i][0]["lo"] for i in range(3)]
            if row[0][1] != h[0] - h[1] + h[2]:
                bad.append(f"n={n}: chi {row[0][1]} != h0 - h1 + h2 = {h[0] - h[1] + h[2]}")
    return bad


def _table_json(opts, out: str) -> list[str]:
    payload = json.loads(out)
    bad = []
    if payload["params"] != _params(opts):
        bad.append(f"params echo {payload['params']} differs from the request")
    if (payload["a"], payload["b"]) != (int(opts.get("a", 1)), int(opts.get("b", 1))):
        bad.append(f"twist echo a={payload['a']} b={payload['b']} differs from the request")
    cells = []
    for row in payload["rows"]:
        cells.append((row["i"], row["n"], row["h"], row["chi"]))
        for k, term in enumerate(row["terms"]):
            for side in ("pi", "r1pi"):
                coh = term[side]
                if coh is not None:
                    where = f"row i={row['i']} n={row['n']} term {k} {side}"
                    bad += _cert(coh["h0"], where + " h0") + _cert(coh["h1"], where + " h1")
        if sum(term["chi"] for term in row["terms"]) != row["chi"]:
            bad.append(f"row i={row['i']} n={row['n']}: chi is not the sum of its terms")
    return bad + _table_cells(cells, opts)


def _table_csv(opts, out: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != ["i", "n", "kind", "lo", "hi", "chi"]:
        return [f"bad csv header {rows[:1]}"]
    cells = []
    for (i, n, kind, lo, hi, chi) in rows[1:]:
        cert = {"kind": kind, "lo": int(lo), "hi": None if hi == "" else int(hi)}
        cells.append((int(i), int(n), cert, int(chi)))
    return _table_cells(cells, opts)


def _table_pretty(opts, out: str) -> list[str]:
    lines = out.splitlines()
    if not lines or not lines[0].startswith("h^i(X, Z_{"):
        return ["missing pretty table header"]
    cells = []
    for line in lines[1:]:
        m = _PRETTY_ROW.match(line)
        c = m and _PRETTY_CERT.match(m.group(3))
        if not c:
            return [f"unparseable pretty row {line!r}"]
        exact, lower, rlo, rhi = c.groups()
        if exact is not None:
            cert = {"lo": int(exact), "hi": int(exact)}
        elif lower is not None:
            cert = {"lo": int(lower), "hi": None}
        else:
            cert = {"kind": "range", "lo": int(rlo), "hi": int(rhi)}
        cells.append((int(m.group(1)), int(m.group(2)), cert, int(m.group(4))))
    return _table_cells(cells, opts)


def _section_ring(opts, out: str) -> list[str]:
    payload = json.loads(out)
    bad = []
    if payload["params"] != _params(opts) or payload["dimR"] != 3:
        bad.append("section-ring header differs from the request")
    nmin, nmax = int(opts["nmin"]), int(opts["nmax"])
    want = [f"{j},{n}" for j in range(4) for n in range(nmin, nmax + 1)]
    if sorted(payload["pieces"]) != sorted(want):
        bad.append(f"{len(payload['pieces'])} pieces, expected {len(want)}")
    for key, c in payload["pieces"].items():
        bad += _cert(c, f"piece {key}")
        if key.split(",")[0] in ("0", "1") and (c["lo"], c["hi"]) != (0, 0):
            bad.append(f"piece {key}: H^0_m and H^1_m must vanish")
    return bad


def _invariants(opts, out: str) -> list[str]:
    payload = json.loads(out)
    params = _params(opts)
    bad = []
    if payload["params"] != params:
        bad.append(f"params echo {payload['params']} differs from the request")
    if payload["cusp"] != [params["ell"], params["p"]]:
        bad.append(f"cusp {payload['cusp']} is not [ell, p]")
    if payload["smooth"] != (params["structure"] == "tango"):
        bad.append("smooth flag disagrees with the structure")
    return bad


@lru_cache(maxsize=None)
def _sorted_families(pmax: int, gmax: int, ddmax: int) -> tuple:
    # The CLI orders tuples lexicographically on (p, ell, e, g, dD, structure).
    return tuple(sorted(families(pmax, gmax, ddmax), key=lambda t: (t[0], t[4], t[3], t[1], t[2], t[5])))


def _theorems(opts, out: str, err: str) -> list[str]:
    want = _sorted_families(int(opts["pmax"]), int(opts["gmax"]), int(opts["ddmax"]))
    lines = out.splitlines()
    tail = _THEOREMS_TAIL.search(err)
    bad = []
    if tail is None:
        return ["stderr has no 'tuples: N, unresolved: M' line"]
    if int(tail.group(1)) != len(want) or len(lines) != len(want):
        bad.append(f"tuples: {tail.group(1)} reported, {len(lines)} lines, {len(want)} expected")
    unresolved = 0
    got = []
    for line in lines:
        rep = json.loads(line)
        prm = rep["params"]
        got.append(tuple(prm[k] for k in _PARAM_KEYS) + (prm["structure"],))
        unresolved += len(rep["stronger"])
        if rep["confirmed"] + len(rep["stronger"]) != rep["checks"]:
            bad.append(f"{prm}: confirmed + stronger != checks")
        for e in rep["stronger"]:
            bad += _cert(e["h"], f"{prm} {e['theorem']} n={e['n']}")
    if tuple(got) != want:
        bad.append("the swept tuples differ from the valid families within the bounds")
    if unresolved != int(tail.group(2)):
        bad.append(f"unresolved: {tail.group(2)} reported, {unresolved} listed")
    return bad


def problems(argv: list[str], returncode: int, stdout: str, stderr: str) -> list[str]:
    """Everything wrong with one invocation's output; empty when it passed."""
    if returncode != 0:
        return [f"exit code {returncode}: {stderr.strip()[-200:]}"]
    if argv == ["--version"]:
        return [] if re.fullmatch(r"raynaudsurf \S+\n", stdout) else [f"bad version line {stdout!r}"]
    cmd, opts = _opts(argv)
    fmt = opts.get("format", "json")
    try:
        if cmd == "table":
            return {"json": _table_json, "csv": _table_csv, "pretty": _table_pretty}[fmt](opts, stdout)
        if cmd == "section-ring":
            return _section_ring(opts, stdout)
        if cmd == "invariants":
            return _invariants(opts, stdout)
        if cmd == "theorems":
            return _theorems(opts, stdout, stderr)
    except (ValueError, KeyError, TypeError, IndexError) as err:
        return [f"unparseable {cmd} output: {err!r}"]
    return [f"no check for {argv}"]
