"""Seeded CLI invocation lists for the three benchmark workloads.

Each workload is a list of argument vectors for `python -m raynaudsurf`, run
in order by one client (a closed loop).  Inputs come from this file alone:
the family enumeration below restates the paper's numeric constraints
independently of `raynaudsurf.params`, so a change to the program cannot
change what the benchmark asks it to compute, and the expected tuple count
of a sweep is an independent check on the program's own enumeration.
"""

from __future__ import annotations

import random
from math import gcd

WORKLOADS = ("sweep", "large_p", "tables")

SWEEP_BOUNDS = (13, 40, 40)  # --pmax, --gmax, --ddmax of the north-star sweep
TABLE_BOUNDS = (23, 300, 24)  # family pool the tables workload draws from
# One drawn surface per cover degree, so every seed has the same mix of
# pushforward-term counts (a table's cost grows with ell).
TABLE_ELLS = (2, 3, 4, 5, 6, 8, 12, 24)
LARGE_P_CHOICES = 64  # primes p = 3 (mod 4) from 1000003 up, one drawn per seed

Tuple = tuple[int, int, int, int, int, str]  # (p, g, dD, e, ell, structure)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def families(pmax: int, gmax: int, ddmax: int):
    """Yield every valid (p, g, dD, e, ell, structure) within the bounds.

    Constraints: p prime, ell | p+1, ell | e, gcd(e, p) = 1, e | dD,
    g >= 2, p*dD <= 2g-2, with the Tango variant exactly when p*dD = 2g-2.
    """
    for p in range(2, pmax + 1):
        if not _is_prime(p):
            continue
        for ell in range(2, p + 2):
            if (p + 1) % ell:
                continue
            for e in range(ell, ddmax + 1, ell):
                if gcd(e, p) != 1:
                    continue
                for dD in range(e, ddmax + 1, e):
                    for g in range(max(2, -(-(p * dD + 2) // 2)), gmax + 1):
                        yield (p, g, dD, e, ell, "pretango")
                        if p * dD == 2 * g - 2:
                            yield (p, g, dD, e, ell, "tango")


def tuple_flags(t: Tuple) -> list[str]:
    p, g, dD, e, ell, structure = t
    return ["-p", str(p), "-g", str(g), "--dD", str(dD), "-e", str(e), "--ell", str(ell), f"--{structure}"]


def large_p_prime(seed: int) -> int:
    primes = []
    p = 1000003
    while len(primes) < LARGE_P_CHOICES:
        if _is_prime(p):
            primes.append(p)
        p += 4
    return random.Random(seed).choice(primes)


def _sweep(seed: int) -> list[list[str]]:
    pmax, gmax, ddmax = SWEEP_BOUNDS
    return [["theorems", "--pmax", str(pmax), "--gmax", str(gmax), "--ddmax", str(ddmax)]]


def _large_p(seed: int) -> list[list[str]]:
    p = large_p_prime(seed)
    # Tango with dD = 4 forces g = 2p + 1; ell = e = 4 needs 4 | p + 1.
    return [["table", *tuple_flags((p, 2 * p + 1, 4, 4, 4, "tango")), "--nmin", "-3", "--nmax", "3"]]


def _tables(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    by_ell: dict[int, list[Tuple]] = {ell: [] for ell in TABLE_ELLS}
    for t in families(*TABLE_BOUNDS):
        if t[4] in by_ell:
            by_ell[t[4]].append(t)
    out = []
    for ell in TABLE_ELLS:
        t = rng.choice(by_ell[ell])
        flags = tuple_flags(t)
        b = rng.randint(1, ell - 1)
        out += [
            ["table", *flags, "--nmin", "-100", "--nmax", "100"],
            ["table", *flags, "--nmin", "-100", "--nmax", "100", "--format", "csv"],
            ["table", *flags, "--nmin", "-100", "--nmax", "100", "--i", "1", "--format", "pretty"],
            ["table", *flags, "--nmin", "-50", "--nmax", "50", "--a", "2", "--b", str(b)],
            ["section-ring", *flags, "--nmin", "-100", "--nmax", "100"],
            ["invariants", *flags],
        ]
    return out


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The argument vectors of one run of the workload, in order."""
    return {"sweep": _sweep, "large_p": _large_p, "tables": _tables}[workload](seed)
