from __future__ import annotations

import functools
import math
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from raynaudsurf import (
    ZERO_CERT,
    Cert,
    Structure,
    SurfaceParams,
    TwistedSym,
    certify,
    enumerate_families,
    local_cohomology,
)

# The four reference tuples used throughout the suite.
PS1 = SurfaceParams(2, 4, 3, 3, 3, Structure.TANGO)
PS2 = SurfaceParams(3, 4, 2, 2, 2, Structure.TANGO)
PS3 = SurfaceParams(3, 7, 4, 4, 4, Structure.TANGO)
PS4 = SurfaceParams(5, 9, 3, 3, 3, Structure.PRETANGO)


def certainly_nonzero(cert):
    """cert proves a nonzero dimension: its lower end is at least 1."""
    return cert.lo >= 1


def cert_add(x, y):
    """The certificate of a direct sum of two sheaves: both ends add."""
    return Cert(x.lo + y.lo, x.hi + y.hi)


def oracle_decompose(params, m, tw):
    """The direct-image row of O_X(m*Etilde) (x) phi^* Nl^tw, from the valuation condition.

    An enumeration independent of the engine's _terms, as (mtw, t) pairs:
    push each graded piece M^i (exact fractions, then certified-integral)
    through the twist.
    The E-twist of summand i comes from the valuation condition, whatever
    the sign of m: f*z^i (z^ell = the equation of E) has a pole of order at
    most m along Etilde iff ell*v_E(f) + i >= -m, i.e.
    v_E(f) >= ceil((-m-i)/ell); the Nl twist tw adds to the i*p of M^i.
    """
    ell, p = params.ell, params.p
    drop = [Fraction(i * (p + 1), ell) for i in range(ell)]
    assert all(d.denominator == 1 for d in drop)
    drop = [int(d) for d in drop]
    return [(-math.ceil(Fraction(-m - i, ell)) - drop[i], i * p + tw) for i in range(ell)]


def h1neg_closed_form(params, n):
    """h^1(X, Z^n) for n < 0, summed over the oracle row's R^1 pi_* sides.

    For n < 0 every mtw of the row is negative (the h0_zero_negative proof
    of theorem_predicates), so no summand has a pi_* side and, by Leray,

        h^1 = sum_i h^0(C, S^(i(p+1)/ell - [(n+i)/ell] - 2)(E)^v (x) Nl^(i*p + n - ell)),

    with k = -mtw - 2 and a summand with mtw = -1 the zero sheaf.  Each
    curve h^0 comes from certify, and the sum is the cert_add chain.
    """
    if n >= 0:
        raise ValueError("closed form only covers n < 0")
    sides = (TwistedSym(True, -mtw - 2, t - params.ell) for mtw, t in oracle_decompose(params, n, n))
    return functools.reduce(cert_add, (certify(params, s).h0 for s in sides), ZERO_CERT)


def result1_range(params):
    """The n in [-(ell-1), -1] where a unit section makes h^1(X, Z^n) >= 1, from the oracle row.

    Summand i of Z^n with mtw <= -2 has the R^1 pi_* side
    S^k(E)^v (x) Nl^(t - ell), k = -mtw - 2 >= 0.  Dualizing S^k(E) ->> O(kD)
    embeds O(-kD) = Nl^(-k*ell) in S^k(E)^v, so when t - ell = k*ell the
    side contains O_C, whose constant section is a nonzero class of
    H^0(C, R^1 pi_*) within H^1(X, Z^n).  This lists the n where some
    summand carries that witness; h1_nonvanishing_window codes the same
    witness as a closed-form bound.
    """
    ell = params.ell
    return [
        n
        for n in range(1 - ell, 0)
        if any(mtw <= -2 and t - ell == (-mtw - 2) * ell for mtw, t in oracle_decompose(params, n, n))
    ]


def nonzero_negative_degrees(params, nmin=-40):
    """Degrees n < 0 where [H^2_m(R)]_n is certified nonzero, as `section-ring` reads them."""
    return [n for n in range(nmin, 0) if certainly_nonzero(local_cohomology(params, 2, n))]


@contextmanager
def time_limit(seconds: float = 2.0):
    """Fail the enclosed block once it has run `seconds` of wall time.

    A SIGALRM timer interrupts the block rather than waiting for it, so an
    input whose cost grows without bound fails fast instead of hanging.
    The bound is generous: the blocks it guards take milliseconds.
    """

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def ps1() -> SurfaceParams:
    return PS1


@pytest.fixture(scope="session")
def ps2() -> SurfaceParams:
    return PS2


@pytest.fixture(scope="session")
def ps3() -> SurfaceParams:
    return PS3


@pytest.fixture(scope="session")
def ps4() -> SurfaceParams:
    return PS4


@pytest.fixture(scope="session")
def sweep_small() -> list[SurfaceParams]:
    """A quick family sweep for module-level property tests."""
    return list(enumerate_families(5, 12, 8))


@pytest.fixture(scope="session")
def sweep_acceptance() -> list[SurfaceParams]:
    """The full acceptance sweep."""
    return list(enumerate_families(7, 20, 20))
