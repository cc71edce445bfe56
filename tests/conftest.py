from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest

from raynaudsurf import SurfaceParams, Structure, enumerate_families

# The four reference tuples used throughout the suite.
PS1 = SurfaceParams(2, 4, 3, 3, 3, Structure.TANGO)
PS2 = SurfaceParams(3, 4, 2, 2, 2, Structure.TANGO)
PS3 = SurfaceParams(3, 7, 4, 4, 4, Structure.TANGO)
PS4 = SurfaceParams(5, 9, 3, 3, 3, Structure.PRETANGO)


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
