from __future__ import annotations

import pytest

from raynaudsurf import SurfaceParams, Structure, enumerate_families

# The four reference tuples used throughout the suite.
PS1 = SurfaceParams(2, 4, 3, 3, 3, Structure.TANGO)
PS2 = SurfaceParams(3, 4, 2, 2, 2, Structure.TANGO)
PS3 = SurfaceParams(3, 7, 4, 4, 4, Structure.TANGO)
PS4 = SurfaceParams(5, 9, 3, 3, 3, Structure.PRETANGO)


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
