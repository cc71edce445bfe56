"""Graded local cohomology of the section ring R = (+)_{n>=0} H^0(X, Z^n).

R is a 3-dimensional graded normal domain with X = Proj R.  Cech comparison
gives H^0_m(R) = 0, the short exact sequence
0 -> R -> (+)_n H^0(X, Z^n) -> H^1_m(R) -> 0 (whose cokernel vanishes
degree-wise, since R_n is all of H^0 for n >= 0 and H^0 = 0 for n < 0), and
H^{i+1}_m(R) = (+)_n H^i(X, Z^n) for i >= 1.  So the interesting graded
pieces are exactly the surface certificates computed in surfcoh, reindexed,
and each piece is one degree: it reads the one-degree query h_surface.
"""

from __future__ import annotations

from typing import NamedTuple

from .curvecoh import Cert, ZERO_CERT
from .params import SurfaceParams
from .surfcoh import h_surface

__all__ = ["LocalCohReport", "local_cohomology", "local_cohomology_report"]

DIM_R = 3


def local_cohomology(params: SurfaceParams, j: int, n: int) -> Cert:
    """Certificate for the degree-n piece of H^j_m(R), j in 0..3.

    [H^j_m(R)]_n = H^(j-1)(X, Z^n) for j = 2, 3, so each such piece is
    h_surface(params, j - 1, n), which bounds only the sides that degree
    reads and keeps nothing.
    """
    if j not in range(DIM_R + 1):
        raise ValueError(f"j must lie in 0..{DIM_R}, got {j}")
    return h_surface(params, j - 1, n) if j >= 2 else ZERO_CERT


class LocalCohReport(NamedTuple):
    """Graded pieces of H^j_m(R) over a degree window, as ((j, n), Cert) pairs in (j, n) order."""

    params: SurfaceParams
    nmin: int
    nmax: int
    pieces: tuple[tuple[tuple[int, int], Cert], ...]

    def to_json(self) -> dict:
        return {
            "params": self.params.to_json(),
            "dimR": DIM_R,
            "nmin": self.nmin,
            "nmax": self.nmax,
            "pieces": {f"{j},{n}": cert.to_json() for (j, n), cert in self.pieces},
        }


def local_cohomology_report(params: SurfaceParams, nmin: int, nmax: int) -> LocalCohReport:
    if nmin > nmax:
        raise ValueError("nmin must not exceed nmax")
    pieces = tuple(
        ((j, n), local_cohomology(params, j, n))
        for j in range(DIM_R + 1)
        for n in range(nmin, nmax + 1)
    )
    return LocalCohReport(params, nmin, nmax, pieces)

