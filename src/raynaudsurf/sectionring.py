"""Graded local cohomology of the section ring R = (+)_{n>=0} H^0(X, Z^n).

R is a 3-dimensional graded normal domain with X = Proj R.  Cech comparison
gives H^0_m(R) = 0, the short exact sequence
0 -> R -> (+)_n H^0(X, Z^n) -> H^1_m(R) -> 0 (whose cokernel vanishes
degree-wise, since R_n is all of H^0 for n >= 0 and H^0 = 0 for n < 0), and
H^{i+1}_m(R) = (+)_n H^i(X, Z^n) for i >= 1.  So the interesting graded
pieces are exactly the surface certificates computed in surfcoh, reindexed.
"""

from __future__ import annotations

from typing import NamedTuple

from .curvecoh import Cert, ZERO_CERT
from .params import SurfaceParams
from .surfcoh import surface_cert

__all__ = ["LocalCohReport", "local_cohomology", "local_cohomology_report", "nonzero_negative_degrees"]

DIM_R = 3


def local_cohomology(params: SurfaceParams, j: int, n: int) -> Cert:
    """Certificate for the degree-n piece of H^j_m(R), j in 0..3.

    j = 2 and j = 3 read one cached surface_cert per n, so a window report
    certifies each twist once.
    """
    if j in (0, 1):
        return ZERO_CERT
    if j == 2:
        return surface_cert(params, n).h1
    if j == 3:
        return surface_cert(params, n).h2
    raise ValueError(f"j must lie in 0..{DIM_R}, got {j}")


class LocalCohReport(NamedTuple):
    """Graded pieces of H^j_m(R) over a degree window.

    Unhashable: hashing a tuple hashes its fields, and pieces is a dict.
    No caller hashes a report.
    """

    params: SurfaceParams
    nmin: int
    nmax: int
    pieces: dict[tuple[int, int], Cert]

    def to_json(self) -> dict:
        out = {
            "params": self.params.to_json(),
            "dimR": DIM_R,
            "nmin": self.nmin,
            "nmax": self.nmax,
            "pieces": {},
        }
        for (j, n) in sorted(self.pieces):
            out["pieces"][f"{j},{n}"] = self.pieces[(j, n)].to_json()
        return out


def local_cohomology_report(params: SurfaceParams, nmin: int, nmax: int) -> LocalCohReport:
    if nmin > nmax:
        raise ValueError("nmin must not exceed nmax")
    pieces = {
        (j, n): local_cohomology(params, j, n)
        for j in range(DIM_R + 1)
        for n in range(nmin, nmax + 1)
    }
    return LocalCohReport(params, nmin, nmax, pieces)


def nonzero_negative_degrees(params: SurfaceParams, nmin: int = -40) -> list[int]:
    """Degrees n < 0 where [H^2_m(R)]_n is certified nonzero."""
    return [n for n in range(nmin, 0) if local_cohomology(params, 2, n).certainly_nonzero]
