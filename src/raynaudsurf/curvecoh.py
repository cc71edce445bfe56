"""Dimension certificates for twisted symmetric powers on the base curve.

Every sheaf handled here has the shape S^m(E)^(v) (x) Nl^t, where E is the
non-split rank-2 extension of O(D) by O_C and Nl is the chosen ell-th root
of O(D) (so Nl^ell = O(D), deg Nl = dNl >= 1).  S^m(E) carries a filtration
with line-bundle quotients Nl^(j*ell), j = 0..m, dualizing to Nl^(-j*ell);
only this degree data, Riemann-Roch, the sharp vanishing
h^0(S^m(E)^v (x) Nl^t) = 0 for m >= 1 and t < ell, and the unit-section
inclusions O_C -> S^m(E) and O(-mD) -> S^m(E)^v enter the rules.  The
quotient degrees form the arithmetic progression d_j = t*dNl + j*step,
step = +-ell*dNl, so every rule reads them through the progression's
endpoints and one arithmetic series: a certificate costs O(1) in m, and
no certificate is kept once it is returned: surface_cert caches the sums
for the window commands, h_surface certifies only the sides one degree
reads, and below them no sheaf recurred on the benchmark workloads.

In the middle degree range the true dimensions depend on the extension class
of E, which degree data cannot see, so certificates there are intervals:
Exact(k), LowerBound(k) or Range(lo, hi), always paired with the exact Euler
characteristic chi = deg + rank*(1-g).  Rules may only tighten; two rules
producing an empty interval is an implementation bug and raises RuleConflict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .params import SurfaceParams

__all__ = [
    "RuleConflict",
    "Cert",
    "TwistedSym",
    "CohCert",
    "ZERO_CERT",
    "rank",
    "degree",
    "chi",
    "line_bundle_h0_bounds",
    "certify",
    "cert_sum",
]


class RuleConflict(RuntimeError):
    """Two certificate rules produced an empty interval: an internal bug."""


@dataclass(frozen=True, slots=True)
class Cert:
    """A certified interval for a cohomology dimension.

    lo is always a proven lower bound; hi, when present, a proven upper
    bound.  kind is derived: lo == hi is Exact, hi is None is LowerBound
    (only allowed with lo >= 1), otherwise Range with lo < hi.
    """

    lo: int
    hi: int | None

    def __post_init__(self):
        if self.lo < 0:
            raise ValueError(f"negative lower bound {self.lo}")
        if self.hi is None:
            if self.lo < 1:
                raise ValueError("a pure lower-bound certificate needs lo >= 1")
        elif self.hi < self.lo:
            raise RuleConflict(f"empty certificate interval [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, k: int) -> "Cert":
        return cls(k, k)

    @classmethod
    def at_least(cls, k: int) -> "Cert":
        return cls(k, None)

    @property
    def kind(self) -> str:
        if self.hi is None:
            return "lower"
        return "exact" if self.lo == self.hi else "range"

    @property
    def is_exact(self) -> bool:
        return self.hi == self.lo

    @property
    def certainly_nonzero(self) -> bool:
        return self.lo >= 1

    @property
    def is_zero(self) -> bool:
        return self.hi == 0

    def __add__(self, other: "Cert") -> "Cert":
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Cert(self.lo + other.lo, hi)

    def to_json(self) -> dict:
        return {"kind": self.kind, "lo": self.lo, "hi": self.hi}

    def __str__(self) -> str:
        if self.is_exact:
            return f"Exact({self.lo})"
        if self.hi is None:
            return f"LowerBound({self.lo})"
        return f"Range({self.lo},{self.hi})"


ZERO_CERT = Cert.exact(0)


def cert_sum(certs: Iterable[Cert]) -> Cert:
    """Interval sum over a direct sum of sheaves."""
    total = ZERO_CERT
    for c in certs:
        total = total + c
    return total


@dataclass(frozen=True, slots=True)
class TwistedSym:
    """S^m(E) (x) Nl^t, or its dual sym power when dualized; m < 0 is the zero sheaf."""

    dualized: bool
    m: int
    t: int

    @property
    def is_zero(self) -> bool:
        return self.m < 0


def rank(sheaf: TwistedSym) -> int:
    return 0 if sheaf.is_zero else sheaf.m + 1


def degree(params: SurfaceParams, sheaf: TwistedSym) -> int:
    if sheaf.is_zero:
        return 0
    sign = -1 if sheaf.dualized else 1
    m, t = sheaf.m, sheaf.t
    return sign * (m * (m + 1) // 2) * params.dD + (m + 1) * t * params.dNl


def chi(params: SurfaceParams, sheaf: TwistedSym) -> int:
    """Riemann-Roch: chi = deg + rank*(1-g); zero for the zero sheaf."""
    if sheaf.is_zero:
        return 0
    return degree(params, sheaf) + rank(sheaf) * (1 - params.g)


def line_bundle_h0_bounds(params: SurfaceParams, t: int) -> tuple[int, int]:
    """Certified (lo, hi) for h^0 of the line bundle Nl^t.

    Negative degree is exact zero; t = 0 is O_C (deg 0 forces t = 0 since
    dNl >= 1, so there is no nontrivial degree-0 case); above 2g-2 the bundle
    is nonspecial and h^0 = chi.  In between only the chi floor and the
    effectivity of positive powers of O(D) (D > 0, so t > 0 with ell | t has
    a section) give lower bounds, and deg+1 is the generic upper bound.
    """
    deg = t * params.dNl
    if deg < 0:
        return 0, 0
    if t == 0:
        return 1, 1
    c = deg + 1 - params.g
    if deg > 2 * params.g - 2:
        return c, c
    lo = max(0, c)
    if t % params.ell == 0:
        lo = max(lo, 1)
    return lo, deg + 1


@dataclass(frozen=True, slots=True)
class CohCert:
    """h^0 and h^1 certificates for one sheaf, paired with its exact chi."""

    sheaf: TwistedSym
    chi: int
    h0: Cert
    h1: Cert

    def to_json(self) -> dict:
        return {
            "dual": self.sheaf.dualized,
            "m": self.sheaf.m,
            "t": self.sheaf.t,
            "chi": self.chi,
            "h0": {**self.h0.to_json(), "chi": self.chi},
            "h1": {**self.h1.to_json(), "chi": self.chi},
        }


def _transport_h1(h0: Cert, chi_value: int) -> Cert:
    # h1 = h0 - chi on the nose, clamped at 0 from below.
    lo = max(0, h0.lo - chi_value)
    hi = None if h0.hi is None else h0.hi - chi_value
    if hi is not None and hi < lo:
        raise RuleConflict(f"h1 transport emptied the interval: h0={h0}, chi={chi_value}")
    return Cert(lo, hi)


def _clipped_series_sum(d0: int, step: int, m: int) -> int:
    """sum(max(0, d0 + j*step + 1) for j in 0..m), step != 0, in closed form.

    Only the terms with d_j >= 0 count (d_j = -1 adds 0), and they form one
    end of 0..m; reversing a falling progression makes it the upper end.
    """
    if step < 0:
        d0, step = d0 + m * step, -step
    j0 = max(0, -(d0 // step))  # least j with d0 + j*step >= 0
    k = m + 1 - j0
    if k <= 0:
        return 0
    first, last = d0 + j0 * step, d0 + m * step
    return k * (first + last) // 2 + k


# Stores nothing (0 hits in 178696 calls on the three perfbench workloads: 122582 sweep
# + 56089 tables + 25 large_p); cache_info() still counts calls.
@lru_cache(maxsize=0)
def certify(params: SurfaceParams, sheaf: TwistedSym) -> CohCert:
    """Tightest certificate pair derivable from the degree-level rules.

    Rule set, in fixed priority order:
      R0 zero sheaf; R1 line-bundle exactness (m = 0); R2 sharp vanishing of
      dualized powers with t < ell; R3 unit-section lower bounds; R4 all
      filtration quotients negative; R5 quotient-sum upper bound; R6 chi
      floor.  The combiner takes the max of lower and the min of upper
      bounds; when every quotient degree exceeds 2g-2 the sheaf is
      nonspecial, h^1 is exactly 0 and h^0 is upgraded to Exact(chi).

    The quotient degrees d_j = t*dNl + j*step (step = +-ell*dNl) are never
    listed: R4 is max(d_0, d_m) < 0, the nonspecial test is
    min(d_0, d_m) > 2g-2 and R5 is one arithmetic series, so the work is
    O(1) in m.
    """
    if sheaf.is_zero:
        return CohCert(sheaf, 0, ZERO_CERT, ZERO_CERT)
    c = chi(params, sheaf)
    step = (-1 if sheaf.dualized else 1) * params.ell * params.dNl
    d0 = sheaf.t * params.dNl
    dm = d0 + sheaf.m * step
    if sheaf.m == 0:
        lo, hi = line_bundle_h0_bounds(params, sheaf.t)
    else:
        lo = max(0, c)
        hi = _clipped_series_sum(d0, step, sheaf.m)
        if sheaf.dualized and sheaf.t < params.ell:
            hi = min(hi, 0)
        if max(d0, dm) < 0:
            hi = min(hi, 0)
        if not sheaf.dualized and sheaf.t >= 0:
            lo = max(lo, line_bundle_h0_bounds(params, sheaf.t)[0])
        if sheaf.dualized and sheaf.t >= sheaf.m * params.ell:
            lo = max(lo, line_bundle_h0_bounds(params, sheaf.t - sheaf.m * params.ell)[0])
    nonspecial = min(d0, dm) > 2 * params.g - 2
    if nonspecial:
        lo = max(lo, c)
        hi = min(hi, c)
    if lo > hi:
        raise RuleConflict(f"h0 rules conflict on {sheaf}: lo={lo} > hi={hi}")
    h0 = Cert(lo, hi)
    h1 = ZERO_CERT if nonspecial else _transport_h1(h0, c)
    return CohCert(sheaf, c, h0, h1)
