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
endpoints and one arithmetic series: a certificate costs O(1) in m.
The rules live in one private function on ints, _rule_bounds, which
returns (chi, h^0 lo, h^0 hi, h^1 lo, h^1 hi); certify wraps its result
in a CohCert.  surface_cert certifies each side of a `table` twist and
sums them, holding one twist at a time; h_surface (the degree query of
`theorems` and `section-ring`) reads _rule_bounds directly on the sides
surfcoh's _terms yields, sums the ints and builds one Cert.  No
certificate is kept once it is returned: no sheaf recurred on the
benchmark workloads.

In the middle degree range the true dimensions depend on the extension class
of E, which degree data cannot see, so certificates there are intervals,
always paired with the exact Euler characteristic chi = deg + rank*(1-g).
Every certificate is Exact(k) or Range(lo, hi): certify always proves a
finite upper bound (the argument is in _rule_bounds's docstring).  Rules
may only tighten; two rules producing an empty interval is an
implementation bug and raises RuleConflict.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .params import SurfaceParams, _Checked

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
]


class RuleConflict(RuntimeError):
    """Two certificate rules produced an empty interval: an internal bug."""


class _CertFields(NamedTuple):
    lo: int
    hi: int


class Cert(_Checked, _CertFields):
    """A certified interval [lo, hi] for a cohomology dimension.

    lo is a proven lower bound and hi a proven upper bound.  kind is
    derived: lo == hi is Exact, otherwise Range with lo < hi.
    """

    __slots__ = ()

    def __new__(cls, lo: int, hi: int):
        if lo < 0:
            raise ValueError(f"negative lower bound {lo}")
        if hi < lo:
            raise RuleConflict(f"empty certificate interval [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))

    @classmethod
    def exact(cls, k: int) -> "Cert":
        return cls(k, k)

    @property
    def kind(self) -> str:
        return "exact" if self.lo == self.hi else "range"

    @property
    def is_exact(self) -> bool:
        return self.hi == self.lo

    def to_json(self) -> dict:
        return {"kind": self.kind, "lo": self.lo, "hi": self.hi}

    def __str__(self) -> str:
        if self.is_exact:
            return f"Exact({self.lo})"
        return f"Range({self.lo},{self.hi})"


ZERO_CERT = Cert.exact(0)


class TwistedSym(NamedTuple):
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

    Negative degree is exact zero; above 2g-2 the bundle is nonspecial and
    h^0 = chi.  In between only the chi floor and the effectivity of the
    powers of O(D) (D > 0, so t >= 0 with ell | t has a section) give lower
    bounds, and deg+1 is the generic upper bound.  Degree 0 forces t = 0
    (dNl >= 1), which is O_C, and needs no branch of its own: g >= 2 puts
    deg 0 in 0..2g-2, and ell | 0 gives lo = 1 = deg + 1 = hi.
    """
    deg = t * params.dNl
    if deg < 0:
        return 0, 0
    c = deg + 1 - params.g
    if deg > 2 * params.g - 2:
        return c, c
    lo = c if c > 0 else 0
    if lo < 1 and t % params.ell == 0:
        lo = 1
    return lo, deg + 1


class CohCert(NamedTuple):
    """h^0 and h^1 certificates for one sheaf, paired with its exact chi."""

    sheaf: TwistedSym
    chi: int
    h0: Cert
    h1: Cert


def _clipped_series_sum(d0: int, step: int, m: int) -> int:
    """sum(max(0, d0 + j*step + 1) for j in 0..m), step != 0, in closed form.

    Only the terms with d_j >= 0 count (d_j = -1 adds 0), and they form one
    end of 0..m; reversing a falling progression makes it the upper end.
    """
    if step < 0:
        d0, step = d0 + m * step, -step
    j0 = 0 if d0 >= 0 else -(d0 // step)  # least j with d0 + j*step >= 0
    k = m + 1 - j0
    if k <= 0:
        return 0
    first, last = d0 + j0 * step, d0 + m * step
    return k * (first + last) // 2 + k


def _rule_bounds(params: SurfaceParams, dualized: bool, m: int, t: int) -> tuple[int, int, int, int, int]:
    """(chi, h^0 lo, h^0 hi, h^1 lo, h^1 hi) of S^m(E)^(v) (x) Nl^t, on ints.

    The rules of certify, in fixed priority order:
      R0 zero sheaf; R1 line-bundle exactness (m = 0); R2 sharp vanishing of
      dualized powers with t < ell; R3 unit-section lower bounds; R5
      quotient-sum upper bound; R6 chi floor.  The combiner takes the max
      of lower and the min of upper bounds; when every quotient degree
      exceeds 2g-2 the sheaf is nonspecial and hi drops to chi.  lo is
      already at least chi there (R1 gives Exact(chi) above 2g-2, R6 gives
      lo >= chi for m >= 1), so h^0 is Exact(chi) and the h^1 transport
      gives Exact(0).  There is no R4 (hi = 0 when every quotient degree
      is negative): R5 implies it, since the d_j lie between d_0 and d_m,
      so d_0 < 0 and d_m < 0 make every max(0, d_j + 1) zero.

    The quotient degrees d_j = t*dNl + j*step (step = +-ell*dNl) are never
    listed: the nonspecial test is min(d_0, d_m) > 2g-2 and R5 is one
    arithmetic series, so the work is O(1) in m.  chi is read from the same
    ends: deg is the sum of the quotient degrees, (m+1)(d_0 + d_m)/2, an
    integer because m(m+1) is even, so
    chi = (m+1)(d_0 + d_m)/2 + (m+1)(1-g).  That is Riemann-Roch,
    chi(params, sheaf), because ell | dD makes ell*dNl = dD: the series
    is (m+1)*t*dNl +- (m(m+1)/2)*dD, which is degree(params, sheaf).

    Both h^0 and h^1 always get a finite upper bound, as every Cert
    needs, so the surface sums may add the hi ends as ints:
      - R0 gives (0, 0), and R1 takes hi from line_bundle_h0_bounds,
        which returns an int on every branch;
      - for m >= 1, R5 sets hi to an int series sum, and R2 and the
        nonspecial test only ever lower it (to 0, or to min(hi, chi));
      - h^1 is the transport of h^0, whose hi is h0.hi - chi (0 when
        nonspecial).

    No Cert is returned, yet every bound returned is one a Cert accepts,
    so callers may sum them as ints and validate once:
      - lo >= 0 by construction: R0 gives 0; line_bundle_h0_bounds never
        returns a negative lo (it is 0, 1, max(chi, 0) or, above 2g-2,
        chi = deg + 1 - g > g - 1 >= 0), and it seeds R1; R6 starts from
        max(chi, 0); R3 only raises lo; and the h^1 transport clamps its
        lo at 0;
      - lo <= hi is checked for both degrees: h^0 and the h^1 transport
        each raise RuleConflict on an empty interval.  A nonspecial sheaf
        whose h^0 passes has lo = hi = chi, so its transport never does.
    A sum of such intervals is one too, so the single Cert that
    surfcoh.h_surface builds from its sums checks no less than one Cert
    per side did; certify builds the two per-sheaf Certs from these ends.
    """
    if m < 0:  # R0
        return 0, 0, 0, 0, 0
    ell, g = params.ell, params.g
    dNl = params.dD // ell
    step = -ell * dNl if dualized else ell * dNl
    d0 = t * dNl
    dm = d0 + m * step
    c = (m + 1) * (d0 + dm) // 2 + (m + 1) * (1 - g)
    if m == 0:  # R1
        lo, hi = line_bundle_h0_bounds(params, t)
    else:
        lo = c if c > 0 else 0  # R6
        hi = _clipped_series_sum(d0, step, m)  # R5, so hi >= 0
        if dualized and t < ell:  # R2
            hi = 0
        if not dualized and t >= 0:  # R3: O_C -> S^m(E)
            unit = line_bundle_h0_bounds(params, t)[0]
            if unit > lo:
                lo = unit
        if dualized and t >= m * ell:  # R3: O(-mD) -> S^m(E)^v
            unit = line_bundle_h0_bounds(params, t - m * ell)[0]
            if unit > lo:
                lo = unit
    if d0 > 2 * g - 2 and dm > 2 * g - 2 and c < hi:  # nonspecial
        hi = c
    if lo > hi:
        raise RuleConflict(f"h0 rules conflict on {TwistedSym(dualized, m, t)}: lo={lo} > hi={hi}")
    # h^1 = h^0 - chi on the nose, clamped at 0 from below.
    lo1 = lo - c if lo > c else 0
    hi1 = hi - c
    if hi1 < lo1:
        raise RuleConflict(f"h1 transport emptied the interval: h0={Cert(lo, hi)}, chi={c}")
    return c, lo, hi, lo1, hi1


# Stores nothing (0 hits in 43657 calls on the three perfbench workloads, seed
# 1: 0 sweep, as h_surface reads _rule_bounds, + 43632 tables + 25 large_p);
# cache_info() still counts calls.
@lru_cache(maxsize=0)
def certify(params: SurfaceParams, sheaf: TwistedSym) -> CohCert:
    """Tightest certificate pair derivable from the degree-level rules.

    The rules, their order and their soundness are _rule_bounds's; this
    wraps its ints in the sheaf's CohCert, two validated Certs.
    """
    c, lo, hi, lo1, hi1 = _rule_bounds(params, *sheaf)
    # hi == 0 forces lo == 0 (_rule_bounds), so ZERO_CERT stands for it.
    return CohCert(sheaf, c, Cert(lo, hi) if hi else ZERO_CERT, Cert(lo1, hi1) if hi1 else ZERO_CERT)
