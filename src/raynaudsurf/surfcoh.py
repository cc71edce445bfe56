"""Surface cohomology via the pushforward ladder X -> P -> C.

The degree-ell cover trades powers of the polarization for a direct sum of
O_P(1)-twists: with M = O_P(-(p+1)/ell) (x) pi^* Nl^p, for every m in Z

  psi_* O_X(m*Etilde) = (+)_{i=0..ell-1} M^i([(m+i)/ell] E).

This is the cyclic-cover eigensheaf formula (Esnault-Viehweg, Lectures on
Vanishing Theorems, Sec. 3): a local section f*z^i of the i-th eigensheaf
(z^ell cutting out E, so psi^*E = ell*Etilde) has a pole of order at most m
along Etilde iff ell*v_E(f) + i >= -m, i.e. f has a pole of order at most
[(m+i)/ell] along E.  The argument never uses the sign of m; at m = -ell it
is the projection formula psi_* O_X(-ell*Etilde) = O_P(-E) (x) psi_* O_X.

Tensoring Z^n = O_X(n*Etilde) (x) phi^* Nl^n just shifts every Nl
exponent by n.  Each resulting term O_P(mtw) (x) pi^* Nl^t reduces to the
base curve through pi_* O_P(m) = S^m(E) (zero for m < 0) and
R^1 pi_* O_P(m) = S^(-m-2)(E)^v (x) O(-D) for m <= -2 (zero for m >= -1),
so every H^i(X, Z^n) is a direct sum of curve-level certificates and every
Euler characteristic is an exact alternating sum over the same terms.

The engine (decompose_twist + reduce_term + certify, summed by the Leray
rule LERAY in surface_cert, or for one degree in h_surface) is the only
copy of the direct-image table and of the reduction rule.  The one closed
form left, h1neg_closed_form, writes out the n < 0 sum for h^1 on its own;
acceptance criterion 07 compares it with the engine.  The independent checks of the engine live in the tests:
Riemann-Roch from numclass and Serre duality on the smooth (Tango) tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .curvecoh import ZERO_CERT, Cert, CohCert, TwistedSym, cert_sum, certify, line_bundle_h0_bounds
from .numclass import ClassX, polarization_class
from .params import SurfaceParams

__all__ = [
    "PTerm",
    "TermReduction",
    "SurfCert",
    "TheoremContradicted",
    "ThmEntry",
    "ThmReport",
    "decompose_twist",
    "reduce_term",
    "surface_cert",
    "h_surface",
    "h1neg_closed_form",
    "result1_range",
    "h1_nonvanishing_window",
    "zab_nonvanishing",
    "theorem_predicates",
]

# |n| cap on every CLI twist window.  One window, 2*NMAX + 1 = 201 twists,
# is also surface_cert's cache size: neither `table` nor `section-ring`
# reuses a twist from further back (the argument is in surface_cert's
# docstring).
NMAX = 100


# Leray for pi: P -> C, whose fibres are curves:
#   H^i(P, F) = H^i(C, pi_* F) (+) H^(i-1)(C, R^1 pi_* F).
# LERAY[i] lists the (side, curve degree) pairs that feed H^i, side 0 being
# a term's pi_* side and side 1 its R^1 pi_* side: h^0 reads only pi_*
# sides, h^2 only R^1 pi_* sides, h^1 both.
LERAY = (((0, 0),), ((0, 1), (1, 0)), ((1, 1),))


def _curve_h(cert: CohCert, j: int) -> Cert:
    return cert.h1 if j else cert.h0


def _check_degree(i: int) -> None:
    if i not in (0, 1, 2):
        raise ValueError(f"i must be 0, 1 or 2, got {i}")


@dataclass(frozen=True, slots=True)
class PTerm:
    """O_P(mtw) (x) pi^* Nl^t; mtw is integral because ell | i(p+1)."""

    mtw: int
    t: int


def _mstep(params: SurfaceParams, i: int) -> int:
    """i(p+1)/ell, the O_P(1)-exponent drop of M^i."""
    q, rem = divmod(i * (params.p + 1), params.ell)
    if rem:
        raise AssertionError(f"ell = {params.ell} must divide i(p+1) = {i * (params.p + 1)}")
    return q


def decompose_twist(params: SurfaceParams, m: int, tw: int) -> tuple[PTerm, ...]:
    """Terms of psi_*(O_X(m*Etilde)) (x) pi^* Nl^tw; Z^n is m = tw = n."""
    ell, p = params.ell, params.p
    return tuple(PTerm((m + i) // ell - _mstep(params, i), i * p + tw) for i in range(ell))


def reduce_term(params: SurfaceParams, term: PTerm) -> tuple[TwistedSym | None, TwistedSym | None]:
    """Curve-level sheaves (pi_* side, R^1 pi_* side) of term, None where zero.

    LERAY says which side feeds which H^i(P, term).  Only mtw >= 0 has a
    pi_* side and only mtw <= -2 an R^1 pi_* side; mtw = -1 kills both
    direct images.
    """
    if term.mtw >= 0:
        return TwistedSym(False, term.mtw, term.t), None
    if term.mtw == -1:
        return None, None
    return None, TwistedSym(True, -term.mtw - 2, term.t - params.ell)


@dataclass(frozen=True, slots=True)
class TermReduction:
    """One pushforward term with its curve certificates and chi contribution."""

    term: PTerm
    pushforward: CohCert | None  # pi_* side, present when mtw >= 0
    derived: CohCert | None      # R^1 pi_* side, present when mtw <= -2
    chi: int                     # chi(pi_* part) - chi(R^1 pi_* part)

    def to_json(self) -> dict:
        return {
            "mtw": self.term.mtw,
            "t": self.term.t,
            "pi": None if self.pushforward is None else self.pushforward.to_json(),
            "r1pi": None if self.derived is None else self.derived.to_json(),
            "chi": self.chi,
        }


@dataclass(frozen=True, slots=True)
class SurfCert:
    """Certificates for h^0, h^1, h^2 of one power of the polarization."""

    h0: Cert
    h1: Cert
    h2: Cert
    chi: int
    terms: tuple[TermReduction, ...]

    def h(self, i: int) -> Cert:
        _check_degree(i)
        return (self.h0, self.h1, self.h2)[i]


@lru_cache(maxsize=2 * NMAX + 1)
def surface_cert(params: SurfaceParams, n: int, a: int = 1, b: int = 1) -> SurfCert:
    """All certificates for H^*(X, Z_{a,b}^n), with every term; Z = Z_{1,1}.

    Every side of every term is certified.  Direct sums add interval-wise,
    each h^i over the sides LERAY feeds into it, and chi is the signed sum
    of the per-term Euler characteristics.  A query for one degree should
    use h_surface, which certifies only the sides that degree reads.

    The cache serves the window commands, `table` and `section-ring`.  It
    keeps the last 2*NMAX + 1 = 201 twists, one CLI window, and neither
    command asks for a twist again after more than 2*NMAX others: `table`
    loops over i outside n and `section-ring` over j outside n, so a twist
    recurs after the other 2*NMAX.  So the bound drops no hit.
    """
    recs: list[TermReduction] = []
    for term in decompose_twist(params, a * n, b * n):
        pi, r1pi = reduce_term(params, term)
        push = None if pi is None else certify(params, pi)
        derived = None if r1pi is None else certify(params, r1pi)
        tchi = (push.chi if push else 0) - (derived.chi if derived else 0)
        recs.append(TermReduction(term, push, derived, tchi))
    certs = [(r.pushforward, r.derived) for r in recs]
    h0, h1, h2 = (
        cert_sum(_curve_h(sides[k], j) for sides in certs for k, j in LERAY[i] if sides[k] is not None)
        for i in range(3)
    )
    return SurfCert(h0, h1, h2, sum(r.chi for r in recs), tuple(recs))


def h_surface(params: SurfaceParams, i: int, n: int, a: int = 1, b: int = 1) -> Cert:
    """Certificate for h^i(X, Z_{a,b}^n), computing degree i alone.

    By Leray (LERAY), h^i(X, Z_{a,b}^n) is the interval sum over the terms
    of decompose_twist(a*n, b*n) of h^i(C, pi_* side) for i <= 1 and
    h^(i-1)(C, R^1 pi_* side) for i >= 1.  Only those sides are certified,
    so h^0 at n < 0 and h^2 once every mtw >= -1 certify nothing.  Nothing
    is cached; the result equals surface_cert(params, n, a, b).h(i).
    """
    _check_degree(i)
    total = ZERO_CERT
    for term in decompose_twist(params, a * n, b * n):
        sides = reduce_term(params, term)
        for k, j in LERAY[i]:
            if sides[k] is not None:
                total = total + _curve_h(certify(params, sides[k]), j)
    return total


def h1neg_closed_form(params: SurfaceParams, n: int) -> Cert:
    """h^1(X, Z^n) for n < 0 as the direct sum over the R^1-side twists.

    Summand i of Z^n has mtw = [(n+i)/ell] - i(p+1)/ell and t = i*p + n.
    For n < 0 and 0 <= i <= ell-1 the floor is at most 0, it is at most -1
    at i = 0, and i(p+1)/ell > 0 for i >= 1, so every mtw is negative: no
    summand has a pi_* part, and h^1 is the H^0 of the R^1 pi_* sides alone,

        (+)_{i=0..ell-1} H^0(C, S^(i(p+1)/ell - [(n+i)/ell] - 2)(E)^v (x) Nl^(i*p + n - ell)),

    where a summand with mtw = -1 is the zero sheaf.
    """
    if n >= 0:
        raise ValueError("closed form only covers n < 0")
    ell, p = params.ell, params.p
    parts = [
        certify(params, TwistedSym(True, _mstep(params, i) - (n + i) // ell - 2, i * p + n - ell)).h0
        for i in range(ell)
    ]
    return cert_sum(parts)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def h1_nonvanishing_window(params: SurfaceParams) -> int:
    """-min([ell/2], ell - ceil(2*ell/(p+1))): H^1(X, Z^n) != 0 for this bound <= n <= -1.

    The witness is the unit section of summand i = n + ell.  For
    -ell <= n <= -1 summand i lies in row [(n+i)/ell] = 0 exactly when
    i >= -n, so i = n + ell is in row 0 iff n >= -ell/2.  Its R^1 pi_* side
    is S^k(E)^v (x) Nl^(i*p + n - ell) with k = i(p+1)/ell - 2, and when
    k >= 0, i.e. i >= 2*ell/(p+1), the dual of S^k(E) ->> O(kD) embeds
    O(-kD) = Nl^(-k*ell) in it.  The twisted line bundle is then
    Nl^(i*p + n - ell - i(p+1) + 2*ell) = Nl^(n + ell - i) = O_C, whose
    constant section is a nonzero class in H^0(C, R^1 pi_*) within H^1(X, Z^n).
    For p <= 3 and for ell = 2 the two terms of the min are equal.
    """
    ell = params.ell
    return -min(ell // 2, ell - _ceil_div(2 * ell, params.p + 1))


def result1_range(params: SurfaceParams) -> list[int]:
    """The certified non-vanishing degrees, from the window bound up to -1."""
    return list(range(h1_nonvanishing_window(params), 0))


def zab_nonvanishing(params: SurfaceParams, a: int, b: int) -> Cert:
    """Certificate for h^1(X, Z_{a,b}^{-1}).

    Z_{a,b}^{-1} pushes down to decompose_twist(-a, -b): summand i has
    mtw = [(i-a)/ell] - i(p+1)/ell and t = i*p - b.  The witness summand is
    i = ell-b, in row [(ell-b-a)/ell], which is 0 when a <= ell-b and -1 or
    lower once a > ell-b.  In row 0 its R^1 pi_* side is S^k(E)^v (x)
    Nl^((ell-b)p - b - ell) with k = (ell-b)(p+1)/ell - 2, and for k >= 0,
    i.e. (ell-b)(p+1) >= 2*ell, O(-kD) = Nl^(-k*ell) embeds in S^k(E)^v, and
    the twist becomes Nl^((ell-b)p - b - ell - k*ell) = Nl^0 = O_C, whose
    constant section gives the constructive LowerBound(1).
    Otherwise (a lower row, or the witness symmetric power is the zero
    sheaf, as at b = ell-1 with ell = p+1) the engine certificate is
    returned.
    """
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    if not 1 <= b <= params.ell - 1:
        raise ValueError(f"b must lie in 1..ell-1, got {b}")
    if a <= params.ell - b and (params.ell - b) * (params.p + 1) >= 2 * params.ell:
        return Cert.at_least(line_bundle_h0_bounds(params, 0)[0])
    return h_surface(params, 1, -1, a, b)


class TheoremContradicted(RuntimeError):
    """The engine certified the opposite of a closed-form claim."""


@dataclass(frozen=True)
class ThmEntry:
    theorem: str
    n: int | None
    claim: str  # "vanishing" | "nonvanishing" | "identity"
    cert: Cert | None
    verdict: str  # "confirmed" | "stronger"

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "n": self.n,
            "claim": self.claim,
            "h": None if self.cert is None else self.cert.to_json(),
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class ThmReport:
    params: SurfaceParams
    entries: tuple[ThmEntry, ...]

    @property
    def stronger(self) -> tuple[ThmEntry, ...]:
        return tuple(e for e in self.entries if e.verdict == "stronger")

    def to_json(self) -> dict:
        return {
            "params": self.params.to_json(),
            "checks": len(self.entries),
            "confirmed": sum(e.verdict == "confirmed" for e in self.entries),
            "stronger": [e.to_json() for e in self.stronger],
        }


def _entry(theorem: str, n: int | None, claim: str, cert: Cert) -> ThmEntry:
    if claim == "vanishing":
        if cert.certainly_nonzero:
            raise TheoremContradicted(f"{theorem} claims 0 at n={n} but engine has {cert}")
        verdict = "confirmed" if cert.is_zero else "stronger"
    elif claim == "nonvanishing":
        if cert.is_zero:
            raise TheoremContradicted(f"{theorem} claims nonzero at n={n} but engine has {cert}")
        verdict = "confirmed" if cert.certainly_nonzero else "stronger"
    else:
        verdict = "confirmed"
    return ThmEntry(theorem, n, claim, cert, verdict)


def theorem_predicates(params: SurfaceParams, nneg_min: int = -40) -> ThmReport:
    """Check every closed-form (non-)vanishing statement against the engine.

    Raises TheoremContradicted on an opposite certification; entries where
    the engine only returns a Range are recorded with verdict "stronger".
    """
    p, ell = params.p, params.ell
    entries: list[ThmEntry] = []

    # h^2 vanishes from p(p+1) on; checked on a finite window.
    for n in range(p * (p + 1), p * (p + 1) + 3 * ell + 1):
        entries.append(_entry("h2_vanishes_high", n, "vanishing", h_surface(params, 2, n)))

    # h^1 is nonzero on the window just below 0.
    for n in result1_range(params):
        entries.append(_entry("h1_nonzero_near_zero", n, "nonvanishing", h_surface(params, 1, n)))

    # For p = 2, 3 the window is sharp: h^1 vanishes below it.
    if p in (2, 3):
        for n in range(nneg_min, h1_nonvanishing_window(params)):
            entries.append(_entry("h1_zero_below_window", n, "vanishing", h_surface(params, 1, n)))

    # Ampleness sanity: no sections in negative degrees.
    for n in range(nneg_min, 0):
        entries.append(_entry("h0_zero_negative", n, "vanishing", h_surface(params, 0, n)))

    # The polarization is numerically Etilde plus the pullback of deg D / ell.
    want = ClassX(1, params.dNl)
    if polarization_class(params) != want:
        raise TheoremContradicted(f"polarization class {polarization_class(params)} != {want}")
    entries.append(ThmEntry("polarization_is_etilde_plus_root", None, "identity", None, "confirmed"))

    return ThmReport(params, tuple(entries))
