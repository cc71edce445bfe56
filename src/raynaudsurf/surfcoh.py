"""Surface cohomology via the pushforward ladder X -> P -> C.

The degree-ell cover trades powers of the polarization for a direct sum of
O_P(1)-twists: with M = O_P(-(p+1)/ell) (x) pi^* Nl^p,

  psi_* O_X(m*Etilde)  = (+)_{i=0..ell-1} M^i([(m+i)/ell] E)   (m >= 0),
  psi_* O_X(-k*Etilde) = O_P(-kE) (+) (+)_{i=1..ell-1} M^i     (k > 0).

The m >= 0 row is the cyclic-cover eigensheaf formula: a local section
f*z^i of the i-th eigensheaf (z^ell cutting out E, so psi^*E = ell*Etilde)
has a pole of order at most m along Etilde iff ell*v_E(f) + i >= -m, i.e.
f has a pole of order at most [(m+i)/ell] along E.  The m < 0 row does not
follow it yet and stays until the negative-twist checks built on it are
reconciled: it agrees with the eigensheaf formula only at m = -1, and the
projection formula psi_* O_X(-ell*Etilde) = O_P(-E) (x) psi_* O_X shows the
O_P(-E) factor it drops.

Tensoring Z^n = O_X(n*Etilde) (x) phi^* Nl^n just shifts every Nl
exponent by n.  Each resulting term O_P(mtw) (x) pi^* Nl^t reduces to the
base curve through pi_* O_P(m) = S^m(E) (zero for m < 0) and
R^1 pi_* O_P(m) = S^(-m-2)(E)^v (x) O(-D) for m <= -2 (zero for m >= -1),
so every H^i(X, Z^n) is a direct sum of curve-level certificates and every
Euler characteristic is an exact alternating sum over the same terms.

The engine (decompose_twist + reduce_term + certify, summed in
surface_cert) is the only copy of the direct-image table and of the
reduction rule.  The one closed form left, h1neg_closed_form, writes out
the n < 0 sum for h^1 on its own; acceptance criterion 07 compares it with
the engine.  The independent checks of the engine live in the tests:
Riemann-Roch from numclass and Serre duality on the smooth (Tango) tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .curvecoh import (
    Cert,
    CohCert,
    TwistedSym,
    cert_sum,
    certify,
    h0_cert,
    line_bundle_h0_lower,
)
from .numclass import ClassX, polarization_class
from .params import SurfaceParams

__all__ = [
    "PTerm",
    "TermReduction",
    "SurfCert",
    "TheoremContradicted",
    "ThmEntry",
    "ThmReport",
    "decompose",
    "decompose_twist",
    "reduce_term",
    "surface_cert",
    "h_surface",
    "chi_X",
    "h1neg_closed_form",
    "result1_range",
    "h1_nonvanishing_window",
    "zab_nonvanishing",
    "theorem_predicates",
]


@dataclass(frozen=True)
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
    """Terms of psi_*(O_X(m*Etilde)) (x) pi^* Nl^tw."""
    ell, p = params.ell, params.p
    if m >= 0:
        return tuple(PTerm((m + i) // ell - _mstep(params, i), i * p + tw) for i in range(ell))
    return (PTerm(m, tw),) + tuple(PTerm(-_mstep(params, i), i * p + tw) for i in range(1, ell))


def decompose(params: SurfaceParams, n: int) -> tuple[PTerm, ...]:
    """Terms of psi_*(Z^n) with Z = O_X(Etilde) (x) phi^* Nl."""
    return decompose_twist(params, n, n)


def reduce_term(params: SurfaceParams, term: PTerm, i: int) -> TwistedSym | None:
    """Curve-level sheaf carrying H^i(P, term), or None when it vanishes.

    For mtw >= 0 the answer lives in curve degree i (so i = 2 is zero);
    for mtw <= -2 it lives in curve degree i-1 through R^1 pi_*; mtw = -1
    kills both direct images.
    """
    if i not in (0, 1, 2):
        raise ValueError(f"i must be 0, 1 or 2, got {i}")
    if term.mtw >= 0:
        if i == 2:
            return None
        return TwistedSym(False, term.mtw, term.t)
    if term.mtw == -1 or i == 0:
        return None
    return TwistedSym(True, -term.mtw - 2, term.t - params.ell)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SurfCert:
    """Certificates for h^0, h^1, h^2 of one power of the polarization."""

    h0: Cert
    h1: Cert
    h2: Cert
    chi: int
    terms: tuple[TermReduction, ...]

    def h(self, i: int) -> Cert:
        if i == 0:
            return self.h0
        if i == 1:
            return self.h1
        if i == 2:
            return self.h2
        raise ValueError(f"i must be 0, 1 or 2, got {i}")


@lru_cache(maxsize=None)
def surface_cert(params: SurfaceParams, n: int, a: int = 1, b: int = 1) -> SurfCert:
    """Aggregate certificates for H^*(X, Z_{a,b}^n); Z = Z_{1,1}.

    Direct sums add interval-wise: h^0 collects the pi_* sides, h^2 the
    R^1 pi_* sides, h^1 both, and chi is the signed sum of the per-term
    Euler characteristics.
    """
    recs: list[TermReduction] = []
    for term in decompose_twist(params, a * n, b * n):
        pi, r1pi = reduce_term(params, term, 0), reduce_term(params, term, 2)
        push = None if pi is None else certify(params, pi)
        derived = None if r1pi is None else certify(params, r1pi)
        tchi = (push.chi if push else 0) - (derived.chi if derived else 0)
        recs.append(TermReduction(term, push, derived, tchi))
    h0 = cert_sum(r.pushforward.h0 for r in recs if r.pushforward)
    h1 = cert_sum(
        [r.pushforward.h1 for r in recs if r.pushforward]
        + [r.derived.h0 for r in recs if r.derived]
    )
    h2 = cert_sum(r.derived.h1 for r in recs if r.derived)
    return SurfCert(h0, h1, h2, sum(r.chi for r in recs), tuple(recs))


def h_surface(params: SurfaceParams, i: int, n: int, a: int = 1, b: int = 1) -> Cert:
    """Certificate for h^i(X, Z_{a,b}^n)."""
    return surface_cert(params, n, a, b).h(i)


def chi_X(params: SurfaceParams, n: int, a: int = 1, b: int = 1) -> int:
    """Exact Euler characteristic of Z_{a,b}^n, term-wise over the decomposition."""
    return surface_cert(params, n, a, b).chi


def h1neg_closed_form(params: SurfaceParams, n: int) -> Cert:
    """h^1(X, Z^n) for n < 0 as the direct sum over the R^1-side twists:

        (+)_{i=1..ell-1} H^0(C, S^(i(p+1)/ell - 2)(E)^v (x) Nl^(i*p - ell + n)).
    """
    if n >= 0:
        raise ValueError("closed form only covers n < 0")
    parts = [
        h0_cert(
            params,
            TwistedSym(True, _mstep(params, i) - 2, i * params.p - params.ell + n),
        )
        for i in range(1, params.ell)
    ]
    return cert_sum(parts)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def h1_nonvanishing_window(params: SurfaceParams) -> int:
    """-(ell - ceil(2*ell/(p+1))): H^1(X, Z^n) != 0 for this bound <= n <= -1."""
    return -(params.ell - _ceil_div(2 * params.ell, params.p + 1))


def result1_range(params: SurfaceParams) -> list[int]:
    """The certified non-vanishing degrees, from the window bound up to -1."""
    return list(range(h1_nonvanishing_window(params), 0))


def zab_nonvanishing(params: SurfaceParams, a: int, b: int) -> Cert:
    """Certificate for h^1(X, Z_{a,b}^{-1}).

    The constants embed through the i = ell-b summand of R^1 phi_* whenever
    the symmetric power there is nonzero, i.e. (ell-b)(p+1) >= 2*ell; that
    gives the constructive LowerBound(1), independent of a.  When the
    witness summand is the zero sheaf (b = ell-1 with ell = p+1) no
    inclusion exists and the engine certificate is returned instead; the
    engine in fact certifies Exact(0) there.
    """
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    if not 1 <= b <= params.ell - 1:
        raise ValueError(f"b must lie in 1..ell-1, got {b}")
    if (params.ell - b) * (params.p + 1) >= 2 * params.ell:
        return Cert.at_least(line_bundle_h0_lower(params, 0))
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
