"""Exact intersection theory on the ruled surface P = P(E) and the cover X.

Numerical classes on P live in the span of the canonical section E and a
fiber f, with pairing E.E = dD, E.f = 1, f.f = 0.  On the degree-ell cyclic
cover X only the span of the section Etilde and of pullbacks from the base
curve is ever needed: Etilde.Etilde = dD/ell, Etilde meets a pulled-back
degree-d class in d, and two pullbacks are disjoint.  ClassP and ClassX
hold the two coefficients and share one algebra.

Every number computed here is an integer, because ell divides both dD and
p+1: Etilde^2 = dD/ell is deg Nl, K_X's pulled-back degree is
2g-2 - w*deg Nl with w = p*ell-p-ell, and the coefficients of every L_i
are integers (li_class).  So classes hold ints: SurfaceParams is the one
place input is checked, a class is its two coefficients as given, and the
package never imports fractions.

is_ample_P tests a class against the two edges of the curve cone of P, a
fiber and the branch curve C'.  is_ample_KX decides the ampleness of K_X
from canonical_X, and kodaira_vanishing_KX reports H^1(X, K_X^{-1}) = 0
exactly then.
"""

from __future__ import annotations

from typing import NamedTuple

from .params import SurfaceParams

__all__ = [
    "ClassP",
    "ClassX",
    "E_P",
    "FIBER_P",
    "ETILDE",
    "FIBER_X",
    "frac_str",
    "intersect_P",
    "intersect_X",
    "canonical_P",
    "canonical_X",
    "branch_curve_class",
    "pullback_psi",
    "selfint_Etilde",
    "is_ample_P",
    "is_ample_KX",
    "li_class",
    "kodaira_vanishing_KX",
    "fiber_genus",
    "cusp_exponents",
    "polarization_class",
]


def frac_str(x: int) -> str:
    """Reduced "num/den" with a positive denominator; an int is k/1."""
    return f"{x.numerator}/{x.denominator}"


class _Class(tuple):
    """==, +, - and scaling for ClassP and ClassX, which name the fields.

    A class on P never equals a class on X, though both hash as their
    coefficient tuple, and their sum or difference raises TypeError.
    """

    __slots__ = ()
    # Defining __eq__ would otherwise set __hash__ to None.
    __hash__ = tuple.__hash__

    # tuple's own == and != would compare a class on P equal to one on X.
    def __eq__(self, other):
        if isinstance(other, _Class) and type(other) is not type(self):
            return False
        return tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(self[0] + other[0], self[1] + other[1])

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(self[0] - other[0], self[1] - other[1])

    def __neg__(self):
        return type(self)(-self[0], -self[1])

    def __rmul__(self, k: int):
        return type(self)(k * self[0], k * self[1])

    __mul__ = __rmul__

    def to_json(self) -> dict:
        return {name: frac_str(c) for name, c in zip(self._fields, self)}


class _ClassPFields(NamedTuple):
    cE: int
    cf: int


class ClassP(_Class, _ClassPFields):
    """a*E + b*f up to numerical equivalence on the ruled surface."""

    __slots__ = ()


class _ClassXFields(NamedTuple):
    cEt: int
    d: int


class ClassX(_Class, _ClassXFields):
    """a*Etilde + (pullback of a degree-d class from the base curve)."""

    __slots__ = ()


E_P = ClassP(1, 0)
FIBER_P = ClassP(0, 1)
ETILDE = ClassX(1, 0)
FIBER_X = ClassX(0, 1)


def intersect_P(params: SurfaceParams, a: ClassP, b: ClassP) -> int:
    """Bilinear symmetric pairing with E.E = dD, E.f = 1, f.f = 0."""
    return a.cE * b.cE * params.dD + a.cE * b.cf + a.cf * b.cE


def intersect_X(params: SurfaceParams, a: ClassX, b: ClassX) -> int:
    """Pairing on the cover: Etilde^2 = dD/ell = dNl, section meets fiber degree."""
    return a.cEt * b.cEt * params.dNl + a.cEt * b.d + a.d * b.cEt


def canonical_P(params: SurfaceParams) -> ClassP:
    """K_P = -2E + (2g-2+dD) f."""
    return ClassP(-2, 2 * params.g - 2 + params.dD)


def branch_curve_class(params: SurfaceParams) -> ClassP:
    """The purely inseparable branch component, numerically p*E - p*dD*f."""
    return ClassP(params.p, -params.p * params.dD)


def pullback_psi(params: SurfaceParams, a: ClassP) -> ClassX:
    """Pull back through the degree-ell cover: E lifts to ell*Etilde."""
    return ClassX(params.ell * a.cE, a.cf)


def selfint_Etilde(params: SurfaceParams) -> int:
    """Etilde^2 = dD/ell = dNl > 0."""
    return params.dNl


def canonical_X(params: SurfaceParams) -> ClassX:
    """K_X = (p*ell-p-ell-1) Etilde + pullback of degree 2g-2 - (p*ell-p-ell)*dD/ell."""
    w = params.p * params.ell - params.p - params.ell
    return ClassX(w - 1, 2 * params.g - 2 - w * params.dNl)


def is_ample_P(params: SurfaceParams, a: ClassP) -> bool:
    """Ampleness of a = u*E + v*f: u > 0 and v > 0.

    The curve cone of P has edges f and the branch curve C'
    (branch_curve_class, p*E - p*dD*f), which is irreducible with
    C'.E = 0 and C'^2 = -p^2*dD < 0.  An irreducible curve G != C' has
    G = x*E + y*f with x = G.f >= 0 and p*y = G.C' >= 0, so
    G = (x/p)*C' + (x*dD + y)*f with both coefficients >= 0, since
    E = (C' + p*dD*f)/p.  Against the edges a.f = u and a.C' = p*v, so
    a meets every curve positively exactly when u > 0 and v > 0, and then
    a^2 = u^2*dD + 2*u*v > 0 (Nakai-Moishezon).  So E itself is not ample
    (E.C' = 0).  Hartshorne's criterion for e < 0 (V.2.21), which tests
    a.E instead of a.C', assumes characteristic 0, where no such C' exists.
    """
    return a.cE > 0 and a.cf > 0


def is_ample_KX(params: SurfaceParams) -> bool:
    """Ampleness of K_X via the degree tests on its two summands.

    canonical_X gives K_X = deg_b*Etilde + phi^*(deg_a), that is
    psi^*((deg_b/ell)*E + deg_a*f), and psi is finite, so K_X is ample
    exactly when that class is ample on P: deg_b > 0 and deg_a > 0
    (is_ample_P's cone argument).  On X the two edges are a fiber and
    C~' = ClassX(p, -p*dNl), the reduced preimage of the branch curve
    (psi^*C' = ell*C~'): K_X.fiber = deg_b and K_X.C~' = p*deg_a.
    This reproduces the closed classification "(p, ell) = (3, 4) or
    p >= 5" on every valid tuple.
    """
    kx = canonical_X(params)
    return kx.cEt > 0 and kx.d > 0


def li_class(params: SurfaceParams, i: int) -> ClassP:
    """The i-th twist L_i of K_P; in characteristic 0, all L_i ample gives H^1(X, K_X^{-1}) = 0.

    u_i = (p+1)(ell-1+i)/ell - 2 and
    v_i = 2g-2 - (p*ell-p-ell+p*i)/ell * dD, read as integers through
    (p+1)/ell = params.mstep and dD/ell = params.dNl:
    u_i = mstep*(ell-1+i) - 2 and v_i = 2g-2 - (p*(ell-1+i) - ell)*dNl.
    """
    if not 0 <= i <= params.ell - 1:
        raise ValueError(f"i must lie in 0..ell-1, got {i}")
    k = params.ell - 1 + i
    return ClassP(params.mstep * k - 2, 2 * params.g - 2 - (params.p * k - params.ell) * params.dNl)


def kodaira_vanishing_KX(params: SurfaceParams) -> bool:
    """H^1(X, K_X^{-1}) = 0, decided as the ampleness of K_X (is_ample_KX).

    In characteristic p the ampleness of a class does not give the
    vanishing of H^1 of its inverse (that failure is the paper's subject),
    so this is not read off the classes L_i (li_class).  The tests check it
    against the engine instead: on a Tango tuple K_X = Z_{a_K,b_K} with
    a_K = p*ell-p-ell-1 and b_K = p+ell, so h^1(X, K_X^{-1}) is
    h_surface(params, 1, -1, a_K, b_K).  On the 114 Tango tuples of
    enumerate_families(13, 40, 40) the engine certifies it nonzero wherever
    this is False and never where it is True.
    """
    return is_ample_KX(params)


def fiber_genus(params: SurfaceParams) -> int:
    """Geometric genus (ell-1)(p-1)/2 of every fiber of X over the base curve."""
    num = (params.ell - 1) * (params.p - 1)
    assert num % 2 == 0
    return num // 2


def cusp_exponents(params: SurfaceParams) -> tuple[int, int]:
    """Each fiber has one cusp of local form Z^ell = W^p."""
    return (params.ell, params.p)


def polarization_class(params: SurfaceParams, a: int = 1, b: int = 1) -> ClassX:
    """Numerical class of Z_{a,b} = O_X(a*Etilde) (x) phi^* Nl^b; Z = Z_{1,1}."""
    return ClassX(a, b * params.dNl)
