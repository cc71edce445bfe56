from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raynaudsurf import (
    ClassP,
    ClassX,
    E_P,
    ETILDE,
    FIBER_P,
    FIBER_X,
    Structure,
    branch_curve_class,
    canonical_P,
    canonical_X,
    cusp_exponents,
    enumerate_families,
    fiber_genus,
    frac_str,
    h_surface,
    intersect_P,
    intersect_X,
    is_ample_KX,
    is_ample_P,
    kodaira_vanishing_KX,
    li_class,
    polarization_class,
    pullback_psi,
    selfint_Etilde,
)

from conftest import PS1, PS2, PS3, PS4

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def classes_p():
    return st.builds(ClassP, rationals, rationals)


def test_pairing_examples():
    assert intersect_P(PS1, E_P, E_P) == 3
    assert intersect_P(PS1, FIBER_P, FIBER_P) == 0
    assert intersect_P(PS1, E_P, FIBER_P) == 1
    for params in (PS1, PS2, PS3, PS4):
        assert intersect_P(params, canonical_P(params), FIBER_P) == -2


def test_canonical_P_values():
    assert canonical_P(PS1) == ClassP(-2, 9)
    assert canonical_P(PS2) == ClassP(-2, 8)


def test_canonical_P_self_intersection(sweep_small):
    # Standard ruled-surface identity, used as an oracle: K_P^2 = 8(1-g).
    for f in sweep_small:
        kp = canonical_P(f)
        assert intersect_P(f, kp, kp) == 8 * (1 - f.g)


def test_branch_curve_is_disjoint_from_section(sweep_small):
    for f in sweep_small:
        c2 = branch_curve_class(f)
        assert intersect_P(f, c2, E_P) == 0
        assert intersect_P(f, c2, FIBER_P) == f.p


def test_pullback_examples():
    assert pullback_psi(PS1, E_P) == ClassX(3, 0)
    assert pullback_psi(PS1, FIBER_P) == ClassX(0, 1)
    lifted = pullback_psi(PS1, E_P)
    assert intersect_X(PS1, lifted, lifted) == PS1.ell * PS1.dD


def test_polarization_pulls_back_from_P(sweep_acceptance):
    # The runtime entry polarization_is_etilde_plus_root compares
    # polarization_class with its own expression.  The independent route:
    # psi^*E = ell*Etilde (z^ell cuts out E) and Nl^ell = O(D), so
    # ell*Z_{a,b} = psi^*(a*E + b*dD*f).
    for f in sweep_acceptance:
        for a, b in ((1, 1), (2, 1), (1, f.ell - 1)):
            assert f.ell * polarization_class(f, a, b) == pullback_psi(f, a * E_P + b * f.dD * FIBER_P), (f, a, b)


@given(a=classes_p(), b=classes_p())
@settings(max_examples=200, deadline=None)
def test_pullback_scales_pairing_by_degree(a, b):
    for params in (PS1, PS3):
        lhs = intersect_X(params, pullback_psi(params, a), pullback_psi(params, b))
        assert lhs == params.ell * intersect_P(params, a, b)


@given(a=classes_p(), b=classes_p(), c=classes_p(), k=rationals)
@settings(max_examples=200, deadline=None)
def test_pairing_bilinear_symmetric(a, b, c, k):
    params = PS3
    assert intersect_P(params, a, b) == intersect_P(params, b, a)
    assert intersect_P(params, a + b, c) == intersect_P(params, a, c) + intersect_P(params, b, c)
    assert intersect_P(params, k * a, b) == k * intersect_P(params, a, b)
    ax, bx, cx = (pullback_psi(params, v) for v in (a, b, c))
    assert intersect_X(params, ax, bx) == intersect_X(params, bx, ax)
    assert intersect_X(params, ax + bx, cx) == intersect_X(params, ax, cx) + intersect_X(params, bx, cx)


def test_selfint_etilde():
    for params in (PS1, PS2, PS3, PS4):
        assert selfint_Etilde(params) == 1
    for f in enumerate_families(5, 16, 12):
        assert selfint_Etilde(f) == Fraction(f.dD, f.ell)
        assert selfint_Etilde(f) > 0


def test_canonical_X_values():
    for params, want in ((PS2, ClassX(0, 5)), (PS1, ClassX(0, 5)), (PS3, ClassX(4, 7))):
        kx = canonical_X(params)
        assert type(kx) is ClassX
        assert kx == want


def test_canonical_X_adjunction_along_section(sweep_small):
    # Etilde is a copy of the genus-g base curve inside the smooth locus,
    # so Etilde.(Etilde + K_X) = 2g - 2 pins both canonical_X and the pairing.
    for f in sweep_small:
        kx = canonical_X(f)
        assert intersect_X(f, ETILDE, ETILDE + kx) == 2 * f.g - 2


def test_is_ample_P_examples():
    # The branch curve C' is irreducible with C'.E = 0, so E is not ample;
    # E + f meets both edges of the curve cone, f and C', positively.
    cp = branch_curve_class(PS1)
    assert intersect_P(PS1, E_P, cp) == 0
    assert not is_ample_P(PS1, E_P)
    assert is_ample_P(PS1, E_P + FIBER_P)
    assert not is_ample_P(PS1, -E_P)
    assert not is_ample_P(PS1, FIBER_P)
    for u in range(-3, 4):
        for v in range(-3, 4):
            a = ClassP(u, v)
            edges = intersect_P(PS1, a, FIBER_P) > 0 and intersect_P(PS1, a, cp) > 0
            assert is_ample_P(PS1, a) == edges, a


def branch_edge_X(f) -> ClassX:
    """C~' = ClassX(p, -p*dNl), the reduced preimage of the branch curve: psi^*C' = ell*C~'."""
    edge = ClassX(f.p, -f.p * f.dNl)
    assert pullback_psi(f, branch_curve_class(f)) == f.ell * edge
    return edge


def positive_on_X(f, z: ClassX) -> bool:
    """Z^2 > 0 and Z positive on Etilde and on both curve-cone edges, a fiber and C~'.

    In characteristic p the fiber and Etilde do not bound the curve cone:
    C~' has C~'.Etilde = 0 and C~'^2 < 0, so it must be tested itself.
    """
    return all(intersect_X(f, z, c) > 0 for c in (z, ETILDE, FIBER_X, branch_edge_X(f)))


def test_polarization_is_ample(sweep_small):
    for f in sweep_small:
        z = polarization_class(f)
        assert z == ClassX(1, f.dNl)
        assert positive_on_X(f, z), f
        assert intersect_X(f, z, branch_edge_X(f)) == f.p * f.dNl


def test_ampleness_check_on_X_reads_the_branch_edge():
    # ClassX(3, -1) on PS1 passes the three characteristic-0 products but
    # meets the edge C~' negatively, so it is not ample.
    z, edge = ClassX(3, -1), branch_edge_X(PS1)
    assert edge == ClassX(2, -2)
    assert [intersect_X(PS1, z, c) for c in (z, ETILDE, FIBER_X)] == [3, 2, 3]
    assert intersect_X(PS1, z, edge) == -2
    assert not positive_on_X(PS1, z)


def test_is_ample_KX_examples():
    assert is_ample_KX(PS3)
    assert not is_ample_KX(PS2)
    assert not is_ample_KX(PS1)


def test_is_ample_KX_matches_closed_form():
    # The classification sweep: p <= 13, g <= 40, dD <= 40.
    fams = list(enumerate_families(13, 40, 40))
    assert fams
    for f in fams:
        ample = is_ample_KX(f)
        assert ample == ((f.p, f.ell) == (3, 4) or f.p >= 5), f
        if ample:  # the degree tests imply the Nakai-Moishezon products, C~' included
            assert positive_on_X(f, canonical_X(f)), f


def test_li_class_values():
    assert li_class(PS3, 0) == ClassP(1, 7)
    assert li_class(PS1, 0).cE == 0  # u_0 = 3*2/3 - 2 fails strict positivity
    with pytest.raises(ValueError):
        li_class(PS3, 4)


def test_kodaira_vanishing_KX():
    assert kodaira_vanishing_KX(PS3)
    assert not kodaira_vanishing_KX(PS1)
    for f in enumerate_families(7, 20, 20):
        if f.p >= 5:
            assert kodaira_vanishing_KX(f), f


def test_kodaira_vanishing_KX_matches_the_engine_on_tango_tuples():
    # The independent route: on a Tango tuple K_X = Z_{a_K,b_K} with
    # a_K = p*ell-p-ell-1 and b_K = p+ell, so the engine certifies
    # h^1(X, K_X^{-1}) itself.  Where the predicate is False the engine
    # must prove h^1 != 0; where it is True it must never do so.
    seen = Counter()
    for f in enumerate_families(13, 40, 40):
        if f.structure is not Structure.TANGO:
            continue
        a_k, b_k = f.p * f.ell - f.p - f.ell - 1, f.p + f.ell
        assert canonical_X(f) == polarization_class(f, a_k, b_k), f
        h = h_surface(f, 1, -1, a_k, b_k)
        vanishes = kodaira_vanishing_KX(f)
        assert h.certainly_nonzero != vanishes, (f, h)
        seen[vanishes, "nonzero" if h.certainly_nonzero else h.kind] += 1
    # 114 Tango tuples; where h^1 may vanish it is Exact(0) or a Range from 0.
    assert seen == {(False, "nonzero"): 52, (True, "exact"): 51, (True, "range"): 11}


def test_kodaira_vanishing_KX_agrees_with_is_ample_KX():
    # kodaira_vanishing_KX returns is_ample_KX (its docstring proves the
    # two agree), so invariants prints one predicate twice.  Pinned on the
    # classification sweep and the reference tuples, so an edit that splits
    # the two again shows here.
    fams = [*enumerate_families(13, 40, 40), PS1, PS2, PS3, PS4]
    verdicts = [kodaira_vanishing_KX(f) for f in fams]
    assert verdicts == [is_ample_KX(f) for f in fams]
    assert len(fams) == 2087 and verdicts.count(True) == 1144


def test_fiber_genus_and_cusp():
    assert fiber_genus(PS1) == 1
    assert fiber_genus(PS3) == 3
    assert cusp_exponents(PS3) == (4, 3)


def test_fiber_genus_hurwitz_oracle(sweep_small):
    # Degree-ell cover of P^1 with ramification divisor of degree (ell-1)(p+1).
    for f in sweep_small:
        two_g_minus_2 = f.ell * (-2) + (f.ell - 1) * (f.p + 1)
        assert two_g_minus_2 % 2 == 0
        assert fiber_genus(f) == two_g_minus_2 // 2 + 1
        assert fiber_genus(f) > 0
        assert cusp_exponents(f) == (f.ell, f.p)


def test_fraction_formatting():
    assert frac_str(Fraction(6, 4)) == "3/2"
    assert frac_str(Fraction(-1, -2)) == "1/2"
    assert frac_str(Fraction(5, -2)) == "-5/2"
    assert frac_str(3) == "3/1"
    assert ClassP(Fraction(1, 2), -2).to_json() == {"cE": "1/2", "cf": "-2/1"}
    assert ClassX(0, Fraction(2, 4)).to_json() == {"cEt": "0/1", "d": "1/2"}


def test_class_coefficients_are_fractions():
    # Exact either way: an int coefficient stays an int, and a rational one
    # (a Fraction, or a string) becomes a reduced Fraction.
    p, x = ClassP(1, -2), ClassX(Fraction(6, 4), 0)
    assert [type(c) for c in (p.cE, p.cf, x.cEt, x.d)] == [int, int, Fraction, int]
    assert (p.cE, p.cf, x.cEt, x.d) == (1, -2, Fraction(3, 2), 0)
    q = ClassP("1/2", Fraction(4, 2))
    assert [type(c) for c in q] == [Fraction, Fraction] and q == ClassP(Fraction(1, 2), 2)
    # Arithmetic keeps ints int and turns exact on a rational operand.
    assert [type(c) for c in p + 3 * p - ClassP(0, 1)] == [int, int]
    half = Fraction(1, 2) * p
    assert [type(c) for c in half] == [Fraction, Fraction] and half == ClassP(Fraction(1, 2), -1)


def test_every_computed_number_is_an_int():
    # ell | dD and ell | p+1 make every class and pairing the package
    # computes integral, so no tuple ever needs a Fraction.
    for f in enumerate_families(13, 40, 40):
        classes = [canonical_X(f), polarization_class(f), polarization_class(f, 3, -2)]
        classes += [li_class(f, i) for i in (0, f.ell - 1)] + [canonical_P(f), branch_curve_class(f)]
        assert all(type(c) is int for cls in classes for c in cls), f
        assert type(selfint_Etilde(f)) is int
        kx = canonical_X(f)
        assert type(intersect_X(f, kx, kx)) is int and type(intersect_P(f, li_class(f, 0), E_P)) is int


def test_scalar_multiplication_from_either_side():
    # tuple.__mul__ would repeat the fields; both sides scale the class.
    assert ClassP(1, 0) * 2 == 2 * ClassP(1, 0) == ClassP(2, 0)
    assert ClassX(1, 3) * Fraction(1, 2) == Fraction(1, 2) * ClassX(1, 3) == ClassX(Fraction(1, 2), Fraction(3, 2))
    assert len(ETILDE * 3) == 2
    # A class on P and one on X neither add nor subtract.
    with pytest.raises(TypeError):
        ClassP(1, 0) + ClassX(1, 0)
    with pytest.raises(TypeError):
        ClassX(0, 1) - ClassP(0, 1)


def test_a_class_on_P_never_equals_one_on_X():
    # Same coefficients, different surfaces: neither == nor a dict key
    # may confuse them, while equal classes on one surface still match.
    p, x = ClassP(1, 0), ClassX(1, 0)
    assert p != x and x != p
    assert not (p == x or x == p)
    assert {p: 1}.get(x) is None
    assert {x: 1}.get(ClassX(1, 0)) == 1
    assert {ClassX(1, 0), ClassX("1", 0)} == {x}
    assert x == ClassX(Fraction(1), 0) and not (x != ClassX(Fraction(1), 0))
    assert hash(p) == hash(x) == hash((1, 0))
