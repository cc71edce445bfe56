from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raynaudsurf import (
    ZERO_CERT,
    Cert,
    CohCert,
    RuleConflict,
    Structure,
    TwistedSym,
    certify,
    chi,
    degree,
    h_surface,
    line_bundle_h0_bounds,
    rank,
    surface_cert,
)
from raynaudsurf.curvecoh import _clipped_series_sum
from raynaudsurf.surfcoh import _terms

from conftest import PS1, PS2, PS3, PS4, oracle_decompose

O_C = TwistedSym(True, 0, 0)


def quotient_degrees(params, s):
    # Reference listing of the filtration: quotient j is Nl^(t +- j*ell).
    if s.is_zero:
        return ()
    sign = -1 if s.dualized else 1
    return tuple((s.t + sign * j * params.ell) * params.dNl for j in range(s.m + 1))


def sheaves():
    return st.builds(
        TwistedSym,
        st.booleans(),
        st.integers(min_value=-3, max_value=9),
        st.integers(min_value=-40, max_value=40),
    )


# ---------------------------------------------------------------- certificates


def test_cert_shapes():
    assert Cert.exact(0).kind == "exact" and Cert.exact(0).is_zero
    assert Cert(2, 5).kind == "range" and Cert(2, 5).certainly_nonzero
    assert Cert(1, 4).kind == "range"
    assert Cert(3, 3) == Cert.exact(3)
    with pytest.raises(ValueError):
        Cert(-1, 0)
    # Every certificate is a finite interval: no upper end is no certificate.
    for lo in (0, 1):
        with pytest.raises(TypeError):
            Cert(lo, None)
    with pytest.raises(RuleConflict):
        Cert(3, 1)  # empty intervals only arise from buggy rules


def test_cert_addition():
    assert Cert.exact(2) + Cert.exact(3) == Cert.exact(5)
    assert Cert(0, 2) + Cert.exact(1) == Cert(1, 3)
    assert Cert(1, 1) + Cert(0, 5) == Cert(1, 6)
    assert sum([], ZERO_CERT) == Cert.exact(0)
    # A direct sum is the Cert.__add__ chain from ZERO_CERT: both ends add.
    parts = [Cert(0, 2), Cert(1, 4), Cert.exact(3)]
    assert sum(parts, ZERO_CERT) == parts[0] + parts[1] + parts[2] == Cert(4, 9)
    assert sum(iter([Cert(1, 2), Cert(0, 5)]), ZERO_CERT) == Cert(1, 7)


def test_cert_json():
    assert Cert(1, 4).to_json() == {"kind": "range", "lo": 1, "hi": 4}
    assert Cert.exact(2).to_json() == {"kind": "exact", "lo": 2, "hi": 2}
    cc = certify(PS1, O_C)
    assert (cc.h1.kind, cc.h1.lo, cc.h1.hi, cc.chi) == ("exact", 4, 4, -3)


# ------------------------------------------------------------------ sheaf data


def test_rank_degree_and_zero_sheaf():
    s = TwistedSym(False, 1, 0)
    assert rank(s) == 2 and degree(PS1, s) == 3
    z = TwistedSym(True, -1, 5)
    assert z.is_zero and rank(z) == 0 and chi(PS1, z) == 0
    assert certify(PS1, z).h0 == Cert.exact(0)
    assert certify(PS1, z).h1 == Cert.exact(0)


def test_degree_equals_sum_of_quotient_degrees(sweep_small):
    # The filtration refines the determinant: deg = sum of quotient degrees.
    for f in sweep_small[:20]:
        for dual in (False, True):
            for m in range(0, 7):
                for t in (-9, -1, 0, 1, 4, 13):
                    s = TwistedSym(dual, m, t)
                    assert degree(f, s) == sum(quotient_degrees(f, s))
                    assert len(quotient_degrees(f, s)) == rank(s)


def test_chi_examples():
    assert chi(PS1, TwistedSym(False, 0, 0)) == 1 - 4
    assert chi(PS1, TwistedSym(False, 1, 0)) == 3 + 2 * (1 - 4)
    assert chi(PS1, O_C) == -3


# -------------------------------------------------------------------- h0 rules


def test_h0_structure_sheaf():
    assert certify(PS1, O_C).h0 == Cert.exact(1)
    assert certify(PS1, TwistedSym(False, 0, 0)).h0 == Cert.exact(1)


def test_h0_sharp_vanishing_dual_small_twist():
    assert certify(PS1, TwistedSym(True, 1, 2)).h0 == Cert.exact(0)  # t = 2 < ell = 3
    assert certify(PS3, TwistedSym(True, 2, 3)).h0 == Cert.exact(0)  # t = 3 < ell = 4


def test_h0_unit_section_at_t_equals_m_ell():
    s = TwistedSym(True, 2, 6)  # t = m*ell for PS1
    c = certify(PS1, s).h0
    assert c.lo == 1
    # Independent upper-bound oracle: sum over quotients of max(0, deg+1).
    upper = sum(max(0, d + 1) for d in quotient_degrees(PS1, s))
    assert upper == 12
    assert c == Cert(1, 12)


def test_h0_negative_line_bundle_and_nonspecial_range():
    assert certify(PS1, TwistedSym(False, 0, -2)).h0 == Cert.exact(0)
    # deg 7 > 2g-2 = 6: exact chi and h1 = 0.
    cc = certify(PS1, TwistedSym(False, 0, 7))
    assert cc.h0 == Cert.exact(7 + 1 - 4)
    assert cc.h1 == Cert.exact(0)


def test_h0_middle_range_is_interval():
    c = certify(PS1, TwistedSym(False, 0, 2)).h0  # deg 2, genus 4
    assert c == Cert(0, 3)


def test_h0_effectivity_of_full_powers():
    # t = ell is O(D) with D > 0, so a section certainly exists.
    assert certify(PS1, TwistedSym(False, 0, PS1.ell)).h0.lo == 1
    assert line_bundle_h0_bounds(PS1, PS1.ell) == (1, 4)
    assert line_bundle_h0_bounds(PS1, 1) == (0, 2)
    assert line_bundle_h0_bounds(PS1, 0) == (1, 1)
    assert line_bundle_h0_bounds(PS1, -3) == (0, 0)
    assert line_bundle_h0_bounds(PS1, 7) == (4, 4)


# -------------------------------------------------------------------- h1 rules


def test_h1_high_degree_vanishes():
    assert certify(PS1, TwistedSym(False, 0, 7)).h1 == Cert.exact(0)


def test_h1_structure_sheaf_is_genus():
    assert certify(PS1, O_C).h1 == Cert.exact(4)
    assert certify(PS3, O_C).h1 == Cert.exact(7)


def test_h1_from_chi_when_h0_exact():
    s = TwistedSym(True, 1, 2)
    cc = certify(PS1, s)
    assert cc.h0 == Cert.exact(0)
    assert cc.chi == chi(PS1, s) == -5
    assert cc.h1 == Cert.exact(5)


# ------------------------------------------------------------------- invariants


def _grid(params):
    for dual in (False, True):
        for m in range(0, 11):
            for t in range(-50, 51):
                yield TwistedSym(dual, m, t)


@pytest.mark.parametrize("params", [PS1, PS2, PS3, PS4])
def test_rules_never_conflict_and_bounds_are_consistent(params):
    g2 = 2 * params.g - 2
    for s in _grid(params):
        cc = certify(params, s)  # must not raise RuleConflict
        assert 0 <= cc.h0.lo <= cc.h0.hi
        assert 0 <= cc.h1.lo <= cc.h1.hi
        # chi consistency: the rectangle [lo0-hi1, hi0-lo1] must contain chi.
        assert cc.h0.lo - cc.h1.hi <= cc.chi <= cc.h0.hi - cc.h1.lo
        if cc.h0.is_exact and cc.h1.is_exact:
            assert cc.h0.lo - cc.h1.lo == cc.chi


@pytest.mark.parametrize("params", [PS1, PS2, PS3, PS4])
def test_sharp_vanishing_and_unit_section_are_disjoint(params):
    for s in _grid(params):
        if s.m < 1:
            continue
        r2 = s.dualized and s.t < params.ell
        r3_dual = s.dualized and s.t >= s.m * params.ell
        assert not (r2 and r3_dual)
        if r2:
            assert certify(params, s).h0 == Cert.exact(0)


@pytest.mark.parametrize("params", [PS1, PS2, PS3, PS4])
def test_h0_lower_bound_monotone_under_full_twist(params):
    # Tensoring with Nl^ell = O(D) never loses certified sections.
    for s in _grid(params):
        up = TwistedSym(s.dualized, s.m, s.t + params.ell)
        assert certify(params, up).h0.lo >= certify(params, s).h0.lo, s


def test_upper_bound_dominates_lower_sources(sweep_small):
    for f in sweep_small[:12]:
        for s in _grid(f):
            cc = certify(f, s)
            assert cc.h0.hi >= max(0, cc.chi)
            assert cc.h0.hi >= cc.h0.lo


@given(s=sheaves())
@settings(max_examples=400, deadline=None)
def test_certificates_well_formed_random(s):
    for params in (PS1, PS3, PS4):
        cc = certify(params, s)
        assert cc.chi == chi(params, s)
        assert cc.h0.hi is not None and cc.h1.hi is not None
        if s.is_zero:
            assert cc.h0 == Cert.exact(0) and cc.h1 == Cert.exact(0)


# --------------------------------------------- closed form vs the filtration


def _enumerated_certify(params, s):
    # Reference: R4, R5 and the nonspecial test read off the listed quotient
    # degrees, one term per filtration step; the other rules as in certify.
    if s.is_zero:
        return CohCert(s, 0, Cert.exact(0), Cert.exact(0))
    c = chi(params, s)
    degs = quotient_degrees(params, s)
    if s.m == 0:
        lo, hi = line_bundle_h0_bounds(params, s.t)
    else:
        lo = max(0, c)
        hi = sum(max(0, d + 1) for d in degs)  # R5
        if s.dualized and s.t < params.ell:
            hi = min(hi, 0)
        if all(d < 0 for d in degs):  # R4
            hi = min(hi, 0)
        if not s.dualized and s.t >= 0:
            lo = max(lo, line_bundle_h0_bounds(params, s.t)[0])
        if s.dualized and s.t >= s.m * params.ell:
            lo = max(lo, line_bundle_h0_bounds(params, s.t - s.m * params.ell)[0])
    nonspecial = min(degs) > 2 * params.g - 2
    if nonspecial:
        lo, hi = max(lo, c), min(hi, c)
    h0 = Cert(lo, hi)
    if nonspecial:
        return CohCert(s, c, h0, Cert.exact(0))
    # h1 = h0 - chi on the nose, clamped at 0 from below.
    lo1, hi1 = max(0, h0.lo - c), h0.hi - c
    if hi1 < lo1:
        raise RuleConflict(f"h1 transport emptied the interval: h0={h0}, chi={c}")
    return CohCert(s, c, h0, Cert(lo1, hi1))


def test_certify_matches_enumerated_filtration(sweep_small):
    checked = 0
    for f in sweep_small:
        for dual in (False, True):
            for m in range(0, 3 * f.ell + 7):
                bound = (m + 2) * f.ell
                for t in range(-bound, bound + 1):
                    s = TwistedSym(dual, m, t)
                    assert certify(f, s) == _enumerated_certify(f, s), (f, s)
                    checked += 1
    assert checked > 90_000


def test_both_rule_conflicts_still_raise(monkeypatch):
    # The int core builds no Cert, so it must raise on an empty interval
    # itself, for h^0 and for the h^1 transport.  Sound rules never trigger
    # either; a fake line-bundle rule does, on O_C(4*Nl) over PS1 (deg 4 in
    # 0..2g-2, so not nonspecial, and chi = 1).
    import raynaudsurf.curvecoh as curvecoh_mod

    s = TwistedSym(False, 0, 4)
    assert chi(PS1, s) == 1
    monkeypatch.setattr(curvecoh_mod, "line_bundle_h0_bounds", lambda params, t: (2, 1))
    with pytest.raises(RuleConflict, match="h0 rules conflict"):
        certify(PS1, s)
    monkeypatch.setattr(curvecoh_mod, "line_bundle_h0_bounds", lambda params, t: (0, 0))
    with pytest.raises(RuleConflict, match="h1 transport"):
        certify(PS1, s)


def _listed_sum(d0, step, m):
    return sum(max(0, d0 + j * step + 1) for j in range(m + 1))


@pytest.mark.parametrize(
    "d0, step, m, expected",
    [
        (-1, 3, 0, 0),  # d = -1 adds max(0, 0) = 0, not 1
        (-1, -3, 4, 0),
        (-1, 1, 2, 0 + 1 + 2),
        (-6, 3, 4, 0 + 1 + 4 + 7),  # d0 a multiple of step: d_2 = 0 counts 1
        (6, -3, 4, 7 + 4 + 1),
        (-7, 3, 5, 0 + 0 + 0 + 3 + 6 + 9),  # crossing inside 0..m, rising
        (7, -3, 5, 8 + 5 + 2),  # crossing inside 0..m, falling
        (0, 2, 1, 1 + 3),  # m = 1
        (0, -2, 1, 1),
        (-5, -1, 1, 0),
        (4, 2, 1, 5 + 7),
        (-10, 3, 2, 0),  # every degree negative
        (10, -3, 2, 11 + 8 + 5),  # every degree non-negative
    ],
)
def test_clipped_series_sum_edges(d0, step, m, expected):
    assert _clipped_series_sum(d0, step, m) == expected == _listed_sum(d0, step, m)


def test_clipped_series_sum_matches_listing():
    for step in (-7, -3, -2, -1, 1, 2, 3, 7):
        for m in range(0, 12):
            for d0 in range(-40, 41):
                assert _clipped_series_sum(d0, step, m) == _listed_sum(d0, step, m), (d0, step, m)


def test_certify_bounded_work_at_huge_m():
    # m = 10**12 lists 10**12 quotients; the closed form sees two endpoints.
    # PS1 has ell = 3, dNl = 1, g = 4, dD = 3, so degrees step by 3.
    m = 10**12
    full = (m + 1) + 3 * m * (m + 1) // 2  # sum over j of (3j + 1)
    chi_full = 3 * m * (m + 1) // 2 - 3 * (m + 1)
    # S^m(E): degrees 0, 3, .., 3m; R6 gives lo = chi, R5 gives hi.
    cc = certify(PS1, TwistedSym(False, m, 0))
    assert cc.chi == chi_full
    assert cc.h0 == Cert(chi_full, full)
    assert cc.h1 == Cert(0, full - chi_full)
    # S^m(E)^v (x) Nl^(m*ell): degrees 3m, .., 3, 0, the same multiset.
    cc = certify(PS1, TwistedSym(True, m, 3 * m))
    assert cc.chi == chi_full
    assert cc.h0 == Cert(chi_full, full)
    # Dual with t = 3k: degrees 3(k - j) are non-negative for j <= k only.
    k = 10**6
    cc = certify(PS1, TwistedSym(True, m, 3 * k))
    assert cc.h0 == Cert(0, (k + 1) + 3 * k * (k + 1) // 2)
    assert cc.chi == -3 * m * (m + 1) // 2 + (m + 1) * 3 * k - 3 * (m + 1)


# ------------------------------------------------ explicit Tango curves (oracle)


def artin_schreier_m(params):
    """The m for which y^p - y = x^m realises `params` as a Tango curve, or None.

    The curve has genus (p-1)(m-1)/2 when p does not divide m, and x is a
    local parameter at every affine point, so (dx) = (2g-2)inf.  When
    p | 2g-2 that is Tango with D = ((2g-2)/p)inf, and Nl = O(dNl*inf) is
    an ell-th root of O(D) for every ell | dD; the oracle takes e = ell.
    """
    p, g = params.p, params.g
    if params.structure is not Structure.TANGO or (2 * g) % (p - 1):
        return None
    m = 2 * g // (p - 1) + 1
    if m % p == 0 or p * params.dD != 2 * g - 2 or params.e != params.ell:
        return None
    return m


def semigroup_h0(p, m, k):
    """h^0(O(k*inf)) on y^p - y = x^m: #{s in <p, m> : s <= k}, 0 for k < 0.

    <p, m> is the Weierstrass semigroup at inf, with x of pole order p and
    y of pole order m, so the count is exact.  This is a true value on one
    curve: a certificate holds for every curve that realises its tuple, so
    the oracle may refute a certificate but must never narrow one.
    """
    return sum(1 for s in range(k + 1) if any((s - j * m) % p == 0 for j in range(s // m + 1)))


def test_explicit_tango_curves_contain_every_line_bundle_certificate(sweep_acceptance):
    curves = [(f, m) for f in sweep_acceptance if (m := artin_schreier_m(f)) is not None]
    assert len(curves) == 21
    assert {(2, 4, 3, 3), (3, 4, 2, 2), (5, 6, 2, 2), (5, 16, 6, 3), (7, 15, 4, 4)} <= {
        (f.p, f.g, f.dD, f.ell) for f, _ in curves
    }
    sheaves, exact, violations = 0, 0, []
    for params, m in curves:
        p, g, dNl = params.p, params.g, params.dNl
        # <p, m> has g gaps, so the count is Riemann-Roch past 2g-2.
        assert semigroup_h0(p, m, 2 * g - 1) == g
        for t in range(-3, (2 * g - 2) // dNl + 4):
            h0 = semigroup_h0(p, m, t * dNl)
            h1 = h0 - (t * dNl + 1 - g)
            for dualized in (False, True):
                cc = certify(params, TwistedSym(dualized, 0, t))
                sheaves += 1
                exact += cc.h0.is_exact
                inside = [c.lo <= h <= c.hi for c, h in ((cc.h0, h0), (cc.h1, h1))]
                if not all(inside):
                    violations.append((params, t, dualized, cc.h0, h0, cc.h1, h1))
    assert violations == []
    # 294 of the 724 were Exact when the oracle landed; sharper rules may add more.
    assert sheaves == 724 and exact >= 294


def test_explicit_tango_curves_contain_every_rank_p_certificate(sweep_acceptance):
    """S^(p-1)(E) (x) Nl^t and its dual against line bundles on y^p - y = x^m.

    On a Tango curve S^(p-1)(E) is F_*O_C, with F the Frobenius:
      - O(D) -> B^1 = F_*O_C / O_C, from (df) = pD, pulls the sequence
        0 -> O_C -> F_*O_C -> B^1 -> 0 back to 0 -> O_C -> E -> O(D) -> 0,
        so E is a subsheaf of F_*O_C;
      - the multiplication S^(p-1)(E) -> F_*O_C is generically injective:
        at the generic point F_*O_C is K over K^p, of degree p, and E is
        spanned by 1 and some phi not in K^p, so 1, phi, ..., phi^(p-1) are
        independent;
      - both sides have rank p and degree (p-1)(g-1): the quotients of
        S^(p-1)(E) have degrees j*dD for j < p, and p*dD = 2g-2; and
        chi(F_*O_C) = chi(O_C) = 1-g.
    So the injection has no cokernel.  The projection formula then gives
    h^i(S^(p-1)(E) (x) Nl^t) = h^i(Nl^(pt)), and duality for the finite
    F, (F_*O_C)^v = F_*(omega_C^(1-p)) with omega_C = O(pD) = Nl^(p*ell),
    gives h^i(S^(p-1)(E)^v (x) Nl^t) = h^i(Nl^(pt - (p-1)p*ell)).  Those
    are semigroup counts, true values on one curve: the oracle may refute
    a certificate but must never narrow one.
    """
    curves = [(f, m) for f in sweep_acceptance if (m := artin_schreier_m(f)) is not None]
    sheaves, violations = 0, []
    for params, m in curves:
        p, g, dNl, ell = params.p, params.g, params.dNl, params.ell
        # Past t = (2p-1)*ell both sheaves are nonspecial and certified exactly.
        for t in range(-3, (2 * p - 1) * ell + 4):
            for dualized, k in ((False, p * t), (True, p * t - (p - 1) * p * ell)):
                h0 = semigroup_h0(p, m, k * dNl)
                h1 = h0 - (k * dNl + 1 - g)
                cc = certify(params, TwistedSym(dualized, p - 1, t))
                sheaves += 1
                if not (cc.h0.lo <= h0 <= cc.h0.hi and cc.h1.lo <= h1 <= cc.h1.hi):
                    violations.append((params, t, dualized, cc.h0, h0, cc.h1, h1))
    assert violations == []
    assert sheaves == 1032


def kernel_counts(p, m, k, nmax):
    """[dim{g in L(N*inf) : d^(k+1) g = 0} for N = 0..nmax] on y^p - y = x^m.

    d is d/dx on K = F_p(x, y): d x = 1 and, differentiating the equation,
    d y = -m*x^(m-1).  L(N*inf) has the basis x^a*y^b with b < p and
    pa + mb <= N, since x and y have pole orders p and m at inf; the
    weights pa + mb are distinct, as gcd(p, m) = 1 and b < p.  d never
    raises the y-exponent, so every image stays in the monomials with
    b < p, which are independent in F_p[x, y]/(y^p - y - x^m): the images
    are vectors over F_p.  Adding the basis in weight order and reducing
    each image against the pivots found so far counts the kernel on each
    prefix, one for each image that reduces to zero.
    """
    basis = sorted((p * a + m * b, a, b) for b in range(p) if m * b <= nmax for a in range((nmax - m * b) // p + 1))
    pivots: dict = {}
    counts, kernel, added = [], 0, 0
    for n in range(nmax + 1):
        while added < len(basis) and basis[added][0] <= n:
            _, a, b = basis[added]
            added += 1
            v = {(a, b): 1}
            for _ in range(k + 1):
                dv: dict = {}
                for (i, j), c in v.items():
                    if i:
                        dv[i - 1, j] = (dv.get((i - 1, j), 0) + i * c) % p
                    if j:
                        dv[i + m - 1, j - 1] = (dv.get((i + m - 1, j - 1), 0) - j * m * c) % p
                v = {key: c for key, c in dv.items() if c}
            while v:
                lead = max(v)
                if lead not in pivots:
                    inv = pow(v[lead], p - 2, p)
                    pivots[lead] = {key: c * inv % p for key, c in v.items()}
                    break
                c = v[lead]
                for key, pc in pivots[lead].items():
                    rest = (v.get(key, 0) - c * pc) % p
                    if rest:
                        v[key] = rest
                    else:
                        v.pop(key, None)
            else:
                kernel += 1
        counts.append(kernel)
    return counts


def test_explicit_tango_curves_contain_every_rank_2_to_p_minus_1_certificate(sweep_acceptance):
    """S^k(E) (x) Nl^t and its dual, 1 <= k <= p-2, against kernel counts on y^p - y = x^m.

    With f = x, (dx) = (2g-2)inf = pD, and S^(p-1)(E) = F_*O_C (the proof
    in test_explicit_tango_curves_contain_every_rank_p_certificate).
      - Saturation.  Multiplying by the section 1 of O_C -> E embeds
        S^(k-1)(E) in S^k(E) with quotient S^k(O(D)) = O(kD).  So
        S^0(E) in S^1(E) in ... in S^(p-1)(E) = F_*O_C has line-bundle
        quotients O(jD), F_*O_C / S^k(E) is torsion-free, and S^k(E) is
        saturated in F_*O_C: a section of F_*O_C (x) Nl^t lies in
        S^k(E) (x) Nl^t iff it lies there at the generic point.
      - Sections of F_*O_C (x) Nl^t.  By the projection formula they are
        H^0(Nl^(pt)) = L(pt*dNl*inf), as Nl = O(dNl*inf).
      - The generic span.  E is the pullback of 0 -> O_C -> F_*O_C -> B^1
        along O(D) -> B^1, whose image is generically K^p*dx.  So E is
        generically spanned by 1 and the phi with d(phi) in K^p*dx, that
        is by K^p + K^p*x, because the kernel of d on K is K^p.  Its k-th
        symmetric power spans K^p + K^p*x + ... + K^p*x^k.
      - The count.  K = (+)_{j<p} K^p*x^j, d is K^p-linear and
        d(a^p*x^j) = j*a^p*x^(j-1), with j a unit below p.  So for
        k <= p-1 the kernel of d^(k+1) is exactly (+)_{j<=k} K^p*x^j, and
        h^0(S^k(E) (x) Nl^t) = dim{g in L(pt*dNl*inf) : d^(k+1) g = 0},
        which kernel_counts computes.
      - The dual.  Below p divided and symmetric powers agree, so
        S^k(E)^v = S^k(E^v), and E^v = E (x) det(E)^-1 = E (x) O(-D) for
        rank 2; hence S^k(E)^v = S^k(E) (x) O(-kD) = S^k(E) (x) Nl^(-k*ell).
      - h^1 = h^0 - chi, with chi from Riemann-Roch.
    At k = 0 the kernel is (L(t*dNl*inf))^p, and the count must equal the
    Weierstrass semigroup count, which checks kernel_counts itself.  Each
    t runs from -3 past (2k+2)*ell, across R2's t < ell and R3's
    t >= k*ell thresholds of both duals.  These are true values on one
    curve: the oracle may refute a certificate but must never narrow one,
    so only containment is asserted.
    """
    curves = [(f, m) for f in sweep_acceptance if (m := artin_schreier_m(f)) is not None]
    sheaves, violations = 0, []
    for params, m in curves:
        p, dNl, ell = params.p, params.dNl, params.ell
        line = kernel_counts(p, m, 0, p * 3 * ell * dNl)
        assert [line[p * t * dNl] for t in range(3 * ell + 1)] == [
            semigroup_h0(p, m, t * dNl) for t in range(3 * ell + 1)
        ], params
        for k in range(1, p - 1):
            tmax = (2 * k + 2) * ell + 3
            counts = kernel_counts(p, m, k, p * tmax * dNl)
            for t in range(-3, tmax + 1):
                for dualized, u in ((False, t), (True, t - k * ell)):
                    s = TwistedSym(dualized, k, t)
                    h0 = counts[p * u * dNl] if u >= 0 else 0
                    h1 = h0 - chi(params, s)
                    cc = certify(params, s)
                    sheaves += 1
                    if not (cc.h0.lo <= h0 <= cc.h0.hi and cc.h1.lo <= h1 <= cc.h1.hi):
                        violations.append((params, s, cc.h0, h0, cc.h1, h1))
    assert violations == []
    assert sheaves == 1574


def explicit_curve_h0(params, m):
    """h^0 of S^k(E)^(v) (x) Nl^t, 0 <= k <= p-1, on y^p - y = x^m, as a function of (dualized, k, t).

    S^k(E)^v (x) Nl^t = S^k(E) (x) Nl^(t-k*ell) (the dual step of
    test_explicit_tango_curves_contain_every_rank_2_to_p_minus_1_certificate),
    so the count is semigroup_h0 at k = 0, the line bundle, and at k = p-1,
    F_*O_C (test_explicit_tango_curves_contain_every_rank_p_certificate),
    and kernel_counts for 1 <= k <= p-2, kept per k and recomputed at twice
    the length once a longer prefix is asked for.
    """
    p, dNl, ell = params.p, params.dNl, params.ell
    counts: dict = {}  # k -> kernel_counts(p, m, k, N) for the largest N asked so far

    def curve_h0(dualized, k, t):
        u = t - k * ell if dualized else t
        if k in (0, p - 1):
            return semigroup_h0(p, m, (u if k == 0 else p * u) * dNl)
        n = p * u * dNl
        if n < 0:
            return 0
        if len(counts.get(k, ())) <= n:
            counts[k] = kernel_counts(p, m, k, 2 * n)
        return counts[k][n]

    return curve_h0


def test_explicit_tango_surfaces_contain_every_zab_h1_certificate(sweep_acceptance):
    """h^1(X, Z_{a,b}^{-1}) on the explicit surfaces, from the curve counts above.

    psi is finite, so H^1(X, Z_{a,b}^{-1}) is the direct sum over the
    summands O_P(mtw) (x) pi^* Nl^t of _terms(params, -a, -b) of their
    H^1 on P.  Leray for pi, whose fibres are curves, gives
    H^1(P, F) = H^1(C, pi_* F) (+) H^0(C, R^1 pi_* F): each summand adds
    the curve h^1 of its pi_* side or the curve h^0 of its R^1 pi_* side.
    Every side is S^k(E)^(v) (x) Nl^t with k <= p-1, and
    S^k(E)^v (x) Nl^t = S^k(E) (x) Nl^(t-k*ell) (the dual step above), so
    its h^0 is semigroup_h0 at k = 0, the line bundle, and at k = p-1,
    F_*O_C (the rank-p proof), and kernel_counts for 1 <= k <= p-2; its
    h^1 is h^0 - chi.  The cells are the ones criterion 09 reads,
    a in 1..5 and b in 1..ell-1.  A truth on one surface may refute a
    certificate but must never narrow one, so only containment is
    asserted, with h^1 >= 1 on the witness region W (a <= ell-b and
    (ell-b)(p+1) >= 2*ell), where zab_nonvanishing's docstring builds the
    nonzero class.
    """
    curves = [(f, m) for f in sweep_acceptance if (m := artin_schreier_m(f)) is not None]
    cells, witness, violations = 0, 0, []
    for params, m in curves:
        p, ell = params.p, params.ell
        curve_h0 = explicit_curve_h0(params, m)
        for a in range(1, 6):
            for b in range(1, ell):
                truth = 0
                for _, _, side in _terms(params, -a, -b):
                    if side is not None:
                        dualized, k, t = side
                        assert k <= p - 1, (params, a, b, side)
                        h0 = curve_h0(*side)
                        truth += h0 if dualized else h0 - chi(params, TwistedSym(*side))
                cert = h_surface(params, 1, -1, a, b)
                cells += 1
                in_w = a <= ell - b and (ell - b) * (p + 1) >= 2 * ell
                witness += in_w
                if not cert.lo <= truth <= cert.hi or (in_w and truth < 1):
                    violations.append((params, a, b, cert, truth))
    assert violations == []
    assert (len(curves), cells, witness) == (21, 200, 59)


def test_explicit_tango_surfaces_contain_every_computable_certificate(sweep_acceptance):
    """Every h^i(X, Z^n) on the explicit surfaces whose sides all have rank <= p.

    psi is finite, so H^i(X, Z^n) is the direct sum of H^i(P, F) over the
    summands F = O_P(mtw) (x) pi^* Nl^t of the direct-image row, taken here
    from conftest.oracle_decompose rather than the engine's _terms.  Leray
    for pi, whose fibres are curves, gives H^i(P, F) = H^i(C, pi_* F) (+)
    H^(i-1)(C, R^1 pi_* F), with pi_* O_P(mtw) = S^mtw(E) for mtw >= 0 and
    R^1 pi_* O_P(mtw) = S^(-mtw-2)(E)^v (x) O(-D), O(-D) = Nl^(-ell), for
    mtw <= -2 (mtw = -1 has neither).  So h^i sums the curve h^i of the
    pi_* sides (i <= 1) and the curve h^(i-1) of the R^1 pi_* sides
    (i >= 1).  A cell is computable when every side it reads has
    k <= p-1, where explicit_curve_h0 gives the curve h^0 and h^1 is
    h^0 - chi.  The cells are i in 0..2 and n in [-20, p(p+1)+3*ell], the
    sweep cells of these surfaces.  A truth on one surface may refute a
    certificate but must never narrow one, so only containment is asserted.
    """
    curves = [(f, m) for f in sweep_acceptance if (m := artin_schreier_m(f)) is not None]
    cells, computable, violations = 0, 0, []
    for params, m in curves:
        p, ell = params.p, params.ell
        curve_h0 = explicit_curve_h0(params, m)
        for n in range(-20, p * (p + 1) + 3 * ell + 1):
            # (Leray index, sheaf) of each side of the row.
            sides = [
                (0, TwistedSym(False, mtw, t)) if mtw >= 0 else (1, TwistedSym(True, -mtw - 2, t - ell))
                for mtw, t in oracle_decompose(params, n, n)
                if mtw != -1
            ]
            sc = surface_cert(params, n)
            for i in range(3):
                cells += 1
                read = [(i - k, s) for k, s in sides if 0 <= i - k <= 1]
                if any(s.m > p - 1 for _, s in read):
                    continue
                computable += 1
                truth = 0
                for j, s in read:
                    h0 = curve_h0(*s)
                    truth += h0 - chi(params, s) if j else h0
                cert = sc.h(i)
                if not cert.lo <= truth <= cert.hi:
                    violations.append((params, i, n, cert, truth))
    assert violations == []
    assert (len(curves), cells, computable) == (21, 3000, 1698)
