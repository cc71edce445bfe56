from __future__ import annotations

import functools
import json
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import pytest

from raynaudsurf import (
    ZERO_CERT,
    Cert,
    ClassX,
    Structure,
    SurfaceParams,
    ThmEntry,
    ThmReport,
    TwistedSym,
    canonical_X,
    certify,
    chi,
    enumerate_families,
    h1_nonvanishing_window,
    h_surface,
    intersect_X,
    is_smooth,
    polarization_class,
    rank,
    surface_cert,
    theorem_predicates,
    validate,
    zab_nonvanishing,
)
from raynaudsurf.cli import NMAX, main
from raynaudsurf.surfcoh import _proven_claims, _side, _terms

from conftest import PS1, PS2, PS3, PS4, h1neg_closed_form, oracle_decompose, result1_range


# ---------------------------------------------------------------- decomposition


def _row(params, m, tw):
    """The engine's direct-image row, as (mtw, t) pairs."""
    return [(mtw, t) for mtw, t, _ in _terms(params, m, tw)]


def test_decompose_examples():
    assert _row(PS1, -1, -1) == [(-1, -1), (-1, 1), (-2, 3)]
    assert _row(PS1, 0, 0) == [(0, 0), (-1, 2), (-2, 4)]
    assert _row(PS3, 1, 1) == [
        (0, 1),
        (-1, 4),
        (-2, 7),
        (-2, 10),
    ]


# An ell = 24 Tango surface: the largest ell the benchmark's tables workload draws.
ELL24 = SurfaceParams(23, 277, 24, 24, 24, Structure.TANGO)
# A Tango surface with ell = p + 1 = 1020: a thousand summands per twist.
TANGO1019 = SurfaceParams(1019, 519691, 1020, 1020, 1020, Structure.TANGO)


def test_decompose_matches_oracle(sweep_small):
    # The one independent check of the row for m != tw: Z_{a,b}^n pushes
    # down to m = a*n, tw = b*n.  For n < 0 every mtw is negative, the
    # premise of h0_zero_negative and of the h1neg_closed_form reference.
    cases = [(f, range(-12, 13)) for f in sweep_small[:25]]
    cases += [(ELL24, range(-72, 73)), (TANGO1019, range(-3, 4))]
    cells = 0
    for f, ns in cases:
        for a, b in {(1, 1), (2, 1), (1, f.ell - 1)}:
            for n in ns:
                terms = _row(f, a * n, b * n)
                assert terms == oracle_decompose(f, a * n, b * n), (f, n, a, b)
                assert len(terms) == f.ell
                if n < 0:
                    assert all(mtw < 0 for mtw, _ in terms), (f, n, a, b)
                cells += 1
    # (1, ell-1) is (1, 1) at ell = 2: 8 of the 25 sweep tuples have ell = 2
    # and 17 ell = 3, so 25 * (8 * 2 + 17 * 3) on them, 145 * 3 on ELL24
    # and 7 * 3 on TANGO1019.
    assert cells == 25 * 67 + 145 * 3 + 7 * 3


def test_decompose_twist_generalizes():
    # Z_{2,1}^{-1} has the Etilde exponent doubled but the Nl twist kept:
    # on PS1 (p = 2, ell = 3) summand i is ([(i-2)/3] - i, 2i - 1).
    assert _row(PS1, -2, -1) == [(-1, -1), (-2, 1), (-2, 3)]


# -------------------------------------------------------------------- reduction


def test_reduce_term_examples():
    # (dualized, m, t) of the one nonzero side; dualized marks R^1 pi_*.
    assert _side(PS1.ell, -1, 5) is None
    assert _side(PS1.ell, -2, 3) == (True, 0, 0)
    assert _side(PS1.ell, 2, 5) == (False, 2, 5)
    assert _side(PS1.ell, 0, 0) == (False, 0, 0)
    assert _side(PS1.ell, -3, 1) == (True, 1, -2)


# --------------------------------------------------------------- surface certs


def test_h_surface_raynaud_profile():
    assert h_surface(PS1, 1, -1) == Cert.exact(1)
    assert h_surface(PS1, 1, -2) == Cert.exact(0)
    assert h_surface(PS1, 0, -5) == Cert.exact(0)
    with pytest.raises(ValueError):
        h_surface(PS1, 3, 0)


def test_h2_at_minus_one_is_genus():
    # The single surviving derived term at n = -1 is O_C, so h^2 = g.
    assert h_surface(PS1, 2, -1) == Cert.exact(4)


def test_chi_matches_exact_triples(sweep_small):
    # Sign-convention oracle: chi = h0 - h1 + h2 on every fully exact cell.
    checked = 0
    for f in sweep_small[:20]:
        for n in range(-10, 16):
            sc = surface_cert(f, n)
            if sc.h0.is_exact and sc.h1.is_exact and sc.h2.is_exact:
                assert sc.chi == sc.h0.lo - sc.h1.lo + sc.h2.lo, (f, n)
                checked += 1
    assert checked > 100


def test_chi_matches_riemann_roch(sweep_acceptance):
    # Independent route through numclass: Etilde misses the cusps (the
    # branch curve is disjoint from E), so Z is Cartier and Riemann-Roch
    # chi(Z^n) = chi(O_X) + (Z^n.Z^n - Z^n.K_X)/2 holds.  chi(O_X) is the
    # engine's value at n = 0; every other n, negative ones included, is
    # then checked against it.
    misses = []
    for f in sweep_acceptance:
        kx, z = canonical_X(f), polarization_class(f)
        chi0 = surface_cert(f, 0).chi
        for n in range(-30, f.p * (f.p + 1) + 3 * f.ell + 1):
            zn = n * z
            twice = intersect_X(f, zn, zn) - intersect_X(f, zn, kx)
            rr = chi0 + twice // 2
            if twice % 2 or surface_cert(f, n).chi != rr:
                misses.append((f, n))
    assert misses == [], (len(misses), misses[:5])


def _noether_defects(structure):
    """(tuple, 12*chi(O_X) - K_X^2 - 4(1-g)) over the 2083 tuples of one structure.

    chi(O_X) is the engine's surface_cert(f, 0).chi and K_X^2 comes from
    numclass, so the two never share a computation.
    """
    for f in enumerate_families(13, 40, 40):
        if f.structure is structure:
            kx = canonical_X(f)
            yield f, 12 * surface_cert(f, 0).chi - intersect_X(f, kx, kx) - 4 * (1 - f.g)


def test_chi_of_structure_sheaf_matches_noether_on_tango_tuples():
    # An anchor for chi(O_X) itself, which test_chi_matches_riemann_roch
    # takes from the engine.  On a Tango tuple X is smooth, so Noether's
    # formula 12*chi(O_X) = K_X^2 + e(X) holds in every characteristic
    # (Hartshorne V, Remark 1.6.1, e the l-adic Euler characteristic).  X -> P
    # is a tame cyclic cover (p does not divide ell) branched along E and
    # C', each homeomorphic to C, so
    # e(X) = ell*e(P) - (ell-1)(e(E) + e(C')) = 4(1-g).
    defects = list(_noether_defects(Structure.TANGO))
    assert len(defects) == 114
    assert [f for f, d in defects if d] == []


def test_noether_defect_on_pre_tango_tuples():
    """On a pre-Tango tuple the Noether defect is (p-1)(ell-1)*deg R.

    Here omega_C = Nl^(p*ell)(R) with R effective of degree
    2g-2 - p*dD, so each point of R adds (p-1)(ell-1) = 2*fiber_genus to
    12*chi(O_X) - K_X^2 - 4(1-g).  The identity is measured only, not
    proved: over a point of R, X is locally z^ell = h with h the local
    equation of C', which is singular there, and a proof would need the
    resolution of that singularity to compare chi(O_X) with Noether's
    formula on a smooth model.  It held on all 1969 pre-Tango tuples of
    the 2083, and on the 21081 of enumerate_families(47, 100, 96).
    """
    defects = list(_noether_defects(Structure.PRETANGO))
    assert len(defects) == 1969
    misses = [f for f, d in defects if d != (f.p - 1) * (f.ell - 1) * (2 * f.g - 2 - f.p * f.dD)]
    assert misses == []


def _intervals_meet(c, d):
    return max(c.lo, d.lo) <= min(c.hi, d.hi)


def test_serre_duality_on_smooth_tuples(sweep_acceptance):
    # Independent h0 <-> h2 route: on a Tango tuple X is smooth, so
    # h^i(Z^n) = h^(2-i)(K_X - nZ) and chi(Z^n) = chi(K_X - nZ).  K_X comes
    # from numclass as (w-1)*Etilde + phi^*Nl^(p+ell), w = p*ell - p - ell,
    # so K_X - nZ = Z_{a,b}^1 with a = w-1-n, b = p+ell-n.  For
    # -30 <= n <= w-1 the dual side has a >= 0, so it only reads the m >= 0
    # rows of the direct-image table while Z^n with n < 0 reads the m < 0
    # rows: the negative twists are checked against the non-negative ones.
    misses, cells = [], 0
    for f in sweep_acceptance:
        if not is_smooth(f):
            continue
        kx = canonical_X(f)
        assert (kx.cEt, kx.d) == (f.p * f.ell - f.p - f.ell - 1, (f.p + f.ell) * f.dNl)
        a_k, b_k = int(kx.cEt), int(kx.d) // f.dNl
        for n in range(-30, a_k + 1):
            sc, dual = surface_cert(f, n), surface_cert(f, 1, a_k - n, b_k - n)
            if sc.chi != dual.chi:
                misses.append((f, n, "chi"))
            for i in range(3):
                cells += 1
                if not _intervals_meet(sc.h(i), dual.h(2 - i)):
                    misses.append((f, n, i))
    assert cells == 360 + 36 * 30 * 3
    assert misses == [], (len(misses), misses[:5])


def test_serre_duality_on_twisted_families(sweep_acceptance):
    # Independent route for criterion 09's cells: on a Tango tuple,
    # h^i(Z_{a,b}^-1) = h^(2-i)(K_X (x) Z_{a,b}) and K_X (x) Z_{a,b} =
    # Z_{a_K+a, b_K+b}^1.  The dual reads only m >= 0 rows of the
    # direct-image table, the cell only m < 0 rows.
    misses, cells = [], 0
    for f in sweep_acceptance:
        if not is_smooth(f):
            continue
        kx = canonical_X(f)
        a_k, b_k = int(kx.cEt), int(kx.d) // f.dNl
        for a in range(1, 6):
            for b in range(1, f.ell):
                sc, dual = surface_cert(f, -1, a, b), surface_cert(f, 1, a_k + a, b_k + b)
                cells += 1
                if sc.chi != dual.chi:
                    misses.append((f, a, b, "chi"))
                for i in range(3):
                    if not _intervals_meet(sc.h(i), dual.h(2 - i)):
                        misses.append((f, a, b, i))
    assert cells == 305
    assert misses == [], (len(misses), misses[:5])


def test_serre_duality_on_chi_for_every_tuple(sweep_acceptance):
    """chi(Z_{a,b}^n) = chi(omega_X (x) Z_{a,b}^-n) on every tuple, pre-Tango included.

    omega_X = Z_{a_K,b_K} (x) phi^* O(R) with a_K = p*ell-p-ell-1,
    b_K = p+ell and R effective of degree 2g-2-p*dD (0 on a Tango tuple),
    so the dual side is the row _terms(f, a_K - a*n, b_K - b*n) with each
    curve sheaf V twisted by O(R): chi(V(R)) = chi(V) + rank(V)*deg R, by
    Riemann-Roch.  A pi_* side adds that, an R^1 pi_* side subtracts it.
    The dual row reads the table at the twist a_K - a*n, far from a*n, so
    a miscoded row breaks the identity: the row mutants (m+i+1)//ell and
    t-ell -> t fail 41747 and 40880 of the 41820 cells, while Noether's
    formula sees only the 36 Tango tuples of this sweep.  The identity is
    measured, not proved: the omega_X formula is ROADMAP item 15's to prove.
    """
    misses, cells = [], 0
    for f in sweep_acceptance:
        a_k, b_k = f.p * f.ell - f.p - f.ell - 1, f.p + f.ell
        deg_r = 2 * f.g - 2 - f.p * f.dD
        for a, b in ((1, 1), (2, 1), (1, f.ell - 1)):
            for n in range(-20, 21):
                dual = 0
                for _, _, side in _terms(f, a_k - a * n, b_k - b * n):
                    if side is not None:
                        sheaf = TwistedSym(*side)
                        c = chi(f, sheaf) + rank(sheaf) * deg_r
                        dual += -c if sheaf.dualized else c
                cells += 1
                if surface_cert(f, n, a, b).chi != dual:
                    misses.append((f, n, a, b))
    assert cells == len(sweep_acceptance) * 41 * 3
    assert misses == [], (len(misses), misses[:5])


def test_serre_duality_sandwich_on_every_tuple(sweep_acceptance):
    """h^i(Z^n) meets h^(2-i)(omega_X (x) Z^-n) on every tuple, pre-Tango included.

    omega_X (x) Z^-n = Z_{a_K-n, b_K-n} (x) phi^* O(R), with the row taken
    from oracle_decompose, not _terms, and each summand's side from the
    reduction rule written out here: mtw >= 0 gives the pi_* side
    S^mtw(E) (x) Nl^t, mtw <= -2 the R^1 pi_* side S^(-mtw-2)(E)^v (x)
    Nl^(t-ell), and mtw = -1 neither.  R is effective of degree
    r = 2g-2-p*dD (0 on a Tango tuple), so twisting a side V of rank rho by
    O(R) gives, from 0 -> V -> V(R) -> V|_R -> 0,
    h^0(V(R)) in [lo_0, hi_0 + rho*r] and h^1(V(R)) in
    [max(0, lo_1 - rho*r), hi_1], with the ends from certify.  Leray sums
    them into the dual's h^(2-i) interval, which must meet
    surface_cert(f, n).h(i).  The identity is measured, not proved: the
    omega_X formula is ROADMAP item 15's to prove.  A mutant setting
    hi = lo for m >= 1 in _rule_bounds breaks 321 cells, 256 of them
    pre-Tango, where the Tango-only duality tests cannot see it.
    """
    conflicts, cells = [], 0
    for f in sweep_acceptance:
        a_k, b_k = f.p * f.ell - f.p - f.ell - 1, f.p + f.ell
        r = 2 * f.g - 2 - f.p * f.dD
        for n in range(-20, f.p * (f.p + 1) + 3 * f.ell + 1):
            lo, hi = [0, 0, 0], [0, 0, 0]
            for mtw, t in oracle_decompose(f, a_k - n, b_k - n):
                if mtw == -1:
                    continue
                k = int(mtw <= -2)  # the Leray index: 1 for R^1 pi_*
                sheaf = TwistedSym(True, -mtw - 2, t - f.ell) if k else TwistedSym(False, mtw, t)
                cc, twist = certify(f, sheaf), rank(sheaf) * r
                lo[k] += cc.h0.lo
                hi[k] += cc.h0.hi + twist
                lo[k + 1] += max(0, cc.h1.lo - twist)
                hi[k + 1] += cc.h1.hi
            sc = surface_cert(f, n)
            for i in range(3):
                cells += 1
                if not _intervals_meet(sc.h(i), Cert(lo[2 - i], hi[2 - i])):
                    conflicts.append((f, n, i))
    assert cells == 49170
    assert conflicts == [], (len(conflicts), conflicts[:5])


def test_chi_example_ps1():
    sc = surface_cert(PS1, -1)
    assert sc.chi == 3
    assert (sc.h0, sc.h1, sc.h2) == (Cert.exact(0), Cert.exact(1), Cert.exact(4))


def test_term_records_carry_reductions():
    # Each term is the row (mtw, t) with its one side's CohCert, None at
    # mtw = -1; here only the last summand has a side, an R^1 pi_* one.
    sc = surface_cert(PS1, -1)
    assert [(mtw, t) for mtw, t, _ in sc.terms] == oracle_decompose(PS1, -1, -1)
    assert sc.terms[0][2] is None and sc.terms[1][2] is None
    _, _, last = sc.terms[2]
    assert last.sheaf == TwistedSym(True, 0, 0)
    assert last.chi == chi(PS1, TwistedSym(True, 0, 0)) == -3
    assert sc.chi == -last.chi == 3


def test_cache_bound_drops_no_hit_and_stays_bounded(sweep_acceptance, capsys):
    # table asks surface_cert for all degrees of a twist in a row, so the
    # one-twist memo serves as an unbounded cache would: one miss per twist
    # and a hit for each further degree.  section-ring and
    # theorem_predicates read degree-only h_surface, so neither a window of
    # the section ring nor a sweep reaches the memo, and certify keeps
    # nothing.
    flags = ["-p", "2", "-g", "4", "--dD", "3", "-e", "3", "--ell", "3", "--tango"]
    window = ["--nmin", str(-NMAX), "--nmax", str(NMAX)]
    cases = (
        (["table", *flags, "--i", "0,1,2", *window], (2 * NMAX + 1, 402)),
        (["section-ring", *flags, *window], (0, 0)),
    )
    for argv, counts in cases:
        surface_cert.cache_clear()
        assert main(argv) == 0
        info = surface_cert.cache_info()
        assert (info.misses, info.hits) == counts, argv
    capsys.readouterr()

    surface_cert.cache_clear()
    for f in sweep_acceptance:
        theorem_predicates(f, nneg_min=-NMAX)
    info = surface_cert.cache_info()
    assert (info.misses, info.hits) == (0, 0)
    assert certify.cache_info().currsize == 0


def test_h_surface_equals_full_certificate(sweep_acceptance):
    # The degree-only query certifies a subset of the sides surface_cert
    # certifies and must sum them to the same interval: h_surface's
    # per-degree side selection (j = i - dualized) against surface_cert's
    # all-degree pass over the same _terms.
    cases = []
    for f in sweep_acceptance:
        keys = [(n, 1, 1) for n in range(-30, f.p * (f.p + 1) + 3 * f.ell + 1)]
        keys += [(-1, a, b) for a in range(1, 4) for b in range(1, f.ell)]
        cases.append((f, keys))
    cases.append((ELL24, [(n, a, b) for n in range(-NMAX, NMAX + 1) for a, b in ((1, 1), (2, 1), (1, 23))]))
    cases.append((TANGO1019, [(n, 1, 1) for n in range(-3, 4)]))
    cells = 0
    for f, keys in cases:
        for n, a, b in keys:
            sc = surface_cert(f, n, a, b)
            for i in range(3):
                assert h_surface(f, i, n, a, b) == sc.h(i), (f, i, n, a, b)
                cells += 1
    # 3 degrees per key: 64392 on the acceptance sweep, 3 * 201 * 3 = 1809
    # on ELL24 (n in [-100, 100], three (a, b)) and 3 * 7 = 21 on TANGO1019.
    assert cells == 64392 + 1809 + 21


# Leray for pi: P -> C, whose fibres are curves:
#   H^i(P, F) = H^i(C, pi_* F) (+) H^(i-1)(C, R^1 pi_* F).
# LERAY[i] lists the (side, curve degree) pairs that feed H^i, side 0 being
# a term's pi_* side and side 1 its R^1 pi_* side: h^0 reads only pi_*
# sides, h^2 only R^1 pi_* sides, h^1 both.
LERAY = (((0, 0),), ((0, 1), (1, 0)), ((1, 1),))


def _leray_reference(f, n, a, b):
    """(h^0, h^1, h^2, chi) of Z_{a,b}^n with one validated Cert per summand.

    The engine's earlier expression: every side of every term certified,
    each degree summed over its LERAY sides by the chain of Cert.__add__
    from ZERO_CERT, and chi from certify's per-side chi.
    """
    certs = []
    for _, _, side in _terms(f, a * n, b * n):
        cert = None if side is None else certify(f, TwistedSym(*side))
        certs.append((None, cert) if side and side[0] else (cert, None))
    h = tuple(
        functools.reduce(
            operator.add,
            ((sides[k].h1 if j else sides[k].h0) for sides in certs for k, j in LERAY[i] if sides[k] is not None),
            ZERO_CERT,
        )
        for i in range(3)
    )
    chi = sum((push.chi if push else 0) - (derived.chi if derived else 0) for push, derived in certs)
    return (*h, chi)


def test_integer_sums_match_the_cert_chain(sweep_small):
    # The int sums of surface_cert and h_surface against the chain of
    # validated Certs of _leray_reference.  A term's chi sign is read from
    # its mtw (pi_* side for mtw >= 0, R^1 pi_* side for mtw <= -2), not
    # from its cert.  (1, ell-1) gives the Nl exponent b > 1 wherever
    # ell >= 3.
    cells = 0
    for f in sweep_small:
        for a, b in ((1, 1), (2, 1), (1, f.ell - 1)):
            for n in range(-30, 31):
                *want, want_chi = _leray_reference(f, n, a, b)
                sc = surface_cert(f, n, a, b)
                signed = sum(cc.chi if mtw >= 0 else -cc.chi for mtw, _, cc in sc.terms if mtw != -1)
                assert sc.chi == signed == want_chi, (f, n, a, b)
                for i in range(3):
                    assert sc.h(i) == h_surface(f, i, n, a, b) == want[i], (f, i, n, a, b)
                    assert type(sc.h(i)) is Cert
                    assert type(sc.h(i).hi) is int
                    cells += 1
    assert cells == len(sweep_small) * 3 * 61 * 3


@pytest.fixture
def rule_calls(monkeypatch):
    """[count] of calls of the curve rules' int core, through the name surfcoh binds."""
    import raynaudsurf.surfcoh as surfcoh_mod

    count = [0]
    real = surfcoh_mod._rule_bounds

    def counting(params, *sheaf):
        count[0] += 1
        return real(params, *sheaf)

    monkeypatch.setattr(surfcoh_mod, "_rule_bounds", counting)
    return count


def test_h_surface_certifies_only_what_it_reads(sweep_small, rule_calls):
    # Degree i reads the pi_* side (mtw >= 0) for i <= 1 and the R^1 pi_*
    # side (mtw <= -2) for i >= 1; mtw = -1 has neither.  h_surface must
    # bound exactly those sides, once each.
    reads = (lambda mtw: mtw >= 0, lambda mtw: mtw != -1, lambda mtw: mtw <= -2)
    total = 0
    for f in sweep_small:
        for n in range(-30, 31):
            mtws = [mtw for mtw, _ in oracle_decompose(f, n, n)]
            for i in range(3):
                rule_calls[0] = 0
                h_surface(f, i, n)
                assert rule_calls[0] == sum(map(reads[i], mtws)), (f, i, n)
                total += rule_calls[0]
    assert total > 0


def test_leray_pairs_sum_to_the_degree():
    # surface_cert applies LERAY in one pass as "side k's curve h^j feeds h^(k+j)".
    assert LERAY == tuple(tuple((k, i - k) for k in (0, 1) if 0 <= i - k <= 1) for i in range(3))


def test_inline_chi_matches_riemann_roch(sweep_small):
    # certify reads chi from the ends of its quotient-degree progression.
    # chi(), deg + rank*(1-g) through degree() and rank(), is the oracle on
    # every side surface_cert certifies, and each twist's chi must still be
    # the Riemann-Roch value from numclass (see test_chi_matches_riemann_roch).
    sides = want_sides = 0
    for f in sweep_small:
        kx = canonical_X(f)
        chi0 = surface_cert(f, 0).chi
        for a, b in ((1, 1), (2, 1)):
            z = polarization_class(f, a, b)
            for n in range(-30, 31):
                sc = surface_cert(f, n, a, b)
                for _, _, cc in sc.terms:
                    if cc is not None:
                        assert cc.chi == chi(f, cc.sheaf), (f, n, a, b, cc.sheaf)
                        sides += 1
                want_sides += sum(mtw != -1 for mtw, _ in oracle_decompose(f, a * n, b * n))
                zn = n * z
                twice = intersect_X(f, zn, zn) - intersect_X(f, zn, kx)
                assert twice % 2 == 0 and sc.chi == chi0 + twice // 2, (f, n, a, b)
    assert sides == want_sides > 0


def test_h0_and_h2_checks_certify_nothing(sweep_acceptance, rule_calls):
    # h0_zero_negative, h2_vanishes_high and h1_zero_below_window come from
    # proofs and read no curve certificate.  So the curve-rule calls of
    # theorem_predicates are those of its h1_nonzero_near_zero entries: one
    # per present side of each of their terms (h^1 reads both sides).  A
    # term has a side exactly when mtw != -1, counted from the oracle row
    # alone, not through _terms or _side.
    for f in sweep_acceptance:
        rule_calls[0] = 0
        report = theorem_predicates(f)
        h1_sides = sum(
            mtw != -1
            for e in report.entries
            if e.theorem == "h1_nonzero_near_zero"
            for mtw, _ in oracle_decompose(f, e.n, e.n)
        )
        assert rule_calls[0] == h1_sides, f


def _h1_zero_below(f):
    """Least n < 0 where certify may leave h^1(X, Z^n) != 0, or 0 if none.

    For n < 0, h^1 sums h^0 of the R^1 pi_* sides S^k(E)^v (x) Nl^t' of the
    summands i, with k = i(p+1)/ell - [(n+i)/ell] - 2 and t' = i*p + n - ell.
    certify gives such a side Exact(0) exactly when k < 0 (R0), k = 0 and
    t' < 0 (R1) or k >= 1 and t' < ell (R2).  On n = r + ell*q, k = Q - q
    with Q = i(p+1)/ell - [(r+i)/ell] - 2, and t' >= ell iff q >= c =
    ceil((2*ell - i*p - r)/ell).  So summand i is not certified zero for q
    in [c, Q] when c < Q, at q = Q when t'(Q) >= 0, and nowhere else.
    """
    p, ell = f.p, f.ell
    least = 0
    for i in range(ell):
        for r in range(ell):
            top = i * (p + 1) // ell - (r + i) // ell - 2
            low = -((i * p + r - 2 * ell) // ell)
            if low < top:
                least = min(least, r + ell * low)
            elif i * p + r - ell + ell * top >= 0:
                least = min(least, r + ell * top)
    return least


def _assert_h1_zero_below_is_exact(f):
    # Below the bound the engine certifies h^1 = 0; at it, when it is
    # negative, the engine does not.
    proven = _h1_zero_below(f)
    assert proven <= 0
    for n in range(-NMAX, proven):
        assert h_surface(f, 1, n) == Cert.exact(0), (f, n)
    if proven < 0:
        assert h_surface(f, 1, proven) != Cert.exact(0), f


def test_h1_zero_below_agrees_with_engine(sweep_acceptance):
    assert {f.p for f in sweep_acceptance} == {2, 3, 5, 7}
    for f in sweep_acceptance:
        _assert_h1_zero_below_is_exact(f)


def test_h1_zero_below_on_ell24():
    _assert_h1_zero_below_is_exact(ELL24)


def test_h0_vanishes_for_negative_n(sweep_acceptance):
    for f in sweep_acceptance:
        for n in range(-NMAX, 0):
            assert h_surface(f, 0, n) == Cert.exact(0), (f, n)


# ---------------------------------------------------------------- closed forms


def test_h1neg_closed_form_examples():
    assert h1neg_closed_form(PS2, -1) == Cert.exact(1)
    assert h1neg_closed_form(PS3, -2) == Cert.exact(1)
    assert h1neg_closed_form(PS1, -7) == Cert.exact(0)
    with pytest.raises(ValueError):
        h1neg_closed_form(PS1, 0)


def test_closed_forms_agree_with_engine(sweep_small):
    # The closed form adds the curve h^0 of every side with no Leray
    # dispatch, so it equals h_surface's h^1 only if, as it assumes, every
    # side of Z^n with n < 0 is an R^1 pi_* side.
    cases = [(f, range(-30, 0)) for f in sweep_small[:25]]
    cases += [(ELL24, range(-NMAX, 0)), (TANGO1019, range(-3, 0))]
    for f, ns in cases:
        for n in ns:
            assert h1neg_closed_form(f, n) == h_surface(f, 1, n), (f, n)


def test_h2_vanishing_window(sweep_small):
    for f in sweep_small[:25]:
        base = f.p * (f.p + 1)
        for n in range(base, base + 3 * f.ell + 1):
            assert h_surface(f, 2, n) == Cert.exact(0), (f, n)


def test_result1_range_examples():
    assert result1_range(PS1) == [-1]
    assert result1_range(PS2) == [-1]
    assert result1_range(PS3) == [-2, -1]
    assert h1_nonvanishing_window(PS3) == -2


def test_engine_certifies_nonvanishing_window(sweep_small):
    for f in sweep_small:
        for n in result1_range(f):
            assert h_surface(f, 1, n).certainly_nonzero, (f, n)


def test_small_p_vanishing_below_window(sweep_acceptance):
    # theorem_predicates proves h1_zero_below_window for the three (p, ell)
    # pairs with p = 2, 3.  On each, the engine-checked bound of
    # test_h1_zero_below_agrees_with_engine is the window itself.
    small = [f for f in sweep_acceptance if f.p in (2, 3)]
    assert {(f.p, f.ell) for f in small} == {(2, 3), (3, 2), (3, 4)}
    for f in small:
        assert _h1_zero_below(f) == h1_nonvanishing_window(f), f


def test_unit_section_witness_codings_agree():
    # The oracle row's result1_range and h1_nonvanishing_window code the
    # unit-section witness of one R^1 pi_* side; the engine reaches it
    # through R3 (or R1 at k = 0).  The n in [-(ell-1), -1] where the
    # engine certifies h^1(X, Z^n) >= 1 are exactly the window and exactly
    # the n where an oracle summand carries the witness.
    for f in enumerate_families(13, 40, 40):
        fired = [n for n in range(1 - f.ell, 0) if h_surface(f, 1, n).lo >= 1]
        assert fired == result1_range(f) == list(range(h1_nonvanishing_window(f), 0)), f


# -------------------------------------------------------------- twisted family


def test_zab_examples():
    # On PS1 (p = 2, ell = 3) the witness summand i = ell-b = 2 of
    # Z_{1,1}^{-1} is (-2, 3), whose R^1 pi_* side is
    # Nl^(3-3) = O_C: h^1 = h^0(O_C) = 1 (the other two have mtw = -1).
    assert zab_nonvanishing(PS1, 1, 1) == Cert.exact(1)
    # On PS2 (p = 3, ell = 2) the witness summand i = ell-b = 1 of
    # Z_{2,1}^{-1} lies in row [(1-2)/2] = -1: it is (-3, 2), whose
    # R^1 pi_* side is S^1(E)^v (x) Nl^(2-2) = E^v, so h^1 = h^0(C, E^v)
    # (the i = 0 summand has mtw = -1), which is 0 because E is a non-split
    # extension of O(D) by O_C.
    assert zab_nonvanishing(PS2, 2, 1) == Cert.exact(0)
    assert h_surface(PS2, 1, -1, a=2, b=1) == Cert.exact(0)
    # At b = ell-1 with ell = p+1 the witness symmetric power is the zero
    # sheaf, no constant section embeds, and the direct image in fact
    # vanishes: the engine certificate is exactly zero.
    assert zab_nonvanishing(PS3, 5, 3) == Cert.exact(0)
    assert h_surface(PS3, 1, -1, a=5, b=3) == Cert.exact(0)
    with pytest.raises(ValueError):
        zab_nonvanishing(PS1, 0, 1)
    with pytest.raises(ValueError):
        zab_nonvanishing(PS1, 1, 3)


def test_zab_consistent_with_engine(sweep_small):
    # zab_nonvanishing reads the one-degree query (h_surface, via
    # _rule_bounds); the all-degree record (surface_cert, via certify)
    # must hold the same finite interval for h^1(X, Z_{a,b}^{-1}).
    for f in sweep_small[:15]:
        for a in (1, 2, 5):
            for b in range(1, f.ell):
                cert = zab_nonvanishing(f, a, b)
                assert cert.lo <= cert.hi, (f, a, b)
                assert cert == surface_cert(f, -1, a, b).h(1), (f, a, b)


def test_zab_corrected_window_always_fires():
    # zab_nonvanishing is the engine's certificate, with no closed form
    # over it.  The engine alone must certify h^1 >= 1 on the witness
    # region W: b <= ell - ceil(2 ell / (p+1)), so the witness summand
    # i = ell-b has a symmetric power, and a <= ell - b, so it sits in
    # row 0, where the constants embed (zab_nonvanishing's docstring).
    cells = witness = 0
    for f in enumerate_families(13, 40, 40):
        bmax = f.ell - math.ceil(Fraction(2 * f.ell, f.p + 1))
        for b in range(1, f.ell):
            for a in range(1, 6):
                cert = zab_nonvanishing(f, a, b)
                assert cert == h_surface(f, 1, -1, a, b), (f, a, b)
                cells += 1
                if b <= bmax and a <= f.ell - b:
                    witness += 1
                    assert cert.lo >= 1, (f, a, b)
    assert (cells, witness) == (17670, 5073)


# ------------------------------------------------------------------- predicates


def test_theorem_predicates_clean_on_reference_tuples():
    for params in (PS1, PS2, PS3, PS4):
        report = theorem_predicates(params)
        assert report.stronger == ()
        assert all(e.verdict == "confirmed" for e in report.entries)
        names = {e.theorem for e in report.entries}
        assert "h2_vanishes_high" in names
        assert "h1_nonzero_near_zero" in names
        assert "h0_zero_negative" in names
        assert "polarization_is_etilde_plus_root" in names


def test_theorem_predicates_report_json():
    report = theorem_predicates(PS1)
    blob = report.to_json()
    assert blob["params"] == PS1.to_json()
    assert blob["checks"] == len(report.entries)
    assert blob["confirmed"] == len(report.entries)
    assert blob["stronger"] == []


def _reference_entries(f, nneg_min):
    """theorem_predicates' listing written out one entry per n, as the oracle."""
    p, ell = f.p, f.ell
    want = [ThmEntry("h2_vanishes_high", n, "vanishing", ZERO_CERT, "confirmed")
            for n in range(p * (p + 1), p * (p + 1) + 3 * ell + 1)]
    for n in result1_range(f):
        cert = h_surface(f, 1, n)
        assert not cert.is_zero, (f, n)
        want.append(ThmEntry("h1_nonzero_near_zero", n, "nonvanishing", cert,
                             "confirmed" if cert.certainly_nonzero else "stronger"))
    if p in (2, 3):
        want += [ThmEntry("h1_zero_below_window", n, "vanishing", ZERO_CERT, "confirmed")
                 for n in range(nneg_min, h1_nonvanishing_window(f))]
    want += [ThmEntry("h0_zero_negative", n, "vanishing", ZERO_CERT, "confirmed") for n in range(nneg_min, 0)]
    assert polarization_class(f) == ClassX(1, f.dNl)
    want.append(ThmEntry("polarization_is_etilde_plus_root", None, "identity", None, "confirmed"))
    return tuple(want)


@pytest.mark.parametrize("nneg_min", [-NMAX, -40, -2, -1])
def test_report_expands_to_reference_listing(sweep_acceptance, nneg_min):
    for f in sweep_acceptance:
        report = theorem_predicates(f, nneg_min=nneg_min)
        want = _reference_entries(f, nneg_min)
        assert report.entries == want, (f, nneg_min)
        blob = report.to_json()
        assert blob["checks"] == len(want)
        assert blob["confirmed"] == sum(e.verdict == "confirmed" for e in want)


def test_shared_claims_follow_every_key_part():
    # The proven claims are memoized on (p, ell, nneg_min).  In a seeded
    # shuffle with a seeded nneg_min per call, consecutive calls often share
    # two of the three key parts and differ in the third, so a memo key
    # without p, ell or nneg_min hands a tuple another group's claims.  (A
    # strict cycle of nneg_min would change it on every call and hide a key
    # that drops p or ell.)
    rng = random.Random(29)
    tuples = list(enumerate_families(13, 40, 40))
    rng.shuffle(tuples)
    for f in tuples:
        nneg_min = rng.choice((-NMAX, -40, -1))
        report = theorem_predicates(f, nneg_min=nneg_min)
        entries = report.entries
        assert entries == _reference_entries(f, nneg_min), (f, nneg_min)
        # The tally read by checks, stronger, confirmed and to_json agrees
        # with the expanded listing.
        assert report.checks == len(entries)
        assert report.stronger == tuple(e for e in entries if e.verdict == "stronger")
        assert report.confirmed == report.checks - len(report.stronger)


def test_sweep_builds_each_group_claims_once(sweep_acceptance):
    # enumerate_families yields its tuples grouped by (p, ell), so the
    # one-entry memo of the proven claims misses once per group.
    for tuples, groups in ((list(enumerate_families(13, 40, 40)), 14), (sweep_acceptance, 8)):
        _proven_claims.cache_clear()
        for f in tuples:
            theorem_predicates(f)
        info = _proven_claims.cache_info()
        assert (info.misses, info.hits, info.currsize) == (groups, len(tuples) - groups, 1)
    assert len(sweep_acceptance) == 340


def test_theorem_memory_does_not_grow_with_ell():
    # The memo keeps claims, not direct-image rows.  On this ell = 240 Tango
    # tuple the report's peak is about 0.03 MB; caching the rows of its
    # 120-twist window reads 6.7 MB.  (At ell = 1020 the peak is 0.115 MB,
    # but tracemalloc slows that call from 0.8 to 19 s.)
    _proven_claims.cache_clear()
    tracemalloc.start()
    try:
        theorem_predicates(validate(239, 28681, 240, 240, 240, "tango"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20, peak


def test_claims_serialize_as_json(sweep_small):
    # A range n encodes as [first, last], both ends included; at nneg_min =
    # -1 the h1_zero_below_window ranges are empty and read [start, start - 1].
    ranges = empty = 0
    for f in sweep_small:
        for nneg_min in (-40, -1):
            for claim in theorem_predicates(f, nneg_min=nneg_min).claims:
                blob = json.loads(json.dumps(claim.to_json()))
                if isinstance(claim.n, range):
                    first, last = blob["n"]
                    assert (first, last + 1) == (claim.n.start, claim.n.stop), (f, claim)
                    assert list(range(first, last + 1)) == list(claim.n)
                    ranges += 1
                    empty += len(claim.n) == 0
                else:
                    assert blob["n"] == claim.n
                assert blob["h"] == (None if claim.cert is None else claim.cert.to_json())
                assert (blob["theorem"], blob["claim"], blob["verdict"]) == (claim.theorem, claim.claim, claim.verdict)
    assert ranges > empty > 0


def test_stored_claims_do_not_grow_with_window():
    # Each proven claim is one record holding its n-range, whatever nneg_min is.
    for params in (PS1, PS2, PS3, PS4):
        narrow = theorem_predicates(params, nneg_min=-1).claims
        wide = theorem_predicates(params, nneg_min=-NMAX).claims
        assert len(narrow) == len(wide), params


def test_report_counts_an_unresolved_check():
    unresolved = ThmEntry("h1_nonzero_near_zero", -1, "nonvanishing", Cert(0, 2), "stronger")
    proven = ThmEntry("h0_zero_negative", range(-5, 0), "vanishing", ZERO_CERT, "confirmed")
    report = ThmReport(PS1, (unresolved, proven))
    assert report.checks == 6
    assert report.stronger == (unresolved,)
    assert report.confirmed == report.checks - len(report.stronger) == 5
    assert [e.n for e in report.entries] == [-1, -5, -4, -3, -2, -1]
    blob = report.to_json()
    assert (blob["checks"], blob["confirmed"]) == (6, 5)
    assert blob["stronger"] == [unresolved.to_json()]
