from __future__ import annotations

import math
from fractions import Fraction

import pytest

from raynaudsurf import (
    Cert,
    PTerm,
    Structure,
    SurfaceParams,
    TwistedSym,
    canonical_X,
    certify,
    chi,
    decompose_twist,
    h1_nonvanishing_window,
    h1neg_closed_form,
    h_surface,
    intersect_X,
    is_smooth,
    polarization_class,
    reduce_term,
    result1_range,
    surface_cert,
    theorem_predicates,
    zab_nonvanishing,
)
from raynaudsurf.cli import main
from raynaudsurf.surfcoh import NMAX

from conftest import PS1, PS2, PS3, PS4


# ---------------------------------------------------------------- decomposition


def _oracle_decompose(params, n):
    # Independent enumeration: push each graded piece M^i (exact fractions,
    # then certified-integral) through the twist.  The E-twist of summand i
    # comes from the valuation condition, whatever the sign of n: f*z^i
    # (z^ell = the equation of E) has a pole of order at most n along Etilde
    # iff ell*v_E(f) + i >= -n, i.e. v_E(f) >= ceil((-n-i)/ell).
    ell, p = params.ell, params.p
    drop = [Fraction(i * (p + 1), ell) for i in range(ell)]
    assert all(d.denominator == 1 for d in drop)
    drop = [int(d) for d in drop]
    return [PTerm(-math.ceil(Fraction(-n - i, ell)) - drop[i], i * p + n) for i in range(ell)]


def test_decompose_examples():
    assert list(decompose_twist(PS1, -1, -1)) == [PTerm(-1, -1), PTerm(-1, 1), PTerm(-2, 3)]
    assert list(decompose_twist(PS1, 0, 0)) == [PTerm(0, 0), PTerm(-1, 2), PTerm(-2, 4)]
    assert list(decompose_twist(PS3, 1, 1)) == [
        PTerm(0, 1),
        PTerm(-1, 4),
        PTerm(-2, 7),
        PTerm(-2, 10),
    ]


# An ell = 24 Tango surface: the largest ell the benchmark's tables workload draws.
ELL24 = SurfaceParams(23, 277, 24, 24, 24, Structure.TANGO)


def test_decompose_matches_oracle(sweep_small):
    cases = [(f, range(-12, 13)) for f in sweep_small[:25]]
    cases.append((ELL24, range(-72, 73)))
    for f, ns in cases:
        for n in ns:
            assert list(decompose_twist(f, n, n)) == _oracle_decompose(f, n), (f, n)
            assert len(decompose_twist(f, n, n)) == f.ell


def test_decompose_twist_generalizes():
    # Z_{2,1}^{-1} has the Etilde exponent doubled but the Nl twist kept:
    # on PS1 (p = 2, ell = 3) summand i is PTerm([(i-2)/3] - i, 2i - 1).
    terms = decompose_twist(PS1, -2, -1)
    assert list(terms) == [PTerm(-1, -1), PTerm(-2, 1), PTerm(-2, 3)]


# -------------------------------------------------------------------- reduction


def test_reduce_term_examples():
    assert reduce_term(PS1, PTerm(-1, 5)) == (None, None)
    assert reduce_term(PS1, PTerm(-2, 3)) == (None, TwistedSym(True, 0, 0))
    assert reduce_term(PS1, PTerm(2, 5)) == (TwistedSym(False, 2, 5), None)
    assert reduce_term(PS1, PTerm(0, 0)) == (TwistedSym(False, 0, 0), None)
    assert reduce_term(PS1, PTerm(-3, 1)) == (None, TwistedSym(True, 1, -2))


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
            rr = chi0 + (intersect_X(f, zn, zn) - intersect_X(f, zn, kx)) / 2
            if surface_cert(f, n).chi != rr:
                misses.append((f, n))
    assert misses == [], (len(misses), misses[:5])


def _intervals_meet(c, d):
    hi = min(x for x in (c.hi, d.hi, math.inf) if x is not None)
    return max(c.lo, d.lo) <= hi


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


def test_chi_example_ps1():
    sc = surface_cert(PS1, -1)
    assert sc.chi == 3
    assert (sc.h0, sc.h1, sc.h2) == (Cert.exact(0), Cert.exact(1), Cert.exact(4))


def test_term_records_carry_reductions():
    sc = surface_cert(PS1, -1)
    assert [r.term for r in sc.terms] == list(decompose_twist(PS1, -1, -1))
    assert sc.terms[0].pushforward is None and sc.terms[0].derived is None
    last = sc.terms[2]
    assert last.derived is not None
    assert last.derived.sheaf == TwistedSym(True, 0, 0)
    assert last.chi == -chi(PS1, TwistedSym(True, 0, 0)) == 3
    assert sum(r.chi for r in sc.terms) == sc.chi


def test_cache_bound_drops_no_hit_and_stays_bounded(sweep_acceptance, capsys):
    # Each window command's reuse must fit in surface_cert's 2*NMAX + 1
    # entries: the counts are those of an unbounded cache.  theorem_predicates
    # reads degree-only h_surface, so a sweep never reaches the cache, and
    # certify keeps nothing.
    flags = ["-p", "2", "-g", "4", "--dD", "3", "-e", "3", "--ell", "3", "--tango"]
    window = ["--nmin", str(-NMAX), "--nmax", str(NMAX)]
    for argv, hits in ((["table", *flags, "--i", "0,1,2", *window], 402), (["section-ring", *flags, *window], 201)):
        surface_cert.cache_clear()
        assert main(argv) == 0
        info = surface_cert.cache_info()
        assert (info.misses, info.hits) == (2 * NMAX + 1, hits), argv
    capsys.readouterr()

    surface_cert.cache_clear()
    for f in sweep_acceptance:
        theorem_predicates(f, nneg_min=-NMAX)
    info = surface_cert.cache_info()
    assert (info.misses, info.hits) == (0, 0)
    assert certify.cache_info().currsize == 0


def test_h_surface_equals_full_certificate(sweep_acceptance):
    # The degree-only query certifies a subset of the sides surface_cert
    # certifies and must sum them to the same interval.
    cells = 0
    for f in sweep_acceptance:
        keys = [(n, 1, 1) for n in range(-30, f.p * (f.p + 1) + 3 * f.ell + 1)]
        keys += [(-1, a, b) for a in range(1, 4) for b in range(1, f.ell)]
        for n, a, b in keys:
            sc = surface_cert(f, n, a, b)
            for i in range(3):
                assert h_surface(f, i, n, a, b) == sc.h(i), (f, i, n, a, b)
                cells += 1
    assert cells == 64392


def test_h0_and_h2_checks_certify_nothing(sweep_acceptance):
    # For n < 0 every term has mtw < 0, so no pi_* side; from n = p(p+1) on
    # every term has mtw >= -1, so no R^1 pi_* side.  h0_zero_negative and
    # h2_vanishes_high therefore read no curve certificate, and the certify
    # calls of theorem_predicates are those of its h^1 entries: one per
    # present side of each of their terms (h^1 reads both sides).
    for f in sweep_acceptance:
        before = certify.cache_info().misses
        report = theorem_predicates(f)
        made = certify.cache_info().misses - before
        h1_sides = sum(
            side is not None
            for e in report.entries
            if e.theorem.startswith("h1_")
            for term in decompose_twist(f, e.n, e.n)
            for side in reduce_term(f, term)
        )
        assert made == h1_sides, f


# ---------------------------------------------------------------- closed forms


def test_h1neg_closed_form_examples():
    assert h1neg_closed_form(PS2, -1) == Cert.exact(1)
    assert h1neg_closed_form(PS3, -2) == Cert.exact(1)
    assert h1neg_closed_form(PS1, -7) == Cert.exact(0)
    with pytest.raises(ValueError):
        h1neg_closed_form(PS1, 0)


def test_closed_forms_agree_with_engine(sweep_small):
    for f in sweep_small[:25]:
        for n in range(-30, 0):
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


def test_small_p_vanishing_below_window(sweep_small):
    for f in sweep_small:
        if f.p in (2, 3):
            for n in range(-40, h1_nonvanishing_window(f)):
                assert h_surface(f, 1, n) == Cert.exact(0), (f, n)


# -------------------------------------------------------------- twisted family


def test_zab_examples():
    assert zab_nonvanishing(PS1, 1, 1) == Cert.at_least(1)
    # On PS2 (p = 3, ell = 2) the witness summand i = ell-b = 1 of
    # Z_{2,1}^{-1} lies in row [(1-2)/2] = -1: it is PTerm(-3, 2), whose
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
    # The constructive bound must stay inside the engine interval.
    for f in sweep_small[:15]:
        for a in (1, 2, 5):
            for b in range(1, f.ell):
                lo = zab_nonvanishing(f, a, b).lo
                eng = h_surface(f, 1, -1, a, b)
                assert eng.hi is None or lo <= eng.hi, (f, a, b)


def test_zab_corrected_window_always_fires(sweep_small):
    # Sound version of the non-vanishing family: for b within the window
    # b <= ell - ceil(2 ell / (p+1)) and a <= ell - b (the witness summand
    # i = ell-b in row 0) the constants always embed.  For larger a the
    # witness sits in a lower row and the engine certificate is returned.
    for f in sweep_small:
        bmax = f.ell - math.ceil(Fraction(2 * f.ell, f.p + 1))
        for b in range(1, bmax + 1):
            for a in (1, 3, 5):
                cert = zab_nonvanishing(f, a, b)
                if a <= f.ell - b:
                    assert cert.lo >= 1, (f, a, b)
                else:
                    assert cert == h_surface(f, 1, -1, a, b), (f, a, b)


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
