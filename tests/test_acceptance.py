"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  All
tolerances are exact (integer certificates); nothing is calibrated later.

One check is deliberately left red, with the analysis kept alongside the
code rather than papered over:

* criterion 9: the twisted-family non-vanishing claim fails on 2061 of its
  2790 cells (1380 Exact(0), 681 Range).  The constants witness sits in
  summand i = ell-b, in row floor((ell-b-a)/ell), so it exists only for
  a <= ell-b (1260 of the Exact(0) cells have a > ell-b) and only where the
  symmetric power there is nonzero, which fails at b = ell-1 when
  ell = p+1; where the engine proves Exact(0), certifying a lower bound of
  1 would be unsound.  What the check should assert instead is not
  settled: the paper's (a, b) range is not recorded here.  The a-range
  itself now comes from the one eigensheaf formula used for every twist.
"""

from __future__ import annotations

import time

import pytest

from raynaudsurf import (
    Cert,
    cusp_exponents,
    fiber_genus,
    h1neg_closed_form,
    h_surface,
    is_ample_KX,
    is_smooth,
    kodaira_vanishing_KX,
    line_bundle_h0_bounds,
    local_cohomology,
    nonzero_negative_degrees,
    result1_range,
    selfint_Etilde,
    surface_cert,
    theorem_predicates,
    zab_nonvanishing,
)
from raynaudsurf.params import Structure

from conftest import PS1, PS2, PS3, PS4

ZERO = Cert.exact(0)


def _criterion(num: str, desc: str, failures: list) -> None:
    ok = not failures
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    if not ok:
        preview = "; ".join(str(f) for f in failures[:5])
        pytest.fail(f"criterion {num} failed on {len(failures)} case(s): {preview}")


def test_criterion_01_raynaud_char2_profile():
    failures = []
    if h_surface(PS1, 1, -1) != Cert.exact(1):
        failures.append(("n=-1", str(h_surface(PS1, 1, -1))))
    for n in range(-50, -1):
        if h_surface(PS1, 1, n) != ZERO:
            failures.append((n, str(h_surface(PS1, 1, n))))
    _criterion("01", "char-2 Raynaud case: h1 = Exact(1) at n=-1, Exact(0) on [-50,-2]", failures)


def test_criterion_02_raynaud_char3_profile():
    failures = []
    if not h_surface(PS2, 1, -1).certainly_nonzero:
        failures.append(("n=-1", str(h_surface(PS2, 1, -1))))
    for n in range(-50, -1):
        if h_surface(PS2, 1, n) != ZERO:
            failures.append((n, str(h_surface(PS2, 1, n))))
    _criterion("02", "char-3 Raynaud case: h1 nonzero at n=-1, Exact(0) on [-50,-2]", failures)


def test_criterion_03_ell4_profile():
    failures = []
    for n in (-1, -2):
        if not h_surface(PS3, 1, n).certainly_nonzero:
            failures.append((n, str(h_surface(PS3, 1, n))))
    for n in range(-40, -2):
        if h_surface(PS3, 1, n) != ZERO:
            failures.append((n, str(h_surface(PS3, 1, n))))
    _criterion("03", "(3,7,4,4,4): h1 nonzero at n=-1,-2, Exact(0) on [-40,-3]", failures)


def test_criterion_04_h2_vanishing_window(sweep_acceptance):
    failures = []
    t0 = time.monotonic()
    for f in sweep_acceptance:
        base = f.p * (f.p + 1)
        for n in range(base, base + 3 * f.ell + 1):
            if h_surface(f, 2, n) != ZERO:
                failures.append((f.to_json(), n))
    elapsed = time.monotonic() - t0
    if elapsed > 10.0:
        failures.append(f"sweep took {elapsed:.1f}s > 10s")
    _criterion("04", f"h2 = Exact(0) on [p(p+1), p(p+1)+3*ell] over {len(sweep_acceptance)} tuples ({elapsed:.1f}s)", failures)


def test_criterion_05_KX_ampleness_classification(sweep_acceptance):
    failures = [
        f.to_json()
        for f in sweep_acceptance
        if is_ample_KX(f) != ((f.p, f.ell) == (3, 4) or f.p >= 5)
    ]
    _criterion("05", "K_X ampleness matches the closed classification on the sweep", failures)


def test_criterion_06_kodaira_vanishing_for_KX(sweep_acceptance):
    failures = [f.to_json() for f in sweep_acceptance if f.p >= 5 and not kodaira_vanishing_KX(f)]
    if not kodaira_vanishing_KX(PS3):
        failures.append(PS3.to_json())
    _criterion("06", "H^1(X, K_X^-1) = 0 certified for p >= 5 and for (3,7,4,4,4)", failures)


def test_criterion_07_closed_form_equals_engine(sweep_acceptance):
    failures = []
    for f in sweep_acceptance:
        for n in range(-30, 0):
            if h1neg_closed_form(f, n) != h_surface(f, 1, n):
                failures.append((f.to_json(), n))
    _criterion("07", "negative-twist closed form == pushforward engine on the sweep", failures)


def test_criterion_08_h0_refined_and_predicates(sweep_acceptance):
    failures = []
    # On PS4, Z^1 pushes down to O_P (x) Nl (+) O_P(-2) (+) O_P(-3) twists,
    # so h0(Z^1) = h0(C, Nl) and the engine certifies exactly that interval.
    want = Cert(*line_bundle_h0_bounds(PS4, 1))
    if h_surface(PS4, 0, 1) != want:
        failures.append(("PS4 h0(Z^1)", str(h_surface(PS4, 0, 1)), str(want)))
    for f in sweep_acceptance:
        try:
            report = theorem_predicates(f)
        except Exception as err:  # TheoremContradicted is a hard failure
            failures.append((f.to_json(), repr(err)))
            continue
        if report.stronger:
            failures.append((f.to_json(), [e.to_json() for e in report.stronger]))
    _criterion("08", "h0(Z^1) = h0(C, Nl) on the pre-Tango p=5 tuple; predicate set clean on the sweep", failures)


def test_criterion_09_twisted_family_nonvanishing(sweep_acceptance):
    failures = []
    for f in sweep_acceptance:
        for a in range(1, 6):
            for b in range(1, f.ell):
                cert = zab_nonvanishing(f, a, b)
                if cert.lo < 1:
                    failures.append((f.to_json(), a, b, str(cert)))
    _criterion("09", "h1(X, Z_{a,b}^-1) certified >= 1 for a in [1,5], b in [1,ell-1]", failures)


def test_criterion_10a_chi_consistency(sweep_acceptance):
    failures = []
    cells = 0
    for f in sweep_acceptance:
        top = f.p * (f.p + 1) + 3 * f.ell
        for n in range(-20, top + 1):
            sc = surface_cert(f, n)
            if sc.h0.is_exact and sc.h1.is_exact and sc.h2.is_exact:
                cells += 1
                if sc.chi != sc.h0.lo - sc.h1.lo + sc.h2.lo:
                    failures.append((f.to_json(), n))
    assert cells > 1000
    _criterion("10a", f"chi = h0 - h1 + h2 on all {cells} fully-Exact cells", failures)


def test_criterion_10b_chi_quadratic_growth(sweep_acceptance):
    failures = []
    for f in sweep_acceptance:
        base = f.p * (f.p + 1)
        xs = [surface_cert(f, n).chi for n in range(base, base + 6)]
        third = [xs[i + 3] - 3 * xs[i + 2] + 3 * xs[i + 1] - xs[i] for i in range(3)]
        if any(third):
            failures.append((f.to_json(), xs))
    _criterion("10b", "chi(n) interpolates as a degree-2 polynomial for n >= p(p+1)", failures)


def test_criterion_11_invariant_values():
    failures = []
    for f in (PS1, PS2, PS3, PS4):
        from fractions import Fraction

        if selfint_Etilde(f) != Fraction(f.dD, f.ell):
            failures.append((f.to_json(), "Etilde^2"))
        if fiber_genus(f) != (f.ell - 1) * (f.p - 1) // 2:
            failures.append((f.to_json(), "fiber genus"))
        if cusp_exponents(f) != (f.ell, f.p):
            failures.append((f.to_json(), "cusp"))
        if is_smooth(f) != (f.structure is Structure.TANGO):
            failures.append((f.to_json(), "smoothness"))
    _criterion("11", "Etilde^2, fiber genus, cusp pair and smoothness on PS1-PS4", failures)


def test_criterion_12_section_ring_profile(sweep_acceptance):
    failures = []
    for f in (PS1, PS2, PS3, PS4):
        for j in (0, 1):
            for n in range(-10, 11):
                if local_cohomology(f, j, n) != ZERO:
                    failures.append((f.to_json(), j, n))
    for f in sweep_acceptance:
        if f.p in (2, 3):
            got = nonzero_negative_degrees(f, -40)
            if got != result1_range(f):
                failures.append((f.to_json(), got))
    _criterion("12", "[H^j_m]_n = 0 for j <= 1; negative nonzero set of H^2_m matches the window", failures)
