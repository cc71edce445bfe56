from __future__ import annotations

import math
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raynaudsurf import (
    InvalidParams,
    Structure,
    SurfaceParams,
    enumerate_families,
    is_normal,
    is_prime,
    is_smooth,
    validate,
)

from conftest import PS1, PS3, PS4, time_limit


def _violations(*fields) -> list[str]:
    """InvalidParams.violations of SurfaceParams(*fields), or [] when it constructs."""
    try:
        SurfaceParams(*fields)
    except InvalidParams as err:
        return err.violations
    return []


def test_validate_ps1():
    params = validate(2, 4, 3, 3, 3, "tango")
    assert params == PS1
    assert params.dNl == 1
    assert params.dN == 1


def test_validate_rejects_bad_ell_divisibility():
    # ell = 3 with p = 3: 3 does not divide p+1 = 4 (and does not divide e or dD).
    with pytest.raises(InvalidParams) as err:
        validate(3, 4, 2, 2, 3, "pretango")
    viols = err.value.violations
    assert any("ell | p+1" in v and "3 does not divide 4" in v for v in viols)
    # The complete list is reported, not only the first failure.
    assert any("ell | e" in v for v in viols)
    assert any("ell | dD" in v for v in viols)
    # A field that is not an int stops the numeric checks, not the
    # structure check.
    assert _violations(2.0, 4, 3, 3, 3, "bogus") == [
        "ConstraintViolated(p is an integer): got 2.0",
        "ConstraintViolated(structure): 'bogus' is not 'tango' or 'pretango'",
    ]


def test_validate_tango_equality_case():
    params = validate(3, 7, 4, 4, 4, "tango")
    assert params == PS3
    assert params.p * params.dD == 2 * params.g - 2


def test_validate_rejects_composite_p():
    with pytest.raises(InvalidParams) as err:
        validate(4, 5, 2, 2, 2, "pretango")
    assert any(v.startswith("NotPrime(4)") for v in err.value.violations)


def test_validate_rejects_tango_without_equality():
    with pytest.raises(InvalidParams) as err:
        validate(5, 9, 3, 3, 3, "tango")  # 15 != 16
    assert any("Tango forces" in v for v in err.value.violations)
    # The pre-Tango variant of the same tuple is fine.
    assert validate(5, 9, 3, 3, 3, "pretango") == PS4


def test_structure_coercion_and_json_round_trip():
    params = validate(2, 4, 3, 3, 3, Structure.TANGO)
    assert SurfaceParams(2, 4, 3, 3, 3, "TANGO") == params
    assert SurfaceParams(**params.to_json()) == params


def _family_order(f: SurfaceParams) -> tuple:
    # The order enumerate_families promises: (p, ell, e, g, dD), then
    # "pretango" before "tango".
    return (f.p, f.ell, f.e, f.g, f.dD, f.structure.value)


def _brute_force_families(max_p: int, max_g: int, max_dD: int) -> list[SurfaceParams]:
    # Independent oracle: exhaustive filter of the whole box through the constructor.
    found = []
    for p in range(1, max_p + 1):
        for g in range(1, max_g + 1):
            for dD in range(1, max_dD + 1):
                for e in range(1, max_dD + 1):
                    for ell in range(1, max_dD + 1):
                        for st_ in (Structure.TANGO, Structure.PRETANGO):
                            if not _violations(p, g, dD, e, ell, st_):
                                found.append(SurfaceParams(p, g, dD, e, ell, st_))
    found.sort(key=_family_order)
    return found


def test_enumerate_families_matches_brute_force():
    assert list(enumerate_families(5, 10, 8)) == _brute_force_families(5, 10, 8)
    # p above max_g - 1 and ell above max_dD: the loop bounds cut both off.
    assert list(enumerate_families(11, 6, 4)) == _brute_force_families(11, 6, 4)


def test_enumeration_time_is_bounded_by_the_output():
    # p <= max_g - 1 and ell <= max_dD: a huge max_p adds no tuple and no time.
    with time_limit():
        fams = list(enumerate_families(20000, 40, 40))
    assert len(fams) == 2215
    assert fams == list(enumerate_families(40, 40, 40))


def test_enumerate_families_examples():
    assert PS1 in list(enumerate_families(2, 4, 3))
    assert SurfaceParams(3, 4, 2, 2, 2, Structure.TANGO) in list(enumerate_families(3, 4, 2))
    # p*dD <= 2g-2 would allow dD = 1, but no e >= 2 divides 1.
    assert list(enumerate_families(2, 2, 1)) == []


def test_enumerated_tuples_revalidate(sweep_small):
    for f in sweep_small:
        assert _violations(f.p, f.g, f.dD, f.e, f.ell, f.structure) == []


def test_enumeration_is_sorted_and_duplicate_free(sweep_small):
    keys = [_family_order(f) for f in sweep_small]
    assert keys == sorted(keys)
    assert len(set(sweep_small)) == len(sweep_small)


def test_degree_identities(sweep_small):
    for f in sweep_small:
        assert f.ell * f.dNl == f.dD
        assert f.e * f.dN == f.dD
        assert f.dNl >= 1 and f.dN >= 1
        assert (f.p + 1) % f.ell == 0 and f.ell <= f.p + 1
        assert f.ell - 1 <= f.p


def test_smooth_normal_predicates():
    assert is_smooth(PS1)
    assert not is_smooth(SurfaceParams(5, 9, 3, 3, 3, Structure.PRETANGO))
    assert is_normal(PS1) and is_normal(PS4)


def test_is_prime_small():
    assert [n for n in range(14) if is_prime(n)] == [2, 3, 5, 7, 11, 13]


class _Int(int):
    """An int subclass: accepted as an integer field, though not a plain int."""


# Plain ints in most draws, so valid tuples still come up; the other kinds
# exercise the per-field integer test, which plain ints skip.
_FIELD = st.one_of(
    st.integers(0, 30),
    st.integers(0, 30),
    st.integers(0, 30).map(_Int),
    st.booleans(),
    st.floats(0, 30),
    st.text(max_size=2),
)


@given(
    p=_FIELD,
    g=_FIELD,
    dD=_FIELD,
    e=_FIELD,
    ell=_FIELD,
    structure=st.sampled_from([Structure.TANGO, Structure.PRETANGO, "tango", "pretango", "TANGO", "x", None]),
)
# Valid tuples are rare among the draws: pin a few, with each kind of structure.
@example(p=2, g=4, dD=3, e=3, ell=3, structure="TANGO")
@example(p=_Int(5), g=9, dD=3, e=3, ell=3, structure="pretango")
@example(p=3, g=7, dD=4, e=4, ell=4, structure=Structure.TANGO)
@example(p=True, g=4.0, dD=3, e="3", ell=_Int(3), structure=None)
@settings(max_examples=500, deadline=None)
def test_check_decides_construction(p, g, dD, e, ell, structure):
    fields = (("p", p), ("g", g), ("dD", dD), ("e", e), ("ell", ell))
    bad = _violations(p, g, dD, e, ell, structure)
    # The non-integer fields lead the list, in field order, with one message each.
    untyped = [f"ConstraintViolated({name} is an integer): got {v!r}"
               for name, v in fields if not isinstance(v, int) or isinstance(v, bool)]
    assert bad[:len(untyped)] == untyped
    if bad:
        with pytest.raises(InvalidParams) as err:
            SurfaceParams(p, g, dD, e, ell, structure)
        assert err.value.violations == bad
    else:
        f = SurfaceParams(p, g, dD, e, ell, structure)
        assert isinstance(f.structure, Structure)
        assert is_prime(f.p) and gcd(f.e, f.p) == 1
        assert f.e % f.ell == 0 and (f.p + 1) % f.ell == 0
        assert f.dD % f.e == 0 and f.dD % f.ell == 0
        assert f.p * f.dD <= 2 * f.g - 2
        assert f.mstep * f.ell == f.p + 1


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n: int, b: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(b, d, n)
    return x == 1 or any(pow(x, 2**r, n) == n - 1 for r in range(s))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 10**5) if is_prime(n)] == [n for n in range(-3, 10**5) if _trial_division(n)]


def test_is_prime_rejects_carmichael_numbers():
    # (6k+1)(12k+1)(18k+1) with all three factors prime is a Carmichael
    # number (Chernick): a Fermat liar to every base coprime to it.
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041]
    for k in range(1, 3000):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(_trial_division(q) for q in factors):
            carmichael.append(math.prod(factors))
    assert len(carmichael) > 20 and max(carmichael) > 10**12
    for n in carmichael:
        assert not is_prime(n), n


# psi_k, the least strong pseudoprime to the first k prime bases, with its
# factors (k = 1..6, 8, 11, 12, 13); psi_13 is the bound of the proven range.
STRONG_PSEUDOPRIMES = {
    1: (23, 89),
    2: (829, 1657),
    3: (2251, 11251),
    4: (151, 751, 28351),
    5: (6763, 10627, 29947),
    6: (1303, 16927, 157543),
    8: (10670053, 32010157),
    11: (149491, 747451, 34233211),
    12: (399165290221, 798330580441),
    13: (1287836182261, 2575672364521),
}


def test_is_prime_rejects_strong_pseudoprimes():
    for k, factors in STRONG_PSEUDOPRIMES.items():
        n = math.prod(factors)
        assert all(_strong_probable_prime(n, b) for b in MR_BASES[:k]), n
        if k < 13:
            with time_limit():
                assert not is_prime(n), n
    # psi_13 fools all 13 bases, so the proven range stops below it: is_prime
    # refuses it, and SurfaceParams caps p there instead of claiming a primality.
    psi13 = math.prod(STRONG_PSEUDOPRIMES[13])
    with pytest.raises(ValueError):
        is_prime(psi13)
    assert any(v.startswith(f"ConstraintViolated(p < {psi13})") for v in _violations(psi13, 2, 2, 2, 2, "pretango"))
    assert any(v.startswith(f"ConstraintViolated(p < {psi13})") for v in _violations(2**89 - 1, 2, 2, 2, 2, "pretango"))


def test_is_prime_on_large_numbers():
    with time_limit():
        for n in (2**31 - 1, 10**9 + 7, 2**61 - 1):  # primes
            assert is_prime(n), n
        for n in ((2**31 - 1) * (10**9 + 7), 193707721 * 761838257287, (2**61 - 1) * 3):
            assert not is_prime(n), n
    assert 193707721 * 761838257287 == 2**67 - 1


def test_validate_large_tango_prime_in_bounded_time():
    # The Tango tuple p = 2^61 - 1, ell = e = dD = 2, g = p + 1.
    p = 2**61 - 1
    with time_limit():
        params = validate(p, p + 1, 2, 2, 2, "tango")
    assert params.p == p and params.dNl == 1
