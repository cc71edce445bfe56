"""Parameter validation, derived degrees, and family enumeration.

A surface in the family is fixed by six numbers: the characteristic p, the
genus g of the base curve C, the degree dD of the divisor D realizing the
(pre-)Tango structure (df) >= pD > 0, the root order e with O(D) = N^e, the
cyclic cover degree ell (dividing both e and p+1), and whether the structure
is Tango ((df) = pD, which forces p*dD = 2g-2) or merely pre-Tango.  Every
quantity computed elsewhere in the package is a pure function of a validated
tuple.  Existence of an actual curve carrying the structure is not checked;
only the numeric constraints are enforced.
"""

from __future__ import annotations

from enum import Enum
from math import gcd
from typing import Iterator, NamedTuple

__all__ = [
    "Structure",
    "SurfaceParams",
    "InvalidParams",
    "is_prime",
    "validate",
    "enumerate_families",
    "is_smooth",
    "is_normal",
]


class Structure(Enum):
    """Tango means (df) = pD exactly; pre-Tango only (df) >= pD."""

    TANGO = "tango"
    PRETANGO = "pretango"


class InvalidParams(ValueError):
    """Candidate tuple violating the family constraints.

    Carries the complete list of violations, not just the first one, so a
    caller can report everything that is wrong with an exploratory input.
    """

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


# The first 13 primes, and the least n that is a strong pseudoprime to all
# of them (Sorenson and Webster, Math. Comp. 86 (2017)): below it, Miller-Rabin
# on these bases decides primality.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality for n < 3317044064679887385961981.

    A lookup up to 41, then Miller-Rabin to every base, which is proven
    correct below the bound.  An n at or above the bound raises ValueError:
    the bound itself passes all 13 tests and is composite.  SurfaceParams
    states the bound as a cap on p instead.
    """
    if n <= 41:
        return n in _MR_BASES
    if n >= _MR_BOUND:
        raise ValueError(f"primality is proven only below {_MR_BOUND}, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _coerce_structure(structure: object) -> Structure | None:
    if isinstance(structure, Structure):
        return structure
    if isinstance(structure, str):
        try:
            return Structure(structure.lower())
        except ValueError:
            return None
    return None


def _check_and_coerce(p, g, dD, e, ell, structure) -> tuple[list[str], Structure | None]:
    """Every violated constraint (empty when valid) and the coerced structure, from one pass.

    SurfaceParams.__new__ reads both, so a tuple is checked and its
    structure coerced once; InvalidParams carries the violations.
    """
    bad: list[str] = []
    # Plain ints, the common case, pass in one chain; anything else (an int
    # subclass included) goes through the per-field test and its messages.
    if not (type(p) is int and type(g) is int and type(dD) is int and type(e) is int and type(ell) is int):
        for name, v in (("p", p), ("g", g), ("dD", dD), ("e", e), ("ell", ell)):
            if not isinstance(v, int) or isinstance(v, bool):
                bad.append(f"ConstraintViolated({name} is an integer): got {v!r}")
    typed = not bad
    st = _coerce_structure(structure)
    if st is None:
        bad.append(
            f"ConstraintViolated(structure): {structure!r} is not 'tango' or 'pretango'"
        )
    if not typed:
        return bad, st
    if p >= _MR_BOUND:
        bad.append(f"ConstraintViolated(p < {_MR_BOUND}): p = {p}")
    elif not is_prime(p):
        bad.append(f"NotPrime({p})")
    if g < 2:
        bad.append(f"ConstraintViolated(g >= 2): g = {g}")
    if dD < 1:
        bad.append(f"ConstraintViolated(dD >= 1): dD = {dD}")
    if e < 2:
        bad.append(f"ConstraintViolated(e >= 2): e = {e}")
    if ell < 2:
        bad.append(f"ConstraintViolated(ell >= 2): ell = {ell}")
    if gcd(e, p) != 1:
        bad.append(f"ConstraintViolated(gcd(e, p) = 1): gcd({e}, {p}) = {gcd(e, p)}")
    if ell >= 1 and e % ell != 0:
        bad.append(f"ConstraintViolated(ell | e): {ell} does not divide {e}")
    if ell >= 1 and (p + 1) % ell != 0:
        bad.append(f"ConstraintViolated(ell | p+1): {ell} does not divide {p + 1}")
    if e >= 1 and dD % e != 0:
        bad.append(f"ConstraintViolated(e | dD): {e} does not divide {dD}")
    if ell >= 1 and dD % ell != 0:
        bad.append(f"ConstraintViolated(ell | dD): {ell} does not divide {dD}")
    if p * dD > 2 * g - 2:
        bad.append(f"ConstraintViolated(p*dD <= 2g-2): {p * dD} > {2 * g - 2}")
    if st is Structure.TANGO and p * dD != 2 * g - 2:
        bad.append(
            f"ConstraintViolated(Tango forces p*dD = 2g-2): {p * dD} != {2 * g - 2}"
        )
    return bad, st


class _Checked(tuple):
    """Base of the records whose __new__ checks or coerces their fields.

    A NamedTuple may not define __new__, so such a record subclasses its
    fields' NamedTuple; tuple._make, and so _replace, would then skip the
    check, and this _make goes through __new__.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _SurfaceParamsFields(NamedTuple):
    p: int
    g: int
    dD: int
    e: int
    ell: int
    structure: Structure


class SurfaceParams(_Checked, _SurfaceParamsFields):
    """Validated tuple (p, g, dD, e, ell, structure).

    Construction is the one place a tuple is checked: it raises
    InvalidParams with every violated constraint, and it coerces a
    structure given as a string to Structure.
    """

    __slots__ = ()

    def __new__(cls, p: int, g: int, dD: int, e: int, ell: int, structure: object):
        bad, st = _check_and_coerce(p, g, dD, e, ell, structure)
        if bad:
            raise InvalidParams(bad)
        return tuple.__new__(cls, (p, g, dD, e, ell, st))

    @property
    def dN(self) -> int:
        """deg N, with O(D) = N^e."""
        return self.dD // self.e

    @property
    def dNl(self) -> int:
        """deg Nl, with Nl = N^(e/ell) the ell-th root of O(D)."""
        return self.dD // self.ell

    @property
    def mstep(self) -> int:
        """(p+1)/ell, exact as ell | p+1.

        The O_P(1)-exponent drop of M = O_P(-(p+1)/ell) (x) pi^* Nl^p, so
        M^i drops i times it.
        """
        return (self.p + 1) // self.ell

    def sort_key(self) -> tuple:
        return (self.p, self.ell, self.e, self.g, self.dD, self.structure.value)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "g": self.g,
            "dD": self.dD,
            "e": self.e,
            "ell": self.ell,
            "structure": self.structure.value,
        }


def validate(p: int, g: int, dD: int, e: int, ell: int, structure: object) -> SurfaceParams:
    """Validate a raw tuple; raise InvalidParams with every violated constraint."""
    return SurfaceParams(p, g, dD, e, ell, structure)


def enumerate_families(max_p: int, max_g: int, max_dD: int) -> Iterator[SurfaceParams]:
    """Yield every valid tuple with p <= max_p, g <= max_g, dD <= max_dD.

    The loops nest in sort_key order, (p, ell, e, g, dD, structure), so the
    tuples come out sorted; both the Tango and the pre-Tango variant are
    yielded whenever their bounds hold.  The bounds are checked when the
    first tuple is requested.
    """
    if max_p < 1 or max_g < 1 or max_dD < 1:
        raise ValueError("bounds must be positive")
    # dD >= e >= ell >= 2 bounds the loops by the output: p*dD <= 2g-2 gives
    # p <= max_g - 1, ell <= max_dD, and g >= (p*e + 2)/2.
    for p in range(2, min(max_p, max_g - 1) + 1):
        if not is_prime(p):
            continue
        for ell in range(2, min(p + 1, max_dD) + 1):
            if (p + 1) % ell != 0:
                continue
            for e in range(ell, max_dD + 1, ell):
                if gcd(e, p) != 1:
                    continue
                for g in range(max(2, (p * e + 3) // 2), max_g + 1):
                    for dD in range(e, min(max_dD, (2 * g - 2) // p) + 1, e):
                        yield SurfaceParams(p, g, dD, e, ell, Structure.PRETANGO)
                        if p * dD == 2 * g - 2:
                            yield SurfaceParams(p, g, dD, e, ell, Structure.TANGO)


def is_smooth(params: SurfaceParams) -> bool:
    """The cover is smooth exactly when the branch curve is, i.e. Tango."""
    return params.structure is Structure.TANGO


def is_normal(params: SurfaceParams) -> bool:
    """Every surface in the family is normal and Cohen-Macaulay (Serre's criterion).

    Over the smooth ruled surface P, X is locally z^ell = h, with h a reduced
    equation of the branch curve E + C' (E and C' disjoint): a hypersurface
    in a smooth threefold, so Cohen-Macaulay and S2.  As p does not divide
    ell (ell | p+1), the Jacobian criterion puts the singular points of X
    over those of E + C', which are finitely many as the curve is reduced:
    R1.  E is a section, and C' is smooth exactly when the tuple is Tango
    (is_smooth).
    """
    return True
