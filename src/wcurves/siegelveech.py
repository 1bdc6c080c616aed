"""Siegel-Veech cylinder-counting constants and billiard coefficients.

Everything downstream of the prototype data stays exact; the only decimal
output is the final coefficient string, evaluated with mpmath at a caller
chosen number of significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .euler import _chis
from .exact import (
    QuadNum,
    _integer,
    _quadnum,
    check_discriminant,
    decompose_discriminant,
    is_square,
)
from .prototypes import (
    Prototype,
    _require_kind,
    _spin_applies,
    _spin_split,
    _w_cusps,
    lambda_of,
)

__all__ = [
    "SvReport",
    "billiards_coefficient",
    "billiards_constant",
    "sv_constant",
    "sv_constant_components",
    "sv_report",
    "unfolding_area",
    "unfolding_prototype",
    "v_of_prototype",
]


def _sv_applies(D: int) -> bool:
    """Whether the cylinder-counting constants are defined: nonsquare D >= 5."""
    return D >= 5 and not is_square(D)


def _check_sv_discriminant(D: int) -> None:
    check_discriminant(D, minimum=5)
    if not _sv_applies(D):
        raise ValueError(
            f"D={D} is a square: cylinder-counting constants are computed "
            "only in the nonsquare regime"
        )


def v_of_prototype(p: Prototype) -> QuadNum:
    """Cusp contribution (-c/gcd(a,c)) (1 - (a/c) lambda^2) (1 + 1/lambda^2).

    This QuadNum route is the test oracle for the closed form in _v_sums.
    """
    _require_kind(p, "W", "v_of_prototype")
    if not _sv_applies(p.D):  # a kind W D is checked and >= 5, so D is square
        _check_sv_discriminant(p.D)  # raises the square-regime error
    lam = lambda_of(p)
    lam2 = lam * lam
    lead = -p.c // math.gcd(p.a, p.c)
    out = lead * (1 - Fraction(p.a, p.c) * lam2) * (1 + lam2.inverse())
    assert out.sign1() > 0
    return out


def _v_sums(D: int) -> tuple[QuadNum, QuadNum]:
    """Sums of v over the W cusps of spin 0 and of spin 1.

    v depends on the triple (a, b, c) only:
    v = (D(a - c) + b(a + c) sqrt(D)) / (2|ac| gcd(a, c)), weighted by the
    number of residues q of the triple.  Outside the split regime every
    cusp counts toward the first sum.  Numerators are summed in integers
    per denominator, and the denominators are brought together once.
    D must already be checked.
    """
    split = _spin_applies(D)
    f = decompose_discriminant(D)[1] if split else 0
    sums = ({}, {})  # per spin: denominator -> [sum of k*x, sum of k*y]
    for a, b, c, n in _w_cusps(D):
        x, y = D * (a - c), b * (a + c)
        # x > 0, so x + y sqrt(D) > 0 unless y < 0 and y^2 D >= x^2
        assert y >= 0 or D * (a - c) ** 2 > y * y
        den = -2 * a * c * math.gcd(a, c)
        for eps, k in enumerate(_spin_split(a, b, c, n, f) if split else (n, 0)):
            if k:
                acc = sums[eps].setdefault(den, [0, 0])
                acc[0] += k * x
                acc[1] += k * y
    return _over_lcm(D, sums[0]), _over_lcm(D, sums[1])


def _over_lcm(D: int, sums: dict[int, list[int]]) -> QuadNum:
    """The sum of (x + y sqrt(D))/den over the items den: [x, y] of sums."""
    z = math.lcm(*sums)
    x = y = 0
    for den, (u, v) in sums.items():
        m = z // den
        x += u * m
        y += v * m
    return _quadnum(D, x, y, z)


def _constants(D: int) -> tuple[QuadNum, tuple[QuadNum, QuadNum] | None, QuadNum]:
    """(c, (c0, c1) or None, billiards constant) from one pass over the W cusps.

    For split D = 1 (mod 8) the component of the unfolded right triangle
    selects the spin ((1 + f) / 2) mod 2 constant; the W0 key marks a split.
    """
    _check_sv_discriminant(D)
    s0, s1 = _v_sums(D)
    chis = _chis(D)
    constant = (s0 + s1) / (-2 * chis["W"])
    if "W0" not in chis:
        return constant, None, constant
    components = (s0 / (-2 * chis["W0"]), s1 / (-2 * chis["W1"]))
    _, f = decompose_discriminant(D)
    return constant, components, components[((1 + f) // 2) % 2]


def sv_constant(D: int) -> QuadNum:
    """Siegel-Veech constant of the full W locus of discriminant D."""
    return _constants(D)[0]


def sv_constant_components(D: int) -> tuple[QuadNum, QuadNum]:
    """(c for spin 0, c for spin 1); needs nonsquare D = 1 (mod 8), D != 9."""
    components = _constants(D)[1]
    if components is None:
        raise ValueError(f"W is connected for D={D}: no per-component constants")
    return components


def billiards_constant(D: int) -> QuadNum:
    """The constant attached to the right triangle unfolding of discriminant D."""
    return _constants(D)[2]


def unfolding_prototype(D: int) -> Prototype:
    """The cusp prototype of the unfolded right triangle billiard."""
    _check_sv_discriminant(D)
    if D % 2:
        return Prototype("W", D, 1, -1, (1 - D) // 4, 0)
    return Prototype("W", D, 1, 0, -D // 4, 0)


def unfolding_area(D: int) -> QuadNum:
    """Area factor 1 - (a/c) lambda^2 of the unfolding prototype."""
    p = unfolding_prototype(D)
    lam = lambda_of(p)
    return 1 - Fraction(p.a, p.c) * lam * lam


def _real1(x: QuadNum) -> mpmath.mpf:
    out = mpmath.mpf(x.rat.numerator) / x.rat.denominator
    if x.rad:
        out += mpmath.mpf(x.rad.numerator) / x.rad.denominator * mpmath.sqrt(x.disc)
    return out


def _coefficient(c: QuadNum, area: QuadNum, digits: int) -> str:
    _integer(digits, "the coefficient", "digits", 1)
    with mpmath.workdps(digits + 15):
        val = _real1(c) * mpmath.pi / _real1(area)
        return mpmath.nstr(val, digits, strip_zeros=False)


def billiards_coefficient(D: int, digits: int = 50) -> str:
    """Decimal value of billiards_constant(D) * pi / unfolding_area(D)."""
    return _coefficient(billiards_constant(D), unfolding_area(D), digits)


@dataclass(frozen=True)
class SvReport:
    """Exact cylinder-counting data of one nonsquare discriminant."""

    D: int
    constant: QuadNum
    components: tuple[QuadNum, QuadNum] | None
    billiards: QuadNum
    area: QuadNum
    coefficient: str

    def to_json(self) -> dict:
        return {
            "D": self.D,
            "c": str(self.constant),
            "c0": str(self.components[0]) if self.components else None,
            "c1": str(self.components[1]) if self.components else None,
            "billiards": str(self.billiards),
            "area": str(self.area),
            "coefficient": self.coefficient,
        }


def sv_report(D: int, digits: int = 50) -> SvReport:
    constant, components, billiards = _constants(D)
    area = unfolding_area(D)
    return SvReport(
        D=D,
        constant=constant,
        components=components,
        billiards=billiards,
        area=area,
        coefficient=_coefficient(billiards, area, digits),
    )
