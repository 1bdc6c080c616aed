"""Siegel-Veech cylinder-counting constants and billiard coefficients.

Everything downstream of the prototype data stays exact; the only decimal
output is the final coefficient string, pi times an element of Q(sqrt D)
rounded to a caller chosen number of significant digits.  It is computed
in fixed-point integers, so the module needs no floating point and no
package outside the standard library.
"""

from __future__ import annotations

import math
from decimal import Decimal
from functools import lru_cache

from .euler import _chi_ints
from .exact import (
    QuadNum,
    _decompose,
    _factor,
    _integer,
    _quadnum,
    _record,
    check_discriminant,
    is_square,
)
from .prototypes import (
    Prototype,
    _new,
    _require_kind,
    _spin,
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

    It heads a chain of test oracles: this QuadNum route checks the scan
    `_v_sums`, and the scan checks the t-pass `_v_tpass`, in total and per
    spin.
    """
    _require_kind(p, "W", "v_of_prototype")
    if not _sv_applies(p.D):  # a kind W D is checked and >= 5, so D is square
        _check_sv_discriminant(p.D)  # raises the square-regime error
    lam = lambda_of(p)
    lam2 = lam * lam
    lead = -p.c // math.gcd(p.a, p.c)
    out = lead * (1 - lam2 * p.a / p.c) * (1 + lam2.inverse())
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
    f = _decompose(D)[1] if split else 0
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


def _v_tpass(D: int) -> QuadNum:
    """s0 of `_v_sums`, from one pass over t; s1 is 0 or its conjugate.

    b runs over b >= 0 with b = D (mod 2) and b^2 < D, and each
    t = (D - b^2)/4 is factored once.  By the pairing of `_t_sums`, the W
    triples of +-b with b > 0 take each factorization t = a * (t/a) once,
    and both triples of a pair a < t/a have v with rational part
    D (a - c)/(2t gcd(a, c)) and opposite sqrt(D) parts.  So the total
    s0 + s1 is D times the sum over b > 0 of P(t, b)/t, plus P(t, 0)/(2t)
    at b = 0, where P(t, b) is the sum over a | t of a h(m)/m, with
    m = gcd(a, t/a) and h the residue count of `_t_sums`.  The b = 0 term
    of `_t_sums` drops a = t/a = r, but here t = D/4 is not a square, as
    D is not.  P is multiplicative in t; its factor on p^e || t is
    sigma_1(p^e) = (p^(e+1) - 1)/(p - 1), or p^(e-1) (p + 1) when p | b
    and e >= 2.  Where W does not split, all of it is s0 and s1 = 0.

    Where W splits (D = 1 mod 8), b and the conductor f are odd and t is
    even.  By `_spin`, the paired triples of a < t/a have opposite spins
    unless a and t/a are both even: the parts (+-b - f)/2 differ by the
    odd b, and of a and t/a exactly one is even.  When both are even, the
    residues of each triple split evenly.  So each spin takes half of
    every pair's rational part, s0 and s1 are conjugate, and the two
    spins have the same number of two-cylinder cusps.  Of a pair, the
    triple (a, -b, -t/a) has the sqrt(D) part b (t/a - a) h(m)/(2t m) and
    the other triple its negative; (a, -b, -t/a) has spin 0 when
    (-b - f)/2 is even and a is odd, or odd and a is even.  So spin 0
    takes sigma(b) b (e - o) h(m)/(2t m), where o is the odd and e the
    even one of a and t/a, and sigma(b) = +1 when (-b - f)/2 is even and
    -1 otherwise: the comparison of a with t/a drops out.  Summed over
    the odd divisors o of t = 2^k u, u odd, the terms pair o with u/o and
    give (2^k - 1) P(u, b), where P(u, b) is P(t, b) without its factor
    2^(k+1) - 1 at p = 2 (2 does not divide b).  So s0 = T/2 + Y sqrt(D),
    with T the total and Y the sum over b > 0 of
    sigma(b) b (2^k - 1) P(u, b)/(2t).  D must already be checked as a
    nonsquare >= 5.
    """
    split = _spin_applies(D)
    f = _decompose(D)[1] if split else 0
    sums = {}  # t, or 2t at b = 0 or where W splits -> [x, y] of s0
    for b in range(D % 2, math.isqrt(D - 1) + 1, 2):
        t = (D - b * b) // 4
        P = 1
        for p, e in _factor(t):
            if e == 1:
                P *= p + 1
            elif b % p:
                P *= (p ** (e + 1) - 1) // (p - 1)
            else:
                P *= p ** (e - 1) * (p + 1)
        if split:
            k = (t & -t).bit_length() - 1  # 2^k || t; P's factor on it is 2^(k+1) - 1
            y = b * ((1 << k) - 1) * (P // ((2 << k) - 1))
            sums[2 * t] = [D * P, y if (b + f) % 4 == 0 else -y]
        else:
            sums[t if b else 2 * t] = [D * P, 0]
    s0 = _over_lcm(D, sums)
    # s0 is the total where W does not split.  Where it splits, s1 is the
    # conjugate, positive when s0 is under the second embedding, and then
    # the total s0 + s1 is positive too.
    assert s0.sign1() > 0 and (not split or s0.sign2() > 0)
    return s0


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
    """(c, (c0, c1) or None, billiards constant) of a checked D.

    Each constant is a sum of v over -2 chi, with chi that of W or of one
    spin, read as an integer pair from `euler._chi_ints`, so no Fraction
    is made.  W splits where `_spin_applies`.  The sums of v, in total and
    per spin, come from the t-pass `_v_tpass`, which scans no triple; the
    billiards constant is that of the spin of the unfolding prototype.  D
    must already be checked as a nonsquare discriminant >= 5.
    """
    d0, f = _decompose(D)
    _, chi_w, chi_spin, _, _ = _chi_ints(d0, f)
    s0 = _v_tpass(D)
    if not _spin_applies(D):
        constant = _per_chi(s0, *chi_w)
        return constant, None, constant
    s1 = s0.galois_conjugate()
    constant = _per_chi(s0 + s1, *chi_w)
    components = (_per_chi(s0, *chi_spin), _per_chi(s1, *chi_spin))
    return constant, components, components[_spin(1, *_unfolding(D), 0, f)]


def _per_chi(s: QuadNum, n: int, m: int) -> QuadNum:
    """s / (-2 chi) for chi = n/m < 0 with m > 0, as the product s * m/(-2n)."""
    return s._times(s.disc, m, 0, -2 * n)


def sv_constant(D: int) -> QuadNum:
    """Siegel-Veech constant of the full W locus of discriminant D."""
    _check_sv_discriminant(D)
    return _constants(D)[0]


def sv_constant_components(D: int) -> tuple[QuadNum, QuadNum]:
    """(c for spin 0, c for spin 1); needs nonsquare D = 1 (mod 8), D != 9."""
    _check_sv_discriminant(D)
    components = _constants(D)[1]
    if components is None:
        raise ValueError(f"W is connected for D={D}: no per-component constants")
    return components


def billiards_constant(D: int) -> QuadNum:
    """The constant attached to the right triangle unfolding of discriminant D."""
    _check_sv_discriminant(D)
    return _constants(D)[2]


def _unfolding(D: int) -> tuple[int, int]:
    """(b, c) of the unfolding prototype (1, b, c, 0) of a checked D."""
    return (-1, (1 - D) // 4) if D % 2 else (0, -D // 4)


def unfolding_prototype(D: int) -> Prototype:
    """The cusp prototype of the unfolded right triangle billiard."""
    _check_sv_discriminant(D)
    return _new(Prototype, ("W", D, 1, *_unfolding(D), 0))  # valid by construction


def _area(D: int) -> QuadNum:
    """1 - (a/c) lambda^2 for the unfolding prototype (1, b, c, 0) of a checked D.

    Computed in closed form, (D - b sqrt(D)) / (-2c), as D = b^2 - 4c.
    """
    b, c = _unfolding(D)
    return _quadnum(D, D, -b, -2 * c)


def unfolding_area(D: int) -> QuadNum:
    """Check D and return `_area(D)`, the area factor of the unfolding prototype."""
    _check_sv_discriminant(D)
    return _area(D)


def _over_area(D: int, c: QuadNum) -> QuadNum:
    """c / _area(D) for a checked D, as one product and no division.

    1/area = (D + b sqrt(D)) / (2D), as D = b^2 - 4c; at even D, b = 0 and
    the quotient is c/2.
    """
    return c._times(D, D, _unfolding(D)[0], 2 * D)


# Guard digits of the first fixed-point pass of _round_pi_times.
_GUARD = 10


def _arccot(x: int, unity: int) -> int:
    """unity * arccot(x) for an integer x >= 2, within k + 1 units for k terms.

    Each term floor(unity / x^(2j+1)) is exact, as a floor of floors; the
    division by 2j + 1 truncates once per term, and the series stops at the
    first zero term, beyond which the alternating tail is below one unit.
    """
    total = term = unity // x
    x2, k, sign = x * x, 1, -1
    while term:
        term //= x2
        k += 2
        total += sign * (term // k)
        sign = -sign
    return total


@lru_cache(maxsize=1)
def _pi_scaled(P: int) -> int:
    """An integer within 2 of pi * 10**P, for P >= 0.

    Machin's formula pi = 16 arccot(5) - 4 arccot(239) is summed at
    w = P + g places, g = 3 + len(str(P)).  Each arccot has at most w + 1
    terms, so the sum is within 20(w + 2) < 10**g units, and dividing by
    10**g leaves an integer within 2 of pi * 10**P.
    """
    g = 3 + len(str(P))
    unity = 10 ** (P + g)
    return (16 * _arccot(5, unity) - 4 * _arccot(239, unity)) // 10**g


def _round_pi_times(v: QuadNum, digits: int) -> tuple[int, int]:
    """(m, e) with pi * v = m * 10**(e + 1 - digits) rounded to nearest.

    v = (x + y sqrt(D))/z must be positive; 10**(digits - 1) <= m < 10**digits.
    At P places, with p = pi * 10**P + a (|a| < 2) and s = isqrt(D * 10**(2P))
    = sqrt(D) 10**P - b (0 <= b < 1), the integer

        A = p (x 10**P + y s) // (z 10**P)

    differs from T = pi v 10**P by less than err = 2v + pi|y|/z + 2|y|/z + 1,
    and err < (2|x| + (2r + 8)|y|)/z + 2 with r = isqrt(D).  Let A have n
    digits and u = 10**(n - digits).  Rounding A to a multiple of u gives the
    rounding of T when 2 err < u/10, so that a power of ten between A and T
    rounds the same from both sides, and when the remainder of A mod u is
    further than err from u/2.  Otherwise the guard digits are doubled and
    A is computed again.  T is pi times a nonzero element of Q(sqrt D), so
    it is irrational and never a tie: some precision always decides it.
    """
    x, y, z, D = v._x, v._y, v._z, v._d
    err = (2 * abs(x) + (2 * math.isqrt(D) + 8) * abs(y)) // z + 2
    guard = _GUARD
    while True:
        P = digits + guard
        scale = 10**P
        A = _pi_scaled(P) * (x * scale + y * math.isqrt(D * scale * scale)) // (z * scale)
        n = Decimal(A).adjusted() + 1 if A > 0 else 0
        if n > digits:
            u = 10 ** (n - digits)
            m, rem = divmod(A, u)
            if 20 * err < u and abs(2 * rem - u) > 2 * err:
                e = n - 1 - P
                if 2 * rem > u:
                    m += 1
                if m == 10**digits:
                    m, e = m // 10, e + 1
                return m, e
        guard = 2 * guard + 1


def _coefficient(v: QuadNum, digits: int) -> str:
    """pi * v to digits significant digits, rounded to nearest.

    v is c / area, formed once, in closed form, by `_over_area`.  The text
    is what mpmath.nstr(value, digits, strip_zeros=False) writes:
    fixed notation when the exponent e of the leading digit has
    min(-(digits // 3), -5) < e < digits, as in 15., and otherwise one
    digit, the point, the other digits and the exponent, as in 1.e+1.
    """
    _integer(digits, "the coefficient", "digits", 1)
    assert v.sign1() > 0  # a Siegel-Veech constant over an area, both positive
    m, e = _round_pi_times(v, digits)
    text = str(Decimal(m))  # no str(int) digit limit applies
    if not min(-(digits // 3), -5) < e < digits:
        return f"{text[0]}.{text[1:]}e{e:+d}"
    if e < 0:
        return "0." + "0" * (-e - 1) + text
    return f"{text[: e + 1]}.{text[e + 1 :]}"


def billiards_coefficient(D: int, digits: int = 50) -> str:
    """Decimal value of billiards_constant(D) * pi / unfolding_area(D).

    The quotient of the constant by the area is formed once, in closed form.
    """
    _check_sv_discriminant(D)
    return _coefficient(_over_area(D, _constants(D)[2]), digits)


class SvReport(_record("SvReport", "D constant components billiards area coefficient")):
    """Exact cylinder-counting data of one nonsquare discriminant."""

    __slots__ = ()

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
    _check_sv_discriminant(D)
    constant, components, billiards = _constants(D)
    coefficient = _coefficient(_over_area(D, billiards), digits)
    return _new(SvReport, (D, constant, components, billiards, _area(D), coefficient))
