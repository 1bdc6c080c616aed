"""Exact arithmetic over real quadratic orders.

A QuadNum is an element rat + rad*sqrt(disc) of Q[sqrt(disc)] for an
integer discriminant disc >= 1 with disc = 0 or 1 (mod 4).  It is held in
integers as (x + y*sqrt(disc))/z, with z > 0 and gcd(x, y, z) = 1, so each
value has one form.  An arithmetic result is built from the integers of
its operands and reduced with one three-argument gcd; no Fraction is made
on the way.  Its coordinates rat = x/z and rad = y/z, its norm, and the
other rationals of this module are fractions.Fraction.  Square
discriminants are allowed: Q[sqrt(d^2)] is isomorphic to Q (+) Q, and it
has zero divisors.

The module also owns the input rules that every layer asks.  The integer
rule (`_is_integer`, and `_integer` that raises) accepts an int that is
not a bool and is at least a stated minimum where there is one; the
public integer helpers below check their arguments with it, and the
predicates `is_square` and `is_discriminant` return False where it
fails.  The name rule `_is_name` accepts a str that a table of kind or
class names holds.  The range walker `_discriminants` yields each
discriminant of [dmin, dmax] at or above a minimum, ascending; the CLI,
`verify_range` and `h_table` walk their ranges with it.

The value records of every layer are named tuples made by `_record`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "QuadNum",
    "check_discriminant",
    "decompose_discriminant",
    "divisors",
    "euler_phi",
    "is_discriminant",
    "is_square",
    "kronecker",
    "mobius",
    "mobius_weighted_sum",
    "sigma",
]


def _is_integer(value, minimum: int | None = None) -> bool:
    """The integer rule: an int, not a bool, and >= minimum when one is given."""
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and (minimum is None or value >= minimum)
    )


def _integer(value, func: str, param: str, minimum: int | None = None) -> None:
    """Raise a ValueError naming func and param unless value meets the integer rule."""
    if not _is_integer(value, minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{func} needs an integer {param}{bound}, got {value!r}")


def _is_name(value, names) -> bool:
    """The name rule: a str that names holds, so no other value is looked up."""
    return isinstance(value, str) and value in names


def _discriminants(dmin: int, dmax: int, minimum: int = 1):
    """Each D in [dmin, dmax] with D >= minimum and D = 0 or 1 (mod 4), ascending."""
    _integer(dmin, "a discriminant range", "dmin")
    _integer(dmax, "a discriminant range", "dmax")
    return (D for D in range(max(dmin, minimum), dmax + 1) if D % 4 in (0, 1))


def is_square(n: int) -> bool:
    if not _is_integer(n, 0):
        return False
    r = math.isqrt(n)
    return r * r == n


def is_discriminant(D: int, minimum: int = 1) -> bool:
    return _is_integer(D, minimum) and D % 4 in (0, 1)


def check_discriminant(D: int, minimum: int = 1) -> None:
    if not is_discriminant(D, minimum):
        raise ValueError(
            f"invalid discriminant {D!r}: need an integer >= {minimum} "
            "congruent to 0 or 1 mod 4"
        )


# The factorizations kept.  An euler sweep over 1,500 consecutive D asks
# for 1,891, so it evicts none; a longer sweep stays in bounded memory.
_FACTOR_CACHE = 4096


def _record(name: str, fields: str) -> type:
    """A named tuple class whose instances equal only records of their own class.

    Tuple equality alone would make a record equal to a plain tuple, or
    to a record of another class, that holds the same values.  The hash
    stays tuple.__hash__, the hash of the field tuple.  A record class
    subclasses the result, with __slots__ = () unless it needs a __dict__.
    """
    eq = tuple.__eq__

    def __eq__(self, other):
        return self.__class__ is other.__class__ and eq(self, other)

    base = namedtuple(name, fields)
    # object.__ne__ negates __eq__, where tuple.__ne__ would ignore the class.
    base.__eq__, base.__ne__, base.__hash__ = __eq__, object.__ne__, tuple.__hash__
    return base


@lru_cache(maxsize=_FACTOR_CACHE)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with p increasing."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    out = []
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        out.append((2, e))
    p = 3
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1 in increasing order."""
    _integer(n, "divisors", "n", 1)
    out = [1]
    for p, e in _factor(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def sigma(m: int, n: int) -> Fraction:
    """Divisor power sum sigma_m(n) for m in {1, 3} and an integer n.

    Negative arguments give 0; the boundary value sigma_m(0) is the
    zeta-regularized zeta(-m)/2, i.e. -1/24 for m = 1 and 1/240 for m = 3.
    """
    _integer(m, "sigma", "m")
    if m not in (1, 3):
        raise ValueError(f"sigma is implemented for m in {{1, 3}}, got {m}")
    _integer(n, "sigma", "n")
    if n < 0:
        return Fraction(0)
    if n == 0:
        return Fraction(-1, 24) if m == 1 else Fraction(1, 240)
    total = 1
    for p, e in _factor(n):
        total *= (p ** (m * (e + 1)) - 1) // (p**m - 1)
    return Fraction(total)


def mobius(n: int) -> int:
    _integer(n, "mobius", "n", 1)
    fac = _factor(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int) -> int:
    _integer(n, "euler_phi", "n", 1)
    out = n
    for p, _ in _factor(n):
        out = out // p * (p - 1)
    return out


def _kronecker_prime(a: int, p: int) -> int:
    if p == 2:
        if a % 2 == 0:
            return 0
        return 1 if a % 8 in (1, 7) else -1
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a / n) for n >= 1, completely multiplicative in n."""
    _integer(a, "kronecker", "a")
    _integer(n, "kronecker", "n", 1)
    out = 1
    for p, e in _factor(n):
        s = _kronecker_prime(a, p)
        if s == 0:
            return 0
        out *= s**e
    return out


def decompose_discriminant(D: int) -> tuple[int, int]:
    """Split D = f^2 * D0 with D0 a fundamental discriminant or 1.

    Returns (D0, f).  Square D returns (1, isqrt(D)).
    """
    check_discriminant(D)
    return _decompose(D)


def _decompose(D: int) -> tuple[int, int]:
    """decompose_discriminant for a D that is already checked."""
    kernel = 1
    for p, e in _factor(D):
        if e % 2:
            kernel *= p
    d0 = kernel if kernel % 4 == 1 else 4 * kernel
    f = math.isqrt(D // d0)
    assert f * f * d0 == D
    return d0, f


def mobius_weighted_sum(d0: int, n: int) -> Fraction:
    """Sum over r | n of kronecker(d0, r) * mobius(r) / r^2.

    Computed as its Euler product over the primes p | n of
    1 - kronecker(d0, p) / p^2.
    """
    _integer(d0, "mobius_weighted_sum", "d0")
    _integer(n, "mobius_weighted_sum", "n", 1)
    return Fraction(*_mobius_ints(d0, n))


def _mobius_ints(d0: int, n: int) -> tuple[int, int]:
    """mobius_weighted_sum of checked arguments as an unreduced (num, den)."""
    num = den = 1
    for p, _ in _factor(n):
        num *= p * p - _kronecker_prime(d0, p)
        den *= p * p
    return num, den


def _scalar(k) -> tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction."""
    if isinstance(k, (int, Fraction)):
        return k.numerator, k.denominator
    raise TypeError(f"expected an int or Fraction, got {type(k).__name__}")


def _quadnum(disc: int, x: int, y: int, z: int) -> "QuadNum":
    """(x + y*sqrt(disc))/z for a checked disc and z > 0, with no validation.

    The one builder of arithmetic results: it divides out gcd(x, y, z).
    """
    g = math.gcd(x, y, z)
    if g != 1:
        x //= g
        y //= g
        z //= g
    out = object.__new__(QuadNum)
    out._d = disc
    out._x = x
    out._y = y
    out._z = z
    return out


class QuadNum:
    """rat + rad*sqrt(disc), held as (x + y*sqrt(disc))/z in integers.

    z > 0 and gcd(x, y, z) = 1, so each value has one form.  disc, rat and
    rad are read-only; rat = x/z and rad = y/z are Fractions.
    """

    __slots__ = ("_d", "_x", "_y", "_z")

    def __init__(self, disc: int, rat: int | Fraction = 0, rad: int | Fraction = 0):
        self.__post_init__(disc, rat, rad)

    def __post_init__(self, disc: int, rat: int | Fraction, rad: int | Fraction) -> None:
        """Check disc and the coordinates, then set the integer form.

        Only the public constructor runs this; arithmetic results are built
        by _quadnum.  The benchmark tracer counts validated constructions
        by wrapping this method.
        """
        check_discriminant(disc)
        a, b = _scalar(rat)
        c, d = _scalar(rad)
        z = math.lcm(b, d)
        # a/b and c/d are in lowest terms, so over their lcm z the three are coprime
        self._d = disc
        self._x = a * (z // b)
        self._y = c * (z // d)
        self._z = z

    @property
    def disc(self) -> int:
        return self._d

    @property
    def rat(self) -> Fraction:
        return Fraction(self._x, self._z)

    @property
    def rad(self) -> Fraction:
        return Fraction(self._y, self._z)

    @classmethod
    def sqrt(cls, disc: int) -> "QuadNum":
        return cls(disc, Fraction(0), Fraction(1))

    def galois_conjugate(self) -> "QuadNum":
        return _quadnum(self._d, self._x, -self._y, self._z)

    def norm(self) -> Fraction:
        x, y, z = self._x, self._y, self._z
        return Fraction(x * x - self._d * y * y, z * z)

    def _sign(self, y: int) -> int:
        """Sign of x + y*sqrt(disc), which z > 0 does not change.

        When x and y differ in sign, the larger of x^2 and disc*y^2 wins;
        they tie only where the value is 0, so for a square disc.
        """
        x = self._x
        if x * y >= 0:
            t = x + y
            return (t > 0) - (t < 0)
        n = x * x - self._d * y * y
        big = x if n > 0 else y
        return ((big > 0) - (big < 0)) if n else 0

    def sign1(self) -> int:
        """Sign under the first embedding, sqrt(disc) -> +sqrt(disc)."""
        return self._sign(self._y)

    def sign2(self) -> int:
        """Sign under the second embedding, sqrt(disc) -> -sqrt(disc)."""
        return self._sign(-self._y)

    def _inverse_ints(self) -> tuple[int, int, int]:
        """(u, v, w) with w > 0 and (u + v*sqrt(disc))/w the inverse, not reduced."""
        x, y, z = self._x, self._y, self._z
        n = x * x - self._d * y * y
        if n == 0:
            raise ZeroDivisionError(f"{self} has norm zero and is not invertible")
        return (z * x, -z * y, n) if n > 0 else (-z * x, z * y, -n)

    def inverse(self) -> "QuadNum":
        return _quadnum(self._d, *self._inverse_ints())

    def _common_disc(self, other: "QuadNum") -> int:
        """The disc of a result with another QuadNum; a rational one fits any disc."""
        if self._d == other._d or other._y == 0:
            return self._d
        if self._y == 0:
            return other._d
        raise ValueError(f"mixed discriminants {self._d} and {other._d}")

    def _times(self, disc: int, u: int, v: int, w: int) -> "QuadNum":
        """self * (u + v*sqrt(disc))/w, for w > 0."""
        x, y = self._x, self._y
        return _quadnum(disc, x * u + disc * y * v, x * v + y * u, self._z * w)

    def __add__(self, other):
        if isinstance(other, QuadNum):
            disc = self._common_disc(other)
            z, w = self._z, other._z
            return _quadnum(disc, self._x * w + other._x * z, self._y * w + other._y * z, z * w)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return _quadnum(self._d, self._x * q + p * self._z, self._y * q, self._z * q)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (QuadNum, int, Fraction)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QuadNum):
            return self._times(self._common_disc(other), other._x, other._y, other._z)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _quadnum(self._d, self._x * p, self._y * p, self._z * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QuadNum):
            # Mixed discs raise before a zero norm does.
            disc = self._common_disc(other)
            return self._times(disc, *other._inverse_ints())
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if p == 0:
                # the text inverse() gives for the zero element
                raise ZeroDivisionError("0 has norm zero and is not invertible")
            if p < 0:
                p, q = -p, -q
            return _quadnum(self._d, self._x * q, self._y * q, self._z * p)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        out = _quadnum(self._d, 1, 0, 1)
        # square and multiply, over the bits of |n| from the top
        for bit in bin(abs(n))[2:]:
            out = out * out
            if bit == "1":
                out = out * base
        return out

    def __neg__(self):
        return _quadnum(self._d, -self._x, -self._y, self._z)

    def __pos__(self):
        return self

    def __bool__(self):
        return self._x != 0 or self._y != 0

    def __eq__(self, other):
        if isinstance(other, QuadNum):
            return (
                self._x == other._x
                and self._y == other._y
                and self._z == other._z
                and (self._y == 0 or self._d == other._d)
            )
        if isinstance(other, (int, Fraction)):
            return self._y == 0 and self._x == other.numerator and self._z == other.denominator
        return NotImplemented

    def __hash__(self):
        if self._y == 0:
            return hash(self.rat)
        return hash((self._d, self.rat, self.rad))

    def __repr__(self) -> str:
        return f"QuadNum(disc={self._d!r}, rat={self.rat!r}, rad={self.rad!r})"

    def __str__(self) -> str:
        rat, rad = self.rat, self.rad
        if rad == 0:
            return str(rat)
        tail = f"{abs(rad)}*sqrt({self._d})"
        if rat == 0:
            return tail if rad > 0 else f"-{tail}"
        sign = "+" if rad > 0 else "-"
        return f"{rat} {sign} {tail}"

    def to_json(self) -> dict:
        return {"rat": str(self.rat), "rad": str(self.rad), "disc": self._d}

    @classmethod
    def from_json(cls, obj: dict) -> "QuadNum":
        """Read a to_json record as written: disc an int, rat and rad its strings."""
        disc, rat, rad = _json_fields(obj, ("disc", "rat", "rad"), "QuadNum.from_json", only=True)
        return cls(disc, _fraction_text(rat, "rat"), _fraction_text(rad, "rad"))


def _json_fields(obj: dict, fields: tuple[str, ...], reader: str, only: bool = False) -> list:
    """The values of fields in obj.  A ValueError names a missing field or, if only, another."""
    for key in fields:
        if key not in obj:
            raise ValueError(f"{reader} needs the field {key!r}")
    for key in obj if only else ():
        if key not in fields:
            raise ValueError(f"{reader} got an unknown field {key!r}")
    return [obj[key] for key in fields]


def _fraction_text(text, key: str) -> Fraction:
    """text as to_json writes a Fraction, str of it in lowest terms ('-3/2', '0')."""
    try:
        value = Fraction(text) if isinstance(text, str) else None
    except ValueError:
        value = None
    if value is None or str(value) != text:
        raise ValueError(
            f"QuadNum.from_json needs {key} as a fraction string such as '-3/2', got {text!r}"
        )
    return value
