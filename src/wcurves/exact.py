"""Exact arithmetic over real quadratic orders.

Rationals are fractions.Fraction throughout.  A QuadNum is an element
rat + rad*sqrt(disc) of Q[sqrt(disc)] for an integer discriminant
disc >= 1 with disc = 0 or 1 (mod 4).  Square discriminants are allowed:
Q[sqrt(d^2)] is isomorphic to Q (+) Q, it has zero divisors, and its two
coordinate projections stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def is_discriminant(D: int, minimum: int = 1) -> bool:
    return isinstance(D, int) and not isinstance(D, bool) and D >= minimum and D % 4 in (0, 1)


def check_discriminant(D: int, minimum: int = 1) -> None:
    if not is_discriminant(D, minimum):
        raise ValueError(
            f"invalid discriminant {D}: need an integer >= {minimum} "
            "congruent to 0 or 1 mod 4"
        )


@lru_cache(maxsize=None)
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
    if n < 1:
        raise ValueError(f"divisors needs n >= 1, got {n}")
    out = [1]
    for p, e in _factor(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def sigma(m: int, n: int) -> Fraction:
    """Divisor power sum sigma_m(n) for m in {1, 3}.

    Negative arguments give 0; the boundary value sigma_m(0) is the
    zeta-regularized zeta(-m)/2, i.e. -1/24 for m = 1 and 1/240 for m = 3.
    """
    if m not in (1, 3):
        raise ValueError(f"sigma is implemented for m in {{1, 3}}, got {m}")
    if n < 0:
        return Fraction(0)
    if n == 0:
        return Fraction(-1, 24) if m == 1 else Fraction(1, 240)
    total = 1
    for p, e in _factor(n):
        total *= (p ** (m * (e + 1)) - 1) // (p**m - 1)
    return Fraction(total)


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError(f"mobius needs n >= 1, got {n}")
    fac = _factor(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
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
    if n < 1:
        raise ValueError(f"kronecker needs a positive bottom, got {n}")
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
    if n < 1:
        raise ValueError(f"mobius_weighted_sum needs n >= 1, got {n}")
    num = den = 1
    for p, _ in _factor(n):
        num *= p * p - _kronecker_prime(d0, p)
        den *= p * p
    return Fraction(num, den)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


def _sign_at(rat: Fraction, rad: Fraction, disc: int) -> int:
    """Sign of rat + rad*sqrt(disc), decided in integers.

    Multiplied by the positive product of the denominators, the value is
    x + y*sqrt(disc).  When x and y differ in sign, the larger of x^2 and
    disc*y^2 wins; they tie only where the value is 0, so for a square disc.
    """
    x = rat.numerator * rad.denominator
    y = rad.numerator * rat.denominator
    if x * y >= 0:
        t = x + y
        return (t > 0) - (t < 0)
    n = x * x - disc * y * y
    big = x if n > 0 else y
    return ((big > 0) - (big < 0)) if n else 0


@dataclass(frozen=True, eq=False)
class QuadNum:
    """rat + rad*sqrt(disc) with exact Fraction coordinates."""

    disc: int
    rat: Fraction = Fraction(0)
    rad: Fraction = Fraction(0)

    def __post_init__(self):
        check_discriminant(self.disc)
        object.__setattr__(self, "rat", _as_fraction(self.rat))
        object.__setattr__(self, "rad", _as_fraction(self.rad))

    @staticmethod
    def _new(disc: int, rat: Fraction, rad: Fraction) -> "QuadNum":
        """A QuadNum built without __post_init__: disc already checked, Fraction coordinates."""
        x = object.__new__(QuadNum)
        put = object.__setattr__
        put(x, "disc", disc)
        put(x, "rat", rat)
        put(x, "rad", rad)
        return x

    @classmethod
    def sqrt(cls, disc: int) -> "QuadNum":
        return cls(disc, Fraction(0), Fraction(1))

    def galois_conjugate(self) -> "QuadNum":
        return QuadNum._new(self.disc, self.rat, -self.rad)

    def norm(self) -> Fraction:
        return self.rat * self.rat - self.disc * self.rad * self.rad

    def trace(self) -> Fraction:
        return 2 * self.rat

    def sign1(self) -> int:
        """Sign under the first embedding, sqrt(disc) -> +sqrt(disc)."""
        return _sign_at(self.rat, self.rad, self.disc)

    def sign2(self) -> int:
        """Sign under the second embedding, sqrt(disc) -> -sqrt(disc)."""
        return _sign_at(self.rat, -self.rad, self.disc)

    def embed1(self) -> Fraction:
        """Rational image under sqrt(d^2) -> d.  Square disc only."""
        d = math.isqrt(self.disc)
        if d * d != self.disc:
            raise ValueError(f"embed1 needs a square discriminant, got {self.disc}")
        return self.rat + self.rad * d

    def embed2(self) -> Fraction:
        """Rational image under sqrt(d^2) -> -d.  Square disc only."""
        d = math.isqrt(self.disc)
        if d * d != self.disc:
            raise ValueError(f"embed2 needs a square discriminant, got {self.disc}")
        return self.rat - self.rad * d

    def inverse(self) -> "QuadNum":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError(f"{self} has norm zero and is not invertible")
        return QuadNum._new(self.disc, self.rat / n, -self.rad / n)

    def _common_disc(self, other: "QuadNum") -> int:
        """The disc of a result with another QuadNum; a rational one fits any disc."""
        if self.disc == other.disc or other.rad == 0:
            return self.disc
        if self.rad == 0:
            return other.disc
        raise ValueError(f"mixed discriminants {self.disc} and {other.disc}")

    def __add__(self, other):
        if isinstance(other, QuadNum):
            disc = self._common_disc(other)
            return QuadNum._new(disc, self.rat + other.rat, self.rad + other.rad)
        if isinstance(other, (int, Fraction)):
            return QuadNum._new(self.disc, self.rat + other, self.rad)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QuadNum):
            disc = self._common_disc(other)
            return QuadNum._new(disc, self.rat - other.rat, self.rad - other.rad)
        if isinstance(other, (int, Fraction)):
            return QuadNum._new(self.disc, self.rat - other, self.rad)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadNum._new(self.disc, other - self.rat, -self.rad)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QuadNum):
            disc = self._common_disc(other)
            ar, ad, br, bd = self.rat, self.rad, other.rat, other.rad
            return QuadNum._new(disc, ar * br + disc * ad * bd, ar * bd + ad * br)
        if isinstance(other, (int, Fraction)):
            return QuadNum._new(self.disc, self.rat * other, self.rad * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QuadNum):
            # Mixed discs raise before a zero norm does.  The product compares
            # the discs again, so that its formula is written once.
            self._common_disc(other)
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                # the text inverse() gives for the zero element
                raise ZeroDivisionError("0 has norm zero and is not invertible")
            return QuadNum._new(self.disc, self.rat / other, self.rad / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        out = QuadNum._new(self.disc, Fraction(1), Fraction(0))
        for _ in range(abs(n)):
            out = out * base
        return out

    def __neg__(self):
        return QuadNum._new(self.disc, -self.rat, -self.rad)

    def __pos__(self):
        return self

    def __bool__(self):
        return self.rat != 0 or self.rad != 0

    def __eq__(self, other):
        if isinstance(other, QuadNum):
            if self.rad == 0 and other.rad == 0:
                return self.rat == other.rat
            return (
                self.disc == other.disc
                and self.rat == other.rat
                and self.rad == other.rad
            )
        if isinstance(other, (int, Fraction)):
            return self.rad == 0 and self.rat == other
        return NotImplemented

    def __hash__(self):
        if self.rad == 0:
            return hash(self.rat)
        return hash((self.disc, self.rat, self.rad))

    def __str__(self) -> str:
        if self.rad == 0:
            return str(self.rat)
        tail = f"{abs(self.rad)}*sqrt({self.disc})"
        if self.rat == 0:
            return tail if self.rad > 0 else f"-{tail}"
        sign = "+" if self.rad > 0 else "-"
        return f"{self.rat} {sign} {tail}"

    def to_json(self) -> dict:
        return {"rat": str(self.rat), "rad": str(self.rad), "disc": self.disc}

    @classmethod
    def from_json(cls, obj: dict) -> "QuadNum":
        return cls(int(obj["disc"]), Fraction(obj["rat"]), Fraction(obj["rad"]))
