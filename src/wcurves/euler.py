"""Euler characteristics, cusp counts and component data.

All values are exact Fractions.  X denotes the ambient modular surface of
discriminant D, W the union of Weierstrass-tangent boundary curves, P its
companion locus, Q the orbit closure upstairs, S1 and S2 the two extra
fibered curves that appear when D = d^2 is square.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import (
    _decompose,
    _discriminants,
    _factor,
    _integer,
    _mobius_ints,
    _record,
    check_discriminant,
    divisors,
    euler_phi,
    is_square,
    kronecker,
    mobius,
    sigma,
)
from .prototypes import _enumerate, _spin_applies, _t_sums

__all__ = [
    "ConsistencyCheck",
    "EulerReport",
    "chi_P",
    "chi_Q",
    "chi_Q_via_rm_prototypes",
    "chi_S",
    "chi_W",
    "chi_W_components",
    "chi_X",
    "consistency_chain",
    "euler_report",
    "h2",
    "h_table",
    "lyapunov_lambda2",
    "num_components",
    "one_cylinder_cusps",
    "psi",
    "rm_prototypes",
    "zeta_minus_one",
]


def h2(D: int) -> Fraction:
    """Weight 2 class number series coefficient H(2, D).

    Its domain is the integers D >= 0 with D = 0 or 1 (mod 4).  For D >= 1

        H(2, D) = -(1/5) * sum over e = D (mod 2), e^2 <= D,
                  of sigma_1((D - e^2)/4),  minus D/10 at square D,

    with e running over both signs.  The terms with D > e^2 are summed
    as integers; at square D = d^2 the two terms e = +-d are
    sigma_1(0) = -1/24 each.  H(2, 0) = -1/120.
    """
    check_discriminant(D, minimum=0)
    return _h2(D)


def _h2(D: int) -> Fraction:
    """h2 of a checked D, from the sigma_1 total of `_t_sums`."""
    if D == 0:
        return Fraction(-1, 120)
    return Fraction(*_h2_ints(D))


def _h2_ints(D: int) -> tuple[int, int]:
    """h2 of a checked D >= 1 as an unreduced (numerator, denominator)."""
    total = _t_sums(D)[0]
    if is_square(D):
        # -(total - 2/24)/5 - D/10
        return 1 - 12 * total - 6 * D, 60
    return -total, 5


def zeta_minus_one(d0: int) -> Fraction:
    """zeta_K(-1) for the real quadratic field of fundamental discriminant d0."""
    check_discriminant(d0, minimum=5)
    if _decompose(d0) != (d0, 1):
        raise ValueError(f"{d0} is not a fundamental discriminant of a real field")
    return _zeta_minus_one(d0)


def _zeta_minus_one(d0: int) -> Fraction:
    """zeta_minus_one of a checked fundamental d0."""
    return -_h2(d0) / 12


def _chis(D: int) -> dict[str, Fraction]:
    """Every chi defined at the checked discriminant D, keyed by locus name.

    X and W always (W is empty below 5), W0 and W1 where W splits by spin,
    P and Q for D >= 4, and S (each of S1, S2) for square D with d >= 2.
    """
    if D == 1:
        return {"X": Fraction(1, 36), "W": Fraction(0)}
    if D == 4:
        return {"X": Fraction(1, 6), "W": Fraction(0), "P": Fraction(-1, 6),
                "Q": Fraction(-1, 6), "S": Fraction(-1, 2)}
    d0, d = _decompose(D)
    if d0 == 1:
        # Every chi is q = d^2 s times a polynomial in d, s = num/den.
        num, den = _mobius_ints(1, d)
        q = d * d * num
        chis = {
            "X": Fraction(d * q, 72 * den),
            "W": Fraction(-(d - 2) * q, 16 * den),
            "P": Fraction(-(5 * d - 6) * q, 144 * den),
            "Q": Fraction(-(5 * d - 6) * q, 72 * den),
            "S": Fraction(-q, 12 * den),
        }
        if _spin_applies(D):
            chis["W0"] = Fraction(-(d - 1) * q, 32 * den)
            chis["W1"] = Fraction(-(d - 3) * q, 32 * den)
        return chis
    # chi_X = 2 f^3 zeta_K(-1) s = n/m, with zeta_K(-1) = -h2(D0)/12.
    hn, hd = _h2_ints(d0)
    num, den = _mobius_ints(d0, d)
    n, m = -(d**3) * hn * num, 6 * hd * den
    chis = {"X": Fraction(n, m), "W": Fraction(-9 * n, 2 * m),
            "P": Fraction(-5 * n, 2 * m), "Q": Fraction(-5 * n, m)}
    if _spin_applies(D):
        chis["W0"] = chis["W1"] = Fraction(-9 * n, 4 * m)
    return chis


def chi_X(D: int) -> Fraction:
    """Euler characteristic of the modular surface of discriminant D."""
    check_discriminant(D)
    return _chis(D)["X"]


def chi_W(D: int) -> Fraction:
    """Euler characteristic of the Weierstrass boundary curve family."""
    check_discriminant(D)
    return _chis(D)["W"]


def chi_W_components(D: int) -> tuple[Fraction, Fraction]:
    """(chi of spin 0 part, chi of spin 1 part); needs D = 1 (mod 8), D != 9."""
    check_discriminant(D, minimum=5)
    chis = _chis(D)
    if "W0" not in chis:
        raise ValueError(f"W is connected for D={D}: no spin components")
    return chis["W0"], chis["W1"]


def chi_P(D: int) -> Fraction:
    check_discriminant(D, minimum=4)
    return _chis(D)["P"]


def chi_Q(D: int) -> Fraction:
    check_discriminant(D, minimum=4)
    return _chis(D)["Q"]


def chi_S(D: int) -> Fraction:
    """Euler characteristic of each of S1, S2; square D = d^2, d >= 2."""
    check_discriminant(D, minimum=4)
    chis = _chis(D)
    if "S" not in chis:
        raise ValueError(f"S1 and S2 exist only for square D, got {D}")
    return chis["S"]


def psi(m: int) -> Fraction:
    """-(m/6) times the product of (1 + 1/p) over primes p | m."""
    _integer(m, "psi", "m", 1)
    out = Fraction(-m, 6)
    for p, _ in _factor(m):
        out *= Fraction(p + 1, p)
    return out


def rm_prototypes(D: int) -> list[tuple[int, int, int]]:
    """Triples (e, l, m) with D = e^2 + 4 l^2 m, l, m >= 1, gcd(e, l) = 1."""
    check_discriminant(D, minimum=4)
    out = []
    l = 1
    while 4 * l * l <= D:
        for m in range(1, D // (4 * l * l) + 1):
            ee = D - 4 * l * l * m
            r = math.isqrt(ee)
            if r * r != ee:
                continue
            for e in sorted({r, -r}):
                if math.gcd(e, l) == 1:
                    out.append((e, l, m))
        l += 1
    return sorted(out)


def chi_Q_via_rm_prototypes(D: int) -> Fraction:
    """chi(Q) as a sum of psi(m) over the real multiplication prototypes."""
    return sum((psi(m) for _, _, m in rm_prototypes(D)), Fraction(0))


def num_components(D: int) -> int:
    """Number of connected components of the W locus."""
    check_discriminant(D)
    return _components(D)


def _components(D: int) -> int:
    """num_components of a checked D."""
    if D < 5:
        return 0
    return 2 if _spin_applies(D) else 1


def one_cylinder_cusps(d: int) -> tuple[int, int | None, int | None]:
    """(total, spin 0, spin 1) one-cylinder cusp counts for square D = d^2.

    Needs d > 3.  Even d has no spin splitting and returns (total, None, None).
    """
    _integer(d, "one_cylinder_cusps", "d", 4)
    total, split = _one_cylinder(d * d)
    return (total, *(split or (None, None)))


def _one_cylinder(D: int) -> tuple[int | None, tuple[int, int] | None]:
    """(one-cylinder cusp count, (spin 0, spin 1) or None) of discriminant D.

    Nonsquare D and D = d^2 with d <= 2 have none; for d = 3 the count is
    undefined (None).
    """
    d = math.isqrt(D)
    if not is_square(D) or d <= 2:
        return 0, None
    if d == 3:
        return None, None
    # total = d^2 s/6 - phi(d)/2, s0 = d^2 s/24, s1 = d^2 s/8 - phi(d)/2
    num, den = _mobius_ints(1, d)
    q, phi = d * d * num, euler_phi(d)
    total, r = divmod(q - 3 * den * phi, 6 * den)
    assert r == 0 and total >= 0
    if not _spin_applies(D):
        return total, None
    s0, r0 = divmod(q, 24 * den)
    s1, r1 = divmod(q - 4 * den * phi, 8 * den)
    assert r0 == r1 == 0 and 0 <= s0 and 0 <= s1 and s0 + s1 == total
    return total, (s0, s1)


def lyapunov_lambda2(stratum: str) -> Fraction:
    """Second Lyapunov exponent by stratum of the genus two moduli of forms."""
    if stratum == "double_zero":
        return Fraction(1, 3)
    if stratum == "two_simple_zeros":
        return Fraction(1, 2)
    raise ValueError(
        f"unknown stratum {stratum!r}: expected 'double_zero' or 'two_simple_zeros'"
    )


class ConsistencyCheck(_record("ConsistencyCheck", "name lhs rhs")):
    """One cross-check of consistency_chain: it holds when lhs == rhs."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def consistency_chain(D: int) -> list[ConsistencyCheck]:
    """Cross-checks tying the invariants of discriminant D together."""
    check_discriminant(D)
    checks = []
    d0, f = _decompose(D)
    square = d0 == 1
    chi = _chis(D)
    if D >= 5 and not square:
        h, rs = _h2(D), divisors(f)
        tables = [chi if r == f else _chis(r * r * d0) for r in rs]
        x_sum = sum((t["X"] for t in tables), Fraction(0))
        w_sum = sum((t["W"] for t in tables), Fraction(0))
        checks.append(ConsistencyCheck("euler_ratio", chi["W"], -Fraction(9, 2) * chi["X"]))
        checks.append(
            ConsistencyCheck("chi_additivity", chi["W"], chi["P"] - 2 * chi["X"])
        )
        checks.append(ConsistencyCheck("h_sum_chi_x", x_sum, -h / 6))
        checks.append(ConsistencyCheck("h_sum_chi_w", w_sum, Fraction(3, 4) * h))
        checks.append(
            ConsistencyCheck(
                "h2_sigma3",
                h,
                -12
                * _zeta_minus_one(d0)
                * sum(
                    (
                        Fraction(mobius(r) * kronecker(d0, r) * r) * sigma(3, f // r)
                        for r in rs
                    ),
                    Fraction(0),
                ),
            )
        )
    if square and f > 2:
        checks.append(
            ConsistencyCheck(
                "chi_additivity", chi["W"], chi["P"] - chi["S"] - 2 * chi["X"]
            )
        )
    if _spin_applies(D):
        checks.append(ConsistencyCheck("component_sum", chi["W0"] + chi["W1"], chi["W"]))
    if D >= 4:
        checks.append(
            ConsistencyCheck("rm_route", chi["Q"], chi_Q_via_rm_prototypes(D))
        )
    if D >= 5:
        checks.append(ConsistencyCheck("q_doubles_p", chi["Q"], 2 * chi["P"]))
    n_w = len(_enumerate(D, "W"))
    n_p = len(_enumerate(D, "P"))
    n_term = sum(1 for p in _enumerate(D, "Y") if p.is_terminal) if square else 0
    checks.append(ConsistencyCheck("cusp_counts", Fraction(n_p), Fraction(n_w + n_term)))
    return checks


class EulerReport(_record(
    "EulerReport",
    "D d0 f h chi_x chi_w chi_w_components chi_p chi_q chi_s components"
    " cusps_two_cylinder cusps_one_cylinder cusps_one_cylinder_spin",
)):
    """All Euler data of one discriminant, with None for undefined entries."""

    __slots__ = ()

    def to_json(self) -> dict:
        def frac(x):
            return None if x is None else str(x)

        w0, w1 = self.chi_w_components or (None, None)
        s0, s1 = self.cusps_one_cylinder_spin or (None, None)
        return {
            "D": self.D,
            "D0": self.d0,
            "f": self.f,
            "h2": frac(self.h),
            "chi_X": frac(self.chi_x),
            "chi_W": frac(self.chi_w),
            "chi_W0": frac(w0),
            "chi_W1": frac(w1),
            "chi_P": frac(self.chi_p),
            "chi_Q": frac(self.chi_q),
            "chi_S1": frac(self.chi_s),
            "chi_S2": frac(self.chi_s),
            "components": self.components,
            "cusps_two_cyl": self.cusps_two_cylinder,
            "cusps_one_cyl": self.cusps_one_cylinder,
            "cusps_one_cyl_spin0": s0,
            "cusps_one_cyl_spin1": s1,
        }


def euler_report(D: int) -> EulerReport:
    """All Euler data of D, checked once here; the body reads unchecked internals."""
    check_discriminant(D)
    d0, f = _decompose(D)
    chis = _chis(D)
    one_cyl, one_spin = _one_cylinder(D)
    return EulerReport(
        D=D,
        d0=d0,
        f=f,
        h=_h2(D),
        chi_x=chis["X"],
        chi_w=chis["W"],
        chi_w_components=(chis["W0"], chis["W1"]) if "W0" in chis else None,
        chi_p=chis.get("P"),
        chi_q=chis.get("Q"),
        chi_s=chis.get("S"),
        components=_components(D),
        cusps_two_cylinder=_t_sums(D)[1],
        cusps_one_cylinder=one_cyl,
        cusps_one_cylinder_spin=one_spin,
    )


def h_table(dmin: int, dmax: int) -> list[tuple[int, Fraction]]:
    """Rows (D, H(2, D)) for discriminants in [dmin, dmax], 0 allowed."""
    return [(D, _h2(D)) for D in _discriminants(dmin, dmax, minimum=0)]
