"""Euler characteristics, cusp counts and component data.

X denotes the ambient modular surface of discriminant D, W the union of
Weierstrass-tangent boundary curves, P its companion locus, Q the orbit
closure upstairs, S1 and S2 the two extra fibered curves that appear when
D = d^2 is square.

`_chis(D)` is the one table of a discriminant: EulerReport's fields from
chi_x to cusps_one_cylinder_spin, every key always present.  Each chi is
an exact Fraction, or a pair of them for the spin components; at
nonsquare D each is built from its integer pair in `_chi_ints`, which
`siegelveech` reads without making a Fraction.  The component and
one-cylinder cusp counts are ints, or a pair of them for the spin split;
None marks a value undefined at D.  `euler_report` adds D, its conductor
decomposition, h2 and the two-cylinder cusp count.
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
    return -_h2(d0) / 12


def _chis(D: int) -> dict:
    """The Euler table of the checked discriminant D, None where undefined.

    Its keys are the EulerReport fields chi_x to cusps_one_cylinder_spin.
    W is empty below 5 and splits by spin (chi_w_components) where
    `_spin_applies`; chi_p and chi_q are defined for D >= 4, and chi_s
    (each of S1, S2) for square D with d >= 2.  One-cylinder cusps exist
    only at square D: none for d <= 2, and their count is undefined at
    d = 3.
    """
    if D < 5:
        # D = 1 and D = 4, the literal rows.
        x, p, s = (Fraction(1, 36), None, None) if D == 1 else (
            Fraction(1, 6), Fraction(-1, 6), Fraction(-1, 2))
        return {"chi_x": x, "chi_w": Fraction(0), "chi_w_components": None,
                "chi_p": p, "chi_q": p, "chi_s": s, "components": 0,
                "cusps_one_cylinder": 0, "cusps_one_cylinder_spin": None}
    d0, d = _decompose(D)
    split = _spin_applies(D)
    if d0 == 1:
        # Every chi is q = d^2 s times a polynomial in d, s = num/den.
        num, den = _mobius_ints(1, d)
        q = d * d * num
        one = spin = None
        if d > 3:
            # one = d^2 s/6 - phi(d)/2, s0 = d^2 s/24, s1 = d^2 s/8 - phi(d)/2
            phi = euler_phi(d)
            one, r = divmod(q - 3 * den * phi, 6 * den)
            assert r == 0 and one >= 0
            if split:
                s0, r0 = divmod(q, 24 * den)
                s1, r1 = divmod(q - 4 * den * phi, 8 * den)
                assert r0 == r1 == 0 and 0 <= s0 and 0 <= s1 and s0 + s1 == one
                spin = s0, s1
        return {
            "chi_x": Fraction(d * q, 72 * den),
            "chi_w": Fraction(-(d - 2) * q, 16 * den),
            "chi_w_components": (Fraction(-(d - 1) * q, 32 * den),
                                 Fraction(-(d - 3) * q, 32 * den)) if split else None,
            "chi_p": Fraction(-(5 * d - 6) * q, 144 * den),
            "chi_q": Fraction(-(5 * d - 6) * q, 72 * den),
            "chi_s": Fraction(-q, 12 * den),
            "components": 2 if split else 1,
            "cusps_one_cylinder": one,
            "cusps_one_cylinder_spin": spin,
        }
    x, w, w_spin, p, q = _chi_ints(d0, d)
    return {
        "chi_x": Fraction(*x),
        "chi_w": Fraction(*w),
        "chi_w_components": (Fraction(*w_spin),) * 2 if split else None,
        "chi_p": Fraction(*p),
        "chi_q": Fraction(*q),
        "chi_s": None,
        "components": 2 if split else 1,
        "cusps_one_cylinder": 0,
        "cusps_one_cylinder_spin": None,
    }


def _chi_ints(d0: int, f: int) -> tuple[tuple[int, int], ...]:
    """(chi_x, chi_w, chi_w of each spin, chi_p, chi_q) at the nonsquare D = f^2 d0.

    Each chi is an unreduced (numerator, denominator) pair with a positive
    denominator.  chi_X = 2 f^3 zeta_K(-1) s = n/m, with zeta_K(-1) =
    -h2(d0)/12 and s the Moebius product, and every other chi scales n and
    m by integers: chi_W = -(9/2) chi_X, each spin of a split W (where
    `_spin_applies`) has half of chi_W, chi_P = -(5/2) chi_X and chi_Q =
    2 chi_P.  chi_X > 0 and chi_W < 0.
    """
    hn, hd = _h2_ints(d0)
    num, den = _mobius_ints(d0, f)
    n, m = -(f**3) * hn * num, 6 * hd * den
    w = -9 * n, 2 * m
    return (n, m), w, (w[0], 2 * w[1]), (-5 * n, 2 * m), (-5 * n, m)


def chi_X(D: int) -> Fraction:
    """Euler characteristic of the modular surface of discriminant D."""
    check_discriminant(D)
    return _chis(D)["chi_x"]


def chi_W(D: int) -> Fraction:
    """Euler characteristic of the Weierstrass boundary curve family."""
    check_discriminant(D)
    return _chis(D)["chi_w"]


def chi_W_components(D: int) -> tuple[Fraction, Fraction]:
    """(chi of spin 0 part, chi of spin 1 part); needs D = 1 (mod 8), D != 9."""
    check_discriminant(D, minimum=5)
    components = _chis(D)["chi_w_components"]
    if components is None:
        raise ValueError(f"W is connected for D={D}: no spin components")
    return components


def chi_P(D: int) -> Fraction:
    check_discriminant(D, minimum=4)
    return _chis(D)["chi_p"]


def chi_Q(D: int) -> Fraction:
    check_discriminant(D, minimum=4)
    return _chis(D)["chi_q"]


def chi_S(D: int) -> Fraction:
    """Euler characteristic of each of S1, S2; square D = d^2, d >= 2."""
    check_discriminant(D, minimum=4)
    chi = _chis(D)["chi_s"]
    if chi is None:
        raise ValueError(f"S1 and S2 exist only for square D, got {D}")
    return chi


def psi(m: int) -> Fraction:
    """-(m/6) times the product of (1 + 1/p) over primes p | m."""
    _integer(m, "psi", "m", 1)
    return Fraction(-_psi_numerator(m), 6)


def _psi_numerator(m: int) -> int:
    """-6 psi(m) for m >= 1: the product of p^(e-1) (p + 1) over p^e || m."""
    out = 1
    for p, e in _factor(m):
        out *= p ** (e - 1) * (p + 1)
    return out


def rm_prototypes(D: int) -> list[tuple[int, int, int]]:
    """Triples (e, l, m) with D = e^2 + 4 l^2 m, l, m >= 1, gcd(e, l) = 1."""
    check_discriminant(D, minimum=4)
    out = []
    r = math.isqrt(D - 4)
    for e in range(-r + (r + D) % 2, r + 1, 2):  # e = D (mod 2): 4 | D - e^2
        n = (D - e * e) // 4
        for l in range(1, math.isqrt(n) + 1):
            if n % (l * l) == 0 and math.gcd(e, l) == 1:
                out.append((e, l, n // (l * l)))
    return out


def chi_Q_via_rm_prototypes(D: int) -> Fraction:
    """chi(Q) as a sum of psi(m) over the real multiplication prototypes."""
    return Fraction(-sum(_psi_numerator(m) for _, _, m in rm_prototypes(D)), 6)


def num_components(D: int) -> int:
    """Number of connected components of the W locus."""
    check_discriminant(D)
    return _chis(D)["components"]


def one_cylinder_cusps(d: int) -> tuple[int, int | None, int | None]:
    """(total, spin 0, spin 1) one-cylinder cusp counts for square D = d^2.

    Needs d > 3.  Even d has no spin splitting and returns (total, None, None).
    """
    _integer(d, "one_cylinder_cusps", "d", 4)
    chis = _chis(d * d)
    return (chis["cusps_one_cylinder"], *(chis["cusps_one_cylinder_spin"] or (None, None)))


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
    x, w, p, q = chi["chi_x"], chi["chi_w"], chi["chi_p"], chi["chi_q"]
    if D >= 5 and not square:
        h, rs = _h2(D), divisors(f)
        tables = [chi if r == f else _chis(r * r * d0) for r in rs]
        x_sum = sum((t["chi_x"] for t in tables), Fraction(0))
        w_sum = sum((t["chi_w"] for t in tables), Fraction(0))
        checks.append(ConsistencyCheck("euler_ratio", w, -Fraction(9, 2) * x))
        checks.append(ConsistencyCheck("chi_additivity", w, p - 2 * x))
        checks.append(ConsistencyCheck("h_sum_chi_x", x_sum, -h / 6))
        checks.append(ConsistencyCheck("h_sum_chi_w", w_sum, Fraction(3, 4) * h))
        # h2(D) = h2(D0) * sum over r | f of mu(r) (D0/r) r sigma_3(f/r)
        s3 = sum(mobius(r) * kronecker(d0, r) * r * sigma(3, f // r) for r in rs)
        checks.append(ConsistencyCheck("h2_sigma3", h, _h2(d0) * s3))
    if square and f > 2:
        checks.append(ConsistencyCheck("chi_additivity", w, p - chi["chi_s"] - 2 * x))
    if _spin_applies(D):
        w0, w1 = chi["chi_w_components"]
        checks.append(ConsistencyCheck("component_sum", w0 + w1, w))
    if D >= 4:
        checks.append(ConsistencyCheck("rm_route", q, chi_Q_via_rm_prototypes(D)))
    if D >= 5:
        checks.append(ConsistencyCheck("q_doubles_p", q, 2 * p))
    n_w = len(_enumerate(D, "W"))
    n_p = len(_enumerate(D, "P"))
    n_term = sum(1 for y in _enumerate(D, "Y") if y.is_terminal) if square else 0
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
    return EulerReport(
        D=D, d0=d0, f=f, h=_h2(D), cusps_two_cylinder=_t_sums(D)[1], **_chis(D)
    )


def h_table(dmin: int, dmax: int) -> list[tuple[int, Fraction]]:
    """Rows (D, H(2, D)) for discriminants in [dmin, dmax], 0 allowed."""
    return [(D, _h2(D)) for D in _discriminants(dmin, dmax, minimum=0)]
