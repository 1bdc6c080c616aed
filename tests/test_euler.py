import math
from fractions import Fraction

import pytest

from wcurves.euler import (
    EulerReport,
    _chis,
    chi_P,
    chi_Q,
    chi_Q_via_rm_prototypes,
    chi_S,
    chi_W,
    chi_W_components,
    chi_X,
    consistency_chain,
    euler_report,
    h2,
    h_table,
    lyapunov_lambda2,
    num_components,
    one_cylinder_cusps,
    psi,
    rm_prototypes,
    zeta_minus_one,
)
from wcurves.exact import (
    decompose_discriminant,
    divisors,
    euler_phi,
    is_square,
    mobius,
    mobius_weighted_sum,
    sigma,
)
from wcurves.prototypes import (
    _spin_applies,
    _t_sums,
    enumerate_prototypes,
    spin,
)
from wcurves.reference import reference_tuples


def test_h2_low_values():
    got = [h2(D) for D in (1, 4, 5, 8, 9, 12, 13, 16)]
    assert got == [
        Fraction(-1, 12),
        Fraction(-7, 12),
        Fraction(-2, 5),
        Fraction(-1),
        Fraction(-25, 12),
        Fraction(-2),
        Fraction(-2),
        Fraction(-55, 12),
    ]


def test_h2_more_values():
    assert h2(0) == Fraction(1, 120)
    assert h2(17) == -4
    assert h2(45) == Fraction(-62, 5)


def test_h2_rejects_non_discriminants():
    with pytest.raises(ValueError):
        h2(7)
    with pytest.raises(ValueError):
        h2(-4)


def test_h2_rejects_non_integers():
    # Cached integer values must not answer for equal keys of other types.
    assert h2(0) == Fraction(1, 120) and h2(1) == Fraction(-1, 12)
    for D in (False, True, 0.0, 1.0, 4.0, Fraction(5)):
        with pytest.raises(ValueError, match="need an integer >= 0 congruent"):
            h2(D)


def _h2_by_sigma(D):
    """h2 by the Fraction formula from the public sigma, at D = 0 too.

    There its one term is e = 0, with sigma(1, 0) = -1/24.
    """
    total = Fraction(0)
    e = D % 2
    while e * e <= D:
        term = sigma(1, (D - e * e) // 4)
        total += term if e == 0 else 2 * term
        e += 2
    out = -total / 5
    if is_square(D):
        out -= Fraction(D, 10)
    return out


def test_h2_matches_the_sigma_formula():
    for D in range(0, 4001):
        if D % 4 in (0, 1):
            assert h2(D) == _h2_by_sigma(D), D


# Every D <= 3000, and D whose t = (D - b^2)/4 carry high prime powers.
_PASS_DS = [D for D in range(1, 3001) if D % 4 in (0, 1)] + [
    4 * 2**16, 4 * 2**20, 4 * 3**10 + 1, 4 * 5**7 + 9, 4 * 7**6 + 1,
    4 * 11**5 + 1, 199993, 200004,
]


def test_one_pass_matches_both_oracles():
    for D in _PASS_DS:
        assert _t_sums(D)[1] == len(enumerate_prototypes(D, "W")), D
        assert h2(D) == _h2_by_sigma(D), D


@pytest.mark.parametrize("D, misses", [(5, 1), (12, 1), (41, 1), (20, 2), (45, 2), (180, 2)])
def test_euler_report_makes_one_pass_per_discriminant(D, misses):
    # The pass of D serves h2 and the W count; a nonfundamental D adds D0's.
    _t_sums.cache_clear()
    euler_report(D)
    assert _t_sums.cache_info().misses == misses


def test_h2_at_square_d_matches_cohen():
    # H(2, d^2) = L(-1, chi_1) * sum over r | d of mu(r) r sigma_3(d/r),
    # with L(-1, chi_1) = zeta(-1) = -1/12.
    for d in range(1, 301):
        want = Fraction(-1, 12) * sum(mobius(r) * r * sigma(3, d // r) for r in divisors(d))
        assert h2(d * d) == want, d


def test_zeta_minus_one():
    assert zeta_minus_one(5) == Fraction(1, 30)
    assert zeta_minus_one(8) == Fraction(1, 12)
    assert zeta_minus_one(12) == Fraction(1, 6)
    assert zeta_minus_one(17) == Fraction(1, 3)
    with pytest.raises(ValueError):
        zeta_minus_one(45)  # not fundamental
    with pytest.raises(ValueError):
        zeta_minus_one(4)


def test_chi_x():
    assert chi_X(1) == Fraction(1, 36)
    assert chi_X(4) == Fraction(1, 6)
    assert chi_X(5) == Fraction(1, 15)
    assert chi_X(8) == Fraction(1, 6)
    assert chi_X(12) == Fraction(1, 3)
    assert chi_X(17) == Fraction(2, 3)
    assert chi_X(25) == Fraction(5, 3)
    assert chi_X(45) == 2


def test_chi_w():
    assert chi_W(5) == Fraction(-3, 10)
    assert chi_W(8) == Fraction(-3, 4)
    assert chi_W(9) == Fraction(-1, 2)
    assert chi_W(12) == Fraction(-3, 2)
    assert chi_W(17) == -3
    assert chi_W(25) == Fraction(-9, 2)
    assert chi_W(45) == -9


def test_chi_w_components():
    assert chi_W_components(17) == (Fraction(-3, 2), Fraction(-3, 2))
    assert chi_W_components(25) == (-3, Fraction(-3, 2))
    assert chi_W_components(49) == (-9, -6)
    for D in (17, 25, 41, 49):
        assert sum(chi_W_components(D)) == chi_W(D)
    with pytest.raises(ValueError):
        chi_W_components(9)
    with pytest.raises(ValueError):
        chi_W_components(12)


def test_chi_p_and_q():
    assert chi_P(4) == Fraction(-1, 6)
    assert chi_P(17) == Fraction(-5, 3)
    assert chi_P(25) == Fraction(-19, 6)
    assert chi_Q(4) == Fraction(-1, 6)
    assert chi_Q(17) == Fraction(-10, 3)
    for D in (5, 8, 12, 17, 25, 36, 45):
        assert chi_Q(D) == 2 * chi_P(D)


def test_chi_s():
    assert chi_S(4) == Fraction(-1, 2)
    assert chi_S(9) == Fraction(-2, 3)
    assert chi_S(25) == -2
    with pytest.raises(ValueError):
        chi_S(5)  # square discriminants only


def _chis_by_formula(D):
    """README's chi table in public Fraction arithmetic, with its literal rows."""
    if D == 1:
        return {"chi_x": Fraction(1, 36), "chi_w": Fraction(0), "chi_w_components": None,
                "chi_p": None, "chi_q": None, "chi_s": None}
    if D == 4:
        return {"chi_x": Fraction(1, 6), "chi_w": Fraction(0), "chi_w_components": None,
                "chi_p": Fraction(-1, 6), "chi_q": Fraction(-1, 6),
                "chi_s": Fraction(-1, 2)}
    d0, f = decompose_discriminant(D)
    split = D % 8 == 1 and D > 9
    if d0 == 1:
        d, s = f, mobius_weighted_sum(1, f)
        return {
            "chi_x": d**3 * s / 72,
            "chi_w": -d * d * (d - 2) * s / 16,
            "chi_w_components": (-d * d * (d - 1) * s / 32,
                                 -d * d * (d - 3) * s / 32) if split else None,
            "chi_p": -d * d * (5 * d - 6) * s / 144,
            "chi_q": -d * d * (5 * d - 6) * s / 72,
            "chi_s": -d * d * s / 12,
        }
    x = 2 * f**3 * zeta_minus_one(d0) * mobius_weighted_sum(d0, f)
    w = -Fraction(9, 2) * x
    return {"chi_x": x, "chi_w": w, "chi_w_components": (w / 2, w / 2) if split else None,
            "chi_p": -Fraction(5, 2) * x, "chi_q": -5 * x, "chi_s": None}


def _typed(v):
    """v with each entry paired with its class, so that == is class-exact."""
    return tuple(map(_typed, v)) if isinstance(v, tuple) else (type(v), v)


def test_chis_match_the_readme_formulas():
    # Class-exact, in key order: every D <= 5000 and three large D, one square.
    keys = [k for k in EulerReport._fields
            if k not in ("D", "d0", "f", "h", "cusps_two_cylinder")]
    for D in [D for D in range(1, 5001) if D % 4 in (0, 1)] + [199809, 200004, 200017]:
        got, want = _chis(D), _chis_by_formula(D)
        assert list(got) == keys, D
        for k, v in want.items():
            assert _typed(got[k]) == _typed(v), (D, k)


def test_one_cylinder_matches_its_formula():
    for d in range(4, 401):
        s, half_phi = mobius_weighted_sum(1, d), Fraction(euler_phi(d), 2)
        want = [d * d * s / 6 - half_phi]
        if d % 2:
            want += [d * d * s / 24, d * d * s / 8 - half_phi]
        assert all(w.denominator == 1 for w in want), d
        chis = _chis(d * d)
        got = [chis["cusps_one_cylinder"], *(chis["cusps_one_cylinder_spin"] or ())]
        assert all(type(g) is int for g in got) and got == want, d


def test_psi():
    assert psi(1) == Fraction(-1, 6)
    assert psi(2) == Fraction(-1, 2)
    assert psi(3) == Fraction(-2, 3)
    assert psi(4) == -1
    assert psi(6) == Fraction(-2)


def test_rm_prototypes():
    assert rm_prototypes(12) == [(-2, 1, 2), (0, 1, 3), (2, 1, 2)]
    for e, l, m in rm_prototypes(300):
        assert e * e + 4 * l * l * m == 300
    assert chi_Q_via_rm_prototypes(12) == Fraction(-5, 3)


def _rm_grid(D):
    """rm_prototypes by a walk over the (l, m) grid, kept as a reference."""
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


def test_rm_prototypes_match_the_grid_walk():
    ds = [D for D in range(4, 3001) if D % 4 in (0, 1)]
    ds += [19881, *(D for D in range(20001, 20010) if D % 4 in (0, 1)), 20736]
    for D in ds:
        assert rm_prototypes(D) == _rm_grid(D), D


def test_rm_route_agrees():
    for D in [D for D in range(5, 200) if D % 4 in (0, 1)]:
        assert chi_Q(D) == chi_Q_via_rm_prototypes(D), D


def test_num_components():
    assert num_components(9) == 1
    assert num_components(12) == 1
    assert num_components(17) == 2
    assert num_components(25) == 2
    assert num_components(33) == 2


def test_one_cylinder_cusps():
    assert one_cylinder_cusps(4) == (1, None, None)
    assert one_cylinder_cusps(5) == (2, 1, 1)
    assert one_cylinder_cusps(7) == (5, 2, 3)
    with pytest.raises(ValueError):
        one_cylinder_cusps(3)
    with pytest.raises(ValueError):
        one_cylinder_cusps(2)


def test_one_cylinder_spin_split_is_consistent():
    for d in range(4, 31):
        total, s0, s1 = one_cylinder_cusps(d)
        assert total >= 0
        if d % 2 == 1:
            assert s0 >= 0 and s1 >= 0
            assert s0 + s1 == total
        else:
            assert s0 is None and s1 is None


def test_lyapunov_lambda2():
    assert lyapunov_lambda2("double_zero") == Fraction(1, 3)
    assert lyapunov_lambda2("two_simple_zeros") == Fraction(1, 2)
    with pytest.raises(ValueError):
        lyapunov_lambda2("minimal")


def test_cusp_moduli_sum_to_minus_twenty_thirds_chi():
    """lambda_2 = 1/3 on every W_D, in its cusp form, also per spin component.

    Let S sum (a - c)/gcd(a, c) over the W prototypes (a, b, c, q) and 1
    over the one-cylinder cusps.  By the Eskin-Kontsevich-Zorich formula,
    with kappa = 2/9 in H(2), Bainbridge's lambda_2 = 1/3 holds exactly
    when S = -(20/3) chi(W_D).  The prototypes are split by `spin` where
    W_D splits.
    """
    for D in range(5, 601):
        if D % 4 > 1 or D == 9:
            continue
        split = _spin_applies(D)
        s = [0, 0]
        for p in enumerate_prototypes(D, "W"):
            s[spin(p) if split else 0] += (p.a - p.c) // math.gcd(p.a, p.c)
        chis = _chis(D)
        ones, ones_split = chis["cusps_one_cylinder"], chis["cusps_one_cylinder_spin"]
        assert s[0] + s[1] + ones == Fraction(-20, 3) * chis["chi_w"], D
        if split:
            for eps, k in enumerate(ones_split or (0, 0)):
                chi = chis["chi_w_components"][eps]
                assert s[eps] + k == Fraction(-20, 3) * chi, (D, eps)


def test_consistency_chain_passes():
    # 20, 180, 300 and 1025 have conductor f = 2, 6, 5 and 5; at 180 the
    # composite f has a nonzero Moebius value.
    h2_sigma3 = {20: Fraction(-22, 5), 180: Fraction(-682, 5), 300: -262, 1025: -1936}
    for D in (5, 8, 9, 12, 16, 17, 25, 45, 49, 100, 20, 180, 300, 1025):
        checks = consistency_chain(D)
        for check in checks:
            assert check.ok, (D, check.name, check.lhs, check.rhs)
            assert type(check.lhs) is Fraction and type(check.rhs) is Fraction, (D, check)
        if D in h2_sigma3:
            assert [c.rhs for c in checks if c.name == "h2_sigma3"] == [h2_sigma3[D]]


def test_consistency_chain_names():
    names = {c.name for c in consistency_chain(17)}
    assert "euler_ratio" in names
    assert "component_sum" in names
    assert "cusp_counts" in names


def test_euler_report_nonsquare():
    r = euler_report(45)
    assert r.chi_x == 2
    assert r.chi_w == -9
    assert r.chi_w_components is None
    assert r.cusps_one_cylinder == 0
    assert r.components == 1
    j = r.to_json()
    assert j["chi_W0"] is None
    assert j["h2"] == "-62/5"
    assert j["cusps_two_cyl"] == 8


def test_euler_report_two_cylinder_cusps_count_w_prototypes():
    for D in [*range(1, 1501), 19881, 20001, 50020, 50021, 50033, 50176]:
        if D % 4 in (0, 1):
            want = len(enumerate_prototypes(D, "W"))
            assert euler_report(D).cusps_two_cylinder == want, D


def test_euler_report_two_cylinder_cusps_match_the_reference_enumerator():
    for D in range(5, 301):
        if D % 4 in (0, 1):
            want = len(reference_tuples(D, "W"))
            assert euler_report(D).cusps_two_cylinder == want, D


def test_euler_report_split_square():
    r = euler_report(25)
    assert r.components == 2
    assert r.cusps_one_cylinder == 2
    assert r.cusps_one_cylinder_spin == (1, 1)
    assert r.chi_w_components == (-3, Fraction(-3, 2))


def test_euler_report_d9_one_cylinder_is_undefined():
    r = euler_report(9)
    assert r.cusps_one_cylinder is None
    assert r.to_json()["cusps_one_cyl"] is None


def test_euler_report_tiny():
    assert euler_report(4).cusps_one_cylinder == 0
    assert euler_report(1).chi_x == Fraction(1, 36)


def test_h_table():
    rows = h_table(0, 16)
    assert rows[0] == (0, Fraction(1, 120))
    assert (5, Fraction(-2, 5)) in rows
    assert [D for D, _ in rows] == [0, 1, 4, 5, 8, 9, 12, 13, 16]
