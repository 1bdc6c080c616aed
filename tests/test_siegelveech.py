import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from collections import Counter

import pytest

import wcurves

from wcurves.exact import QuadNum, decompose_discriminant, is_discriminant, is_square
from wcurves.prototypes import (
    Prototype,
    _spin_split,
    _w_cusps,
    enumerate_prototypes,
    lambda_of,
    spin,
)
from wcurves.euler import chi_W, chi_W_components
from wcurves.siegelveech import (
    _area,
    _constants,
    _over_area,
    _v_sums,
    _v_tpass,
    billiards_coefficient,
    billiards_constant,
    sv_constant,
    sv_constant_components,
    sv_report,
    unfolding_area,
    unfolding_prototype,
    v_of_prototype,
)


def _q(D, rat, rad=0):
    return QuadNum(D, Fraction(rat), Fraction(rad))


def test_v_values_d5_d8():
    assert v_of_prototype(Prototype("W", 5, 1, -1, -1)) == 5
    assert v_of_prototype(Prototype("W", 8, 1, 0, -2)) == 6
    assert v_of_prototype(Prototype("W", 8, 1, -2, -1)) == 8


def test_v_values_d12():
    assert v_of_prototype(Prototype("W", 12, 1, -2, -2)) == QuadNum(12, 9, Fraction(1, 2))
    assert v_of_prototype(Prototype("W", 12, 2, -2, -1)) == QuadNum(12, 9, Fraction(-1, 2))
    assert v_of_prototype(Prototype("W", 12, 1, 0, -3)) == 8


def test_v_values_d17_by_spin():
    eighth = Fraction(1, 8)
    assert v_of_prototype(Prototype("W", 17, 1, 1, -4)) == _q(17, Fraction(85, 8), -3 * eighth)
    assert v_of_prototype(Prototype("W", 17, 2, -1, -2, 0)) == Fraction(17, 4)
    assert v_of_prototype(Prototype("W", 17, 2, -1, -2, 1)) == Fraction(17, 4)
    assert v_of_prototype(Prototype("W", 17, 1, -3, -2)) == _q(17, Fraction(51, 4), Fraction(3, 4))
    assert v_of_prototype(Prototype("W", 17, 2, -3, -1)) == _q(17, Fraction(51, 4), Fraction(-3, 4))
    assert v_of_prototype(Prototype("W", 17, 1, -1, -4)) == _q(17, Fraction(85, 8), Fraction(3, 8))


def test_v_needs_kind_w():
    with pytest.raises(ValueError):
        v_of_prototype(Prototype("Y", 17, 1, -3, -2))


def test_sv_constants_rational():
    assert sv_constant(5) == Fraction(25, 3)
    assert sv_constant(8) == Fraction(28, 3)
    assert sv_constant(12) == Fraction(26, 3)
    assert sv_constant(13) == Fraction(91, 9)
    assert sv_constant(29) == Fraction(377, 35)


def test_sv_components_d17():
    c0, c1 = sv_constant_components(17)
    assert c0 == _q(17, Fraction(221, 24), Fraction(1, 8))
    assert c1 == _q(17, Fraction(221, 24), Fraction(-1, 8))
    assert c1 == c0.galois_conjugate()
    assert (c0 + c1) / 2 == sv_constant(17)


def test_sv_components_need_split_regime():
    with pytest.raises(ValueError):
        sv_constant_components(12)


def test_square_discriminants_rejected():
    for fn in (sv_constant, billiards_constant, sv_report):
        with pytest.raises(ValueError, match="square"):
            fn(16)
    with pytest.raises(ValueError, match="^D=16 is a square: cylinder-counting constants"):
        v_of_prototype(Prototype("W", 16, 1, -2, -3))
    with pytest.raises(ValueError):
        sv_constant(4)


def test_billiards_constant():
    assert billiards_constant(5) == Fraction(25, 3)
    assert billiards_constant(17) == _q(17, Fraction(221, 24), Fraction(-1, 8))
    assert billiards_constant(33) == _q(33, Fraction(473, 48), Fraction(11, 144))


def test_billiards_constant_is_the_unfolding_components():
    """Through public functions only: for split D the constant of the spin
    of the unfolding prototype, for nonsplit D the constant of all of W."""
    for D in range(5, 2001):
        if not is_discriminant(D) or is_square(D):
            continue
        if D % 8 == 1:
            want = sv_constant_components(D)[spin(unfolding_prototype(D))]
        else:
            want = sv_constant(D)
        assert billiards_constant(D) == want, D


def test_unfolding_prototype():
    p5 = unfolding_prototype(5)
    assert (p5.a, p5.b, p5.c, p5.q) == (1, -1, -1, 0)
    p8 = unfolding_prototype(8)
    assert (p8.a, p8.b, p8.c, p8.q) == (1, 0, -2, 0)
    p17 = unfolding_prototype(17)
    assert (p17.a, p17.b, p17.c, p17.q) == (1, -1, -4, 0)


def test_unfolding_area():
    assert unfolding_area(5) == _q(5, Fraction(5, 2), Fraction(1, 2))
    assert unfolding_area(8) == 2
    area = unfolding_area(17)
    assert area == _q(17, Fraction(17, 8), Fraction(1, 8))
    assert area.sign1() > 0


def test_billiards_coefficient_digits():
    text = billiards_coefficient(5)
    assert text.startswith("7.235957114090199832630701894327")
    mantissa = text.replace(".", "").lstrip("0")
    assert len(mantissa) == 50
    short = billiards_coefficient(5, digits=12)
    assert text.startswith(short[:10])


def test_sv_report_fields():
    r = sv_report(5)
    assert r.components is None
    assert r.constant == Fraction(25, 3)
    j = r.to_json()
    assert j["c"] == "25/3"
    assert j["c0"] is None
    r17 = sv_report(17)
    j17 = r17.to_json()
    assert j17["c0"] == "221/24 + 1/8*sqrt(17)"
    assert j17["billiards"] == "221/24 - 1/8*sqrt(17)"


def test_coefficient_rejects_nonpositive_digits():
    for digits in (0, -3):
        with pytest.raises(ValueError, match="digit"):
            billiards_coefficient(17, digits=digits)
        with pytest.raises(ValueError, match="digit"):
            sv_report(17, digits=digits)


def _oracle(D):
    """QuadNum sums of v_of_prototype over the W prototypes, split by spin."""
    split = D % 8 == 1
    sums = [QuadNum(D), QuadNum(D)]
    for p in enumerate_prototypes(D, "W"):
        eps = spin(p) if split else 0
        sums[eps] = sums[eps] + v_of_prototype(p)
    return sums


def test_closed_form_matches_quadnum_oracle():
    for D in range(5, 1001):
        if D % 4 not in (0, 1) or is_square(D):
            continue
        s0, s1 = _oracle(D)
        assert _v_sums(D) == (s0, s1), D
        assert sv_constant(D) == (s0 + s1) / (-2 * chi_W(D)), D
        if D % 8 == 1:
            chi0, chi1 = chi_W_components(D)
            assert sv_constant_components(D) == (s0 / (-2 * chi0), s1 / (-2 * chi1)), D


def test_parity_split_d17():
    w0, w1 = (Prototype("W", 17, 2, -1, -2, q) for q in (0, 1))
    assert spin(w0) != spin(w1)
    _, f = decompose_discriminant(17)
    assert (2, -1, -2, 2) in set(_w_cusps(17))
    assert _spin_split(2, -1, -2, 2, f) == (1, 1)
    # Each spin gets one copy of v(2, -1, -2) = 17/4 besides two other terms:
    # spin 0 v(1, -3, -2) + v(1, 1, -4), spin 1 v(1, -1, -4) + v(2, -3, -1).
    s0, s1 = _v_sums(17)
    assert s0 == _q(17, Fraction(221, 8), Fraction(3, 8))
    assert s1 == _q(17, Fraction(221, 8), Fraction(-3, 8))


def test_spin_split_matches_enumerated_spins():
    for D in (17, 33, 41, 57, 73, 89, 97, 105, 161, 185, 201, 217, 273):
        _, f = decompose_discriminant(D)
        spins = Counter()
        for p in enumerate_prototypes(D, "W"):
            spins[(p.a, p.b, p.c, spin(p))] += 1
        for a, b, c, n in _w_cusps(D):
            want = (spins[(a, b, c, 0)], spins[(a, b, c, 1)])
            assert _spin_split(a, b, c, n, f) == want, (D, a, b, c)


def test_closed_form_matches_quadnum_oracle_at_large_d():
    # split, nonsplit odd and even D; each has over 100 distinct denominators
    for D in (50033, 50021, 50020):
        assert len({-2 * a * c * math.gcd(a, c) for a, b, c, n in _w_cusps(D)}) > 100
        assert _v_sums(D) == tuple(_oracle(D)), D


def test_t_pass_total_matches_triple_scan():
    # Beyond 4000: nonsplit odd 45141, nonsplit even 47928 and 50020,
    # split 50033 and 200017.
    for D in [*range(5, 4001), 45141, 47928, 50020, 50033, 200017]:
        if D % 4 not in (0, 1) or is_square(D):
            continue
        s0, s1 = _v_sums(D)
        t0 = _v_tpass(D)
        assert (t0 + t0.galois_conjugate() if D % 8 == 1 else t0) == s0 + s1, D


def _split_discriminants(dmax):
    return [D for D in range(17, dmax + 1, 8) if not is_square(D)]


def test_t_pass_spins_match_triple_scan():
    # Spin 0 from the pass, spin 1 its conjugate.
    for D in [*_split_discriminants(4000), 50033, 200017, 2000017, 2000033]:
        s0 = _v_tpass(D)
        assert (s0, s0.galois_conjugate()) == _v_sums(D), D


def test_spins_have_equal_two_cylinder_cusp_counts():
    # The pairing of _v_tpass: paired W triples have opposite spins, or
    # both split evenly.
    for D in _split_discriminants(4000):
        _, f = decompose_discriminant(D)
        n0, n1 = map(sum, zip(*(_spin_split(*w, f) for w in _w_cusps(D))))
        assert n0 == n1, D


def test_constants_are_the_t_pass_over_minus_twice_chi():
    # _constants divides by chi's integer pair; here the Fraction chi's of
    # `euler` divide the same t-pass sums.
    for D in [*range(5, 3001), 50033, 2000017]:
        if D % 4 not in (0, 1) or is_square(D):
            continue
        s0 = _v_tpass(D)
        constant, components, _ = _constants(D)
        if D % 8 != 1:
            assert (constant, components) == (s0 / (-2 * chi_W(D)), None), D
            continue
        s1 = s0.galois_conjugate()
        chi0, chi1 = chi_W_components(D)
        assert constant == (s0 + s1) / (-2 * chi_W(D)), D
        assert components == (s0 / (-2 * chi0), s1 / (-2 * chi1)), D


_COUNT_FRACTIONS = """
import sys
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
from wcurves.siegelveech import sv_report

made = 0
new = Fraction.__new__

def counted_new(cls, *args, **kwargs):
    global made
    made += 1
    return new(cls, *args, **kwargs)

Fraction.__new__ = counted_new
if hasattr(Fraction, "_from_coprime_ints"):
    # Python 3.12 and later build arithmetic results without __new__.
    coprime = Fraction._from_coprime_ints.__func__

    def counted_coprime(cls, n, d):
        global made
        made += 1
        return coprime(cls, n, d)

    Fraction._from_coprime_ints = classmethod(counted_coprime)
for D in map(int, sys.argv[2:]):
    sv_report(D).to_json()
print(made)
str(Fraction(1, 3) + Fraction(1, 6))
print(made)
"""


def test_sv_report_builds_no_fraction():
    # In a subprocess: the counters replace Fraction methods for good.
    src = str(Path(wcurves.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", _COUNT_FRACTIONS, src, "5", "13", "17", "50020"],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    # The second count shows that the counters see Fraction arithmetic.
    assert int(out[0]) == 0 and int(out[1]) >= 2, out


# Every nonsquare D in 5..5000, and one large D each split (2000017),
# nonsplit odd (200017) and even (2000016).
_CLOSED_FORM_DS = [
    D for D in [*range(5, 5001), 200017, 2000016, 2000017]
    if D % 4 in (0, 1) and not is_square(D)
]


def test_area_closed_form_is_the_lambda_route():
    for D in _CLOSED_FORM_DS:
        p = unfolding_prototype(D)
        assert _area(D) == 1 - lambda_of(p) ** 2 * p.a / p.c, D


def test_over_area_closed_form_is_the_quadnum_division():
    for D in _CLOSED_FORM_DS:
        area = unfolding_area(D)
        constant, components, billiards = _constants(D)
        for c in (constant, *(components or ()), billiards):
            assert _over_area(D, c) == c / area, D


def test_sv_report_divides_no_quadnum(monkeypatch):
    calls = Counter()
    for name in ("__truediv__", "inverse"):
        method = getattr(QuadNum, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(QuadNum, name, counted)
    for D in (5, 8, 17, 50017):
        sv_report(D).to_json()
    assert not calls, calls
    # The counters see a division, and the inverse that 1 / x takes.
    QuadNum(5, 1, 1) / QuadNum(5, 2, 1)
    1 / QuadNum(5, 2, 1)
    assert calls == {"__truediv__": 1, "inverse": 1}, calls
