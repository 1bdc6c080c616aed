import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcurves import exact
from wcurves.exact import (
    QuadNum,
    check_discriminant,
    decompose_discriminant,
    divisors,
    euler_phi,
    is_discriminant,
    is_square,
    kronecker,
    mobius,
    mobius_weighted_sum,
    sigma,
)
from wcurves.euler import chi_X
from wcurves.verify import verify_discriminant


def test_is_square():
    assert [n for n in range(1, 30) if is_square(n)] == [1, 4, 9, 16, 25]
    assert not is_square(-4)
    assert is_square(0)


def test_is_discriminant():
    good = [n for n in range(1, 22) if is_discriminant(n)]
    assert good == [1, 4, 5, 8, 9, 12, 13, 16, 17, 20, 21]
    assert not is_discriminant(7)
    assert not is_discriminant(-4)
    assert not is_discriminant(True)


def test_check_discriminant_message():
    with pytest.raises(ValueError, match="congruent to 0 or 1 mod 4"):
        check_discriminant(7)
    with pytest.raises(ValueError, match=">= 5"):
        check_discriminant(4, minimum=5)
    check_discriminant(5, minimum=5)
    # bool is an int subclass, but True is no discriminant
    with pytest.raises(ValueError, match="^invalid discriminant True: need an integer >= 1 "):
        QuadNum(True, 1, 1)
    with pytest.raises(ValueError, match="^invalid discriminant True: need an integer >= 1 "):
        chi_X(True)
    with pytest.raises(ValueError, match="^invalid discriminant True: need an integer >= 1 "):
        verify_discriminant(True)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]


def test_sigma_values():
    assert sigma(1, 6) == 12
    assert sigma(3, 4) == 73
    assert sigma(1, 1) == 1
    # constant terms of the two Eisenstein series
    assert sigma(1, 0) == Fraction(-1, 24)
    assert sigma(3, 0) == Fraction(1, 240)
    assert sigma(1, -3) == 0
    assert sigma(3, -8) == 0


def test_sigma_rejects_non_integers():
    for n in (False, True, 2.0, Fraction(4)):
        for m in (1, 3):
            with pytest.raises(ValueError, match="^sigma needs an integer n, got "):
                sigma(m, n)


def test_sigma_multiplicative():
    for m in (1, 3):
        assert sigma(m, 6) == sigma(m, 2) * sigma(m, 3)
        assert sigma(m, 35) == sigma(m, 5) * sigma(m, 7)


def test_mobius():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


def test_kronecker():
    assert [kronecker(5, r) for r in range(1, 6)] == [1, -1, -1, 1, 0]
    assert [kronecker(8, r) for r in range(1, 6)] == [1, 0, -1, 0, -1]
    assert all(kronecker(1, n) == 1 for n in range(1, 20))
    # completely multiplicative in the lower argument
    for a in (5, 13, 17):
        for m in range(1, 8):
            for n in range(1, 8):
                assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_decompose_discriminant():
    assert decompose_discriminant(5) == (5, 1)
    assert decompose_discriminant(8) == (8, 1)
    assert decompose_discriminant(12) == (12, 1)
    assert decompose_discriminant(17) == (17, 1)
    assert decompose_discriminant(20) == (5, 2)
    assert decompose_discriminant(45) == (5, 3)
    assert decompose_discriminant(48) == (12, 2)
    assert decompose_discriminant(4) == (1, 2)
    assert decompose_discriminant(9) == (1, 3)
    assert decompose_discriminant(25) == (1, 5)


def test_mobius_weighted_sum():
    # only squarefree divisors contribute
    assert mobius_weighted_sum(1, 4) == 1 - Fraction(1, 4)
    assert mobius_weighted_sum(5, 1) == 1
    assert mobius_weighted_sum(5, 2) == 1 - kronecker(5, 2) * Fraction(1, 4)


def test_quadnum_requires_discriminant():
    with pytest.raises(ValueError):
        QuadNum(7, 1, 1)
    with pytest.raises(ValueError):
        QuadNum(-4, 1, 1)


def test_quadnum_golden_ratio():
    lam = QuadNum(5, Fraction(1, 2), Fraction(1, 2))
    assert lam * lam == lam + 1
    assert lam.norm() == -1
    assert lam.sign1() > 0
    assert lam.sign2() < 0
    assert lam.inverse() == lam - 1


def test_quadnum_sqrt_constructor():
    r = QuadNum.sqrt(8)
    assert r * r == 8
    assert r.norm() == -8
    assert (1 / r) * r == 1


def test_quadnum_rational_leniency():
    two = QuadNum(5, 2)
    assert two == 2
    assert two == Fraction(2)
    assert two == QuadNum(8, 2)
    assert two + QuadNum(8, 3) == 5
    assert hash(two) == hash(QuadNum(8, 2)) == hash(Fraction(2))


def test_quadnum_mixed_discriminants_rejected():
    x = QuadNum.sqrt(5)
    y = QuadNum.sqrt(8)
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        x * y
    assert x != y


def test_quadnum_arithmetic_with_scalars():
    x = QuadNum(13, Fraction(3, 2), Fraction(1, 2))
    assert 2 * x - x == x
    assert (x / 2) * 2 == x
    assert 1 + x - 1 == x
    assert Fraction(1, 3) * x * 3 == x
    assert -x + x == 0
    assert not (x - x)


def test_quadnum_pow():
    x = QuadNum(5, 1, 1)
    assert x ** 0 == 1
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inverse()


def test_quadnum_pow_squares_and_multiplies(monkeypatch):
    # 4096 = 2^12 has 13 bits: at most a squaring and a product per bit.
    x = QuadNum(5, 1, 1) / 2
    calls = []
    build = exact._quadnum

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(exact, "_quadnum", counted)
    y = x ** 4096
    assert 0 < len(calls) <= 2 * 13
    monkeypatch.undo()
    z = x ** 64
    for _ in range(6):
        z = z * z
    assert y == z and y.disc == 5


def test_quadnum_galois_conjugate():
    x = QuadNum(17, Fraction(2), Fraction(3, 5))
    assert x.galois_conjugate().galois_conjugate() == x
    assert x * x.galois_conjugate() == x.norm()


def test_quadnum_square_discriminant_embeddings():
    x = QuadNum(9, 1, 1)
    assert x.norm() == -8
    assert x.sign1() > 0 and x.sign2() < 0


def test_quadnum_zero_divisor():
    x = QuadNum(9, 3, 1)
    y = x.galois_conjugate()
    assert x * y == 0
    assert x != 0 and y != 0
    assert x.norm() == 0
    with pytest.raises(ZeroDivisionError):
        x.inverse()


def test_quadnum_str():
    assert str(QuadNum(17, Fraction(221, 24), Fraction(1, 8))) == "221/24 + 1/8*sqrt(17)"
    assert str(QuadNum(17, Fraction(221, 24), Fraction(-1, 8))) == "221/24 - 1/8*sqrt(17)"
    assert str(QuadNum(5, 0, 1)) == "1*sqrt(5)"
    assert str(QuadNum(5, 0, -1)) == "-1*sqrt(5)"
    assert str(QuadNum(5, Fraction(25, 3))) == "25/3"
    assert str(QuadNum(5, 0)) == "0"


def test_quadnum_json_round_trip():
    x = QuadNum(17, Fraction(3, 2), Fraction(-1, 2))
    assert QuadNum.from_json(x.to_json()) == x
    assert x.to_json() == {"rat": "3/2", "rad": "-1/2", "disc": 17}


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"disc": 5.7}, r"^invalid discriminant 5\.7: "),
        ({"disc": True}, "^invalid discriminant True: "),
        ({"disc": "5"}, "^invalid discriminant '5': "),
        ({"rat": 0.1}, r"^QuadNum.from_json needs rat as a fraction string .*, got 0\.1$"),
        ({"rat": 1}, "needs rat as a fraction string .*, got 1$"),
        ({"rad": "2/4"}, "needs rad as a fraction string .*, got '2/4'$"),
        ({"rad": "0.5"}, "needs rad as a fraction string .*, got '0.5'$"),
        ({"rat": "x"}, "needs rat as a fraction string .*, got 'x'$"),
    ],
)
def test_quadnum_from_json_coerces_nothing(fields, message):
    # each field must be exactly what to_json writes
    with pytest.raises(ValueError, match=message):
        QuadNum.from_json({"rat": "3/2", "rad": "-1/2", "disc": 17, **fields})


@pytest.mark.parametrize("key", ["disc", "rat", "rad"])
def test_quadnum_from_json_names_a_missing_field(key):
    record = {"rat": "3/2", "rad": "-1/2", "disc": 17}
    del record[key]
    with pytest.raises(ValueError, match=f"^QuadNum.from_json needs the field '{key}'$"):
        QuadNum.from_json(record)


def test_quadnum_from_json_names_an_unknown_field():
    with pytest.raises(ValueError, match="^QuadNum.from_json got an unknown field 'junk'$"):
        QuadNum.from_json({"disc": 5, "rat": "1", "rad": "0", "junk": 1})


_rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
_discs = st.sampled_from([5, 8, 9, 12, 13, 17, 25, 44, 49, 173])


def _text_from_fractions(x):
    """str of x as written from the Fractions rat and rad."""
    rat, rad = x.rat, x.rad
    if rad == 0:
        return str(rat)
    tail = f"{abs(rad)}*sqrt({x.disc})"
    if rat == 0:
        return tail if rad > 0 else f"-{tail}"
    return f"{rat} {'+' if rad > 0 else '-'} {tail}"


def _assert_text_is_the_fractions(x):
    assert str(x) == _text_from_fractions(x)
    assert x.to_json() == {"rat": str(x.rat), "rad": str(x.rad), "disc": x.disc}
    assert QuadNum.from_json(x.to_json()) == x


_BIG = 10**40 + 7


@pytest.mark.parametrize(
    "disc, rat, rad",
    [
        (5, 0, 0),
        (5, Fraction(-7, 3), 0),
        (5, -4, 0),
        (5, 0, -1),
        (17, 0, Fraction(3, 8)),
        (17, Fraction(-221, 24), Fraction(-1, 8)),
        (17, Fraction(221, 24), Fraction(-1, 8)),
        (25, Fraction(3, 2), Fraction(-5, 6)),  # a square disc
        (49, 0, 1),
        (50020, Fraction(-_BIG, 3 * 10**21), Fraction(12345678901234567890, _BIG)),
    ],
)
def test_quadnum_text_is_the_fraction_text(disc, rat, rad):
    _assert_text_is_the_fractions(QuadNum(disc, rat, rad))


def test_quadnum_text_of_arithmetic_results():
    # (x + y sqrt(D))/z where z shares a factor with one part only
    x = QuadNum(5, Fraction(1, 2), Fraction(1, 3))
    for y in (x * 6, x * 4, x * 9, -x * 10, x - x, x * x, x.inverse(), (x * 6 - 3) * Fraction(-1, 7)):
        _assert_text_is_the_fractions(y)


@settings(max_examples=300, deadline=None)
@given(_rationals, _rationals, _rationals, _rationals, _discs)
def test_quadnum_text_sweep(p, q, r, s, disc):
    x = QuadNum(disc, p, q)
    _assert_text_is_the_fractions(x)
    _assert_text_is_the_fractions(x * QuadNum(disc, r, s))
    _assert_text_is_the_fractions(x + r)


@settings(max_examples=200, deadline=None)
@given(_rationals, _rationals, _rationals, _rationals, _discs)
def test_norm_is_multiplicative(p, q, r, s, disc):
    x = QuadNum(disc, p, q)
    y = QuadNum(disc, r, s)
    assert (x * y).norm() == x.norm() * y.norm()


@settings(max_examples=200, deadline=None)
@given(_rationals, _rationals, _rationals, _rationals, _discs)
def test_conjugation_is_a_ring_map(p, q, r, s, disc):
    x = QuadNum(disc, p, q)
    y = QuadNum(disc, r, s)
    assert (x * y).galois_conjugate() == x.galois_conjugate() * y.galois_conjugate()
    assert (x + y).galois_conjugate() == x.galois_conjugate() + y.galois_conjugate()


@settings(max_examples=200, deadline=None)
@given(_rationals, _rationals, _discs)
def test_inverse_left_and_right(p, q, disc):
    x = QuadNum(disc, p, q)
    if x.norm() == 0:
        return
    assert x * x.inverse() == 1
    assert x.inverse() * x == 1
    assert 1 / x == x.inverse()


@settings(max_examples=150, deadline=None)
@given(_rationals, _rationals, _discs)
def test_sign_matches_real_embedding(p, q, disc):
    import math

    x = QuadNum(disc, p, q)
    approx = p + q * math.sqrt(disc)
    if abs(approx) > 1e-6:
        assert x.sign1() == (1 if approx > 0 else -1)
    _assert_signs(x)


_scalars = st.one_of(st.integers(min_value=-10**6, max_value=10**6), _rationals)


def _scalar_results(x, k):
    """(result, want rat, want rad) for each operator with the scalar k on either side."""
    p, q = x.rat, x.rad
    out = [
        (x + k, p + k, q), (k + x, p + k, q),
        (x - k, p - k, q), (k - x, k - p, -q),
        (x * k, p * k, q * k), (k * x, p * k, q * k),
    ]
    if k != 0:
        out.append((x / k, p / k, q / k))
    n = x.norm()
    if n != 0:
        out.append((k / x, k * p / n, -k * q / n))
    return out


@settings(max_examples=200, deadline=None)
@given(_rationals, _rationals, _scalars, _discs)
def test_scalar_operands_match_the_validated_route(p, q, k, disc):
    x = QuadNum(disc, p, q)
    for got, rat, rad in _scalar_results(x, k):
        want = QuadNum(disc, rat, rad)
        assert got == want and got.disc == disc
        assert type(got.rat) is Fraction and type(got.rad) is Fraction
        assert hash(got) == hash(want)
        assert str(got) == str(want)


def test_arithmetic_error_messages():
    x = QuadNum(13, 1, 1)
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError) as err:
            x / zero
        assert str(err.value) == "0 has norm zero and is not invertible"
    with pytest.raises(ZeroDivisionError) as err:
        0 / QuadNum(9, 3, 1)
    assert str(err.value) == "3 + 1*sqrt(9) has norm zero and is not invertible"
    with pytest.raises(ValueError) as err:
        QuadNum.sqrt(5) - QuadNum.sqrt(8)
    assert str(err.value) == "mixed discriminants 5 and 8"
    # mixed discriminants are reported before a zero divisor
    with pytest.raises(ValueError) as err:
        QuadNum(5, 1, 1) / QuadNum(9, 3, 1)
    assert str(err.value) == "mixed discriminants 5 and 9"


def _rational_sign(rat, rad, disc):
    """Sign of rat + rad*sqrt(disc) from rational brackets lo <= sqrt(disc) <= hi."""
    if rat == 0 and rad == 0:
        return 0
    scale = 10
    while True:
        lo = Fraction(math.isqrt(disc * scale * scale), scale)
        if lo * lo == disc:
            v = rat + rad * lo
            return (v > 0) - (v < 0)
        ends = (rat + rad * lo, rat + rad * (lo + Fraction(1, scale)))
        if min(ends) > 0:
            return 1
        if max(ends) < 0:
            return -1
        scale *= scale


def _convergents(D, count):
    """The first continued-fraction convergents p/q of sqrt(D), D nonsquare."""
    a0 = math.isqrt(D)
    m, d, a = 0, 1, a0
    p, p_prev, q, q_prev = a0, 1, 1, 0
    out = [(p, q)]
    for _ in range(count - 1):
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append((p, q))
    return out


def _assert_signs(x):
    assert x.sign1() == _rational_sign(x.rat, x.rad, x.disc)
    assert x.sign2() == _rational_sign(x.rat, -x.rad, x.disc)


def test_sign_at_square_boundary():
    for d in (3, 5, 7):
        for rad in (Fraction(1), Fraction(-2, 3), Fraction(10**12 + 1, 7)):
            for rat in (-d * rad, d * rad):
                x = QuadNum(d * d, rat, rad)
                _assert_signs(x)
                assert 0 in (x.sign1(), x.sign2())
                for nudge in (Fraction(1, 10**15), Fraction(-1, 10**15)):
                    _assert_signs(QuadNum(d * d, rat + nudge, rad))


def test_sign_near_norm_zero():
    for D in (5, 13, 61, 1009, 10**6 + 1):
        for p, q in _convergents(D, 25):
            for scale in (1, 7):
                x = QuadNum(D, Fraction(p, scale), Fraction(-q, scale))
                assert abs(x.norm()) * scale * scale <= 4 * math.isqrt(D) + 4
                _assert_signs(x)
                _assert_signs(-x)



def test_public_constructor_runs_the_hook_once_and_arithmetic_never(monkeypatch):
    # The benchmark tracer counts validated constructions by wrapping this hook.
    calls = []
    hook = QuadNum.__post_init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        return hook(self, *args, **kwargs)

    monkeypatch.setattr(QuadNum, "__post_init__", counted)
    x = QuadNum(13, 1, 1)
    assert len(calls) == 1
    y = QuadNum(13, Fraction(1, 2), Fraction(-3, 5))
    two, three = QuadNum(5, 2), QuadNum(8, 3)
    assert len(calls) == 4
    h = Fraction(1, 3)
    chain = [
        x + y, x - y, x * y, x / y, x ** 3, x ** -2, x ** 0, -x, +x,
        x.inverse(), x.galois_conjugate(),
        x + 2, 2 + x, x - h, h - x, x * h, h * x, x / 2, 2 / x, x / h, h / x,
        two + x, x * three, sum([x, y, two]),
    ]
    assert all(isinstance(z, QuadNum) for z in chain)
    assert len(calls) == 4


# A Fraction-pair reference for QuadNum: (rat, rad) pairs combined with the
# formulas QuadNum used while it held Fraction coordinates.

def _ref_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _ref_sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _ref_mul(disc, a, b):
    return a[0] * b[0] + disc * a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _ref_norm(disc, a):
    return a[0] * a[0] - disc * a[1] * a[1]


def _ref_inverse(disc, a):
    n = _ref_norm(disc, a)
    return a[0] / n, -a[1] / n


_oracle_discs = st.sampled_from([1, 4, 5, 8, 9, 13, 25, 49, 173, 10**6 + 1])


@settings(max_examples=200, deadline=None)
@given(_rationals, _rationals, _rationals, _rationals, _scalars, _oracle_discs,
       st.booleans(), st.integers(min_value=-3, max_value=3))
def test_operators_match_the_fraction_reference(p, q, r, s, k, disc, tie, n):
    d = math.isqrt(disc)
    square = d * d == disc
    if tie and square:
        p = d * q  # a zero divisor
    x, y = QuadNum(disc, p, q), QuadNum(disc, r, s)
    a, b, kk = (p, q), (r, s), (Fraction(k), Fraction(0))
    cases = [
        (x + y, _ref_add(a, b)), (x - y, _ref_sub(a, b)), (x * y, _ref_mul(disc, a, b)),
        (-x, (-p, -q)), (x.galois_conjugate(), (p, -q)),
        (x + k, _ref_add(a, kk)), (k + x, _ref_add(kk, a)),
        (x - k, _ref_sub(a, kk)), (k - x, _ref_sub(kk, a)),
        (x * k, _ref_mul(disc, a, kk)), (k * x, _ref_mul(disc, kk, a)),
    ]
    if k != 0:
        cases.append((x / k, (p / k, q / k)))
    if _ref_norm(disc, b) != 0:
        cases.append((x / y, _ref_mul(disc, a, _ref_inverse(disc, b))))
    if _ref_norm(disc, a) != 0:
        inv = _ref_inverse(disc, a)
        cases += [(x.inverse(), inv), (k / x, _ref_mul(disc, kk, inv))]
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    if n >= 0 or _ref_norm(disc, a) != 0:
        base = a if n >= 0 else _ref_inverse(disc, a)
        power = (Fraction(1), Fraction(0))
        for _ in range(abs(n)):
            power = _ref_mul(disc, power, base)
        cases.append((x**n, power))
    for got, (rat, rad) in cases:
        assert got.disc == disc
        assert type(got.rat) is Fraction and type(got.rad) is Fraction
        assert (got.rat, got.rad) == (rat, rad)
    got = x.norm()
    assert type(got) is Fraction and got == _ref_norm(disc, a)
    _assert_signs(x)
    _assert_signs(y)


@settings(max_examples=200, deadline=None)
@given(_rationals, _rationals, st.integers(min_value=2, max_value=50), _oracle_discs)
def test_every_route_gives_one_form(p, q, m, disc):
    x = QuadNum(disc, p, q)
    routes = [
        QuadNum(disc, Fraction(p.numerator * m, p.denominator * m),
                Fraction(q.numerator * m, q.denominator * m)),
        QuadNum(disc, p * m, q * m) / m,
        QuadNum(disc, p) + QuadNum(disc, 0, q),
        (x * m + x) / (m + 1),
        QuadNum.from_json(x.to_json()),
    ]
    for z in routes:
        assert z == x and z.disc == disc
        assert hash(z) == hash(x)
        assert str(z) == str(x) and repr(z) == repr(x)
    if q == 0:
        assert x == p and hash(x) == hash(p) and x == QuadNum(disc + 4, p)


def test_quadnum_is_immutable():
    x = QuadNum(13, Fraction(1, 2), Fraction(3, 4))
    for name in ("disc", "rat", "rad", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    assert x == QuadNum(13, Fraction(1, 2), Fraction(3, 4))
    assert repr(x) == "QuadNum(disc=13, rat=Fraction(1, 2), rad=Fraction(3, 4))"
