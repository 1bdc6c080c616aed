from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcurves.exact import QuadNum, is_discriminant
from wcurves.prototypes import (
    Prototype,
    _enumerate,
    _t_sums,
    _w_cusps,
    canonical,
    enumerate_prototypes,
    from_splitting_prototype,
    lambda_of,
    multiplicity,
    next_prototype,
    orbifold_order,
    orbits,
    prev_prototype,
    prototype_from_json,
    prototype_to_json,
    spin,
    t_involution,
    to_splitting_prototype,
    y_image,
)
from wcurves.reference import reference_tuples


def _tuples(D, kind):
    return [(p.a, p.b, p.c, p.q) for p in enumerate_prototypes(D, kind)]


def test_small_discriminants_are_empty():
    for kind in ("Y", "W", "P"):
        assert enumerate_prototypes(1, kind) == []
    assert _tuples(4, "Y") == [(1, -2, 0, 0), (1, 0, -1, 0)]
    assert _tuples(4, "P") == [(1, 0, -1, 0)]
    assert _tuples(4, "W") == []


def test_d5_single_prototype_everywhere():
    for kind in ("Y", "W", "P"):
        assert _tuples(5, kind) == [(1, -1, -1, 0)]
    p = enumerate_prototypes(5, "Y")[0]
    assert next_prototype(p) == p
    assert prev_prototype(p) == p
    assert t_involution(p) == p


def test_w8_pair():
    assert _tuples(8, "W") == [(1, -2, -1, 0), (1, 0, -2, 0)]


def test_w17_lexicographic():
    assert _tuples(17, "W") == [
        (1, -3, -2, 0),
        (1, -1, -4, 0),
        (1, 1, -4, 0),
        (2, -3, -1, 0),
        (2, -1, -2, 0),
        (2, -1, -2, 1),
    ]


def test_y9_is_a_three_chain():
    assert _tuples(9, "Y") == [(1, -3, 0, 0), (1, -1, -2, 0), (1, 1, -2, 0)]
    assert _tuples(9, "W") == [(1, -1, -2, 0)]
    (chain,) = orbits(9)
    assert [(p.a, p.b, p.c) for p in chain] == [(1, -3, 0), (1, -1, -2), (1, 1, -2)]
    assert chain[0].is_degenerate and chain[-1].is_terminal


def test_y17_five_cycle():
    start = Prototype("Y", 17, 1, 1, -4)
    cycle = [start]
    while True:
        nxt = next_prototype(cycle[-1])
        if nxt == start:
            break
        cycle.append(nxt)
    assert [(p.a, p.b, p.c) for p in cycle] == [
        (1, 1, -4),
        (2, -3, -1),
        (2, -1, -2),
        (1, -3, -2),
        (1, -1, -4),
    ]
    assert all(orbifold_order(p) == 1 for p in cycle)
    assert multiplicity(Prototype("Y", 17, 2, -1, -2)) == 2


def test_y12_three_cycle_with_orbifold_point():
    (cycle,) = orbits(12)
    triples = [(p.a, p.b, p.c) for p in cycle]
    start = triples.index((2, -2, -1))
    rotated = triples[start:] + triples[:start]
    assert rotated == [(2, -2, -1), (1, -2, -2), (1, 0, -3)]
    assert orbifold_order(Prototype("Y", 12, 2, -2, -1)) == 2
    assert orbifold_order(Prototype("Y", 12, 1, -2, -2)) == 1
    assert orbifold_order(Prototype("Y", 12, 1, 0, -3)) == 1


def test_y25_two_chains():
    chains = [[(p.a, p.b, p.c) for p in ch] for ch in orbits(25)]
    assert chains == [
        [(1, -5, 0), (1, -3, -4), (1, -1, -6), (1, 1, -6), (1, 3, -4)],
        [(2, -5, 0), (2, -1, -3), (2, -3, -2), (2, 1, -3)],
    ]
    assert len(enumerate_prototypes(25, "W")) == 6
    assert len(enumerate_prototypes(25, "P")) == 8
    assert multiplicity(Prototype("Y", 25, 2, -3, -2)) == 2


def test_y20_cycle_and_fixed_point():
    chains = orbits(20)
    sizes = sorted(len(ch) for ch in chains)
    assert sizes == [1, 4]
    fixed = [ch[0] for ch in chains if len(ch) == 1][0]
    assert (fixed.a, fixed.b, fixed.c, fixed.q) == (2, -2, -2, 1)
    assert next_prototype(fixed) == fixed
    assert orbifold_order(fixed) == 1
    assert len(enumerate_prototypes(20, "W")) == 5


def test_constructor_rejections():
    with pytest.raises(ValueError):
        Prototype("X", 5, 1, -1, -1)
    with pytest.raises(ValueError):
        Prototype("Y", 5, 1, -1, -1, q=1)  # modulus is 1
    with pytest.raises(ValueError):
        Prototype("Y", 7, 1, -1, -1)
    with pytest.raises(ValueError):
        Prototype("Y", 5, 1, 1, -1)  # a + b + c must be < 1
    with pytest.raises(ValueError, match=r"^\(1,-3,-2\) has discriminant 17, not 21$"):
        Prototype("W", 21, 1, -3, -2)
    with pytest.raises(ValueError):
        Prototype("Y", 8, -1, 0, 2)  # a must be positive
    with pytest.raises(ValueError):
        Prototype("W", 16, 1, -4, 0)  # W needs c < 0
    with pytest.raises(ValueError):
        Prototype("W", 9, 1, 1, -2)  # W needs a+b+c < 0
    with pytest.raises(ValueError):
        Prototype("Y", 8, 2, -4, 1)  # c must be <= 0
    with pytest.raises(ValueError):
        Prototype("Y", 36, 2, -6, 0, q=0)  # gcd(a,b,c,q) = 2
    Prototype("P", 9, 1, 1, -2)  # terminal is fine for P


def test_canonical_terminal_identification():
    p = Prototype("Y", 9, 2, -1, -1)
    assert p.is_terminal
    assert canonical(p) == Prototype("Y", 9, 1, 1, -2)
    assert canonical(canonical(p)) == canonical(p)
    # P-cusps over terminal prototypes glue the same way
    assert canonical(Prototype("P", 9, 2, -1, -1)) == Prototype("P", 9, 1, 1, -2)


def test_canonical_degenerate_identification():
    p = Prototype("Y", 16, 3, -4, 0)
    assert p.is_degenerate
    assert canonical(p) == Prototype("Y", 16, 1, -4, 0)


def test_canonical_returns_a_canonical_prototype_itself():
    partners = 0
    for D in range(1, 201):
        if not is_discriminant(D):
            continue
        for kind in ("Y", "W", "P"):
            for p in enumerate_prototypes(D, kind):
                assert canonical(p) is p, p
                a, b, c, q = p.abcq
                if p.is_terminal:
                    partner = (-c, -b, -a)
                elif p.is_degenerate:
                    partner = (-b - a, b, 0)
                else:
                    continue
                if partner != (a, b, c):
                    other = Prototype(kind, D, *partner, q)
                    assert canonical(other) == p and canonical(other) is not other, other
                    partners += 1
    assert partners > 0


def test_degenerate_modulus_uses_full_gcd():
    assert _tuples(16, "Y") == [
        (1, -4, 0, 0),
        (1, -2, -3, 0),
        (1, 0, -4, 0),
        (1, 2, -3, 0),
        (2, -4, 0, 1),
        (2, 0, -2, 1),
    ]
    degs = [t for t in _tuples(16, "Y") if t[2] == 0]
    assert degs == [(1, -4, 0, 0), (2, -4, 0, 1)]


def test_advance_branches():
    assert next_prototype(Prototype("Y", 17, 1, -3, -2)) == Prototype("Y", 17, 1, -1, -4)
    assert next_prototype(Prototype("Y", 17, 1, 1, -4)) == Prototype("Y", 17, 2, -3, -1)


def test_retreat_branches():
    assert prev_prototype(Prototype("Y", 17, 1, -1, -4)) == Prototype("Y", 17, 1, -3, -2)
    assert prev_prototype(Prototype("Y", 17, 2, -3, -1)) == Prototype("Y", 17, 1, 1, -4)


def test_involution_branches():
    assert t_involution(Prototype("Y", 17, 1, 1, -4)) == Prototype("Y", 17, 1, -1, -4)
    assert t_involution(Prototype("Y", 17, 1, -3, -2)) == Prototype("Y", 17, 2, -3, -1)
    assert t_involution(Prototype("Y", 25, 2, -3, -2)) == Prototype("Y", 25, 2, -3, -2)


def test_dynamics_domain_errors():
    terminal = Prototype("Y", 9, 1, 1, -2)
    degenerate = Prototype("Y", 9, 1, -3, 0)
    with pytest.raises(ValueError):
        next_prototype(terminal)
    with pytest.raises(ValueError):
        prev_prototype(degenerate)
    with pytest.raises(ValueError):
        t_involution(degenerate)
    with pytest.raises(ValueError):
        next_prototype(Prototype("W", 17, 1, -3, -2))


def test_lambda_of():
    lam = lambda_of(Prototype("Y", 5, 1, -1, -1))
    assert lam == QuadNum(5, Fraction(1, 2), Fraction(1, 2))
    lam17 = lambda_of(Prototype("Y", 17, 2, -1, -2))
    assert lam17 == QuadNum(17, Fraction(1, 4), Fraction(1, 4))
    assert lam17.sign1() > 0
    # the defining quadratic
    p = Prototype("Y", 17, 1, -3, -2)
    lam = lambda_of(p)
    assert p.a * lam * lam + p.b * lam + p.c == 0


def test_lambda_recursions_exhaustive_d17():
    for p in enumerate_prototypes(17, "Y"):
        lam = lambda_of(p)
        nxt = lambda_of(next_prototype(p))
        if (lam - 2).sign1() >= 0:
            assert nxt == lam - 1
        else:
            assert nxt == (lam - 1).inverse()
        prv = lambda_of(prev_prototype(p))
        if (lam + 1).norm() <= 0:
            assert prv == lam + 1
        else:
            assert prv == (lam + 1) / lam


def test_spin_values_d17():
    spins = {(p.a, p.b, p.c, p.q): spin(p) for p in enumerate_prototypes(17, "W")}
    assert spins == {
        (1, -3, -2, 0): 0,
        (1, -1, -4, 0): 1,
        (1, 1, -4, 0): 0,
        (2, -3, -1, 0): 1,
        (2, -1, -2, 0): 1,
        (2, -1, -2, 1): 0,
    }


def test_spin_values_d25():
    spins = {(p.a, p.b, p.c, p.q): spin(p) for p in enumerate_prototypes(25, "W")}
    assert spins == {
        (1, 1, -6, 0): 0,
        (1, -1, -6, 0): 1,
        (1, -3, -4, 0): 0,
        (2, -1, -3, 0): 0,
        (2, -3, -2, 0): 0,
        (2, -3, -2, 1): 1,
    }


def test_spin_outside_regime():
    with pytest.raises(ValueError):
        spin(Prototype("W", 8, 1, 0, -2))
    with pytest.raises(ValueError):
        spin(Prototype("W", 9, 1, -1, -2))
    with pytest.raises(ValueError):
        spin(Prototype("Y", 17, 1, -3, -2))


def test_splitting_bijection():
    w = Prototype("W", 17, 1, -3, -2)
    assert to_splitting_prototype(w) == (0, 2, 1, -3)
    assert from_splitting_prototype(0, 2, 1, -3) == w
    for D in (8, 12, 17, 25, 33):
        for w in enumerate_prototypes(D, "W"):
            assert from_splitting_prototype(*to_splitting_prototype(w)) == w


def test_y_image():
    w0 = Prototype("W", 17, 2, -1, -2, 0)
    w1 = Prototype("W", 17, 2, -1, -2, 1)
    assert y_image(w0) == y_image(w1) == Prototype("Y", 17, 2, -1, -2)
    assert y_image(Prototype("P", 9, 2, -1, -1)) == Prototype("Y", 9, 1, 1, -2)
    y = Prototype("Y", 17, 1, -3, -2)
    assert y_image(y) == y


def test_json_round_trip():
    for D in (13, 16, 17):
        for kind in ("Y", "W", "P"):
            for p in enumerate_prototypes(D, kind):
                rec = prototype_to_json(p)
                assert prototype_from_json(rec) == p


def test_json_tamper_detected():
    rec = prototype_to_json(Prototype("W", 17, 1, -3, -2))
    rec["terminal"] = True
    with pytest.raises(ValueError, match="terminal"):
        prototype_from_json(rec)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("a", True, "^Prototype needs an integer a, got True$"),
        ("q", False, "^Prototype needs an integer q, got False$"),
        ("D", 17.0, "^invalid discriminant 17.0: "),
        ("b", -3.0, "^Prototype needs an integer b, got -3.0$"),
        ("c", "-2", "^Prototype needs an integer c, got '-2'$"),
        ("modulus", True, "field 'modulus'$"),
        ("terminal", 0, "field 'terminal'$"),
        ("lambda", {"rat": "3/2", "rad": "1/2", "disc": 17.0}, "field 'lambda'$"),
        ("extra", None, "field 'extra'$"),
    ],
)
def test_json_reader_coerces_nothing(key, value, message):
    rec = prototype_to_json(Prototype("W", 17, 1, -3, -2, 0))
    assert rec["lambda"] == {"rat": "3/2", "rad": "1/2", "disc": 17}
    rec[key] = value
    with pytest.raises(ValueError, match=message):
        prototype_from_json(rec)


@pytest.mark.parametrize("key", ["kind", "D", "a", "b", "c", "q"])
def test_json_reader_names_a_missing_field(key):
    rec = prototype_to_json(Prototype("W", 17, 1, -3, -2, 0))
    del rec[key]
    with pytest.raises(ValueError, match=f"^prototype_from_json needs the field '{key}'$"):
        prototype_from_json(rec)


def test_enumeration_matches_reference_oracle():
    for D in [D for D in range(1, 121) if D % 4 in (0, 1)]:
        for kind in ("Y", "W", "P"):
            assert _tuples(D, kind) == reference_tuples(D, kind), (D, kind)


_DISCS = [D for D in range(5, 150) if D % 4 in (0, 1)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_DISCS), st.randoms(use_true_random=False))
def test_advance_retreat_inverse(D, rng):
    ys = enumerate_prototypes(D, "Y")
    if not ys:
        return
    p = rng.choice(ys)
    if not p.is_terminal:
        assert prev_prototype(next_prototype(p)) == p
    if not p.is_degenerate:
        assert next_prototype(prev_prototype(p)) == p
        assert t_involution(t_involution(p)) == p


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_DISCS), st.randoms(use_true_random=False))
def test_involution_conjugates_dynamics(D, rng):
    ys = [p for p in enumerate_prototypes(D, "Y")
          if not p.is_terminal and not p.is_degenerate]
    if not ys:
        return
    p = rng.choice(ys)
    assert t_involution(next_prototype(p)) == prev_prototype(t_involution(p))


def test_w_residue_counts_match_enumeration():
    for D in range(1, 2001):
        if D % 4 in (0, 1):
            count = sum(n for *_, n in _w_cusps(D))
            assert count == len(enumerate_prototypes(D, "W")), D


_LARGE_DISCS = st.one_of(
    st.integers(1, 2 * 10**5).filter(is_discriminant),
    st.integers(1, 447).map(lambda d: d * d),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_LARGE_DISCS)
def test_w_count_matches_the_scan(D):
    assert _t_sums(D)[1] == sum(n for *_, n in _w_cusps(D))


def test_enumeration_cache_holds_one_discriminant():
    for D in range(1, 61):
        if is_discriminant(D):
            for kind in ("Y", "W", "P"):
                enumerate_prototypes(D, kind)
    assert _enumerate.cache_info().currsize <= 3
