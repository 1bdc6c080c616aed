"""Every public integer parameter follows the integer rule of `exact`.

The rule accepts an int that is not a bool, at least a stated minimum
where there is one.  A public function, or the Prototype constructor,
given a bool, a float or a Fraction for a parameter annotated int raises
ValueError; the predicates is_square and is_discriminant return False.
A new public integer parameter must be added to VALID below, so it
cannot skip the rule unnoticed.  A prototype kind or class name that is
not a string is unknown, with the same ValueError as any other.
"""

import inspect
from fractions import Fraction

import pytest

import wcurves
from wcurves.exact import _discriminants

# Valid keyword arguments for every public callable with an int parameter.
VALID = {
    "build_complex": {"D": 5},
    "fundamental_class": {"D": 5, "name": "W"},
    "chi_P": {"D": 5},
    "chi_Q": {"D": 5},
    "chi_Q_via_rm_prototypes": {"D": 5},
    "chi_S": {"D": 16},
    "chi_W": {"D": 5},
    "chi_W_components": {"D": 17},
    "chi_X": {"D": 5},
    "consistency_chain": {"D": 5},
    "euler_report": {"D": 5},
    "h2": {"D": 5},
    "h_table": {"dmin": 0, "dmax": 8},
    "num_components": {"D": 5},
    "one_cylinder_cusps": {"d": 5},
    "psi": {"m": 6},
    "rm_prototypes": {"D": 5},
    "zeta_minus_one": {"d0": 5},
    "QuadNum": {"disc": 5, "rat": 1, "rad": 2},
    "check_discriminant": {"D": 5},
    "decompose_discriminant": {"D": 12},
    "divisors": {"n": 12},
    "euler_phi": {"n": 6},
    "is_discriminant": {"D": 5},
    "is_square": {"n": 4},
    "kronecker": {"a": 5, "n": 3},
    "mobius": {"n": 6},
    "mobius_weighted_sum": {"d0": 5, "n": 6},
    "sigma": {"m": 1, "n": 6},
    "Prototype": {"kind": "W", "D": 17, "a": 1, "b": -3, "c": -2, "q": 0},
    "enumerate_prototypes": {"D": 17},
    "from_splitting_prototype": {"a": 0, "b": 2, "c": 1, "e": -3},
    "orbits": {"D": 17},
    "billiards_coefficient": {"D": 5, "digits": 10},
    "billiards_constant": {"D": 5},
    "sv_constant": {"D": 5},
    "sv_constant_components": {"D": 17},
    "sv_report": {"D": 5, "digits": 10},
    "unfolding_area": {"D": 5},
    "unfolding_prototype": {"D": 5},
    "verify_discriminant": {"D": 5},
    "verify_range": {"dmin": 5, "dmax": 8},
}

# Output records: the library fills their fields, a caller does not.
EXCLUDED_CALLABLES = {
    "CohClass": "output record of fundamental_class",
    "CurveNode": "output record of build_complex",
    "CuspComplex": "output record of build_complex",
    "JunctionEdge": "output record of build_complex",
    "EulerReport": "output record of euler_report",
    "SvReport": "output record of sv_report",
    "DiscriminantReport": "output record of verify_discriminant",
}

EXCLUDED_PARAMS = {
    ("check_discriminant", "minimum"): "library-set bound, not an input value",
    ("is_discriminant", "minimum"): "library-set bound, not an input value",
    ("QuadNum", "rat"): "an int | Fraction coordinate",
    ("QuadNum", "rad"): "an int | Fraction coordinate",
}

PREDICATES = {"is_square", "is_discriminant"}

BAD = (True, False, 6.0, Fraction(6))


def _takes_int(annotation) -> bool:
    """Whether an annotation is int, or a union with int as one member."""
    if annotation is int:
        return True
    return isinstance(annotation, str) and "int" in (p.strip() for p in annotation.split("|"))


def _int_params() -> set[tuple[str, str]]:
    found = set()
    for name in wcurves.__all__:
        obj = getattr(wcurves, name)
        if not callable(obj) or name in EXCLUDED_CALLABLES:
            continue
        for param in inspect.signature(obj).parameters.values():
            if _takes_int(param.annotation):
                found.add((name, param.name))
    return found


def test_the_table_covers_every_public_int_parameter():
    listed = {(name, p) for name, kwargs in VALID.items() for p in kwargs}
    found = _int_params()
    assert found - set(EXCLUDED_PARAMS) <= listed, "add these to VALID"
    assert set(EXCLUDED_PARAMS) <= found, "stale exclusions"
    assert set(EXCLUDED_CALLABLES) <= set(wcurves.__all__)


@pytest.mark.parametrize("name", sorted(VALID))
def test_the_valid_arguments_are_accepted(name):
    out = getattr(wcurves, name)(**VALID[name])
    if name in PREDICATES:
        assert out is True


@pytest.mark.parametrize(
    "name, param",
    sorted(p for p in _int_params() if p not in EXCLUDED_PARAMS),
)
def test_non_integers_are_rejected(name, param):
    func = getattr(wcurves, name)
    for bad in BAD:
        kwargs = {**VALID[name], param: bad}
        if name in PREDICATES:
            assert func(**kwargs) is False, (param, bad)
        else:
            with pytest.raises(ValueError):
                func(**kwargs)


# (public name, arguments, the error text it must match)
GARBAGE = [
    ("euler_phi", (6.0,), "^euler_phi needs an integer n >= 1, got 6.0$"),
    ("euler_phi", (True,), "^euler_phi needs an integer n >= 1, got True$"),
    ("divisors", (12.0,), "^divisors needs an integer n >= 1, got 12.0$"),
    ("mobius", (6.0,), "^mobius needs an integer n >= 1, got 6.0$"),
    ("kronecker", (5, True), "^kronecker needs an integer n >= 1, got True$"),
    ("kronecker", (5.0, 3), "^kronecker needs an integer a, got 5.0$"),
    ("mobius_weighted_sum", (5, 0), "^mobius_weighted_sum needs an integer n >= 1, got 0$"),
    ("sigma", (True, 6), "^sigma needs an integer m, got True$"),
    ("psi", (True,), "^psi needs an integer m >= 1, got True$"),
    ("one_cylinder_cusps", (3,), "^one_cylinder_cusps needs an integer d >= 4, got 3$"),
    ("sv_report", (17, True), "needs an integer digits >= 1, got True$"),
    ("Prototype", ("W", 17, True, -3, -2, 0), "^Prototype needs an integer a, got True$"),
    (
        "from_splitting_prototype",
        (False, 2, True, -3),
        "^from_splitting_prototype needs an integer a, got False$",
    ),
    ("h_table", (True, 8), "needs an integer dmin, got True$"),
    ("verify_range", (5, 10.0), "needs an integer dmax, got 10.0$"),
    ("verify_range", (5, 10, (False, True)), r"shard .*\(False, True\)$"),
    ("verify_range", (5, 10, (0.0, 2)), r"shard .*\(0.0, 2\)$"),
    ("verify_range", (5, 10, (3, 2)), r"0 <= i < n, got \(3, 2\)$"),
]


@pytest.mark.parametrize(
    "name, args, message", GARBAGE, ids=[f"{name}{args}" for name, args, _ in GARBAGE]
)
def test_garbage_inputs_raise_naming_the_parameter(name, args, message):
    with pytest.raises(ValueError, match=message):
        getattr(wcurves, name)(*args)


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("enumerate_prototypes", (17, 5), "^unknown prototype kind 5$"),
        ("enumerate_prototypes", (17, None), "^unknown prototype kind None$"),
        ("enumerate_prototypes", (17, "x"), "^unknown prototype kind 'X'$"),
        ("fundamental_class", (17, 5), "^no class 5 at D=17; the classes at D=17 are "),
        ("fundamental_class", (17, None), "^no class None at D=17; "),
    ],
)
def test_a_kind_or_class_that_is_not_a_string_is_unknown(name, args, message):
    with pytest.raises(ValueError, match=message):
        getattr(wcurves, name)(*args)


def test_predicates_reject_non_integers():
    for bad in BAD + (4.0, Fraction(4), "4", None):
        assert wcurves.is_square(bad) is False
        assert wcurves.is_discriminant(bad) is False
    assert wcurves.is_square(0) and not wcurves.is_square(-4)


def test_range_walker_matches_a_brute_filter():
    for minimum in (0, 1):
        for dmin in range(-10, 31):
            for dmax in range(-5, 41):
                brute = [
                    D for D in range(dmin, dmax + 1) if D >= minimum and D % 4 in (0, 1)
                ]
                assert list(_discriminants(dmin, dmax, minimum)) == brute, (dmin, dmax)
    assert list(_discriminants(5, 4)) == []
    assert list(_discriminants(2, 3)) == []
