"""A kind, a name or a discriminant is checked once, where it enters.

Eight functions of one prototype kind share one precondition and its
text.  A kind or class name must be a str that its table knows; any other
value gets the entry point's ValueError, never a TypeError from a lookup.
The reference oracle checks D and its kind at entry with the rules of
`exact` and takes nothing from the enumerator.  The identity chain and
the Siegel-Veech constants build each Euler table they read once.
`sv_report`, `euler_report`, `build_complex`, `fundamental_class`,
`unfolding_prototype` and `from_splitting_prototype` each check their
discriminant once, at entry, `consistency_chain` once more on its
independent route, and `spin` never.  The last test runs
error paths of the public API that no other test reaches.
"""

import ast
import importlib
import operator
import pkgutil
from pathlib import Path

import pytest

import wcurves
from wcurves import boundary, euler, exact, prototypes, reference, siegelveech
from wcurves.exact import QuadNum, sigma
from wcurves.prototypes import (
    Prototype,
    enumerate_prototypes,
    from_splitting_prototype,
    multiplicity,
    prototype_from_json,
)
from wcurves.reference import reference_tuples

ONE_KIND = {
    "next_prototype": "Y",
    "prev_prototype": "Y",
    "t_involution": "Y",
    "multiplicity": "Y",
    "orbifold_order": "Y",
    "spin": "W",
    "to_splitting_prototype": "W",
    "v_of_prototype": "W",
}

WRONG_KIND = [(op, k) for op, kind in ONE_KIND.items() for k in "YWP" if k != kind]


@pytest.mark.parametrize("op, kind", WRONG_KIND)
def test_one_precondition_text_for_every_kind_bound_function(op, kind):
    p = enumerate_prototypes(17, kind)[0]
    message = f"^{op} is defined for kind {ONE_KIND[op]} prototypes, got kind {kind}$"
    with pytest.raises(ValueError, match=message):
        getattr(wcurves, op)(p)


def _id(func, args) -> str:
    return f"{func.__name__}({', '.join(map(str, args))})"


W17 = (17, 1, -3, -2, 0)
W17_JSON = {"kind": ["W"], "D": 17, "a": 1, "b": -3, "c": -2, "q": 0}

NOT_A_KNOWN_NAME = [
    (wcurves.enumerate_prototypes, (17, ["W"]), r"^unknown prototype kind \['W'\]$"),
    (wcurves.fundamental_class, (17, ["W"]), r"^no class \['W'\] at D=17; "),
    (wcurves.fundamental_class, (17, {"W": 1}), r"^no class \{'W': 1\} at D=17; "),
    (Prototype, (["W"], *W17), r"^unknown prototype kind \['W'\]$"),
    (Prototype, ("w", *W17), "^unknown prototype kind 'w'$"),
    (prototype_from_json, (W17_JSON,), r"^unknown prototype kind \['W'\]$"),
    (reference_tuples, (True, "W"), "^invalid discriminant True: need an integer"),
    (reference_tuples, (17.0, "W"), "^invalid discriminant 17.0: need an integer"),
    (reference_tuples, (18, "W"), "^invalid discriminant 18: need an integer"),
    (reference_tuples, (0, "W"), "^invalid discriminant 0: need an integer >= 1"),
    (reference_tuples, (17, 5), "^unknown kind 5$"),
    (reference_tuples, (17, None), "^unknown kind None$"),
    (reference_tuples, (17, ["W"]), r"^unknown kind \['W'\]$"),
    (reference_tuples, (17, "x"), "^unknown kind 'X'$"),
]


@pytest.mark.parametrize(
    "func, args, message",
    NOT_A_KNOWN_NAME,
    ids=[_id(func, args) for func, args, _ in NOT_A_KNOWN_NAME],
)
def test_an_unknown_name_or_bad_discriminant_raises_value_error(func, args, message):
    with pytest.raises(ValueError, match=message):
        func(*args)


def test_the_case_insensitive_entries_still_fold_case():
    assert reference_tuples(17, "w") == reference_tuples(17, "W")
    assert wcurves.enumerate_prototypes(17, "w") == wcurves.enumerate_prototypes(17, "W")
    assert wcurves.fundamental_class(17, "w0") == wcurves.fundamental_class(17, "W0")


def test_the_oracle_imports_nothing_from_the_enumerator():
    tree = ast.parse(Path(reference.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("wcurves." if node.level else "") + (node.module or "")
            modules.add(base)
            modules.update(f"{base.rstrip('.')}.{alias.name}" for alias in node.names)
    assert modules, "the guard found no imports"
    assert not [m for m in modules if m.startswith("wcurves.prototypes")], modules


def test_a_checked_discriminant_builds_each_euler_table_once(monkeypatch):
    calls = []
    chis = euler._chis

    def counted(D):
        calls.append(D)
        return chis(D)

    monkeypatch.setattr(euler, "_chis", counted)
    monkeypatch.setattr(siegelveech, "_chis", counted)
    euler.consistency_chain(45)  # D itself, then r^2 d0 for r = 1; r = 3 is D
    assert sorted(calls) == [5, 45]
    calls.clear()
    euler.consistency_chain(41)
    assert calls == [41]
    calls.clear()
    siegelveech._constants(41)
    assert calls == [41]


def _counted_checks(monkeypatch) -> list[str]:
    """Wrap every discriminant check in every wcurves module.

    Each call appends its name to the list returned.
    """
    calls = []

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)

        return wrapper

    for info in pkgutil.iter_modules(wcurves.__path__):
        module = importlib.import_module(f"wcurves.{info.name}")
        for name in ("check_discriminant", "decompose_discriminant", "_check_sv_discriminant"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("D", [12, 41, 45])
def test_sv_report_checks_its_discriminant_once(monkeypatch, D):
    """One check at sv_report's entry; the body reads unchecked internals."""
    calls = _counted_checks(monkeypatch)
    siegelveech.sv_report(D)
    assert sorted(calls) == ["_check_sv_discriminant", "check_discriminant"]


@pytest.mark.parametrize("D", [41, 45, 49, 20001])
def test_each_public_call_checks_its_discriminant_once(monkeypatch, D):
    """After their own check the entries call the checked cores.

    `consistency_chain` may check twice: its own check, and the one inside
    `chi_Q_via_rm_prototypes`, the independent route it cross-checks.
    """
    ws = enumerate_prototypes(D, "W") if prototypes._spin_applies(D) else []
    quadruples = [prototypes.to_splitting_prototype(w) for w in enumerate_prototypes(D, "W")[:5]]
    calls = _counted_checks(monkeypatch)
    boundary._ledger.cache_clear()
    for run in (
        euler.euler_report,
        boundary.build_complex,
        lambda D: boundary.fundamental_class(D, "W"),
    ):
        run(D)
        assert calls == ["check_discriminant"], run
        calls.clear()
    if siegelveech._sv_applies(D):
        siegelveech.sv_report(D)
    else:
        with pytest.raises(ValueError, match="is a square"):
            siegelveech.sv_report(D)
    assert sorted(calls) == ["_check_sv_discriminant", "check_discriminant"]
    calls.clear()
    if siegelveech._sv_applies(D):
        siegelveech.unfolding_prototype(D)
        assert sorted(calls) == ["_check_sv_discriminant", "check_discriminant"]
        calls.clear()
    for quadruple in quadruples:
        from_splitting_prototype(*quadruple)
        assert calls == ["check_discriminant"], quadruple
        calls.clear()
    euler.consistency_chain(D)
    assert calls in (["check_discriminant"], ["check_discriminant"] * 2)
    calls.clear()
    for w in ws:
        prototypes.spin(w)
    assert calls == []


@pytest.mark.parametrize("D", [1, 4, 12, 25, 41, 45])
def test_euler_report_checks_its_discriminant_once(monkeypatch, D):
    """One check at euler_report's entry; h2, D0 and the components are unchecked."""
    calls = _counted_checks(monkeypatch)
    euler.euler_report(D)
    assert calls == ["check_discriminant"]


Q = QuadNum(5, 1, 1)

UNREACHED = [
    (sigma, (2, 5), ValueError, r"^sigma is implemented for m in \{1, 3\}, got 2$"),
    (QuadNum, (5, "1"), TypeError, "^expected an int or Fraction, got str$"),
    (
        multiplicity,
        (Prototype("Y", 16, 1, -4, 0, 0),),
        ValueError,
        r"^multiplicity is undefined on the degenerate Y\(1,-4,0,0\)$",
    ),
    (
        from_splitting_prototype,
        (1, 0, 0, 3),
        ValueError,
        r"^splitting quadruple \(1,0,0,3\) has b = c = 0$",
    ),
    (from_splitting_prototype, (1, 0, 0, 0), ValueError, "^invalid discriminant 0: "),
    (
        from_splitting_prototype,
        (0, 1, 1, 1),
        ValueError,
        r"^\(1,1,-1\) is not a kind W triple: ",
    ),
    (
        from_splitting_prototype,
        (0, 4, 2, -2),
        ValueError,
        r"^\(2,-2,-4,0\) violates gcd\(a,b,c,q\) = 1$",
    ),
    (
        boundary.intersect,
        (boundary.fundamental_class(17, "W"), boundary.CohClass(17, 0, 0, (("W0", 1),))),
        ValueError,
        "^no generator 'W0' at D=17; the generators at D=17 are B0, B1$",
    ),
    (
        boundary.intersect,
        (boundary.fundamental_class(16, "W"), boundary.CohClass(16, 0, 0, (("B", 1),))),
        ValueError,
        "^no generator 'B' at D=16; the generators at D=16 are P, S1, S2, W$",
    ),
] + [
    (op, args, False if op is operator.eq else TypeError, None)
    for op in (
        operator.add,
        operator.sub,
        operator.mul,
        operator.truediv,
        operator.pow,
        operator.eq,
    )
    for args in ((Q, "x"), ("x", Q))
]


@pytest.mark.parametrize(
    "func, args, expected, message",
    UNREACHED,
    ids=[_id(func, args) for func, args, _, _ in UNREACHED],
)
def test_error_paths_the_public_api_reaches(func, args, expected, message):
    """Each raise, and each QuadNum `return NotImplemented` given a str."""
    if expected is False:
        assert func(*args) is False
        return
    with pytest.raises(expected, match=message):
        func(*args)
