"""The value records: class-exact named tuples, immutable, hashed as tuples.

Each record class subclasses `exact._record`.  A record equals only a
record of its own class, never a plain tuple or a record of another class
with the same values; its hash is the hash of its field tuple; its
attributes cannot be set.  `Prototype._make` and `_replace` validate as
the constructor does.  The package imports without `dataclasses`.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wcurves
from wcurves import euler, exact, prototypes
from wcurves.boundary import CohClass, CuspComplex, build_complex, fundamental_class
from wcurves.euler import consistency_chain, euler_report
from wcurves.prototypes import Prototype
from wcurves.siegelveech import sv_report
from wcurves.verify import DiscriminantReport, verify_discriminant


def _records():
    cx = build_complex(17)
    return [
        Prototype("W", 17, 1, 1, -4),
        cx.curves[0],
        cx.junctions[0],
        cx,
        fundamental_class(17, "W"),
        consistency_chain(17)[0],
        euler_report(17),
        sv_report(17, digits=10),
        verify_discriminant(17),
    ]


RECORDS = _records()
IDS = [type(r).__name__ for r in RECORDS]


def test_the_nine_record_classes():
    assert IDS == [
        "Prototype", "CurveNode", "JunctionEdge", "CuspComplex", "CohClass",
        "ConsistencyCheck", "EulerReport", "SvReport", "DiscriminantReport",
    ]


@pytest.mark.parametrize("r", RECORDS, ids=IDS)
def test_a_record_equals_only_its_own_class(r):
    plain = tuple(r)
    twin = tuple.__new__(type(r), plain)
    assert twin is not r
    assert r == twin and not r != twin
    assert r != plain and plain != r
    assert not r == plain and not plain == r
    assert len({r, plain}) == 2


def test_records_of_two_classes_with_equal_values_differ():
    values = (17, Fraction(1), Fraction(2), ())
    records = [cls(*values) for cls in (CohClass, CuspComplex, DiscriminantReport)]
    for x in records:
        for y in records:
            assert (x == y) == (x is y)
            assert (x != y) == (x is not y)


@pytest.mark.parametrize("r", RECORDS, ids=IDS)
def test_a_record_hashes_as_its_field_tuple(r):
    assert hash(r) == hash(tuple(r))


@pytest.mark.parametrize("r", RECORDS, ids=IDS)
def test_a_record_is_immutable(r):
    for name in (*r._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    assert tuple(getattr(r, name) for name in r._fields) == tuple(r)
    assert not hasattr(r, "extra")


@pytest.mark.parametrize("r", RECORDS, ids=IDS)
def test_no_record_has_an_instance_dict(r):
    assert not hasattr(r, "__dict__")


def test_reprs_are_pinned():
    cx = build_complex(17)
    assert repr(Prototype("W", 17, 1, 1, -4)) == "Prototype(kind='W', D=17, a=1, b=1, c=-4, q=0)"
    assert repr(cx.curves[0]) == (
        "CurveNode(id='C(1,-3,-2,0)', prototype=Prototype(kind='Y', D=17, a=1, b=-3, c=-2, q=0),"
        " wcusps=1, pcusps=1, spins=(0,))"
    )
    assert repr(euler_report(17)) == (
        "EulerReport(D=17, d0=17, f=1, h=Fraction(-4, 1), chi_x=Fraction(2, 3),"
        " chi_w=Fraction(-3, 1), chi_w_components=(Fraction(-3, 2), Fraction(-3, 2)),"
        " chi_p=Fraction(-5, 3), chi_q=Fraction(-10, 3), chi_s=None, components=2,"
        " cusps_two_cylinder=6, cusps_one_cylinder=0, cusps_one_cylinder_spin=None)"
    )


def test_replace_and_make_validate():
    p = Prototype("W", 17, 1, 1, -4)
    with pytest.raises(ValueError, match="has discriminant"):
        p._replace(c=p.c + 1)
    with pytest.raises(ValueError, match="residue q=5"):
        Prototype._make(("W", 17, 1, 1, -4, 5))
    q = p._replace(kind="P")
    assert type(q) is Prototype and q == Prototype("P", 17, 1, 1, -4)


def test_the_constructor_validates_once(monkeypatch):
    calls = []
    post_init = Prototype.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(Prototype, "__post_init__", counted)
    p = Prototype("W", 17, 1, 1, -4)
    assert calls == [p]
    p._replace(q=0)
    assert len(calls) == 2


def test_importing_the_package_loads_no_dataclass_machinery():
    src = str(Path(wcurves.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import wcurves, wcurves.cli;"
        "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "[]\n"


@pytest.mark.parametrize(
    "cache, bound, fill",
    [
        (exact._factor, exact._FACTOR_CACHE, exact._factor),
        (prototypes._t_sums, 2, euler.h2),
    ],
    ids=["factor", "h2"],
)
def test_the_caches_are_bounded(cache, bound, fill):
    assert cache.cache_info().maxsize == bound
    cache.cache_clear()
    for n in range(1, 4 * (bound + 100), 4):
        fill(n)
    info = cache.cache_info()
    assert info.misses > bound and info.currsize == bound
    cache.cache_clear()
