"""The prototype enumeration, its maps and the cusp complex of the triple layer.

`_enumerate` and the maps of an existing Prototype (`canonical`,
`next_prototype`, `prev_prototype`, `t_involution`, `y_image`) build their
Prototypes without running `__post_init__`, and `build_complex` counts the
cusps over each junction from its triple alone, enumerating kind Y only.
These tests rebuild every such Prototype through the validating
constructor, compare the complex's fibers with a grouping of the W and P
enumeration by `y_image`, pin the kinds that `build_complex` enumerates,
pin the scan `_triples` to a brute-force (a, c) grid, pin that
`euler_report` makes no scan, and pin the one-discriminant caches and the
construction count.
"""

import math
import sys
from collections import defaultdict

import pytest

from wcurves import boundary
from wcurves.boundary import _node_id, build_complex
from wcurves.euler import euler_report
from wcurves.exact import is_discriminant
from wcurves.prototypes import (
    Prototype,
    _enumerate,
    _triples,
    canonical,
    enumerate_prototypes,
    next_prototype,
    prev_prototype,
    t_involution,
    y_image,
)
from wcurves.siegelveech import _sv_applies, sv_report


def _cold():
    _triples.cache_clear()
    _enumerate.cache_clear()


def _derived(p):
    """The results of the maps that build Prototypes from p unvalidated."""
    yield canonical(p)
    if p.kind != "Y":
        yield y_image(p)
        return
    if not p.is_terminal:
        yield next_prototype(p)
    if not p.is_degenerate:
        yield prev_prototype(p)
        yield t_involution(p)


def test_enumerated_prototypes_pass_validation():
    for D in range(1, 1001):
        if not is_discriminant(D):
            continue
        for kind in ("Y", "W", "P"):
            for p in enumerate_prototypes(D, kind):
                for x in (p, *_derived(p)):
                    rebuilt = Prototype(x.kind, x.D, x.a, x.b, x.c, x.q)
                    assert rebuilt == x, (p, x)
                    assert hash(rebuilt) == hash(x), (p, x)
                    assert type(x) is Prototype
                    assert sys.getsizeof(x) == sys.getsizeof(rebuilt), (p, x)


def test_complex_fibers_match_the_public_route():
    for D in [*range(5, 601), 20001, 19881]:
        if not is_discriminant(D):
            continue
        cx = build_complex(D)
        for kind, attr in (("W", "w_fiber"), ("P", "p_fiber")):
            groups = defaultdict(list)
            for x in enumerate_prototypes(D, kind):
                groups[y_image(x)].append(x)
            for edge in cx.junctions:
                assert getattr(edge, attr) == tuple(groups.pop(edge.prototype, ())), (D, kind)
            assert not groups, (D, kind)  # every cusp lies over a junction
        for edge in cx.junctions:
            p = edge.prototype
            if not p.is_terminal:
                assert edge.dst == _node_id(*next_prototype(p).abcq), (D, p)


def test_complex_enumerates_kind_y_only(monkeypatch):
    kinds = []

    def recorded(D, kind):
        kinds.append(kind)
        return _enumerate(D, kind)

    monkeypatch.setattr(boundary, "_enumerate", recorded)
    for D in (17, 49, 20001, 19881):
        build_complex(D)
    assert kinds == ["Y"] * 4


def _grid_triples(D):
    """_triples(D) by brute force over the (a, c) grid, in the scan's order.

    That order is b ascending, then the smaller divisor min(a, -c) of
    t = -ac ascending, a before t // a; the degenerate run c = 0 by a.
    """
    found = []
    for a in range(1, max(D // 4, math.isqrt(D)) + 1):
        for negc in range(D // (4 * a) + 1):
            bb = D - 4 * a * negc
            r = math.isqrt(bb)
            if r * r == bb:
                for b in {r, -r}:
                    s = a + b - negc
                    if s <= 0 and (negc or s):
                        found.append((a, b, -negc))
    return sorted(found, key=lambda t: (t[1], min(t[0], -t[2]) if t[2] else t[0], t[0] > -t[2]))


def test_triples_match_the_grid():
    for D in [*range(1, 1501), 19881, 20001, 50020, 50021, 50033]:
        if is_discriminant(D):
            assert list(_triples(D)) == _grid_triples(D), D


def test_triples_cache_holds_one_discriminant():
    for D in range(1, 201):
        if not is_discriminant(D):
            continue
        if _sv_applies(D):
            sv_report(D, digits=10)
        euler_report(D)
        if D >= 5:
            build_complex(D)
    assert _triples.cache_info().currsize <= 1


def test_euler_report_makes_no_triple_scan():
    _triples.cache_clear()
    for D in [*range(1, 401), 19881, 20001, 50020, 50021, 50033, 50176]:
        if is_discriminant(D):
            euler_report(D)
    assert _triples.cache_info().misses == 0


def test_interleaved_discriminants_match_cold_calls():
    def results(D):
        return (
            [enumerate_prototypes(D, kind) for kind in ("Y", "W", "P")],
            sv_report(D, digits=10).to_json(),
            build_complex(D),
        )

    cold = {}
    for D in (1009, 761):
        _cold()
        cold[D] = results(D)
    _cold()
    for D in (1009, 761, 1009):
        assert results(D) == cold[D], D


def test_enumeration_and_complex_run_no_validation(monkeypatch):
    calls = []
    post_init = Prototype.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(Prototype, "__post_init__", counted)
    _cold()
    for D in (17, 25, 1009):
        for kind in ("Y", "W", "P"):
            for p in enumerate_prototypes(D, kind):
                list(_derived(p))
    build_complex(1009)
    assert calls == []
    with pytest.raises(ValueError):
        Prototype("W", 9, 1, 1, -2)  # the public constructor still validates
    assert len(calls) == 1
