"""The prototype enumeration, its maps and the cusp complex of the triple layer.

`_enumerate` and the maps of an existing Prototype (`canonical`,
`next_prototype`, `prev_prototype`, `t_involution`, `y_image`) build their
Prototypes without running `__post_init__`, and `build_complex` counts the
cusps over each junction from its triple alone, enumerating kind Y only.
These tests rebuild every such Prototype through the validating
constructor, compare the complex's fibers with a grouping of the W and P
enumeration by `y_image` and each curve and junction with the record that
the public maps build, pin the kinds that `build_complex` enumerates and
the curve ids its junctions share, pin the scan `_triples` to a
brute-force (a, c) grid and the bucket order of `_enumerate` to a sort,
pin that `euler_report` and `sv_report` make no scan and that each
successor triple is canonical, and pin the one-discriminant caches and
the construction count.
"""

import math
import sys
from collections import defaultdict

import pytest

from wcurves import boundary
from wcurves.boundary import CurveNode, JunctionEdge, _node_id, build_complex
from wcurves.euler import euler_report
from wcurves.exact import is_discriminant, is_square
from wcurves.prototypes import (
    Prototype,
    _canonical_triple,
    _enumerate,
    _next_triple,
    _spin_applies,
    _triples,
    canonical,
    enumerate_prototypes,
    multiplicity,
    next_prototype,
    orbifold_order,
    prev_prototype,
    spin,
    t_involution,
    y_image,
)
from wcurves.reference import reference_tuples
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


def _public_records(D):
    """The curves C_P and the junctions of D, built from the public maps alone."""
    fibers = defaultdict(list)
    for w in enumerate_prototypes(D, "W"):
        fibers[y_image(w)].append(w)
    curves, junctions = [], []
    for p in enumerate_prototypes(D, "Y"):
        pcusps = 0 if p.is_degenerate else multiplicity(p)
        wcusps = 0 if p.is_terminal else pcusps
        fiber = fibers.pop(p, [])
        assert len(fiber) == wcusps, (D, p)
        node = _node_id(*p.abcq)
        if not p.is_degenerate:
            spins = tuple(sorted(map(spin, fiber))) if _spin_applies(D) else None
            curves.append(CurveNode(node, p, wcusps, pcusps, spins))
        src = "S1" if p.is_degenerate else node
        dst = "S2" if p.is_terminal else _node_id(*next_prototype(p).abcq)
        junctions.append(JunctionEdge(p, orbifold_order(p), src, dst, wcusps, pcusps))
    assert not fibers, D
    return curves, junctions


def test_complex_records_match_the_public_maps():
    for D in [*range(5, 601), 19881, 20001, 20736, 50033]:
        if not is_discriminant(D):
            continue
        cx = build_complex(D)
        curves, junctions = _public_records(D)
        assert all(type(x) is JunctionEdge for x in cx.junctions), D
        assert all(type(x) is CurveNode for x in cx.curves), D
        assert list(cx.junctions) == junctions, D
        assert list(cx.curves[: len(curves)]) == curves, D
        ends = [(x.id, x.prototype) for x in cx.curves[len(curves) :]]
        assert ends == ([("S1", None), ("S2", None)] if is_square(D) else []), D


def test_complex_junctions_share_the_curve_ids():
    for D in (17, 49, 20001, 50033):
        cx = build_complex(D)
        ids = {n.id: n.id for n in cx.curves}
        edges = {e.prototype: e for e in cx.junctions}
        for e in cx.junctions:
            assert e.dst == "S2" or ids[e.dst] is e.dst, (D, e)
        for n in cx.curves:
            assert n.prototype is None or edges[n.prototype].src is n.id, (D, n)


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


def test_enumerate_buckets_come_out_sorted():
    for D in [*range(1, 1501), 19881, 20001, 50020, 50033, 45141]:
        if not is_discriminant(D):
            continue
        for kind in ("Y", "W", "P"):
            protos = _enumerate(D, kind)
            assert protos == tuple(sorted(protos)), (D, kind)
            if D <= 300:
                assert [p.abcq for p in protos] == reference_tuples(D, kind), (D, kind)


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


def test_sv_report_scans_no_triples():
    # Every nonsquare D, split D = 1 (mod 8) included: the spin sums come
    # from the t-pass too.
    _triples.cache_clear()
    for D in [*range(5, 401), 50020, 50021, 50033, 200013, 200017]:
        if is_discriminant(D) and _sv_applies(D):
            sv_report(D, digits=10)
    assert _triples.cache_info().misses == 0


def test_successor_triples_are_canonical():
    # _next_triple returns the successor as computed: no branch can give a
    # noncanonical triple, so it calls no _canonical_triple.
    for D in range(1, 1000):
        if not is_discriminant(D):
            continue
        for a, b, c, _ in (p.abcq for p in _enumerate(D, "Y") if not p.is_terminal):
            nxt = _next_triple(a, b, c)
            assert nxt == _canonical_triple(*nxt), (D, a, b, c)


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
