"""The prototype enumeration and the cusp complex built from the triple layer.

`_enumerate` builds its Prototypes without running `__post_init__`, and
`build_complex` groups the cusps by an integer key instead of through
`y_image`.  These tests put the public, validating routes back as oracles
over both, and pin the one-discriminant caches and the construction count.
"""

import sys
from collections import defaultdict

import pytest

from wcurves.boundary import _node_id, build_complex
from wcurves.euler import euler_report
from wcurves.exact import is_discriminant
from wcurves.prototypes import (
    Prototype,
    _enumerate,
    _triples,
    enumerate_prototypes,
    next_prototype,
    y_image,
)
from wcurves.siegelveech import _sv_applies, sv_report


def _cold():
    _triples.cache_clear()
    _enumerate.cache_clear()


def test_enumerated_prototypes_pass_validation():
    for D in range(1, 1001):
        if not is_discriminant(D):
            continue
        for kind in ("Y", "W", "P"):
            for p in enumerate_prototypes(D, kind):
                rebuilt = Prototype(p.kind, p.D, p.a, p.b, p.c, p.q)
                assert rebuilt == p, p
                assert hash(rebuilt) == hash(p), p
                assert type(p) is Prototype
                assert sys.getsizeof(vars(p)) == sys.getsizeof(vars(rebuilt)), p


def test_complex_fibers_match_the_public_route():
    for D in range(5, 601):
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
            enumerate_prototypes(D, kind)
    build_complex(1009)
    assert calls == []
    with pytest.raises(ValueError):
        Prototype("W", 9, 1, 1, -2)  # the public constructor still validates
    assert len(calls) == 1
