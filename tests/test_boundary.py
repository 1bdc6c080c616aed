import copy
import hashlib
import json
import pickle
from fractions import Fraction

import pytest

from wcurves.boundary import (
    UNDETERMINED,
    build_complex,
    export_dot,
    fundamental_class,
    intersect,
)
from wcurves.euler import chi_P, chi_S, chi_W, euler_report, one_cylinder_cusps
from wcurves.prototypes import Prototype, t_involution


def test_pentagon_d17():
    cx = build_complex(17)
    assert len(cx.curves) == 5
    assert len(cx.junctions) == 5
    assert all(e.m == 1 for e in cx.junctions)
    two = cx.curve("C(2,-1,-2,0)")
    assert two.wcusps == 2 and two.pcusps == 2
    assert two.spins == (0, 1)
    others = [n for n in cx.curves if n.id != "C(2,-1,-2,0)"]
    assert all(n.wcusps == 1 and n.pcusps == 1 for n in others)
    # closed cycle: every node has one outgoing and one incoming edge
    assert sorted(e.src for e in cx.junctions) == sorted(n.id for n in cx.curves)
    assert sorted(e.dst for e in cx.junctions) == sorted(n.id for n in cx.curves)
    assert cx.s1s2_points is None


def test_three_cycle_d12():
    cx = build_complex(12)
    assert len(cx.curves) == 3
    ms = {(e.prototype.a, e.prototype.b, e.prototype.c): e.m for e in cx.junctions}
    assert ms == {(1, -2, -2): 1, (1, 0, -3): 1, (2, -2, -1): 2}
    assert all(n.spins is None for n in cx.curves)


def test_two_chains_d25():
    cx = build_complex(25)
    names = [n.id for n in cx.curves]
    assert names[-2:] == ["S1", "S2"]
    assert len(names) == 9
    s1 = cx.curve("S1")
    assert s1.wcusps == 2
    assert s1.spins == (0, 1)
    assert cx.curve("S2").wcusps == 0
    assert cx.s1s2_points == 2
    doubled = cx.curve("C(2,-3,-2,0)")
    assert doubled.wcusps == 2 and doubled.pcusps == 2
    deg = [e for e in cx.junctions if e.prototype.is_degenerate]
    term = [e for e in cx.junctions if e.prototype.is_terminal]
    assert {e.src for e in deg} == {"S1"}
    assert {e.dst for e in term} == {"S2"}
    assert all(not e.w_fiber for e in deg + term)
    assert all(len(e.p_fiber) == 1 for e in term)


def test_tau_symmetry():
    cx = build_complex(17)
    assert cx.tau("C(2,-1,-2,0)") == "C(2,-1,-2,0)"
    assert cx.tau("C(1,1,-4,0)") == "C(1,-1,-4,0)"
    cx25 = build_complex(25)
    assert cx25.tau("S1") == "S2"
    assert cx25.tau("S2") == "S1"
    # unmarked automorphism: tau is an involution on the node set, and on
    # each curve C_P it is the t-involution of P
    for D in (17, 25, 20001, 20736):
        cx = build_complex(D)
        ids = {n.id for n in cx.curves}
        images = {i: cx.tau(i) for i in ids}
        assert set(images.values()) == ids, D
        assert all(images[images[i]] == i for i in ids), D
        for n in cx.curves:
            if n.prototype is not None:
                t = t_involution(n.prototype)
                assert images[n.id] == f"C({t.a},{t.b},{t.c},{t.q})", n.id
        with pytest.raises(KeyError):
            cx.curve("C(0,0,0,0)")
        with pytest.raises(KeyError):
            cx.tau("C(0,0,0,0)")


def test_spin_markers_sit_on_curves():
    cx = build_complex(17)
    for node in cx.curves:
        assert node.spins is not None
        assert len(node.spins) == node.wcusps


def test_complex_floor():
    with pytest.raises(ValueError):
        build_complex(4)
    with pytest.raises(ValueError):
        build_complex(7)


def test_dot_d12_verbatim():
    cx = build_complex(12)
    assert export_dot(cx) == (
        "digraph boundary_12 {\n"
        '  "C(1,-2,-2,0)" [wcusps=1, pcusps=1];\n'
        '  "C(1,0,-3,0)" [wcusps=1, pcusps=1];\n'
        '  "C(2,-2,-1,0)" [wcusps=1, pcusps=1];\n'
        '  "C(1,-2,-2,0)" -> "C(1,0,-3,0)";\n'
        '  "C(1,0,-3,0)" -> "C(2,-2,-1,0)";\n'
        '  "C(2,-2,-1,0)" -> "C(1,-2,-2,0)" [label="m=2"];\n'
        "}\n"
    )


def test_dot_d17_pentagon():
    text = export_dot(build_complex(17))
    assert text.count(" -> ") == 5
    assert text.count("[wcusps") == 5
    assert 'spin="0,1"' in text


def test_dot_terminal_curve_omits_wcusps():
    text = export_dot(build_complex(25))
    line = [l for l in text.splitlines() if l.startswith('  "C(1,3,-4,0)" [')][0]
    assert "wcusps" not in line
    assert "pcusps=1" in line
    assert '"S1" -> "S2" [label="points=2"]' in text


def test_fundamental_class_coefficients():
    w = fundamental_class(17, "W")
    assert (w.omega1, w.omega2) == (Fraction(3, 2), Fraction(9, 2))
    p25 = fundamental_class(25, "P")
    assert (p25.omega1, p25.omega2) == (Fraction(19, 10), Fraction(19, 10))
    s1 = fundamental_class(25, "S1")
    assert (s1.omega1, s1.omega2) == (Fraction(6, 5), 0)
    w0 = fundamental_class(17, "W0")
    assert (w0.omega1, w0.omega2) == (Fraction(3, 4), Fraction(9, 4))


def test_fundamental_class_domain():
    with pytest.raises(ValueError):
        fundamental_class(17, "S1")  # square only
    with pytest.raises(ValueError):
        fundamental_class(12, "W0")  # connected regime
    with pytest.raises(ValueError):
        fundamental_class(9, "W")  # below the ledger floor
    with pytest.raises(ValueError):
        fundamental_class(17, "Z")


def test_intersections_nonsquare():
    for D in (5, 8, 12, 13, 17, 21, 24):
        w = fundamental_class(D, "W")
        p = fundamental_class(D, "P")
        assert intersect(w, p) == 0
        assert intersect(w, w) == chi_W(D) / 3
        assert intersect(p, p) == chi_P(D)


def test_intersections_split_nonsquare():
    w = fundamental_class(17, "W")
    w0 = fundamental_class(17, "W0")
    w1 = fundamental_class(17, "W1")
    p = fundamental_class(17, "P")
    assert intersect(w0, p) == 0
    assert intersect(w1, p) == 0
    assert intersect(w0, w1) is UNDETERMINED
    assert intersect(w0, w0) is UNDETERMINED
    assert intersect(w1, w1) is UNDETERMINED
    # the undetermined parameter cancels in the sum against the full class
    assert intersect(w, w0) + intersect(w, w1) == intersect(w, w)
    assert intersect(w, w0) == intersect(w, w1) == Fraction(-1, 2)


def test_intersections_square_d5():
    D = 25
    s1 = fundamental_class(D, "S1")
    s2 = fundamental_class(D, "S2")
    w = fundamental_class(D, "W")
    p = fundamental_class(D, "P")
    assert intersect(s1, w) == 2 == one_cylinder_cusps(5)[0]
    assert intersect(w, s2) == 0
    assert intersect(s1, s2) == 2
    assert intersect(s1, s1) == chi_S(D) == -2
    assert intersect(s2, s2) == chi_S(D)
    assert intersect(w, w) == chi_W(D) / 3
    assert intersect(p, p) == chi_P(D) == Fraction(-19, 6)
    w0 = fundamental_class(D, "W0")
    w1 = fundamental_class(D, "W1")
    assert intersect(s1, w0) == 1
    assert intersect(s1, w1) == 1
    assert intersect(w0, s2) == 0
    assert intersect(w1, s2) == 0
    assert intersect(w0, w0) is UNDETERMINED


def test_intersections_square_d4():
    D = 16
    s1 = fundamental_class(D, "S1")
    s2 = fundamental_class(D, "S2")
    w = fundamental_class(D, "W")
    assert intersect(s1, w) == 1
    assert intersect(w, s2) == 0
    assert intersect(s1, s2) == 1
    assert intersect(w, w) == chi_W(D) / 3


def test_undetermined_is_not_zero():
    assert UNDETERMINED != 0
    assert not (UNDETERMINED == 0)
    assert repr(UNDETERMINED) == "UNDETERMINED"


def test_undetermined_survives_copy_and_pickle():
    assert copy.copy(UNDETERMINED) is UNDETERMINED
    assert copy.deepcopy(UNDETERMINED) is UNDETERMINED
    assert copy.deepcopy([UNDETERMINED])[0] is UNDETERMINED
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(UNDETERMINED, protocol)) is UNDETERMINED
    assert repr(UNDETERMINED) == str(UNDETERMINED) == "UNDETERMINED"


def test_intersect_mixed_discriminants():
    with pytest.raises(ValueError):
        intersect(fundamental_class(17, "W"), fundamental_class(13, "W"))


def test_markers_match_euler_cusp_counts():
    from wcurves.prototypes import enumerate_prototypes

    for D in (12, 17, 21, 25, 36):
        cx = build_complex(D)
        total_w = sum(len(e.w_fiber) for e in cx.junctions)
        total_p = sum(len(e.p_fiber) for e in cx.junctions)
        assert total_w == len(enumerate_prototypes(D, "W"))
        assert total_p == len(enumerate_prototypes(D, "P"))


def test_s1_node_matches_the_euler_report():
    for d in range(3, 81):
        D = d * d
        s1 = next(n for n in build_complex(D).curves if n.id == "S1")
        report = euler_report(D)
        assert s1.wcusps == report.cusps_one_cylinder, d
        split = report.cusps_one_cylinder_spin
        assert s1.spins == ((0,) * split[0] + (1,) * split[1] if split else None), d
    assert euler_report(9).cusps_one_cylinder is None


# sha256 of json.dumps(build_complex(D).to_json(), sort_keys=True), recorded
# before build_complex read each junction's triple once.  The benchmark's
# golden digests reach the complex only at nonsquare D, so these cover the
# square D (S1, S2 and the degenerate junctions) and two split nonsquare D.
COMPLEX_DIGESTS = {
    49: "acd0654c659b81e95899a4de4bfc164342c8dfc945d3d5e58a4e5e602b4f5eeb",
    81: "23ea4cf4b511ef7243b349d7ff0d5f48fa10a3b563b06554d95f58bb9c3c5e51",
    1369: "c2508136e579f198ddfa2d613e4237d2a81dc167854dd71491ced427625d0f56",
    19881: "7328d23bd203e63eabe7574264ff3e2a98673bdc743d7f4badf3970b31245a46",
    20736: "7ebd8e6316c90581bb4150c593a026ae86ea01986e4a61e061c4ecabf484560f",
    4009: "73e026ca04a7701593b7e8ec4e3c2b0fda5b64f882e9ed99dd0cebdf81d79749",
    20001: "fac377b37fd64df395e77666a4eacbcfc1ad7193d7095c08a38fbd0889a3c16e",
}


@pytest.mark.parametrize("D", list(COMPLEX_DIGESTS))
def test_complex_json_is_pinned(D):
    text = json.dumps(build_complex(D).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == COMPLEX_DIGESTS[D]
