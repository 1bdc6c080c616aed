"""Each prototype rule against an independent statement of it.

The kind conditions, the successor orbits, the spins on the cusp complex
and the verify tallies each have one owner in `src/`; these tests hold
that owner to the reference oracle, to the public map it is built from,
or to values recorded before the owner was consolidated.
"""

import math

from wcurves import reference
from wcurves.boundary import _node_id, build_complex
from wcurves.exact import is_discriminant, is_square
from wcurves.prototypes import (
    Prototype,
    _spin_applies,
    enumerate_prototypes,
    next_prototype,
    orbits,
    spin,
)
from wcurves.verify import verify_discriminant


def test_constructor_accepts_exactly_the_reference_triples():
    checked = 0
    for kind in ("Y", "W", "P"):
        for a in range(-3, 13):
            for b in range(-12, 13):
                for c in range(-12, 4):
                    D = b * b - 4 * a * c
                    if D < 1:
                        continue
                    m = math.gcd(a, math.gcd(b, c)) if kind == "Y" else math.gcd(a, c)
                    q = 1 if m > 1 else 0
                    try:
                        Prototype(kind, D, a, b, c, q)
                        built = True
                    except ValueError:
                        built = False
                    assert built == reference._valid(kind, a, b, c), (kind, a, b, c, q)
                    checked += 1
    assert checked > 10000


def test_orbits_partition_into_cycles_or_chains():
    for D in range(1, 401):
        if not is_discriminant(D):
            continue
        ys = enumerate_prototypes(D, "Y")
        walks = orbits(D)
        members = [p for walk in walks for p in walk]
        assert len(members) == len(set(members)) == len(ys), D
        assert set(members) == set(ys), D
        for walk in walks:
            for p, nxt in zip(walk, walk[1:]):
                assert not p.is_terminal and next_prototype(p) == nxt, (D, p)
            if is_square(D):
                assert walk[0].is_degenerate and walk[-1].is_terminal, (D, walk)
            else:
                assert next_prototype(walk[-1]) == walk[0], (D, walk)
        smallest = [min(p.abcq for p in walk) for walk in walks]
        assert smallest == sorted(smallest), D


def test_curve_spins_match_public_spin():
    split = [D for D in range(5, 601) if is_discriminant(D) and _spin_applies(D)]
    assert any(is_square(D) for D in split)
    for D in split:
        cx = build_complex(D)
        nodes = {node.id: node for node in cx.curves}
        for edge in cx.junctions:
            p = edge.prototype
            if p.is_degenerate:
                continue
            want = tuple(sorted(spin(w) for w in edge.w_fiber))
            assert nodes[_node_id(*p.abcq)].spins == want, (D, p)


# passed and tallies of verify_discriminant(D), recorded from the per-kind
# condition ladder, the two orbit loops and the two-pass complex, so a
# change to any owner that drops or adds a check shows here.
PINNED = {
    12: (
        67,
        {
            "canonical_P": 1,
            "canonical_W": 1,
            "canonical_Y": 1,
            "complex_edges_closed": 1,
            "complex_p_total": 1,
            "complex_w_total": 1,
            "components_vs_split": 1,
            "enumeration_P": 1,
            "enumeration_W": 1,
            "enumeration_Y": 1,
            "euler_chi_additivity": 1,
            "euler_cusp_counts": 1,
            "euler_euler_ratio": 1,
            "euler_h2_sigma3": 1,
            "euler_h_sum_chi_w": 1,
            "euler_h_sum_chi_x": 1,
            "euler_q_doubles_p": 1,
            "euler_rm_route": 1,
            "lambda_next": 3,
            "lambda_norm": 3,
            "lambda_prev": 3,
            "ledger_p_squared": 1,
            "ledger_w_dot_p": 1,
            "ledger_w_squared": 1,
            "multiplicity_positive": 3,
            "next_of_prev": 3,
            "next_permutes": 1,
            "orbifold_order_positive": 3,
            "orbits_cover": 1,
            "p_fiber_size": 3,
            "prev_of_next": 3,
            "splitting_round_trip": 3,
            "sv_positive": 1,
            "sv_rational": 1,
            "t_involutive": 3,
            "t_next_is_prev_t": 3,
            "tau_closed": 3,
            "v_positive": 3,
            "w_fiber_size": 3,
        },
    ),
    17: (
        114,
        {
            "canonical_P": 1,
            "canonical_W": 1,
            "canonical_Y": 1,
            "complex_edges_closed": 1,
            "complex_p_total": 1,
            "complex_w_total": 1,
            "components_vs_split": 1,
            "enumeration_P": 1,
            "enumeration_W": 1,
            "enumeration_Y": 1,
            "euler_chi_additivity": 1,
            "euler_component_sum": 1,
            "euler_cusp_counts": 1,
            "euler_euler_ratio": 1,
            "euler_h2_sigma3": 1,
            "euler_h_sum_chi_w": 1,
            "euler_h_sum_chi_x": 1,
            "euler_q_doubles_p": 1,
            "euler_rm_route": 1,
            "lambda_next": 5,
            "lambda_norm": 5,
            "lambda_prev": 5,
            "ledger_p_squared": 1,
            "ledger_w0_dot_p": 1,
            "ledger_w0_squared_open": 1,
            "ledger_w1_dot_p": 1,
            "ledger_w_dot_p": 1,
            "ledger_w_squared": 1,
            "multiplicity_positive": 5,
            "next_of_prev": 5,
            "next_permutes": 1,
            "orbifold_order_positive": 5,
            "orbits_cover": 1,
            "p_fiber_size": 5,
            "prev_of_next": 5,
            "spin_balance": 5,
            "spin_lift_stable": 6,
            "splitting_round_trip": 6,
            "sv_billiards_pick": 1,
            "sv_conjugacy": 1,
            "sv_mean": 1,
            "sv_positive": 1,
            "t_involutive": 5,
            "t_next_is_prev_t": 5,
            "tau_closed": 5,
            "v_positive": 6,
            "w_fiber_size": 5,
        },
    ),
    25: (
        113,
        {
            "boundary_multiplicity": 4,
            "canonical_P": 1,
            "canonical_W": 1,
            "canonical_Y": 1,
            "complex_edges_closed": 1,
            "complex_p_total": 1,
            "complex_w_total": 1,
            "components_vs_split": 1,
            "degenerate_fiber": 2,
            "enumeration_P": 1,
            "enumeration_W": 1,
            "enumeration_Y": 1,
            "euler_chi_additivity": 1,
            "euler_component_sum": 1,
            "euler_cusp_counts": 1,
            "euler_q_doubles_p": 1,
            "euler_rm_route": 1,
            "ledger_p_squared": 1,
            "ledger_s1_dot_s2": 1,
            "ledger_s1_dot_w": 1,
            "ledger_s1_dot_w0": 1,
            "ledger_s1_dot_w1": 1,
            "ledger_s_squared": 1,
            "ledger_w0_dot_p": 1,
            "ledger_w0_dot_s2": 1,
            "ledger_w0_squared_open": 1,
            "ledger_w_dot_s2": 1,
            "ledger_w_squared": 1,
            "multiplicity_positive": 7,
            "next_of_prev": 7,
            "orbifold_order_positive": 9,
            "orbits_cover": 1,
            "p_fiber_size": 5,
            "prev_of_next": 7,
            "spin_balance": 7,
            "spin_lift_stable": 6,
            "splitting_round_trip": 6,
            "t_involutive": 7,
            "t_next_is_prev_t": 5,
            "tau_closed": 7,
            "terminal_fiber": 2,
            "w_fiber_size": 5,
        },
    ),
    44: (
        151,
        {
            "canonical_P": 1,
            "canonical_W": 1,
            "canonical_Y": 1,
            "complex_edges_closed": 1,
            "complex_p_total": 1,
            "complex_w_total": 1,
            "components_vs_split": 1,
            "enumeration_P": 1,
            "enumeration_W": 1,
            "enumeration_Y": 1,
            "euler_chi_additivity": 1,
            "euler_cusp_counts": 1,
            "euler_euler_ratio": 1,
            "euler_h2_sigma3": 1,
            "euler_h_sum_chi_w": 1,
            "euler_h_sum_chi_x": 1,
            "euler_q_doubles_p": 1,
            "euler_rm_route": 1,
            "lambda_next": 9,
            "lambda_norm": 9,
            "lambda_prev": 9,
            "ledger_p_squared": 1,
            "ledger_w_dot_p": 1,
            "ledger_w_squared": 1,
            "multiplicity_positive": 9,
            "next_of_prev": 9,
            "next_permutes": 1,
            "orbifold_order_positive": 9,
            "orbits_cover": 1,
            "p_fiber_size": 9,
            "prev_of_next": 9,
            "splitting_round_trip": 9,
            "sv_positive": 1,
            "sv_rational": 1,
            "t_involutive": 9,
            "t_next_is_prev_t": 9,
            "tau_closed": 9,
            "v_positive": 9,
            "w_fiber_size": 9,
        },
    ),
    81: (
        299,
        {
            "boundary_multiplicity": 10,
            "canonical_P": 1,
            "canonical_W": 1,
            "canonical_Y": 1,
            "complex_edges_closed": 1,
            "complex_p_total": 1,
            "complex_w_total": 1,
            "components_vs_split": 1,
            "degenerate_fiber": 5,
            "enumeration_P": 1,
            "enumeration_W": 1,
            "enumeration_Y": 1,
            "euler_chi_additivity": 1,
            "euler_component_sum": 1,
            "euler_cusp_counts": 1,
            "euler_q_doubles_p": 1,
            "euler_rm_route": 1,
            "ledger_p_squared": 1,
            "ledger_s1_dot_s2": 1,
            "ledger_s1_dot_w": 1,
            "ledger_s1_dot_w0": 1,
            "ledger_s1_dot_w1": 1,
            "ledger_s_squared": 1,
            "ledger_w0_dot_p": 1,
            "ledger_w0_dot_s2": 1,
            "ledger_w0_squared_open": 1,
            "ledger_w_dot_s2": 1,
            "ledger_w_squared": 1,
            "multiplicity_positive": 22,
            "next_of_prev": 22,
            "orbifold_order_positive": 27,
            "orbits_cover": 1,
            "p_fiber_size": 17,
            "prev_of_next": 22,
            "spin_balance": 22,
            "spin_lift_stable": 21,
            "splitting_round_trip": 21,
            "t_involutive": 22,
            "t_next_is_prev_t": 17,
            "tau_closed": 22,
            "terminal_fiber": 5,
            "w_fiber_size": 17,
        },
    ),
    97: (
        496,
        {
            "canonical_P": 1,
            "canonical_W": 1,
            "canonical_Y": 1,
            "complex_edges_closed": 1,
            "complex_p_total": 1,
            "complex_w_total": 1,
            "components_vs_split": 1,
            "enumeration_P": 1,
            "enumeration_W": 1,
            "enumeration_Y": 1,
            "euler_chi_additivity": 1,
            "euler_component_sum": 1,
            "euler_cusp_counts": 1,
            "euler_euler_ratio": 1,
            "euler_h2_sigma3": 1,
            "euler_h_sum_chi_w": 1,
            "euler_h_sum_chi_x": 1,
            "euler_q_doubles_p": 1,
            "euler_rm_route": 1,
            "lambda_next": 27,
            "lambda_norm": 27,
            "lambda_prev": 27,
            "ledger_p_squared": 1,
            "ledger_w0_dot_p": 1,
            "ledger_w0_squared_open": 1,
            "ledger_w1_dot_p": 1,
            "ledger_w_dot_p": 1,
            "ledger_w_squared": 1,
            "multiplicity_positive": 27,
            "next_of_prev": 27,
            "next_permutes": 1,
            "orbifold_order_positive": 27,
            "orbits_cover": 1,
            "p_fiber_size": 27,
            "prev_of_next": 27,
            "spin_balance": 27,
            "spin_lift_stable": 38,
            "splitting_round_trip": 38,
            "sv_billiards_pick": 1,
            "sv_conjugacy": 1,
            "sv_mean": 1,
            "sv_positive": 1,
            "t_involutive": 27,
            "t_next_is_prev_t": 27,
            "tau_closed": 27,
            "v_positive": 38,
            "w_fiber_size": 27,
        },
    ),
    121: (
        431,
        {
            "boundary_multiplicity": 10,
            "canonical_P": 1,
            "canonical_W": 1,
            "canonical_Y": 1,
            "complex_edges_closed": 1,
            "complex_p_total": 1,
            "complex_w_total": 1,
            "components_vs_split": 1,
            "degenerate_fiber": 5,
            "enumeration_P": 1,
            "enumeration_W": 1,
            "enumeration_Y": 1,
            "euler_chi_additivity": 1,
            "euler_component_sum": 1,
            "euler_cusp_counts": 1,
            "euler_q_doubles_p": 1,
            "euler_rm_route": 1,
            "ledger_p_squared": 1,
            "ledger_s1_dot_s2": 1,
            "ledger_s1_dot_w": 1,
            "ledger_s1_dot_w0": 1,
            "ledger_s1_dot_w1": 1,
            "ledger_s_squared": 1,
            "ledger_w0_dot_p": 1,
            "ledger_w0_dot_s2": 1,
            "ledger_w0_squared_open": 1,
            "ledger_w_dot_s2": 1,
            "ledger_w_squared": 1,
            "multiplicity_positive": 32,
            "next_of_prev": 32,
            "orbifold_order_positive": 37,
            "orbits_cover": 1,
            "p_fiber_size": 27,
            "prev_of_next": 32,
            "spin_balance": 32,
            "spin_lift_stable": 37,
            "splitting_round_trip": 37,
            "t_involutive": 32,
            "t_next_is_prev_t": 27,
            "tau_closed": 32,
            "terminal_fiber": 5,
            "w_fiber_size": 27,
        },
    ),
}


def test_verify_tallies_are_pinned():
    for D, (passed, tallies) in PINNED.items():
        report = verify_discriminant(D)
        assert report.failures == ()
        assert report.passed == passed, D
        assert dict(report.tallies) == tallies, D
