import math
from collections import Counter
from fractions import Fraction

import pytest

from wcurves import boundary, euler, exact, prototypes, reference, siegelveech, verify
from wcurves.exact import QuadNum, is_square
from wcurves.prototypes import Prototype
from wcurves.verify import verify_discriminant, verify_range


def test_single_discriminant_report():
    r = verify_discriminant(17)
    assert r.ok
    assert r.failures == ()
    assert r.passed == sum(n for _, n in r.tallies)
    names = {name for name, _ in r.tallies}
    assert "enumeration_W" in names
    assert "spin_balance" in names
    assert "sv_conjugacy" in names
    assert "ledger_w_squared" in names


def test_square_discriminant_report():
    r = verify_discriminant(25)
    assert r.ok
    names = {name for name, _ in r.tallies}
    assert "ledger_s1_dot_w" in names
    assert "orbits_cover" in names


def test_range_is_ascending_and_complete():
    reports = verify_range(1, 40)
    assert [r.D for r in reports] == [D for D in range(1, 41) if D % 4 in (0, 1)]
    assert all(r.ok for r in reports)


def test_shards_partition_the_range():
    full = {r.D for r in verify_range(5, 60)}
    part0 = {r.D for r in verify_range(5, 60, shard=(0, 3))}
    part1 = {r.D for r in verify_range(5, 60, shard=(1, 3))}
    part2 = {r.D for r in verify_range(5, 60, shard=(2, 3))}
    assert part0 | part1 | part2 == full
    assert not (part0 & part1 or part0 & part2 or part1 & part2)


def test_bad_shard_rejected():
    with pytest.raises(ValueError):
        verify_range(5, 10, shard=(3, 3))
    with pytest.raises(ValueError):
        verify_range(5, 10, shard=(0, 0))


def test_failed_check_is_reported(monkeypatch):
    monkeypatch.setattr(reference, "reference_tuples", lambda D, kind: [])
    r = verify_discriminant(5)
    assert not r.ok
    assert any(f.startswith("enumeration_") for f in r.failures)
    assert r.passed == sum(n for _, n in r.tallies)


# Per-suite tallies of verify_discriminant(D) at the edges of the regimes:
# D = 1 and 4 (below the boundary suite's floor of 5), D = 9 (square, below
# the ledger's floor), D = 41 (nonsquare, split) and D = 49 (square, split).
_TALLIES_1 = {
    "canonical_P": 1, "canonical_W": 1, "canonical_Y": 1, "components_vs_split": 1,
    "enumeration_P": 1, "enumeration_W": 1, "enumeration_Y": 1, "euler_cusp_counts": 1,
    "orbits_cover": 1,
}
_TALLIES_4 = {
    "boundary_multiplicity": 1, "canonical_P": 1, "canonical_W": 1, "canonical_Y": 1,
    "components_vs_split": 1, "degenerate_fiber": 1, "enumeration_P": 1,
    "enumeration_W": 1, "enumeration_Y": 1, "euler_cusp_counts": 1, "euler_rm_route": 1,
    "multiplicity_positive": 1, "next_of_prev": 1, "orbifold_order_positive": 2,
    "orbits_cover": 1, "prev_of_next": 1, "t_involutive": 1, "terminal_fiber": 1,
}
_TALLIES_9 = {
    "boundary_multiplicity": 2, "canonical_P": 1, "canonical_W": 1, "canonical_Y": 1,
    "complex_edges_closed": 1, "complex_p_total": 1, "complex_w_total": 1,
    "components_vs_split": 1, "degenerate_fiber": 1, "enumeration_P": 1,
    "enumeration_W": 1, "enumeration_Y": 1, "euler_chi_additivity": 1,
    "euler_cusp_counts": 1, "euler_q_doubles_p": 1, "euler_rm_route": 1,
    "multiplicity_positive": 2, "next_of_prev": 2, "orbifold_order_positive": 3,
    "orbits_cover": 1, "p_fiber_size": 1, "prev_of_next": 2, "splitting_round_trip": 1,
    "t_involutive": 2, "t_next_is_prev_t": 1, "tau_closed": 2, "terminal_fiber": 1,
    "w_fiber_size": 1,
}
_TALLIES_41 = {
    "canonical_P": 1, "canonical_W": 1, "canonical_Y": 1, "complex_edges_closed": 1,
    "complex_p_total": 1, "complex_w_total": 1, "components_vs_split": 1,
    "enumeration_P": 1, "enumeration_W": 1, "enumeration_Y": 1,
    "euler_chi_additivity": 1, "euler_component_sum": 1, "euler_cusp_counts": 1,
    "euler_euler_ratio": 1, "euler_h2_sigma3": 1, "euler_h_sum_chi_w": 1,
    "euler_h_sum_chi_x": 1, "euler_q_doubles_p": 1, "euler_rm_route": 1,
    "lambda_next": 11, "lambda_norm": 11, "lambda_prev": 11, "ledger_p_squared": 1,
    "ledger_w0_dot_p": 1, "ledger_w0_squared_open": 1, "ledger_w1_dot_p": 1,
    "ledger_w_dot_p": 1, "ledger_w_squared": 1, "multiplicity_positive": 11,
    "next_of_prev": 11, "next_permutes": 1, "orbifold_order_positive": 11,
    "orbits_cover": 1, "p_fiber_size": 11, "prev_of_next": 11, "spin_balance": 11,
    "spin_lift_stable": 14, "splitting_round_trip": 14, "sv_billiards_pick": 1,
    "sv_conjugacy": 1, "sv_mean": 1, "sv_positive": 1, "t_involutive": 11,
    "t_next_is_prev_t": 11, "tau_closed": 11, "v_positive": 14, "w_fiber_size": 11,
}
_TALLIES_49 = {
    "boundary_multiplicity": 6, "canonical_P": 1, "canonical_W": 1, "canonical_Y": 1,
    "complex_edges_closed": 1, "complex_p_total": 1, "complex_w_total": 1,
    "components_vs_split": 1, "degenerate_fiber": 3, "enumeration_P": 1,
    "enumeration_W": 1, "enumeration_Y": 1, "euler_chi_additivity": 1,
    "euler_component_sum": 1, "euler_cusp_counts": 1, "euler_q_doubles_p": 1,
    "euler_rm_route": 1, "ledger_p_squared": 1, "ledger_s1_dot_s2": 1,
    "ledger_s1_dot_w": 1, "ledger_s1_dot_w0": 1, "ledger_s1_dot_w1": 1,
    "ledger_s_squared": 1, "ledger_w0_dot_p": 1, "ledger_w0_dot_s2": 1,
    "ledger_w0_squared_open": 1, "ledger_w_dot_s2": 1, "ledger_w_squared": 1,
    "multiplicity_positive": 14, "next_of_prev": 14, "orbifold_order_positive": 17,
    "orbits_cover": 1, "p_fiber_size": 11, "prev_of_next": 14, "spin_balance": 14,
    "spin_lift_stable": 13, "splitting_round_trip": 13, "t_involutive": 14,
    "t_next_is_prev_t": 11, "tau_closed": 14, "terminal_fiber": 3, "w_fiber_size": 11,
}


@pytest.mark.parametrize(
    "D, tallies",
    [(41, _TALLIES_41), (49, _TALLIES_49), (1, _TALLIES_1), (4, _TALLIES_4), (9, _TALLIES_9)],
)
def test_passing_checks_format_no_detail(monkeypatch, D, tallies):
    def refuse(self):
        raise AssertionError("a passing check formatted its detail")

    monkeypatch.setattr(Prototype, "__str__", refuse)
    monkeypatch.setattr(QuadNum, "__str__", refuse)
    r = verify_discriminant(D)
    assert r.ok
    assert r.passed == sum(tallies.values())
    assert r.tallies == tuple(sorted(tallies.items()))


def test_enumeration_failure_text(monkeypatch):
    full = reference.reference_tuples
    monkeypatch.setattr(
        reference,
        "reference_tuples",
        lambda D, kind: full(D, kind)[1:] if kind == "W" else full(D, kind),
    )
    r = verify_discriminant(17)
    assert r.failures == (
        "enumeration_W: enumerator [(1, -3, -2, 0), (1, -1, -4, 0), (1, 1, -4, 0),"
        " (2, -3, -1, 0), (2, -1, -2, 0), (2, -1, -2, 1)] vs reference"
        " [(1, -1, -4, 0), (1, 1, -4, 0), (2, -3, -1, 0), (2, -1, -2, 0), (2, -1, -2, 1)]",
    )
    assert r.passed == 113


def test_each_failure_is_formatted_before_the_suite_resumes(monkeypatch):
    # The enumeration detail closes over the loop's lists, so a failure
    # formatted after the suite moved on would show the last kind's (P's)
    # lists.  At D = 17 the W and P lists coincide, so Y fails too.
    full = reference.reference_tuples
    monkeypatch.setattr(reference, "reference_tuples", lambda D, kind: full(D, kind)[1:])
    r = verify_discriminant(17)
    y = "(1, -1, -4, 0), (1, 1, -4, 0), (2, -3, -1, 0), (2, -1, -2, 0)"
    w = f"{y}, (2, -1, -2, 1)"
    assert r.failures == (
        f"enumeration_Y: enumerator [(1, -3, -2, 0), {y}] vs reference [{y}]",
        f"enumeration_W: enumerator [(1, -3, -2, 0), {w}] vs reference [{w}]",
        f"enumeration_P: enumerator [(1, -3, -2, 0), {w}] vs reference [{w}]",
    )
    assert r.passed == 111


def test_per_prototype_failure_text(monkeypatch):
    monkeypatch.setattr(verify, "prev_prototype", lambda p: p)
    r = verify_discriminant(8)
    assert r.failures == tuple(
        f"{name}: {p}"
        for p in ("Y(1,-2,-1,0)", "Y(1,0,-2,0)")
        for name in ("prev_of_next", "next_of_prev", "t_next_is_prev_t", "lambda_prev")
    )
    assert r.passed == 45


def test_wrong_junction_key_fails(monkeypatch):
    # q mod gcd(a, c) in place of q mod gcd(a, b, c)
    def wrong(p):
        a, b, c, q = p.abcq
        triple = prototypes._canonical_triple(a, b, c)
        return prototypes._new(prototypes.Prototype, ("Y", p.D, *triple, q % math.gcd(a, c)))

    monkeypatch.setattr(verify, "y_image", wrong)
    r = verify_discriminant(17)
    assert not r.ok
    assert any(f.startswith("w_fiber_size") for f in r.failures), r.failures


def test_t_image_off_the_junctions_fails_spin_balance(monkeypatch):
    # t returning the noncanonical partner (-c, b, -a) of a terminal image:
    # at split D that is no junction key, and spin_balance says which
    # prototype broke where the boundary suite used to end on a KeyError.
    t = prototypes.t_involution

    def partner(p):
        image = t(p)
        if not image.is_terminal:
            return image
        a, b, c, q = image.abcq
        return prototypes._new(prototypes.Prototype, ("Y", p.D, -c, b, -a, q))

    monkeypatch.setattr(verify, "t_involution", partner)
    r = verify_discriminant(25)
    assert not any(f.startswith("boundary:") for f in r.failures), r.failures
    assert [f for f in r.failures if f.startswith("spin_balance")] == [
        "spin_balance: Y(1,-3,-4,0): t image Y(4,3,-1,0) is not a junction",
        "spin_balance: Y(2,-1,-3,0): t image Y(3,1,-2,0) is not a junction",
    ]
    assert dict(r.tallies)["spin_balance"] > 0


@pytest.mark.parametrize("field, check", [("wcusps", "complex_w_total"), ("pcusps", "complex_p_total")])
def test_wrong_fiber_count_fails(monkeypatch, field, check):
    # The complex counts its fibers by arithmetic; the check compares them
    # with the enumerator's cusps, so one count off by one must show.
    cx = boundary.build_complex(12)
    edge = cx.junctions[0]
    wrong = edge._replace(**{field: getattr(edge, field) + 1})
    mutant = cx._replace(junctions=(wrong, *cx.junctions[1:]))
    monkeypatch.setattr(boundary, "build_complex", lambda D: mutant)
    r = verify_discriminant(12)
    assert r.failures == (check,)


def test_euler_failure_text(monkeypatch):
    chain = euler.consistency_chain
    planted = euler.ConsistencyCheck("planted", Fraction(1, 3), Fraction(-2))
    monkeypatch.setattr(euler, "consistency_chain", lambda D: chain(D) + [planted])
    r = verify_discriminant(41)
    assert r.failures == ("euler_planted: 1/3 != -2",)
    assert r.passed == sum(_TALLIES_41.values())


@pytest.mark.parametrize("D", [17, 41, 89])
def test_spin_swap_fails_sv_conjugacy(monkeypatch, D):
    # Every spin that `verify` reads flipped: the sv suite sums each v into
    # the other spin, so its two sums swap.  `spin_lift_stable` compares
    # the flipped spin with the public `spin` and fails too.
    assert verify_discriminant(D).ok
    spin = prototypes._spin
    monkeypatch.setattr(verify, "_spin", lambda *args: 1 - spin(*args))
    r = verify_discriminant(D)
    c0, c1 = siegelveech.sv_constant_components(D)
    assert f"sv_conjugacy: scan ({c1}, {c0}) vs ({c0}, {c1})" in r.failures
    assert {text.split(":")[0] for text in r.failures} == {"sv_conjugacy", "spin_lift_stable"}


@pytest.mark.parametrize("D, check", [(13, "sv_rational"), (20, "sv_rational"), (17, "sv_conjugacy")])
def test_quadnum_sum_of_mixed_denominators_fails_sv(monkeypatch, D, check):
    # `QuadNum.__add__` taking the sqrt part y w + v w for y w + v z, which
    # is wrong only when two irrational summands have different
    # denominators.  The sv suite adds the QuadNum v's of the W prototypes,
    # so its sums move off the t-pass's.
    assert verify_discriminant(D).ok
    add = QuadNum.__add__

    def mixed(self, other):
        if not isinstance(other, QuadNum):
            return add(self, other)
        x, y, z = self._x, self._y, self._z
        u, v, w = other._x, other._y, other._z
        return exact._quadnum(self._common_disc(other), x * w + u * z, y * w + v * w, z * w)

    monkeypatch.setattr(QuadNum, "__add__", mixed)
    r = verify_discriminant(D)
    assert len(r.failures) == 1 and r.failures[0].startswith(f"{check}: "), r.failures


def test_raising_suite_is_one_failure(monkeypatch):
    def broken(p):
        raise AssertionError(f"planted at {p}")

    monkeypatch.setattr(siegelveech, "v_of_prototype", broken)
    r = verify_discriminant(41)
    assert not r.ok
    assert r.failures == ("sv: AssertionError: planted at W(1,-5,-4,0)",)
    # every other suite still ran; the sv suite stopped at its first check
    others = {k: v for k, v in _TALLIES_41.items() if not k.startswith(("sv_", "v_"))}
    assert r.tallies == tuple(sorted(others.items()))
    assert r.passed == sum(others.values())


@pytest.mark.parametrize("D", [6, 0, -3])
def test_invalid_discriminant_raises(D):
    # bad input is the caller's error, not a failure of the suites
    with pytest.raises(ValueError, match=rf"^invalid discriminant {D}: need an integer >= 1 "):
        verify_discriminant(D)


def _counted(monkeypatch, names) -> Counter:
    """Wrap each named function that verify imports; the Counter returned counts calls."""
    calls = Counter()

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    return calls


_MAPS = ("next_prototype", "prev_prototype", "t_involution", "lambda_of")


@pytest.mark.parametrize("D", [12, 17, 41, 49, 81])
def test_dynamics_applies_each_map_once_per_prototype(monkeypatch, D):
    calls = _counted(monkeypatch, _MAPS)
    checks = list(verify._check_dynamics(D))
    assert checks and all(check[1] for check in checks)
    ys = prototypes.enumerate_prototypes(D, "Y")
    nondegenerate = sum(not p.is_degenerate for p in ys)
    assert {name: calls[name] for name in _MAPS} == {
        "next_prototype": sum(not p.is_terminal for p in ys),
        "prev_prototype": nondegenerate,
        "t_involution": nondegenerate,
        "lambda_of": 0 if is_square(D) else len(ys),
    }


@pytest.mark.parametrize("D", [12, 17, 41, 49, 81])
def test_boundary_suite_reads_the_spins_of_the_complex(monkeypatch, D):
    # spin_balance reads CurveNode.spins, the spins `boundary` prints: it
    # computes no spin and rebuilds no W fiber.
    calls = _counted(monkeypatch, ("spin",))
    w_fiber = boundary.JunctionEdge.w_fiber.fget

    def counted_fiber(edge):
        calls["w_fiber"] += 1
        return w_fiber(edge)

    monkeypatch.setattr(boundary.JunctionEdge, "w_fiber", property(counted_fiber))
    checks = list(verify._check_boundary(D))
    assert all(check[1] for check in checks)
    split = prototypes._spin_applies(D)
    assert any(check[0] == "spin_balance" for check in checks) == split
    assert calls == Counter()


@pytest.mark.parametrize("D", [17, 41, 89, 25, 81])
def test_curve_spins_at_q_fail_spin_balance(monkeypatch, D):
    # build_complex taking every spin of a curve at q, not at q + k g over
    # its W fiber: the exported spins change, and spin_balance reads them.
    assert verify_discriminant(D).ok
    spin = boundary._spin
    monkeypatch.setattr(
        boundary, "_spin", lambda a, b, c, q, f: spin(a, b, c, q % math.gcd(a, b, c), f)
    )
    r = verify_discriminant(D)
    assert r.failures and all(text.startswith("spin_balance: ") for text in r.failures)


@pytest.mark.parametrize("D", [12, 17, 41, 49, 81])
def test_reference_scans_the_grid_once_for_the_three_kinds(D):
    reference._grid.cache_clear()
    verify_discriminant(D)
    info = reference._grid.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_an_image_outside_the_table_goes_through_the_maps(monkeypatch):
    # A broken next_prototype whose images are no Y prototypes of D: the
    # suite holds no stored image for them, so it applies the maps to them
    # and its checks fail, where a lookup would raise KeyError.
    right = verify.next_prototype

    def shifted(p):
        n = right(p)
        return prototypes._new(prototypes.Prototype, ("Y", n.D, n.a, n.b, n.c, n.q + n.modulus))

    monkeypatch.setattr(verify, "next_prototype", shifted)
    r = verify_discriminant(17)
    assert not any(f.startswith("dynamics:") for f in r.failures), r.failures
    assert r.failures == tuple(
        f"{name}: {p}"
        for p in ("Y(1,-3,-2,0)", "Y(1,-1,-4,0)", "Y(1,1,-4,0)", "Y(2,-3,-1,0)", "Y(2,-1,-2,0)")
        for name in ("prev_of_next", "next_of_prev", "t_next_is_prev_t")
    ) + ("next_permutes",)
