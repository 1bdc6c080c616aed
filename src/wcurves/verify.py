"""Range verification: every internal invariant on one place.

The CLI verify command and the acceptance suite both run these checks.
Each discriminant yields a DiscriminantReport with a pass count and the
failure descriptions, so a regression names what broke and where.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import boundary, euler, reference, siegelveech
from .exact import (
    _discriminants,
    _is_integer,
    check_discriminant,
    decompose_discriminant,
    is_square,
)
from .prototypes import (
    _spin,
    _spin_applies,
    canonical,
    enumerate_prototypes,
    from_splitting_prototype,
    lambda_of,
    multiplicity,
    next_prototype,
    orbifold_order,
    orbits,
    prev_prototype,
    spin,
    t_involution,
    to_splitting_prototype,
    y_image,
)

__all__ = ["DiscriminantReport", "verify_discriminant", "verify_range"]


@dataclass(frozen=True)
class DiscriminantReport:
    D: int
    passed: int
    failures: tuple[str, ...]
    tallies: tuple[tuple[str, int], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


class _Rec:
    def __init__(self):
        self.passed = 0
        self.failures = []
        self.tally = {}

    def check(self, name: str, ok: bool, detail=None) -> None:
        """Count a passing check, or record a failure.

        detail is formatted only on failure: an object by str, a
        zero-argument callable by str of its result.
        """
        if ok:
            self.passed += 1
            self.tally[name] = self.tally.get(name, 0) + 1
            return
        if callable(detail):
            detail = detail()
        self.failures.append(name if detail is None else f"{name}: {detail}")


def _check_enumeration(D: int, rec: _Rec) -> None:
    for kind in ("Y", "W", "P"):
        protos = enumerate_prototypes(D, kind)
        ours = [(p.a, p.b, p.c, p.q) for p in protos]
        theirs = reference.reference_tuples(D, kind)
        rec.check(
            f"enumeration_{kind}",
            ours == theirs,
            lambda: f"enumerator {ours} vs reference {theirs}",
        )
        rec.check(f"canonical_{kind}", all(p == canonical(p) for p in protos))


def _check_dynamics(D: int, rec: _Rec) -> None:
    ys = enumerate_prototypes(D, "Y")
    square = is_square(D)
    nexts = []
    for p in ys:
        nxt = None if p.is_terminal else next_prototype(p)
        prv = None if p.is_degenerate else prev_prototype(p)
        if nxt is not None:
            nexts.append(nxt)
            rec.check("prev_of_next", prev_prototype(nxt) == p, p)
        if prv is not None:
            tp = t_involution(p)
            rec.check("next_of_prev", next_prototype(prv) == p, p)
            rec.check("t_involutive", t_involution(tp) == p, p)
            rec.check("multiplicity_positive", multiplicity(p) >= 1, p)
            if nxt is not None:
                rec.check("t_next_is_prev_t", t_involution(nxt) == prev_prototype(tp), p)
        if p.is_terminal or p.is_initial:
            rec.check("boundary_multiplicity", p.is_degenerate or multiplicity(p) == 1, p)
        rec.check("orbifold_order_positive", orbifold_order(p) >= 1, p)
        if not square:
            lam = lambda_of(p)
            want = lam - 1 if (lam - 2).sign1() >= 0 else (lam - 1).inverse()
            rec.check("lambda_next", lambda_of(nxt) == want, p)
            want = lam + 1 if (lam + 1).norm() <= 0 else (lam + 1) / lam
            rec.check("lambda_prev", lambda_of(prv) == want, p)
            rec.check("lambda_norm", lam.norm() == Fraction(p.c, p.a), p)
    if not square:
        rec.check("next_permutes", set(nexts) == set(ys))
    chains = orbits(D)
    rec.check("orbits_cover", sum(len(ch) for ch in chains) == len(ys))


def _check_fibers(D: int, rec: _Rec) -> None:
    ys = enumerate_prototypes(D, "Y")
    ws = enumerate_prototypes(D, "W")
    ps = enumerate_prototypes(D, "P")
    wf = Counter(map(y_image, ws))
    pf = Counter(map(y_image, ps))
    for p in ys:
        if p.is_degenerate:
            rec.check("degenerate_fiber", wf[p] == 0 and pf[p] == 0, p)
        elif p.is_terminal:
            rec.check("terminal_fiber", wf[p] == 0 and pf[p] == 1, p)
        else:
            rec.check("w_fiber_size", wf[p] == multiplicity(p), p)
            rec.check("p_fiber_size", pf[p] == multiplicity(p), p)
    for w in ws:
        back = from_splitting_prototype(*to_splitting_prototype(w))
        rec.check("splitting_round_trip", back == w, w)
    if _spin_applies(D):
        _, f = decompose_discriminant(D)
        for w in ws:
            base = spin(w)
            m = w.modulus
            stable = all(
                _spin(w.a, w.b, w.c, q, f) == base for q in (w.q + m, w.q + 2 * m)
            )
            rec.check("spin_lift_stable", stable, w)


def _check_euler(D: int, rec: _Rec) -> None:
    for c in euler.consistency_chain(D):
        rec.check(f"euler_{c.name}", c.ok, lambda: f"{c.lhs} != {c.rhs}")
    split = _spin_applies(D)
    rec.check(
        "components_vs_split",
        (euler.num_components(D) == 2) == split,
    )


def _check_sv(D: int, rec: _Rec) -> None:
    if not siegelveech._sv_applies(D):
        return
    ws = enumerate_prototypes(D, "W")
    for w in ws:
        rec.check("v_positive", siegelveech.v_of_prototype(w).sign1() > 0, w)
    c, components, billiards = siegelveech._constants(D)
    rec.check("sv_positive", c.sign1() > 0 and c.sign2() > 0)
    if components is None:
        rec.check("sv_rational", c.rad == 0, c)
    else:
        c0, c1 = components
        rec.check("sv_conjugacy", c1 == c0.galois_conjugate(), lambda: f"{c0} vs {c1}")
        rec.check("sv_mean", (c0 + c1) / 2 == c)
        rec.check("sv_billiards_pick", billiards in (c0, c1))


def _check_boundary(D: int, rec: _Rec) -> None:
    if D < 5:
        return
    cx = boundary.build_complex(D)
    ws = enumerate_prototypes(D, "W")
    ps = enumerate_prototypes(D, "P")
    rec.check(
        "complex_w_total",
        sum(len(e.w_fiber) for e in cx.junctions) == len(ws),
    )
    rec.check(
        "complex_p_total",
        sum(len(e.p_fiber) for e in cx.junctions) == len(ps),
    )
    node_ids = {n.id for n in cx.curves}
    rec.check(
        "complex_edges_closed",
        all(e.src in node_ids and e.dst in node_ids for e in cx.junctions),
    )
    for n in cx.curves:
        if n.prototype is not None:
            rec.check("tau_closed", cx.tau(n.id) in node_ids, n.id)
    if _spin_applies(D):
        square = is_square(D)
        by_prototype = {e.prototype: e for e in cx.junctions}
        for e in cx.junctions:
            p = e.prototype
            if p.is_degenerate:
                continue
            lhs = sum(1 for w in e.w_fiber if spin(w) == 1)
            if square and p.is_terminal:
                lhs += 1
            tp = t_involution(p)
            rhs = sum(1 for w in by_prototype[tp].w_fiber if spin(w) == 0)
            rec.check("spin_balance", lhs == rhs, lambda: f"{p}: {lhs} != {rhs}")


def _check_ledger(D: int, rec: _Rec) -> None:
    if not boundary._ledger_applies(D):
        return
    square = is_square(D)
    fc = lambda name: boundary.fundamental_class(D, name)
    pair = boundary.intersect
    split = _spin_applies(D)
    rec.check("ledger_w_squared", pair(fc("W"), fc("W")) == euler.chi_W(D) / 3)
    rec.check("ledger_p_squared", pair(fc("P"), fc("P")) == euler.chi_P(D))
    if not square:
        rec.check("ledger_w_dot_p", pair(fc("W"), fc("P")) == 0)
        if split:
            rec.check("ledger_w1_dot_p", pair(fc("W1"), fc("P")) == 0)
    else:
        d = math.isqrt(D)
        one = euler.one_cylinder_cusps(d)
        rec.check("ledger_s1_dot_w", pair(fc("S1"), fc("W")) == one[0])
        rec.check("ledger_w_dot_s2", pair(fc("W"), fc("S2")) == 0)
        rec.check("ledger_s_squared", pair(fc("S1"), fc("S1")) == euler.chi_S(D))
        rec.check(
            "ledger_s1_dot_s2",
            pair(fc("S1"), fc("S2")) == Fraction(euler.euler_phi(d), 2),
        )
        if split:
            rec.check("ledger_s1_dot_w0", pair(fc("S1"), fc("W0")) == one[1])
            rec.check("ledger_s1_dot_w1", pair(fc("S1"), fc("W1")) == one[2])
            rec.check("ledger_w0_dot_s2", pair(fc("W0"), fc("S2")) == 0)
    if split:
        rec.check("ledger_w0_dot_p", pair(fc("W0"), fc("P")) == 0)
        rec.check(
            "ledger_w0_squared_open",
            pair(fc("W0"), fc("W0")) is boundary.UNDETERMINED,
        )


_SUITES = (
    ("enumeration", _check_enumeration),
    ("dynamics", _check_dynamics),
    ("fibers", _check_fibers),
    ("euler", _check_euler),
    ("sv", _check_sv),
    ("boundary", _check_boundary),
    ("ledger", _check_ledger),
)


def verify_discriminant(D: int) -> DiscriminantReport:
    check_discriminant(D)  # invalid input raises; it is not a suite's failure
    rec = _Rec()
    for suite, run in _SUITES:
        try:
            run(D, rec)
        except Exception as exc:
            # An invariant that fails by raising (an assert inside a layer)
            # is one failure of its suite; the other suites still run.
            rec.failures.append(f"{suite}: {type(exc).__name__}: {exc}")
    return DiscriminantReport(
        D, rec.passed, tuple(rec.failures), tuple(sorted(rec.tally.items()))
    )


def verify_range(dmin: int, dmax: int, shard: tuple[int, int] = (0, 1)) -> list[DiscriminantReport]:
    """Reports for every discriminant in [dmin, dmax], ascending.

    shard = (i, n) keeps only every n-th discriminant starting at offset i.
    """
    index, count = shard
    if not _shard_ok(index, count):
        raise ValueError(
            f"verify_range needs a shard (i, n) of integers 0 <= i < n, got {shard!r}"
        )
    return [
        verify_discriminant(D)
        for pos, D in enumerate(_discriminants(dmin, dmax))
        if pos % count == index
    ]


def _shard_ok(index: int, count: int) -> bool:
    """Whether (index, count) is a shard: integers with 0 <= index < count."""
    return _is_integer(index, 0) and _is_integer(count, index + 1)
