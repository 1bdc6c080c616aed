"""Range verification: every internal invariant in one place.

The CLI verify command and the acceptance suite both run these checks.
Each suite (a ``_check_*`` function) is a generator over one
discriminant that yields its checks as ``(name, ok)`` or
``(name, ok, detail)`` and records nothing itself. One loop, in
verify_discriminant, records them: it tallies each passing check by
name, formats a failing check's detail as the check arrives, and counts
a suite that raises as one failure of that suite. Each discriminant
gets a DiscriminantReport with the pass count, the tallies and the
failure lines, so a regression names what broke and where.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction

from . import boundary, euler, reference, siegelveech
from .exact import (
    _decompose,
    _discriminants,
    _is_integer,
    _record,
    check_discriminant,
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


class DiscriminantReport(_record("DiscriminantReport", "D passed failures tallies")):
    """One D's pass count, failure lines and per-check tallies."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _check_enumeration(D: int):
    for kind in ("Y", "W", "P"):
        protos = enumerate_prototypes(D, kind)
        ours = [(p.a, p.b, p.c, p.q) for p in protos]
        theirs = reference.reference_tuples(D, kind)
        yield (
            f"enumeration_{kind}",
            ours == theirs,
            lambda: f"enumerator {ours} vs reference {theirs}",
        )
        yield f"canonical_{kind}", all(p == canonical(p) for p in protos)


def _check_dynamics(D: int):
    ys = enumerate_prototypes(D, "Y")
    square = is_square(D)
    # Each map's image of each Y prototype, computed once.  The keys are
    # abcq tuples, which compare in C; a Prototype compares through its
    # class check.  An image that is not a key comes only from a broken
    # map, and goes through the map.
    nexts = {p.abcq: next_prototype(p) for p in ys if not p.is_terminal}
    prevs = {p.abcq: prev_prototype(p) for p in ys if not p.is_degenerate}
    ts = {p.abcq: t_involution(p) for p in ys if not p.is_degenerate}
    lams = {} if square else {p.abcq: lambda_of(p) for p in ys}

    def image(table, fn, x):
        out = table.get(x.abcq)
        return fn(x) if out is None else out

    for p in ys:
        key = p.abcq
        nxt = nexts.get(key)
        prv = prevs.get(key)
        if nxt is not None:
            yield "prev_of_next", image(prevs, prev_prototype, nxt) == p, p
        if prv is not None:
            tp = ts[key]
            yield "next_of_prev", image(nexts, next_prototype, prv) == p, p
            yield "t_involutive", image(ts, t_involution, tp) == p, p
            yield "multiplicity_positive", multiplicity(p) >= 1, p
            if nxt is not None:
                yield (
                    "t_next_is_prev_t",
                    image(ts, t_involution, nxt) == image(prevs, prev_prototype, tp),
                    p,
                )
        if p.is_terminal or p.is_initial:
            yield "boundary_multiplicity", p.is_degenerate or multiplicity(p) == 1, p
        yield "orbifold_order_positive", orbifold_order(p) >= 1, p
        if not square:
            lam = lams[key]
            down = lam - 1
            want = down if (lam - 2).sign1() >= 0 else down.inverse()
            yield "lambda_next", image(lams, lambda_of, nxt) == want, p
            up = lam + 1
            want = up if up.norm() <= 0 else up / lam
            yield "lambda_prev", image(lams, lambda_of, prv) == want, p
            yield "lambda_norm", lam.norm() == Fraction(p.c, p.a), p
    if not square:
        yield "next_permutes", set(nexts.values()) == set(ys)
    chains = orbits(D)
    yield "orbits_cover", sum(len(ch) for ch in chains) == len(ys)


def _check_fibers(D: int):
    ys = enumerate_prototypes(D, "Y")
    ws = enumerate_prototypes(D, "W")
    ps = enumerate_prototypes(D, "P")
    wf = Counter(map(y_image, ws))
    pf = Counter(map(y_image, ps))
    for p in ys:
        if p.is_degenerate:
            yield "degenerate_fiber", wf[p] == 0 and pf[p] == 0, p
        elif p.is_terminal:
            yield "terminal_fiber", wf[p] == 0 and pf[p] == 1, p
        else:
            yield "w_fiber_size", wf[p] == multiplicity(p), p
            yield "p_fiber_size", pf[p] == multiplicity(p), p
    for w in ws:
        back = from_splitting_prototype(*to_splitting_prototype(w))
        yield "splitting_round_trip", back == w, w
    if _spin_applies(D):
        _, f = _decompose(D)
        for w in ws:
            base = spin(w)
            m = w.modulus
            stable = all(
                _spin(w.a, w.b, w.c, q, f) == base for q in (w.q + m, w.q + 2 * m)
            )
            yield "spin_lift_stable", stable, w


def _check_euler(D: int):
    for c in euler.consistency_chain(D):
        yield f"euler_{c.name}", c.ok, lambda: f"{c.lhs} != {c.rhs}"
    yield "components_vs_split", (euler.num_components(D) == 2) == _spin_applies(D)


def _check_sv(D: int):
    if not siegelveech._sv_applies(D):
        return
    ws = enumerate_prototypes(D, "W")
    for w in ws:
        yield "v_positive", siegelveech.v_of_prototype(w).sign1() > 0, w
    c, components, billiards = siegelveech._constants(D)
    yield "sv_positive", c.sign1() > 0 and c.sign2() > 0
    # _constants reads the t-pass; the scan of the W triples checks it.
    s0, s1 = siegelveech._v_sums(D)
    if components is None:
        scan = (s0 + s1) / (-2 * euler.chi_W(D))
        yield "sv_rational", scan.rad == 0 and scan == c, lambda: f"{scan} vs {c}"
    else:
        chi0, chi1 = euler.chi_W_components(D)
        k0, k1 = s0 / (-2 * chi0), s1 / (-2 * chi1)
        c0, c1 = components
        yield (
            "sv_conjugacy",
            k1 == k0.galois_conjugate() and (k0, k1) == components,
            lambda: f"scan ({k0}, {k1}) vs ({c0}, {c1})",
        )
        yield "sv_mean", (c0 + c1) / 2 == c
        yield "sv_billiards_pick", billiards in (c0, c1)


def _check_boundary(D: int):
    if D < 5:
        return
    cx = boundary.build_complex(D)
    ws = enumerate_prototypes(D, "W")
    ps = enumerate_prototypes(D, "P")
    yield "complex_w_total", sum(e.wcusps for e in cx.junctions) == len(ws)
    yield "complex_p_total", sum(e.pcusps for e in cx.junctions) == len(ps)
    node_ids = {n.id for n in cx.curves}
    yield (
        "complex_edges_closed",
        all(e.src in node_ids and e.dst in node_ids for e in cx.junctions),
    )
    for n in cx.curves:
        if n.prototype is not None:
            image = boundary._node_id(*t_involution(n.prototype).abcq)
            yield "tau_closed", image in node_ids, n.id
    if _spin_applies(D):
        square = is_square(D)
        spins = {e.prototype.abcq: [spin(w) for w in e.w_fiber] for e in cx.junctions}
        for e in cx.junctions:
            p = e.prototype
            if p.is_degenerate:
                continue
            lhs = spins[p.abcq].count(1)
            if square and p.is_terminal:
                lhs += 1
            tp = t_involution(p)
            image = spins.get(tp.abcq)
            if image is None:
                yield "spin_balance", False, lambda: f"{p}: t image {tp} is not a junction"
                continue
            rhs = image.count(0)
            yield "spin_balance", lhs == rhs, lambda: f"{p}: {lhs} != {rhs}"


def _check_ledger(D: int):
    if not boundary._ledger_applies(D):
        return
    square = is_square(D)
    fc = functools.partial(boundary.fundamental_class, D)
    pair = boundary.intersect
    split = _spin_applies(D)
    chis = euler._chis(D)
    yield "ledger_w_squared", pair(fc("W"), fc("W")) == chis["chi_w"] / 3
    yield "ledger_p_squared", pair(fc("P"), fc("P")) == chis["chi_p"]
    if not square:
        yield "ledger_w_dot_p", pair(fc("W"), fc("P")) == 0
        if split:
            yield "ledger_w1_dot_p", pair(fc("W1"), fc("P")) == 0
    else:
        d = math.isqrt(D)
        spins = chis["cusps_one_cylinder_spin"]
        yield "ledger_s1_dot_w", pair(fc("S1"), fc("W")) == chis["cusps_one_cylinder"]
        yield "ledger_w_dot_s2", pair(fc("W"), fc("S2")) == 0
        yield "ledger_s_squared", pair(fc("S1"), fc("S1")) == chis["chi_s"]
        yield "ledger_s1_dot_s2", pair(fc("S1"), fc("S2")) == Fraction(euler.euler_phi(d), 2)
        if split:
            yield "ledger_s1_dot_w0", pair(fc("S1"), fc("W0")) == spins[0]
            yield "ledger_s1_dot_w1", pair(fc("S1"), fc("W1")) == spins[1]
            yield "ledger_w0_dot_s2", pair(fc("W0"), fc("S2")) == 0
    if split:
        yield "ledger_w0_dot_p", pair(fc("W0"), fc("P")) == 0
        yield "ledger_w0_squared_open", pair(fc("W0"), fc("W0")) is boundary.UNDETERMINED


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
    tally, failures = {}, []
    for suite, checks in _SUITES:
        try:
            # Indexing and a plain dict: star-unpacking and a Counter cost
            # about 300 ns more per check (timeit, Python 3.11).
            for check in checks(D):
                name = check[0]
                if check[1]:
                    tally[name] = tally.get(name, 0) + 1
                else:
                    # Format now: a detail may close over the suite's loop
                    # variables, which change once the suite resumes.
                    failures.append(_failure_text(name, *check[2:]))
        except Exception as exc:
            # An invariant that fails by raising (an assert inside a layer)
            # is one failure of its suite; the other suites still run.
            failures.append(f"{suite}: {type(exc).__name__}: {exc}")
    return DiscriminantReport(
        D, sum(tally.values()), tuple(failures), tuple(sorted(tally.items()))
    )


def _failure_text(name: str, detail=None) -> str:
    """A failed check's line; detail is an object, a zero-argument callable or None."""
    if callable(detail):
        detail = detail()
    return name if detail is None else f"{name}: {detail}"


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
