"""Boundary cusp complex and the intersection ledger.

The boundary of the compactified surface is a union of curves C_P indexed
by nondegenerate kind Y prototypes, plus two extra curves S1 and S2 when
D = d^2 is square.  Curves meet at junction points c_P, one per kind Y
prototype: C_P runs from c_{P^-} to c_P, so c_P joins C_P to C_{P+};
degenerate junctions start on S1 and terminal junctions end on S2.  Kind
W and P prototypes mark cusps on the curve over their junction image.

The cusps over a junction (a, b, c, q) are fixed by its triple: with
g = gcd(a, b, c) and n = gcd(a, c) / g when c < 0, else 0, they are
(a, b, c, q + k g) for k < n (Bainbridge 2007, McMullen 2005).  A
terminal junction carries its one P cusp and no W cusp, a degenerate one
carries none.  `build_complex` counts the fibers by this rule from the
kind Y prototypes alone; `JunctionEdge.w_fiber` and `p_fiber` build them.

Cohomology classes are tracked as exact (omega1, omega2) coefficients
plus a formal boundary part.  Pairings of boundary parts that the ledger
does not determine (the spin component self-pairings) evaluate to the
UNDETERMINED sentinel rather than to a fabricated number.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .euler import _chis
from .exact import (
    _decompose,
    _is_name,
    _record,
    check_discriminant,
    euler_phi,
    is_square,
    mobius_weighted_sum,
)
from .prototypes import (
    Prototype,
    _enumerate,
    _new,
    _next_triple,
    _orbifold_order,
    _spin,
    _spin_applies,
    t_involution,
)

__all__ = [
    "CohClass",
    "CurveNode",
    "CuspComplex",
    "JunctionEdge",
    "UNDETERMINED",
    "build_complex",
    "export_dot",
    "fundamental_class",
    "intersect",
]


class _Undetermined:
    """Pairings the ledger cannot pin down; copies and pickles give UNDETERMINED."""

    __slots__ = ()

    def __repr__(self):
        return "UNDETERMINED"

    def __reduce__(self):
        return "UNDETERMINED"


UNDETERMINED = _Undetermined()


def _node_id(a: int, b: int, c: int, q: int) -> str:
    return f"C({a},{b},{c},{q})"


class CurveNode(_record("CurveNode", "id prototype wcusps pcusps spins")):
    """A curve: its id, its Prototype (None for S1, S2), cusp counts and spins."""

    __slots__ = ()


class JunctionEdge(_record("JunctionEdge", "prototype m src dst wcusps pcusps")):
    """A junction: its Prototype, orbifold order, end curves and cusp counts."""

    __slots__ = ()

    @property
    def w_fiber(self) -> tuple[Prototype, ...]:
        """The kind W cusps over the junction, in residue order."""
        return self._fiber("W", self.wcusps)

    @property
    def p_fiber(self) -> tuple[Prototype, ...]:
        """The kind P cusps over the junction, in residue order."""
        return self._fiber("P", self.pcusps)

    def _fiber(self, kind: str, n: int) -> tuple[Prototype, ...]:
        p = self.prototype
        g = math.gcd(p.a, p.b, p.c)
        return tuple(_new(Prototype, (kind, p.D, p.a, p.b, p.c, p.q + k * g)) for k in range(n))


class CuspComplex(_record("CuspComplex", "D curves junctions s1s2_points")):
    """The curves and junctions of D, and the S1.S2 points of square D."""

    __slots__ = ()

    def curve(self, node_id: str) -> CurveNode:
        for node in self.curves:
            if node.id == node_id:
                return node
        raise KeyError(node_id)

    def tau(self, node_id: str) -> str:
        """Image of a curve under the orientation-reversing symmetry."""
        if node_id == "S1":
            return "S2"
        if node_id == "S2":
            return "S1"
        node = self.curve(node_id)
        return _node_id(*t_involution(node.prototype).abcq)

    def to_json(self) -> dict:
        return {
            "D": self.D,
            "curves": [
                {
                    "id": nid,
                    "wcusps": w,
                    "pcusps": pc,
                    "spins": list(spins) if spins is not None else None,
                }
                for nid, _, w, pc, spins in self.curves
            ],
            "junctions": [
                {
                    "a": a,
                    "b": b,
                    "c": c,
                    "q": q,
                    "m": m,
                    "src": src,
                    "dst": dst,
                    "wcusps": w,
                    "pcusps": pc,
                }
                for (_, _, a, b, c, q), m, src, dst, w, pc in self.junctions
            ],
            "s1s2_points": self.s1s2_points,
        }


def build_complex(D: int) -> CuspComplex:
    check_discriminant(D, minimum=5)
    f = _decompose(D)[1] if _spin_applies(D) else None
    protos = _enumerate(D, "Y")
    # Each curve id is formatted once; a junction's dst is its successor's id.
    ids = {}
    for _, _, a, b, c, q in protos:
        if c < 0:
            ids[a, b, c, q] = _node_id(a, b, c, q)
    curves, junctions = [], []
    for p in protos:
        _, _, a, b, c, q = p
        terminal = a + b + c == 0
        g = math.gcd(a, b, c)
        pcusps = math.gcd(a, c) // g if c < 0 else 0
        wcusps = 0 if terminal else pcusps
        src = ids[a, b, c, q] if c < 0 else "S1"
        if c < 0:
            spins = None
            if f is not None:
                # The W fiber over the junction is q + k g for k < wcusps.
                spins = tuple(sorted(_spin(a, b, c, q + k * g, f) for k in range(wcusps)))
            curves.append(_new(CurveNode, (src, p, wcusps, pcusps, spins)))
        if terminal:
            dst = "S2"
        else:
            key = (*_next_triple(a, b, c), q)
            # Only a broken successor map misses; verify reports the dangling edge.
            dst = ids.get(key) or _node_id(*key)
        m = _orbifold_order(a, b, c)
        junctions.append(_new(JunctionEdge, (p, m, src, dst, wcusps, pcusps)))
    s1s2 = None
    if is_square(D):
        s1s2 = euler_phi(math.isqrt(D)) // 2
        chis = _chis(D)
        split = chis["cusps_one_cylinder_spin"]
        one_spins = (0,) * split[0] + (1,) * split[1] if split else None
        curves.append(CurveNode("S1", None, chis["cusps_one_cylinder"], 0, one_spins))
        curves.append(CurveNode("S2", None, 0, 0, None))
    return CuspComplex(D, tuple(curves), tuple(junctions), s1s2)


def export_dot(complex_: CuspComplex) -> str:
    """GraphViz digraph of the cusp complex."""
    lines = [f"digraph boundary_{complex_.D} {{"]
    for node in complex_.curves:
        attrs = []
        if node.wcusps:
            attrs.append(f"wcusps={node.wcusps}")
        if node.pcusps:
            attrs.append(f"pcusps={node.pcusps}")
        if node.spins:
            attrs.append('spin="' + ",".join(str(s) for s in node.spins) + '"')
        tail = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{node.id}"{tail};')
    for edge in complex_.junctions:
        tail = f' [label="m={edge.m}"]' if edge.m > 1 else ""
        lines.append(f'  "{edge.src}" -> "{edge.dst}"{tail};')
    if complex_.s1s2_points:
        lines.append(f'  "S1" -> "S2" [label="points={complex_.s1s2_points}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


class CohClass(_record("CohClass", "D omega1 omega2 b")):
    """a1*omega1 + a2*omega2 plus a formal boundary part."""

    __slots__ = ()


def _ledger_applies(D: int) -> bool:
    """Whether the intersection ledger is defined: D >= 5, and d >= 4 if D = d^2."""
    return D >= 5 and not (is_square(D) and math.isqrt(D) < 4)


# Boundary pairings for nonsquare D: (g1, g2, multiple of chi_X(D), u).  In
# both tables u is the coefficient of the unknown u that the ledger leaves open.
_NONSQUARE_PAIRINGS = (
    ("B", "B", -15, 0),
    ("B0", "B0", Fraction(-15, 2), -1),
    ("B1", "B1", Fraction(-15, 2), -1),
    ("B0", "B1", 0, 1),
)

# Boundary pairings for square D = d^2: (g1, g2, c3, c2, c1, k, u) stands for
# (c3 d^3 + c2 d^2 + c1 d) * s + k * phi(d)/2 with s = mobius_weighted_sum(1, d).
_SQUARE_PAIRINGS = (
    ("S1", "S1", 0, Fraction(-1, 12), 0, 0, 0),
    ("S2", "S2", 0, Fraction(-1, 12), 0, 0, 0),
    ("S1", "S2", 0, 0, Fraction(-1, 2), 1, 0),
    ("S1", "P", 0, Fraction(-5, 24), Fraction(1, 4), 0, 0),
    ("S2", "P", 0, Fraction(-5, 24), Fraction(1, 4), 0, 0),
    ("P", "P", Fraction(-5, 24), Fraction(11, 24), Fraction(-1, 4), 0, 0),
    ("S1", "W", 0, Fraction(-5, 24), Fraction(3, 4), -1, 0),
    ("S2", "W", 0, Fraction(-1, 8), Fraction(1, 4), 0, 0),
    ("P", "W", Fraction(-5, 24), Fraction(2, 3), Fraction(-1, 2), 0, 0),
    ("W", "W", Fraction(-5, 24), Fraction(19, 24), Fraction(-3, 4), 0, 0),
    ("S1", "W0", 0, Fraction(-7, 48), Fraction(3, 16), 0, 0),
    ("S2", "W0", 0, Fraction(-1, 16), Fraction(1, 16), 0, 0),
    ("P", "W0", Fraction(-5, 48), Fraction(11, 48), Fraction(-1, 8), 0, 0),
    ("S1", "W1", 0, Fraction(-1, 16), Fraction(9, 16), -1, 0),
    ("S2", "W1", 0, Fraction(-1, 16), Fraction(3, 16), 0, 0),
    ("P", "W1", Fraction(-5, 48), Fraction(7, 16), Fraction(-3, 8), 0, 0),
    ("W0", "W0", Fraction(-5, 48), Fraction(7, 24), Fraction(-3, 16), 0, -1),
    ("W1", "W1", Fraction(-5, 48), Fraction(1, 2), Fraction(-9, 16), 0, -1),
    ("W0", "W1", 0, 0, 0, 0, 1),
)


@lru_cache(maxsize=1)
def _ledger(D: int):
    """chi_X(D), the classes of D by name, and the pairings of their generators.

    A pairing is keyed by its two boundary generators in either order and
    stored as (const, ucoeff), worth const + ucoeff * u for the unknown u.
    Nonsquare W and P share the generator B (B0 + B1 when W splits); square
    P, S1, S2 and W (W0, W1 when split) each have their own.  The cache holds
    one discriminant: `fundamental_class` and `intersect` ask it many times per D.
    """
    check_discriminant(D, minimum=5)
    if not _ledger_applies(D):
        raise ValueError(f"the intersection ledger needs square D = d^2 with d >= 4, got {D}")
    square, split, d = is_square(D), _spin_applies(D), math.isqrt(D)
    inv = Fraction(1, d) if square else Fraction(0)
    g = "W" if square else "B"
    one = Fraction(1)
    spins = ((g + "0", one),), ((g + "1", one),)
    whole = spins[0] + spins[1] if split else ((g, one),)
    p = Fraction(5, 2) - 3 * inv

    def w_class(weight: Fraction, b: tuple) -> CohClass:
        return CohClass(D, Fraction(3, 4) * weight, Fraction(9, 4) * weight, b)

    classes = {
        "W": w_class(2 - 4 * inv, whole),
        "P": CohClass(D, p, p, (("P", one),) if square else whole),
    }
    if split:
        classes["W0"] = w_class(1 - inv, spins[0])
        classes["W1"] = w_class(1 - 3 * inv, spins[1])
    if square:
        classes["S1"] = CohClass(D, 6 * inv, Fraction(0), (("S1", one),))
        classes["S2"] = CohClass(D, Fraction(0), 6 * inv, (("S2", one),))

    chi = _chis(D)["chi_x"]
    if square:
        s, half_phi = mobius_weighted_sum(1, d), Fraction(euler_phi(d), 2)
        rows = [
            (g1, g2, (c3 * d**3 + c2 * d * d + c1 * d) * s + k * half_phi, u)
            for g1, g2, c3, c2, c1, k, u in _SQUARE_PAIRINGS
        ]
    else:
        rows = [(g1, g2, k * chi, u) for g1, g2, k, u in _NONSQUARE_PAIRINGS]
    gens = {gen for c in classes.values() for gen, _ in c.b}
    pairings = {}
    for g1, g2, const, u in rows:
        if g1 in gens and g2 in gens:
            pairings[g1, g2] = pairings[g2, g1] = (const, Fraction(u))
    return chi, classes, pairings


def fundamental_class(D: int, name: str) -> CohClass:
    """Compactified fundamental class of W, P, W0, W1 or (square D) S1, S2."""
    classes = _ledger(D)[1]
    name = name.upper() if isinstance(name, str) else name
    if not _is_name(name, classes):
        listed = ", ".join(classes)
        raise ValueError(f"no class {name!r} at D={D}; the classes at D={D} are {listed}")
    return classes[name]


def intersect(x: CohClass, y: CohClass):
    """Exact intersection pairing, or UNDETERMINED when not pinned down.

    Both classes must be of one D, and every boundary generator they name
    must be one of that D's; otherwise ValueError.
    """
    if x.D != y.D:
        raise ValueError(f"mixed discriminants {x.D} and {y.D}")
    chi, _, pairings = _ledger(x.D)
    value = (x.omega1 * y.omega2 + x.omega2 * y.omega1) * chi
    ucoeff = Fraction(0)
    for g1, c1 in x.b:
        for g2, c2 in y.b:
            try:
                const, u = pairings[g1, g2]
            except KeyError:
                gens = sorted({g for g, _ in pairings})
                bad = g2 if g1 in gens else g1
                listed = ", ".join(gens)
                raise ValueError(
                    f"no generator {bad!r} at D={x.D}; the generators at D={x.D} are {listed}"
                ) from None
            value += c1 * c2 * const
            ucoeff += c1 * c2 * u
    if ucoeff != 0:
        return UNDETERMINED
    return value
