"""Boundary cusp complex and the intersection ledger.

The boundary of the compactified surface is a union of curves C_P indexed
by nondegenerate kind Y prototypes, plus two extra curves S1 and S2 when
D = d^2 is square.  Curves meet at junction points c_P, one per kind Y
prototype: C_P runs from c_{P^-} to c_P, so c_P joins C_P to C_{P+};
degenerate junctions start on S1 and terminal junctions end on S2.  Kind
W and P prototypes mark cusps on the curve over their junction image.

Cohomology classes are tracked as exact (omega1, omega2) coefficients
plus a formal boundary part.  Pairings of boundary parts that the ledger
does not determine (the spin component self-pairings) evaluate to the
UNDETERMINED sentinel rather than to a fabricated number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .euler import _one_cylinder, chi_X
from .exact import (
    check_discriminant,
    decompose_discriminant,
    euler_phi,
    is_square,
    mobius_weighted_sum,
)
from .prototypes import (
    Prototype,
    _canonical_triple,
    _gcd3,
    _next_triple,
    _spin,
    _spin_applies,
    enumerate_prototypes,
    orbifold_order,
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
    """Singleton for pairings the ledger cannot pin down."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDETERMINED"


UNDETERMINED = _Undetermined()


def _node_id(a: int, b: int, c: int, q: int) -> str:
    return f"C({a},{b},{c},{q})"


@dataclass(frozen=True)
class CurveNode:
    id: str
    prototype: Prototype | None
    wcusps: int | None
    pcusps: int
    spins: tuple[int, ...] | None


@dataclass(frozen=True)
class JunctionEdge:
    prototype: Prototype
    m: int
    src: str
    dst: str
    w_fiber: tuple[Prototype, ...]
    p_fiber: tuple[Prototype, ...]


@dataclass(frozen=True)
class CuspComplex:
    D: int
    curves: tuple[CurveNode, ...]
    junctions: tuple[JunctionEdge, ...]
    s1s2_points: int | None

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
                    "id": n.id,
                    "wcusps": n.wcusps,
                    "pcusps": n.pcusps,
                    "spins": list(n.spins) if n.spins is not None else None,
                }
                for n in self.curves
            ],
            "junctions": [
                {
                    "a": e.prototype.a,
                    "b": e.prototype.b,
                    "c": e.prototype.c,
                    "q": e.prototype.q,
                    "m": e.m,
                    "src": e.src,
                    "dst": e.dst,
                    "wcusps": len(e.w_fiber),
                    "pcusps": len(e.p_fiber),
                }
                for e in self.junctions
            ],
            "s1s2_points": self.s1s2_points,
        }


def build_complex(D: int) -> CuspComplex:
    check_discriminant(D, minimum=5)
    square = is_square(D)
    with_spin = _spin_applies(D)
    ys = enumerate_prototypes(D, "Y")
    # A cusp's key is the quadruple of its y_image, computed without
    # building that Prototype: the Y-canonical triple, q mod gcd(a, b, c).
    w_fiber: dict[tuple, list[Prototype]] = {p.abcq: [] for p in ys}
    p_fiber: dict[tuple, list[Prototype]] = {p.abcq: [] for p in ys}
    for kind, fiber in (("W", w_fiber), ("P", p_fiber)):
        for x in enumerate_prototypes(D, kind):
            a, b, c, q = x.abcq
            fiber[(*_canonical_triple("Y", a, b, c), q % _gcd3(a, b, c))].append(x)

    f = decompose_discriminant(D)[1] if with_spin else None
    curves = []
    junctions = []
    for p in ys:
        a, b, c, q = key = p.abcq
        ws = w_fiber[key]
        if not p.is_degenerate:
            curves.append(
                CurveNode(
                    id=_node_id(*key),
                    prototype=p,
                    wcusps=len(ws),
                    pcusps=len(p_fiber[key]),
                    spins=tuple(sorted(_spin(*w.abcq, f) for w in ws)) if with_spin else None,
                )
            )
        junctions.append(
            JunctionEdge(
                prototype=p,
                m=orbifold_order(p),
                src="S1" if p.is_degenerate else _node_id(*key),
                dst="S2" if p.is_terminal else _node_id(*_next_triple(a, b, c), q),
                w_fiber=tuple(ws),
                p_fiber=tuple(p_fiber[key]),
            )
        )
    s1s2 = None
    if square:
        s1s2 = euler_phi(math.isqrt(D)) // 2
        one_total, split = _one_cylinder(D)
        one_spins = (0,) * split[0] + (1,) * split[1] if split else None
        curves.append(CurveNode("S1", None, one_total, 0, one_spins))
        curves.append(CurveNode("S2", None, 0, 0, None))
    return CuspComplex(
        D=D,
        curves=tuple(curves),
        junctions=tuple(junctions),
        s1s2_points=s1s2,
    )


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


@dataclass(frozen=True)
class CohClass:
    """a1*omega1 + a2*omega2 plus a formal boundary part."""

    D: int
    omega1: Fraction
    omega2: Fraction
    b: tuple[tuple[str, Fraction], ...]


def _ledger_applies(D: int) -> bool:
    """Whether the intersection ledger is defined: D >= 5, and d >= 4 if D = d^2."""
    return D >= 5 and not (is_square(D) and math.isqrt(D) < 4)


def _ledger_regime(D: int) -> str:
    check_discriminant(D, minimum=5)
    if not _ledger_applies(D):
        raise ValueError(
            f"the intersection ledger needs square D = d^2 with d >= 4, got {D}"
        )
    return "square" if is_square(D) else "nonsquare"


_NONSQUARE_NAMES = ("W", "P", "W0", "W1")
_SQUARE_NAMES = ("W", "P", "S1", "S2", "W0", "W1")


def fundamental_class(D: int, name: str) -> CohClass:
    """Compactified fundamental class of W, P, W0, W1 or (square D) S1, S2."""
    regime = _ledger_regime(D)
    name = name.upper()
    split = _spin_applies(D)
    if regime == "nonsquare":
        if name not in _NONSQUARE_NAMES:
            raise ValueError(f"no class {name!r} for nonsquare D")
        if name == "W":
            b = (("B0", Fraction(1)), ("B1", Fraction(1))) if split else (("B", Fraction(1)),)
            return CohClass(D, Fraction(3, 2), Fraction(9, 2), b)
        if name == "P":
            b = (("B0", Fraction(1)), ("B1", Fraction(1))) if split else (("B", Fraction(1)),)
            return CohClass(D, Fraction(5, 2), Fraction(5, 2), b)
        if not split:
            raise ValueError(f"no spin components for D={D}")
        eps = name[1]
        return CohClass(D, Fraction(3, 4), Fraction(9, 4), ((f"B{eps}", Fraction(1)),))
    d = math.isqrt(D)
    if name not in _SQUARE_NAMES:
        raise ValueError(f"no class {name!r} for square D")
    if name == "S1":
        return CohClass(D, Fraction(6, d), Fraction(0), (("S1", Fraction(1)),))
    if name == "S2":
        return CohClass(D, Fraction(0), Fraction(6, d), (("S2", Fraction(1)),))
    if name == "P":
        coeff = Fraction(5, 2) - Fraction(3, d)
        return CohClass(D, coeff, coeff, (("P", Fraction(1)),))
    if name == "W":
        scale = 1 - Fraction(2, d)
        b = (("W0", Fraction(1)), ("W1", Fraction(1))) if split else (("W", Fraction(1)),)
        return CohClass(D, Fraction(3, 2) * scale, Fraction(9, 2) * scale, b)
    if not split:
        raise ValueError(f"no spin components for D={D}")
    if name == "W0":
        scale = 1 - Fraction(1, d)
        return CohClass(D, Fraction(3, 4) * scale, Fraction(9, 4) * scale, (("W0", Fraction(1)),))
    scale = 1 - Fraction(3, d)
    return CohClass(D, Fraction(3, 4) * scale, Fraction(9, 4) * scale, (("W1", Fraction(1)),))


def _gram(D: int) -> dict[tuple[str, str], tuple[Fraction, Fraction]]:
    regime = _ledger_regime(D)
    split = _spin_applies(D)
    x = chi_X(D)
    gram: dict[tuple[str, str], tuple[Fraction, Fraction]] = {}

    def put(g1: str, g2: str, const: Fraction, ucoeff: int = 0) -> None:
        gram[tuple(sorted((g1, g2)))] = (const, Fraction(ucoeff))

    if regime == "nonsquare":
        if split:
            put("B0", "B0", -Fraction(15, 2) * x, -1)
            put("B1", "B1", -Fraction(15, 2) * x, -1)
            put("B0", "B1", Fraction(0), 1)
        else:
            put("B", "B", -15 * x)
        return gram
    d = math.isqrt(D)
    s = mobius_weighted_sum(1, d)
    half_phi = Fraction(euler_phi(d), 2)
    put("S1", "S1", -Fraction(d * d, 12) * s)
    put("S2", "S2", -Fraction(d * d, 12) * s)
    put("S1", "S2", -Fraction(d, 2) * s + half_phi)
    put("S1", "P", (-Fraction(5 * d * d, 24) + Fraction(d, 4)) * s)
    put("S2", "P", (-Fraction(5 * d * d, 24) + Fraction(d, 4)) * s)
    put(
        "P",
        "P",
        (-Fraction(5 * d**3, 24) + Fraction(11 * d * d, 24) - Fraction(d, 4)) * s,
    )
    if not split:
        put("S1", "W", (-Fraction(5 * d * d, 24) + Fraction(3 * d, 4)) * s - half_phi)
        put("S2", "W", (-Fraction(d * d, 8) + Fraction(d, 4)) * s)
        put(
            "P",
            "W",
            (-Fraction(5 * d**3, 24) + Fraction(2 * d * d, 3) - Fraction(d, 2)) * s,
        )
        put(
            "W",
            "W",
            (-Fraction(5 * d**3, 24) + Fraction(19 * d * d, 24) - Fraction(3 * d, 4)) * s,
        )
        return gram
    put("S1", "W0", (-Fraction(7 * d * d, 48) + Fraction(3 * d, 16)) * s)
    put("S2", "W0", (-Fraction(d * d, 16) + Fraction(d, 16)) * s)
    put(
        "P",
        "W0",
        (-Fraction(5 * d**3, 48) + Fraction(11 * d * d, 48) - Fraction(d, 8)) * s,
    )
    put("S1", "W1", (-Fraction(d * d, 16) + Fraction(9 * d, 16)) * s - half_phi)
    put("S2", "W1", (-Fraction(d * d, 16) + Fraction(3 * d, 16)) * s)
    put(
        "P",
        "W1",
        (-Fraction(5 * d**3, 48) + Fraction(7 * d * d, 16) - Fraction(3 * d, 8)) * s,
    )
    w_w0 = (-Fraction(5 * d**3, 48) + Fraction(7 * d * d, 24) - Fraction(3 * d, 16)) * s
    w_w1 = (-Fraction(5 * d**3, 48) + Fraction(d * d, 2) - Fraction(9 * d, 16)) * s
    put("W0", "W0", w_w0, -1)
    put("W1", "W1", w_w1, -1)
    put("W0", "W1", Fraction(0), 1)
    return gram


def intersect(x: CohClass, y: CohClass):
    """Exact intersection pairing, or UNDETERMINED when not pinned down."""
    if x.D != y.D:
        raise ValueError(f"mixed discriminants {x.D} and {y.D}")
    chi = chi_X(x.D)
    value = (x.omega1 * y.omega2 + x.omega2 * y.omega1) * chi
    gram = _gram(x.D)
    ucoeff = Fraction(0)
    for g1, c1 in x.b:
        for g2, c2 in y.b:
            const, u = gram[tuple(sorted((g1, g2)))]
            value += c1 * c2 * const
            ucoeff += c1 * c2 * u
    if ucoeff != 0:
        return UNDETERMINED
    return value
