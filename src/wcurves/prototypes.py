"""Cusp prototypes of discriminant D and their dynamics.

A prototype is a quadruple (a, b, c, q) of integers with b^2 - 4ac = D,
a > 0, not both c = 0 and a + b + c = 0, and gcd(a, b, c, q) = 1.  Its
kind bounds c and a + b + c from above (the table _BOUNDS) and fixes the
modulus of the residue q:

  kind Y: c <= 0, a + b + c <= 0, q mod gcd(a, b, c).
          Indexes the boundary curves and junctions.
  kind P: c < 0,  a + b + c <= 0, q mod gcd(a, c).
  kind W: c < 0,  a + b + c < 0,  q mod gcd(a, c).

A prototype with a + b + c = 0 is terminal, one with a - b + c = 0 is
initial, one with c = 0 is degenerate; the last two kinds occur only for
square D.  Terminal prototypes of kind Y and P are identified in pairs
(a, b, c, q) ~ (-c, -b, -a, q), degenerate ones of kind Y in pairs
(a, b, 0, q) ~ (-b - a, b, 0, q); the canonical representative is the
lexicographically smaller triple, and enumeration emits canonicals only.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import lru_cache

from .exact import (
    QuadNum,
    _decompose,
    _factor,
    _integer,
    _is_name,
    _json_fields,
    _record,
    check_discriminant,
    euler_phi,
    is_square,
)

__all__ = [
    "Prototype",
    "canonical",
    "enumerate_prototypes",
    "from_splitting_prototype",
    "lambda_of",
    "multiplicity",
    "next_prototype",
    "orbifold_order",
    "orbits",
    "prev_prototype",
    "prototype_from_json",
    "prototype_to_json",
    "spin",
    "t_involution",
    "to_splitting_prototype",
    "y_image",
]

# Each kind's strict upper bounds on c and on a + b + c.
_BOUNDS = {"Y": (1, 1), "P": (0, 1), "W": (0, 0)}
_new = tuple.__new__


def _kind_modulus(kind: str, a: int, b: int, c: int) -> int:
    return math.gcd(a, b, c) if kind == "Y" else math.gcd(a, c)


class Prototype(_record("Prototype", "kind D a b c q")):
    """One cusp prototype (a, b, c, q) of kind Y, W or P.

    The constructor checks every condition of the kind, and `_make` and
    `_replace` build through it.
    """

    __slots__ = ()

    def __new__(cls, kind: str, D: int, a: int, b: int, c: int, q: int = 0):
        if not _is_name(kind, _BOUNDS):
            raise ValueError(f"unknown prototype kind {kind!r}")
        check_discriminant(D)
        self = _new(cls, (kind, D, a, b, c, q))
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable) -> Prototype:
        return cls(*iterable)

    def __post_init__(self):
        kind, D, a, b, c, q = self
        for name, value in zip("abcq", self[2:]):
            _integer(value, "Prototype", name)
        if b * b - 4 * a * c != D:
            raise ValueError(f"({a},{b},{c}) has discriminant {b * b - 4 * a * c}, not {D}")
        c_top, s_top = _BOUNDS[kind]
        s = a + b + c
        if not (a > 0 and c < c_top and s < s_top and (c != 0 or s != 0)):
            raise ValueError(
                f"({a},{b},{c}) is not a kind {kind} triple: it needs a > 0, "
                f"c < {c_top}, a+b+c < {s_top} and not c = a+b+c = 0"
            )
        m = self.modulus
        if not 0 <= q < m:
            raise ValueError(f"residue q={q} outside Z/{m}")
        if math.gcd(a, b, c, q) != 1:
            raise ValueError(f"({a},{b},{c},{q}) violates gcd(a,b,c,q) = 1")

    @property
    def modulus(self) -> int:
        return _kind_modulus(self.kind, self.a, self.b, self.c)

    @property
    def is_terminal(self) -> bool:
        return self.a + self.b + self.c == 0

    @property
    def is_initial(self) -> bool:
        return self.a - self.b + self.c == 0

    @property
    def is_degenerate(self) -> bool:
        return self.c == 0

    @property
    def abcq(self) -> tuple[int, int, int, int]:
        return self[2:]

    def __str__(self) -> str:
        return f"{self.kind}({self.a},{self.b},{self.c},{self.q})"


def _canonical_triple(a: int, b: int, c: int) -> tuple[int, int, int]:
    """The smaller of (a, b, c) and its identified triple; only kind Y has c = 0."""
    if a + b + c == 0:
        return min((a, b, c), (-c, -b, -a))
    if c == 0:
        return min((a, b, c), (-b - a, b, 0))
    return (a, b, c)


def canonical(p: Prototype) -> Prototype:
    """Canonical representative of p under the identification pairing; p if canonical."""
    triple = _canonical_triple(p.a, p.b, p.c)
    return p if triple == (p.a, p.b, p.c) else _new(Prototype, (p.kind, p.D, *triple, p.q))


@lru_cache(maxsize=1)
def _triples(D: int) -> tuple[tuple[int, int, int], ...]:
    """Each (a, b, c) with b^2 - 4ac = D, a > 0, c <= 0 and a + b + c <= 0, once.

    The scan runs over the b with b^2 <= D and b = D (mod 2), the only b
    with 4 | D - b^2, then over the divisors a <= isqrt(t) of
    t = -ac = (D - b^2)/4, giving (a, b, -t//a) before (t//a, b, -a).
    The divisor list of each t is found once, at -b, and kept in a dict
    local to the call for +b, which has the same t.
    For square D = d^2 the degenerate triples (a, -d, 0) have 0 < a < d:
    (d, -d, 0) is both terminal and degenerate, which no kind admits.
    The cache holds one discriminant, so the cusp complex and the three
    kinds of `_enumerate` share one scan; `sv_report` makes none.
    """
    out = []
    divisors = {}
    d = math.isqrt(D)
    for b in range(-d + (d + D) % 2, d + 1, 2):
        t = (D - b * b) // 4  # t = -a*c >= 0
        if t == 0:
            if b < 0:
                out.extend((a, b, 0) for a in range(1, d))
            continue
        divs = divisors.get(t)
        if divs is None:
            divs = divisors[t] = [a for a in range(1, math.isqrt(t) + 1) if t % a == 0]
        for a in divs:
            aa = t // a
            # a <= aa, so (aa, b, -a) has the larger sum a + b + c.
            if a + b <= aa:
                out.append((a, b, -aa))
                if aa != a and aa + b <= a:
                    out.append((aa, b, -a))
    return tuple(out)


# Two entries hold what one euler_report asks for: the pass of D and of its D0.
@lru_cache(maxsize=2)
def _t_sums(D: int) -> tuple[int, int]:
    """(sigma_1 total, W count) of a checked D >= 1, from one pass over t.

    b runs over b >= 0 with b = D (mod 2) and b^2 < D, and each
    t = (D - b^2)/4 > 0 is factored once.  The sigma_1 total is the sum
    of sigma_1(t), each b > 0 counted twice (for +-b): the integer sum
    that `h2` is made from.  The W count is the number of kind W
    prototypes of D.

    The W count equals `len(enumerate_prototypes(D, "W"))`, its oracle.
    A W triple (a, b, c) has the residues q mod m = gcd(a, c) coprime to
    g = gcd(a, b, c) = gcd(m, b), and g divides m, so it has
    h(m) = phi(g) m/g of them.  For t as above, let F(t, b) be the sum
    over a | t of h(gcd(a, t/a)).  F is multiplicative in t; over p^e || t
    it takes the factor sum over i = 0..e of h(p^min(i, e - i)), where
    h(p^k) = p^k if p does not divide b and p^k - p^(k-1) if it does
    (h(1) = 1).  With k = e // 2 and pk = p^k that sum is, in closed form,

                    odd e                   even e
        p | b       2 pk                    pk + pk/p
        p not | b   2 (p pk - 1)/(p - 1)    pk + 2 (pk - 1)/(p - 1)

    so each e = 1 gives 2.  The same p^e gives sigma_1 the factor
    (p^(e+1) - 1)/(p - 1).

    The triples of +b and -b pair off with the ordered factorizations
    (a, t/a), which all carry the same residue count.  For a < t/a and
    b > 0, (a, -b, -t/a) is always W, (t/a, b, -a) never, (a, b, -t/a)
    when t/a - a > b and (t/a, -b, -a) when t/a - a < b; a = t/a gives
    the one W triple (a, -b, -a).  So b > 0 adds F(t, b), less a
    factorization with t/a - a = b, whose triple is terminal.  That
    happens only at square D = d^2, with a = (d - b)/2 and count
    phi(gcd((d - b)/2, b)).  At b = 0 only (a, 0, -t/a) with a < t/a is
    W, so b = 0 adds F(t, 0)/2, less half the count phi(r) of a = t/a = r
    when t = D/4 is a square r^2, that is when D = d^2 and r = d/2.
    """
    d = math.isqrt(D)
    square = d * d == D
    sigma_total = w_count = 0
    for b in range(D % 2, math.isqrt(D - 1) + 1, 2):
        t = (D - b * b) // 4
        s = f = 1
        for p, e in _factor(t):
            if e == 1:
                s *= p + 1
                f *= 2
                continue
            s *= (p ** (e + 1) - 1) // (p - 1)
            k, odd = divmod(e, 2)
            pk = p**k
            if b % p == 0:
                f *= 2 * pk if odd else pk + pk // p
            elif odd:
                f *= 2 * (p * pk - 1) // (p - 1)
            else:
                f *= pk + 2 * (pk - 1) // (p - 1)
        if b == 0:
            sigma_total += s
            w_count += (f - euler_phi(d // 2) if square else f) // 2
        else:
            sigma_total += 2 * s
            w_count += f
            if square:
                w_count -= euler_phi(math.gcd((d - b) // 2, b))
    return sigma_total, w_count


@lru_cache(maxsize=3)
def _enumerate(D: int, kind: str) -> tuple[Prototype, ...]:
    """The canonical prototypes of one kind, sorted, valid by construction.

    Each triple meets the kind's bounds on c and a + b + c, and q runs over
    the residues mod the kind's modulus coprime to gcd(a, b, c).  The
    canonical partner of a terminal or degenerate triple is a listed triple
    of the same kind, so a noncanonical one is skipped and no set is kept.

    The prototypes are bucketed by a, and the buckets are joined in order
    of a, which sorts them with no comparison of tuples.  Inside a bucket
    they are already sorted: the scan lists b in increasing order, a and b
    fix c, the scan gives each triple once, and q increases.
    """
    c_top, s_top = _BOUNDS[kind]
    buckets = defaultdict(list)
    for a, b, c in _triples(D):
        s = a + b + c
        if c < c_top and s < s_top and (s != 0 != c or _canonical_triple(a, b, c) == (a, b, c)):
            m = _kind_modulus(kind, a, b, c)
            if m == 1:
                buckets[a].append(_new(Prototype, (kind, D, a, b, c, 0)))
            else:
                buckets[a] += [
                    _new(Prototype, (kind, D, a, b, c, q))
                    for q in range(m)
                    if math.gcd(a, b, c, q) == 1
                ]
    return tuple([p for a in sorted(buckets) for p in buckets[a]])


def enumerate_prototypes(D: int, kind: str = "W") -> list[Prototype]:
    """All canonical prototypes of the given kind, sorted by (a, b, c, q)."""
    check_discriminant(D)
    kind = kind.upper() if isinstance(kind, str) else kind
    if not _is_name(kind, _BOUNDS):
        raise ValueError(f"unknown prototype kind {kind!r}")
    return list(_enumerate(D, kind))


def lambda_of(p: Prototype) -> QuadNum:
    """The module generator lambda = (-b + sqrt(D)) / (2a)."""
    return QuadNum(p.D, -p.b, 1) / (2 * p.a)


def _require_kind(p: Prototype, kind: str, op: str) -> None:
    if p.kind != kind:
        raise ValueError(f"{op} is defined for kind {kind} prototypes, got kind {p.kind}")


def _next_triple(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Canonical triple of the successor of a nonterminal kind Y triple.

    The successor is already canonical.  Neither branch is degenerate:
    their c are a + b + c < 0 (the triple is nonterminal) and -a < 0.  The
    second branch has sum -(4a + 2b + c) < 0, so it is not terminal.  The
    first has sum 4a + 2b + c, and is terminal when c = -4a - 2b.  Then
    c <= 0 gives 2a + b >= 0, and its partner (3a + b, -2a - b, -a) starts
    with 3a + b > a, or equals it when 2a + b = 0.
    """
    if 4 * a + 2 * b + c <= 0:
        return (a, 2 * a + b, a + b + c)
    return (-a - b - c, -2 * a - b, -a)


def next_prototype(p: Prototype) -> Prototype:
    """Successor junction prototype.  Undefined on terminal prototypes."""
    _require_kind(p, "Y", "next_prototype")
    if p.is_terminal:
        raise ValueError(f"{p} is terminal and has no successor")
    return _new(Prototype, ("Y", p.D, *_next_triple(p.a, p.b, p.c), p.q))


def prev_prototype(p: Prototype) -> Prototype:
    """Predecessor junction prototype.  Undefined on degenerate prototypes.

    The predecessor is already canonical.  The proof uses only the kind Y
    bounds, so it holds for a noncanonical p too.  The first branch has sum
    c < 0, so it is not terminal, and it is degenerate when a - b + c = 0.
    Then c = b - a and a + b + c = 2b <= 0, so a <= a - b = -c: the triple
    (a, b - 2a, 0) is the smaller of its pair (a - b, b - 2a, 0).  The
    second branch has c = -(a - b + c) < 0 and sum -a < 0, so it is
    neither degenerate nor terminal.
    """
    _require_kind(p, "Y", "prev_prototype")
    if p.is_degenerate:
        raise ValueError(f"{p} is degenerate and has no predecessor")
    a, b, c, q = p.abcq
    if a - b + c <= 0:
        return _new(Prototype, ("Y", p.D, a, -2 * a + b, a - b + c, q))
    return _new(Prototype, ("Y", p.D, -c, -b + 2 * c, -a + b - c, q))


def t_involution(p: Prototype) -> Prototype:
    """Orientation-reversing involution.  Undefined on degenerate prototypes.

    The image is already canonical, by the kind Y bounds alone.  Neither
    branch is degenerate: their c are c < 0 and -a < 0.  The second
    branch has sum -(a - b + c) < 0, so it is not terminal.  The first,
    (a, -b, c), is terminal when a - b + c = 0.  Then c = b - a and
    a + b + c = 2b <= 0, so its partner (-c, b, -a) starts with
    a - b >= a, and equals it when b = 0.
    """
    _require_kind(p, "Y", "t_involution")
    if p.is_degenerate:
        raise ValueError(f"t_involution is undefined on the degenerate {p}")
    a, b, c, q = p.abcq
    if a - b + c <= 0:
        return _new(Prototype, ("Y", p.D, a, -b, c, q))
    return _new(Prototype, ("Y", p.D, -c, b, -a, q))


def multiplicity(p: Prototype) -> int:
    """Fiber size gcd(a, c) / gcd(a, b, c) over a nondegenerate junction."""
    _require_kind(p, "Y", "multiplicity")
    if p.is_degenerate:
        raise ValueError(f"multiplicity is undefined on the degenerate {p}")
    return math.gcd(p.a, p.c) // math.gcd(p.a, p.b, p.c)


def _orbifold_order(a: int, b: int, c: int) -> int:
    """Orbifold order of the junction point over the kind Y triple (a, b, c)."""
    g = math.gcd(a, b, c)
    a, b, c = a // g, b // g, c // g
    u = math.gcd(a, c) * math.gcd(a, b + c)
    assert a % u == 0
    return a // u


def orbifold_order(p: Prototype) -> int:
    """Orbifold order of the junction point indexed by p."""
    _require_kind(p, "Y", "orbifold_order")
    return _orbifold_order(p.a, p.b, p.c)


def _spin_applies(D: int) -> bool:
    """Whether W_D splits into two spin components."""
    return D % 8 == 1 and D != 9 and D >= 5


def _spin(a: int, b: int, c: int, q: int, f: int) -> int:
    """Spin of the W prototype (a, b, c, q) of a discriminant with conductor f.

    Spin depends on q only through its parity, and only when a and c are
    both even.  Then b is odd (D is odd), so g = gcd(a, b, c) is odd and
    2g divides gcd(a, c); q -> q + g flips parity on the residues coprime
    to g, so those of a triple, or of its fiber over one junction, split
    evenly between the spins.
    """
    return ((b - f) // 2 + (a + 1) * (q + c + q * c)) % 2


def spin(p: Prototype) -> int:
    """Spin invariant of a kind W prototype, for D = 1 (mod 8), D != 9."""
    _require_kind(p, "W", "spin")
    if not _spin_applies(p.D):
        raise ValueError(
            f"spin needs D = 1 (mod 8) and D != 9, got D={p.D}"
        )
    _, f = _decompose(p.D)  # p's constructor checked D
    return _spin(p.a, p.b, p.c, p.q, f)


def y_image(p: Prototype) -> Prototype:
    """Junction below a kind W or P prototype: same triple, q mod gcd(a,b,c).

    The triple is made Y-canonical: a P prototype built through the public
    constructor may be a noncanonical terminal triple, such as P(2,-1,-1,0)
    of D = 9.
    """
    if p.kind == "Y":
        return p
    a, b, c, q = p.abcq
    return _new(Prototype, ("Y", p.D, *_canonical_triple(a, b, c), q % math.gcd(a, b, c)))


def from_splitting_prototype(a: int, b: int, c: int, e: int) -> Prototype:
    """Kind W prototype (c, e, -b, a mod gcd(c, b)) of a splitting quadruple."""
    for name, value in zip("abce", (a, b, c, e)):
        _integer(value, "from_splitting_prototype", name)
    D = e * e + 4 * b * c
    check_discriminant(D)
    g = math.gcd(c, b)
    if g == 0:
        raise ValueError(f"splitting quadruple ({a},{b},{c},{e}) has b = c = 0")
    p = _new(Prototype, ("W", D, c, e, -b, a % g))
    p.__post_init__()  # D is checked; the field and shape checks remain
    return p


def to_splitting_prototype(p: Prototype) -> tuple[int, int, int, int]:
    """Canonical splitting quadruple (q, -c, a, b) of a kind W prototype."""
    _require_kind(p, "W", "to_splitting_prototype")
    return (p.q, -p.c, p.a, p.b)


def orbits(D: int) -> list[list[Prototype]]:
    """Orbits of the kind Y prototypes under the successor map.

    Nonsquare D gives disjoint cycles, each listed from its smallest
    member.  Square D gives chains from each degenerate prototype to a
    terminal one.  Ordered by smallest member.
    """
    protos = enumerate_prototypes(D, "Y")
    square = is_square(D)
    walks = []
    seen = set()
    for start in protos:
        if start in seen or (square and not start.is_degenerate):
            continue
        walk = [start]
        while not walk[-1].is_terminal:
            nxt = next_prototype(walk[-1])
            if nxt == start:
                break
            walk.append(nxt)
        seen.update(walk)
        walks.append(walk)
    assert seen == set(protos)
    return sorted(walks, key=lambda walk: min(p.abcq for p in walk))


def prototype_to_json(p: Prototype) -> dict:
    return {
        **p._asdict(),
        "modulus": p.modulus,
        "terminal": p.is_terminal,
        "initial": p.is_initial,
        "degenerate": p.is_degenerate,
        "lambda": lambda_of(p).to_json(),
    }


def prototype_from_json(obj: dict) -> Prototype:
    """Rebuild and re-validate a prototype record, coercing nothing.

    Each field present must equal the rebuilt record's, type included.
    """
    p = Prototype(*_json_fields(obj, Prototype._fields, "prototype_from_json"))
    rebuilt = prototype_to_json(p)
    for key, value in obj.items():
        if key not in rebuilt or not _same_json(rebuilt[key], value):
            raise ValueError(f"inconsistent prototype record: field {key!r}")
    return p


def _same_json(x, y) -> bool:
    """x == y with equal types throughout, so 1 matches neither True nor 1.0."""
    if type(x) is not type(y):
        return False
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same_json(x[k], y[k]) for k in x)
    return x == y
