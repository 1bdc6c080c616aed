"""Slow reference enumeration of prototypes, kept independent on purpose.

The main enumerator scans b and factors (D - b^2)/4; this one scans the
(a, c) grid and tests b^2 = D + 4ac for squareness, then applies the
definitions directly.  One grid scan per D, cached for the last D, serves
all three kinds.  The verify command and the test suite compare the two
on exact output.  D and the kind are checked at entry by `exact`'s rules.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

from .exact import _is_name, check_discriminant

__all__ = ["reference_tuples"]


def _valid(kind: str, a: int, b: int, c: int) -> bool:
    if a <= 0:
        return False
    s = a + b + c
    if kind == "Y":
        return c <= 0 and s <= 0 and not (s == 0 and c == 0)
    if kind == "P":
        return c < 0 and s <= 0
    return c < 0 and s < 0  # kind W


def _partner(kind: str, t: tuple[int, int, int]) -> tuple[int, int, int]:
    a, b, c = t
    if a + b + c == 0:
        return (-c, -b, -a)
    if kind == "Y" and c == 0:
        return (-b - a, b, 0)
    return t


@lru_cache(maxsize=1)
def _grid(D: int) -> tuple[tuple[int, int, int], ...]:
    """Each (a, b, c) with a > 0, c <= 0 and b^2 - 4ac = D, from the (a, c) grid.

    The scan knows no kind, so one miss serves all three kinds of one D.
    """
    out = []
    amax = max(D // 4, isqrt(D)) + 1
    for a in range(1, amax + 1):
        for negc in range(0, D // (4 * a) + 1):
            c = -negc
            bb = D + 4 * a * c
            r = isqrt(bb)
            if r * r == bb:
                out.extend((a, b, c) for b in sorted({r, -r}))
    return tuple(out)


def reference_tuples(D: int, kind: str) -> list[tuple[int, int, int, int]]:
    """Sorted canonical (a, b, c, q) tuples of the given kind."""
    check_discriminant(D)
    kind = kind.upper() if isinstance(kind, str) else kind
    if not _is_name(kind, ("Y", "P", "W")):
        raise ValueError(f"unknown kind {kind!r}")
    out = set()
    for a, b, c in _grid(D):
        if not _valid(kind, a, b, c):
            continue
        g = gcd(a, b, c)
        modulus = g if kind == "Y" else gcd(a, c)
        # a triple and its partner share g and modulus, so their residues too
        best = min((a, b, c), _partner(kind, (a, b, c)))
        out.update(best + (q,) for q in range(modulus) if gcd(g, q) == 1)
    return sorted(out)
