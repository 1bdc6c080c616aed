"""The intersection ledger pinned in all four regime cells.

Nonsquare connected (8, 12, 13), nonsquare split (17, 41), square
connected (16, 36, 100) and square split (25, 49, 81, 121, 225).  Each
class is pinned as (omega1, omega2, b) and each pairing by value, or as
UNDETERMINED where the spin boundary classes meet.
"""

from fractions import Fraction as F

import pytest

from wcurves.boundary import (
    _NONSQUARE_PAIRINGS,
    _SQUARE_PAIRINGS,
    UNDETERMINED,
    fundamental_class,
    intersect,
)

U = UNDETERMINED
NAMES = ("W", "P", "W0", "W1", "S1", "S2")

CLASSES = {
    8: {
        "W": (F(3, 2), F(9, 2), (("B", F(1)),)),
        "P": (F(5, 2), F(5, 2), (("B", F(1)),)),
    },
    12: {
        "W": (F(3, 2), F(9, 2), (("B", F(1)),)),
        "P": (F(5, 2), F(5, 2), (("B", F(1)),)),
    },
    13: {
        "W": (F(3, 2), F(9, 2), (("B", F(1)),)),
        "P": (F(5, 2), F(5, 2), (("B", F(1)),)),
    },
    17: {
        "W": (F(3, 2), F(9, 2), (("B0", F(1)), ("B1", F(1)))),
        "P": (F(5, 2), F(5, 2), (("B0", F(1)), ("B1", F(1)))),
        "W0": (F(3, 4), F(9, 4), (("B0", F(1)),)),
        "W1": (F(3, 4), F(9, 4), (("B1", F(1)),)),
    },
    41: {
        "W": (F(3, 2), F(9, 2), (("B0", F(1)), ("B1", F(1)))),
        "P": (F(5, 2), F(5, 2), (("B0", F(1)), ("B1", F(1)))),
        "W0": (F(3, 4), F(9, 4), (("B0", F(1)),)),
        "W1": (F(3, 4), F(9, 4), (("B1", F(1)),)),
    },
    16: {
        "W": (F(3, 4), F(9, 4), (("W", F(1)),)),
        "P": (F(7, 4), F(7, 4), (("P", F(1)),)),
        "S1": (F(3, 2), F(0), (("S1", F(1)),)),
        "S2": (F(0), F(3, 2), (("S2", F(1)),)),
    },
    36: {
        "W": (F(1), F(3), (("W", F(1)),)),
        "P": (F(2), F(2), (("P", F(1)),)),
        "S1": (F(1), F(0), (("S1", F(1)),)),
        "S2": (F(0), F(1), (("S2", F(1)),)),
    },
    100: {
        "W": (F(6, 5), F(18, 5), (("W", F(1)),)),
        "P": (F(11, 5), F(11, 5), (("P", F(1)),)),
        "S1": (F(3, 5), F(0), (("S1", F(1)),)),
        "S2": (F(0), F(3, 5), (("S2", F(1)),)),
    },
    25: {
        "W": (F(9, 10), F(27, 10), (("W0", F(1)), ("W1", F(1)))),
        "P": (F(19, 10), F(19, 10), (("P", F(1)),)),
        "W0": (F(3, 5), F(9, 5), (("W0", F(1)),)),
        "W1": (F(3, 10), F(9, 10), (("W1", F(1)),)),
        "S1": (F(6, 5), F(0), (("S1", F(1)),)),
        "S2": (F(0), F(6, 5), (("S2", F(1)),)),
    },
    49: {
        "W": (F(15, 14), F(45, 14), (("W0", F(1)), ("W1", F(1)))),
        "P": (F(29, 14), F(29, 14), (("P", F(1)),)),
        "W0": (F(9, 14), F(27, 14), (("W0", F(1)),)),
        "W1": (F(3, 7), F(9, 7), (("W1", F(1)),)),
        "S1": (F(6, 7), F(0), (("S1", F(1)),)),
        "S2": (F(0), F(6, 7), (("S2", F(1)),)),
    },
    81: {
        "W": (F(7, 6), F(7, 2), (("W0", F(1)), ("W1", F(1)))),
        "P": (F(13, 6), F(13, 6), (("P", F(1)),)),
        "W0": (F(2, 3), F(2), (("W0", F(1)),)),
        "W1": (F(1, 2), F(3, 2), (("W1", F(1)),)),
        "S1": (F(2, 3), F(0), (("S1", F(1)),)),
        "S2": (F(0), F(2, 3), (("S2", F(1)),)),
    },
    121: {
        "W": (F(27, 22), F(81, 22), (("W0", F(1)), ("W1", F(1)))),
        "P": (F(49, 22), F(49, 22), (("P", F(1)),)),
        "W0": (F(15, 22), F(45, 22), (("W0", F(1)),)),
        "W1": (F(6, 11), F(18, 11), (("W1", F(1)),)),
        "S1": (F(6, 11), F(0), (("S1", F(1)),)),
        "S2": (F(0), F(6, 11), (("S2", F(1)),)),
    },
    225: {
        "W": (F(13, 10), F(39, 10), (("W0", F(1)), ("W1", F(1)))),
        "P": (F(23, 10), F(23, 10), (("P", F(1)),)),
        "W0": (F(7, 10), F(21, 10), (("W0", F(1)),)),
        "W1": (F(3, 5), F(9, 5), (("W1", F(1)),)),
        "S1": (F(2, 5), F(0), (("S1", F(1)),)),
        "S2": (F(0), F(2, 5), (("S2", F(1)),)),
    },
}

PAIRINGS = {
    8: {
        ("W", "W"): F(-1, 4),
        ("W", "P"): F(0),
        ("P", "P"): F(-5, 12),
    },
    12: {
        ("W", "W"): F(-1, 2),
        ("W", "P"): F(0),
        ("P", "P"): F(-5, 6),
    },
    13: {
        ("W", "W"): F(-1, 2),
        ("W", "P"): F(0),
        ("P", "P"): F(-5, 6),
    },
    17: {
        ("W", "W"): F(-1),
        ("W", "P"): F(0),
        ("W", "W0"): F(-1, 2),
        ("W", "W1"): F(-1, 2),
        ("P", "P"): F(-5, 3),
        ("P", "W0"): F(0),
        ("P", "W1"): F(0),
        ("W0", "W0"): U,
        ("W0", "W1"): U,
        ("W1", "W1"): U,
    },
    41: {
        ("W", "W"): F(-4),
        ("W", "P"): F(0),
        ("W", "W0"): F(-2),
        ("W", "W1"): F(-2),
        ("P", "P"): F(-20, 3),
        ("P", "W0"): F(0),
        ("P", "W1"): F(0),
        ("W0", "W0"): U,
        ("W0", "W1"): U,
        ("W1", "W1"): U,
    },
    16: {
        ("W", "W"): F(-1, 2),
        ("W", "P"): F(0),
        ("W", "S1"): F(1),
        ("W", "S2"): F(0),
        ("P", "P"): F(-7, 6),
        ("P", "S1"): F(0),
        ("P", "S2"): F(0),
        ("S1", "S1"): F(-1),
        ("S1", "S2"): F(1),
        ("S2", "S2"): F(-1),
    },
    36: {
        ("W", "W"): F(-2),
        ("W", "P"): F(0),
        ("W", "S1"): F(3),
        ("W", "S2"): F(0),
        ("P", "P"): F(-4),
        ("P", "S1"): F(0),
        ("P", "S2"): F(0),
        ("S1", "S1"): F(-2),
        ("S1", "S2"): F(1),
        ("S2", "S2"): F(-2),
    },
    100: {
        ("W", "W"): F(-12),
        ("W", "P"): F(0),
        ("W", "S1"): F(10),
        ("W", "S2"): F(0),
        ("P", "P"): F(-22),
        ("P", "S1"): F(0),
        ("P", "S2"): F(0),
        ("S1", "S1"): F(-6),
        ("S1", "S2"): F(2),
        ("S2", "S2"): F(-6),
    },
    25: {
        ("W", "W"): F(-3, 2),
        ("W", "P"): F(0),
        ("W", "W0"): F(-1),
        ("W", "W1"): F(-1, 2),
        ("W", "S1"): F(2),
        ("W", "S2"): F(0),
        ("P", "P"): F(-19, 6),
        ("P", "W0"): F(0),
        ("P", "W1"): F(0),
        ("P", "S1"): F(0),
        ("P", "S2"): F(0),
        ("W0", "W0"): U,
        ("W0", "W1"): U,
        ("W0", "S1"): F(1),
        ("W0", "S2"): F(0),
        ("W1", "W1"): U,
        ("W1", "S1"): F(1),
        ("W1", "S2"): F(0),
        ("S1", "S1"): F(-2),
        ("S1", "S2"): F(2),
        ("S2", "S2"): F(-2),
    },
    49: {
        ("W", "W"): F(-5),
        ("W", "P"): F(0),
        ("W", "W0"): F(-3),
        ("W", "W1"): F(-2),
        ("W", "S1"): F(5),
        ("W", "S2"): F(0),
        ("P", "P"): F(-29, 3),
        ("P", "W0"): F(0),
        ("P", "W1"): F(0),
        ("P", "S1"): F(0),
        ("P", "S2"): F(0),
        ("W0", "W0"): U,
        ("W0", "W1"): U,
        ("W0", "S1"): F(2),
        ("W0", "S2"): F(0),
        ("W1", "W1"): U,
        ("W1", "S1"): F(3),
        ("W1", "S2"): F(0),
        ("S1", "S1"): F(-4),
        ("S1", "S2"): F(3),
        ("S2", "S2"): F(-4),
    },
    81: {
        ("W", "W"): F(-21, 2),
        ("W", "P"): F(0),
        ("W", "W0"): F(-6),
        ("W", "W1"): F(-9, 2),
        ("W", "S1"): F(9),
        ("W", "S2"): F(0),
        ("P", "P"): F(-39, 2),
        ("P", "W0"): F(0),
        ("P", "W1"): F(0),
        ("P", "S1"): F(0),
        ("P", "S2"): F(0),
        ("W0", "W0"): U,
        ("W0", "W1"): U,
        ("W0", "S1"): F(3),
        ("W0", "S2"): F(0),
        ("W1", "W1"): U,
        ("W1", "S1"): F(6),
        ("W1", "S2"): F(0),
        ("S1", "S1"): F(-6),
        ("S1", "S2"): F(3),
        ("S2", "S2"): F(-6),
    },
    121: {
        ("W", "W"): F(-45, 2),
        ("W", "P"): F(0),
        ("W", "W0"): F(-25, 2),
        ("W", "W1"): F(-10),
        ("W", "S1"): F(15),
        ("W", "S2"): F(0),
        ("P", "P"): F(-245, 6),
        ("P", "W0"): F(0),
        ("P", "W1"): F(0),
        ("P", "S1"): F(0),
        ("P", "S2"): F(0),
        ("W0", "W0"): U,
        ("W0", "W1"): U,
        ("W0", "S1"): F(5),
        ("W0", "S2"): F(0),
        ("W1", "W1"): U,
        ("W1", "S1"): F(10),
        ("W1", "S2"): F(0),
        ("S1", "S1"): F(-10),
        ("S1", "S2"): F(5),
        ("S2", "S2"): F(-10),
    },
    225: {
        ("W", "W"): F(-52),
        ("W", "P"): F(0),
        ("W", "W0"): F(-28),
        ("W", "W1"): F(-24),
        ("W", "S1"): F(28),
        ("W", "S2"): F(0),
        ("P", "P"): F(-92),
        ("P", "W0"): F(0),
        ("P", "W1"): F(0),
        ("P", "S1"): F(0),
        ("P", "S2"): F(0),
        ("W0", "W0"): U,
        ("W0", "W1"): U,
        ("W0", "S1"): F(8),
        ("W0", "S2"): F(0),
        ("W1", "W1"): U,
        ("W1", "S1"): F(20),
        ("W1", "S2"): F(0),
        ("S1", "S1"): F(-16),
        ("S1", "S2"): F(4),
        ("S2", "S2"): F(-16),
    },
}


def _classes(D):
    return {name: fundamental_class(D, name) for name in CLASSES[D]}


def _assert_pinned(D):
    classes = _classes(D)
    for name, (omega1, omega2, b) in CLASSES[D].items():
        c = classes[name]
        assert c.D == D
        assert (c.omega1, c.omega2, c.b) == (omega1, omega2, b)
        assert type(c.omega1) is F and type(c.omega2) is F
        assert all(type(k) is F for _, k in c.b)
    for (n1, n2), expected in PAIRINGS[D].items():
        for x, y in ((n1, n2), (n2, n1)):
            value = intersect(classes[x], classes[y])
            if expected is U:
                assert value is UNDETERMINED, (D, x, y)
            else:
                assert type(value) is F and value == expected, (D, x, y)


@pytest.mark.parametrize("D", sorted(CLASSES))
def test_ledger_pinned(D):
    names = list(CLASSES[D])
    assert len(PAIRINGS[D]) == len(names) * (len(names) + 1) // 2
    _assert_pinned(D)


@pytest.mark.parametrize("D", sorted(CLASSES))
def test_lowercase_names_resolve(D):
    for name in CLASSES[D]:
        assert fundamental_class(D, name.lower()) == fundamental_class(D, name)


@pytest.mark.parametrize("D", sorted(CLASSES))
def test_absent_names_raise(D):
    for name in [n for n in NAMES if n not in CLASSES[D]] + ["Z", "B"]:
        with pytest.raises(ValueError):
            fundamental_class(D, name)


@pytest.mark.parametrize("D", sorted(CLASSES))
def test_absent_name_message_names_d(D):
    absent = [n for n in NAMES if n not in CLASSES[D]] + ["Z"]
    for name in absent:
        with pytest.raises(ValueError) as info:
            fundamental_class(D, name)
        message = str(info.value)
        assert repr(name) in message and f"D={D}" in message
        assert message.endswith(" are " + ", ".join(CLASSES[D]))


@pytest.mark.parametrize("D", [4, 9])
def test_below_the_ledger_floor(D):
    for name in NAMES:
        with pytest.raises(ValueError):
            fundamental_class(D, name)


def test_interleaved_discriminants_match_cold_calls():
    for D in (17, 49, 17, 12, 225, 17, 8, 49):
        _assert_pinned(D)
    # Classes taken before another D's ledger is built still pair correctly.
    first = _classes(17)
    _classes(225)
    assert intersect(first["W"], first["W0"]) == PAIRINGS[17]["W", "W0"]
    assert intersect(first["W0"], first["W1"]) is UNDETERMINED
    w49, w16 = fundamental_class(49, "W"), fundamental_class(16, "W")
    assert intersect(w49, w49) == PAIRINGS[49]["W", "W"]
    assert intersect(w16, w16) == PAIRINGS[16]["W", "W"]
    # A cached D does not let an equal non-integer through.
    with pytest.raises(ValueError):
        fundamental_class(16.0, "W")


def _sum_rows(table, *pairs):
    """The coefficient-wise sum of the rows of table named by pairs."""
    rows = {(g1, g2): coefficients for g1, g2, *coefficients in table}
    return [sum(column) for column in zip(*(rows[pair] for pair in pairs))]


def test_undivided_rows_are_sums_of_spin_rows():
    # W = W0 + W1 at square D and B = B0 + B1 at nonsquare D, so each row
    # of the undivided generator is the sum of its spin rows, u included.
    sq, ns = _SQUARE_PAIRINGS, _NONSQUARE_PAIRINGS
    for g in ("S1", "S2", "P"):
        assert _sum_rows(sq, (g, "W")) == _sum_rows(sq, (g, "W0"), (g, "W1")), g
    spins = (("W0", "W0"), ("W0", "W1"), ("W0", "W1"), ("W1", "W1"))
    assert _sum_rows(sq, ("W", "W")) == _sum_rows(sq, *spins)
    spins = (("B0", "B0"), ("B0", "B1"), ("B0", "B1"), ("B1", "B1"))
    assert _sum_rows(ns, ("B", "B")) == _sum_rows(ns, *spins)
