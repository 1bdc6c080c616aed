"""The Euler table of every regime cell, pinned.

The discriminants cover D = 1 and D = 4 (the two rows below 5), connected
and spin-split nonsquare D, a nonfundamental D (45), and square D = d^2 for
d = 3 (where W does not split), even d and odd d >= 5 (where it does).  For
each D the six chi functions give the pinned value or the pinned
`ValueError`, and `euler_report(D).to_json()` gives the pinned row.
"""

from fractions import Fraction

import pytest

from wcurves import euler

FUNCS = (
    euler.chi_X,
    euler.chi_W,
    euler.chi_W_components,
    euler.chi_P,
    euler.chi_Q,
    euler.chi_S,
)

# Error cells: the message of the ValueError, with D filled in.
BELOW_4 = "invalid discriminant {}: need an integer >= 4 congruent to 0 or 1 mod 4"
BELOW_5 = "invalid discriminant {}: need an integer >= 5 congruent to 0 or 1 mod 4"
CONNECTED = "W is connected for D={}: no spin components"
NOT_SQUARE = "S1 and S2 exist only for square D, got {}"
ERRORS = (BELOW_4, BELOW_5, CONNECTED, NOT_SQUARE)

# D: (chi_X, chi_W, chi_W_components, chi_P, chi_Q, chi_S)
CHIS = {
    1: ("1/36", "0", BELOW_5, BELOW_4, BELOW_4, BELOW_4),
    4: ("1/6", "0", BELOW_5, "-1/6", "-1/6", "-1/2"),
    5: ("1/15", "-3/10", CONNECTED, "-1/6", "-1/3", NOT_SQUARE),
    8: ("1/6", "-3/4", CONNECTED, "-5/12", "-5/6", NOT_SQUARE),
    9: ("1/3", "-1/2", CONNECTED, "-1/2", "-1", "-2/3"),
    12: ("1/3", "-3/2", CONNECTED, "-5/6", "-5/3", NOT_SQUARE),
    16: ("2/3", "-3/2", CONNECTED, "-7/6", "-7/3", "-1"),
    17: ("2/3", "-3", ("-3/2", "-3/2"), "-5/3", "-10/3", NOT_SQUARE),
    25: ("5/3", "-9/2", ("-3", "-3/2"), "-19/6", "-19/3", "-2"),
    36: ("2", "-6", CONNECTED, "-4", "-8", "-2"),
    41: ("8/3", "-12", ("-6", "-6"), "-20/3", "-40/3", NOT_SQUARE),
    45: ("2", "-9", CONNECTED, "-5", "-10", NOT_SQUARE),
    49: ("14/3", "-15", ("-9", "-6"), "-29/3", "-58/3", "-4"),
    64: ("16/3", "-18", CONNECTED, "-34/3", "-68/3", "-4"),
    81: ("9", "-63/2", ("-18", "-27/2"), "-39/2", "-39", "-6"),
    100: ("10", "-36", CONNECTED, "-22", "-44", "-6"),
    121: ("55/3", "-135/2", ("-75/2", "-30"), "-245/6", "-245/3", "-10"),
}

REPORT_KEYS = (
    "D", "D0", "f", "h2", "chi_X", "chi_W",
    "chi_W0", "chi_W1", "chi_P", "chi_Q", "chi_S1", "chi_S2",
    "components", "cusps_two_cyl", "cusps_one_cyl", "cusps_one_cyl_spin0", "cusps_one_cyl_spin1",
)

REPORTS = {
    1: (1, 1, 1, "-1/12", "1/36", "0", None, None, None, None, None, None, 0, 0, 0, None, None),
    4: (4, 1, 2, "-7/12", "1/6", "0", None, None, "-1/6", "-1/6", "-1/2", "-1/2", 0, 0, 0, None, None),
    5: (5, 5, 1, "-2/5", "1/15", "-3/10", None, None, "-1/6", "-1/3", None, None, 1, 1, 0, None, None),
    8: (8, 8, 1, "-1", "1/6", "-3/4", None, None, "-5/12", "-5/6", None, None, 1, 2, 0, None, None),
    9: (9, 1, 3, "-25/12", "1/3", "-1/2", None, None, "-1/2", "-1", "-2/3", "-2/3", 1, 1, None, None, None),
    12: (12, 12, 1, "-2", "1/3", "-3/2", None, None, "-5/6", "-5/3", None, None, 1, 3, 0, None, None),
    16: (16, 1, 4, "-55/12", "2/3", "-3/2", None, None, "-7/6", "-7/3", "-1", "-1", 1, 2, 1, None, None),
    17: (17, 17, 1, "-4", "2/3", "-3", "-3/2", "-3/2", "-5/3", "-10/3", None, None, 2, 6, 0, None, None),
    25: (25, 1, 5, "-121/12", "5/3", "-9/2", "-3", "-3/2", "-19/6", "-19/3", "-2", "-2", 2, 6, 2, 1, 1),
    36: (36, 1, 6, "-175/12", "2", "-6", None, None, "-4", "-8", "-2", "-2", 1, 5, 3, None, None),
    41: (41, 41, 1, "-16", "8/3", "-12", "-6", "-6", "-20/3", "-40/3", None, None, 2, 14, 0, None, None),
    45: (45, 5, 3, "-62/5", "2", "-9", None, None, "-5", "-10", None, None, 1, 8, 0, None, None),
    49: (49, 1, 7, "-337/12", "14/3", "-15", "-9", "-6", "-29/3", "-58/3", "-4", "-4", 2, 13, 5, 2, 3),
    64: (64, 1, 8, "-439/12", "16/3", "-18", None, None, "-34/3", "-68/3", "-4", "-4", 1, 11, 6, None, None),
    81: (81, 1, 9, "-673/12", "9", "-63/2", "-18", "-27/2", "-39/2", "-39", "-6", "-6", 2, 21, 9, 3, 6),
    100: (100, 1, 10, "-847/12", "10", "-36", None, None, "-22", "-44", "-6", "-6", 1, 20, 10, None, None),
    121: (121, 1, 11, "-1321/12", "55/3", "-135/2", "-75/2", "-30", "-245/6", "-245/3", "-10", "-10", 2, 37, 15, 5, 10),
}


@pytest.mark.parametrize("D", sorted(CHIS))
@pytest.mark.parametrize("func", FUNCS, ids=lambda f: f.__name__)
def test_chi_is_pinned(func, D):
    expected = CHIS[D][FUNCS.index(func)]
    if expected in ERRORS:
        with pytest.raises(ValueError) as err:
            func(D)
        assert str(err.value) == expected.format(D)
        return
    got = func(D)
    if isinstance(expected, tuple):
        assert type(got) is tuple
        assert got == tuple(Fraction(x) for x in expected)
        assert all(type(x) is Fraction for x in got)
    else:
        assert type(got) is Fraction
        assert got == Fraction(expected)


@pytest.mark.parametrize("D", sorted(REPORTS))
def test_report_is_pinned(D):
    got = euler.euler_report(D).to_json()
    assert list(got.items()) == list(zip(REPORT_KEYS, REPORTS[D]))
    assert all(type(v) is type(x) for v, x in zip(got.values(), REPORTS[D]))
