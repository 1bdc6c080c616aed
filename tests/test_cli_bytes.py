"""Exact CLI output, pinned byte for byte.

The cases cover the sv formats where W splits (D = 17) and where it
does not (D = 13, and D = 50020 with a long exact constant), an
undefined one-cylinder count (D = 9), the spin split of the
one-cylinder cusps (D = 81), the boundary text format, the boundary
text, dot and json formats at large D (D = 20001 and 45141, by digest),
the hseries text and json formats, and the verify report (per-D lines,
the aligned tally table and the summary line) over D = 1..12, where the
boundary and sv suites stop early.  The euler and sv commands share one
renderer, and the boundary complex takes its one-cylinder data from
`euler`, so these strings hold the output of those shared paths fixed.
"""

import hashlib

import pytest

from wcurves.cli import main

SV_17_TEXT = """\
D = 17
c = 221/24
c0 = 221/24 + 1/8*sqrt(17)
c1 = 221/24 - 1/8*sqrt(17)
billiards = 221/24 - 1/8*sqrt(17)
area = 17/8 + 1/8*sqrt(17)
coefficient = 10.34305960
"""

SV_17_CSV = """\
D,c,c0,c1,billiards,area,coefficient
17,221/24,221/24 + 1/8*sqrt(17),221/24 - 1/8*sqrt(17),221/24 - 1/8*sqrt(17),17/8 + 1/8*sqrt(17),10.34305960
"""

SV_17_JSON = """\
{
  "D": 17,
  "c": "221/24",
  "c0": "221/24 + 1/8*sqrt(17)",
  "c1": "221/24 - 1/8*sqrt(17)",
  "billiards": "221/24 - 1/8*sqrt(17)",
  "area": "17/8 + 1/8*sqrt(17)",
  "coefficient": "10.34305960"
}
"""

SV_13_TEXT = """\
D = 13
c = 91/9
c0 = -
c1 = -
billiards = 91/9
area = 13/6 + 1/6*sqrt(13)
coefficient = 11.47748432
"""

SV_13_CSV = """\
D,c,c0,c1,billiards,area,coefficient
13,91/9,,,91/9,13/6 + 1/6*sqrt(13),11.47748432
"""

SV_13_JSON = """\
{
  "D": 13,
  "c": "91/9",
  "c0": null,
  "c1": null,
  "billiards": "91/9",
  "area": "13/6 + 1/6*sqrt(13)",
  "coefficient": "11.47748432"
}
"""

# c and billiards of D = 50020: a 187-digit numerator over a 186-digit denominator.
C_50020 = (
    "1544450368653290772381617150824435712326860649375051086930990278"
    "7281000043610195605279260582881641822889904560397119708753657549"
    "82405497970728587778581728247929045182412060578032575517329"
    "/1549360707097753195213607976430148206546429067136429247852884553"
    "9089060549504200456972006163172638646229105213745901285151772414"
    "0085206759792288137471154892728172143757329498026915472855"
)

SV_50020_TEXT = f"""\
D = 50020
c = {C_50020}
c0 = -
c1 = -
billiards = {C_50020}
area = 2
coefficient = 15.658180531388352628
"""

EULER_9_TEXT = """\
D = 9
D0 = 1
f = 3
h2 = -25/12
chi_X = 1/3
chi_W = -1/2
chi_W0 = -
chi_W1 = -
chi_P = -1/2
chi_Q = -1
chi_S1 = -2/3
chi_S2 = -2/3
components = 1
cusps_two_cyl = 1
cusps_one_cyl = -
cusps_one_cyl_spin0 = -
cusps_one_cyl_spin1 = -
"""

EULER_9_CSV = """\
D,D0,f,h2,chi_X,chi_W,chi_W0,chi_W1,chi_P,chi_Q,chi_S1,chi_S2,components,cusps_two_cyl,cusps_one_cyl,cusps_one_cyl_spin0,cusps_one_cyl_spin1
9,1,3,-25/12,1/3,-1/2,,,-1/2,-1,-2/3,-2/3,1,1,,,
"""

EULER_81_TEXT = """\
D = 81
D0 = 1
f = 9
h2 = -673/12
chi_X = 9
chi_W = -63/2
chi_W0 = -18
chi_W1 = -27/2
chi_P = -39/2
chi_Q = -39
chi_S1 = -6
chi_S2 = -6
components = 2
cusps_two_cyl = 21
cusps_one_cyl = 9
cusps_one_cyl_spin0 = 3
cusps_one_cyl_spin1 = 6
"""

EULER_81_CSV = """\
D,D0,f,h2,chi_X,chi_W,chi_W0,chi_W1,chi_P,chi_Q,chi_S1,chi_S2,components,cusps_two_cyl,cusps_one_cyl,cusps_one_cyl_spin0,cusps_one_cyl_spin1
81,1,9,-673/12,9,-63/2,-18,-27/2,-39/2,-39,-6,-6,2,21,9,3,6
"""

BOUNDARY_9_TEXT = """\
boundary complex for D = 9
curves:
  C(1,-1,-2,0): wcusps=1 pcusps=1 spins=-
  C(1,1,-2,0): wcusps=0 pcusps=1 spins=-
  S1: wcusps=- pcusps=0 spins=-
  S2: wcusps=0 pcusps=0 spins=-
junctions:
  c(1,-3,0,0): m=1 S1 -> C(1,-1,-2,0) wcusps=0 pcusps=0
  c(1,-1,-2,0): m=1 C(1,-1,-2,0) -> C(1,1,-2,0) wcusps=1 pcusps=1
  c(1,1,-2,0): m=1 C(1,1,-2,0) -> S2 wcusps=0 pcusps=1
s1s2_points: 1
"""

BOUNDARY_49_TEXT = """\
boundary complex for D = 49
curves:
  C(1,-5,-6,0): wcusps=1 pcusps=1 spins=0
  C(1,-3,-10,0): wcusps=1 pcusps=1 spins=1
  C(1,-1,-12,0): wcusps=1 pcusps=1 spins=0
  C(1,1,-12,0): wcusps=1 pcusps=1 spins=1
  C(1,3,-10,0): wcusps=1 pcusps=1 spins=0
  C(1,5,-6,0): wcusps=0 pcusps=1 spins=-
  C(2,-5,-3,0): wcusps=1 pcusps=1 spins=1
  C(2,-3,-5,0): wcusps=1 pcusps=1 spins=0
  C(2,-1,-6,0): wcusps=2 pcusps=2 spins=0,1
  C(2,1,-6,0): wcusps=2 pcusps=2 spins=0,1
  C(2,3,-5,0): wcusps=0 pcusps=1 spins=-
  C(3,-5,-2,0): wcusps=1 pcusps=1 spins=0
  C(3,-1,-4,0): wcusps=1 pcusps=1 spins=0
  C(3,1,-4,0): wcusps=0 pcusps=1 spins=-
  S1: wcusps=5 pcusps=0 spins=0,0,1,1,1
  S2: wcusps=0 pcusps=0 spins=-
junctions:
  c(1,-7,0,0): m=1 S1 -> C(1,-5,-6,0) wcusps=0 pcusps=0
  c(1,-5,-6,0): m=1 C(1,-5,-6,0) -> C(1,-3,-10,0) wcusps=1 pcusps=1
  c(1,-3,-10,0): m=1 C(1,-3,-10,0) -> C(1,-1,-12,0) wcusps=1 pcusps=1
  c(1,-1,-12,0): m=1 C(1,-1,-12,0) -> C(1,1,-12,0) wcusps=1 pcusps=1
  c(1,1,-12,0): m=1 C(1,1,-12,0) -> C(1,3,-10,0) wcusps=1 pcusps=1
  c(1,3,-10,0): m=1 C(1,3,-10,0) -> C(1,5,-6,0) wcusps=1 pcusps=1
  c(1,5,-6,0): m=1 C(1,5,-6,0) -> S2 wcusps=0 pcusps=1
  c(2,-7,0,0): m=1 S1 -> C(2,-3,-5,0) wcusps=0 pcusps=0
  c(2,-5,-3,0): m=1 C(2,-5,-3,0) -> C(2,-1,-6,0) wcusps=1 pcusps=1
  c(2,-3,-5,0): m=1 C(2,-3,-5,0) -> C(2,1,-6,0) wcusps=1 pcusps=1
  c(2,-1,-6,0): m=1 C(2,-1,-6,0) -> C(2,3,-5,0) wcusps=2 pcusps=2
  c(2,1,-6,0): m=1 C(2,1,-6,0) -> C(3,-5,-2,0) wcusps=2 pcusps=2
  c(2,3,-5,0): m=1 C(2,3,-5,0) -> S2 wcusps=0 pcusps=1
  c(3,-7,0,0): m=1 S1 -> C(3,-1,-4,0) wcusps=0 pcusps=0
  c(3,-5,-2,0): m=3 C(3,-5,-2,0) -> C(3,1,-4,0) wcusps=1 pcusps=1
  c(3,-1,-4,0): m=3 C(3,-1,-4,0) -> C(2,-5,-3,0) wcusps=1 pcusps=1
  c(3,1,-4,0): m=1 C(3,1,-4,0) -> S2 wcusps=0 pcusps=1
s1s2_points: 3
"""

HSERIES_16_TEXT = """\
h2(0) = -1/120
h2(1) = -1/12
h2(4) = -7/12
h2(5) = -2/5
h2(8) = -1
h2(9) = -25/12
h2(12) = -2
h2(13) = -2
h2(16) = -55/12
"""

HSERIES_16_JSON = """\
[
  {
    "D": 0,
    "h2": "-1/120"
  },
  {
    "D": 1,
    "h2": "-1/12"
  },
  {
    "D": 4,
    "h2": "-7/12"
  },
  {
    "D": 5,
    "h2": "-2/5"
  },
  {
    "D": 8,
    "h2": "-1"
  },
  {
    "D": 9,
    "h2": "-25/12"
  },
  {
    "D": 12,
    "h2": "-2"
  },
  {
    "D": 13,
    "h2": "-2"
  },
  {
    "D": 16,
    "h2": "-55/12"
  }
]
"""

VERIFY_1_12 = """\
D=1: 9 checks, ok
D=4: 19 checks, ok
D=5: 39 checks, ok
D=8: 53 checks, ok
D=9: 36 checks, ok
D=12: 67 checks, ok

boundary_multiplicity    3
canonical_P              6
canonical_W              6
canonical_Y              6
complex_edges_closed     4
complex_p_total          4
complex_w_total          4
components_vs_split      6
degenerate_fiber         2
enumeration_P            6
enumeration_W            6
enumeration_Y            6
euler_chi_additivity     4
euler_cusp_counts        6
euler_euler_ratio        3
euler_h2_sigma3          3
euler_h_sum_chi_w        3
euler_h_sum_chi_x        3
euler_q_doubles_p        4
euler_rm_route           5
lambda_next              6
lambda_norm              6
lambda_prev              6
ledger_p_squared         3
ledger_w_dot_p           3
ledger_w_squared         3
multiplicity_positive    9
next_of_prev             9
next_permutes            3
orbifold_order_positive  11
orbits_cover             6
p_fiber_size             7
prev_of_next             9
splitting_round_trip     7
sv_positive              3
sv_rational              3
t_involutive             9
t_next_is_prev_t         7
tau_closed               8
terminal_fiber           2
v_positive               6
w_fiber_size             7

verified 6 discriminants: 223 checks passed, 0 failed
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        ("sv --d 17 --digits 10", SV_17_TEXT),
        ("sv --d 17 --digits 10 --format csv", SV_17_CSV),
        ("sv --d 17 --digits 10 --format json", SV_17_JSON),
        ("sv --d 13 --digits 10", SV_13_TEXT),
        ("sv --d 13 --digits 10 --format csv", SV_13_CSV),
        ("sv --d 13 --digits 10 --format json", SV_13_JSON),
        ("sv --d 50020 --digits 20", SV_50020_TEXT),
        ("euler --d 9", EULER_9_TEXT),
        ("euler --d 9 --format csv", EULER_9_CSV),
        ("euler --d 81", EULER_81_TEXT),
        ("euler --d 81 --format csv", EULER_81_CSV),
        ("boundary --d 9", BOUNDARY_9_TEXT),
        ("boundary --d 49", BOUNDARY_49_TEXT),
        ("hseries --dmax 16 --format text", HSERIES_16_TEXT),
        ("hseries --dmax 16 --format json", HSERIES_16_JSON),
        ("verify --dmin 1 --dmax 12", VERIFY_1_12),
    ],
)
def test_output_is_pinned(capsys, argv, expected):
    assert main(argv.split()) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


# sha256 of the stdout of each command, recorded before h2 and the W cusp
# count were summed in one pass over t = (D - b^2)/4.
SWEEP_DIGESTS = {
    "euler --dmin 1 --dmax 3000 --format csv":
        "2f9e3ea49cc7ceac6012aaff7880e39da348020abdc6371b79a8a0fbf28b4787",
    "hseries --dmax 5000 --format csv":
        "14cca5d9ba1337f572ad9a80cc27c92e2f7a74cf3d02b1eb4e06f5c0c21d8880",
    # recorded while QuadNum text still went through Fraction
    "sv --dmin 5 --dmax 3000 --format csv":
        "3c5d11efe66807841ac1adfe6963b00d5c91d044e1bb710c47c2f8e0a635a8aa",
    # recorded while scalar QuadNum division had its own product formula
    "prototypes --d 20001 --kind y --format json":
        "3d5891ee31d989ce4ba5464f8d7f18489bbaf80c3e343ee0b1f6d1322f1c9514",
}


@pytest.mark.parametrize("argv", list(SWEEP_DIGESTS))
def test_sweep_output_is_pinned(capsys, argv):
    assert main(argv.split()) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == SWEEP_DIGESTS[argv]
    assert captured.err == ""


# sha256 of the stdout of each command, recorded before `build_complex`
# formatted each curve id once and shared it with the junctions.
BOUNDARY_DIGESTS = {
    "boundary --d 20001":
        "c2b9f0904df9225f0d4baa8eb2a7eea1f355a97c2d9fe701d7ca6f7f9cccfb7f",
    "boundary --d 20001 --format dot":
        "896adfc08b5b52e1f8658102217a5d14f547750c3f7a81cd8373f6e5d709a00f",
    "boundary --d 45141 --format json":
        "59762485bbe764771fd4b48586ac332ab9b6d2d9dc0546ef93de08c8f733c698",
}


@pytest.mark.parametrize("argv", list(BOUNDARY_DIGESTS))
def test_large_d_boundary_is_pinned(capsys, argv):
    assert main(argv.split()) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == BOUNDARY_DIGESTS[argv]
    assert captured.err == ""
