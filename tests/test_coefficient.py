"""The billiards coefficient in integers: correctly rounded, as mpmath wrote it.

`data/coefficients_mpmath.json` holds [D, digits, text] rows written by
`billiards_coefficient` when it still evaluated pi * c / area with mpmath
1.3 (`nstr(value, digits, strip_zeros=False)` at digits + 15 working
digits). The rows cover D from 5 to about 5*10^4, digits 1 to 200, and
both the fixed (15.) and the exponent (1.e+1) notation. The integer route
must reproduce every row byte for byte, and it must need only the stdlib.
"""

import json
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

import wcurves
from wcurves import siegelveech
from wcurves.exact import QuadNum
from wcurves.siegelveech import _coefficient, _round_pi_times, billiards_coefficient

CAPTURED = defaultdict(list)
for D, digits, text in json.loads(
    (Path(__file__).parent / "data" / "coefficients_mpmath.json").read_text()
):
    CAPTURED[D].append((digits, text))


@pytest.mark.parametrize("D", sorted(CAPTURED))
def test_coefficient_matches_the_captured_mpmath_strings(D):
    for digits, text in CAPTURED[D]:
        assert billiards_coefficient(D, digits) == text, (D, digits)


def _pi_passes(monkeypatch) -> list[int]:
    """Record the precision of each fixed-point pass of _round_pi_times."""
    passes = []
    pi_scaled = siegelveech._pi_scaled

    def counted(P):
        passes.append(P)
        return pi_scaled(P)

    monkeypatch.setattr(siegelveech, "_pi_scaled", counted)
    return passes


@pytest.mark.parametrize("D", [5, 17, 1001, 50017])
def test_widening_from_a_tiny_guard_gives_the_same_rounding(monkeypatch, D):
    v = siegelveech.billiards_constant(D) / siegelveech.unfolding_area(D)
    want = {digits: _round_pi_times(v, digits) for digits in (1, 2, 17, 50)}
    passes = _pi_passes(monkeypatch)
    for digits, rounded in want.items():
        for guard in (2, 1, 0):
            monkeypatch.setattr(siegelveech, "_GUARD", guard)
            passes.clear()
            assert _round_pi_times(v, digits) == rounded, (digits, guard)
        # With no guard digit, A has about digits + 1 digits and the error
        # bound (at least 2) cannot fit a tenth of the rounding unit.
        assert len(passes) > 1 and passes == sorted(set(passes))


# 355/113 > pi, so pi * 339/7100 = 0.15 * pi * 113/355 = 0.1499999872... lies
# just below the half unit 0.15 of one significant digit. Only a precision
# that resolves the seven 9s may round it, and it rounds down.
NEAR_HALF = QuadNum(5, Fraction(339, 7100))
ONE = QuadNum(5, 1)


@pytest.mark.parametrize(
    "digits, text",
    [(1, "0.1"), (2, "0.15"), (7, "0.1500000"), (8, "0.14999999"), (12, "0.149999987263")],
)
def test_a_value_near_a_half_unit_rounds_correctly(digits, text):
    assert _coefficient(NEAR_HALF, ONE, digits) == text


def test_a_remainder_within_the_error_of_a_half_unit_is_widened(monkeypatch):
    passes = _pi_passes(monkeypatch)
    # At 4 and 8 places the remainder is 499 of 1000 and 4999998 of 10^7,
    # within the error bound 2 of the half unit; 16 places decide it.
    monkeypatch.setattr(siegelveech, "_GUARD", 1)
    assert _round_pi_times(NEAR_HALF, 1) == (1, -1)
    assert passes == [2, 4, 8, 16]


@pytest.mark.parametrize(
    "value, digits, text",
    [
        (Fraction(113, 355), 6, "1.00000"),  # 0.99999991... carries into a new exponent
        (Fraction(113, 355), 7, "0.9999999"),
        (Fraction(1, 1000), 5, "0.0031416"),  # min(-(5 // 3), -5) < -3: fixed
        (Fraction(1, 10**6), 17, "3.1415926535897932e-6"),  # -6 < -5 >= min
        (Fraction(1, 10**6), 18, "3.14159265358979324e-6"),  # -6 = min(-6, -5)
        (Fraction(1, 10**7), 1, "3.e-7"),
        (Fraction(10**6), 3, "3.14e+6"),  # 6 >= 3 digits
        (Fraction(10**6), 7, "3141593."),
        (Fraction(10**6), 8, "3141592.7"),
    ],
)
def test_the_notation_follows_nstr(value, digits, text):
    assert _coefficient(QuadNum(5, value), ONE, digits) == text


def test_long_outputs_pass_the_int_to_str_limit():
    """More digits than the interpreter's str(int) limit can convert at once."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = max(limit, 640) + 100
    text = billiards_coefficient(5, digits)
    assert len(text) == digits + 1
    assert text.startswith(CAPTURED[5][-1][1][:150])


def test_importing_the_package_loads_only_the_stdlib():
    """With site-packages off, the package and its CLI import and run."""
    src = str(Path(wcurves.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import wcurves, wcurves.cli;"
        "print(wcurves.billiards_coefficient(17, 20));"
        "print(sorted({m.split('.')[0] for m in sys.modules}"
        " - set(sys.stdlib_module_names) - {'__main__', 'wcurves'}))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, src],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split("\n")
    assert out[0] == billiards_coefficient(17, 20)
    assert out[1] == "[]"
