"""CSV cells as ``cli._format_rows`` writes them, against Python's own
``'%.17g' % x`` as the oracle: drawn bit patterns, then the families where
a digit, the point or the exponent is easiest to get wrong."""

import math
import struct
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from ramanls import cli

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def mismatches(values, columns=1, tail="\n"):
    """(value, written, oracle) for every cell that differs, after
    checking that the row structure matches the oracle's."""
    values = np.asarray(values, np.float64)
    table = values[:len(values) // columns * columns].reshape(-1, columns)
    text = cli._format_rows(table, tail)
    rows = [",".join("%.17g" % v for v in row) + tail for row in table.tolist()]
    if text == "".join(rows):
        return []
    written = [cell for line in text.splitlines() for cell in line.split(",")]
    oracle = [cell for line in "".join(rows).splitlines() for cell in line.split(",")]
    assert len(written) == len(oracle), text
    cells = zip(table.ravel().tolist(), written, oracle)
    return [(v, w, o) for v, w, o in cells if w != o]


#: Any finite float64, from all 64 bits; most lie in exponent notation.
raw = st.integers(0, 2 ** 64 - 1).map(bits_to_float).filter(math.isfinite)
#: Bit patterns whose binary exponent lies where '%.17g' writes fixed
#: notation, 2**-15 to 2**57, and a little beyond.
fixed = st.builds(lambda sign, exp, frac: bits_to_float(sign << 63 | exp << 52 | frac),
                  st.integers(0, 1), st.integers(1023 - 16, 1023 + 58),
                  st.integers(0, 2 ** 52 - 1))


@SETTINGS
@given(st.lists(st.one_of(raw, fixed), min_size=1, max_size=64), st.integers(1, 4),
       st.sampled_from(["\n", ",ls-S-k1\n"]))
def test_cells_of_drawn_bit_patterns_match_python(values, columns, tail):
    assert mismatches(values, columns, tail) == []


def test_zeros_subnormals_and_non_finite_cells():
    # -0 must survive: t * Delta at t = 0 is -0.0 whenever Delta < 0.
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
              2.2250738585072014e-308, math.inf, -math.inf, math.nan,
              1.7976931348623157e308, -1.7976931348623157e308]
    assert mismatches(values) == []
    assert cli._format_rows(np.array([[-0.0, 0.0]]), ",x\n") == "-0,0,x\n"


def test_powers_of_ten_and_their_neighbours():
    values = []
    for k in range(-8, 18):
        p = float(f"1e{k}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)]
    values = np.array(values)
    assert mismatches(np.concatenate([values, -values])) == []


def test_notation_switches():
    # Fixed notation holds for decimal exponents -4 to 16 of the rounded
    # value: 1e-5 and 1e17 switch to exponent notation, 1e-4 and 1e16 not.
    edges = [1e-5, 1e-4, 1e16, 1e17]
    values = [np.nextafter(e, d) for e in edges for d in (0.0, math.inf)] + edges
    assert mismatches(values) == []
    assert cli._format_rows(np.array([edges]), "\n") == (
        "1.0000000000000001e-05,0.0001,10000000000000000,1e+17\n")


def test_literals_that_round_up_into_the_next_decade():
    # As decimals these round up to 10**(k + 1); as doubles they land on
    # or next to it.  No double in fixed notation rounds up at 17 digits:
    # the largest one below each decade is at least 8.3 units of the 17th
    # digit short of it, so these pin the cells on both sides of a decade.
    values = []
    for k in range(-6, 19):
        v = float(f"9.99999999999999999e{k}")
        values += [v, np.nextafter(v, 0.0), np.nextafter(v, math.inf)]
    assert mismatches(values) == []


def test_exact_ties_round_half_to_even():
    # j * 2**-e with j odd ends its exact decimal expansion in a 5 at the
    # e-th fraction digit; with j * 5**e of 18 digits, the 17-digit rounding
    # is an exact tie.  Such values lie in fixed notation for e in 2..21.
    rng = np.random.default_rng(17)
    ties = []
    for e in range(2, 22):
        lo, hi = -(-10 ** 17 // 5 ** e), min(10 ** 18 // 5 ** e, 2 ** 53)
        for j in rng.integers(lo, hi, size=200).tolist():
            j |= 1
            if 10 ** 17 <= j * 5 ** e < 10 ** 18:
                ties.append(j / 2 ** e)
    assert len(ties) > 3000
    assert mismatches(ties) == []
    assert mismatches([-t for t in ties]) == []


def test_bulk_draws_in_fixed_notation():
    rng = np.random.default_rng(5)
    values = rng.uniform(-1.0, 1.0, 200_000) * 10.0 ** rng.integers(-7, 19, 200_000)
    assert mismatches(values, columns=5, tail=",exact-new\n") == []


def significant_bits(v: float) -> int:
    """The bits of |v|'s significand from its leading to its trailing one."""
    m = int(math.frexp(abs(v))[0] * 2 ** 53)
    return (m >> ((m & -m).bit_length() - 1)).bit_length() if m else 0


def test_split_halves_carry_26_bits_each_and_sum_exactly():
    # Dekker's two-product is exact only on halves of at most 26 bits.
    # Edge significands set or clear runs of bits on either side of bit
    # 26; the random doubles span the fixed-notation range.
    significands = {2 ** 52 | pattern for pattern in (0x5555555555555, 0xAAAAAAAAAAAAA)}
    for b in range(53):
        significands |= {2 ** 52 + 2 ** b, 2 ** 53 - 2 ** b, 2 ** 52 | (2 ** b - 1),
                         2 ** 53 - 1 - (2 ** b >> 1)}
    rng = np.random.default_rng(26)
    values = np.concatenate([
        [float(m) * 2.0 ** e for m in sorted(significands) for e in (-60, -52, 0)],
        rng.uniform(1.0, 10.0, 20_000) * 10.0 ** rng.integers(-5, 18, 20_000),
        cli._POW10])
    hi, lo = cli._split(values)
    for a, h, l in zip(values.tolist(), hi.tolist(), lo.tolist()):
        assert significant_bits(h) <= 26 and significant_bits(l) <= 26, (a, h, l)
        assert Fraction(h) + Fraction(l) == Fraction(a), a


def test_decade_table_brackets_each_power_of_ten():
    # |x| >= _DECADES[j] must hold exactly when |x| >= 10**(j - 4).
    assert len(cli._DECADES) == 22
    for j, d in enumerate(cli._DECADES.tolist(), start=-4):
        assert Fraction(d) >= Fraction(10) ** j > Fraction(np.nextafter(d, 0.0).item()), j
