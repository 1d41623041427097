"""Exact rationals: the 64-bit guard, predicates, rendering, parsing, no floats."""

from __future__ import annotations

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fanolink
from fanolink.rational import (
    INT64_LIMIT,
    RationalOverflowError,
    as_integer,
    audit_magnitude,
    parse_rational,
    render_exact,
    render_table,
)

from conftest import over_common_denominator

# A half and a quarter inside the 64-bit contract but beyond a float's
# 53-bit mantissa.
_LARGE_HALF = Fraction(2**60 + 1, 2)
_LARGE_QUARTER = Fraction(-(2**61) - 3, 4)


class TestConstruction:
    def test_audit_magnitude_passes_at_boundary(self):
        assert audit_magnitude(INT64_LIMIT - 1) == INT64_LIMIT - 1
        assert audit_magnitude(-INT64_LIMIT) == -INT64_LIMIT

    def test_audit_magnitude_rejects_beyond_boundary(self):
        with pytest.raises(RationalOverflowError):
            audit_magnitude(INT64_LIMIT)
        with pytest.raises(RationalOverflowError):
            audit_magnitude(Fraction(1, INT64_LIMIT))


class TestPredicates:
    def test_as_integer_accepts_integral_values(self):
        assert as_integer(5) == 5
        assert as_integer(Fraction(10, 2)) == 5

    def test_as_integer_rejects_proper_fraction(self):
        with pytest.raises(ValueError, match="not an integer"):
            as_integer(Fraction(1, 2))


class TestRendering:
    def test_render_exact_integer_forms(self):
        assert render_exact(47) == "47"
        assert render_exact(Fraction(8, 2)) == "4"

    def test_render_exact_fraction_form(self):
        assert render_exact(Fraction(5, 2)) == "5/2"
        assert render_exact(Fraction(-1, 3)) == "-1/3"

    def test_render_table_halves_one_decimal(self):
        assert render_table(Fraction(5, 2)) == "2.5"
        assert render_table(Fraction(-1, 2)) == "-0.5"
        assert render_table(_LARGE_HALF) == "576460752303423488.5"

    def test_render_table_quarters_two_decimals(self):
        assert render_table(Fraction(-1, 4)) == "-0.25"
        assert render_table(Fraction(3, 4)) == "0.75"
        assert render_table(_LARGE_QUARTER) == "-576460752303423488.75"

    def test_render_table_other_denominators_stay_exact(self):
        assert render_table(Fraction(11, 3)) == "11/3"
        assert render_table(Fraction(-1, 3)) == "-1/3"

    def test_render_table_integers(self):
        assert render_table(4) == "4"
        assert render_table(Fraction(-6, 3)) == "-2"


class TestParsing:
    def test_parse_integer(self):
        assert parse_rational("47") == 47

    def test_parse_fraction(self):
        assert parse_rational("-1/3") == Fraction(-1, 3)

    def test_parse_decimal_exactly(self):
        assert parse_rational("0.5") == Fraction(1, 2)
        assert parse_rational("-0.25") == Fraction(-1, 4)

    def test_parse_strips_whitespace(self):
        assert parse_rational("  5/2 ") == Fraction(5, 2)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("one half")

    def test_parse_rejects_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_rational("1/0")

    def test_parse_audits_magnitude(self):
        with pytest.raises(RationalOverflowError):
            parse_rational(str(2**70))


_rationals = st.fractions(
    min_value=Fraction(-(10**9)), max_value=Fraction(10**9), max_denominator=10**6
)


@given(_rationals)
def test_render_exact_parse_round_trip(q):
    assert parse_rational(render_exact(q)) == q


@given(_rationals)
@example(_LARGE_HALF)
@example(_LARGE_QUARTER)
def test_render_table_parse_round_trip(q):
    # The decimal spellings for denominators 2 and 4 are exact.
    assert parse_rational(render_table(q)) == q


@given(st.one_of(st.integers(min_value=-(10**9), max_value=10**9), _rationals), _rationals)
def test_over_common_denominator(x, y):
    m, n, d = over_common_denominator(x, y)
    assert (Fraction(m, d), Fraction(n, d)) == (x, y)
    assert d == math.lcm(Fraction(x).denominator, Fraction(y).denominator)


def test_no_float_literal_or_float_name_in_the_package():
    """The no-floats contract, read statically off every module of the package.

    A float (or complex) literal, any use of the name ``float``, or any
    true division ``/`` (an int over an int is a float) fails, except the
    golden loader's path join; text in strings and comments does not count.
    """
    found = []
    for path in sorted(Path(fanolink.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{path.name}:{node.lineno}: name float")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                if (path.name, ast.unparse(node)) != ("golden.py", "Path(data_dir) / name"):
                    found.append(f"{path.name}:{node.lineno}: true division {ast.unparse(node)}")
    assert found == []
