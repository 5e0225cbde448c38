import sqlite3
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from eqmorph.values import (
    CANONICAL_SCALE, TruthValue, format_decimal, format_value, is_numeric,
    kleene_and, kleene_not, kleene_or, parse_rendered, render_literal,
    row_sort_key,
)

T, F, U = TruthValue.TRUE, TruthValue.FALSE, TruthValue.UNKNOWN


class TestKleene:
    def test_not(self):
        assert kleene_not(T) is F
        assert kleene_not(F) is T
        assert kleene_not(U) is U

    def test_and_table(self):
        assert kleene_and(T, T) is T
        assert kleene_and(T, F) is F
        assert kleene_and(F, U) is F
        assert kleene_and(U, F) is F
        assert kleene_and(T, U) is U
        assert kleene_and(U, U) is U

    def test_or_table(self):
        assert kleene_or(F, F) is F
        assert kleene_or(T, U) is T
        assert kleene_or(U, T) is T
        assert kleene_or(F, U) is U
        assert kleene_or(U, U) is U

    def test_against_sqlite(self):
        """Cross-check the three-valued tables against a real engine."""
        con = sqlite3.connect(":memory:")
        cases = {
            "1 AND NULL": U, "0 AND NULL": F, "NULL AND NULL": U,
            "1 OR NULL": T, "0 OR NULL": U, "NOT NULL": U,
        }
        ours = {
            "1 AND NULL": kleene_and(T, U), "0 AND NULL": kleene_and(F, U),
            "NULL AND NULL": kleene_and(U, U), "1 OR NULL": kleene_or(T, U),
            "0 OR NULL": kleene_or(F, U), "NOT NULL": kleene_not(U),
        }
        for expr, expected in cases.items():
            (got,) = con.execute(f"SELECT {expr}").fetchone()
            sqlite_tv = {1: T, 0: F, None: U}[got]
            assert sqlite_tv is expected
            assert ours[expr] is expected


class TestFormatting:
    @pytest.mark.parametrize("d,s", [
        (Decimal("1.500"), "1.5"),
        (Decimal("0.001"), "0.001"),
        (Decimal("-2.25"), "-2.25"),
        (Decimal("10"), "10"),
        (Decimal("0.000"), "0"),
    ])
    def test_format_decimal(self, d, s):
        assert format_decimal(d) == s

    def test_no_exponent_form(self):
        assert "E" not in format_decimal(Decimal("1E+6")).upper()
        assert format_decimal(Decimal("1E+6")) == "1000000"

    def test_format_value(self):
        assert format_value(None) == "NULL"
        assert format_value(7) == "7"
        assert format_value("x") == "x"

    def test_render_literal_quoting(self):
        assert render_literal("it's") == "'it''s'"
        assert render_literal(None) == "NULL"
        assert render_literal(Decimal("0.5")) == "0.5"


class TestParseRendered:
    def test_null(self):
        assert parse_rendered("NULL") is None

    def test_int(self):
        assert parse_rendered("-42") == -42

    def test_decimal_quantized(self):
        a = parse_rendered("0.001")
        b = parse_rendered("0.001000000000000000020816681711721685")
        assert a == b  # sub-scale digits are a rendering concern

    def test_distinct_beyond_scale_preserved_as_text(self):
        # the raw strings still differ; only value parsing folds them
        assert "0.001" != "0.0010000001"
        assert parse_rendered("0.0010000001") != parse_rendered("0.002")

    def test_string_passthrough(self):
        assert parse_rendered("abc") == "abc"

    def test_wide_decimals_keep_every_integer_digit(self):
        wide = "1" * 30 + ".5"
        assert parse_rendered(wide) == Decimal(wide)
        assert parse_rendered(wide + "0000001") == Decimal(wide)
        assert parse_rendered(wide) != parse_rendered("1" * 30 + ".6")
        assert parse_rendered("-" + wide) == Decimal("-" + wide)
        assert parse_rendered("1e400") == parse_rendered("1E+400") \
            == Decimal("1e400")
        assert parse_rendered("1e999999999") == Decimal("1e999999999")
        assert parse_rendered("9.9999999") == 10
        assert parse_rendered("-0.0000001") == 0

    @given(st.integers(min_value=-10**9, max_value=10**9))
    def test_int_roundtrip(self, n):
        assert parse_rendered(format_value(n)) == n

    @given(st.decimals(allow_nan=False, allow_infinity=False,
                       places=CANONICAL_SCALE,
                       min_value=Decimal("-1e6"), max_value=Decimal("1e6")))
    def test_decimal_roundtrip_within_scale(self, d):
        assert parse_rendered(format_value(d)) == d


def test_row_sort_key_total_order():
    rows = [(None,), (1,), ("a",), (Decimal("0.5"),), (2,), (None,)]
    ordered = sorted(rows, key=row_sort_key)
    # NULLs first, then numbers, then strings
    assert ordered[0] == (None,)
    assert ordered[1] == (None,)
    assert ordered[-1] == ("a",)


def test_is_numeric():
    assert is_numeric(1) and is_numeric(Decimal("2.5"))
    assert not is_numeric("1") and not is_numeric(None)
    assert not is_numeric(True)
