import pytest

from eqmorph.parser import parse
from eqmorph.sqlast import (
    ColumnRef, InvalidQuery, Schema, SqlQuery, qualify, render, validate,
)

SCHEMA = Schema.of({
    "t0": (("a", "int"), ("b", "dec"), ("c", "str")),
    "t1": (("a", "int"), ("d", "dec")),
})


def errs(sql):
    return [e.kind for e in validate(parse(sql), SCHEMA)]


class TestValidate:
    def test_valid_query_has_no_errors(self):
        assert errs("SELECT a, b FROM t0 WHERE c = 'x'") == []

    def test_unknown_table(self):
        assert "UnknownTable" in errs("SELECT a FROM nope")

    def test_unknown_column(self):
        assert "UnknownColumn" in errs("SELECT zz FROM t0")
        assert "UnknownColumn" in errs("SELECT t0.d FROM t0")

    def test_ambiguous_column(self):
        # "a" lives in both tables
        assert "AmbiguousColumn" in errs("SELECT a FROM t0, t1")

    def test_non_grouped_column(self):
        assert "NonGroupedColumn" in errs("SELECT b FROM t0 GROUP BY a")
        assert "NonGroupedColumn" in errs(
            "SELECT a FROM t0 GROUP BY a HAVING b > 0")

    def test_grouped_multi_table(self):
        assert "GroupedMultiTable" in errs(
            "SELECT t0.b FROM t0, t1 GROUP BY t0.b")
        assert "GroupedMultiTable" in errs("SELECT COUNT(*) FROM t0, t1")

    def test_type_mismatch_comparison(self):
        assert "TypeMismatch" in errs("SELECT a FROM t0 WHERE a = 'x'")
        assert "TypeMismatch" in errs("SELECT a FROM t0 WHERE c < 1")

    def test_null_comparisons_are_type_neutral(self):
        assert errs("SELECT a FROM t0 WHERE a = NULL") == []
        assert errs("SELECT a FROM t0 WHERE c != NULL") == []

    def test_sum_avg_over_string(self):
        assert "TypeMismatch" in errs("SELECT SUM(c) FROM t0")
        assert "TypeMismatch" in errs("SELECT AVG(c) FROM t0")
        assert errs("SELECT MIN(c), MAX(c), COUNT(c) FROM t0") == []

    def test_set_op_arity(self):
        assert "TypeMismatch" in errs(
            "SELECT a, b FROM t0 UNION SELECT a FROM t1")

    def test_set_op_column_types(self):
        assert "TypeMismatch" in errs(
            "SELECT c FROM t0 UNION SELECT a FROM t1")
        assert errs("SELECT b FROM t0 UNION SELECT a FROM t1") == []

    @pytest.mark.parametrize("sql,first", [
        # grouped-column errors of HAVING come before its type errors
        ("SELECT a FROM t0 GROUP BY a HAVING c > 1",
         ("NonGroupedColumn", "c")),
        ("SELECT a FROM t0 GROUP BY a HAVING a > 'x' AND c > 1",
         ("NonGroupedColumn", "c")),
        ("SELECT a FROM t0 GROUP BY a HAVING zz > 0", ("UnknownColumn", "zz")),
        ("SELECT a FROM t0 GROUP BY a HAVING t0.zz > 0",
         ("UnknownColumn", "t0.zz")),
        # a bad operand leaves the set-operand check out
        ("SELECT a FROM t0 UNION SELECT zz FROM t1", ("UnknownColumn", "zz")),
        ("SELECT zz, a FROM t0 WHERE a = 'x'", ("UnknownColumn", "zz")),
    ])
    def test_first_error_and_no_repeats(self, sql, first):
        found = [(e.kind, e.detail) for e in validate(parse(sql), SCHEMA)]
        assert found[0] == first
        assert len(found) == len(set(found)), found
        with pytest.raises(InvalidQuery) as exc:
            qualify(parse(sql), SCHEMA)
        assert [(e.kind, e.detail) for e in exc.value.errors] == found


class TestQualify:
    def test_adds_tables_everywhere(self):
        q = qualify(parse("SELECT b FROM t0 WHERE b > 0 GROUP BY b"), SCHEMA)
        assert q.select == (ColumnRef("b", "t0"),)
        assert q.where.left == ColumnRef("b", "t0")
        assert q.group_by == (ColumnRef("b", "t0"),)

    def test_invalid_raises(self):
        with pytest.raises(InvalidQuery):
            qualify(parse("SELECT zz FROM t0"), SCHEMA)

    def test_idempotent(self):
        q = qualify(parse("SELECT b FROM t0 WHERE b > 0"), SCHEMA)
        assert qualify(q, SCHEMA) == q


class TestRender:
    @pytest.mark.parametrize("sql", [
        "SELECT a FROM t0",
        "SELECT DISTINCT a, b FROM t0 WHERE a > 0 AND b < 1",
        "SELECT a FROM t0 WHERE a = 1 AND (a = 2 OR a = 3)",
        "SELECT a FROM t0 WHERE NOT (a = 1 AND a = 2)",
        "SELECT a, COUNT(*) FROM t0 GROUP BY a HAVING a > 0",
        "SELECT a FROM t0 UNION ALL SELECT a FROM t1",
        "SELECT a FROM t0 WHERE c = 'it''s'",
    ])
    def test_fixpoint(self, sql):
        q = parse(sql)
        assert parse(render(q)) == q

    def test_parens_only_where_needed(self):
        q = parse("SELECT a FROM t0 WHERE a = 1 OR a = 2 AND a = 3")
        assert render(q) == "SELECT a FROM t0 WHERE a = 1 OR a = 2 AND a = 3"


class TestSqlQueryInvariants:
    def test_empty_select_rejected(self):
        with pytest.raises(ValueError):
            SqlQuery((), ("t0",))

    def test_having_requires_group_by(self):
        from eqmorph.sqlast import Cmp, Const
        with pytest.raises(ValueError):
            SqlQuery((ColumnRef("a"),), ("t0",),
                     having=Cmp(ColumnRef("a"), "=", Const(1)))


def test_schema_duplicate_table_rejected():
    with pytest.raises(ValueError):
        Schema((("t", (("a", "int"),)), ("t", (("b", "int"),))))


def test_schema_lookups():
    assert SCHEMA.col_type("t0", "b") == "dec"
    assert SCHEMA.has_column("t1", "d")
    assert not SCHEMA.has_column("t1", "b")
    assert SCHEMA.table_names() == ("t0", "t1")
    assert SCHEMA.columns("t1") == (("a", "int"), ("d", "dec"))
    # an unknown table
    assert not SCHEMA.has_table("t9")
    assert not SCHEMA.has_column("t9", "a")
    with pytest.raises(KeyError):
        SCHEMA.columns("t9")
    # an unknown column
    with pytest.raises(KeyError):
        SCHEMA.col_type("t1", "b")
    # equality and hashing ignore the lookups made
    fresh = Schema(SCHEMA.tables)
    assert fresh == SCHEMA and hash(fresh) == hash(SCHEMA)
    assert {fresh: 1}[SCHEMA] == 1
    assert Schema(SCHEMA.tables[:1]) != SCHEMA
