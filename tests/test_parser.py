from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from eqmorph import parser
from eqmorph.adapter import BuiltinEndpoint, EngineError
from eqmorph.parser import MAX_PRED_DEPTH, parse, tokenize
from eqmorph.refdb import load_script
from eqmorph.sqlast import (
    CMP_OPS, AggCall, And, Cmp, ColumnRef, Const, Not, Or, SqlQuery,
    SqlSyntaxError, TruthLit, render,
)
from eqmorph.values import TruthValue


def test_basic_select():
    q = parse("SELECT a, b FROM t0")
    assert q.select == (ColumnRef("a"), ColumnRef("b"))
    assert q.from_tables == ("t0",)
    assert not q.distinct and q.where is None


def test_qualified_refs_and_case():
    q = parse("select T0.A from T0")
    assert q.select == (ColumnRef("a", "t0"),)
    assert q.from_tables == ("t0",)


def test_distinct_where_group_having():
    q = parse("SELECT DISTINCT a FROM t WHERE a > 0 GROUP BY a HAVING a < 9")
    assert q.distinct
    assert q.where == Cmp(ColumnRef("a"), ">", Const(0))
    assert q.group_by == (ColumnRef("a"),)
    assert q.having == Cmp(ColumnRef("a"), "<", Const(9))


def test_aggregates():
    q = parse("SELECT COUNT(*), SUM(b), AVG(t.c) FROM t")
    assert q.select[0] == AggCall("COUNT", None)
    assert q.select[1] == AggCall("SUM", ColumnRef("b"))
    assert q.select[2] == AggCall("AVG", ColumnRef("c", "t"))


def test_star_only_for_count():
    with pytest.raises(SqlSyntaxError):
        parse("SELECT SUM(*) FROM t")


def test_union_and_union_all():
    q = parse("SELECT a FROM t UNION SELECT b FROM u")
    assert q.set_op[0] == "UNION"
    q = parse("SELECT a FROM t UNION ALL SELECT b FROM u")
    assert q.set_op[0] == "UNION ALL"


def test_chained_set_ops_rejected():
    with pytest.raises(SqlSyntaxError):
        parse("SELECT a FROM t UNION SELECT a FROM t UNION SELECT a FROM t")


def test_having_requires_group_by():
    with pytest.raises(SqlSyntaxError):
        parse("SELECT a FROM t HAVING a > 0")


def test_predicate_precedence():
    # NOT binds tighter than AND, AND tighter than OR
    q = parse("SELECT a FROM t WHERE NOT a = 1 AND b = 2 OR c = 3")
    assert isinstance(q.where, Or)
    assert isinstance(q.where.left, And)
    assert isinstance(q.where.left.left, Not)


def test_parenthesized_predicates():
    q = parse("SELECT a FROM t WHERE a = 1 AND (b = 2 OR c = 3)")
    assert isinstance(q.where, And)
    assert isinstance(q.where.right, Or)


def test_null_as_truth_literal_vs_comparison():
    q = parse("SELECT a FROM t WHERE NULL")
    assert q.where == TruthLit(TruthValue.UNKNOWN)
    q = parse("SELECT a FROM t WHERE NULL = a")
    assert q.where == Cmp(Const(None), "=", ColumnRef("a"))
    q = parse("SELECT a FROM t WHERE a != NULL")
    assert q.where == Cmp(ColumnRef("a"), "!=", Const(None))


def test_literals():
    q = parse("SELECT a FROM t WHERE a = -3")
    assert q.where.right == Const(-3)
    q = parse("SELECT a FROM t WHERE b = -0.25")
    assert q.where.right == Const(Decimal("-0.25"))
    q = parse("SELECT a FROM t WHERE c = 'it''s'")
    assert q.where.right == Const("it's")


def test_trailing_semicolon_ok():
    assert parse("SELECT a FROM t;") == parse("SELECT a FROM t")


@pytest.mark.parametrize("bad", [
    "", "SELECT", "SELECT FROM t", "SELECT a", "SELECT a FROM",
    "SELECT a FROM t WHERE", "SELECT a FROM t GROUP a",
    "SELECT a FROM t extra", "FROM t SELECT a", "SELECT a FROM t WHERE a >",
    "SELECT a FROM t WHERE (a > 1", "SELECT a, FROM t",
])
def test_syntax_errors(bad):
    with pytest.raises(SqlSyntaxError):
        parse(bad)


def test_error_carries_position():
    try:
        parse("SELECT a FROM t WHERE ^")
    except SqlSyntaxError as e:
        assert e.position == 22
    else:
        pytest.fail("expected a syntax error")


def test_render_parse_fixpoint_examples():
    for sql in [
        "SELECT DISTINCT t0.a FROM t0 WHERE t0.a > 0",
        "SELECT a, SUM(b) FROM t WHERE b > 1 GROUP BY a HAVING a > 0",
        "SELECT a FROM t UNION ALL SELECT b FROM u",
        "SELECT COUNT(*) FROM t WHERE NOT (a = 1 OR b = 2)",
    ]:
        q = parse(sql)
        assert parse(render(q)) == q
        assert render(parse(render(q))) == render(q)


@settings(max_examples=300, deadline=None)
@given(st.text(min_size=0, max_size=60))
def test_parser_total_on_arbitrary_text(text):
    """Arbitrary input either parses or raises SqlSyntaxError, never
    anything else."""
    try:
        parse(text)
    except SqlSyntaxError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="SELECT FROMabct01,.*()'<>=!;", min_size=0,
               max_size=40))
def test_parser_total_on_sql_like_text(text):
    try:
        parse(text)
    except SqlSyntaxError:
        pass


def test_tokenize_skips_whitespace_and_positions():
    toks = tokenize("SELECT  a")
    assert [t.kind for t in toks] == ["kw", "ident", "eof"]
    assert toks[1].pos == 8


LEXER_TEXTS = [
    "SELECT t0.c1, COUNT(*) FROM t0 WHERE t0.c1 > 1 GROUP BY t0.c1",
    "select T0.C1 from T0 where t0.c1 = 'a.b' union all select t0.c1 from t0",
    "SELECT select.x, x.from, t0.c1 FROM t0",
    "SELECT Count ( Distinct ) FROM t . c1 WHERE NOT t0.c1 <= -1.5",
]


def _lexed(text):
    return [(t.kind, t.value, t.pos) for t in tokenize(text)]


def test_lexer_cache_gives_the_cold_tokens():
    parser._classify.cache_clear()
    parser._qualified.cache_clear()
    cold = [_lexed(text) for text in LEXER_TEXTS]
    assert parser._classify.cache_info().hits > 0
    assert parser._qualified.cache_info().hits > 0
    assert [_lexed(text) for text in LEXER_TEXTS] == cold
    for text, tokens in zip(LEXER_TEXTS, cold):
        parser._classify.cache_clear()
        parser._qualified.cache_clear()
        assert _lexed(text) == tokens


def test_warm_cache_still_splits_keyword_names():
    for _ in range(2):
        assert _lexed("select.x") == [
            ("kw", "SELECT", 0), ("punct", ".", 6), ("ident", "x", 7),
            ("eof", None, 8)]
        assert _lexed("  x.From") == [
            ("ident", "x", 2), ("punct", ".", 3), ("kw", "FROM", 4),
            ("eof", None, 8)]


def test_lexer_caches_are_bounded():
    for cached in (parser._classify, parser._qualified):
        assert 0 < cached.cache_info().maxsize <= 4096


# A name, a dot and a name lex as one token unless space or a keyword
# splits them; either way the parser sees the same statement.
@pytest.mark.parametrize("sql,ast", [
    ("SELECT t0\n.\tc1 FROM t0", SqlQuery((ColumnRef("c1", "t0"),), ("t0",))),
    ("SELECT t0 . c1 FROM t0", SqlQuery((ColumnRef("c1", "t0"),), ("t0",))),
    ("SELECT T0.C1 FROM T0", SqlQuery((ColumnRef("c1", "t0"),), ("t0",))),
    ("SELECT a FROM t  \n\t ", SqlQuery((ColumnRef("a"),), ("t",))),
    ("SELECT a FROM t WHERE t.a>-5",
     SqlQuery((ColumnRef("a"),), ("t",),
              where=Cmp(ColumnRef("a", "t"), ">", Const(-5)))),
])
def test_lexer_edge_cases_parse(sql, ast):
    assert parse(sql) == ast


@pytest.mark.parametrize("sql,position,message", [
    ("SELECT t.FROM FROM t", 9, "expected ident, got 'FROM'"),
    ("SELECT FROM.a FROM t", 7, "expected ident, got 'FROM'"),
    ("SELECT t.c.d FROM t", 10, "expected FROM, got '.'"),
    ("SELECT t0.1 FROM t0", 10, "expected ident, got 1"),
    ("SELECT a FROM t WHERE a - 1", 24, "unexpected character '-'"),
    ("SELECT 'abc FROM t", 7, "unexpected character \"'\""),
    ("SELECT a FROM t.x", 15, "trailing input after query, got '.'"),
    ("SELECT a FROM t t.x", 16, "trailing input after query, got 't'"),
    ("SELECT a FROM t WHERE t . a.b = 1", 27,
     "expected comparison operator, got '.'"),
])
def test_lexer_edge_cases_fail(sql, position, message):
    with pytest.raises(SqlSyntaxError) as exc:
        parse(sql)
    assert exc.value.position == position
    assert str(exc.value) == f"{message} at position {position}"


@pytest.mark.parametrize("script,message", [
    ("CREATE TABLE t.x (a INT);", "expected (, got '.'"),
    ("CREATE TABLE t (a.b INT);", "expected ident, got '.'"),
    ("CREATE TABLE t (a int.x);", "expected , or ), got '.'"),
    ("CREATE TABLE t (a INT); INSERT INTO t.q VALUES (1);",
     "expected VALUES, got '.'"),
    ("CREATE TABLE t (a INT); INSERT INTO t VALUES (t.c);",
     "bad literal 't'"),
    ("CREATE TABLE t (a INT) junk here 5;",
     "expected end of statement, got 'junk'"),
    ("CREATE TABLE t0 (c0 INT, ", "expected ident, got 'end of input'"),
    ("CREATE TABLE t0 (c0 INT); INSERT INTO t0 VALUES (",
     "bad literal 'end of input'"),
])
def test_script_loader_sees_qualified_names_as_three_tokens(script, message):
    with pytest.raises(EngineError) as exc:
        load_script(script)
    assert (exc.value.code, exc.value.message) == ("SCRIPT", message)


def test_script_is_lexed_whole_before_any_statement_is_read():
    # the first statement's unknown type is never reached: a character
    # the lexer rejects fails the reset, at its place in the whole script
    script = "CREATE TABLE t (a WIBBLE);\nINSERT INTO t VALUES (1 @ 2);"
    with pytest.raises(EngineError) as exc:
        BuiltinEndpoint().reset(script)
    assert (exc.value.code, exc.value.message) == (
        "SYNTAX", f"unexpected character '@' at position {script.index('@')}")


@pytest.mark.parametrize("sql", ["SELECT a FROM t WHERE a b",
                                 "SELECT a FROM t WHERE a"])
def test_missing_comparison_expects_every_operator_in_order(sql):
    with pytest.raises(SqlSyntaxError) as exc:
        parse(sql)
    assert exc.value.expected == CMP_OPS


# a WHERE predicate n levels deep, in each shape that nests
DEEP = {
    "not": lambda n: "NOT " * n + "a = 1",
    "parens": lambda n: "(" * n + "a = 1" + ")" * n,
    "and": lambda n: " AND ".join(["a = 1"] * (n + 1)),
    "or": lambda n: " OR ".join(["a = 1"] * (n + 1)),
    "mixed": lambda n: ("NOT " * (n % 2) + "NOT (" * (n // 2) + "a = 1"
                        + ")" * (n // 2)),
}


@pytest.mark.parametrize("n", [MAX_PRED_DEPTH + 1, 1000])
@pytest.mark.parametrize("shape", DEEP)
def test_predicate_deeper_than_the_bound_is_a_syntax_error(shape, n):
    for clause in ("WHERE", "GROUP BY a HAVING"):
        with pytest.raises(SqlSyntaxError, match="nested deeper than"):
            parse(f"SELECT a FROM t0 {clause} {DEEP[shape](n)}")


@pytest.mark.parametrize("shape", DEEP)
def test_predicate_at_the_bound_runs(shape):
    ep = BuiltinEndpoint()
    ep.reset("CREATE TABLE t0 (a INT); INSERT INTO t0 VALUES (1), (2);")
    pred = DEEP[shape](MAX_PRED_DEPTH)
    assert ep.exec_sql(f"SELECT a FROM t0 WHERE {pred}") == [("1",)]
    assert ep.exec_sql(f"SELECT a FROM t0 GROUP BY a HAVING {pred}") == \
        [("1",)]
