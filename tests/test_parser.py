from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from eqmorph import parser
from eqmorph.adapter import BuiltinEndpoint, EngineError
from eqmorph.parser import MAX_PRED_DEPTH, parse, positions, tokenize
from eqmorph.refdb import load_script
from eqmorph.sqlast import (
    AggCall, And, Cmp, ColumnRef, Const, Not, Or, SqlQuery, TruthLit, render,
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


def syntax_error(sql) -> str:
    """The message of the EngineError(SYNTAX) that parsing sql raises."""
    with pytest.raises(EngineError) as exc:
        parse(sql)
    assert exc.value.code == "SYNTAX"
    return exc.value.message


def test_star_only_for_count():
    assert syntax_error("SELECT SUM(*) FROM t") == \
        "star argument is only valid for COUNT, got ')' at position 12"


def test_union_and_union_all():
    q = parse("SELECT a FROM t UNION SELECT b FROM u")
    assert q.set_op[0] == "UNION"
    q = parse("SELECT a FROM t UNION ALL SELECT b FROM u")
    assert q.set_op[0] == "UNION ALL"


def test_chained_set_ops_rejected():
    assert syntax_error(
        "SELECT a FROM t UNION SELECT a FROM t UNION SELECT a FROM t") == \
        "at most one set operation is supported, got 'UNION' at position 38"


def test_having_requires_group_by():
    assert syntax_error("SELECT a FROM t HAVING a > 0") == \
        "HAVING without GROUP BY, got 'HAVING' at position 16"


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


SYNTAX_ERROR_TEXTS = [
    "", "SELECT", "SELECT FROM t", "SELECT a", "SELECT a FROM",
    "SELECT a FROM t WHERE", "SELECT a FROM t GROUP a",
    "SELECT a FROM t extra", "FROM t SELECT a", "SELECT a FROM t WHERE a >",
    "SELECT a FROM t WHERE (a > 1", "SELECT a, FROM t",
]


@pytest.mark.parametrize("bad", SYNTAX_ERROR_TEXTS)
def test_syntax_errors(bad):
    assert syntax_error(bad)


def test_error_carries_position():
    assert syntax_error("SELECT a FROM t WHERE ^") == \
        "unexpected character '^' at position 22"


def test_non_text_is_a_syntax_error():
    assert syntax_error(5) == "input is not a string at position 0"


FIXPOINT_TEXTS = [
    "SELECT DISTINCT t0.a FROM t0 WHERE t0.a > 0",
    "SELECT a, SUM(b) FROM t WHERE b > 1 GROUP BY a HAVING a > 0",
    "SELECT a FROM t UNION ALL SELECT b FROM u",
    "SELECT COUNT(*) FROM t WHERE NOT (a = 1 OR b = 2)",
]


def test_render_parse_fixpoint_examples():
    for sql in FIXPOINT_TEXTS:
        q = parse(sql)
        assert parse(render(q)) == q
        assert render(parse(render(q))) == render(q)


@settings(max_examples=300, deadline=None)
@given(st.text(min_size=0, max_size=60))
def test_parser_total_on_arbitrary_text(text):
    """Arbitrary input either parses or raises EngineError(SYNTAX), never
    anything else."""
    try:
        parse(text)
    except EngineError as e:
        assert e.code == "SYNTAX"


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="SELECT FROMabct01,.*()'<>=!;", min_size=0,
               max_size=40))
def test_parser_total_on_sql_like_text(text):
    try:
        parse(text)
    except EngineError as e:
        assert e.code == "SYNTAX"


def test_tokenize_skips_whitespace_and_positions():
    toks = tokenize("SELECT  a")
    assert [t.kind for t in toks] == ["kw", "ident", "eof"]
    assert positions("SELECT  a", toks)[1] == 8


LEXER_TEXTS = [
    "SELECT t0.c1, COUNT(*) FROM t0 WHERE t0.c1 > 1 GROUP BY t0.c1",
    "select T0.C1 from T0 where t0.c1 = 'a.b' union all select t0.c1 from t0",
    "SELECT select.x, x.from, t0.c1 FROM t0",
    "SELECT Count ( Distinct ) FROM t . c1 WHERE NOT t0.c1 <= -1.5",
]


def _lexed(text):
    tokens = tokenize(text)
    return [(t.kind, t.value, pos)
            for t, pos in zip(tokens, positions(text, tokens))]


def test_lexer_cache_gives_the_cold_tokens(monkeypatch):
    monkeypatch.setattr(parser, "_LEXEMES", {})
    cold = [_lexed(text) for text in LEXER_TEXTS]
    warm = dict(parser._LEXEMES)
    assert [_lexed(text) for text in LEXER_TEXTS] == cold
    # every raw match was a hit the second time: none was classified again
    assert all(parser._LEXEMES[raw] is warm[raw] for raw in warm)
    for text, tokens in zip(LEXER_TEXTS, cold):
        parser._LEXEMES.clear()
        assert _lexed(text) == tokens


def test_warm_cache_still_splits_keyword_names():
    for _ in range(2):
        assert _lexed("select.x") == [
            ("kw", "SELECT", 0), ("punct", ".", 6), ("ident", "x", 7),
            ("eof", None, 8)]
        assert _lexed("  x.From") == [
            ("ident", "x", 2), ("punct", ".", 3), ("kw", "FROM", 4),
            ("eof", None, 8)]


def test_lexer_caches_are_bounded(monkeypatch):
    assert 0 < parser._LEX_CACHE_SIZE <= 4096
    monkeypatch.setattr(parser, "_LEXEMES", {})
    peak = 0
    for n in range(10_000):
        assert parse(f"SELECT a FROM t WHERE a = {n}").where.right == Const(n)
        assert load_script(f"CREATE TABLE t (a INT); "
                           f"INSERT INTO t VALUES ({-n})")["t"].rows == \
            {(-n,): 1}
        peak = max(peak, len(parser._LEXEMES))
    assert peak == parser._LEX_CACHE_SIZE


# A name, a dot and a name lex as one token unless space or a keyword
# splits them; either way the parser sees the same statement.
LEXER_EDGE_PARSES = [
    ("SELECT t0\n.\tc1 FROM t0", SqlQuery((ColumnRef("c1", "t0"),), ("t0",))),
    ("SELECT t0 . c1 FROM t0", SqlQuery((ColumnRef("c1", "t0"),), ("t0",))),
    ("SELECT T0.C1 FROM T0", SqlQuery((ColumnRef("c1", "t0"),), ("t0",))),
    ("SELECT a FROM t  \n\t ", SqlQuery((ColumnRef("a"),), ("t",))),
    ("SELECT a FROM t WHERE t.a>-5",
     SqlQuery((ColumnRef("a"),), ("t",),
              where=Cmp(ColumnRef("a", "t"), ">", Const(-5)))),
]


@pytest.mark.parametrize("sql,ast", LEXER_EDGE_PARSES)
def test_lexer_edge_cases_parse(sql, ast):
    assert parse(sql) == ast


LEXER_EDGE_FAILS = [
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
]


@pytest.mark.parametrize("sql,position,message", LEXER_EDGE_FAILS)
def test_lexer_edge_cases_fail(sql, position, message):
    assert syntax_error(sql) == f"{message} at position {position}"


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


@pytest.mark.parametrize("script,stmt", [
    ("CREATE TABLE t (a INT);\n  DROP  t.a x ;", "DROP  t.a x"),
    ("CREATE TABLE t (a INT); select.x ,  'it''s'  ", "select.x ,  'it''s'"),
    ("SELECT t.a FROM t", "SELECT t.a FROM t"),
])
def test_unsupported_statement_is_named_as_written(script, stmt):
    with pytest.raises(EngineError) as exc:
        load_script(script)
    assert (exc.value.code, exc.value.message) == (
        "SCRIPT", f"unsupported statement: {stmt!r}")


MISSING_OPERATOR = {
    "SELECT a FROM t WHERE a b": "got 'b' at position 24",
    "SELECT a FROM t WHERE a": "got 'end of input' at position 23",
}


@pytest.mark.parametrize("sql", MISSING_OPERATOR)
def test_missing_comparison_expects_every_operator_in_order(sql):
    assert syntax_error(sql) == \
        f"expected comparison operator, {MISSING_OPERATOR[sql]}"


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
        assert "nested deeper than" in syntax_error(
            f"SELECT a FROM t0 {clause} {DEEP[shape](n)}")


@pytest.mark.parametrize("shape", DEEP)
def test_predicate_at_the_bound_runs(shape):
    ep = BuiltinEndpoint()
    ep.reset("CREATE TABLE t0 (a INT); INSERT INTO t0 VALUES (1), (2);")
    pred = DEEP[shape](MAX_PRED_DEPTH)
    assert ep.exec_sql(f"SELECT a FROM t0 WHERE {pred}") == [("1",)]
    assert ep.exec_sql(f"SELECT a FROM t0 GROUP BY a HAVING {pred}") == \
        [("1",)]


# The lexer reads ASCII only: a non-ASCII digit or space is a character no
# token starts with, and fails at its own position; inside a string
# literal any character is kept.
@pytest.mark.parametrize("load,text", [
    (parse, "SELECT a FROM t WHERE a = ٣"),
    (parse, "SELECT a FROM t WHERE a = １２"),
    (parse, "SELECT a FROM t WHERE a = 1٥.5"),
    (parse, "SELECT a　FROM t"),
    (load_script, "CREATE TABLE t (a INT); INSERT INTO t VALUES (٣);"),
])
def test_non_ascii_digits_and_spaces_are_syntax_errors(load, text):
    at = next(i for i, ch in enumerate(text) if not ch.isascii())
    with pytest.raises(EngineError) as exc:
        load(text)
    assert (exc.value.code, exc.value.message) == (
        "SYNTAX", f"unexpected character {text[at]!r} at position {at}")


def test_non_ascii_text_in_a_string_literal_is_kept():
    assert parse("SELECT a FROM t WHERE a = '٣　é'").where.right == \
        Const("٣　é")
