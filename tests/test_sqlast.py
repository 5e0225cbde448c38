import random
from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from eqmorph import sqlast
from eqmorph.algebra import lower, surface_candidates
from eqmorph.harness import (
    generate_database, generate_schema, generate_seed, value_hints_of,
)
from eqmorph.parser import MAX_PRED_DEPTH, parse
from eqmorph.sqlast import (
    CMP_OPS, UNION_ALL, And, ColumnRef, Cmp, Const, EngineError, Not, Or,
    Schema, SqlQuery, TruthLit, qualify, render, validate,
)
from eqmorph.transform import NoRuleApplies, TransformContext, transform_query
from eqmorph.values import TruthValue
from test_parser import DEEP, FIXPOINT_TEXTS, LEXER_EDGE_PARSES

SCHEMA = Schema.of({
    "t0": (("a", "int"), ("b", "dec"), ("c", "str")),
    "t1": (("a", "int"), ("d", "dec")),
})


def errs(sql):
    return [e.code for e in validate(parse(sql), SCHEMA)]


class TestValidate:
    def test_valid_query_has_no_errors(self):
        assert errs("SELECT a, b FROM t0 WHERE c = 'x'") == []

    def test_unknown_table(self):
        assert "UNKNOWN_TABLE" in errs("SELECT a FROM nope")

    def test_unknown_column(self):
        assert "UNKNOWN_COLUMN" in errs("SELECT zz FROM t0")
        assert "UNKNOWN_COLUMN" in errs("SELECT t0.d FROM t0")

    def test_ambiguous_column(self):
        # "a" lives in both tables
        assert "UNKNOWN_COLUMN" in errs("SELECT a FROM t0, t1")

    def test_non_grouped_column(self):
        assert "NON_GROUPED_COLUMN" in errs("SELECT b FROM t0 GROUP BY a")
        assert "NON_GROUPED_COLUMN" in errs(
            "SELECT a FROM t0 GROUP BY a HAVING b > 0")

    def test_grouped_multi_table(self):
        assert "NON_GROUPED_COLUMN" in errs(
            "SELECT t0.b FROM t0, t1 GROUP BY t0.b")
        assert "NON_GROUPED_COLUMN" in errs("SELECT COUNT(*) FROM t0, t1")

    def test_type_mismatch_comparison(self):
        assert "TYPE_MISMATCH" in errs("SELECT a FROM t0 WHERE a = 'x'")
        assert "TYPE_MISMATCH" in errs("SELECT a FROM t0 WHERE c < 1")

    def test_null_comparisons_are_type_neutral(self):
        assert errs("SELECT a FROM t0 WHERE a = NULL") == []
        assert errs("SELECT a FROM t0 WHERE c != NULL") == []

    def test_sum_avg_over_string(self):
        assert "TYPE_MISMATCH" in errs("SELECT SUM(c) FROM t0")
        assert "TYPE_MISMATCH" in errs("SELECT AVG(c) FROM t0")
        assert errs("SELECT MIN(c), MAX(c), COUNT(c) FROM t0") == []

    def test_set_op_arity(self):
        assert "TYPE_MISMATCH" in errs(
            "SELECT a, b FROM t0 UNION SELECT a FROM t1")

    def test_set_op_column_types(self):
        assert "TYPE_MISMATCH" in errs(
            "SELECT c FROM t0 UNION SELECT a FROM t1")
        assert errs("SELECT b FROM t0 UNION SELECT a FROM t1") == []

    @pytest.mark.parametrize("sql,first", [
        # grouped-column errors of HAVING come before its type errors
        ("SELECT a FROM t0 GROUP BY a HAVING c > 1",
         ("NON_GROUPED_COLUMN", "c")),
        ("SELECT a FROM t0 GROUP BY a HAVING a > 'x' AND c > 1",
         ("NON_GROUPED_COLUMN", "c")),
        ("SELECT a FROM t0 GROUP BY a HAVING zz > 0",
         ("UNKNOWN_COLUMN", "zz")),
        ("SELECT a FROM t0 GROUP BY a HAVING t0.zz > 0",
         ("UNKNOWN_COLUMN", "t0.zz")),
        # a bad operand leaves the set-operand check out
        ("SELECT a FROM t0 UNION SELECT zz FROM t1",
         ("UNKNOWN_COLUMN", "zz")),
        ("SELECT zz, a FROM t0 WHERE a = 'x'", ("UNKNOWN_COLUMN", "zz")),
    ])
    def test_first_error_and_no_repeats(self, sql, first):
        found = [(e.code, e.message) for e in validate(parse(sql), SCHEMA)]
        assert found[0] == first
        assert len(found) == len(set(found)), found
        # qualify raises the first error validate finds
        with pytest.raises(EngineError) as exc:
            qualify(parse(sql), SCHEMA)
        assert (exc.value.code, exc.value.message) == first


class TestQualify:
    def test_adds_tables_everywhere(self):
        q = qualify(parse("SELECT b FROM t0 WHERE b > 0 GROUP BY b"), SCHEMA)
        assert q.select == (ColumnRef("b", "t0"),)
        assert q.where.left == ColumnRef("b", "t0")
        assert q.group_by == (ColumnRef("b", "t0"),)

    def test_invalid_raises(self):
        with pytest.raises(EngineError) as exc:
            qualify(parse("SELECT zz FROM t0"), SCHEMA)
        assert (exc.value.code, exc.value.message) == ("UNKNOWN_COLUMN", "zz")

    def test_idempotent(self):
        q = qualify(parse("SELECT b FROM t0 WHERE b > 0"), SCHEMA)
        assert qualify(q, SCHEMA) == q


class TestQualifySharing:
    """qualify rebuilds only the nodes whose refs it qualifies."""

    def test_qualified_queries_come_back_as_themselves(self):
        rng = random.Random("qualify-sharing")
        for _ in range(6):
            schema = generate_schema(rng)
            for _ in range(50):
                q = generate_seed(rng, schema)
                assert qualify(q, schema) is q
                parsed = parse(render(q))
                assert qualify(parsed, schema) is parsed

    def test_unqualified_refs_rebuild_only_their_path(self):
        schema = Schema.of({"t": (("a", "int"),)})
        q = parse("SELECT a FROM t WHERE a > 1 AND 'x' = 'x'")
        out = qualify(q, schema)
        a = ColumnRef("a", "t")
        assert out == SqlQuery((a,), ("t",), where=And(
            Cmp(a, ">", Const(1)), Cmp(Const("x"), "=", Const("x"))))
        assert out.where.right is q.where.right
        assert out.where.left.right is q.where.left.right
        assert out.from_tables is q.from_tables

    def test_set_operands_are_shared_apart(self):
        schema = Schema.of({"t": (("a", "int"),)})
        left_done = parse("SELECT t.a FROM t UNION SELECT a FROM t")
        out = qualify(left_done, schema)
        assert out == parse("SELECT t.a FROM t UNION SELECT t.a FROM t")
        assert out.select is left_done.select
        right_done = parse("SELECT a FROM t UNION ALL SELECT t.a FROM t")
        out = qualify(right_done, schema)
        assert out == parse("SELECT t.a FROM t UNION ALL SELECT t.a FROM t")
        assert out.set_op is right_done.set_op


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


class TestKeptText:
    """A query keeps its rendered text; the text is not part of its
    value."""

    SQL = ("SELECT a, COUNT(*) FROM t0 WHERE b > 0 AND NOT c = 'q' "
           "GROUP BY a HAVING a >= 1 UNION SELECT a, COUNT(*) FROM t1 "
           "WHERE a < 5 OR d = 1 GROUP BY a")

    def test_second_render_renders_no_predicate(self, monkeypatch):
        rendered = []
        real = sqlast.render_pred
        monkeypatch.setattr(
            sqlast, "render_pred",
            lambda p, prec=0: rendered.append(p) or real(p, prec))
        q = parse(self.SQL)
        text = render(q)
        assert text == self.SQL and rendered
        rendered.clear()
        assert render(q) == text
        assert render(q.set_op[1]) == text.split(" UNION ")[1]
        assert rendered == []

    def test_text_is_not_part_of_the_value(self):
        q, copy = parse(self.SQL), parse(self.SQL)
        render(q)
        assert q == copy
        assert hash(q) == hash(copy)
        assert repr(q) == repr(copy)

    def test_replaced_query_renders_its_own_text(self):
        q = parse("SELECT a FROM t0 WHERE a > 0")
        render(q)
        assert render(replace(q, distinct=True)) == \
            "SELECT DISTINCT a FROM t0 WHERE a > 0"
        assert render(replace(q, where=None)) == "SELECT a FROM t0"


# ---------------------------------------------------------------------------
# a predicate's kept text against a renderer that keeps nothing


def reference_render_pred(p, parent_prec=0):
    """p's text built afresh on every call, in parentheses when its
    operator binds less tightly than parent_prec asks."""
    if isinstance(p, TruthLit):
        s = {TruthValue.TRUE: "TRUE", TruthValue.FALSE: "FALSE",
             TruthValue.UNKNOWN: "NULL"}[p.value]
    elif isinstance(p, Cmp):
        s = f"{p.left} {p.op} {p.right}"
    elif isinstance(p, And):
        s = (f"{reference_render_pred(p.left, 2)} AND "
             f"{reference_render_pred(p.right, 3)}")
    elif isinstance(p, Or):
        s = (f"{reference_render_pred(p.left, 1)} OR "
             f"{reference_render_pred(p.right, 2)}")
    else:
        s = f"NOT {reference_render_pred(p.child, 4)}"
    prec = {Or: 1, And: 2, Not: 3}.get(type(p), 5)
    return f"({s})" if prec < parent_prec else s


def _subpredicates(p) -> list:
    """p and every predicate inside it, each parent before its
    children."""
    out, todo = [], [p]
    while todo:
        n = todo.pop()
        out.append(n)
        if isinstance(n, (And, Or)):
            todo += (n.right, n.left)
        elif isinstance(n, Not):
            todo.append(n.child)
    return out


def _query_preds(q) -> list:
    """The WHERE and HAVING predicates of q and of its set operand."""
    cores = [q] if q.set_op is None else [q, q.set_op[1]]
    return [p for c in cores for p in (c.where, c.having) if p is not None]


def kept_text_mismatches(preds):
    """(predicate, parent precedence, text, reference text) wherever
    render_pred differs from the reference.  Each predicate is rendered
    first at the highest precedence, parents before children, so a text
    that keeps the parentheses of its first render shows at the lower
    ones."""
    for root in preds:
        for p in _subpredicates(root):
            for prec in (5, 4, 3, 2, 1, 0):
                got = sqlast.render_pred(p, prec)
                want = reference_render_pred(p, prec)
                if got != want:
                    yield p, prec, got, want


def _seed_and_candidate_preds() -> list:
    """Predicates of generated seeds, of their surface candidates and of
    the pairs built from them, none rendered before."""
    preds = []
    for s in range(12):
        rng = random.Random(f"kept-text:{s}")
        schema = generate_schema(rng)
        ctx = TransformContext(rng=rng, value_hints=value_hints_of(
            generate_database(rng, schema)))
        for _ in range(30):
            q = qualify(generate_seed(rng, schema), schema)
            preds += _query_preds(q)
            for c in surface_candidates(lower(q)):
                preds += _query_preds(c)
            try:
                pair = transform_query(q, schema, ctx)
            except NoRuleApplies:
                continue
            preds += _query_preds(pair.left) + _query_preds(pair.right)
    return preds


def _parser_corpus_preds() -> list:
    texts = FIXPOINT_TEXTS + [sql for sql, _ in LEXER_EDGE_PARSES] + [
        f"SELECT a FROM t0 WHERE {DEEP[shape](n)}"
        for shape in DEEP for n in (1, 2, 3, MAX_PRED_DEPTH)]
    return [p for sql in texts for p in _query_preds(parse(sql))]


class TestKeptPredicateText:
    def test_matches_reference_on_generated_seeds_and_candidates(self):
        preds = _seed_and_candidate_preds()
        assert list(kept_text_mismatches(preds)) == []
        # not vacuous: every operator is nested under every other here
        shapes = {(type(p), type(c)) for root in preds
                  for p in _subpredicates(root)
                  for c in _subpredicates(p)[1:]}
        assert {(a, b) for a in (And, Or, Not)
                for b in (And, Or, Not)} <= shapes

    def test_matches_reference_on_parser_corpora(self):
        assert list(kept_text_mismatches(_parser_corpus_preds())) == []

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.one_of(
            st.builds(TruthLit, st.sampled_from(TruthValue)),
            st.builds(
                Cmp,
                st.builds(ColumnRef, st.sampled_from(("a", "b", "c")),
                          st.sampled_from((None, "t0"))),
                st.sampled_from(CMP_OPS),
                st.builds(Const, st.one_of(
                    st.none(), st.integers(-5, 5),
                    st.sampled_from((Decimal("0.5"), Decimal("-1.25"))),
                    st.text(alphabet="ab' ", max_size=3))))),
        lambda kids: st.one_of(st.builds(And, kids, kids),
                               st.builds(Or, kids, kids),
                               st.builds(Not, kids)),
        max_leaves=12))
    def test_matches_reference_on_arbitrary_predicates(self, pred):
        assert list(kept_text_mismatches([pred])) == []

    def test_guard_catches_text_kept_with_its_first_parentheses(
            self, monkeypatch):
        real, kept = sqlast.render_pred, {}

        def first_render_kept(p, parent_prec=0):
            if id(p) not in kept:
                kept[id(p)] = (p, real(p, parent_prec))
            return kept[id(p)][1]

        monkeypatch.setattr(sqlast, "render_pred", first_render_kept)
        assert next(kept_text_mismatches(_parser_corpus_preds()),
                    None) is not None

    def test_text_is_not_part_of_the_value(self):
        p, copy = (parse("SELECT a FROM t0 WHERE NOT (a = 1 OR b < 2)").where
                   for _ in range(2))
        sqlast.render_pred(p, 4)
        assert "_text" in vars(p) and "_text" not in vars(copy)
        assert p == copy and hash(p) == hash(copy) and repr(p) == repr(copy)


class TestSqlQueryInvariants:
    def test_empty_select_rejected(self):
        with pytest.raises(ValueError):
            SqlQuery((), ("t0",))

    def test_having_requires_group_by(self):
        from eqmorph.sqlast import Cmp, Const
        with pytest.raises(ValueError):
            SqlQuery((ColumnRef("a"),), ("t0",),
                     having=Cmp(ColumnRef("a"), "=", Const(1)))

    def test_nested_set_operation_rejected(self):
        # the reference executor runs only the outer set operation, so
        # t0.a UNION ALL (t1.b UNION ALL t0.a) must not be built
        inner = SqlQuery((ColumnRef("b", "t1"),), ("t1",),
                         set_op=(UNION_ALL, SqlQuery((ColumnRef("a", "t0"),),
                                                     ("t0",))))
        with pytest.raises(ValueError, match="nested set operations"):
            SqlQuery((ColumnRef("a", "t0"),), ("t0",),
                     set_op=(UNION_ALL, inner))


def test_schema_duplicate_table_rejected():
    with pytest.raises(ValueError):
        Schema((("t", (("a", "int"),)), ("t", (("b", "int"),))))


def test_schema_lookups():
    assert SCHEMA.col_type("t0", "b") == "dec"
    assert SCHEMA.col_type("t1", "d") == "dec"
    assert "b" not in dict(SCHEMA.columns("t1"))
    assert SCHEMA.table_names() == ("t0", "t1")
    assert SCHEMA.columns("t1") == (("a", "int"), ("d", "dec"))
    # an unknown table
    assert not SCHEMA.has_table("t9")
    with pytest.raises(KeyError):
        SCHEMA.col_type("t9", "a")
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


def test_schema_layout_puts_each_table_after_those_before_it():
    schema = Schema(SCHEMA.tables)
    assert schema.layout(("t1", "t0")) == {
        ("t1", "a"): 0, ("t1", "d"): 1,
        ("t0", "a"): 2, ("t0", "b"): 3, ("t0", "c"): 4}
    assert schema.layout(("t0",)) == {
        ("t0", "a"): 0, ("t0", "b"): 1, ("t0", "c"): 2}
    # kept: the same FROM list gets the same layout back
    assert schema.layout(("t1", "t0")) is schema.layout(("t1", "t0"))


def test_schema_equality_hash_and_repr_ignore_layouts():
    used, fresh = Schema(SCHEMA.tables), Schema(SCHEMA.tables)
    used.layout(("t0", "t1"))
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == f"Schema(tables={SCHEMA.tables!r})"


def test_equal_schemas_keep_their_own_layouts():
    first, second = Schema(SCHEMA.tables), Schema(SCHEMA.tables)
    layout = first.layout(("t0", "t1"))
    assert second.layout(("t0", "t1")) == layout
    assert second.layout(("t0", "t1")) is not layout


def test_schema_keeps_each_tables_column_refs():
    schema = Schema(SCHEMA.tables)
    refs = schema.column_refs("t1")
    assert refs == (ColumnRef("a", "t1"), ColumnRef("d", "t1"))
    # kept: a repeated call returns the same tuple
    assert schema.column_refs("t1") is refs
    with pytest.raises(KeyError):
        schema.column_refs("t9")


def test_schema_equality_hash_and_repr_ignore_column_refs():
    used, fresh = Schema(SCHEMA.tables), Schema(SCHEMA.tables)
    used.column_refs("t0")
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == f"Schema(tables={SCHEMA.tables!r})"
