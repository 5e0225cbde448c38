import random

import pytest
from hypothesis import given, settings, strategies as st

from eqmorph import algebra
from eqmorph.algebra import (
    Agg, AlgebraTypeError, Dedup, Filter, Project, RemapError, Scan,
    Union, UnionAll, _refset, commute_normal, equivalent_mod_commute, lower,
    pred_refs, rebuild, remap_to_sql, surface_candidates, typecheck,
)
from eqmorph.dbgen import databases_for_search
from eqmorph.harness import generate_schema, generate_seed
from eqmorph.parser import parse
from eqmorph.refdb import Executor
from eqmorph.sqlast import AggCall, And, Cmp, ColumnRef, Const, Schema, \
    qualify, render, render_pred, validate

SCHEMA = Schema.of({"t0": (("a", "int"), ("b", "dec"), ("c", "str"))})


def low(sql, schema=SCHEMA):
    return lower(qualify(parse(sql), schema))


A = ColumnRef("a", "t0")
B = ColumnRef("b", "t0")


class TestLowering:
    def test_distinct_is_dedup_below_projection(self):
        e = low("SELECT DISTINCT a FROM t0 WHERE a > 0")
        assert isinstance(e, Project)
        assert isinstance(e.child, Dedup)
        assert isinstance(e.child.child, Filter)
        assert isinstance(e.child.child.child, Scan)

    def test_group_by_without_aggregates_shares_distinct_shape(self):
        d = low("SELECT DISTINCT a FROM t0")
        g = low("SELECT a FROM t0 GROUP BY a")
        assert d == g

    def test_where_conjuncts_cascade(self):
        e = low("SELECT a FROM t0 WHERE a > 0 AND b < 1")
        assert isinstance(e, Project)
        outer = e.child
        assert isinstance(outer, Filter) and isinstance(outer.child, Filter)
        # the first conjunct sits innermost (runs first)
        assert render(qualify(parse("SELECT a FROM t0 WHERE a > 0"),
                              SCHEMA)).endswith("t0.a > 0")
        assert outer.child.pred == Cmp(A, ">", Const(0))

    def test_parenthesized_group_stays_one_filter(self):
        e = low("SELECT a FROM t0 WHERE a > 0 AND (a < 9 AND b > 0)")
        filters = []
        n = e.child
        while isinstance(n, Filter):
            filters.append(n)
            n = n.child
        assert len(filters) == 2

    def test_aggregate_has_no_projection(self):
        e = low("SELECT a, SUM(b) FROM t0 GROUP BY a")
        assert isinstance(e, Agg)
        assert e.keys == (A,)
        assert e.select == (A, AggCall("SUM", B))

    def test_having_is_filter_above_agg(self):
        e = low("SELECT a, SUM(b) FROM t0 GROUP BY a HAVING a > 0")
        assert isinstance(e, Filter) and isinstance(e.child, Agg)


class TestTypecheck:
    def test_projection_of_missing_column_rejected(self):
        bad = Project((B,), Project((A,), Scan(("t0",))))
        with pytest.raises(AlgebraTypeError):
            typecheck(bad)

    def test_non_grouped_select_rejected(self):
        bad = Agg((A, B), (A,), Scan(("t0",)))
        with pytest.raises(AlgebraTypeError):
            typecheck(bad)

    def test_union_arity_counts_positions(self):
        bad = Union(Project((A, A), Scan(("t0",))),
                    Project((A,), Scan(("t0",))))
        with pytest.raises(AlgebraTypeError):
            typecheck(bad)
        ok = Union(Project((A, A), Scan(("t0",))),
                   Project((A, B), Scan(("t0",))))
        typecheck(ok)


LOWERED_FORMS = [
    "SELECT DISTINCT a, a FROM t0 WHERE a > 0 AND b < 1",
    "SELECT DISTINCT a, SUM(b) FROM t0 GROUP BY a HAVING a > 0",
    "SELECT COUNT(*) FROM t0",
    "SELECT a, b FROM t0 GROUP BY a, b HAVING b > 0",
    "SELECT a FROM t0 WHERE a > 0 UNION ALL SELECT DISTINCT b FROM t0",
]


def test_lower_trusts_validated_queries(monkeypatch):
    def no_check(e):
        raise AssertionError("lower type-checked its tree")
    monkeypatch.setattr(algebra, "typecheck", no_check)
    monkeypatch.setattr(algebra, "_typed", no_check)
    for sql in LOWERED_FORMS:
        low(sql)


def _nodes(e):
    yield e
    for part in ("child", "left", "right"):
        if hasattr(e, part):
            yield from _nodes(getattr(e, part))


def test_typecheck_visits_each_node_once(monkeypatch):
    visits = []
    walk = algebra._typed

    def counted(e):
        visits.append(e)
        return walk(e)
    monkeypatch.setattr(algebra, "_typed", counted)
    trees = [low(sql) for sql in LOWERED_FORMS]
    trees.append(Union(Project((A, A), Dedup((A,), Scan(("t0",)))),
                       Project((A, B), Filter(Cmp(B, "<", Const(1)),
                                              Scan(("t0",))))))
    for e in trees:
        visits.clear()
        typecheck(e)
        assert sorted(map(id, visits)) == sorted(map(id, _nodes(e)))


def test_validated_queries_lower_well_typed():
    """Generated seeds, and those of their surface candidates that
    validate, lower to trees typecheck accepts: lower need not check."""
    rng = random.Random("lower-well-typed")
    candidates = 0
    for _ in range(100):
        schema = generate_schema(rng)
        for _ in range(50):
            e = lower(qualify(generate_seed(rng, schema), schema))
            typecheck(e)
            for c in surface_candidates(e):
                if not validate(c, schema):
                    typecheck(lower(c))
                    candidates += 1
    assert candidates > 10000


class TestCommuteNormal:
    def test_filter_order_is_normalized(self):
        e1 = low("SELECT a FROM t0 WHERE a > 0 AND b < 1")
        e2 = low("SELECT a FROM t0 WHERE b < 1 AND a > 0")
        assert e1 != e2
        assert equivalent_mod_commute(e1, e2)

    def test_where_vs_having_vs_distinct(self):
        forms = [
            "SELECT a FROM t0 WHERE a > 0 GROUP BY a",
            "SELECT a FROM t0 GROUP BY a HAVING a > 0",
            "SELECT DISTINCT a FROM t0 WHERE a > 0",
        ]
        lowered = [low(s) for s in forms]
        base = commute_normal(lowered[0])
        assert all(commute_normal(e) == base for e in lowered)

    def test_group_key_order_is_normalized(self):
        e1 = low("SELECT a, b FROM t0 GROUP BY a, b")
        e2 = low("SELECT a, b FROM t0 GROUP BY b, a")
        assert equivalent_mod_commute(e1, e2)

    def test_different_predicates_stay_distinct(self):
        e1 = low("SELECT a FROM t0 WHERE a > 0")
        e2 = low("SELECT a FROM t0 WHERE a > 1")
        assert not equivalent_mod_commute(e1, e2)

    def test_idempotent(self):
        for sql in ["SELECT DISTINCT a FROM t0 WHERE a > 0 AND b < 1",
                    "SELECT a, SUM(b) FROM t0 GROUP BY a HAVING a > 0",
                    "SELECT a FROM t0 WHERE b < 1 AND a > 0 "
                    "UNION ALL SELECT a FROM t0",
                    "SELECT a FROM t0 UNION SELECT a FROM t0 WHERE a > 0"]:
            n = commute_normal(low(sql))
            assert commute_normal(n) == n

    def test_union_operand_order_is_normalized(self):
        for op in ("UNION ALL", "UNION"):
            e1 = low(f"SELECT a FROM t0 WHERE a > 0 {op} SELECT b FROM t0")
            e2 = low(f"SELECT b FROM t0 {op} SELECT a FROM t0 WHERE a > 0")
            assert e1 != e2
            assert equivalent_mod_commute(e1, e2)

    def test_union_and_union_all_stay_distinct(self):
        e1 = low("SELECT a FROM t0 UNION ALL SELECT b FROM t0")
        e2 = low("SELECT a FROM t0 UNION SELECT b FROM t0")
        assert not equivalent_mod_commute(e1, e2)


class TestRemap:
    def test_three_way_correspondence(self):
        e = low("SELECT DISTINCT a FROM t0 WHERE a > 0")
        texts = {render(c) for c in remap_to_sql(e)}
        # the dedup renders as DISTINCT or GROUP BY, the filter as WHERE
        # or (when commutable with the grouping) HAVING
        assert {
            "SELECT DISTINCT t0.a FROM t0 WHERE t0.a > 0",
            "SELECT t0.a FROM t0 WHERE t0.a > 0 GROUP BY t0.a",
            "SELECT t0.a FROM t0 GROUP BY t0.a HAVING t0.a > 0",
        } <= texts

    def test_membership_of_original(self):
        for sql in [
            "SELECT a FROM t0",
            "SELECT DISTINCT a FROM t0 GROUP BY a HAVING a > 0",
            "SELECT a, SUM(b) FROM t0 WHERE b > 0 GROUP BY a HAVING a < 9",
            "SELECT a FROM t0 WHERE a > 0 UNION ALL SELECT a FROM t0",
            "SELECT DISTINCT a, b FROM t0 GROUP BY b, a",
        ]:
            q = qualify(parse(sql), SCHEMA)
            texts = {render(c) for c in remap_to_sql(lower(q))}
            assert render(q) in texts, sql

    def test_candidates_deterministic_and_sorted(self):
        e = low("SELECT DISTINCT a FROM t0 WHERE a > 0")
        texts = [render(c) for c in remap_to_sql(e)]
        assert texts == sorted(texts)
        assert texts == [render(c) for c in remap_to_sql(e)]

    def test_unrealizable_pipeline_rejected(self):
        # a bare dedup has no surface form (no projection)
        with pytest.raises(RemapError):
            remap_to_sql(Dedup((A,), Scan(("t0",))))

    def test_all_candidates_execute_identically(self):
        """Dual-route check: every remap candidate agrees with the
        original under the reference executor on a probe corpus."""
        ex = Executor()
        rng = random.Random(7)
        for sql in [
            "SELECT DISTINCT a FROM t0 WHERE a > 0",
            "SELECT a, b FROM t0 WHERE b > 0 GROUP BY b, a HAVING a != 2",
            "SELECT a, SUM(b) FROM t0 WHERE b > 0 GROUP BY a HAVING a < 9",
            "SELECT DISTINCT a FROM t0 GROUP BY a",
        ]:
            q = qualify(parse(sql), SCHEMA)
            cands = remap_to_sql(lower(q))
            for db in databases_for_search(SCHEMA, 20, f"remap:{sql}"):
                base = ex.execute(db, q)
                for c in cands:
                    assert ex.execute(db, c) == base, (sql, render(c))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_remap_lower_membership_random(data):
    """remap∘lower contains the original rendering for random seeds."""
    from eqmorph.harness import generate_schema, generate_seed
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    schema = generate_schema(rng)
    q = qualify(generate_seed(rng, schema), schema)
    texts = {render(c) for c in remap_to_sql(lower(q))}
    assert render(q) in texts


def _spec_pass(e):
    """One bottom-up pass of the commutations, rebuilding every node:
    the definition commute_normal must agree with.  (expr, changed)."""
    if isinstance(e, (Union, UnionAll)):
        l, c1 = _spec_pass(e.left)
        r, c2 = _spec_pass(e.right)
        if repr(r) < repr(l):
            return type(e)(r, l), True
        return type(e)(l, r), c1 or c2
    if isinstance(e, Scan):
        return e, False
    child, changed = _spec_pass(e.child)
    e = rebuild(e, child)
    if isinstance(e, Project) and isinstance(child, Project):
        if _refset(e.cols) <= _refset(child.cols):
            return Project(e.cols, child.child), True
    if isinstance(e, Dedup):
        ordered = tuple(sorted(e.keys, key=str))
        if ordered != e.keys:
            return Dedup(ordered, child), True
        if isinstance(child, Dedup) and _refset(e.keys) == _refset(child.keys):
            return child, True
        if isinstance(child, Project) and _refset(e.keys) == _refset(child.cols):
            return Project(child.cols,
                           Dedup(tuple(dict.fromkeys(child.cols)),
                                 child.child)), True
    if isinstance(e, Filter):
        refs = pred_refs(e.pred)
        if isinstance(child, Dedup) and refs <= _refset(child.keys):
            return Dedup(child.keys, Filter(e.pred, child.child)), True
        if isinstance(child, Project) and refs <= _refset(child.cols):
            return Project(child.cols, Filter(e.pred, child.child)), True
        if isinstance(child, Agg) and refs <= _refset(child.keys):
            return Agg(child.select, child.keys,
                       Filter(e.pred, child.child)), True
        if isinstance(child, Filter) and \
                render_pred(e.pred) < render_pred(child.pred):
            return Filter(child.pred, Filter(e.pred, child.child)), True
    return e, changed


def _spec_normal(e):
    while True:
        e, changed = _spec_pass(e)
        if not changed:
            return e


_COLS = [ColumnRef(n, "t0") for n in "abc"]
_cols = st.lists(st.sampled_from(_COLS), min_size=1, max_size=3).map(tuple)
_preds = st.tuples(st.sampled_from(_COLS), st.sampled_from(("<", ">")),
                   st.integers(0, 2)).map(lambda t: Cmp(t[0], t[1],
                                                        Const(t[2])))
_preds = st.one_of(_preds, st.tuples(_preds, _preds).map(lambda t: And(*t)))
_unary = st.one_of(
    _cols.map(lambda c: lambda child: Project(c, child)),
    _cols.map(lambda c: lambda child: Dedup(c, child)),
    _preds.map(lambda p: lambda child: Filter(p, child)),
    _cols.map(lambda c: lambda child: Agg(c, c, child)),
)


def _stacks(base):
    def build(ops):
        e = base
        for op in ops:
            e = op(e)
        return e
    return st.lists(_unary, max_size=7).map(build)


_trees = st.recursive(
    _stacks(Scan(("t0",))),
    lambda inner: st.tuples(st.sampled_from((Union, UnionAll)), inner,
                            inner).flatmap(
        lambda t: _stacks(t[0](t[1], t[2]))),
    max_leaves=3)


@settings(max_examples=400, deadline=None)
@given(_trees)
def test_commute_normal_is_the_pass_fixpoint(e):
    """Any tree, typed or not: the same normal form as rewriting the whole
    tree pass by pass until a pass changes nothing."""
    n = commute_normal(e)
    assert n == _spec_normal(e)
    assert commute_normal(n) == n
