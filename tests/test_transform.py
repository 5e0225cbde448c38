import json
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import proven
from eqmorph import transform
from eqmorph.algebra import (
    Project, RemapError, Union, commute_normal, equivalent_mod_commute, lower,
    remap_to_sql, surface_candidates,
)
from eqmorph.dbgen import databases_for_search
from eqmorph.harness import (
    generate_database, generate_schema, generate_seed, value_hints_of,
)
from eqmorph.parser import parse
from eqmorph.refdb import Executor
from eqmorph.sensitivity import Sensitivity, classify
from eqmorph.sqlast import Schema, qualify, render, type_kind, validate
from eqmorph.transform import (
    IR_RULES, MUTANT_VS_MUTANT, RULE_CATALOG, SEED_VS_MUTANT, NoRuleApplies,
    QueryPair, TransformContext, _RULE_FNS, enumerate_mutants, ir_rewrite,
    ir_sites, transform_query,
)

SCHEMA = Schema.of({
    "t0": (("a", "int"), ("b", "dec"), ("c", "str")),
    "t1": (("d", "int"), ("e", "dec")),
})

RULE_NAMES = list(RULE_CATALOG)
ROOT = Path(__file__).resolve().parent.parent


def ctx(seed=0, rules=None):
    return TransformContext(
        rng=random.Random(seed),
        enabled_rules=None if rules is None else frozenset(rules))


def pair_for(sql, **kw):
    return transform_query(qualify(parse(sql), SCHEMA), SCHEMA, ctx(**kw))


def assert_pair_equivalent(pair, tag):
    """Both sides execute identically on a probe corpus."""
    ex = Executor()
    for db in databases_for_search(SCHEMA, 24, tag):
        assert ex.execute(db, pair.left) == \
            ex.execute(db, pair.right), (tag, render(pair.left),
                                              render(pair.right))


class TestCatalog:
    def test_has_at_least_five_rules(self):
        assert len(RULE_CATALOG) >= 5
        assert len(set(RULE_NAMES)) == len(RULE_NAMES)

    def test_benchmark_declares_a_pairs_metric_per_rule(self):
        # perfbench/spans.py counts pairs under each rule name, and
        # BENCHMARK.json must declare exactly those metrics
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = tuple(m["name"][len("transform.rule."):-len(".pairs")]
                      for m in spec["per_layer"]
                      if m["name"].startswith("transform.rule.")
                      and m["name"].endswith(".pairs"))
        assert names == RULE_CATALOG

    @pytest.mark.parametrize("rule,sql", [
        ("grouped-filter-insertion", "SELECT a, SUM(b) FROM t0 GROUP BY a"),
        ("dedup-insertion", "SELECT DISTINCT a FROM t0 WHERE a > 0"),
        ("dedup-filter-commute", "SELECT DISTINCT a FROM t0 WHERE a > 0"),
        ("union-commute",
         "SELECT a FROM t0 UNION SELECT d FROM t1"),
        ("selection-commute",
         "SELECT a FROM t0 WHERE a > 0 AND b < 1"),
        ("projection-pull-up",
         "SELECT a, SUM(b) FROM t0 GROUP BY a HAVING a > 0"),
    ])
    def test_rule_applies_and_pair_is_equivalent(self, rule, sql):
        pair = pair_for(sql, rules=[rule])
        assert pair.rule == rule
        assert render(pair.left) != render(pair.right)
        assert_pair_equivalent(pair, rule)

    def test_first_match_wins_in_catalog_order(self):
        # a grouped aggregate seed matches the first rule
        pair = pair_for("SELECT a, SUM(b) FROM t0 GROUP BY a")
        assert pair.rule == "grouped-filter-insertion"

    def test_no_rule_applies(self):
        with pytest.raises(NoRuleApplies):
            pair_for("SELECT c FROM t0", rules=["union-commute"])

    def test_deterministic_for_fixed_seed(self):
        a = pair_for("SELECT a FROM t0 WHERE a > 0 AND b < 1", seed=5)
        b = pair_for("SELECT a FROM t0 WHERE a > 0 AND b < 1", seed=5)
        assert (render(a.left), render(a.right), a.rule) == \
            (render(b.left), render(b.right), b.rule)

    def test_seed_vs_mutant_preserves_sensitivity_class(self):
        for sql in ["SELECT a FROM t0 WHERE a > 0 AND b < 1",
                    "SELECT DISTINCT a FROM t0 WHERE a > 0"]:
            pair = pair_for(sql)
            if pair.pairing == "seed-vs-mutant":
                assert classify(lower(qualify(pair.left, SCHEMA))) is \
                    classify(lower(qualify(pair.right, SCHEMA)))
        # every rule, called directly on generated seeds: each
        # seed-vs-mutant pair it builds keeps the seed's class
        checked = set()
        for s in range(4):
            rng = random.Random(f"class-{s}")
            schema = generate_schema(rng)
            for _ in range(100):
                q = qualify(generate_seed(rng, schema), schema)
                e = lower(q)
                for name, rule in _RULE_FNS.items():
                    pair = rule(q, e, ctx(), schema)
                    if pair is None or pair.pairing != SEED_VS_MUTANT:
                        continue
                    checked.add(name)
                    assert classify(lower(qualify(pair.left, schema))) is \
                        classify(lower(qualify(pair.right, schema))), \
                        (name, render(pair.left), render(pair.right))
        assert checked == {"dedup-filter-commute", "union-commute",
                                "selection-commute", "projection-pull-up"}

    def test_pairs_are_equivalent_mod_commute(self):
        for sql in [
            "SELECT a, SUM(b) FROM t0 GROUP BY a",
            "SELECT a FROM t0 WHERE a > 0 AND b < 1",
            "SELECT DISTINCT a FROM t0 WHERE a > 0",
            "SELECT DISTINCT a, b FROM t0 WHERE b > 0",
            # the normal form orders set-operation operands
            "SELECT a FROM t0 UNION SELECT d FROM t1",
        ]:
            pair = pair_for(sql)
            assert equivalent_mod_commute(
                lower(qualify(pair.left, SCHEMA)),
                lower(qualify(pair.right, SCHEMA)))


class TestSpecificRules:
    def test_grouped_filter_insertion_where_vs_having(self):
        pair = pair_for("SELECT a, SUM(b) FROM t0 GROUP BY a",
                        rules=["grouped-filter-insertion"])
        texts = {render(pair.left), render(pair.right)}
        assert any("WHERE" in t for t in texts)
        assert any("HAVING" in t for t in texts)
        assert pair.pairing == "mutant-vs-mutant"

    def test_dedup_insertion_distinct_vs_group_by(self):
        pair = pair_for("SELECT DISTINCT a FROM t0 WHERE a > 0",
                        rules=["dedup-insertion"])
        texts = {render(pair.left), render(pair.right)}
        assert any("DISTINCT" in t for t in texts)
        assert any("GROUP BY" in t for t in texts)

    def test_union_commute_swaps_operands(self):
        pair = pair_for("SELECT a FROM t0 UNION SELECT d FROM t1",
                        rules=["union-commute"])
        texts = {render(pair.left), render(pair.right)}
        assert "SELECT t0.a FROM t0 UNION SELECT t1.d FROM t1" in texts
        assert "SELECT t1.d FROM t1 UNION SELECT t0.a FROM t0" in texts

    def test_selection_commute_swaps_conjuncts(self):
        pair = pair_for("SELECT a FROM t0 WHERE a > 0 AND b < 1",
                        rules=["selection-commute"])
        texts = {render(pair.left), render(pair.right)}
        assert "SELECT t0.a FROM t0 WHERE t0.a > 0 AND t0.b < 1" in texts
        assert "SELECT t0.a FROM t0 WHERE t0.b < 1 AND t0.a > 0" in texts


class TestIrRules:
    def test_selection_commute_sites_and_rewrite(self):
        e = lower(qualify(
            parse("SELECT a FROM t0 WHERE a > 0 AND b < 1"), SCHEMA))
        sites = ir_sites("selection-commute", e)
        assert len(sites) == 1
        m = ir_rewrite("selection-commute", e, sites[0])
        assert m != e
        assert commute_normal(m) == commute_normal(e)

    def test_projection_cascade_needs_nested_projections(self):
        e = lower(qualify(parse("SELECT a FROM t0"), SCHEMA))
        assert ir_sites("projection-cascade", e) == []

    def test_enumerate_mutants_distinct_and_bounded(self):
        for sql in ("SELECT a FROM t0 WHERE a > 0 AND b < 1 "
                    "UNION ALL SELECT a FROM t0",
                    # insensitive, but not a set: a DISTINCT would not
                    # be the identity here
                    "SELECT a FROM t0 GROUP BY a, b HAVING a > 0"):
            e = lower(qualify(parse(sql), SCHEMA))
            ms = enumerate_mutants(e, limit=16)
            assert ms
            assert len(ms) == len(set(ms))
            assert e not in ms
            for m in ms:
                self.assert_ir_equivalent(e, m)

    @staticmethod
    def assert_ir_equivalent(e, m):
        """Canonical-form equality where the rewrite is commutation-only;
        execution-level equality otherwise."""
        from eqmorph.algebra import remap_to_sql
        if commute_normal(m) == commute_normal(e):
            return
        ex = Executor()
        qe, qm = remap_to_sql(e)[0], remap_to_sql(m)[0]
        for db in databases_for_search(SCHEMA, 16, "ir-equiv"):
            assert ex.execute(db, qe) == ex.execute(db, qm)

    def test_every_ir_rule_yields_equivalent_tree(self):
        seeds = [
            "SELECT DISTINCT a FROM t0 WHERE a > 0 AND b < 1",
            "SELECT a FROM t0 UNION SELECT d FROM t1",
            # a Filter over a Dedup (HAVING) and a Dedup over a Filter (WHERE)
            "SELECT a FROM t0 WHERE a > 1 GROUP BY a HAVING a > 0",
        ]
        rewritten = []
        for sql in seeds:
            e = lower(qualify(parse(sql), SCHEMA))
            for rule in IR_RULES:
                for site in ir_sites(rule, e):
                    rewritten.append(rule)
                    self.assert_ir_equivalent(e, ir_rewrite(rule, e, site))
        assert rewritten.count("dedup-filter-commute") == 2


# ---------------------------------------------------------------------------
# candidate selection: verifying lazily picks what verifying every
# candidate picks


def _valid_candidates(e, schema):
    """Every verified surface rendering of e that validates on schema."""
    return [c for c in remap_to_sql(e) if not validate(c, schema)]


def _furthest(text, cands):
    return max(cands, key=lambda c: (transform._text_distance(
        text, render(c)), render(c)))


def _eager_dedup_insertion(q, e, ctx, schema):
    if q.set_op is not None or q.has_aggregates():
        return None
    if not q.distinct and q.group_by is None:
        return None
    if classify(e) is not Sensitivity.INSENSITIVE:
        return None
    cands = _valid_candidates(e, schema)
    distinct_forms = [c for c in cands if c.distinct]
    grouped_forms = [c for c in cands
                     if c.group_by is not None and not c.distinct]
    if not distinct_forms or not grouped_forms:
        return None
    left = distinct_forms[0]
    right = _furthest(render(left), grouped_forms)
    return QueryPair(left, right, "dedup-insertion", MUTANT_VS_MUTANT,
                     lower(left), lower(right))


def _eager_rendering_rule(rule, trees):
    def build(q, e, ctx, schema):
        cands = [c for t in trees(q, e) for c in _valid_candidates(t, schema)
                 if render(c) != render(q)]
        if not cands:
            return None
        right = _furthest(render(q), cands)
        return QueryPair(q, right, rule, SEED_VS_MUTANT, e, lower(right))
    return build


# the catalog with every rule that picks among remap candidates verifying
# all of them first; the rendering rules here have no gate, so comparing
# with them checks the gates too
_EAGER_RULE_FNS = dict(
    _RULE_FNS,
    **{"dedup-insertion": _eager_dedup_insertion,
       "dedup-filter-commute": _eager_rendering_rule(
           "dedup-filter-commute",
           lambda q, e: [t for t in transform._seed_tree(q, e)
                         if ir_sites("dedup-filter-commute", t)]),
       "projection-pull-up": _eager_rendering_rule(
           "projection-pull-up", transform._seed_tree),
       "projection-cascade": _eager_rendering_rule(
           "projection-cascade",
           lambda q, e: transform._rewrites("projection-cascade", e))})


def _outcome(seed, schema, hints, key, rules):
    ctx = TransformContext(rng=random.Random(key), value_hints=hints,
                           enabled_rules=rules)
    try:
        return transform_query(seed, schema, ctx)
    except (NoRuleApplies, RemapError) as exc:
        return type(exc).__name__


def test_lazy_selection_matches_verifying_every_candidate(monkeypatch):
    """On 3,000 generated seeds, with the whole catalog and with each rule
    alone, transform_query gives the pair (or NoRuleApplies) that it gives
    when every candidate is verified before one is chosen."""
    configs = [None] + [frozenset([r]) for r in RULE_CATALOG]
    seeds = []
    for s in range(60):
        rng = random.Random(f"lazy-pick:{s}")
        schema = generate_schema(rng)
        hints = value_hints_of(generate_database(rng, schema))
        seeds.extend((schema, hints, generate_seed(rng, schema))
                     for _ in range(50))
    lazy = [[_outcome(seed, schema, hints, i, rules) for rules in configs]
            for i, (schema, hints, seed) in enumerate(seeds)]
    monkeypatch.setattr(transform, "_RULE_FNS", _EAGER_RULE_FNS)
    eager = [[_outcome(seed, schema, hints, i, rules) for rules in configs]
             for i, (schema, hints, seed) in enumerate(seeds)]
    assert lazy == eager
    # not vacuous: every rule that picks a candidate picks one here
    rules = {p.rule for row in lazy for p in row if isinstance(p, QueryPair)}
    assert {"dedup-insertion", "dedup-filter-commute",
            "projection-pull-up"} <= rules


def _untrusted_sides(carried):
    """(rule, side SQL, fault) for each pair side that comes without its
    tree, does not validate, or carries a tree other than its lowered
    qualified form.  The proof trusts every side a rule builds, so this is
    the check of that trust.  Each seed is paired by the catalog as a
    campaign does, and by each rule alone, so the rules that never win
    first-match are covered too; carried counts the sides per rule."""
    for s in range(25):
        rng = random.Random(f"pair-trees:{s}")
        schema = generate_schema(rng)
        hints = value_hints_of(generate_database(rng, schema))
        for i in range(40):
            seed = generate_seed(rng, schema)
            for rules in [None] + [frozenset({r}) for r in RULE_CATALOG]:
                c = TransformContext(
                    rng=random.Random(f"pair-trees:{s}:{i}"),
                    value_hints=hints, enabled_rules=rules)
                try:
                    pair = transform_query(seed, schema, c)
                except NoRuleApplies:
                    continue
                for side, tree in ((pair.left, pair.left_tree),
                                   (pair.right, pair.right_tree)):
                    carried[pair.rule] += 1
                    if tree is None:
                        yield pair.rule, render(side), "no tree"
                    elif validate(side, schema):
                        yield pair.rule, render(side), "invalid"
                    elif tree != lower(qualify(side, schema)):
                        yield pair.rule, render(side), "wrong tree"
                assert equivalent_mod_commute(
                    pair.left_tree, pair.right_tree) == \
                    proven(pair.left, pair.right, schema)


def test_pair_trees_are_the_lowered_sides():
    """Every side of every pair carries its tree, validates, and its tree
    is the one the proof would build from it, so the proof need not
    qualify or lower."""
    carried = Counter()
    assert list(_untrusted_sides(carried)) == []
    # not vacuous: every rule that applies to a surface seed builds pairs
    # here; projection-cascade applies to none
    assert set(carried) == set(RULE_CATALOG) - {"projection-cascade"}


def test_guard_catches_a_constant_of_the_wrong_type(monkeypatch):
    # grouped-filter-insertion compares a numeric key with a string
    real = transform.pick_constant

    def wrong_type(ctx, schema, col):
        if type_kind(schema.col_type(col.table, col.name)) == "num":
            return "x"
        return real(ctx, schema, col)

    monkeypatch.setattr(transform, "pick_constant", wrong_type)
    assert next(_untrusted_sides(Counter()), None) is not None


def test_guard_catches_a_tree_of_the_wrong_side(monkeypatch):
    # union-commute carries the seed's tree on its swapped side too
    real = _RULE_FNS["union-commute"]

    def seed_tree_twice(q, e, ctx, schema):
        pair = real(q, e, ctx, schema)
        return pair and replace(pair, right_tree=pair.left_tree)

    monkeypatch.setitem(_RULE_FNS, "union-commute", seed_tree_twice)
    assert next(_untrusted_sides(Counter()), None) is not None


# ---------------------------------------------------------------------------
# work a rule skips: gates, and sides built from the seed's tree

RENDERING_RULES = ("dedup-filter-commute", "projection-pull-up",
                   "projection-cascade")


def _refuse(*args, **kw):
    raise AssertionError("work that a gate rules out")


def _generated(tag, schemas, per_schema):
    """(schema, qualified seed, the seed's tree) for generated seeds."""
    out = []
    for s in range(schemas):
        rng = random.Random(f"{tag}:{s}")
        schema = generate_schema(rng)
        for _ in range(per_schema):
            q = qualify(generate_seed(rng, schema), schema)
            out.append((schema, q, lower(q)))
    return out


def test_rendering_rules_skip_seeds_with_one_surface_form(monkeypatch):
    """A seed without DISTINCT or GROUP BY has one surface form, its own,
    so the rules that pair it with another rendering return before they
    walk paths, build candidates or normalise a tree.  So does a DISTINCT
    seed over two tables, since a grouped form reads one table, and a
    DISTINCT aggregate without GROUP BY, since a Dedup over an Agg
    without keys renders only as DISTINCT; on those the gated rules
    return what the ungated ones do."""
    seeds, distinct = [], []
    for schema, q, e in _generated("one-form", 100, 50):
        cores = [q] if q.set_op is None else [q, q.set_op[1]]
        if not any(c.distinct or c.group_by is not None for c in cores):
            assert len(surface_candidates(e)) == 1
            seeds.append((schema, q, e))
        elif q.set_op is None and q.distinct and (
                len(q.from_tables) > 1
                or q.has_aggregates() and q.group_by is None):
            distinct.append((schema, q, e))
    # not vacuous: plain, filtered, aggregate and set-operation seeds, and
    # both DISTINCT shapes, the two-table ones with a WHERE too
    assert sum(q.set_op is not None for _, q, _ in seeds) >= 20
    assert sum(q.has_aggregates() for _, q, _ in seeds) >= 100
    assert sum(q.where is not None for _, q, _ in seeds) >= 100
    two = [q for _, q, _ in distinct if len(q.from_tables) > 1]
    assert len(two) >= 20 and sum(q.where is not None for q in two) >= 10
    assert sum(q.has_aggregates() for _, q, _ in distinct) >= 20
    eager = [[_EAGER_RULE_FNS[rule](q, e, ctx(), schema)
              for rule in RENDERING_RULES] for schema, q, e in distinct]
    assert eager == [[None] * len(RENDERING_RULES)] * len(distinct)
    for name in ("surface_candidates", "commute_normal", "_paths"):
        monkeypatch.setattr(transform, name, _refuse)
    for schema, q, e in seeds + distinct:
        for rule in RENDERING_RULES:
            assert _RULE_FNS[rule](q, e, ctx(), schema) is None


def test_catalog_refuses_only_seeds_no_rule_pairs(monkeypatch):
    """A seed without GROUP BY, DISTINCT, a set operation or an AND at
    the top of WHERE gets no pair from any rule, and transform_query
    refuses it before it lowers it or builds a candidate."""
    seeds = _generated("one-form", 100, 50)
    refused = [(schema, q, e) for schema, q, e in seeds
               if not transform._may_pair(q)]
    # not vacuous: plain, filtered and aggregate seeds are refused
    assert len(refused) >= 0.3 * len(seeds)
    for schema, q, e in refused:
        for name, rule in _RULE_FNS.items():
            assert rule(q, e, ctx(), schema) is None, (name, render(q))
    for name in ("lower", "surface_candidates", "commute_normal"):
        monkeypatch.setattr(transform, name, _refuse)
    for schema, q, _ in refused:
        with pytest.raises(NoRuleApplies):
            transform_query(q, schema, ctx())


def test_dedup_insertion_skips_seeds_over_two_tables(monkeypatch):
    """A grouped form reads one table, so a seed over two has no GROUP BY
    side: dedup-insertion returns before it builds any candidate, and on
    every seed it gives what the rule that verifies every candidate does."""
    seeds = []
    for s in range(40):
        rng = random.Random(f"two-tables:{s}")
        schema = generate_schema(rng)
        for _ in range(50):
            q = qualify(generate_seed(rng, schema), schema)
            seeds.append((schema, q, lower(q)))
    rule = _RULE_FNS["dedup-insertion"]
    outcomes = [rule(q, e, ctx(), schema) for schema, q, e in seeds]
    assert outcomes == [_eager_dedup_insertion(q, e, ctx(), schema)
                        for schema, q, e in seeds]
    # not vacuous: the rule pairs, and two-table DISTINCT seeds occur,
    # each with a valid DISTINCT form that the full rule builds
    assert sum(p is not None for p in outcomes) >= 200
    two = [(schema, q, e) for schema, q, e in seeds
           if len(q.from_tables) > 1 and q.distinct and q.set_op is None]
    assert len(two) >= 20
    for schema, q, e in two:
        assert any(c.distinct for c in _valid_candidates(e, schema))
    monkeypatch.setattr(transform, "surface_candidates", _refuse)
    for schema, q, e in two:
        assert rule(q, e, ctx(), schema) is None


def test_projection_cascade_fires_on_project_chains_through_its_gate():
    """Lowered seeds never hold a Project on a Project, so synthetic
    trees check that projection-cascade still pairs through its gate,
    in a pipeline and in a set operand, as the ungated rule does."""
    def tree(sql):
        return lower(qualify(parse(sql), SCHEMA))

    chain = Project(tree("SELECT a FROM t0").cols,
                    tree("SELECT a, b FROM t0 WHERE a > 0 AND b < 1"))
    cases = [
        ("SELECT a FROM t0 WHERE b < 1 AND a > 0", chain,
         "SELECT t0.a FROM t0 WHERE t0.a > 0 AND t0.b < 1"),
        ("SELECT a FROM t0 WHERE b < 1 AND a > 0 UNION SELECT d FROM t1",
         Union(chain, tree("SELECT d FROM t1")),
         "SELECT t0.a FROM t0 WHERE t0.a > 0 AND t0.b < 1 "
         "UNION SELECT t1.d FROM t1"),
    ]
    for sql, e, want in cases:
        q = qualify(parse(sql), SCHEMA)
        pair = _RULE_FNS["projection-cascade"](q, e, ctx(), SCHEMA)
        assert pair is not None and render(pair.right) == want
        assert pair == _EAGER_RULE_FNS["projection-cascade"](
            q, e, ctx(), SCHEMA)


def test_transform_lowers_the_seed_only(monkeypatch):
    """Each side's tree is built from the seed's tree or is the tree its
    candidate was verified with, so transform_query lowers nothing but
    the seed, and a seed that no rule can pair not even that."""
    lowered = Counter()
    real = transform.lower
    monkeypatch.setattr(transform, "lower",
                        lambda q: lowered.update([q]) or real(q))
    rules = Counter()
    for s in range(10):
        rng = random.Random(f"lower-once:{s}")
        schema = generate_schema(rng)
        c = TransformContext(rng=rng, value_hints=value_hints_of(
            generate_database(rng, schema)))
        for _ in range(50):
            seed = generate_seed(rng, schema)
            lowered.clear()
            try:
                rules[transform_query(seed, schema, c).rule] += 1
            except NoRuleApplies:
                pass
            if transform._may_pair(seed):
                assert list(lowered.values()) == [1]
            else:
                rules["refused"] += 1
                assert not lowered
    assert {"grouped-filter-insertion", "union-commute",
            "selection-commute", "dedup-insertion", "refused"} <= set(rules)


def test_union_commute_sides_share_their_operands():
    pair = pair_for("SELECT a FROM t0 WHERE a > 0 UNION SELECT d FROM t1",
                    rules=["union-commute"])
    seed = pair.left_tree
    assert pair.right_tree.left is seed.right
    assert pair.right_tree.right is seed.left
    assert equivalent_mod_commute(pair.left_tree, pair.right_tree)
