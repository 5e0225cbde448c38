import random
import subprocess
from collections import Counter
import sys
from dataclasses import replace

import pytest

from conftest import proven
from eqmorph import algebra, equivfilter, harness
from eqmorph.adapter import BuiltinEndpoint
from eqmorph.algebra import (
    AlgebraTypeError, Dedup, Scan, Union, UnionAll,
    join_conjuncts, lower, rebuild, split_conjuncts,
)
from eqmorph.dbgen import databases_for_search
from eqmorph.equivfilter import (
    DEFAULT_BUDGET, NoCounterexample, NotEquivalent, check_bounded,
)
from eqmorph.harness import (
    GeneratorConfig, generate_database, generate_schema, generate_seed,
    run_iteration, value_hints_of,
)
from eqmorph.parser import parse
from eqmorph.refdb import EngineError, Executor, load_script, schema_of
from eqmorph.sqlast import (
    UNION, UNION_ALL, And, Or, Schema, qualify,
)
from eqmorph.transform import (
    SEED_VS_MUTANT, NoRuleApplies, QueryPair, TransformContext,
    transform_query,
)

SCHEMA = Schema.of({"t0": (("a", "int"), ("b", "dec"))})


def q(sql):
    return qualify(parse(sql), SCHEMA)


def test_equivalent_pair_passes():
    v = check_bounded(q("SELECT a FROM t0 WHERE a > 0 AND b > 0"),
                      q("SELECT a FROM t0 WHERE b > 0 AND a > 0"), SCHEMA)
    assert isinstance(v, NoCounterexample)
    assert 0 < v.budget_used <= DEFAULT_BUDGET


def test_distinct_injection_is_caught_with_reproducible_witness():
    left = q("SELECT a FROM t0")
    right = q("SELECT DISTINCT a FROM t0")
    v = check_bounded(left, right, SCHEMA)
    assert isinstance(v, NotEquivalent)
    ex = Executor()
    assert ex.execute(v.witness, left) != ex.execute(v.witness, right)


def test_predicate_strengthening_is_caught():
    v = check_bounded(q("SELECT a FROM t0 WHERE a > 0"),
                      q("SELECT a FROM t0 WHERE a > 1"), SCHEMA)
    assert isinstance(v, NotEquivalent)


def test_where_vs_having_null_group_difference():
    # moving a predicate from WHERE to HAVING is only safe over group
    # keys; over an aggregate output it is a different query
    v = check_bounded(
        q("SELECT a, COUNT(*) FROM t0 WHERE a > 0 GROUP BY a"),
        q("SELECT a, COUNT(*) FROM t0 GROUP BY a"), SCHEMA)
    assert isinstance(v, NotEquivalent)


def test_execution_error_counts_as_not_equivalent():
    bad = qualify(parse("SELECT a FROM t0 WHERE a = 0"), SCHEMA)
    object.__setattr__(bad, "where",
                       parse("SELECT a FROM t0 WHERE a = 'x'").where)
    v = check_bounded(q("SELECT a FROM t0"), bad, SCHEMA)
    assert isinstance(v, NotEquivalent)
    assert isinstance(v.right_outcome, EngineError)


def test_budget_and_seed_are_respected():
    a = check_bounded(q("SELECT a FROM t0"), q("SELECT a FROM t0"),
                      SCHEMA, budget=5, seed="s")
    assert isinstance(a, NoCounterexample) and a.budget_used == 5
    b = check_bounded(q("SELECT a FROM t0"), q("SELECT a FROM t0"),
                      SCHEMA, budget=5, seed="s")
    assert a == b


def test_editing_a_witness_leaves_later_probes_alone():
    left, right = q("SELECT a FROM t0"), q("SELECT DISTINCT a FROM t0")
    first = check_bounded(left, right, SCHEMA, budget=8, seed="w")
    first.witness["t0"].rows.clear()
    again = check_bounded(left, right, SCHEMA, budget=8, seed="w")
    assert again.budget_used == first.budget_used
    assert again.left_outcome == first.left_outcome
    assert again.witness["t0"].rows


def test_one_probe_corpus_per_iteration(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return databases_for_search(*args, **kwargs)

    equivfilter._corpus.cache_clear()
    monkeypatch.setattr(equivfilter, "databases_for_search", counting)
    cfg = GeneratorConfig(queries_per_iteration=50, filter_budget=32)
    stats = run_iteration(BuiltinEndpoint(), cfg, "corpus", 0).stats
    assert stats.pairsEmitted + stats.pairsFiltered > 1
    # proven pairs probe nothing, so an iteration builds at most one corpus
    assert len(calls) <= 1

    def disjunction(rng, schema):
        cols = dict(schema.columns("t0"))
        a = next(c for c, ty in cols.items() if ty == "int")
        b = next(c for c, ty in cols.items() if ty == "dec")
        return parse(f"SELECT {a} FROM t0 WHERE {a} > 0 OR {b} < 1")

    def or_swapped(seed, schema, ctx):
        # the operands of the OR swapped: equivalent, but the proof does
        # not look inside a predicate, so every pair is probed
        left = qualify(seed, schema)
        right = replace(left, where=Or(left.where.right, left.where.left))
        return QueryPair(left, right, "selection-commute", SEED_VS_MUTANT,
                         lower(left), lower(right))

    calls.clear()
    equivfilter._corpus.cache_clear()
    monkeypatch.setattr(harness, "generate_seed", disjunction)
    monkeypatch.setattr(harness, "transform_query", or_swapped)
    cfg = GeneratorConfig(queries_per_iteration=3, filter_budget=32)
    stats = run_iteration(BuiltinEndpoint(), cfg, "corpus", 1).stats
    assert stats.pairsEmitted == 3
    assert len(calls) == 1


def test_budget_zero_prepares_nothing(monkeypatch):
    prepared = []

    def counting(self, q, schema):
        prepared.append(q)
        return real_prepare(self, q, schema)

    real_prepare = Executor.prepare
    monkeypatch.setattr(Executor, "prepare", counting)
    sel = q("SELECT a FROM t0")
    assert check_bounded(sel, sel, SCHEMA, budget=0) == NoCounterexample(0)
    assert prepared == []
    assert check_bounded(sel, sel, SCHEMA, budget=1) == NoCounterexample(1)
    assert len(prepared) == 2


def test_filter_off_never_calls_the_probe(monkeypatch):
    cfg = GeneratorConfig(queries_per_iteration=150, filter_budget=0)

    def emitted():
        res = run_iteration(BuiltinEndpoint("drop-distinct"), cfg, "off", 0)
        return (replace(res.stats, elapsed=0.0),
                [replace(r, timestamp="") for r in res.reports])

    before = emitted()
    assert before[0].pairsEmitted > 0 and before[1]

    def refuse(*args, **kwargs):
        raise AssertionError("check_bounded called with the filter off")

    monkeypatch.setattr(harness, "check_bounded", refuse)
    assert emitted() == before


# Prints check_bounded's verdicts and witnesses for each seed argument, in
# one process; pairs of one seed share a corpus.
_VERDICTS = """
import sys
from eqmorph.equivfilter import check_bounded
from eqmorph.parser import parse
from eqmorph.refdb import dump_script
from eqmorph.sqlast import Schema, qualify

schema = Schema.of({"t0": (("a", "int"), ("b", "dec"))})
pairs = [("SELECT a FROM t0", "SELECT DISTINCT a FROM t0"),
         ("SELECT a FROM t0 WHERE b > 0", "SELECT a FROM t0 WHERE b > 1"),
         ("SELECT a FROM t0", "SELECT a FROM t0")]
for seed in sys.argv[1:]:
    for left, right in pairs:
        v = check_bounded(qualify(parse(left), schema),
                          qualify(parse(right), schema), schema,
                          budget=4, seed=seed)
        print(seed, v.budget_used, repr(getattr(v, "left_outcome", None)),
              repr(getattr(v, "right_outcome", None)),
              dump_script(v.witness) if hasattr(v, "witness") else None)
"""


def test_alternating_seeds_match_fresh_processes():
    def verdicts(*seeds):
        return subprocess.run(
            [sys.executable, "-c", _VERDICTS, *seeds], capture_output=True,
            text=True, check=True).stdout

    fresh_a, fresh_b = verdicts("A"), verdicts("B")
    assert fresh_a.replace("A ", "B ") != fresh_b  # witnesses differ
    assert verdicts("A", "B", "A", "A") == fresh_a + fresh_b + fresh_a * 2


# ---------------------------------------------------------------------------
# the proof: soundness guard and the loop


def test_proven_settles_commuted_pairs_only():
    assert proven(q("SELECT a FROM t0 WHERE a > 0 AND b > 0"),
                  q("SELECT a FROM t0 WHERE b > 0 AND a > 0"), SCHEMA)
    assert not proven(q("SELECT a FROM t0"),
                      q("SELECT DISTINCT a FROM t0"), SCHEMA)
    # a query that does not qualify is never proven, even against itself
    bad = parse("SELECT z FROM t0")
    assert not proven(bad, bad, SCHEMA)


def _variants(seed):
    """Deliberately non-equivalent variants of a seed: DISTINCT toggled,
    UNION and UNION ALL swapped, one WHERE conjunct dropped."""
    out = [replace(seed, distinct=not seed.distinct)]
    if seed.set_op is not None:
        op, rhs = seed.set_op
        out.append(replace(
            seed, set_op=(UNION_ALL if op == UNION else UNION, rhs)))
    conj = split_conjuncts(seed.where)
    if conj:
        out.append(replace(seed, where=join_conjuncts(conj[:-1])))
    return out


@pytest.fixture(scope="module")
def soundness_candidates():
    """(schema, left, right) for each of 1,000 generated seeds: the pair of
    its rule, and the seed against each of its variants."""
    out = []
    for s in range(25):
        rng = random.Random(f"prove-sound:{s}")
        schema = generate_schema(rng)
        ctx = TransformContext(
            rng=rng,
            value_hints=value_hints_of(generate_database(rng, schema)))
        for _ in range(40):
            seed = generate_seed(rng, schema)
            try:
                pair = transform_query(seed, schema, ctx)
                out.append((schema, pair.left, pair.right))
            except NoRuleApplies:
                pass
            out.extend((schema, seed, v) for v in _variants(seed))
    return out


def _proven_divergences(candidates):
    """The proven candidates that check_bounded separates on a
    256-database corpus."""
    for schema, left, right in candidates:
        if proven(left, right, schema) and isinstance(
                check_bounded(left, right, schema, budget=256,
                              seed="prove-sound"), NotEquivalent):
            yield left, right


def test_proven_pairs_never_diverge(soundness_candidates):
    assert list(_proven_divergences(soundness_candidates)) == []
    # not vacuous: every rule pair is proven, and so is DISTINCT toggled
    # over a GROUP BY that already deduplicates the select list
    assert len(soundness_candidates) == 2181
    assert sum(proven(left, right, schema)
               for schema, left, right in soundness_candidates) == 732
    # the normal form the proof compares is a fixpoint
    for schema, left, right in soundness_candidates:
        for side in (left, right):
            try:
                e = lower(qualify(side, schema))
            except (EngineError, AlgebraTypeError):
                continue
            n = algebra.commute_normal(e)
            assert algebra.commute_normal(n) == n


def test_proof_is_normal_form_equality_of_split_trees(soundness_candidates):
    """Each equivalent_mod_commute verdict is whether the two trees, their
    filters split into conjuncts, share a commute_normal form."""
    verdicts = Counter()
    for schema, left, right in soundness_candidates:
        try:
            e1 = algebra._split_filters(lower(qualify(left, schema)))
            e2 = algebra._split_filters(lower(qualify(right, schema)))
        except EngineError:
            continue
        shared = algebra.equivalent_mod_commute(e1, e2)
        assert shared == (algebra.commute_normal(e1)
                          == algebra.commute_normal(e2))
        verdicts[shared] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


@pytest.mark.parametrize("rewrite", [
    lambda n: n.child if isinstance(n, Dedup) else n,
    lambda n: Union(n.left, n.right) if isinstance(n, UnionAll) else n,
], ids=["ignores-dedup", "union-all-as-union"])
def test_guard_catches_a_broken_normal_form(soundness_candidates,
                                            monkeypatch, rewrite):
    # a commute_normal that first rewrites every node of the tree
    real = algebra.commute_normal

    def walk(e):
        if isinstance(e, (Union, UnionAll)):
            return rewrite(type(e)(walk(e.left), walk(e.right)))
        if isinstance(e, Scan):
            return e
        return rewrite(rebuild(e, walk(e.child)))

    monkeypatch.setattr(algebra, "commute_normal",
                        lambda e: real(walk(e)))
    assert next(_proven_divergences(soundness_candidates), None) is not None


def _disjoined(candidates):
    """Each left side whose WHERE clause has two conjuncts or more,
    against the same query with its last AND turned into OR."""
    for schema, left, _ in candidates:
        conj = split_conjuncts(left.where)
        if len(conj) > 1:
            yield schema, left, replace(
                left, where=Or(join_conjuncts(conj[:-1]), conj[-1]))


def test_proven_splits_conjunctions_only(soundness_candidates):
    assert proven(q("SELECT a FROM t0 WHERE a > 0 AND (b < 1 AND a < 5)"),
                  q("SELECT a FROM t0 WHERE b < 1 AND a < 5 AND a > 0"),
                  SCHEMA)
    assert not proven(
        q("SELECT a FROM t0 WHERE a > 0 OR (b < 1 AND a < 5)"),
        q("SELECT a FROM t0 WHERE (a > 0 OR b < 1) AND a < 5"), SCHEMA)
    disjoined = list(_disjoined(soundness_candidates))
    assert len(disjoined) > 100
    assert list(_proven_divergences(disjoined)) == []


def _splits_or_too(p):
    if isinstance(p, (And, Or)):
        return _splits_or_too(p.left) + _splits_or_too(p.right)
    return [p]


@pytest.mark.parametrize("broken", [
    lambda real: _splits_or_too,
    lambda real: lambda p: real(p)[:-1],
], ids=["splits-or-too", "drops-last-conjunct"])
def test_guard_catches_a_broken_split(soundness_candidates, monkeypatch,
                                      broken):
    # a proof that splits each filter predicate into the wrong conjuncts
    monkeypatch.setattr(algebra, "_filter_conjuncts",
                        broken(algebra._filter_conjuncts))
    candidates = list(_disjoined(soundness_candidates)) + soundness_candidates
    assert next(_proven_divergences(candidates), None) is not None


def test_proven_pairs_are_never_probed(monkeypatch):
    probed = []

    def recording(left, right, schema, **kwargs):
        probed.append((left, right, schema))
        return check_bounded(left, right, schema, **kwargs)

    monkeypatch.setattr(harness, "check_bounded", recording)
    cfg = GeneratorConfig(queries_per_iteration=200)
    res = run_iteration(BuiltinEndpoint("drop-distinct"), cfg, "prove", 0)
    assert res.stats.pairsEmitted > len(probed)
    assert not any(proven(*args) for args in probed)

    proven_reports = 0
    for rep in res.reports:
        schema = schema_of(load_script(rep.schemaDdl))
        if proven(parse(rep.leftSql), parse(rep.rightSql), schema):
            proven_reports += 1
            assert rep.filterBudgetUsed == 0
    assert proven_reports
