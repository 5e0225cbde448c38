import subprocess
import sys

from eqmorph import equivfilter
from eqmorph.adapter import BuiltinEndpoint
from eqmorph.dbgen import databases_for_search
from eqmorph.equivfilter import (
    DEFAULT_BUDGET, NoCounterexample, NotEquivalent, check_bounded,
)
from eqmorph.harness import GeneratorConfig, run_iteration
from eqmorph.parser import parse
from eqmorph.refdb import ExecError, Executor
from eqmorph.sqlast import Schema, qualify

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
    assert ex.execute(v.witness, left).rows != \
        ex.execute(v.witness, right).rows


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
    assert isinstance(v.right_outcome, ExecError)


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
