import gc
import json
import random
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from eqmorph import harness, sqlast
from eqmorph.adapter import BuiltinEndpoint, EngineError
from eqmorph.equivfilter import NotEquivalent
from eqmorph.harness import (
    COMPARE_MODES, BugReport, GeneratorConfig, _judge, compare_results,
    generate_database, generate_schema, generate_seed, persist_iteration,
    replay_report, run_iteration, value_hints_of,
)
from eqmorph.parser import parse
from eqmorph.refdb import STABLE_ERROR_CODES, Executor
from eqmorph.sqlast import render, validate
from eqmorph.transform import MUTANT_VS_MUTANT, SEED_VS_MUTANT


class TestGeneration:
    def test_schema_shape(self):
        schema = generate_schema(random.Random(1))
        assert 1 <= len(schema.tables) <= harness.MAX_TABLES
        names = [c for _, cols in schema.tables for c, _ in cols]
        assert len(names) == len(set(names))  # globally unique columns
        for _, cols in schema.tables:
            types = {t for _, t in cols}
            assert "int" in types and "dec" in types

    def test_weights_sum_to_one(self):
        # generate_seed compares its roll with the running sums unscaled
        assert harness.W_PLAIN + harness.W_FILTERED + harness.W_AGG \
            + harness.W_GROUPED == 1.0

    def test_seeds_parse_and_validate(self):
        rng = random.Random(42)
        for _ in range(300):
            schema = generate_schema(rng)
            q = generate_seed(rng, schema)
            assert parse(render(q)) == q
            assert validate(q, schema) == []

    def test_seed_generation_deterministic(self):

        def batch(seed):
            rng = random.Random(seed)
            schema = generate_schema(rng)
            return [render(generate_seed(rng, schema))
                    for _ in range(50)]

        assert batch("s") == batch("s")
        assert batch("s") != batch("t")

    def test_value_hints_come_from_database(self):
        rng = random.Random(9)
        schema = generate_schema(rng)
        db = generate_database(rng, schema)
        hints = value_hints_of(db)
        for (table, col), values in hints.items():
            cols = dict(dict(schema.tables)[table])
            assert col in cols
            assert values  # non-empty, NULL-free samples
            assert None not in values


class TestCompare:
    def test_canonical_folds_formatting(self):
        a = [("1", "0.5")]
        b = [("1", "0.500000000000000027755575615628914")]
        assert compare_results(a, b, "canonical")
        assert not compare_results(a, b, "raw-text")

    def test_multiplicities_matter(self):
        assert not compare_results([("1",), ("1",)], [("1",)],
                                   "canonical")

    def test_order_does_not_matter(self):
        assert compare_results([("1",), ("2",)], [("2",), ("1",)],
                               "raw-text")

    def test_arity_mismatch(self):
        assert not compare_results([("1",)], [("1", "2")], "canonical")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            compare_results([], [], "fuzzy")


class TestJudgeBoth:
    """_judge in "both" mode compares raw text first and parses cells only
    to name the mode of a divergence."""

    def judge(self, left, right):
        return _judge(left, right, "both", STABLE_ERROR_CODES)

    def test_equal_rows_agree_without_parsing(self, monkeypatch):
        parsed = []
        real = harness.parse_rendered
        monkeypatch.setattr(harness, "parse_rendered",
                            lambda c: parsed.append(c) or real(c))
        rows = [("1", "0.5"), ("NULL", "x"), ("1", "0.5")]
        assert self.judge(("rows", rows), ("rows", rows[::-1])) is None
        assert parsed == []

    def test_formatting_difference_is_raw_text(self):
        out = self.judge(("rows", [("1.5",)]), ("rows", [("1.50",)]))
        assert out[:2] == ("result-divergence", "raw-text")
        assert out[2] == {"rows": [[["1.5"], 1]]}
        assert out[3] == {"rows": [[["1.50"], 1]]}

    def test_wide_decimal_formatting_difference_is_raw_text(self):
        wide = "1" * 30 + ".5"
        out = self.judge(("rows", [(wide,)]), ("rows", [(wide + "0",)]))
        assert out[:2] == ("result-divergence", "raw-text")
        out = self.judge(("rows", [(wide,)]), ("rows", [("1" * 30 + ".6",)]))
        assert out[:2] == ("result-divergence", "canonical")

    def test_value_difference_is_canonical(self):
        for right in ([("2",)], [("1",), ("1",)], [("1", "2")]):
            out = self.judge(("rows", [("1",)]), ("rows", right))
            assert out[:2] == ("result-divergence", "canonical")

    def test_error_divergences_are_unchanged(self):
        rows = ("rows", [("1",)])
        known = ("error", EngineError("DIV_BY_ZERO", "division by zero"))
        other = ("error", EngineError("SEGFAULT", "crashed"))
        assert self.judge(known, ("error", EngineError("DIV_BY_ZERO", "")))\
            is None
        assert self.judge(known, other) == (
            "error-divergence", "n/a",
            {"error": {"code": "DIV_BY_ZERO",
                       "message": "division by zero"}},
            {"error": {"code": "SEGFAULT", "message": "crashed"}})
        assert self.judge(rows, known) is None
        assert self.judge(other, rows) == (
            "error-divergence", "n/a",
            {"error": {"code": "SEGFAULT", "message": "crashed"}},
            {"rows": [[["1"], 1]]})
        # with an empty error list, a known code is kept for triage too
        assert _judge(rows, known, "both", ()) == (
            "error-divergence", "n/a", {"rows": [[["1"], 1]]},
            {"error": {"code": "DIV_BY_ZERO",
                       "message": "division by zero"}})


@pytest.mark.parametrize("mode", COMPARE_MODES)
def test_equal_lists_agree_without_counting(monkeypatch, mode):
    monkeypatch.setattr(harness, "Counter", None)
    rows = [("1", "0.5"), ("NULL", "x"), ("1", "0.5")]
    assert _judge(("rows", rows), ("rows", list(rows)), mode,
                  STABLE_ERROR_CODES) is None


class TestRunIteration:
    CFG = GeneratorConfig(queries_per_iteration=150)

    def test_clean_engine_yields_no_reports(self):
        res = run_iteration(BuiltinEndpoint(), self.CFG, "clean-h", 0)
        s = res.stats
        assert s.generated == 150
        assert s.validAfterExecution == s.generated
        assert s.pairsEmitted > 0
        assert s.mismatches == 0 and not res.reports

    def test_faulty_engine_is_flagged(self):
        res = run_iteration(BuiltinEndpoint("drop-distinct"), self.CFG,
                            "fault-h", 0)
        assert res.stats.mismatches >= 1
        rep = res.reports[0]
        assert rep.kind in ("result-divergence", "error-divergence")
        assert rep.targetId == "builtin:drop-distinct"
        assert rep.leftSql != rep.rightSql

    def test_empty_rule_list_enables_no_rule(self):
        s = run_iteration(BuiltinEndpoint(), self.CFG, "clean-h", 0,
                          enabled_rules=[]).stats
        assert s.validAfterExecution == s.generated
        assert s.pairsEmitted == s.pairsFiltered == 0

    def test_deterministic_given_seed(self):
        a = run_iteration(BuiltinEndpoint("null-where-true"), self.CFG,
                          "det-h", 3)
        b = run_iteration(BuiltinEndpoint("null-where-true"), self.CFG,
                          "det-h", 3)
        strip = lambda r: {k: v for k, v in r.__dict__.items()
                           if k != "timestamp"}
        assert [strip(r) for r in a.reports] == [strip(r) for r in b.reports]
        sa, sb = dict(a.stats.__dict__), dict(b.stats.__dict__)
        sa.pop("elapsed"), sb.pop("elapsed")
        assert sa == sb

    def test_persist_and_replay_roundtrip(self, tmp_path):
        res = None
        for it in range(5):  # the fault needs a SUM-under-WHERE pair
            res = run_iteration(BuiltinEndpoint("sum-skips-duplicates"),
                                self.CFG, "replay-h", it)
            if res.reports:
                break
        assert res.reports
        persist_iteration(tmp_path, res)
        files = sorted(p.name for p in tmp_path.iterdir())
        rep_json = [f for f in files if f.endswith(".json")]
        assert rep_json and "stats.jsonl" in files
        data = json.loads((tmp_path / rep_json[0]).read_text())
        rep = BugReport(**data)
        # the fault reproduces; a clean engine does not show the bug
        assert replay_report(rep, BuiltinEndpoint("sum-skips-duplicates"))\
            .reproduced
        assert not replay_report(rep, BuiltinEndpoint()).reproduced

    def test_reproducer_sql_is_loadable(self):
        res = run_iteration(BuiltinEndpoint("drop-distinct"), self.CFG,
                            "sql-h", 0)
        from eqmorph.refdb import Executor, load_script
        rep = res.reports[0]
        text = rep.reproducer_sql()
        script = "\n".join(l for l in text.splitlines()
                           if not l.startswith("--")
                           and not l.upper().startswith("SELECT"))
        db = load_script(script)
        ex = Executor()
        ex.execute(db, rep.leftSql)
        ex.execute(db, rep.rightSql)

    def test_stats_jsonl_appends(self, tmp_path):
        res = run_iteration(BuiltinEndpoint(), GeneratorConfig(
            queries_per_iteration=20), "app-h", 0)
        persist_iteration(tmp_path, res)
        persist_iteration(tmp_path, res)
        lines = (tmp_path / "stats.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["generated"] == 20


def test_a_write_cut_short_leaves_no_partial_report(tmp_path, monkeypatch):
    res = run_iteration(BuiltinEndpoint("drop-distinct"), GeneratorConfig(
        queries_per_iteration=200), "atomic", 0)
    assert res.reports
    real = Path.write_text

    def cut_short(path, text):
        real(path, text[:len(text) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", cut_short)
    with pytest.raises(OSError):
        persist_iteration(tmp_path, res)
    # no report, no stats line, and no hidden temporary file
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    # a whole write leaves the files and no temporary one
    persist_iteration(tmp_path, res)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"report-{r.id}{ext}" for r in res.reports
         for ext in (".json", ".sql")] + ["stats.jsonl"])


def record_turns(monkeypatch, endpoint):
    """One dict per seed's turn of the next run_iteration: the seed's text,
    its pair (None when no rule applies), whether the filter dropped the
    pair, and the texts sent to endpoint."""
    turns = []

    def wrap(name, on_result):
        real = getattr(harness, name)

        def traced(*args, **kwargs):
            out = real(*args, **kwargs)
            on_result(out)
            return out
        monkeypatch.setattr(harness, name, traced)

    wrap("generate_seed", lambda q: turns.append(
        {"seed": render(q), "sent": [], "pair": None, "filtered": False}))
    wrap("transform_query", lambda p: turns[-1].update(pair=p))
    wrap("check_bounded", lambda v: turns[-1].update(
        filtered=isinstance(v, NotEquivalent)))
    real_exec = endpoint.exec_sql

    def exec_sql(sql):
        turns[-1]["sent"].append(sql)
        return real_exec(sql)
    monkeypatch.setattr(endpoint, "exec_sql", exec_sql)
    return turns


def emitted(turn):
    return turn["pair"] is not None and not turn["filtered"]


@pytest.mark.parametrize("fault", [None, "drop-distinct"])
def test_one_engine_run_per_distinct_statement(monkeypatch, fault):
    """A turn with an emitted pair sends the pair's two sides, each once,
    and nothing else; any other turn sends its seed alone, once."""
    endpoint = BuiltinEndpoint(fault)
    turns = record_turns(monkeypatch, endpoint)
    res = run_iteration(endpoint, GeneratorConfig(queries_per_iteration=150),
                        "one-run", 0)
    s = res.stats
    assert len(turns) == s.generated == 150
    for t in turns:
        if emitted(t):
            sides = [render(t["pair"].left), render(t["pair"].right)]
            assert sides[0] != sides[1]
            assert t["sent"] == sides
        else:
            assert t["sent"] == [t["seed"]]
    # not vacuous: pairs with and without the seed's text, pairless seeds
    assert 0 < sum(map(emitted, turns)) == s.pairsEmitted < s.generated
    assert any(emitted(t) and t["seed"] in t["sent"] for t in turns)
    assert any(emitted(t) and t["seed"] not in t["sent"] for t in turns)
    calls = sum(len(t["sent"]) for t in turns)
    assert calls == 2 * s.pairsEmitted + (s.generated - s.pairsEmitted)
    assert bool(res.reports) == (fault is not None)
    for rep in res.reports:
        assert replay_report(rep, BuiltinEndpoint(fault)).reproduced


# ---------------------------------------------------------------------------
# seed validity: a seed is valid when every statement it sends runs


class FailingEndpoint(BuiltinEndpoint):
    """The clean engine, except that each text in fail raises EngineError
    with the code fail gives it; every text sent is kept in sent."""

    def __init__(self, fail):
        super().__init__()
        self.fail = fail
        self.sent = []

    def exec_sql(self, sql):
        self.sent.append(sql)
        if sql in self.fail:
            raise EngineError(self.fail[sql], "injected")
        return super().exec_sql(sql)


VALIDITY_CFG = GeneratorConfig(queries_per_iteration=120)
UNLISTED = "SEGFAULT"
assert UNLISTED not in STABLE_ERROR_CODES


@pytest.fixture
def clean_turns(monkeypatch):
    """The turns and stats of one clean iteration, and the texts it sends
    exactly once, so failing one of them touches one turn only."""
    endpoint = BuiltinEndpoint()
    turns = record_turns(monkeypatch, endpoint)
    stats = run_iteration(endpoint, VALIDITY_CFG, "validity", 0).stats
    monkeypatch.undo()
    sent = Counter(sql for t in turns for sql in t["sent"])
    return turns, stats, {sql for sql, n in sent.items() if n == 1}


def run_failing(clean_turns, fail):
    """The clean iteration again, on an engine that fails the texts in
    fail; it must send what the clean run sent and count every seed and
    pair as it did, with one seed less valid."""
    turns, clean, _ = clean_turns
    endpoint = FailingEndpoint(fail)
    res = run_iteration(endpoint, VALIDITY_CFG, "validity", 0)
    assert endpoint.sent == [sql for t in turns for sql in t["sent"]]
    s = res.stats
    assert (s.generated, s.pairsEmitted, s.pairsFiltered) == \
        (clean.generated, clean.pairsEmitted, clean.pairsFiltered)
    assert clean.validAfterExecution == clean.generated
    assert s.validAfterExecution == clean.generated - 1
    assert s.mismatches == len(res.reports)
    return endpoint, res


def pairless_seed(clean_turns):
    turns, _, once = clean_turns
    return next(t["seed"] for t in turns
                if not emitted(t) and t["seed"] in once)


def pair_sides(clean_turns, pairing):
    """The two texts of the first emitted pair of that pairing whose
    sides are each sent once in the iteration."""
    turns, _, once = clean_turns
    return next(t["sent"] for t in turns
                if emitted(t) and t["pair"].pairing == pairing
                and set(t["sent"]) <= once)


@pytest.mark.parametrize("code", [STABLE_ERROR_CODES[0], UNLISTED])
def test_failing_pairless_seed_is_invalid_and_unreported(clean_turns, code):
    """A seed with no pair to compare sends itself; if that fails, with
    any code, the seed is not valid and nothing is reported."""
    _, res = run_failing(clean_turns, {pairless_seed(clean_turns): code})
    assert res.reports == []


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("pairing", [SEED_VS_MUTANT, MUTANT_VS_MUTANT])
def test_side_failing_with_a_listed_code_is_invalid_and_unreported(
        clean_turns, pairing, side):
    sides = pair_sides(clean_turns, pairing)
    for code in STABLE_ERROR_CODES:
        _, res = run_failing(clean_turns, {sides[side]: code})
        assert res.reports == []


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("pairing", [SEED_VS_MUTANT, MUTANT_VS_MUTANT])
def test_side_failing_with_an_unlisted_code_is_an_error_divergence(
        clean_turns, pairing, side):
    """A side the engine rejects with a code outside the list is judged,
    seed-vs-mutant pairs included, where a failing seed was once dropped
    before its pair was built."""
    sides = pair_sides(clean_turns, pairing)
    endpoint, res = run_failing(clean_turns, {sides[side]: UNLISTED})
    [rep] = res.reports
    assert (rep.kind, rep.compareMode) == ("error-divergence", "n/a")
    assert [rep.leftSql, rep.rightSql] == sides
    assert rep.pairing == pairing
    results = [rep.leftResult, rep.rightResult]
    assert results[side] == {"error": {"code": UNLISTED,
                                       "message": "injected"}}
    assert "rows" in results[1 - side]
    assert replay_report(rep, endpoint).reproduced
    assert not replay_report(rep, BuiltinEndpoint()).reproduced


@pytest.mark.parametrize("code", [STABLE_ERROR_CODES[0], UNLISTED])
def test_both_sides_failing_with_one_code_are_unreported(clean_turns, code):
    sides = pair_sides(clean_turns, MUTANT_VS_MUTANT)
    _, res = run_failing(clean_turns, dict.fromkeys(sides, code))
    assert res.reports == []


def test_vetting_redoes_no_work(monkeypatch):
    """Only the engine's prepare qualifies (transform_query trusts the
    generated seed), and the proof compares the trees each pair carries,
    on a clean engine and on one whose fault is reported."""
    real_qualify = sqlast.qualify
    callers = Counter()

    def counting(q, schema):
        callers[sys._getframe(1).f_code] += 1
        return real_qualify(q, schema)

    for name, module in list(sys.modules.items()):
        if name == "eqmorph" or name.startswith("eqmorph."):
            for attr, value in list(vars(module).items()):
                if value is real_qualify:
                    monkeypatch.setattr(module, attr, counting)

    pairs, proofs = [], []
    real_transform = harness.transform_query
    real_proof = harness.equivalent_mod_commute

    def transform_query(seed, schema, ctx):
        pairs.append(real_transform(seed, schema, ctx))
        return pairs[-1]

    def proof(e1, e2):
        proofs.append((e1, e2))
        return real_proof(e1, e2)

    monkeypatch.setattr(harness, "transform_query", transform_query)
    monkeypatch.setattr(harness, "equivalent_mod_commute", proof)
    cfg = GeneratorConfig(queries_per_iteration=50, filter_budget=32)
    for fault in (None, "drop-distinct"):
        callers.clear()
        pairs.clear()
        proofs.clear()
        res = run_iteration(BuiltinEndpoint(fault), cfg, "no-redo", 0)

        assert (fault is None) == (not res.reports)
        assert set(callers) == {Executor.prepare.__code__}
        assert pairs and len(proofs) == len(pairs)
        for pair, (e1, e2) in zip(pairs, proofs):
            assert e1 is pair.left_tree and e2 is pair.right_tree


def test_no_state_crosses_campaigns():
    """What outlives one call (the lexer's caches, a query's kept text)
    cannot change a campaign: iteration 0 of one seed gives the same
    stats and reports before and after another seed ran in the process."""
    cfg = GeneratorConfig(queries_per_iteration=150)

    def run(seed, iteration):
        res = run_iteration(BuiltinEndpoint("drop-distinct"), cfg, seed,
                            iteration)
        stats = json.loads(res.stats.to_json())
        stats.pop("elapsed")
        reports = [json.loads(rep.to_json()) for rep in res.reports]
        for rep in reports:
            rep.pop("timestamp")
        return stats, reports

    first = run("state-a", 0)
    assert first[1]
    for iteration in (0, 1):
        run("state-b", iteration)
    assert run("state-a", 0) == first


@pytest.mark.parametrize("fault,iterations", [(None, 5), ("drop-distinct", 3)])
def test_iterations_leave_no_garbage_cycles(fault, iterations):
    """Every object an iteration makes is freed by reference counting, so
    none waits for the cycle collector (a nested function that calls
    itself, say, is a cycle on every call)."""
    ep = BuiltinEndpoint(fault)
    cfg = GeneratorConfig(queries_per_iteration=50)
    run_iteration(ep, cfg, "no-cycles", 0)  # warm what outlives a call
    gc.collect()
    gc.disable()
    try:
        for k in range(1, iterations + 1):
            run_iteration(ep, cfg, "no-cycles", k)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_iterations_keep_the_traced_heap_flat():
    """Nothing a campaign keeps grows with the iterations it runs: once
    the bounded tables are warm, 60 more builtin iterations leave the
    Python heap, as tracemalloc sees it after a collection, within 16 KB
    of where it was."""
    ep = BuiltinEndpoint()
    cfg = GeneratorConfig(queries_per_iteration=50)
    for k in range(20):
        run_iteration(ep, cfg, "flat-heap", k)
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for k in range(20, 80):
            run_iteration(ep, cfg, "flat-heap", k)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16 * 1024, grown
