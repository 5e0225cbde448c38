import json
import random

import pytest

from eqmorph import harness
from eqmorph.adapter import BuiltinEndpoint, EngineError
from eqmorph.equivfilter import NotEquivalent
from eqmorph.harness import (
    COMPARE_MODES, BugReport, GeneratorConfig, _judge, compare_results,
    generate_database, generate_schema, generate_seed, persist_iteration,
    replay_report, run_iteration, value_hints_of,
)
from eqmorph.parser import parse
from eqmorph.refdb import STABLE_ERROR_CODES
from eqmorph.sqlast import render, validate


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


@pytest.mark.parametrize("fault", [None, "drop-distinct"])
def test_one_engine_run_per_distinct_statement(monkeypatch, fault):
    """Each seed's turn sends a text to the engine at most once: a pair
    side that renders to the seed's text reuses the seed's rows."""
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
    endpoint = BuiltinEndpoint(fault)
    real_exec = endpoint.exec_sql

    def exec_sql(sql):
        turns[-1]["sent"].append(sql)
        return real_exec(sql)
    monkeypatch.setattr(endpoint, "exec_sql", exec_sql)

    res = run_iteration(endpoint, GeneratorConfig(queries_per_iteration=150),
                        "one-run", 0)
    assert len(turns) == res.stats.generated == 150
    differing = 0
    for t in turns:
        assert t["sent"][0] == t["seed"]
        assert len(set(t["sent"])) == len(t["sent"])
        if t["pair"] is not None and not t["filtered"]:
            differing += sum(render(side) != t["seed"]
                             for side in (t["pair"].left, t["pair"].right))
    calls = sum(len(t["sent"]) for t in turns)
    assert calls == res.stats.generated + differing
    assert calls < res.stats.generated + 2 * res.stats.pairsEmitted
    assert bool(res.reports) == (fault is not None)
    for rep in res.reports:
        assert replay_report(rep, BuiltinEndpoint(fault)).reproduced


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
