import json
import random

import pytest

from eqmorph.adapter import BuiltinEndpoint
from eqmorph.harness import (
    DEFAULT_ERROR_LIST, DISCARD, KEEP_FOR_TRIAGE, BugReport, GeneratorConfig,
    compare_results, filter_error, generate_database, generate_schema,
    generate_seed, persist_iteration, replay_report, run_iteration,
    value_hints_of,
)
from eqmorph.parser import parse
from eqmorph.sqlast import render, validate


class TestGeneration:
    def test_schema_shape(self):
        cfg = GeneratorConfig()
        schema = generate_schema(random.Random(1), cfg)
        assert 1 <= len(schema.tables) <= cfg.max_tables
        names = [c for _, cols in schema.tables for c, _ in cols]
        assert len(names) == len(set(names))  # globally unique columns
        for _, cols in schema.tables:
            types = {t for _, t in cols}
            assert "int" in types and "dec" in types

    def test_seeds_parse_and_validate(self):
        cfg = GeneratorConfig()
        rng = random.Random(42)
        for _ in range(300):
            schema = generate_schema(rng, cfg)
            q = generate_seed(rng, schema, cfg)
            assert parse(render(q)) == q
            assert validate(q, schema) == []

    def test_seed_generation_deterministic(self):
        cfg = GeneratorConfig()

        def batch(seed):
            rng = random.Random(seed)
            schema = generate_schema(rng, cfg)
            return [render(generate_seed(rng, schema, cfg))
                    for _ in range(50)]

        assert batch("s") == batch("s")
        assert batch("s") != batch("t")

    def test_value_hints_come_from_database(self):
        cfg = GeneratorConfig()
        rng = random.Random(9)
        schema = generate_schema(rng, cfg)
        db = generate_database(rng, schema, cfg)
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
        assert compare_results(a, b, "canonical").equal
        assert not compare_results(a, b, "raw-text").equal

    def test_multiplicities_matter(self):
        assert not compare_results([("1",), ("1",)], [("1",)],
                                   "canonical").equal

    def test_order_does_not_matter(self):
        assert compare_results([("1",), ("2",)], [("2",), ("1",)],
                               "raw-text").equal

    def test_arity_mismatch(self):
        c = compare_results([("1",)], [("1", "2")], "canonical")
        assert not c.equal and "arity" in c.detail

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            compare_results([], [], "fuzzy")


def test_filter_error_policy():
    assert filter_error("UNKNOWN_COLUMN") == DISCARD
    assert filter_error("SEGFAULT") == KEEP_FOR_TRIAGE
    assert filter_error("UNKNOWN_COLUMN", error_list=()) == KEEP_FOR_TRIAGE
    assert set(DEFAULT_ERROR_LIST) >= {"UNKNOWN_TABLE", "UNKNOWN_COLUMN"}


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
