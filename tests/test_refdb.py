import random
import re
import sqlite3
from collections import Counter
from decimal import Decimal

import pytest

from eqmorph import refdb
from eqmorph.dbgen import databases_for_search, random_database
from eqmorph.harness import compare_results, generate_schema, generate_seed
from eqmorph.parser import parse
from eqmorph.refdb import (
    FAULTS, EngineError, Executor, TableData, dump_script, load_script,
    schema_of,
)
from eqmorph.sqlast import Schema, render
from eqmorph.values import row_sort_key

SCRIPT = """
CREATE TABLE t0 (a INT, b DECIMAL, c VARCHAR);
INSERT INTO t0 VALUES (1, 0.0005, 'x'), (1, 0.0005, 'x'),
                      (2, NULL, 'y'), (NULL, 1.5, 'z');
"""


@pytest.fixture
def db():
    return load_script(SCRIPT)


@pytest.fixture
def ex():
    return Executor()


def rows(ex, db, sql):
    return ex.execute(db, sql)


class TestMultisetSemantics:
    def test_projection_keeps_multiplicities(self, ex, db):
        assert rows(ex, db, "SELECT a FROM t0") == {
            (1,): 2, (2,): 1, (None,): 1}

    def test_distinct_collapses(self, ex, db):
        assert rows(ex, db, "SELECT DISTINCT a FROM t0") == {
            (1,): 1, (2,): 1, (None,): 1}

    def test_nulls_form_one_group(self, ex, db):
        got = rows(ex, db, "SELECT b, COUNT(*) FROM t0 GROUP BY b")
        assert got[(None, 1)] == 1  # the NULL group exists exactly once

    def test_where_filters_unknown(self, ex, db):
        # b is NULL for a=2, so the predicate is unknown and the row drops
        assert rows(ex, db, "SELECT a FROM t0 WHERE b > 0") == {
            (1,): 2, (None,): 1}

    def test_cross_product_multiplies(self, ex):
        db = load_script("""
            CREATE TABLE x (p INT); CREATE TABLE y (q INT);
            INSERT INTO x VALUES (1), (1);
            INSERT INTO y VALUES (5), (5), (5);
        """)
        assert rows(Executor(), db, "SELECT p, q FROM x, y") == {(1, 5): 6}

    def test_union_dedups_union_all_adds(self, ex, db):
        assert rows(ex, db, "SELECT a FROM t0 UNION SELECT a FROM t0") == {
            (1,): 1, (2,): 1, (None,): 1}
        assert rows(ex, db, "SELECT a FROM t0 UNION ALL SELECT a FROM t0") \
            == {(1,): 4, (2,): 2, (None,): 2}

    def test_two_groups_same_projection_both_count(self, ex):
        db = load_script("""
            CREATE TABLE g (a INT, b INT);
            INSERT INTO g VALUES (1, 1), (1, 2);
        """)
        # two (a,b) groups project to the same a
        assert rows(Executor(), db, "SELECT a FROM g GROUP BY a, b") == {
            (1,): 2}


class TestAggregates:
    def test_count_star_counts_nulls(self, ex, db):
        assert rows(ex, db, "SELECT COUNT(*) FROM t0") == {(4,): 1}

    def test_count_column_skips_nulls(self, ex, db):
        assert rows(ex, db, "SELECT COUNT(b) FROM t0") == {(3,): 1}

    def test_sum_exact_decimal(self, ex, db):
        assert rows(ex, db, "SELECT SUM(b) FROM t0") == {
            (Decimal("0.0010") + Decimal("1.5"),): 1}

    def test_empty_input(self, ex, db):
        got = rows(ex, db,
                   "SELECT COUNT(*), COUNT(a), SUM(a), AVG(a), MIN(a) "
                   "FROM t0 WHERE FALSE")
        assert got == {(0, 0, None, None, None): 1}

    def test_count_star_empty_matches_sqlite(self, db):
        con = sqlite3.connect(":memory:")
        con.execute("CREATE TABLE t0 (a INT)")
        (n,) = con.execute("SELECT COUNT(*) FROM t0").fetchone()
        empty = load_script("CREATE TABLE t0 (a INT);")
        assert rows(Executor(), empty, "SELECT COUNT(*) FROM t0") == {(n,): 1}

    def test_avg_deterministic_scale(self, ex):
        db = load_script("""
            CREATE TABLE v (n INT);
            INSERT INTO v VALUES (1), (2);
        """)
        got = rows(Executor(), db, "SELECT AVG(n) FROM v")
        assert got == {(Decimal("1.500000"),): 1}

    def test_min_max_strings(self, ex, db):
        assert rows(ex, db, "SELECT MIN(c), MAX(c) FROM t0") == {
            ("x", "z"): 1}


class TestSqliteDifferential:
    """The reference semantics cross-checked against SQLite on the
    well-typed integer fragment."""

    QUERIES = [
        "SELECT a FROM t0",
        "SELECT DISTINCT a FROM t0",
        "SELECT a FROM t0 WHERE a > 0",
        "SELECT a FROM t0 WHERE a > 0 AND a < 2",
        "SELECT a FROM t0 GROUP BY a",
        "SELECT a, COUNT(*) FROM t0 GROUP BY a",
        "SELECT a, SUM(a) FROM t0 GROUP BY a HAVING a > 0",
        "SELECT COUNT(*), COUNT(a), MIN(a), MAX(a), SUM(a) FROM t0",
        "SELECT a FROM t0 UNION SELECT a FROM t0",
        "SELECT a FROM t0 UNION ALL SELECT a FROM t0 WHERE a > 1",
        "SELECT a FROM t0 WHERE NOT a = 1",
    ]

    DATA = [(1,), (1,), (2,), (None,), (3,), (3,), (3,)]

    def test_agreement(self):
        con = sqlite3.connect(":memory:")
        con.execute("CREATE TABLE t0 (a INT)")
        con.executemany("INSERT INTO t0 VALUES (?)", self.DATA)
        db = {"t0": TableData((("a", "int"),), Counter(self.DATA))}
        ex = Executor()
        for sql in self.QUERIES:
            theirs = Counter(tuple(r) for r in con.execute(sql))
            ours = Counter()
            for row, m in ex.execute(db, sql).items():
                ours[row] += m
            assert ours == theirs, sql

    @staticmethod
    def _sqlite(db):
        con = sqlite3.connect(":memory:")
        for name, t in db.items():
            con.execute(f"CREATE TABLE {name} "
                        f"({', '.join(c for c, _ in t.columns)})")
            con.executemany(
                f"INSERT INTO {name} VALUES "
                f"({', '.join('?' * len(t.columns))})",
                [tuple(str(v) if isinstance(v, Decimal) else v for v in r)
                 for r, m in t.rows.items() for _ in range(m)])
        return con

    @staticmethod
    def _cell(v):
        if v is None:
            return "NULL"
        return repr(v) if isinstance(v, float) else str(v)

    def test_generated_seeds_agree(self):
        # SQLite gives DECIMAL columns numeric affinity and its own
        # arithmetic, so seeds that read one are left out
        ex = Executor()
        runs = 0
        for i in range(400):
            rng = random.Random(f"sqlite:{i}")
            schema = generate_schema(rng)
            dec = {c for _, cols in schema.tables for c, ty in cols
                   if ty == "dec"}
            seeds = [generate_seed(rng, schema) for _ in range(10)]
            seeds = [(render(q), ex.prepare(q, schema)) for q in seeds
                     if not dec & set(re.findall(r"\w+", render(q)))]
            dbs = ([random_database(schema, rng)]
                   + databases_for_search(schema, 8, i))
            for db in dbs:
                con = self._sqlite(db)
                for sql, plan in seeds:
                    ours = ex.rendered_rows(ex.run(db, plan), plan)
                    theirs = [tuple(map(self._cell, r))
                              for r in con.execute(sql)]
                    assert compare_results(ours, theirs, "canonical"), sql
                    runs += 1
        assert runs > 5000


def test_second_prepare_on_a_from_list_reads_no_columns(monkeypatch):
    """The row layout of a FROM list is worked out once per schema."""
    db = load_script("CREATE TABLE t (a INT, b VARCHAR); "
                     "CREATE TABLE u (c INT); "
                     "INSERT INTO t VALUES (1, 'x'), (2, 'y'); "
                     "INSERT INTO u VALUES (2), (3);")
    schema = schema_of(db)
    columns, read = Schema.columns, []
    monkeypatch.setattr(Schema, "columns",
                        lambda self, t: read.append(t) or columns(self, t))
    ex = Executor()
    first = ex.prepare(parse("SELECT t.a FROM t, u WHERE u.c > 2"), schema)
    assert read == ["t", "u"]
    second = ex.prepare(parse("SELECT c, b FROM t, u WHERE a = c"), schema)
    assert read == ["t", "u"]
    assert ex.run(db, first) == {(1,): 1, (2,): 1}
    assert ex.run(db, second) == {(2, "y"): 1}
    ex.prepare(parse("SELECT c FROM u"), schema)
    assert read == ["t", "u", "u"]


def test_execute_derives_the_schema_it_is_not_given():
    ex = Executor()
    runs = 0
    for i in range(40):
        rng = random.Random(f"execute-schema:{i}")
        schema = generate_schema(rng)
        db = random_database(schema, rng)
        assert schema_of(db) == schema
        for _ in range(10):
            q = generate_seed(rng, schema)
            assert ex.execute(db, q) == ex.execute(db, q, schema)
            runs += 1
    with pytest.raises(EngineError) as exc:
        ex.execute(load_script(SCRIPT), "SELECT z FROM t9")
    assert exc.value.code == "UNKNOWN_TABLE"
    assert runs == 400


class TestErrors:
    @pytest.mark.parametrize("sql,code", [
        ("SELECT a FROM nope", "UNKNOWN_TABLE"),
        ("SELECT zz FROM t0", "UNKNOWN_COLUMN"),
        ("SELECT b FROM t0 GROUP BY a", "NON_GROUPED_COLUMN"),
        ("SELECT a FROM t0 WHERE a = 'x'", "TYPE_MISMATCH"),
        ("SELECT SUM(c) FROM t0", "TYPE_MISMATCH"),
    ])
    def test_codes(self, ex, db, sql, code):
        with pytest.raises(EngineError) as exc:
            ex.execute(db, sql)
        assert exc.value.code == code

    @pytest.mark.parametrize("fault", [None, "null-where-true"])
    @pytest.mark.parametrize("where", ["a > 5 AND b > 1", "a < 5 OR b > 1"])
    def test_runtime_mismatch_evaluates_both_operands(self, fault, where):
        # b holds a string the schema calls INT; the left operand alone
        # decides the predicate, but the right one is still compared
        db = {"t": TableData((("a", "int"), ("b", "int")),
                             Counter({(0, "x"): 1}))}
        with pytest.raises(EngineError) as exc:
            Executor(fault).execute(db, f"SELECT a FROM t WHERE {where}")
        assert (exc.value.code, exc.value.message) == \
            ("TYPE_MISMATCH", "t.b > 1")

    def test_comparisons_render_no_message_unless_one_fails(
            self, monkeypatch, db):
        rendered = []
        render_pred = refdb.render_pred
        monkeypatch.setattr(refdb, "render_pred",
                            lambda p: rendered.append(p) or render_pred(p))
        ex = Executor()
        q = parse("SELECT a, COUNT(*) FROM t0 WHERE b > 0 AND c != 'q' "
                  "OR a < 5 GROUP BY a HAVING a >= 1")
        plan = ex.prepare(q, schema_of(db))
        assert ex.run(db, plan) == {(1, 2): 1, (2, 1): 1}
        assert rendered == []
        bad = {"t": TableData((("a", "int"), ("b", "int")),
                              Counter({(0, "x"): 1}))}
        with pytest.raises(EngineError) as exc:
            ex.execute(bad, "SELECT a FROM t WHERE a < 5 OR b > 1")
        assert exc.value.message == "t.b > 1"
        assert len(rendered) == 1

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            Executor("no-such-fault")


class TestFaults:
    """Each fault has a witness where it diverges from the clean engine,
    and leaves at least one related shape untouched."""

    def test_catalog_size(self):
        assert len(FAULTS) >= 6

    def test_drop_distinct(self, db):
        clean, bad = Executor(), Executor("drop-distinct")
        sql = "SELECT DISTINCT a FROM t0"
        assert rows(clean, db, sql) != rows(bad, db, sql)
        # GROUP BY deduplication is unaffected
        sql = "SELECT a FROM t0 GROUP BY a"
        assert rows(clean, db, sql) == rows(bad, db, sql)

    def test_null_where_true(self, db):
        clean, bad = Executor(), Executor("null-where-true")
        sql = "SELECT a FROM t0 WHERE b > 0"
        assert (2,) in rows(bad, db, sql)  # the unknown row leaks through
        assert (2,) not in rows(clean, db, sql)
        # HAVING still drops unknown groups
        sql = "SELECT a FROM t0 GROUP BY a HAVING a > 0"
        assert rows(clean, db, sql) == rows(bad, db, sql)

    def test_having_pre_group_keeps_ghost_groups(self, db):
        clean, bad = Executor(), Executor("having-pre-group")
        sql = "SELECT a, SUM(b) FROM t0 GROUP BY a HAVING a > 0"
        got = rows(bad, db, sql)
        assert (None, None) in got  # the NULL-key group should be gone
        assert (None, None) not in rows(clean, db, sql)
        # without HAVING the engine behaves
        sql = "SELECT a, SUM(b) FROM t0 GROUP BY a"
        assert rows(clean, db, sql) == rows(bad, db, sql)
        # grouped queries without aggregates keep their ghost groups too
        sql = "SELECT a FROM t0 GROUP BY a HAVING a > 1"
        assert rows(bad, db, sql) == {(1,): 1, (2,): 1, (None,): 1}
        assert rows(clean, db, sql) == {(2,): 1}

    def test_having_pre_group_skips_grouped_column_check(self, db):
        clean, bad = Executor(), Executor("having-pre-group")
        for sql, expected in [
            ("SELECT a, SUM(b) FROM t0 GROUP BY a HAVING b > 0",
             {(1, Decimal("0.0010")): 1, (2, None): 1,
              (None, Decimal("1.5")): 1}),
            ("SELECT a FROM t0 GROUP BY a HAVING b > 0",
             {(1,): 1, (2,): 1, (None,): 1}),
        ]:
            assert rows(bad, db, sql) == expected, sql
            with pytest.raises(EngineError) as exc:
                clean.execute(db, sql)
            assert exc.value.code == "NON_GROUPED_COLUMN", sql

    def test_having_pre_group_type_checks_having(self, db):
        q = parse("SELECT a FROM t0 GROUP BY a HAVING a > 'x'")
        for ex in (Executor(), Executor("having-pre-group")):
            with pytest.raises(EngineError) as exc:
                ex.prepare(q, schema_of(db))
            assert exc.value.code == "TYPE_MISMATCH"

    @pytest.mark.parametrize("fault", [None, "having-pre-group"])
    def test_having_unknown_column_fails_with_or_without_fault(self, db,
                                                                fault):
        with pytest.raises(EngineError) as exc:
            Executor(fault).execute(
                db, "SELECT a, SUM(b) FROM t0 GROUP BY a HAVING zz > 0")
        assert exc.value.code == "UNKNOWN_COLUMN"

    def test_union_all_as_union(self, db):
        clean, bad = Executor(), Executor("union-all-as-union")
        sql = "SELECT a FROM t0 WHERE a > 0 UNION ALL SELECT a FROM t0"
        assert sum(rows(bad, db, sql).values()) < \
            sum(rows(clean, db, sql).values())
        # no WHERE on the left operand: behaves
        sql = "SELECT a FROM t0 UNION ALL SELECT a FROM t0 WHERE a > 0"
        assert rows(clean, db, sql) == rows(bad, db, sql)

    def test_sum_skips_duplicates(self, db):
        clean, bad = Executor(), Executor("sum-skips-duplicates")
        sql = "SELECT SUM(b) FROM t0 WHERE a = 1"
        assert rows(bad, db, sql) == {(Decimal("0.0005"),): 1}
        assert rows(clean, db, sql) == {(Decimal("0.0010"),): 1}
        # without WHERE the sum is correct
        sql = "SELECT SUM(b) FROM t0"
        assert rows(clean, db, sql) == rows(bad, db, sql)

    def test_float_format_split(self, db):
        clean, bad = Executor(), Executor("float-format-split")
        sql = "SELECT a, SUM(b) FROM t0 GROUP BY a HAVING a = 1"
        q = parse(sql)
        clean_rows = clean.rendered_rows(clean.execute(db, q), q)
        bad_rows = bad.rendered_rows(bad.execute(db, q), q)
        assert clean_rows == [("1", "0.001")]
        assert bad_rows != clean_rows
        assert bad_rows[0][1].startswith("0.001000000000000000")
        # value multisets are identical: only the rendering is broken
        assert clean.execute(db, q) == bad.execute(db, q)
        # no HAVING, no breakage
        q2 = parse("SELECT SUM(b) FROM t0")
        assert bad.rendered_rows(bad.execute(db, q2), q2) == \
            clean.rendered_rows(clean.execute(db, q2), q2)


@pytest.mark.parametrize("fault", [None, "float-format-split"])
def test_rendered_rows_in_row_sort_key_order(fault):
    db = {"t": TableData(
        (("a", "int"), ("b", "dec"), ("c", "str")),
        Counter({(None, Decimal("-1.5"), "b"): 1, (-3, Decimal("10"), "a"): 2,
                 (2, None, "B"): 1, (-10, Decimal("2.25"), None): 1,
                 (2, Decimal("0.5"), "a"): 1, (0, Decimal("-0.125"), ""): 1}))}
    ex = Executor(fault)
    # HAVING switches the float-format-split fault on
    q = parse("SELECT a, b, c FROM t GROUP BY a, b, c HAVING TRUE")
    got = ex.rendered_rows(ex.execute(db, q), q)
    assert got == sorted(got, key=row_sort_key)
    assert len(got) == 6
    if fault is None:
        assert got == [
            ("-10", "2.25", "NULL"), ("-3", "10", "a"),
            ("0", "-0.125", ""), ("2", "0.5", "a"), ("2", "NULL", "B"),
            ("NULL", "-1.5", "b")]


def _outcome(ex, db, q):
    try:
        rows = ex.run(db, q)
    except EngineError as e:
        return ("error", e.code)
    return ("rows", rows, ex.rendered_rows(rows, q))


def test_scan_order_does_not_reach_results():
    """Tables are scanned in stored order, so a database whose tables hold
    the same rows in reverse order must give equal results, on the clean
    engine and under every fault."""
    executors = [Executor()] + [Executor(f) for f in sorted(FAULTS)]
    reordered = 0
    for n in range(300):
        rng = random.Random(f"scan-order:{n}")
        schema = generate_schema(rng)
        db = random_database(schema, rng)
        rev = {name: TableData(t.columns,
                               Counter(dict(reversed(t.rows.items()))))
               for name, t in db.items()}
        reordered += any(list(rev[name].rows) != list(t.rows)
                         for name, t in db.items())
        q = generate_seed(rng, schema)
        for ex in executors:
            prepared = ex.prepare(q, schema)
            assert _outcome(ex, db, prepared) == \
                _outcome(ex, rev, prepared), (ex.fault, n)
    assert reordered > 250


class TestLoaders:
    def test_dump_load_roundtrip(self, db):
        assert dump_script(load_script(dump_script(db))) == dump_script(db)

    def test_dump_preserves_multiplicity(self, db):
        assert dump_script(db).count("(1, 0.0005, 'x')") == 2

    def test_script_errors(self):
        with pytest.raises(EngineError, match="^SCRIPT: "):
            load_script("CREATE TABLE t (a WIBBLE);")
        with pytest.raises(EngineError, match="^SCRIPT: "):
            load_script("INSERT INTO missing VALUES (1);")
        with pytest.raises(EngineError, match="^SCRIPT: "):
            load_script("CREATE TABLE t (a INT); "
                        "INSERT INTO t VALUES (1, 2);")
        with pytest.raises(EngineError, match="^SCRIPT: "):
            load_script("DROP TABLE t;")

    @pytest.mark.parametrize("ddl,values", [
        ("a INT, b INT", "(0, 'x')"),
        ("a DECIMAL", "('x')"),
        ("a VARCHAR", "(1)"),
        ("a VARCHAR", "(1.5)"),
        ("a INT", "(1.5)"),
    ])
    def test_values_must_fit_their_column(self, ddl, values):
        with pytest.raises(EngineError, match="^SCRIPT: "):
            load_script(f"CREATE TABLE t ({ddl}); "
                        f"INSERT INTO t VALUES {values};")

    def test_integer_literal_fits_decimal_column(self):
        # dump_script writes Decimal("2") as 2
        db = {"t": TableData((("a", "dec"),), Counter({(Decimal("2"),): 1}))}
        assert load_script(dump_script(db))["t"].rows == Counter({(2,): 1})

    def test_string_literal_with_semicolon(self):
        db = load_script(
            "CREATE TABLE t (s VARCHAR); INSERT INTO t VALUES ('a;b');")
        assert list(db["t"].rows) == [("a;b",)]
