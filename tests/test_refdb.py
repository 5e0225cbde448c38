import random
import sqlite3
from collections import Counter
from decimal import Decimal

import pytest

from eqmorph import refdb
from eqmorph.dbgen import random_database
from eqmorph.harness import generate_schema, generate_seed
from eqmorph.parser import parse
from eqmorph.refdb import (
    FAULTS, ExecError, Executor, ScriptError, TableData, UnknownFault,
    dump_script, load_script, schema_of,
)
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


class TestErrors:
    @pytest.mark.parametrize("sql,code", [
        ("SELECT a FROM nope", "UNKNOWN_TABLE"),
        ("SELECT zz FROM t0", "UNKNOWN_COLUMN"),
        ("SELECT b FROM t0 GROUP BY a", "NON_GROUPED_COLUMN"),
        ("SELECT a FROM t0 WHERE a = 'x'", "TYPE_MISMATCH"),
        ("SELECT SUM(c) FROM t0", "TYPE_MISMATCH"),
    ])
    def test_codes(self, ex, db, sql, code):
        with pytest.raises(ExecError) as exc:
            ex.execute(db, sql)
        assert exc.value.code == code

    @pytest.mark.parametrize("fault", [None, "null-where-true"])
    @pytest.mark.parametrize("where", ["a > 5 AND b > 1", "a < 5 OR b > 1"])
    def test_runtime_mismatch_evaluates_both_operands(self, fault, where):
        # b holds a string the schema calls INT; the left operand alone
        # decides the predicate, but the right one is still compared
        db = {"t": TableData((("a", "int"), ("b", "int")),
                             Counter({(0, "x"): 1}))}
        with pytest.raises(ExecError) as exc:
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
        with pytest.raises(ExecError) as exc:
            ex.execute(bad, "SELECT a FROM t WHERE a < 5 OR b > 1")
        assert exc.value.message == "t.b > 1"
        assert len(rendered) == 1

    def test_unknown_fault_rejected(self):
        with pytest.raises(UnknownFault):
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
            with pytest.raises(ExecError) as exc:
                clean.execute(db, sql)
            assert exc.value.code == "NON_GROUPED_COLUMN", sql

    def test_having_pre_group_type_checks_having(self, db):
        q = parse("SELECT a FROM t0 GROUP BY a HAVING a > 'x'")
        for ex in (Executor(), Executor("having-pre-group")):
            with pytest.raises(ExecError) as exc:
                ex.prepare(q, schema_of(db))
            assert exc.value.code == "TYPE_MISMATCH"

    @pytest.mark.parametrize("fault", [None, "having-pre-group"])
    def test_having_unknown_column_fails_with_or_without_fault(self, db,
                                                                fault):
        with pytest.raises(ExecError) as exc:
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
    except ExecError as e:
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
        with pytest.raises(ScriptError):
            load_script("CREATE TABLE t (a WIBBLE);")
        with pytest.raises(ScriptError):
            load_script("INSERT INTO missing VALUES (1);")
        with pytest.raises(ScriptError):
            load_script("CREATE TABLE t (a INT); "
                        "INSERT INTO t VALUES (1, 2);")
        with pytest.raises(ScriptError):
            load_script("DROP TABLE t;")

    @pytest.mark.parametrize("ddl,values", [
        ("a INT, b INT", "(0, 'x')"),
        ("a DECIMAL", "('x')"),
        ("a VARCHAR", "(1)"),
        ("a VARCHAR", "(1.5)"),
        ("a INT", "(1.5)"),
    ])
    def test_values_must_fit_their_column(self, ddl, values):
        with pytest.raises(ScriptError):
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
