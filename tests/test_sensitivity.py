import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from eqmorph.algebra import Dedup, RemapError, Scan, lower
from eqmorph.equivfilter import NoCounterexample, NotEquivalent
from eqmorph.parser import parse
from eqmorph.sensitivity import Sensitivity, classify, sensitivity_oracle
from eqmorph.sqlast import ColumnRef, Schema, qualify

SCHEMA = Schema.of({"t0": (("a", "int"), ("b", "dec"), ("c", "str"))})

S, I = Sensitivity.SENSITIVE, Sensitivity.INSENSITIVE


def cls(sql):
    return classify(lower(qualify(parse(sql), SCHEMA)))


class TestClassify:
    @pytest.mark.parametrize("sql,expected", [
        # the output doubles
        ("SELECT a FROM t0", S),
        ("SELECT a FROM t0 WHERE a > 0", S),
        ("SELECT a FROM t0 UNION ALL SELECT a FROM t0", S),
        ("SELECT COUNT(*) FROM t0", S),
        ("SELECT SUM(b), AVG(b) FROM t0", S),
        # dedup, grouping and UNION keep the output the same
        ("SELECT DISTINCT a FROM t0", I),
        ("SELECT a FROM t0 GROUP BY a", I),
        ("SELECT a FROM t0 UNION SELECT a FROM t0", I),
        ("SELECT MIN(a) FROM t0", I),
        ("SELECT a, MIN(b) FROM t0 GROUP BY a", I),
        # COUNT, SUM or AVG over a multiset sees every duplicate, whatever
        # collapses rows around it
        ("SELECT a, COUNT(*) FROM t0 GROUP BY a", S),
        ("SELECT SUM(b) FROM t0 UNION SELECT SUM(b) FROM t0", S),
        ("SELECT DISTINCT a, SUM(b) FROM t0 GROUP BY a", S),
        ("SELECT a, SUM(b), MIN(b) FROM t0 GROUP BY a", S),
        # a UNION ALL of a deduplicated and a plain operand: only the plain
        # side doubles
        ("SELECT DISTINCT a FROM t0 UNION ALL SELECT a FROM t0", S),
    ])
    def test_examples(self, sql, expected):
        assert cls(sql) is expected

    def test_bare_scan_is_sensitive(self):
        from eqmorph.algebra import Scan
        assert classify(Scan(("t0",))) is S


class TestOracle:
    def check(self, sql, seed="t"):
        e = lower(qualify(parse(sql), SCHEMA))
        return sensitivity_oracle(e, SCHEMA, budget=48, seed=seed)

    @pytest.mark.parametrize("sql", [
        "SELECT a FROM t0",
        "SELECT a FROM t0 WHERE a > 0",
        "SELECT COUNT(*) FROM t0",
        "SELECT SUM(b) FROM t0",
        "SELECT a FROM t0 UNION ALL SELECT a FROM t0",
    ])
    def test_sensitive_queries_have_witnesses(self, sql):
        assert isinstance(self.check(sql), NotEquivalent)

    @pytest.mark.parametrize("sql", [
        "SELECT DISTINCT a FROM t0",
        "SELECT a FROM t0 GROUP BY a",
        "SELECT MIN(a), MAX(a) FROM t0",
        "SELECT a FROM t0 UNION SELECT a FROM t0",
        "SELECT a, MIN(b) FROM t0 GROUP BY a",
    ])
    def test_insensitive_queries_have_none(self, sql):
        assert isinstance(self.check(sql), NoCounterexample)

    def test_witness_actually_distinguishes(self):
        from eqmorph.dbgen import double_multiplicities
        from eqmorph.refdb import Executor
        e = lower(qualify(parse("SELECT COUNT(*) FROM t0"), SCHEMA))
        v = sensitivity_oracle(e, SCHEMA, budget=48, seed="w")
        assert isinstance(v, NotEquivalent)
        ex = Executor()
        sql = "SELECT COUNT(*) FROM t0"
        assert ex.execute(v.witness, sql) != \
            ex.execute(double_multiplicities(v.witness), sql)

    @pytest.mark.parametrize("e", [
        Scan(("t0",)),
        Dedup(tuple(ColumnRef(c, "t0") for c in "abc"), Scan(("t0",))),
    ])
    def test_tree_with_no_sql_form_is_a_remap_error(self, e):
        classify(e)
        with pytest.raises(RemapError):
            sensitivity_oracle(e, SCHEMA, budget=8)

    def test_bad_budget(self):
        e = lower(qualify(parse("SELECT a FROM t0"), SCHEMA))
        with pytest.raises(ValueError, match="need a positive budget"):
            sensitivity_oracle(e, SCHEMA, budget=0)


# one-column operands over t0: plain, DISTINCT, GROUP BY and aggregate
SET_OPERANDS = (
    "SELECT a FROM t0", "SELECT a FROM t0 WHERE b > 0",
    "SELECT DISTINCT a FROM t0", "SELECT DISTINCT a FROM t0 WHERE b > 0",
    "SELECT a FROM t0 GROUP BY a", "SELECT a FROM t0 GROUP BY a, b",
    "SELECT a FROM t0 GROUP BY a HAVING a > 0",
    "SELECT COUNT(*) FROM t0", "SELECT MIN(a) FROM t0",
    "SELECT SUM(a) FROM t0", "SELECT MAX(a) FROM t0 GROUP BY b",
    "SELECT COUNT(a) FROM t0 GROUP BY a",
)


def test_insensitive_set_operations_have_no_witness():
    """The fold is sound beyond the generated fragment: no UNION or UNION
    ALL of two operand shapes that it calls insensitive has a doubling
    witness."""
    witnessed = []
    for left, right in itertools.product(SET_OPERANDS, repeat=2):
        for op in ("UNION", "UNION ALL"):
            sql = f"{left} {op} {right}"
            e = lower(qualify(parse(sql), SCHEMA))
            if classify(e) is I and isinstance(
                    sensitivity_oracle(e, SCHEMA, budget=64, seed=sql),
                    NotEquivalent):
                witnessed.append(sql)
    assert witnessed == []


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_static_insensitive_implies_no_witness(n):
    """The static fold is sound on the generated fragment: whenever it
    says insensitive, the bounded dynamic search finds no witness."""
    from eqmorph.harness import generate_schema, generate_seed
    rng = random.Random(n)
    schema = generate_schema(rng)
    e = lower(qualify(generate_seed(rng, schema), schema))
    if classify(e) is Sensitivity.INSENSITIVE:
        v = sensitivity_oracle(e, schema, budget=32, seed=f"h:{n}")
        assert isinstance(v, NoCounterexample)
