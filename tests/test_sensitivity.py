import random

import pytest
from hypothesis import given, settings, strategies as st

from eqmorph.algebra import lower
from eqmorph.parser import parse
from eqmorph.sensitivity import (
    NoWitnessWithinBudget, OracleBudgetError, Sensitivity, WitnessFound,
    classify, operator_atoms, sensitivity_oracle,
)
from eqmorph.sqlast import Schema, qualify

SCHEMA = Schema.of({"t0": (("a", "int"), ("b", "dec"), ("c", "str"))})

S, I = Sensitivity.SENSITIVE, Sensitivity.INSENSITIVE


def cls(sql):
    return classify(lower(qualify(parse(sql), SCHEMA)))


class TestClassify:
    @pytest.mark.parametrize("sql,expected", [
        # every atom sensitive -> sensitive
        ("SELECT a FROM t0", S),
        ("SELECT a FROM t0 WHERE a > 0", S),
        ("SELECT a FROM t0 UNION ALL SELECT a FROM t0", S),
        ("SELECT COUNT(*) FROM t0", S),
        ("SELECT SUM(b), AVG(b) FROM t0", S),
        # one insensitive atom poisons the whole tree
        ("SELECT DISTINCT a FROM t0", I),
        ("SELECT a FROM t0 GROUP BY a", I),
        ("SELECT a FROM t0 UNION SELECT a FROM t0", I),
        ("SELECT MIN(a) FROM t0", I),
        ("SELECT DISTINCT a FROM t0 UNION ALL SELECT a FROM t0", I),
        ("SELECT a, MIN(b) FROM t0 GROUP BY a", I),
        # COUNT, SUM or AVG over a multiset sees every duplicate, whatever
        # collapses rows around it
        ("SELECT a, COUNT(*) FROM t0 GROUP BY a", S),
        ("SELECT SUM(b) FROM t0 UNION SELECT SUM(b) FROM t0", S),
        ("SELECT DISTINCT a, SUM(b) FROM t0 GROUP BY a", S),
    ])
    def test_examples(self, sql, expected):
        assert cls(sql) is expected

    def test_atoms_of_grouped_aggregate(self):
        e = lower(qualify(
            parse("SELECT a, SUM(b), MIN(b) FROM t0 GROUP BY a"), SCHEMA))
        atoms = dict(operator_atoms(e))
        assert atoms["group"] is I
        assert atoms["sum"] is S
        assert atoms["min"] is I

    def test_ungrouped_aggregate_has_no_group_atom(self):
        e = lower(qualify(parse("SELECT COUNT(*) FROM t0"), SCHEMA))
        assert [lbl for lbl, _ in operator_atoms(e)] == ["count"]

    def test_bare_scan_is_sensitive(self):
        from eqmorph.algebra import Scan
        assert operator_atoms(Scan(("t0",))) == []
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
        assert isinstance(self.check(sql), WitnessFound)

    @pytest.mark.parametrize("sql", [
        "SELECT DISTINCT a FROM t0",
        "SELECT a FROM t0 GROUP BY a",
        "SELECT MIN(a), MAX(a) FROM t0",
        "SELECT a FROM t0 UNION SELECT a FROM t0",
        "SELECT a, MIN(b) FROM t0 GROUP BY a",
    ])
    def test_insensitive_queries_have_none(self, sql):
        assert isinstance(self.check(sql), NoWitnessWithinBudget)

    def test_witness_actually_distinguishes(self):
        from eqmorph.dbgen import double_multiplicities
        from eqmorph.refdb import Executor
        e = lower(qualify(parse("SELECT COUNT(*) FROM t0"), SCHEMA))
        v = sensitivity_oracle(e, SCHEMA, budget=48, seed="w")
        assert isinstance(v, WitnessFound)
        ex = Executor()
        sql = "SELECT COUNT(*) FROM t0"
        assert ex.execute(v.database, sql).rows != \
            ex.execute(double_multiplicities(v.database), sql).rows

    def test_bad_budget(self):
        e = lower(qualify(parse("SELECT a FROM t0"), SCHEMA))
        with pytest.raises(OracleBudgetError):
            sensitivity_oracle(e, SCHEMA, budget=0)


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
        assert isinstance(v, NoWitnessWithinBudget)
