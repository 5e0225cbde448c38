import random
from collections import Counter

from eqmorph.dbgen import (
    databases_for_search, double_multiplicities, enumerate_small_databases,
    random_database,
)
from eqmorph.refdb import TableData
from eqmorph.sqlast import Schema

SCHEMA = Schema.of({"t0": (("a", "int"), ("b", "dec"))})


def test_enumeration_is_deterministic_and_bounded():
    a = enumerate_small_databases(SCHEMA, limit=8)
    b = enumerate_small_databases(SCHEMA, limit=8)
    assert len(a) == 8
    assert [dict(db["t0"].rows) for db in a] == \
        [dict(db["t0"].rows) for db in b]


def test_enumeration_includes_empty_table():
    dbs = enumerate_small_databases(SCHEMA, limit=8)
    assert any(not db["t0"].rows for db in dbs)


def test_random_database_forces_duplicates_and_nulls():
    rng = random.Random(3)
    for _ in range(20):
        db = random_database(SCHEMA, rng)
        t = db["t0"]
        assert any(m >= 2 for m in t.rows.values())
        assert any(v is None for row in t.rows for v in row)


def test_random_database_schema_conformance():
    db = random_database(SCHEMA, random.Random(1))
    assert set(db) == {"t0"}
    assert db["t0"].columns == (("a", "int"), ("b", "dec"))
    assert all(len(row) == 2 for row in db["t0"].rows)


def test_double_multiplicities():
    t = TableData((("a", "int"),), Counter({(1,): 2, (2,): 1}))
    doubled = double_multiplicities({"t": t})
    assert doubled["t"].rows == Counter({(1,): 4, (2,): 2})
    # the input is untouched
    assert t.rows == Counter({(1,): 2, (2,): 1})


def test_search_sequence_deterministic_by_seed():
    a = databases_for_search(SCHEMA, 16, "s1")
    b = databases_for_search(SCHEMA, 16, "s1")
    c = databases_for_search(SCHEMA, 16, "s2")
    key = lambda dbs: [sorted(db["t0"].rows.items(),
                              key=lambda kv: str(kv)) for db in dbs]
    assert key(a) == key(b)
    assert key(a) != key(c)
    assert len(a) == 16


def test_search_sequence_starts_with_tiny_prefix():
    dbs = databases_for_search(SCHEMA, 16, "x")
    tiny = enumerate_small_databases(SCHEMA, limit=4)
    assert [dict(d["t0"].rows) for d in dbs[:4]] == \
        [dict(d["t0"].rows) for d in tiny]


def test_every_tiny_database_after_the_first_fills_every_table():
    schema = Schema.of({"t0": (("a", "int"), ("b", "dec")),
                        "t1": (("c", "int"), ("d", "str"))})
    dbs = enumerate_small_databases(schema, limit=8)
    assert len(dbs) == 8
    assert not any(t.rows for t in dbs[0].values())
    assert all(t.rows for db in dbs[1:] for t in db.values())
