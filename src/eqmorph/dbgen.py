"""Small-database generation shared by the equivalence filter, the
duplicate-sensitivity oracle, and the campaign harness.

Two flavors: a deterministic enumeration of tiny databases over a minimal
value domain (good at exposing logic differences), and seeded random
databases that force duplicated rows and NULLs into every table (good at
exposing multiplicity and three-valued-logic differences).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from decimal import Decimal

from .refdb import Database, TableData
from .sqlast import Schema

TINY_POOLS = {
    "int": (None, 0, 1),
    "dec": (None, Decimal("0"), Decimal("0.5")),
    "str": (None, "a", "b"),
}

RANDOM_POOLS = {
    "int": (0, 1, 2, 3, -1, 5),
    "dec": (Decimal("0.0005"), Decimal("0.001"), Decimal("1.5"),
            Decimal("-2.25"), Decimal("0"), Decimal("2")),
    "str": ("a", "b", "c", "aa"),
}

NULL_PROBABILITY = 0.2
# rows drawn per table of a random database, before the forced duplicate
# and NULL
MIN_ROWS = 1
MAX_ROWS = 6


def enumerate_small_databases(schema: Schema, limit: int = 8):
    """Deterministic tiny databases: up to two distinct rows per table.
    The k-th database takes each table's k-th option, so the first is
    empty and every later one has rows in every table."""
    per_table = []
    for name, columns in schema.tables:
        # a deterministic, diverse prefix of the row space
        rows = list(itertools.islice(
            itertools.product(*(TINY_POOLS[ty] for _, ty in columns)), 4))
        options = [()] + [(r,) for r in rows]
        options += itertools.combinations(rows, 2)
        per_table.append((name, tuple(columns), options))
    n = min([limit] + [len(opts) for _, _, opts in per_table])
    return [{name: TableData(columns, Counter(opts[k]))
             for name, columns, opts in per_table} for k in range(n)]


def random_database(schema: Schema, rng: random.Random) -> Database:
    """Every table gets a duplicated row, and a NULL if none was drawn."""
    db: Database = {}
    for name, columns in schema.tables:
        table = TableData(tuple(columns))
        n = rng.randint(MIN_ROWS, MAX_ROWS)
        made = []
        for _ in range(n):
            row = tuple(
                None if rng.random() < NULL_PROBABILITY
                else rng.choice(RANDOM_POOLS[ty])
                for _, ty in columns)
            made.append(row)
            table.rows[row] += 1
        table.rows[rng.choice(made)] += 1
        if columns and not any(v is None for r in table.rows for v in r):
            row = list(rng.choice(made))
            row[rng.randrange(len(columns))] = None
            table.rows[tuple(row)] += 1
        db[name] = table
    return db


def double_multiplicities(db: Database) -> Database:
    return {
        name: TableData(t.columns,
                        Counter({row: m * 2 for row, m in t.rows.items()}))
        for name, t in db.items()
    }


def databases_for_search(schema: Schema, budget: int, seed) -> list:
    """Deterministic sequence used by the bounded counterexample search:
    an exhaustive tiny prefix, then seeded random databases."""
    tiny_share = min(8, max(1, budget // 4))
    dbs = enumerate_small_databases(schema, limit=tiny_share)
    rng = random.Random(f"dbgen:{seed}")
    while len(dbs) < budget:
        dbs.append(random_database(schema, rng))
    return dbs[:budget]
