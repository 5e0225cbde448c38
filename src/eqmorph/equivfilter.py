"""Bounded counterexample search used to vet candidate query pairs.

Transformed pairs are meant to be equivalent by construction, but the pair
pipeline is exactly the kind of code that can be subtly wrong, so every
pair is cross-checked by executing both queries on a budgeted sequence of
small databases before it reaches the target engine.  Any database where
the two result multisets differ — or where either query errors — filters
the pair out as not-equivalent, keeping false alarms out of bug reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .dbgen import databases_for_search
from .refdb import Database, ExecError, Executor
from .sqlast import Schema, SqlQuery

DEFAULT_BUDGET = 32


@dataclass(frozen=True)
class NotEquivalent:
    """A witness database distinguishing the two queries."""
    witness: Database
    left_outcome: object  # Relation row dict, or ExecError
    right_outcome: object
    budget_used: int


@dataclass(frozen=True)
class NoCounterexample:
    budget_used: int


Verdict = object


def check_bounded(q1: SqlQuery, q2: SqlQuery, schema: Schema,
                  budget: int = DEFAULT_BUDGET, seed="equiv") -> Verdict:
    """Execute both queries over a deterministic database sequence.

    Execution errors count as distinguishing outcomes: equivalence here
    means both queries succeed with the same result multiset on every
    probed database, which is the property the downstream comparison
    relies on.
    """
    ex = Executor()
    p1, p2 = _prepared(ex, q1, schema), _prepared(ex, q2, schema)
    used = 0
    for db in databases_for_search(schema, budget, seed):
        used += 1
        left = _outcome(ex, db, p1)
        right = _outcome(ex, db, p2)
        if isinstance(left, ExecError) or isinstance(right, ExecError):
            return NotEquivalent(db, left, right, used)
        if left != right:
            return NotEquivalent(db, left, right, used)
    return NoCounterexample(used)


def _prepared(ex: Executor, q: SqlQuery, schema: Schema):
    """The prepared query, or the ExecError it raises on every probe
    database (they all share the schema)."""
    try:
        return ex.prepare(q, schema)
    except ExecError as e:
        return e


def _outcome(ex: Executor, db: Database, prepared):
    if isinstance(prepared, ExecError):
        return prepared
    try:
        return ex.run(db, prepared).rows
    except ExecError as e:
        return e
