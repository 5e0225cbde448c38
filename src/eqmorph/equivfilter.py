"""Equivalence vetting of candidate query pairs: prove first, then probe.

Transformed pairs are meant to be equivalent by construction, but the pair
pipeline is exactly the kind of code that can be subtly wrong, so every
pair is vetted before it reaches the target engine.  ``proven`` settles a
pair exactly when both queries qualify, lower, and share a commute-normal
form once every AND filter is split into one filter per conjunct: a
qualified query cannot fail on the reference executor, so such a pair
returns the same multiset on every database.  A pair the proof
cannot settle goes to ``check_bounded``, which executes both queries on a
budgeted sequence of small databases; any database where the two result
multisets differ — or where either query errors — filters the pair out as
not-equivalent, keeping false alarms out of bug reports.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache

from .algebra import LoweringError, equivalent_mod_commute, lower
from .dbgen import databases_for_search
from .refdb import Database, EngineError, Executor
from .sqlast import InvalidQuery, Schema, SqlQuery, qualify

DEFAULT_BUDGET = 32


@dataclass(frozen=True)
class NotEquivalent:
    """A witness database distinguishing the two queries (for
    sensitivity_oracle, one query before and after doubling)."""
    witness: Database
    left_outcome: object  # row -> multiplicity dict, or EngineError
    right_outcome: object
    budget_used: int


@dataclass(frozen=True)
class NoCounterexample:
    budget_used: int


def proven(q1: SqlQuery, q2: SqlQuery, schema: Schema) -> bool:
    """True when both queries qualify on schema, lower, and have the same
    commute-normal form with their AND filters split (see
    equivalent_mod_commute), which proves them equivalent; False means
    not proven, not different."""
    try:
        e1 = lower(qualify(q1, schema))
        e2 = lower(qualify(q2, schema))
    except (InvalidQuery, LoweringError):
        return False
    return equivalent_mod_commute(e1, e2)


def check_bounded(q1: SqlQuery, q2: SqlQuery, schema: Schema,
                  budget: int = DEFAULT_BUDGET, seed="equiv"
                  ) -> NotEquivalent | NoCounterexample:
    """Execute both queries over a deterministic database sequence.

    Execution errors count as distinguishing outcomes: equivalence here
    means both queries succeed with the same result multiset on every
    probed database, which is the property the downstream comparison
    relies on.  Calls that repeat (schema, budget, seed) probe the same
    databases, built once; a NotEquivalent witness is a copy of one, so a
    caller may change it without touching the databases later calls probe.
    """
    corpus = _corpus(schema, budget, seed)
    if not corpus:
        return NoCounterexample(0)
    ex = Executor()
    p1, p2 = _prepared(ex, q1, schema), _prepared(ex, q2, schema)
    used = 0
    for db in corpus:
        used += 1
        left = _outcome(ex, db, p1)
        right = _outcome(ex, db, p2)
        if (isinstance(left, EngineError) or isinstance(right, EngineError)
                or left != right):
            return NotEquivalent(copy.deepcopy(db), left, right, used)
    return NoCounterexample(used)


@lru_cache(maxsize=1)
def _corpus(schema: Schema, budget: int, seed) -> tuple:
    """The probe databases, kept for the last (schema, budget, seed) only:
    a campaign iteration probes all its pairs with one seed, so memory
    stays at one corpus."""
    return tuple(databases_for_search(schema, budget, seed))


def _prepared(ex: Executor, q: SqlQuery, schema: Schema):
    """The prepared query, or the EngineError it raises on every probe
    database (they all share the schema)."""
    try:
        return ex.prepare(q, schema)
    except EngineError as e:
        return e


def _outcome(ex: Executor, db: Database, prepared):
    if isinstance(prepared, EngineError):
        return prepared
    try:
        return ex.run(db, prepared)
    except EngineError as e:
        return e
