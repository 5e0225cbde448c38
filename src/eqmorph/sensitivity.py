"""Duplicate-sensitivity classification of algebra trees.

A query is duplicate-sensitive when changing its input multiplicities can
change its result.  `classify` decides it statically by one fold that
says what doubling every base-table row's multiplicity does to each
subtree's output.  There are three outcomes:

- doubles: every output row's multiplicity doubles.  A Scan doubles, and
  Project and Filter keep their child's outcome.
- same: the output is unchanged.  Dedup and UNION collapse duplicates,
  so they give "same" unless an input changes.  An Agg gives "same" too,
  unless its child changes or it has a COUNT, SUM or AVG call over a
  doubling child, whose value then changes.
- changes: anything else, kept all the way up to the root.  A UNION ALL
  doubles only when both operands double and stays the same only when
  both do; mixing the two changes its output.

A tree is insensitive exactly when its outcome is "same".

The static verdict can be checked dynamically: a query is duplicate
sensitive exactly when some database exists where doubling every row's
multiplicity changes the result multiset.  `sensitivity_oracle` searches a
bounded database space for such a witness.
"""

from __future__ import annotations

from enum import Enum

from .algebra import (
    Agg, Dedup, Filter, Project, Scan, Union, UnionAll, remap_to_sql,
)
from .dbgen import databases_for_search, double_multiplicities
from .equivfilter import NoCounterexample, NotEquivalent
from .refdb import EngineError, Executor


class Sensitivity(Enum):
    SENSITIVE = "Sensitive"
    INSENSITIVE = "Insensitive"


SENSITIVE_AGG_FNS = ("SUM", "COUNT", "AVG")


def _under_doubling(e) -> str:
    """What doubling every base-table multiplicity does to e's output:
    "doubles", "same" or "changes" (see the module docstring)."""
    if isinstance(e, Scan):
        return "doubles"
    if isinstance(e, (Union, UnionAll)):
        left, right = _under_doubling(e.left), _under_doubling(e.right)
        if "changes" in (left, right):
            return "changes"
        if isinstance(e, Union):
            return "same"
        return left if left == right else "changes"
    if not isinstance(e, (Project, Filter, Dedup, Agg)):
        raise TypeError(f"not an algebra node: {e!r}")
    child = _under_doubling(e.child)
    if isinstance(e, (Project, Filter)) or child == "changes":
        return child
    if isinstance(e, Agg) and child == "doubles" and any(
            getattr(it, "fn", None) in SENSITIVE_AGG_FNS for it in e.select):
        return "changes"
    return "same"


def classify(e) -> Sensitivity:
    """Insensitive exactly when doubling leaves e's output the same; a
    bare scan is sensitive (it reproduces its input multiplicities)."""
    if _under_doubling(e) == "same":
        return Sensitivity.INSENSITIVE
    return Sensitivity.SENSITIVE


# ---------------------------------------------------------------------------
# dynamic oracle


def sensitivity_oracle(e, schema, budget: int = 64, seed="oracle"):
    """Search for a database where doubling every multiplicity changes the
    query result.  Returns NotEquivalent, whose witness is that database
    and whose outcomes are the results before and after doubling, or
    NoCounterexample; a tree with no SQL form, such as a bare Scan or a
    Dedup over one (classify accepts both), raises RemapError."""
    if budget <= 0 or not schema.tables:
        raise ValueError("need a positive budget and a schema")

    ex = Executor()
    dbs = databases_for_search(schema, budget, seed)
    try:
        q = ex.prepare(remap_to_sql(e)[0], schema)
    except EngineError:
        # the query errors on every database, so none can be a witness
        return NoCounterexample(len(dbs))
    for used, db in enumerate(dbs, 1):
        try:
            base = ex.run(db, q)
            bumped = ex.run(double_multiplicities(db), q)
        except EngineError:
            continue
        if base != bumped:
            return NotEquivalent(db, base, bumped, used)
    return NoCounterexample(len(dbs))
