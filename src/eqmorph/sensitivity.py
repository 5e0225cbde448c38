"""Duplicate-sensitivity classification of algebra trees.

An operator is duplicate-sensitive when changing input multiplicities can
change its output; projection, filtering, UNION ALL, and the SUM/COUNT/AVG
aggregates are sensitive, while deduplication, grouping, UNION, and
MIN/MAX are not.  A whole tree is classified by folding over its operator
atoms: it is sensitive only when every atom is sensitive, because a single
insensitive operator collapses multiplicities for everything above it.

The static verdict can be checked dynamically: a query is duplicate
sensitive exactly when some database exists where doubling every row's
multiplicity changes the result multiset.  `sensitivity_oracle` searches a
bounded database space for such a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .algebra import (
    Agg, Dedup, Filter, Project, Scan, Union, UnionAll, remap_to_sql,
)
from .dbgen import databases_for_search, double_multiplicities
from .refdb import ExecError, Executor


class Sensitivity(Enum):
    SENSITIVE = "Sensitive"
    INSENSITIVE = "Insensitive"


SENSITIVE_AGG_FNS = ("SUM", "COUNT", "AVG")
INSENSITIVE_AGG_FNS = ("MIN", "MAX")


def operator_atoms(e) -> list:
    """(operator label, Sensitivity) for every atom in the tree.

    An Agg contributes one grouping atom (insensitive, when it has keys)
    plus one atom per aggregate call.
    """
    out = []

    def walk(node):
        if isinstance(node, Scan):
            return
        if isinstance(node, Project):
            out.append(("project", Sensitivity.SENSITIVE))
            walk(node.child)
        elif isinstance(node, Filter):
            out.append(("filter", Sensitivity.SENSITIVE))
            walk(node.child)
        elif isinstance(node, Dedup):
            out.append(("dedup", Sensitivity.INSENSITIVE))
            walk(node.child)
        elif isinstance(node, Agg):
            if node.keys:
                out.append(("group", Sensitivity.INSENSITIVE))
            for it in node.select:
                if not hasattr(it, "fn"):
                    continue
                s = (Sensitivity.SENSITIVE if it.fn in SENSITIVE_AGG_FNS
                     else Sensitivity.INSENSITIVE)
                out.append((it.fn.lower(), s))
            walk(node.child)
        elif isinstance(node, Union):
            out.append(("union", Sensitivity.INSENSITIVE))
            walk(node.left)
            walk(node.right)
        elif isinstance(node, UnionAll):
            out.append(("union all", Sensitivity.SENSITIVE))
            walk(node.left)
            walk(node.right)
        else:
            raise TypeError(f"not an algebra node: {node!r}")

    walk(e)
    return out


def classify(e) -> Sensitivity:
    """Fold: sensitive only when every operator atom is sensitive.

    A bare scan has no atoms and is sensitive (it reproduces its input
    multiplicities verbatim).
    """
    for _, s in operator_atoms(e):
        if s is Sensitivity.INSENSITIVE:
            return Sensitivity.INSENSITIVE
    return Sensitivity.SENSITIVE


# ---------------------------------------------------------------------------
# dynamic oracle


@dataclass(frozen=True)
class WitnessFound:
    """Doubling multiplicities in `database` changed the result."""
    database: object
    detail: str


@dataclass(frozen=True)
class NoWitnessWithinBudget:
    budget_used: int


class OracleBudgetError(Exception):
    pass


def sensitivity_oracle(e, schema, budget: int = 64, seed="oracle"):
    """Search for a database where doubling every multiplicity changes the
    query result.  Returns WitnessFound or NoWitnessWithinBudget.
    """
    if budget <= 0 or not schema.tables:
        raise OracleBudgetError("need a positive budget and a schema")

    ex = Executor()
    dbs = databases_for_search(schema, budget, seed)
    try:
        q = ex.prepare(remap_to_sql(e)[0], schema)
    except ExecError:
        # the query errors on every database, so none can be a witness
        return NoWitnessWithinBudget(len(dbs))
    for db in dbs:
        try:
            base = ex.run(db, q)
            bumped = ex.run(double_multiplicities(db), q)
        except ExecError:
            continue
        if base.rows != bumped.rows:
            return WitnessFound(db, "result multiset changed under doubling")
    return NoWitnessWithinBudget(len(dbs))
