"""Make the package importable in child processes too, and give the tests
one reference proof for queries that carry no trees and one reference set
of tree rewrites.

``pythonpath`` in pyproject.toml reaches only the pytest process; several
tests start ``python -m eqmorph...`` children, which find the package
through the inherited PYTHONPATH.
"""

import os
from pathlib import Path

from eqmorph.algebra import (
    Agg, Dedup, Filter, Project, Union, UnionAll, equivalent_mod_commute,
    lower, rebuild, _may_cross, _refset,
)
from eqmorph.sqlast import EngineError, qualify

SRC = str(Path(__file__).resolve().parent.parent / "src")

os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def proven(q1, q2, schema) -> bool:
    """The harness's proof for two queries given without their trees:
    qualify and lower both, then compare the trees.  A query that does
    not qualify is never proven."""
    try:
        e1, e2 = lower(qualify(q1, schema)), lower(qualify(q2, schema))
    except EngineError:
        return False
    return equivalent_mod_commute(e1, e2)


# ---------------------------------------------------------------------------
# the path-based tree rewrites transform once kept in a table, kept here as
# the reference the rendering rules' gates and trees are compared against,
# and as a source of trees for the surface-pin corpus

def _paths(e, path=()):
    yield path, e
    if isinstance(e, (Project, Filter, Dedup, Agg)):
        yield from _paths(e.child, path + ("child",))
    elif isinstance(e, (Union, UnionAll)):
        yield from _paths(e.left, path + ("left",))
        yield from _paths(e.right, path + ("right",))


def _get(e, path):
    for step in path:
        e = getattr(e, step)
    return e


def _set(e, path, new):
    """e with the node at path replaced by new."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    child = _set(getattr(e, head), rest, new)
    if head == "left":
        return type(e)(child, e.right)
    if head == "right":
        return type(e)(e.left, child)
    return rebuild(e, child)


def _swap(n):
    """n and its child trade places."""
    return rebuild(n.child, rebuild(n, n.child.child))


# rule -> (does it rewrite this node?, the node it rewrites it to)
_TREE_REWRITES = {
    "selection-commute": (
        lambda n: isinstance(n, Filter) and isinstance(n.child, Filter)
        and n.pred != n.child.pred,
        _swap),
    "projection-cascade": (
        lambda n: isinstance(n, Project) and isinstance(n.child, Project)
        and _refset(n.cols) <= _refset(n.child.cols),
        lambda n: Project(n.cols, n.child.child)),
    "union-commute": (
        lambda n: isinstance(n, (Union, UnionAll)),
        lambda n: type(n)(n.right, n.left)),
    "dedup-filter-commute": (
        lambda n: isinstance(n, Filter) and isinstance(n.child, Dedup)
        and _may_cross(n.child.keys, n.pred)
        or isinstance(n, Dedup) and isinstance(n.child, Filter)
        and _may_cross(n.keys, n.child.pred),
        _swap),
}


def tree_rewrites(e, rules=tuple(_TREE_REWRITES)) -> list:
    """Every single-step rewrite of e by each of rules in turn, each rule's
    rewrites in pre-order of the node rewritten."""
    out = []
    for rule in rules:
        applies, rewrite = _TREE_REWRITES[rule]
        out += [_set(e, p, rewrite(_get(e, p)))
                for p, n in _paths(e) if applies(n)]
    return out
