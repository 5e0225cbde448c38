"""Relational-algebra IR: lowering from SQL, typing, and remapping to SQL.

Operators: Scan, Project, Filter, Dedup, Agg, Union, UnionAll.  Trees are
ordered and immutable.  A Dedup carries the key columns whose duplicates it
collapses; an Agg carries the whole grouped select shape (group keys plus
aggregate calls) so that mixed select lists stay representable.

Remapping implements the many-to-one operator/keyword correspondence: a
Dedup renders as DISTINCT or GROUP BY, and a Filter as WHERE or HAVING by
one placement rule.  A filter stays on its side of the grouping operator
(the Agg, or the Dedup that renders as GROUP BY): WHERE below it, HAVING
above it, and WHERE in a pipeline without one.  It may also cross to the
other side when every column it reads is a grouping key.  A candidate
surface query counts only once it is verified by lowering it back and
comparing commute-normal forms; remap_to_sql verifies them all, a caller
that needs one verifies them in its own order until one passes.  Typing
runs only where a tree can be ill-typed: surface_candidates checks its
input and realizes the tree an unvalidated candidate lowers to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional

from .sqlast import (
    UNION, UNION_ALL, AggCall, And, ColumnRef, Predicate, SqlQuery,
    pred_column_refs, render, render_pred,
)


class RemapError(Exception):
    pass


class AlgebraTypeError(Exception):
    def __init__(self, node, expected, found):
        super().__init__(f"{type(node).__name__}: expected {expected}, "
                         f"found {found}")


@dataclass(frozen=True)
class Scan:
    tables: tuple  # cross product of one or more base tables


@dataclass(frozen=True)
class Project:
    cols: tuple  # of ColumnRef
    child: "AlgebraExpr"


@dataclass(frozen=True)
class Filter:
    pred: Predicate
    child: "AlgebraExpr"


@dataclass(frozen=True)
class Dedup:
    keys: tuple  # of ColumnRef
    child: "AlgebraExpr"


@dataclass(frozen=True)
class Agg:
    select: tuple  # of ColumnRef | AggCall, the grouped output shape
    keys: tuple  # of ColumnRef, may be empty (global aggregate)
    child: "AlgebraExpr"


@dataclass(frozen=True)
class Union:
    left: "AlgebraExpr"
    right: "AlgebraExpr"


@dataclass(frozen=True)
class UnionAll:
    left: "AlgebraExpr"
    right: "AlgebraExpr"


AlgebraExpr = object


def agg_output_ref(call: AggCall) -> ColumnRef:
    return ColumnRef(str(call).lower(), None)


def agg_outputs(select) -> tuple:
    return tuple(
        it if isinstance(it, ColumnRef) else agg_output_ref(it)
        for it in select)


def _refset(cols) -> frozenset:
    return frozenset((c.table, c.name) for c in cols)


def pred_refs(p: Predicate) -> frozenset:
    return _refset(pred_column_refs(p))


# ---------------------------------------------------------------------------
# typing


def _typed(e):
    """Check e after its children; return its output column set and arity
    (duplicates count), each None when it depends on the schema."""
    t = type(e)
    if t is Scan:
        if not e.tables:
            raise AlgebraTypeError(e, "at least one table", "none")
        return None, None
    if t is Union or t is UnionAll:
        avail, lo = _typed(e.left)
        ro = _typed(e.right)[1]
        if lo is not None and ro is not None and lo != ro:
            raise AlgebraTypeError(e, "matching arity", (lo, ro))
        return avail, lo
    if t not in (Project, Filter, Dedup, Agg):
        raise TypeError(f"not an algebra node: {e!r}")
    avail, arity = _typed(e.child)
    if t is Filter:
        if avail is not None and not pred_refs(e.pred) <= avail:
            raise AlgebraTypeError(
                e, f"predicate over {sorted(avail, key=str)}",
                render_pred(e.pred))
        return avail, arity
    cols = e.cols if t is Project else e.keys
    refs = _refset(cols)
    if t is Agg:
        for it in e.select:
            if isinstance(it, ColumnRef) and (it.table, it.name) not in refs:
                raise AlgebraTypeError(e, "grouped column", str(it))
    if avail is not None and not refs <= avail:
        what = "columns" if t is Project else "keys"
        raise AlgebraTypeError(
            e, f"{what} within {sorted(avail, key=str)}",
            [str(c) for c in cols])
    if t is Project:
        return refs, len(cols)
    if t is Agg:
        # filters above may read keys the select list drops (HAVING)
        return _refset(agg_outputs(e.select)) | refs, len(e.select)
    return avail, arity


def typecheck(e) -> None:
    """Raise AlgebraTypeError when e is ill-typed."""
    _typed(e)


# ---------------------------------------------------------------------------
# lowering


def split_conjuncts(p: Optional[Predicate]):
    """Split the left-associated AND spine; parenthesized groups on the
    right stay intact so join_conjuncts is an exact inverse."""
    if p is None:
        return []
    if isinstance(p, And):
        return split_conjuncts(p.left) + [p.right]
    return [p]


def join_conjuncts(preds):
    out = None
    for p in preds:
        out = p if out is None else And(out, p)
    return out


def _lower_core(q: SqlQuery):
    e = Scan(tuple(q.from_tables))
    for p in split_conjuncts(q.where):
        e = Filter(p, e)
    if q.has_aggregates():
        e = Agg(tuple(q.select), tuple(q.group_by or ()), e)
        for p in split_conjuncts(q.having):
            e = Filter(p, e)
        if q.distinct:
            e = Dedup(agg_outputs(q.select), e)
    else:
        if q.group_by is not None:
            e = Dedup(tuple(q.group_by), e)
        for p in split_conjuncts(q.having):
            e = Filter(p, e)
        if q.distinct:
            # SELECT DISTINCT reads as dedup-then-project
            e = Dedup(tuple(dict.fromkeys(q.select)), e)
        e = Project(tuple(q.select), e)
    return e


def lower(q: SqlQuery):
    """Lower a validated (qualified) query to the algebra IR, unchecked:
    a validated query always lowers to a well-typed tree."""
    e = _lower_core(q)
    if q.set_op is None:
        return e
    op, rhs = q.set_op
    return (Union if op == UNION else UnionAll)(e, _lower_core(rhs))


# ---------------------------------------------------------------------------
# commute-normal form

def rebuild(e, child):
    """The unary node e over a new child."""
    t = type(e)
    if t is Project:
        return Project(e.cols, child)
    if t is Filter:
        return Filter(e.pred, child)
    if t is Dedup:
        return Dedup(e.keys, child)
    if t is Agg:
        return Agg(e.select, e.keys, child)
    raise TypeError(e)


def _sorted_keys(keys: tuple) -> tuple:
    """keys in canonical order; keys itself when already in it."""
    ordered = tuple(sorted(keys, key=str))
    return keys if ordered == keys else ordered


def _canon_once(spine: list):
    """One bottom-up pass of the commutations over a unary spine (leaf
    first).  Only an element's operator and payload count, not its child.
    Returns the new spine, or None when no commutation applied."""
    out = []
    changed = False
    for e in spine:
        child = out[-1] if out else None
        t, ct = type(e), type(child)
        if t is Filter:
            if ct is Filter:
                moves = render_pred(e.pred) < render_pred(child.pred)
            elif ct is Dedup or ct is Agg:
                moves = pred_refs(e.pred) <= _refset(child.keys)
            elif ct is Project:
                moves = pred_refs(e.pred) <= _refset(child.cols)
            else:
                moves = False
            if moves:  # the filter sinks below its child
                out[-1] = e
                out.append(child)
                changed = True
                continue
        elif t is Dedup:
            # key order never affects which rows collapse
            ordered = _sorted_keys(e.keys)
            if ordered is not e.keys:
                out.append(Dedup(ordered, None))
                changed = True
                continue
            if ct is Dedup and _refset(e.keys) == _refset(child.keys):
                changed = True
                continue
            if ct is Project and _refset(e.keys) == _refset(child.cols):
                out[-1] = Dedup(tuple(dict.fromkeys(child.cols)), None)
                out.append(child)
                changed = True
                continue
        elif t is Project and ct is Project and \
                _refset(e.cols) <= _refset(child.cols):
            out[-1] = e
            changed = True
            continue
        out.append(e)
    return out if changed else None


def commute_normal(e):
    """Normal form under the equivalence-preserving commutations.

    Two pipelines that differ only in filter/dedup/projection placement
    allowed by the side conditions map to the same normal form, and so do
    two set operations that differ only in the order of their operands.
    A commutation looks only at a unary node and its child, never into the
    Scan or set operation the unary spine stands on, so the spine and the
    operands of a set operation normalise apart: the spine pass by pass as
    a list, the operands first and then ordered by repr.  That is where
    rewriting the whole tree pass by pass until a pass changes nothing
    leaves them.
    """
    spine = []
    while type(e) not in (Scan, Union, UnionAll):
        spine.append(e)
        e = e.child
    if type(e) is not Scan:
        l, r = commute_normal(e.left), commute_normal(e.right)
        # operand order never changes the result multiset
        if repr(r) < repr(l):
            l, r = r, l
        if l is not e.left or r is not e.right:
            e = type(e)(l, r)
    spine.reverse()
    while True:
        nxt = _canon_once(spine)
        if nxt is None:
            break
        spine = nxt
    for node in spine:
        e = node if node.child is e else rebuild(node, e)
    return e


def _filter_conjuncts(p: Predicate) -> list:
    """The conjuncts of a filter predicate, with AND flattened at any
    nesting, in reading order."""
    if type(p) is And:
        return _filter_conjuncts(p.left) + _filter_conjuncts(p.right)
    return [p]


def _split_filters(e):
    """e with every filter replaced by one filter per conjunct of its
    predicate, the first conjunct innermost, as lower splits a WHERE
    clause.  Sound in Kleene logic: a filter keeps a row only when every
    conjunct is TRUE.  Unchanged subtrees are kept, not copied."""
    t = type(e)
    if t is Scan:
        return e
    if t is Union or t is UnionAll:
        l, r = _split_filters(e.left), _split_filters(e.right)
        return e if l is e.left and r is e.right else t(l, r)
    child = _split_filters(e.child)
    if t is Filter:
        conj = _filter_conjuncts(e.pred)
        if conj != [e.pred]:
            for p in conj:
                child = Filter(p, child)
            return child
    return e if child is e.child else rebuild(e, child)


def equivalent_mod_commute(e1, e2) -> bool:
    """Whether e1 and e2 share a commute-normal form once their filters
    are split into conjuncts, which proves them equivalent.  Only the
    comparison splits: commute_normal itself, which verifies remap
    candidates, sees each filter as it is."""
    return commute_normal(_split_filters(e1)) == \
        commute_normal(_split_filters(e2))


# ---------------------------------------------------------------------------
# remapping back to SQL


def _decompose(e):
    """Split a pipeline into (items root->leaf, scan)."""
    items = []
    while not isinstance(e, Scan):
        if isinstance(e, (Union, UnionAll)):
            raise RemapError("set operation below a unary operator")
        items.append(e)
        e = e.child
    return items, e


def _may_cross(keys, pred) -> bool:
    """Whether a filter on pred may cross a grouping by keys (see the
    placement rule above): every column it reads is a key."""
    return pred_refs(pred) <= _refset(keys)


def _shape(items):
    """(select list, grouping node, forms) of a pipeline's items.  The
    grouping node is the Agg, the Dedup that renders as GROUP BY, or None;
    forms are the (GROUP BY keys, DISTINCT) pairs the pipeline renders
    with, in generation order."""
    aggs = [x for x in items if isinstance(x, Agg)]
    if len(aggs) > 1:
        raise RemapError("multiple aggregate operators in one pipeline")
    if aggs:
        agg = aggs[0]
        idx = items.index(agg)
        above = items[:idx]
        if any(not isinstance(x, Filter) for x in items[idx + 1:]):
            raise RemapError("unsupported operator between aggregate and scan")
        distinct = bool(above) and isinstance(above[0], Dedup)
        if distinct:
            if _refset(above[0].keys) != _refset(agg_outputs(agg.select)):
                raise RemapError("dedup above aggregate with foreign keys")
            above = above[1:]
        if any(not isinstance(x, Filter) for x in above):
            raise RemapError("unsupported operator above aggregate")
        if not all(_may_cross(agg.keys, f.pred) for f in above):
            raise RemapError(
                "filter above grouping references non-grouped columns")
        return agg.select, agg, [(tuple(agg.keys) or None, distinct)]

    projects = [x for x in items if isinstance(x, Project)]
    if not projects:
        raise RemapError("pipeline without a projection has no surface form")
    # projections must be a prefix-nested cascade; the outermost wins
    select = projects[0].cols
    # dedups with identical key sets collapse; at most two distinct key
    # sets render (outer DISTINCT over the select list, inner GROUP BY)
    dedups = {}
    for d in items:
        if isinstance(d, Dedup):
            dedups.setdefault(_refset(d.keys), []).append(d)
    if len(dedups) > 2:
        raise RemapError("more than two dedups with different keys")
    if not dedups:
        return select, None, [(None, False)]
    *outer, keyset = dedups
    group = dedups[keyset][0]
    # every key order seen for this key set is a possible GROUP BY order
    orders = list(dict.fromkeys(tuple(d.keys) for d in dedups[keyset]))
    if outer:
        if outer[0] != _refset(select):
            raise RemapError("outer dedup does not match the select list")
        return select, group, [(o, True) for o in orders]
    distinct_ok = keyset == _refset(select)
    # a dedup above the projection only renders when it matches the
    # select list (DISTINCT); otherwise there is no surface form
    if items.index(group) < items.index(projects[0]) and not distinct_ok:
        raise RemapError("dedup above projection with foreign keys")
    if not distinct_ok:
        return select, group, [(o, False) for o in orders]
    # a dedup matching the select list also renders as a redundant
    # DISTINCT on top of the GROUP BY form, and as DISTINCT alone
    return select, group, [(o, dv) for dv in (False, True)
                           for o in orders] + [(None, True)]


def _pipeline_candidates(e) -> list:
    """The candidates of a pipeline: every placement of its filters by the
    placement rule, each rendered in every form of its shape, in
    generation order.  A combination SqlQuery rejects (HAVING without
    GROUP BY, an empty select list) drops out."""
    items, scan = _decompose(e)
    select, group, forms = _shape(items)
    filters, choices = [], []
    above = group is not None
    for x in items:
        if x is group:
            above = False
        elif isinstance(x, Filter):
            sides = ("HAVING", "WHERE") if above else ("WHERE", "HAVING")
            crosses = group is not None and _may_cross(group.keys, x.pred)
            filters.append(x)
            choices.append(sides if crosses else sides[:1])
    out = []
    for slots in itertools.product(*choices):
        # items read root->leaf; a conjunction reads execution order
        placed = list(zip(filters, slots))[::-1]
        where = join_conjuncts([f.pred for f, s in placed if s == "WHERE"])
        having = join_conjuncts([f.pred for f, s in placed if s == "HAVING"])
        for keys, distinct in forms:
            try:
                out.append(SqlQuery(tuple(select), tuple(scan.tables),
                                    distinct, where, keys, having))
            except ValueError:
                pass
    return out


def surface_candidates(e) -> list:
    """The surface queries e might render as, unverified, in generation
    order; a candidate counts only when it realizes e (see realizes)."""
    typecheck(e)
    if isinstance(e, (Union, UnionAll)):
        op = UNION if isinstance(e, Union) else UNION_ALL
        lefts = _pipeline_candidates(e.left)
        rights = _pipeline_candidates(e.right)
        return [replace(lc, set_op=(op, rc)) for lc in lefts for rc in rights]
    return _pipeline_candidates(e)


def realized_tree(q: SqlQuery, target):
    """The tree q lowers back to when its commute-normal form is target
    (commute_normal of the tree q was generated from), else None.  q is
    not validated, so the tree it lowers to is type-checked here."""
    e = lower(q)
    try:
        typecheck(e)
    except AlgebraTypeError:
        return None
    return e if commute_normal(e) == target else None


def realizes(q: SqlQuery, target) -> bool:
    """Whether q realizes target (see realized_tree)."""
    return realized_tree(q, target) is not None


def remap_to_sql(e) -> list:
    """Every surface realization of e, verified by lowering each candidate
    back and comparing commute-normal forms.  Deterministic order."""
    raw = surface_candidates(e)
    target = commute_normal(e)
    out = []
    seen = set()
    for q in raw:
        if not realizes(q, target):
            continue
        text = render(q)
        if text not in seen:
            seen.add(text)
            out.append(q)
    if not out:
        raise RemapError("no surface realization found")
    out.sort(key=render)
    return out
