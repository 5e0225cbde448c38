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
that needs one verifies them in its own order until one passes.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Optional

from .sqlast import (
    UNION, UNION_ALL, AggCall, And, ColumnRef, Predicate, SqlQuery,
    pred_column_refs, render, render_pred,
)


class LoweringError(Exception):
    pass


class RemapError(Exception):
    pass


class AlgebraTypeError(Exception):
    def __init__(self, node, expected, found):
        super().__init__(f"{type(node).__name__}: expected {expected}, "
                         f"found {found}")
        self.node = node
        self.expected = expected
        self.found = found


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


class RelType:
    MULTISET = "multiset"
    SET = "set"
    VALUE = "value"


def agg_output_ref(call: AggCall) -> ColumnRef:
    return ColumnRef(str(call).lower(), None)


def agg_outputs(node: Agg) -> tuple:
    return tuple(
        it if isinstance(it, ColumnRef) else agg_output_ref(it)
        for it in node.select)


def _refset(cols) -> frozenset:
    return frozenset((c.table, c.name) for c in cols)


def pred_refs(p: Predicate) -> frozenset:
    return _refset(pred_column_refs(p))


# ---------------------------------------------------------------------------
# typing


def _outputs(e) -> Optional[frozenset]:
    """Known output column set, or None when it depends on the schema."""
    if isinstance(e, Scan):
        return None
    if isinstance(e, Project):
        return _refset(e.cols)
    if isinstance(e, (Filter, Dedup)):
        return _outputs(e.child)
    if isinstance(e, Agg):
        # group keys stay visible to filters above the grouping even when
        # the select list drops them (the HAVING-over-keys case)
        return _refset(agg_outputs(e)) | _refset(e.keys)
    if isinstance(e, (Union, UnionAll)):
        return _outputs(e.left)
    raise TypeError(f"not an algebra node: {e!r}")


def _arity(e) -> Optional[int]:
    """Positional output width; duplicates in a select list count."""
    if isinstance(e, Scan):
        return None
    if isinstance(e, Project):
        return len(e.cols)
    if isinstance(e, Agg):
        return len(e.select)
    if isinstance(e, (Filter, Dedup)):
        return _arity(e.child)
    if isinstance(e, (Union, UnionAll)):
        return _arity(e.left)
    raise TypeError(f"not an algebra node: {e!r}")


def typecheck(e, lints: Optional[list] = None) -> str:
    """Return the root's RelType; raises AlgebraTypeError on ill-typed trees.

    A Dedup over an already-set input is accepted as the identity; a lint
    is recorded when a lint sink is supplied.
    """
    if isinstance(e, Scan):
        if not e.tables:
            raise AlgebraTypeError(e, "at least one table", "none")
        return RelType.MULTISET
    if isinstance(e, Project):
        t = typecheck(e.child, lints)
        avail = _outputs(e.child)
        if avail is not None and not _refset(e.cols) <= avail:
            raise AlgebraTypeError(e, f"columns within {sorted(avail, key=str)}",
                                   [str(c) for c in e.cols])
        return t
    if isinstance(e, Filter):
        t = typecheck(e.child, lints)
        avail = _outputs(e.child)
        if avail is not None and not pred_refs(e.pred) <= avail:
            raise AlgebraTypeError(e, f"predicate over {sorted(avail, key=str)}",
                                   render_pred(e.pred))
        return t
    if isinstance(e, Dedup):
        t = typecheck(e.child, lints)
        avail = _outputs(e.child)
        if avail is not None and not _refset(e.keys) <= avail:
            raise AlgebraTypeError(e, f"keys within {sorted(avail, key=str)}",
                                   [str(c) for c in e.keys])
        if t is RelType.MULTISET or t == RelType.MULTISET:
            return RelType.SET
        if lints is not None:
            lints.append(f"dedup over {t} input is the identity")
        return t
    if isinstance(e, Agg):
        typecheck(e.child, lints)
        keyset = _refset(e.keys)
        for it in e.select:
            if isinstance(it, ColumnRef) and (it.table, it.name) not in keyset:
                raise AlgebraTypeError(e, "grouped column", str(it))
        avail = _outputs(e.child)
        if avail is not None and not keyset <= avail:
            raise AlgebraTypeError(e, f"keys within {sorted(avail, key=str)}",
                                   [str(c) for c in e.keys])
        return RelType.VALUE
    if isinstance(e, (Union, UnionAll)):
        typecheck(e.left, lints)
        typecheck(e.right, lints)
        lo = _arity(e.left)
        ro = _arity(e.right)
        if lo is not None and ro is not None and lo != ro:
            raise AlgebraTypeError(e, "matching arity", (lo, ro))
        return RelType.SET if isinstance(e, Union) else RelType.MULTISET
    raise TypeError(f"not an algebra node: {e!r}")


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


def _unique_refs(cols):
    seen = []
    for c in cols:
        if c not in seen:
            seen.append(c)
    return tuple(seen)


def _lower_core(q: SqlQuery):
    e = Scan(tuple(q.from_tables))
    for p in split_conjuncts(q.where):
        e = Filter(p, e)
    if q.has_aggregates():
        e = Agg(tuple(q.select), tuple(q.group_by or ()), e)
        for p in split_conjuncts(q.having):
            e = Filter(p, e)
        if q.distinct:
            e = Dedup(agg_outputs(Agg(tuple(q.select), (), e)), e)
    else:
        if q.group_by is not None:
            e = Dedup(tuple(q.group_by), e)
        for p in split_conjuncts(q.having):
            e = Filter(p, e)
        if q.distinct:
            # SELECT DISTINCT reads as dedup-then-project
            e = Dedup(_unique_refs(q.select), e)
        e = Project(tuple(q.select), e)
    return e


def lower(q: SqlQuery):
    """Lower a validated (qualified) query to the algebra IR."""
    e = _lower_core(q)
    if q.set_op is not None:
        op, rhs = q.set_op
        if rhs.set_op is not None:
            raise LoweringError("nested set operations are unsupported")
        r = _lower_core(rhs)
        e = Union(e, r) if op == UNION else UnionAll(e, r)
    typecheck(e)
    return e


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


def _cached(keys: dict, obj, fn):
    """fn(obj), computed at most once per keys table: one commute_normal
    call's predicate refs and sort keys, column ref sets and sorted key
    orders.  Entries are keyed by identity (hashing a tree costs about as
    much as normalising it) and hold their object, so no id is reused
    while the table lives."""
    table = keys[fn]
    hit = table.get(id(obj))
    if hit is None or hit[0] is not obj:
        hit = table[id(obj)] = (obj, fn(obj))
    return hit[1]


def _sorted_keys(keys: tuple) -> tuple:
    """keys in canonical order; keys itself when already in it."""
    ordered = tuple(sorted(keys, key=str))
    return keys if ordered == keys else ordered


def _canon_once(spine: list, k: dict):
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
                moves = (_cached(k, e.pred, render_pred)
                         < _cached(k, child.pred, render_pred))
            elif ct is Dedup or ct is Agg:
                moves = (_cached(k, e.pred, pred_refs)
                         <= _cached(k, child.keys, _refset))
            elif ct is Project:
                moves = (_cached(k, e.pred, pred_refs)
                         <= _cached(k, child.cols, _refset))
            else:
                moves = False
            if moves:  # the filter sinks below its child
                out[-1] = e
                out.append(child)
                changed = True
                continue
        elif t is Dedup:
            # key order never affects which rows collapse
            ordered = _cached(k, e.keys, _sorted_keys)
            if ordered is not e.keys:
                out.append(Dedup(ordered, None))
                changed = True
                continue
            if ct is Dedup and _cached(k, e.keys, _refset) == \
                    _cached(k, child.keys, _refset):
                changed = True
                continue
            if ct is Project and _cached(k, e.keys, _refset) == \
                    _cached(k, child.cols, _refset):
                out[-1] = Dedup(_unique_refs(child.cols), None)
                out.append(child)
                changed = True
                continue
        elif t is Project and ct is Project and \
                _cached(k, e.cols, _refset) <= _cached(k, child.cols, _refset):
            out[-1] = e
            changed = True
            continue
        out.append(e)
    return out if changed else None


def _normal(e, k: dict):
    """The normal form of e.  A commutation looks only at a unary node and
    its child, never into the Scan or set operation the unary spine stands
    on, so the spine and the operands of a set operation normalise apart:
    the spine pass by pass as a list, the operands first and then ordered
    by repr.  That is where rewriting the whole tree pass by pass until a
    pass changes nothing leaves them."""
    spine = []
    while type(e) not in (Scan, Union, UnionAll):
        spine.append(e)
        e = e.child
    if type(e) is not Scan:
        l, r = _normal(e.left, k), _normal(e.right, k)
        # operand order never changes the result multiset
        if repr(r) < repr(l):
            l, r = r, l
        if l is not e.left or r is not e.right:
            e = type(e)(l, r)
    spine.reverse()
    while True:
        nxt = _canon_once(spine, k)
        if nxt is None:
            break
        spine = nxt
    for node in spine:
        e = node if node.child is e else rebuild(node, e)
    return e


def commute_normal(e):
    """Normal form under the equivalence-preserving commutations.

    Two pipelines that differ only in filter/dedup/projection placement
    allowed by the side conditions map to the same normal form, and so do
    two set operations that differ only in the order of their operands
    (the operands of Union and UnionAll are ordered by repr).
    """
    return _normal(e, defaultdict(dict))


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
            if _refset(above[0].keys) != _refset(agg_outputs(agg)):
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


def realizes(q: SqlQuery, target) -> bool:
    """Whether q lowers back to a tree whose commute-normal form is target
    (commute_normal of the tree q was generated from)."""
    try:
        return commute_normal(lower(q)) == target
    except (LoweringError, AlgebraTypeError):
        return False


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


# ---------------------------------------------------------------------------
# debug dump


def dump(e, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(e, Scan):
        return f"{pad}Scan {', '.join(e.tables)}"
    if isinstance(e, Project):
        head = f"{pad}Project [{', '.join(str(c) for c in e.cols)}]"
        return head + "\n" + dump(e.child, indent + 1)
    if isinstance(e, Filter):
        head = f"{pad}Filter ({render_pred(e.pred)})"
        return head + "\n" + dump(e.child, indent + 1)
    if isinstance(e, Dedup):
        head = f"{pad}Dedup [{', '.join(str(c) for c in e.keys)}]"
        return head + "\n" + dump(e.child, indent + 1)
    if isinstance(e, Agg):
        head = (f"{pad}Agg [{', '.join(str(s) for s in e.select)}]"
                f" by [{', '.join(str(c) for c in e.keys)}]")
        return head + "\n" + dump(e.child, indent + 1)
    if isinstance(e, (Union, UnionAll)):
        name = "Union" if isinstance(e, Union) else "UnionAll"
        return (f"{pad}{name}\n" + dump(e.left, indent + 1) + "\n"
                + dump(e.right, indent + 1))
    raise TypeError(e)
