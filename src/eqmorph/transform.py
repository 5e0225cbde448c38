"""Equivalent-pair synthesis guided by duplicate sensitivity.

Each rule produces a pair of queries that must return identical result
multisets on every database.  Two pairing modes exist:

* seed-vs-mutant: the right query is a rewrite of the seed (commuted
  conjuncts, swapped set operands, an alternative surface rendering).
* mutant-vs-mutant: both queries are derived forms that exercise the
  many-to-one keyword correspondence — DISTINCT against GROUP BY for
  deduplication, WHERE against HAVING for a filter over group keys.

transform_query walks the rule catalog in order and returns the first
pair a rule can build for the seed, mirroring a transform-once policy:
specific rules come before the generic rendering rule so that each seed
shape feeds the rule that stresses it best.

Every pair carries the lowered tree of each side, so the proof compares
two trees and never qualifies or lowers.  A side a rule builds only from
the qualified seed's parts (swapped set operands, reordered conjuncts, a
group key compared with a constant picked for that key's column) is valid
exactly when the seed is, and its tree is built from the seed's tree, as
lower would build it: the set operands swapped, or the filters of the one
clause that changed built again.  So grouped-filter-insertion's sides are
the seed's tree with Filter(p) inserted just below the grouping node
(WHERE) or just above its HAVING filters.

Rewrites of the lowered algebra tree live in one table, _IR_TABLE: each
entry says whether the rule rewrites at a node and what node it rewrites
it to; ir_sites, ir_rewrite and enumerate_mutants all read it.  The rules
that pair the seed with another surface rendering of a lowered tree
(dedup-filter-commute, projection-pull-up, projection-cascade) come from
one builder, _rendering_rule, and differ only in the trees they render
and in a gate: one walk of the seed's tree that rules the rule out before
any candidate is built or rendered.  projection-cascade needs a Project
directly on a Project, which no lowered seed has; dedup-filter-commute a
Filter next to a Dedup; projection-pull-up a Dedup or an Agg with keys,
without which the seed's own rendering is its only surface form.  Two
more facts close both gates: a grouped form reads one table, so a tree
over two tables has no valid grouped form, and a Dedup directly over an
Agg without keys (DISTINCT over one row) renders only as DISTINCT.

Every rule needs a GROUP BY, a DISTINCT, a set operation or two conjuncts
in WHERE (_may_pair, next to the catalog), so transform_query refuses a
seed with none of them before it lowers the seed or offers it to a rule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional

from .algebra import (
    Agg, Dedup, Filter, Project, Scan, Union, UnionAll, commute_normal,
    join_conjuncts, lower, realized_tree, rebuild, split_conjuncts,
    surface_candidates, _decompose, _may_cross, _refset,
)
# unused here; bound because perfbench/spans.py traces
# transform.remap_to_sql by name
from .algebra import remap_to_sql  # noqa: F401
from .dbgen import RANDOM_POOLS
from .sensitivity import Sensitivity, classify
from .sqlast import (
    CMP_OPS, And, Cmp, ColumnRef, Const, Schema, SqlQuery, render, validate,
)
# unused here; bound because perfbench/spans.py traces
# transform.qualify by name
from .sqlast import qualify  # noqa: F401


class NoRuleApplies(Exception):
    pass


@dataclass(frozen=True)
class QueryPair:
    """Two queries meant to be equivalent, each with its lowered tree: the
    qualified seed's own tree, the tree a realized candidate lowered to,
    or the lowering of a side built from the qualified seed's parts.  The
    proof compares the two trees; they are not part of a pair's equality
    or repr."""
    left: SqlQuery
    right: SqlQuery
    rule: str
    pairing: str  # "seed-vs-mutant" | "mutant-vs-mutant"
    left_tree: object = field(compare=False, repr=False)
    right_tree: object = field(compare=False, repr=False)


@dataclass
class TransformContext:
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    # (table, column) -> a live database's values, as value_hints_of gives
    # them, to pick filter constants that actually select something
    value_hints: dict = field(default_factory=dict)
    enabled_rules: Optional[frozenset] = None

    def allows(self, rule: str) -> bool:
        return self.enabled_rules is None or rule in self.enabled_rules


SEED_VS_MUTANT = "seed-vs-mutant"
MUTANT_VS_MUTANT = "mutant-vs-mutant"


def _texts_differ(a: SqlQuery, b: SqlQuery) -> bool:
    return render(a) != render(b)


def _text_distance(a: str, b: str) -> int:
    ta, tb = a.split(), b.split()
    common = len(set(ta) & set(tb))
    return len(set(ta)) + len(set(tb)) - 2 * common + abs(len(ta) - len(tb))


def _furthest_first(text: str, cands) -> list:
    """cands ordered by how far their rendering is from text, furthest
    first; the greater rendering wins a tie."""
    return sorted(cands, key=lambda c: (_text_distance(text, render(c[0])),
                                        render(c[0])), reverse=True)


def _first_realized(cands, schema):
    """(query, the tree it lowers to) of the first (query, target) in
    cands that is valid on schema (grouped forms are single-table only,
    so some renderings drop out) and realizes its target, or (None,
    None).  Checking in preference order and stopping at the first pass
    picks what checking every candidate and then taking the preferred one
    would."""
    for c, target in cands:
        if not validate(c, schema):
            tree = realized_tree(c, target)
            if tree is not None:
                return c, tree
    return None, None


def pick_constant(ctx: TransformContext, schema: Schema, col: ColumnRef):
    hints = ctx.value_hints.get((col.table, col.name))
    if hints:
        return ctx.rng.choice(hints)
    ty = schema.col_type(col.table, col.name)
    return ctx.rng.choice(RANDOM_POOLS[ty])


# ---------------------------------------------------------------------------
# rule implementations over the surface query


def _clause_filters(nodes, attr: str):
    """(lo, hi): nodes[lo:hi] are the filters of the seed's WHERE (or
    HAVING), from the unary nodes of a lowered core.  WHERE filters stand
    on the Scan; HAVING filters stand on the grouping node (the Agg, or
    the Dedup of GROUP BY), the lowest node that is not a WHERE filter."""
    hi = len(nodes)
    while hi and type(nodes[hi - 1]) is Filter:
        hi -= 1
    if attr == "where":
        return hi, len(nodes)
    lo = hi = hi - 1
    while lo and type(nodes[lo - 1]) is Filter:
        lo -= 1
    return lo, hi


def _filtered_at(nodes, at: int, preds, below):
    """nodes[:at] over one Filter per pred, the first innermost, over
    below: only what stands above below is built again."""
    tree = below
    for p in preds:
        tree = Filter(p, tree)
    for n in reversed(nodes[:at]):
        tree = rebuild(n, tree)
    return tree


def _refiltered(e, attr: str, pred):
    """The tree the seed's query lowers to once its WHERE (or HAVING) is
    pred: the seed's tree e with that clause's filters built again, one
    per conjunct of pred, as lower builds them."""
    core = e.left if type(e) in (Union, UnionAll) else e
    nodes, scan = _decompose(core)
    lo, hi = _clause_filters(nodes, attr)
    tree = _filtered_at(nodes, lo, split_conjuncts(pred),
                        nodes[hi] if hi < len(nodes) else scan)
    return tree if core is e else type(e)(tree, e.right)


def _grouped_filter_insertion(q, e, ctx, schema):
    """WHERE p against HAVING p for p over a group key: equivalent because
    a group vanishes exactly when its key fails p, whether the rows are
    dropped before grouping or the finished group is dropped after.  p is
    the last conjunct of each side, so each side's tree is the seed's with
    Filter(p) just below the grouping node, or just above its HAVING
    filters."""
    if q.group_by is None or not q.group_by or q.set_op is not None:
        return None
    key = ctx.rng.choice(q.group_by)
    op = ctx.rng.choice(CMP_OPS)
    p = Cmp(key, op, Const(pick_constant(ctx, schema, key)))
    left = replace(q, where=And(q.where, p) if q.where is not None else p)
    right = replace(q, having=And(q.having, p) if q.having is not None else p)
    if not _texts_differ(left, right):
        return None
    nodes, _ = _decompose(e)
    h, g = _clause_filters(nodes, "having")
    return QueryPair(left, right, "grouped-filter-insertion",
                     MUTANT_VS_MUTANT,
                     _filtered_at(nodes, g + 1, [p], nodes[g].child),
                     _filtered_at(nodes, h, [p], nodes[h]))


def _dedup_insertion(q, e, ctx, schema):
    """DISTINCT form against GROUP BY form of one duplicate-insensitive
    query.  Grouped forms are single-table only, so a seed over two
    tables has no valid GROUP BY side, and the rule returns before it
    builds any candidate."""
    if q.set_op is not None or q.has_aggregates() or len(q.from_tables) > 1:
        return None
    if classify(e) is Sensitivity.SENSITIVE:
        return None
    cands = surface_candidates(e)
    target = commute_normal(e)
    left, left_tree = _first_realized(
        sorted(((c, target) for c in cands if c.distinct),
               key=lambda c: render(c[0])), schema)
    if left is None:
        return None
    right, right_tree = _first_realized(_furthest_first(
        render(left), [(c, target) for c in cands
                       if c.group_by is not None and not c.distinct]), schema)
    if right is None:
        return None
    return QueryPair(left, right, "dedup-insertion", MUTANT_VS_MUTANT,
                     left_tree, right_tree)


def _union_commute(q, e, ctx, schema):
    if q.set_op is None:
        return None
    op, rhs = q.set_op
    left_core = replace(q, set_op=None)
    right = replace(rhs, set_op=(op, left_core))
    if not _texts_differ(q, right):
        return None
    return QueryPair(q, right, "union-commute", SEED_VS_MUTANT, e,
                     type(e)(e.right, e.left))


def _selection_commute(q, e, ctx, schema):
    """Swap two adjacent conjuncts of WHERE (or HAVING)."""
    for attr in ("where", "having"):
        pred = getattr(q, attr)
        conj = split_conjuncts(pred)
        for i in range(len(conj) - 1):
            if conj[i] == conj[i + 1]:
                continue
            swapped = list(conj)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            right = replace(q, **{attr: join_conjuncts(swapped)})
            if _texts_differ(q, right):
                return QueryPair(q, right, "selection-commute",
                                 SEED_VS_MUTANT, e,
                                 _refiltered(e, attr, getattr(right, attr)))
    return None


def _rendering_rule(rule: str, trees, possible):
    """A seed-vs-mutant rule that pairs the seed with the valid surface
    rendering of trees(q, e) furthest from the seed's text.  When
    possible(e) is false, trees(q, e) has no rendering other than the
    seed's, and the rule returns before it builds or renders any."""
    def build(q, e, ctx, schema):
        if not possible(e):
            return None
        seed_text = render(q)
        cands = []
        for t in trees(q, e):
            others = [c for c in surface_candidates(t)
                      if render(c) != seed_text]
            if others:
                target = commute_normal(t)
                cands.extend((c, target) for c in others)
        right, right_tree = _first_realized(
            _furthest_first(seed_text, cands), schema)
        if right is None:
            return None
        return QueryPair(q, right, rule, SEED_VS_MUTANT, e, right_tree)
    return build


def _seed_tree(q, e):
    """The seed's own tree; set operations are left to union-commute."""
    return [e] if q.set_op is None else []


def _unary_nodes(e):
    """e's unary nodes, those in the operands of a set operation too: a
    plain walk that builds no paths."""
    out, todo = [], [e]
    while todo:
        n = todo.pop()
        t = type(n)
        if t is Union or t is UnionAll:
            todo += (n.right, n.left)
        elif t is not Scan:
            out.append(n)
            todo.append(n.child)
    return out


# what a tree must hold for a rendering rule to find a rendering other
# than the seed's: walks of the tree, no candidates

def _has_project_chain(e) -> bool:
    return any(type(n) is Project and type(n.child) is Project
               for n in _unary_nodes(e))


def _over_one_table(e) -> bool:
    """Whether e is a pipeline over a one-table Scan.  A grouped form
    reads one table, so over two the only valid form is the seed's own
    (DISTINCT, every filter in WHERE); set operations are left to
    union-commute."""
    while type(e) is not Scan:
        if type(e) is Union or type(e) is UnionAll:
            return False
        e = e.child
    return len(e.tables) == 1


def _has_filter_by_dedup(e) -> bool:
    return _over_one_table(e) and any(
        {type(n), type(n.child)} == {Filter, Dedup} for n in _unary_nodes(e))


def _has_many_forms(e) -> bool:
    """Whether e has more than one valid surface form.  Without a Dedup
    or an Agg with keys, every filter renders as WHERE and the one form
    left is the seed's own; a Dedup directly over an Agg without keys
    renders only as DISTINCT."""
    return _over_one_table(e) and any(
        type(n) is Dedup and not (type(n.child) is Agg and not n.child.keys)
        or type(n) is Agg and n.keys for n in _unary_nodes(e))


# catalog order: shape-specific rules first so grouped / distinct /
# set-operation seeds reach the rule that stresses them hardest
_RULE_FNS = {
    "grouped-filter-insertion": _grouped_filter_insertion,
    "dedup-insertion": _dedup_insertion,
    # a filter covered by the dedup keys moves across the dedup
    "dedup-filter-commute": _rendering_rule(
        "dedup-filter-commute",
        lambda q, e: [t for t in _seed_tree(q, e)
                      if ir_sites("dedup-filter-commute", t)],
        _has_filter_by_dedup),
    "union-commute": _union_commute,
    "selection-commute": _selection_commute,
    # an alternative surface rendering of the same algebra tree
    "projection-pull-up": _rendering_rule(
        "projection-pull-up", _seed_tree, _has_many_forms),
    # lowered surface queries never contain a projection chain, so this
    # only fires on synthetic algebra seeds
    "projection-cascade": _rendering_rule(
        "projection-cascade", lambda q, e: _rewrites("projection-cascade", e),
        _has_project_chain),
}

RULE_CATALOG = tuple(_RULE_FNS)


def _may_pair(q: SqlQuery) -> bool:
    """Whether some rule in the catalog can pair q.
    grouped-filter-insertion needs group keys (HAVING needs them too);
    dedup-insertion, dedup-filter-commute and projection-pull-up a Dedup
    or a keyed Agg, which only DISTINCT or GROUP BY lowers to;
    union-commute a set operation; selection-commute two conjuncts in
    WHERE or HAVING; and projection-cascade a Project on a Project, which
    no lowered seed has.  The rules keep their own checks, since tests
    call them directly."""
    return (q.group_by is not None or q.distinct or q.set_op is not None
            or type(q.where) is And)


def transform_query(seed: SqlQuery, schema: Schema,
                    ctx: Optional[TransformContext] = None) -> QueryPair:
    """First rule in catalog order that yields a pair for this seed.

    The seed must be qualified and valid on schema, as generate_seed
    builds it (every ref from Schema.column_refs); like lower, this trusts
    its input and does not check it.  Pass qualify(q, schema) for a query
    from anywhere else.  Seed-vs-mutant rules only commute, swap or
    re-render the seed, so both sides keep the seed's static sensitivity
    class.  A seed that no rule can pair (see _may_pair) is refused
    before it is lowered.
    """
    if not _may_pair(seed):
        raise NoRuleApplies(f"no rule applies to: {render(seed)}")
    ctx = ctx or TransformContext()
    e = lower(seed)
    for name in RULE_CATALOG:
        if not ctx.allows(name):
            continue
        pair = _RULE_FNS[name](seed, e, ctx, schema)
        if pair is not None:
            return pair
    raise NoRuleApplies(f"no rule applies to: {render(seed)}")


# ---------------------------------------------------------------------------
# algebra-level rewrite sites (used by mutant enumeration and rule tests)


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
_IR_TABLE = {
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

IR_RULES = tuple(_IR_TABLE)


def ir_sites(rule: str, e) -> list:
    """Paths where an algebra-level rule can rewrite the tree."""
    applies, _ = _IR_TABLE[rule]
    return [p for p, n in _paths(e) if applies(n)]


def ir_rewrite(rule: str, e, site):
    return _set(e, site, _IR_TABLE[rule][1](_get(e, site)))


def _rewrites(rule: str, e) -> list:
    return [ir_rewrite(rule, e, site) for site in ir_sites(rule, e)]


def enumerate_mutants(e, limit: int = 16) -> list:
    """Distinct single-step algebra rewrites of e, deterministic order."""
    out = []
    seen = {e}
    for rule in IR_RULES:
        for m in _rewrites(rule, e):
            if m not in seen:
                seen.add(m)
                out.append(m)
                if len(out) >= limit:
                    return out
    return out
