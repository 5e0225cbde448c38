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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional

from .algebra import (
    Agg, Dedup, Filter, Project, Union, UnionAll, join_conjuncts, lower,
    pred_refs, remap_to_sql, split_conjuncts, _refset,
)
from .dbgen import RANDOM_POOLS
from .sensitivity import Sensitivity, classify
from .sqlast import (
    And, Cmp, ColumnRef, Const, Schema, SqlQuery, qualify, render, validate,
)


def _valid_candidates(e, schema):
    """Remap candidates that also pass semantic validation (e.g. grouped
    forms are single-table only, so some renderings drop out)."""
    return [c for c in remap_to_sql(e) if not validate(c, schema)]


class NoRuleApplies(Exception):
    pass


@dataclass(frozen=True)
class QueryPair:
    left: SqlQuery
    right: SqlQuery
    rule: str
    pairing: str  # "seed-vs-mutant" | "mutant-vs-mutant"


@dataclass
class TransformContext:
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    # (table, column) -> sample values from a live database, used to pick
    # filter constants that actually select something
    value_hints: dict = field(default_factory=dict)
    enabled_rules: Optional[frozenset] = None

    def allows(self, rule: str) -> bool:
        return self.enabled_rules is None or rule in self.enabled_rules


SEED_VS_MUTANT = "seed-vs-mutant"
MUTANT_VS_MUTANT = "mutant-vs-mutant"

# catalog order: shape-specific rules first so grouped / distinct /
# set-operation seeds reach the rule that stresses them hardest
RULE_CATALOG = (
    "grouped-filter-insertion",
    "dedup-insertion",
    "dedup-filter-commute",
    "union-commute",
    "selection-commute",
    "projection-pull-up",
    "projection-cascade",
)

CMP_OPS_FOR_INSERTION = ("=", "!=", "<", "<=", ">", ">=")


def _texts_differ(a: SqlQuery, b: SqlQuery) -> bool:
    return render(a) != render(b)


def _text_distance(a: str, b: str) -> int:
    ta, tb = a.split(), b.split()
    common = len(set(ta) & set(tb))
    return len(set(ta)) + len(set(tb)) - 2 * common + abs(len(ta) - len(tb))


def pick_constant(ctx: TransformContext, schema: Schema, col: ColumnRef):
    hints = [v for v in ctx.value_hints.get((col.table, col.name), ())
             if v is not None]
    if hints:
        return ctx.rng.choice(sorted(hints, key=str))
    ty = schema.col_type(col.table, col.name)
    return ctx.rng.choice(RANDOM_POOLS[ty])


# ---------------------------------------------------------------------------
# rule implementations over the surface query


def _grouped_filter_insertion(q, e, ctx, schema):
    """WHERE p against HAVING p for p over a group key: equivalent because
    a group vanishes exactly when its key fails p, whether the rows are
    dropped before grouping or the finished group is dropped after."""
    if q.group_by is None or not q.group_by or q.set_op is not None:
        return None
    key = ctx.rng.choice(q.group_by)
    op = ctx.rng.choice(CMP_OPS_FOR_INSERTION)
    p = Cmp(key, op, Const(pick_constant(ctx, schema, key)))
    left = replace(q, where=And(q.where, p) if q.where is not None else p)
    right = replace(q, having=And(q.having, p) if q.having is not None else p)
    if not _texts_differ(left, right):
        return None
    return QueryPair(left, right, "grouped-filter-insertion",
                     MUTANT_VS_MUTANT)


def _dedup_insertion(q, e, ctx, schema):
    """DISTINCT form against GROUP BY form of one deduplicating query."""
    if q.set_op is not None or q.has_aggregates():
        return None
    if not q.distinct and q.group_by is None:
        return None
    if classify(e) is not Sensitivity.INSENSITIVE:
        return None
    cands = _valid_candidates(e, schema)
    distinct_forms = [c for c in cands if c.distinct]
    grouped_forms = [c for c in cands
                     if c.group_by is not None and not c.distinct]
    if not distinct_forms or not grouped_forms:
        return None
    left = distinct_forms[0]
    right = max(grouped_forms,
                key=lambda c: (_text_distance(render(left), render(c)),
                               render(c)))
    return QueryPair(left, right, "dedup-insertion", MUTANT_VS_MUTANT)


def _dedup_filter_commute(q, e, ctx, schema):
    """Move a filter across a dedup whose keys cover the predicate."""
    if q.set_op is not None:
        return None
    if not _ir_sites_dedup_filter(e):
        return None
    cands = [c for c in _valid_candidates(e, schema) if _texts_differ(q, c)]
    if not cands:
        return None
    seed_text = render(q)
    right = max(cands, key=lambda c: (_text_distance(seed_text, render(c)),
                                      render(c)))
    return QueryPair(q, right, "dedup-filter-commute", SEED_VS_MUTANT)


def _union_commute(q, e, ctx, schema):
    if q.set_op is None:
        return None
    op, rhs = q.set_op
    left_core = replace(q, set_op=None)
    right = replace(rhs, set_op=(op, left_core))
    if not _texts_differ(q, right):
        return None
    return QueryPair(q, right, "union-commute", SEED_VS_MUTANT)


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
                                 SEED_VS_MUTANT)
    return None


def _projection_pull_up(q, e, ctx, schema):
    """Alternative surface rendering of the same algebra tree."""
    if q.set_op is not None:
        return None
    cands = [c for c in _valid_candidates(e, schema) if _texts_differ(q, c)]
    if not cands:
        return None
    seed_text = render(q)
    right = max(cands, key=lambda c: (_text_distance(seed_text, render(c)),
                                      render(c)))
    return QueryPair(q, right, "projection-pull-up", SEED_VS_MUTANT)


def _projection_cascade(q, e, ctx, schema):
    """Collapse nested projections; lowered surface queries never contain
    a projection chain, so this only fires on synthetic algebra seeds."""
    sites = ir_sites("projection-cascade", e)
    for site in sites:
        m = ir_rewrite("projection-cascade", e, site)
        cands = [c for c in _valid_candidates(m, schema) if _texts_differ(q, c)]
        if cands:
            return QueryPair(q, cands[0], "projection-cascade",
                             SEED_VS_MUTANT)
    return None


_RULE_FNS = {
    "grouped-filter-insertion": _grouped_filter_insertion,
    "dedup-insertion": _dedup_insertion,
    "dedup-filter-commute": _dedup_filter_commute,
    "union-commute": _union_commute,
    "selection-commute": _selection_commute,
    "projection-pull-up": _projection_pull_up,
    "projection-cascade": _projection_cascade,
}


def transform_query(seed: SqlQuery, schema: Schema,
                    ctx: Optional[TransformContext] = None) -> QueryPair:
    """First rule in catalog order that yields a pair for this seed.

    Seed-vs-mutant rules only commute, swap or re-render the seed, so both
    sides keep the seed's static sensitivity class.
    """
    ctx = ctx or TransformContext()
    q = qualify(seed, schema)
    e = lower(q)
    for name in RULE_CATALOG:
        if not ctx.allows(name):
            continue
        pair = _RULE_FNS[name](q, e, ctx, schema)
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
    if not path:
        return new
    head, rest = path[0], path[1:]
    child = _set(getattr(e, head), rest, new)
    if isinstance(e, (Union, UnionAll)):
        return type(e)(child, e.right) if head == "left" \
            else type(e)(e.left, child)
    if isinstance(e, Project):
        return Project(e.cols, child)
    if isinstance(e, Filter):
        return Filter(e.pred, child)
    if isinstance(e, Dedup):
        return Dedup(e.keys, child)
    if isinstance(e, Agg):
        return Agg(e.select, e.keys, child)
    raise TypeError(e)


def _ir_sites_dedup_filter(e):
    out = []
    for path, node in _paths(e):
        if isinstance(node, Filter) and isinstance(node.child, Dedup) \
                and pred_refs(node.pred) <= _refset(node.child.keys):
            out.append(path)
        elif isinstance(node, Dedup) and isinstance(node.child, Filter) \
                and pred_refs(node.child.pred) <= _refset(node.keys):
            out.append(path)
    return out


def ir_sites(rule: str, e) -> list:
    """Paths where an algebra-level rule can rewrite the tree."""
    if rule == "selection-commute":
        return [p for p, n in _paths(e)
                if isinstance(n, Filter) and isinstance(n.child, Filter)
                and n.pred != n.child.pred]
    if rule == "projection-cascade":
        return [p for p, n in _paths(e)
                if isinstance(n, Project) and isinstance(n.child, Project)
                and _refset(n.cols) <= _refset(n.child.cols)]
    if rule == "union-commute":
        return [p for p, n in _paths(e) if isinstance(n, (Union, UnionAll))]
    if rule == "dedup-filter-commute":
        return _ir_sites_dedup_filter(e)
    raise KeyError(rule)


def ir_rewrite(rule: str, e, site):
    node = _get(e, site)
    if rule == "selection-commute":
        new = Filter(node.child.pred, Filter(node.pred, node.child.child))
    elif rule == "projection-cascade":
        new = Project(node.cols, node.child.child)
    elif rule == "union-commute":
        new = type(node)(node.right, node.left)
    elif rule == "dedup-filter-commute":
        if isinstance(node, Filter):
            d = node.child
            new = Dedup(d.keys, Filter(node.pred, d.child))
        else:
            f = node.child
            new = Filter(f.pred, Dedup(node.keys, f.child))
    else:
        raise KeyError(rule)
    return _set(e, site, new)


IR_RULES = ("selection-commute", "projection-cascade", "union-commute",
            "dedup-filter-commute")


def enumerate_mutants(e, limit: int = 16) -> list:
    """Distinct single-step algebra rewrites of e, deterministic order."""
    out = []
    seen = {e}
    for rule in IR_RULES:
        for site in ir_sites(rule, e):
            m = ir_rewrite(rule, e, site)
            if m not in seen:
                seen.add(m)
                out.append(m)
                if len(out) >= limit:
                    return out
    # dedup insertion below the top projection when it is the identity
    if isinstance(e, Project) and classify(e) is Sensitivity.INSENSITIVE \
            and not isinstance(e.child, Dedup):
        m = Project(e.cols, Dedup(tuple(dict.fromkeys(e.cols)), e.child))
        if m not in seen and len(out) < limit:
            out.append(m)
    return out
