"""surface_candidates stays the same on a fixed corpus of algebra trees.

The corpus is deterministic: lowered generated seeds, every single-step
rewrite of them in transform's rewrite table, their enumerate_mutants
results and Dedup/Project wrappers of all of these, and seeded random
Project/Dedup/Filter/Agg stacks (typed and ill-typed, with aggregate calls,
empty keys and set operations).  For each tree the digest takes the
candidates in generation order and which of them realize the tree, or the
class and message of the exception.  A change that alters the candidates
on purpose records the new digest here and says why in CHANGES.md.
"""

import hashlib
import random

from eqmorph.algebra import (
    Agg, AlgebraTypeError, Dedup, Filter, Project, RemapError, Scan, Union,
    UnionAll, agg_output_ref, commute_normal, lower, realizes,
    surface_candidates,
)
from eqmorph.harness import generate_schema, generate_seed
from eqmorph.sqlast import AGG_FNS, CMP_OPS, AggCall, And, Cmp, ColumnRef, \
    Const, qualify
from eqmorph.transform import IR_RULES, enumerate_mutants, ir_rewrite, \
    ir_sites

DIGEST = "ff91ab36276363348fc0c4af7f36f3b4154cb0eb602c370a1e2ce7561ec5e7c4"

COLS = tuple(ColumnRef(c, "t0") for c in "abc")


def _seed_trees():
    rng = random.Random("surface-pin")
    for _ in range(40):
        schema = generate_schema(rng)
        for _ in range(25):
            e = lower(qualify(generate_seed(rng, schema), schema))
            trees = [e]
            for rule in IR_RULES:
                trees += [ir_rewrite(rule, e, s) for s in ir_sites(rule, e)]
            trees += enumerate_mutants(e)
            for t in trees:
                yield t
                if isinstance(t, Project):
                    yield Dedup(tuple(dict.fromkeys(t.cols)), t)
                    yield Project(t.cols, t)


def _pick(rng, items, lo=0):
    return tuple(rng.sample(items, rng.randint(min(lo, len(items)),
                                               len(items))))


def _pred(rng, cols):
    cols = list(cols)
    if not cols or rng.random() < 0.1:
        return Cmp(Const(1), rng.choice(CMP_OPS), Const(rng.randint(0, 2)))
    p = Cmp(rng.choice(cols), rng.choice(CMP_OPS), Const(rng.randint(0, 2)))
    if rng.random() < 0.3:
        p = And(p, _pred(rng, cols))
    return p


def _stack(rng):
    """A random unary stack over a scan; its column references are mostly
    but not always in scope."""
    e = Scan(("t0",) if rng.random() < 0.9 else ("t0", "t1"))
    visible = list(COLS)
    for _ in range(rng.randint(0, 5)):
        roll = rng.random()
        if roll < 0.35:
            e = Filter(_pred(rng, visible if rng.random() < 0.9 else COLS), e)
        elif roll < 0.6:
            e = Dedup(_pick(rng, visible), e)
        elif roll < 0.85:
            visible = list(_pick(rng, visible if rng.random() < 0.9 else COLS,
                                 lo=1))
            e = Project(tuple(visible), e)
        else:
            keys = _pick(rng, visible)
            calls = [AggCall(rng.choice(AGG_FNS), rng.choice(COLS))
                     for _ in range(rng.randint(0, 2))]
            if rng.random() < 0.3:
                calls.append(AggCall("COUNT", None))
            select = list(_pick(rng, keys)) + calls
            rng.shuffle(select)
            e = Agg(tuple(select), keys, e)
            visible = list(keys) + [agg_output_ref(c) for c in calls]
    if type(e) is not Project and rng.random() < 0.6:
        e = Project(_pick(rng, visible, lo=1), e)
    return e


def _random_trees():
    rng = random.Random("surface-pin-stacks")
    for _ in range(6000):
        e = _stack(rng)
        roll = rng.random()
        if roll < 0.15:
            e = rng.choice((Union, UnionAll))(e, _stack(rng))
        elif roll < 0.18:
            e = Project(COLS[:1], Union(e, _stack(rng)))
        yield e


def _outcome(e) -> str:
    try:
        cands = surface_candidates(e)
    except (AlgebraTypeError, RemapError) as ex:
        return f"{type(ex).__name__}: {ex}"
    target = commute_normal(e)
    return "\n".join(f"{realizes(c, target)} {c!r}" for c in cands)


def test_surface_candidates_are_unchanged():
    digest = hashlib.sha256()
    for e in [*_seed_trees(), *_random_trees()]:
        digest.update(f"{e!r}\n{_outcome(e)}\n\n".encode())
    assert digest.hexdigest() == DIGEST
