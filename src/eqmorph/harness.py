"""Campaign harness: seed generation, pair comparison, and the
generate/transform/filter/execute/compare loop.

Each iteration builds a fresh random schema and database, loads it into
the target engine, then streams generated seed queries through the rule
catalog.  Pairs whose two lowered trees share a commute-normal form
(algebra.equivalent_mod_commute), or that survive the equivalence filter's
bounded probe, run on the target; result multisets that differ become
persisted bug reports with a self-contained SQL reproducer.

Everything is driven by a string seed so a campaign replays byte-for-byte
(timestamps aside).
"""

from __future__ import annotations

import json
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

from . import dbgen
from .adapter import EngineError
from .algebra import equivalent_mod_commute
from .equivfilter import (
    DEFAULT_BUDGET, NoCounterexample, NotEquivalent, check_bounded,
)
# unused here; bound because perfbench/spans.py traces harness.parse by name
from .parser import parse  # noqa: F401
from .refdb import STABLE_ERROR_CODES, dump_script
from .sqlast import (
    CMP_OPS, UNION, UNION_ALL, VALID_COL_TYPES, AggCall, And, Cmp, Const,
    Not, Or, Schema, SqlQuery, TruthLit, render,
)
from .transform import NoRuleApplies, TransformContext, transform_query
from .values import TruthValue, parse_rendered, row_sort_key

COMPARE_MODES = ("canonical", "raw-text", "both")


# ---------------------------------------------------------------------------
# generation


@dataclass
class GeneratorConfig:
    queries_per_iteration: int = 2000
    filter_budget: int = DEFAULT_BUDGET


# The generator's fixed shape (dbgen owns the row bounds).  The W_* weights
# pick a plain, filtered, aggregate or grouped select and sum to exactly
# 1.0; the P_* values are the chances of optional clauses.
MAX_TABLES = 2
MIN_COLUMNS = 2
MAX_COLUMNS = 4
W_PLAIN = 0.2
W_FILTERED = 0.3
W_AGG = 0.3
W_GROUPED = 0.2
P_DISTINCT = 0.25
P_HAVING = 0.5
P_WHERE_ON_GROUPED = 0.4
P_SET_OP = 0.15
P_TWO_TABLES = 0.2
PRED_DEPTH = 2


def generate_schema(rng: random.Random,
                    cfg: GeneratorConfig | None = None) -> Schema:
    """Random schema with globally unique column names (no ambiguity)."""
    # cfg is unread; perfbench/run.py still passes it
    n_tables = rng.randint(1, MAX_TABLES)
    tables = []
    counter = 0
    for t in range(n_tables):
        n_cols = rng.randint(MIN_COLUMNS, MAX_COLUMNS)
        # always at least one int and one dec column so grouping keys and
        # SUM/AVG arguments exist
        types = ["int", "dec"]
        while len(types) < n_cols:
            types.append(rng.choice(VALID_COL_TYPES))
        rng.shuffle(types)
        cols = []
        for ty in types:
            cols.append((f"c{counter}", ty))
            counter += 1
        tables.append((f"t{t}", tuple(cols)))
    return Schema(tuple(tables))


def generate_database(rng: random.Random, schema: Schema,
                      cfg: GeneratorConfig | None = None):
    # cfg is unread; perfbench/run.py still passes it
    return dbgen.random_database(schema, rng)


def value_hints_of(db) -> dict:
    """(table, column) -> the column's distinct non-NULL values, by str."""
    hints = {}
    for name, t in db.items():
        for i, (col, _) in enumerate(t.columns):
            vals = sorted({row[i] for row in t.rows
                           if row[i] is not None}, key=str)
            hints[(name, col)] = vals
    return hints


def _pick_subset(rng, items, min_size=1):
    k = rng.randint(min_size, len(items))
    return rng.sample(list(items), k)


def _gen_term_const(rng, ty):
    if rng.random() < 0.1:
        return Const(None)
    return Const(rng.choice(dbgen.RANDOM_POOLS[ty]))


def _gen_leaf_pred(rng, cols, schema):
    if rng.random() < 0.05:
        return TruthLit(rng.choice((TruthValue.TRUE, TruthValue.FALSE,
                                    TruthValue.UNKNOWN)))
    col = rng.choice(cols)
    op = rng.choice(CMP_OPS)
    kinds = schema._kinds
    kind = kinds[(col.table, col.name)]
    peers = [c for c in cols if kinds[(c.table, c.name)] == kind]
    if len(peers) > 1 and rng.random() < 0.25:
        other = rng.choice([c for c in peers if c != col] or peers)
        return Cmp(col, op, other)
    return Cmp(col, op, _gen_term_const(
        rng, schema.col_type(col.table, col.name)))


def gen_pred(rng, cols, schema, depth):
    if depth <= 0 or rng.random() < 0.5:
        return _gen_leaf_pred(rng, cols, schema)
    roll = rng.random()
    if roll < 0.45:
        return And(gen_pred(rng, cols, schema, depth - 1),
                   gen_pred(rng, cols, schema, depth - 1))
    if roll < 0.85:
        return Or(gen_pred(rng, cols, schema, depth - 1),
                  gen_pred(rng, cols, schema, depth - 1))
    return Not(gen_pred(rng, cols, schema, depth - 1))


def _gen_plain_core(rng, schema, with_where):
    tables = [rng.choice(schema.table_names())]
    if len(schema.table_names()) > 1 and rng.random() < P_TWO_TABLES:
        other = rng.choice([t for t in schema.table_names()
                            if t != tables[0]])
        tables.append(other)
    cols = [c for t in tables for c in schema.column_refs(t)]
    select = tuple(_pick_subset(rng, cols))
    where = gen_pred(rng, cols, schema, PRED_DEPTH) if with_where else None
    return SqlQuery(select, tuple(tables), where=where)


def _gen_agg_core(rng, schema):
    table = rng.choice(schema.table_names())
    cols = schema.column_refs(table)
    numeric = [c for c in cols if schema._kinds[(table, c.name)] == "num"]
    keys = _pick_subset(rng, cols, min_size=0) if rng.random() < 0.8 else []
    select = [k for k in keys if rng.random() < 0.7]
    for _ in range(rng.randint(1, 2)):
        fn = rng.choice(("COUNT", "SUM", "MIN", "MAX", "AVG", "SUM"))
        if fn == "COUNT" and rng.random() < 0.4:
            select.append(AggCall("COUNT", None))
        elif fn in ("SUM", "AVG"):
            select.append(AggCall(fn, rng.choice(numeric)))
        else:
            select.append(AggCall(fn, rng.choice(cols)))
    rng.shuffle(select)
    where = (gen_pred(rng, cols, schema, PRED_DEPTH)
             if rng.random() < P_WHERE_ON_GROUPED else None)
    having = (gen_pred(rng, list(keys), schema, PRED_DEPTH - 1)
              if keys and rng.random() < P_HAVING else None)
    return SqlQuery(tuple(select), (table,), where=where,
                    group_by=tuple(keys) if keys else None, having=having)


def _gen_grouped_core(rng, schema):
    table = rng.choice(schema.table_names())
    cols = schema.column_refs(table)
    keys = _pick_subset(rng, cols)
    select = tuple(_pick_subset(rng, keys))
    where = (gen_pred(rng, cols, schema, PRED_DEPTH)
             if rng.random() < P_WHERE_ON_GROUPED else None)
    having = (gen_pred(rng, keys, schema, PRED_DEPTH - 1)
              if rng.random() < P_HAVING else None)
    return SqlQuery(select, (table,), where=where, group_by=tuple(keys),
                    having=having)


def _matching_core(rng, schema, left: SqlQuery):
    """A second plain core whose column types match left's, per position."""
    kinds = schema._kinds
    want = [kinds[(it.table, it.name)] for it in left.select]
    for table in sorted(schema.table_names(), key=lambda t: rng.random()):
        cols = schema.column_refs(table)
        by_kind = {"num": [], "str": []}
        for c in cols:
            by_kind[kinds[(table, c.name)]].append(c)
        if all(by_kind[k] for k in want):
            select = tuple(rng.choice(by_kind[k]) for k in want)
            where = (gen_pred(rng, cols, schema, PRED_DEPTH)
                     if rng.random() < 0.5 else None)
            return SqlQuery(select, (table,), where=where)
    return None


def generate_seed(rng: random.Random, schema: Schema) -> SqlQuery:
    """A schema-valid seed query; every reference resolves by construction."""
    roll = rng.random()  # the weights sum to 1.0
    if roll < W_PLAIN:
        q = _gen_plain_core(rng, schema, with_where=False)
    elif roll < W_PLAIN + W_FILTERED:
        q = _gen_plain_core(rng, schema, with_where=True)
    elif roll < W_PLAIN + W_FILTERED + W_AGG:
        q = _gen_agg_core(rng, schema)
    else:
        q = _gen_grouped_core(rng, schema)

    if not q.is_grouped():
        # a plain core, not yet DISTINCT; only these get a set operation,
        # though the sensitivity fold is sound on any set operation
        if rng.random() < P_SET_OP:
            rhs = _matching_core(rng, schema, q)
            if rhs is not None:
                op = rng.choice((UNION, UNION_ALL))
                q = replace(q, set_op=(op, rhs))
        if q.set_op is None and rng.random() < P_DISTINCT:
            q = replace(q, distinct=True)
    elif rng.random() < P_DISTINCT * 0.4:
        q = replace(q, distinct=True)
    return q


# ---------------------------------------------------------------------------
# comparison


def _canonical_counter(rows):
    return Counter(tuple(parse_rendered(c) for c in row) for row in rows)


def compare_results(left_rows, right_rows, mode: str) -> bool:
    """Whether two rendered row multisets are equal.

    canonical: cells are parsed back to values (decimals quantized) so
    formatting differences are ignored.  raw-text: exact string rows.
    """
    # "both" is _judge's mode, built from the other two
    if mode not in COMPARE_MODES or mode == "both":
        raise ValueError(f"unknown compare mode {mode!r}")
    arities = {len(r) for r in left_rows} | {len(r) for r in right_rows}
    if len(arities) > 1:
        return False
    if mode == "canonical":
        return _canonical_counter(left_rows) == _canonical_counter(right_rows)
    return Counter(map(tuple, left_rows)) == Counter(map(tuple, right_rows))


# ---------------------------------------------------------------------------
# reports and stats


@dataclass
class BugReport:
    id: str
    schemaDdl: str
    inserts: str
    leftSql: str
    rightSql: str
    leftResult: dict
    rightResult: dict
    ruleName: str
    pairing: str
    kind: str  # "result-divergence" | "error-divergence"
    compareMode: str
    rngSeed: str
    filterBudgetUsed: int
    targetId: str
    timestamp: str

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str) -> "BugReport":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(
                f"a bug report is a JSON object, not {type(data).__name__}")
        names = {f.name for f in fields(BugReport)}
        missing, unknown = names - data.keys(), data.keys() - names
        if missing or unknown:
            raise ValueError(
                f"bad bug report: missing fields {sorted(missing)}, "
                f"unknown fields {sorted(unknown)}")
        for f in fields(BugReport):
            # json.loads gives exact types, so a bool is no int here
            found = type(data[f.name]).__name__
            if found != f.type:
                raise ValueError(
                    f"bad bug report: {f.name} is {found}, not {f.type}")
        return BugReport(**data)

    def reproducer_sql(self) -> str:
        lines = [self.schemaDdl.rstrip()]
        if self.inserts.strip():
            lines.append(self.inserts.rstrip())
        lines.append(f"-- rule: {self.ruleName} ({self.pairing})")
        lines.append(f"-- left\n{self.leftSql};")
        lines.append(f"-- right\n{self.rightSql};")
        return "\n".join(lines) + "\n"


@dataclass
class IterationStats:
    """One iteration's counters.  A seed sends the target the two sides of
    its emitted pair, or, with no pair (no rule applies, or the filter
    found a counterexample), itself; validAfterExecution counts the seeds
    whose every sent statement ran without error."""
    iteration: int
    generated: int = 0
    validAfterExecution: int = 0
    pairsEmitted: int = 0
    pairsFiltered: int = 0
    mismatches: int = 0
    elapsed: float = 0.0

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


def _split_script(script: str):
    """(DDL part, INSERT part) of a dump_script output."""
    ddl, ins = [], []
    for line in script.splitlines():
        (ddl if line.startswith("CREATE") else ins).append(line)
    return "\n".join(ddl) + "\n", ("\n".join(ins) + "\n") if ins else ""


def _rows_payload(rows) -> dict:
    counted = Counter(map(tuple, rows))
    return {"rows": [[list(r), m] for r, m in
                     sorted(counted.items(),
                            key=lambda kv: row_sort_key(kv[0]))]}


def _error_payload(err) -> dict:
    return {"error": {"code": err.code, "message": err.message}}


# ---------------------------------------------------------------------------
# the loop


@dataclass
class IterationResult:
    stats: IterationStats
    reports: list


def run_iteration(endpoint, cfg: GeneratorConfig, campaign_seed: str,
                  iteration: int, compare_mode: str = "both",
                  error_list=STABLE_ERROR_CODES,
                  enabled_rules=None) -> IterationResult:
    """One campaign iteration against an engine endpoint.

    The endpoint contract: reset(script) loads a fresh database;
    exec_sql(sql) returns rendered rows or raises EngineError with a code.
    """
    t0 = time.monotonic()
    rng = random.Random(f"{campaign_seed}:{iteration}")
    schema = generate_schema(rng)
    db = generate_database(rng, schema)
    script = dump_script(db)
    endpoint.reset(script)
    ddl, inserts = _split_script(script)

    ctx = TransformContext(rng=rng, value_hints=value_hints_of(db),
                           enabled_rules=(None if enabled_rules is None
                                          else frozenset(enabled_rules)))
    stats = IterationStats(iteration=iteration)
    reports = []

    for i in range(cfg.queries_per_iteration):
        seed_q = generate_seed(rng, schema)
        stats.generated += 1
        try:
            pair = transform_query(seed_q, schema, ctx)
        except NoRuleApplies:
            stats.validAfterExecution += _runs_alone(endpoint, seed_q)
            continue

        # a pair probes no database when the filter is off or its two
        # trees prove it; the others share one probe corpus per iteration
        if cfg.filter_budget <= 0 or equivalent_mod_commute(
                pair.left_tree, pair.right_tree):
            verdict = NoCounterexample(0)
        else:
            verdict = check_bounded(pair.left, pair.right, schema,
                                    budget=cfg.filter_budget,
                                    seed=f"{campaign_seed}:{iteration}")
        if isinstance(verdict, NotEquivalent):
            stats.pairsFiltered += 1
            stats.validAfterExecution += _runs_alone(endpoint, seed_q)
            continue
        stats.pairsEmitted += 1

        # the two sides of a pair never render to the same text
        left_sql, right_sql = render(pair.left), render(pair.right)
        left = _target_outcome(endpoint, left_sql)
        right = _target_outcome(endpoint, right_sql)
        if left[0] == right[0] == "rows":
            stats.validAfterExecution += 1

        mismatch = _judge(left, right, compare_mode, error_list)
        if mismatch is None:
            continue
        kind, mode_used, l_payload, r_payload = mismatch
        stats.mismatches += 1
        rid = f"{campaign_seed}-{iteration}-{i}"
        reports.append(BugReport(
            id=rid, schemaDdl=ddl, inserts=inserts,
            leftSql=left_sql, rightSql=right_sql,
            leftResult=l_payload, rightResult=r_payload,
            ruleName=pair.rule, pairing=pair.pairing,
            kind=kind, compareMode=mode_used,
            rngSeed=f"{campaign_seed}:{iteration}",
            filterBudgetUsed=verdict.budget_used,
            targetId=getattr(endpoint, "target_id", "unknown"),
            timestamp=datetime.now(timezone.utc).isoformat(),
        ))

    stats.elapsed = time.monotonic() - t0
    return IterationResult(stats, reports)


def _runs_alone(endpoint, seed_q) -> bool:
    """Whether a seed with no pair to compare runs on the target without
    error; it is sent once, for its validity alone."""
    return _target_outcome(endpoint, render(seed_q))[0] == "rows"


def _target_outcome(endpoint, sql):
    try:
        return ("rows", endpoint.exec_sql(sql))
    except EngineError as e:
        return ("error", e)


def _judge(left, right, compare_mode, error_list):
    """None when the pair agrees; otherwise (kind, mode, payloads)."""
    lk, lv = left
    rk, rv = right
    if lk == "error" and rk == "error":
        if lv.code == rv.code:
            return None
        return ("error-divergence", "n/a",
                _error_payload(lv), _error_payload(rv))
    if lk == "error" or rk == "error":
        err = lv if lk == "error" else rv
        # known engine error codes are expected; others are kept for triage
        if err.code in error_list:
            return None
        lp = _error_payload(lv) if lk == "error" else _rows_payload(lv)
        rp = _error_payload(rv) if rk == "error" else _rows_payload(rv)
        return ("error-divergence", "n/a", lp, rp)
    if lv == rv:
        # equal lists are equal multisets, in every compare mode
        return None
    if compare_mode != "both":
        if compare_results(lv, rv, compare_mode):
            return None
        mode = compare_mode
    elif compare_results(lv, rv, "raw-text"):
        # equal rendered rows are equal canonically too
        return None
    else:
        # cells are parsed only to tell a value difference from a
        # formatting one
        mode = "raw-text" if compare_results(lv, rv, "canonical") \
            else "canonical"
    return ("result-divergence", mode, _rows_payload(lv), _rows_payload(rv))


# ---------------------------------------------------------------------------
# persistence and replay


def _write_atomically(path: Path, text: str) -> None:
    """Write text under a hidden temporary name beside path, then rename
    it into place: a write cut short leaves no partial file, at path or
    under the temporary name."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def persist_iteration(out_dir, result: IterationResult):
    """Write the iteration's reports, each file whole or not at all, then
    append its stats line last, as the iteration's commit mark."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for rep in result.reports:
        _write_atomically(out / f"report-{rep.id}.json",
                          rep.to_json() + "\n")
        _write_atomically(out / f"report-{rep.id}.sql",
                          rep.reproducer_sql())
    with (out / "stats.jsonl").open("a") as fh:
        fh.write(result.stats.to_json() + "\n")


@dataclass(frozen=True)
class ReplayResult:
    reproduced: bool
    detail: str


def replay_report(report: BugReport, endpoint,
                  error_list=STABLE_ERROR_CODES) -> ReplayResult:
    """Re-run a persisted report's pair on its database; reproduced means
    the divergence is still observable."""
    endpoint.reset(report.schemaDdl + report.inserts)
    left = _target_outcome(endpoint, report.leftSql)
    right = _target_outcome(endpoint, report.rightSql)
    mode = report.compareMode if report.compareMode != "n/a" else "both"
    mismatch = _judge(left, right,
                      mode if mode in COMPARE_MODES else "both", error_list)
    if mismatch is None:
        return ReplayResult(False, "pair agreed on replay")
    return ReplayResult(True, f"{mismatch[0]} ({mismatch[1]})")
