"""Reference SQL executor with multiset semantics and injectable faults.

Relations are multisets: a mapping from row tuples to multiplicities.
Predicates use three-valued logic; WHERE and HAVING keep rows/groups whose
predicate is true (not unknown).  NULLs compare to nothing and form a
single group under GROUP BY.  COUNT(*) counts every row, the other
aggregates skip NULLs; SUM/AVG over no non-null input yield NULL while
COUNT yields 0.

A rejected query raises sqlast.EngineError where it is rejected: text
that does not parse with the SYNTAX code, a query that does not resolve
on the schema with the stable code of the first error name resolution
finds, a reset script that does not load with SCRIPT.

Executor.prepare validates and table-qualifies a query once, then compiles
it for its schema into a Plan: column references become positions in a
row tuple (a cross-product row is its tables' stored rows concatenated),
and WHERE and HAVING become functions of that tuple, one closure per
comparison.  The positions come from Schema.layout, which works them out
once per FROM list and keeps them on the schema.  Executor.run evaluates
a plan over the stored row tuples of any database of that schema.

Faults are deliberate, named deviations used to exercise the detection
pipeline.  Each is shape-triggered so that a broken behavior shows up on
one side of an equivalent pair but not the other.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field, replace
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .parser import EOF, TokenCursor, parse, positions, tokenize
from .sqlast import (
    SCRIPT, TYPE_MISMATCH, UNION, ColumnRef, Const, EngineError, Schema,
    SqlQuery, qualify, render_pred, And, Or, Not, Cmp, TruthLit,
)
# unused here; bound for the engine's callers, perfbench/spans.py among them
from .sqlast import STABLE_ERROR_CODES  # noqa: F401
# unused here; bound because perfbench/spans.py traces refdb.validate by name
from .sqlast import validate  # noqa: F401
from .values import (
    CANONICAL_SCALE, TruthValue, format_value, is_numeric, kleene_and,
    kleene_not, kleene_or, render_literal, row_sort_key,
)

# ---------------------------------------------------------------------------
# storage


@dataclass
class TableData:
    columns: tuple  # ((name, "int" | "dec" | "str"), ...)
    rows: Counter = field(default_factory=Counter)  # row tuple -> multiplicity


Database = dict  # table name -> TableData


def schema_of(db: Database) -> Schema:
    return Schema(tuple((name, t.columns) for name, t in db.items()))


# ---------------------------------------------------------------------------
# faults

FAULTS = {
    "drop-distinct":
        "DISTINCT is ignored; GROUP BY deduplication still works",
    "union-all-as-union":
        "UNION ALL deduplicates when its left operand has a WHERE clause",
    "having-pre-group":
        "HAVING filters the rows feeding each group instead of filtering "
        "finished groups, on every grouped query with or without "
        "aggregates; every group survives",
    "null-where-true":
        "WHERE keeps rows whose predicate is unknown; HAVING is unaffected",
    "sum-skips-duplicates":
        "SUM adds each distinct row once when the query has a WHERE clause",
    "float-format-split":
        "decimal results are rendered through binary floats when the query "
        "has a HAVING clause",
}


def check_fault(fault: Optional[str]) -> Optional[str]:
    if fault is not None and fault not in FAULTS:
        raise ValueError(
            f"unknown fault {fault!r}; known: {', '.join(sorted(FAULTS))}")
    return fault


# ---------------------------------------------------------------------------
# compiled predicates
#
# A row is a tuple: a cross-product row is its tables' stored rows
# concatenated, so a column reference compiles to a position in it.

_TRUE, _FALSE, _UNKNOWN = TruthValue.TRUE, TruthValue.FALSE, TruthValue.UNKNOWN

_CMP_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _compile_pred(p, layout: dict) -> Callable:
    """p as a function from a row to a TruthValue; layout maps (table,
    column) to a position in the row.  AND and OR evaluate both operands,
    so a comparison that raises does so whatever its sibling yields."""
    if isinstance(p, TruthLit):
        value = p.value
        return lambda row: value
    if isinstance(p, Not):
        child = _compile_pred(p.child, layout)
        return lambda row: kleene_not(child(row))
    if isinstance(p, (And, Or)):
        left = _compile_pred(p.left, layout)
        right = _compile_pred(p.right, layout)
        combine = kleene_and if isinstance(p, And) else kleene_or
        return lambda row: combine(left(row), right(row))
    if not isinstance(p, Cmp):
        raise TypeError(f"not a predicate: {p!r}")
    op = _CMP_OPS[p.op]
    # each side is a row position, or None and the side's constant
    li, lc = _side(p.left, layout)
    ri, rc = _side(p.right, layout)

    def compare(row):
        lv = lc if li is None else row[li]
        rv = rc if ri is None else row[ri]
        if lv is None or rv is None:
            return _UNKNOWN
        if is_numeric(lv) != is_numeric(rv):
            raise EngineError(TYPE_MISMATCH, render_pred(p))
        return _TRUE if op(lv, rv) else _FALSE
    return compare


def _side(t, layout: dict) -> tuple:
    if isinstance(t, Const):
        return None, t.value
    return layout[(t.table, t.name)], None


def _picker(positions) -> Callable:
    """row -> tuple of its cells at positions."""
    if len(positions) == 1:
        (i,) = positions
        return lambda row: (row[i],)
    return operator.itemgetter(*positions)


# ---------------------------------------------------------------------------
# aggregates


def _quantized(fr: Fraction) -> Decimal:
    num = Decimal(fr.numerator)
    den = Decimal(fr.denominator)
    scale = Decimal(1).scaleb(-CANONICAL_SCALE)
    return (num / den).quantize(scale, rounding=ROUND_HALF_EVEN)


def eval_agg(fn: str, pos: Optional[int], members):
    """Aggregate fn over position pos of members, a list of (row,
    multiplicity) pairs; pos None is COUNT(*)."""
    if pos is None:
        return sum(m for _, m in members)
    present = [(r[pos], m) for r, m in members if r[pos] is not None]
    if fn == "COUNT":
        return sum(m for _, m in present)
    if not present:
        return None
    if fn == "MIN":
        return min(v for v, _ in present)
    if fn == "MAX":
        return max(v for v, _ in present)
    if fn == "SUM":
        total = None
        for v, m in present:
            contrib = v * m
            total = contrib if total is None else total + contrib
        return total
    if fn == "AVG":
        total = Fraction(0)
        count = 0
        for v, m in present:
            total += Fraction(v) * m
            count += m
        return _quantized(total / count)
    raise TypeError(f"unknown aggregate {fn!r}")


# ---------------------------------------------------------------------------
# executor


class Plan(NamedTuple):
    """A query compiled by Executor.prepare for one schema.  Every field
    holding a function takes a row tuple.  (A NamedTuple because building
    a frozen dataclass of these fields at import takes longer than running
    the rest of this module's body.)"""
    tables: tuple  # scanned in this order
    where: Optional[Callable]  # row -> TruthValue
    project: Optional[Callable]  # ungrouped: row -> output row
    key: Optional[Callable]  # grouped with GROUP BY: row -> group key
    items: tuple  # grouped: (aggregate fn | None, position, dedup) each
    having: Optional[Callable]  # row -> TruthValue
    distinct: bool
    set_op: Optional[tuple]  # (UNION | UNION ALL, Plan)


class Executor:
    """Evaluates queries against an in-memory database.

    An optional fault name switches on one deliberate misbehavior; see
    FAULTS for the catalog.
    """

    def __init__(self, fault: Optional[str] = None):
        self.fault = check_fault(fault)

    # -- entry points -------------------------------------------------------

    def execute(self, db: Database, query,
                schema: Optional[Schema] = None) -> dict:
        """One-shot evaluation of a query (text or AST) on db; text that
        does not parse raises EngineError(SYNTAX), a query that does not
        resolve EngineError with a stable code.  schema must be db's; a
        caller that runs many queries on one database passes it to skip
        deriving it from db on every call."""
        q = parse(query) if isinstance(query, str) else query
        if schema is None:
            schema = schema_of(db)
        return self.run(db, self.prepare(q, schema))

    def prepare(self, q: SqlQuery, schema: Schema) -> Plan:
        """Validate, table-qualify and compile q once, for running on any
        database of this schema; a query that does not resolve raises the
        first EngineError name resolution finds."""
        if self.fault == "having-pre-group" and q.having is not None:
            # the faulty engine resolves HAVING like a WHERE clause,
            # skipping the grouped-column check
            qq = qualify(replace(q, having=None), schema)
            having = qualify(replace(q, where=q.having, having=None),
                             schema).where
            qq = replace(qq, having=having)
        else:
            qq = qualify(q, schema)
        return self._compile(qq, schema)

    def run(self, db: Database, plan: Plan) -> dict:
        """Evaluate a plan returned by prepare on a database of its
        schema: row tuple -> multiplicity."""
        rows = self._run_core(db, plan)
        if plan.set_op is not None:
            op, rhs = plan.set_op
            merged = Counter(rows)
            merged.update(self._run_core(db, rhs))
            if op == UNION or (self.fault == "union-all-as-union"
                               and plan.where is not None):
                rows = {r: 1 for r in merged}
            else:
                rows = dict(merged)
        return rows

    def rendered_rows(self, rows: dict, q) -> list:
        """Row tuples as engine-formatted strings, expanded and sorted; q
        is the query or its plan.

        The float-format-split fault lives here: with a HAVING clause
        present, decimal cells pass through a binary float before
        formatting.
        """
        fmt = format_value
        if self.fault == "float-format-split" and q.having is not None:
            def fmt(v):
                if isinstance(v, Decimal):
                    # full decimal expansion of the nearest binary double
                    return str(Decimal(float(v)))
                return format_value(v)

        out = []
        for row, mult in rows.items():
            out.extend([tuple(map(fmt, row))] * mult)
        # every cell is a str, so plain tuple order is row_sort_key order
        out.sort()
        return out

    # -- internals ----------------------------------------------------------

    def _compile(self, q: SqlQuery, schema: Schema) -> Plan:
        layout = schema.layout(q.from_tables)

        def pos(ref):
            return layout[(ref.table, ref.name)]

        project = key = None
        items = ()
        if q.is_grouped():
            if q.group_by:
                key = _picker([pos(c) for c in q.group_by])
            dedup = (self.fault == "sum-skips-duplicates"
                     and q.where is not None)
            items = tuple(
                (None, pos(it), False) if isinstance(it, ColumnRef)
                else (it.fn, pos(it.arg) if it.arg is not None else None,
                      dedup and it.fn == "SUM")
                for it in q.select)
        else:
            project = _picker([pos(c) for c in q.select])

        set_op = None
        if q.set_op is not None:
            op, rhs = q.set_op
            set_op = (op, self._compile(rhs, schema))

        return Plan(
            tables=q.from_tables,
            where=(_compile_pred(q.where, layout)
                   if q.where is not None else None),
            project=project, key=key, items=items,
            having=(_compile_pred(q.having, layout)
                    if q.having is not None else None),
            distinct=q.distinct and self.fault != "drop-distinct",
            set_op=set_op)

    def _run_core(self, db: Database, plan: Plan) -> dict:
        """The result rows of one set operand: scan in stored row order
        (no result depends on it), filter, then project or group."""
        rows = list(db[plan.tables[0]].rows.items())
        for t in plan.tables[1:]:
            stored = db[t].rows.items()
            rows = [(r + s, m * n) for r, m in rows for s, n in stored]

        where = plan.where
        if where is not None:
            if self.fault == "null-where-true":
                rows = [(r, m) for r, m in rows if where(r) is not _FALSE]
            else:
                rows = [(r, m) for r, m in rows if where(r) is _TRUE]

        if plan.project is not None:
            project = plan.project
            out = {}
            for r, m in rows:
                k = project(r)
                out[k] = out.get(k, 0) + m
        else:
            out = self._run_grouped(plan, rows)

        if plan.distinct:
            return {r: 1 for r in out}
        return out

    def _run_grouped(self, plan: Plan, rows) -> dict:
        if plan.key is None:
            groups = {(): rows}
        else:
            key = plan.key
            groups = {}
            for r, m in rows:
                groups.setdefault(key(r), []).append((r, m))

        having = plan.having
        pre_group_having = (self.fault == "having-pre-group"
                            and having is not None)

        out = {}
        for members in groups.values():
            # grouped select columns are group keys, so the first member
            # row holds the group's values for them
            first = members[0][0] if members else ()
            if pre_group_having:
                members = [(r, m) for r, m in members if having(r) is _TRUE]
            elif having is not None and having(first) is not _TRUE:
                continue
            # members hold each scanned row once, so the
            # sum-skips-duplicates fault counts each with multiplicity 1
            cells = tuple(
                first[p] if fn is None
                else eval_agg(fn, p, [(r, 1) for r, _ in members] if dedup
                              else members)
                for fn, p, dedup in plan.items)
            out[cells] = out.get(cells, 0) + 1
        return out


# ---------------------------------------------------------------------------
# script loading

_DDL_TYPES = {"int": "int", "integer": "int", "decimal": "dec",
              "dec": "dec", "numeric": "dec", "varchar": "str",
              "text": "str", "string": "str"}


# literal types each column type stores; dump_script writes a decimal with
# no fractional digits, such as Decimal("2"), as an integer literal
_FITS = {"int": (int,), "dec": (int, Decimal), "str": (str,)}


def load_script(text: str) -> Database:
    """Build a database from CREATE TABLE / INSERT INTO statements; a
    script that does not load raises EngineError(SCRIPT).  The script is
    lexed once, so a character the lexer rejects anywhere in it raises
    EngineError(SYNTAX) before any statement is read."""
    db: Database = {}
    tokens = tokenize(text)
    start = 0
    for end, t in enumerate(tokens):
        if t.kind == "eof" or (t.kind == "punct" and t.value == ";"):
            if end > start:
                _load_statement(text, tokens, start, end, db)
            start = end + 1
    return db


def _load_statement(text, tokens, start, end, db):
    """Load the statement tokens[start:end] of text into db."""
    reader = _ScriptReader(tokens[start:end] + [EOF])
    if reader.accept_kw("CREATE"):
        reader.create(db)
    elif reader.accept_kw("INSERT"):
        reader.insert(db)
    else:
        at = positions(text, tokens)
        stmt = text[at[start]:at[end]].rstrip()
        raise EngineError(SCRIPT, f"unsupported statement: {stmt[:60]!r}")


class _ScriptReader(TokenCursor):
    """Reads one statement, ending in an eof token.  It reads a qualified
    name as the three tokens it was lexed from, as the query grammar does
    where it expects a lone name, so its errors name the same tokens."""

    def fail(self, message):
        raise EngineError(SCRIPT, f"{message}, got {self.got()}")

    def create(self, db):
        self.expect_kw("TABLE")
        name = self.expect("ident").value
        if name in db:
            raise EngineError(SCRIPT, f"table {name!r} already exists")
        self.expect_punct("(")
        cols = {}
        while True:
            col = self.expect("ident").value
            if col in cols:
                raise EngineError(
                    SCRIPT, f"duplicate column {col!r} in {name!r}")
            ty = self.expect("ident").value
            if ty not in _DDL_TYPES:
                raise EngineError(SCRIPT, f"unknown column type {ty!r}")
            cols[col] = _DDL_TYPES[ty]
            if self.punct(")"):
                break
            if not self.punct(","):
                self.fail("expected , or )")
        if self.cur.kind != "eof":
            self.fail("expected end of statement")
        db[name] = TableData(tuple(cols.items()))

    def insert(self, db):
        self.expect_kw("INTO")
        name = self.expect("ident").value
        if name not in db:
            raise EngineError(SCRIPT, f"insert into unknown table {name!r}")
        table = db[name]
        self.expect_kw("VALUES")
        while True:
            self.expect_punct("(")
            row = [self.literal()]
            while not self.punct(")"):
                if not self.punct(","):
                    self.fail("expected , or )")
                row.append(self.literal())
            if len(row) != len(table.columns):
                raise EngineError(
                    SCRIPT, f"row arity {len(row)} != {len(table.columns)} "
                    f"for {name!r}")
            for v, (col, ty) in zip(row, table.columns):
                if v is not None and type(v) not in _FITS[ty]:
                    raise EngineError(SCRIPT, f"{render_literal(v)} does not "
                                      f"fit {name}.{col} ({ty})")
            table.rows[tuple(row)] += 1
            if self.cur.kind == "eof":
                break
            if not self.punct(","):
                self.fail("expected , between rows")

    def literal(self):
        t = self.cur
        if t.kind in ("int", "dec", "str"):
            self.advance()
            return t.value
        if self.accept_kw("NULL"):
            return None
        raise EngineError(SCRIPT, f"bad literal {self.got()}")


def dump_script(db: Database) -> str:
    """Deterministic DDL + INSERT script; load_script inverts it."""
    ddl_type = {"int": "INT", "dec": "DECIMAL", "str": "VARCHAR"}
    lines = []
    for name in sorted(db):
        t = db[name]
        cols = ", ".join(f"{c} {ddl_type[ty]}" for c, ty in t.columns)
        lines.append(f"CREATE TABLE {name} ({cols});")
    for name in sorted(db):
        t = db[name]
        tuples = []
        for row in sorted(t.rows, key=row_sort_key):
            rendered = "(" + ", ".join(render_literal(v) for v in row) + ")"
            tuples.extend([rendered] * t.rows[row])
        if tuples:
            lines.append(f"INSERT INTO {name} VALUES {', '.join(tuples)};")
    return "\n".join(lines) + ("\n" if lines else "")
