"""Reference SQL executor with multiset semantics and injectable faults.

Relations are multisets: a mapping from row tuples to multiplicities.
Predicates use three-valued logic; WHERE and HAVING keep rows/groups whose
predicate is true (not unknown).  NULLs compare to nothing and form a
single group under GROUP BY.  COUNT(*) counts every row, the other
aggregates skip NULLs; SUM/AVG over no non-null input yield NULL while
COUNT yields 0.

Executor.prepare validates and table-qualifies a query once, then compiles
it for its schema into a Plan: column references become positions in a
row tuple (a cross-product row is its tables' stored rows concatenated),
and WHERE and HAVING become functions of that tuple.  Executor.run
evaluates a plan over the stored row tuples of any database of that
schema.

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

from .parser import parse, tokenize, unfold
from .sqlast import (
    UNION, ColumnRef, Const, InvalidQuery, Schema, SqlQuery, qualify,
    render_pred, And, Or, Not, Cmp, TruthLit,
)
# unused here; bound because perfbench/spans.py traces refdb.validate by name
from .sqlast import validate  # noqa: F401
from .values import (
    CANONICAL_SCALE, TruthValue, format_value, is_numeric, kleene_and,
    kleene_not, kleene_or, render_literal, row_sort_key,
)

UNKNOWN_TABLE = "UNKNOWN_TABLE"
UNKNOWN_COLUMN = "UNKNOWN_COLUMN"
NON_GROUPED_COLUMN = "NON_GROUPED_COLUMN"
TYPE_MISMATCH = "TYPE_MISMATCH"
DIV_BY_ZERO = "DIV_BY_ZERO"

STABLE_ERROR_CODES = (
    UNKNOWN_TABLE, UNKNOWN_COLUMN, NON_GROUPED_COLUMN, TYPE_MISMATCH,
    DIV_BY_ZERO,
)

_KIND_TO_CODE = {
    "UnknownTable": UNKNOWN_TABLE,
    "UnknownColumn": UNKNOWN_COLUMN,
    "AmbiguousColumn": UNKNOWN_COLUMN,
    "NonGroupedColumn": NON_GROUPED_COLUMN,
    "TypeMismatch": TYPE_MISMATCH,
    "GroupedMultiTable": NON_GROUPED_COLUMN,
}


class ExecError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class UnknownFault(Exception):
    pass


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
        raise UnknownFault(
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


def _compile_pred(p, positions: dict) -> Callable:
    """p as a function from a row to a TruthValue; positions maps
    (table, column) to a position in the row.  AND and OR evaluate both
    operands, so a comparison that raises does so whatever its sibling
    yields."""
    if isinstance(p, TruthLit):
        value = p.value
        return lambda row: value
    if isinstance(p, Not):
        child = _compile_pred(p.child, positions)
        return lambda row: kleene_not(child(row))
    if isinstance(p, (And, Or)):
        left = _compile_pred(p.left, positions)
        right = _compile_pred(p.right, positions)
        combine = kleene_and if isinstance(p, And) else kleene_or
        return lambda row: combine(left(row), right(row))
    if not isinstance(p, Cmp):
        raise TypeError(f"not a predicate: {p!r}")
    op = _CMP_OPS[p.op]
    left, right = _term(p.left, positions), _term(p.right, positions)

    def compare(row):
        lv, rv = left(row), right(row)
        if lv is None or rv is None:
            return _UNKNOWN
        if is_numeric(lv) != is_numeric(rv):
            raise ExecError(TYPE_MISMATCH, render_pred(p))
        return _TRUE if op(lv, rv) else _FALSE
    return compare


def _term(t, positions: dict) -> Callable:
    if isinstance(t, Const):
        value = t.value
        return lambda row: value
    return operator.itemgetter(positions[(t.table, t.name)])


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


def _distinct_rows(members):
    """members with each distinct formatted row once, in first-seen
    order (the sum-skips-duplicates fault)."""
    seen = set()
    out = []
    for r, _ in members:
        sig = tuple(map(format_value, r))
        if sig not in seen:
            seen.add(sig)
            out.append((r, 1))
    return out


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

    def execute(self, db: Database, query) -> dict:
        """One-shot evaluation of a query (text or AST) on db."""
        q = parse(query) if isinstance(query, str) else query
        return self.run(db, self.prepare(q, schema_of(db)))

    def prepare(self, q: SqlQuery, schema: Schema) -> Plan:
        """Validate, table-qualify and compile q once, for running on any
        database of this schema; a semantic error raises ExecError."""
        try:
            if self.fault == "having-pre-group" and q.having is not None:
                # the faulty engine resolves HAVING like a WHERE clause,
                # skipping the grouped-column check
                qq = qualify(replace(q, having=None), schema)
                having = qualify(replace(q, where=q.having, having=None),
                                 schema).where
                qq = replace(qq, having=having)
            else:
                qq = qualify(q, schema)
        except InvalidQuery as exc:
            e = exc.errors[0]
            raise ExecError(_KIND_TO_CODE[e.kind], e.detail)
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
        broken = self.fault == "float-format-split" and q.having is not None

        def fmt(v):
            if broken and isinstance(v, Decimal):
                # full decimal expansion of the nearest binary double
                return str(Decimal(float(v)))
            return format_value(v)

        out = []
        for row, mult in rows.items():
            out.extend([tuple(fmt(v) for v in row)] * mult)
        # every cell is a str, so plain tuple order is row_sort_key order
        out.sort()
        return out

    # -- internals ----------------------------------------------------------

    def _compile(self, q: SqlQuery, schema: Schema) -> Plan:
        positions = {}
        width = 0
        for t in q.from_tables:
            cols = schema.columns(t)
            for i, (col, _) in enumerate(cols):
                positions[(t, col)] = width + i
            width += len(cols)

        def pos(ref):
            return positions[(ref.table, ref.name)]

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
            where=(_compile_pred(q.where, positions)
                   if q.where is not None else None),
            project=project, key=key, items=items,
            having=(_compile_pred(q.having, positions)
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
            cells = tuple(
                first[p] if fn is None
                else eval_agg(fn, p, _distinct_rows(members) if dedup
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


class ScriptError(Exception):
    pass


def load_script(text: str) -> Database:
    """Build a database from CREATE TABLE / INSERT INTO statements."""
    db: Database = {}
    for stmt in _split_statements(text):
        toks = tokenize(stmt)
        if toks[0].kind == "kw" and toks[0].value == "CREATE":
            _load_create(toks, db)
        elif toks[0].kind == "kw" and toks[0].value == "INSERT":
            _load_insert(toks, db)
        else:
            raise ScriptError(f"unsupported statement: {stmt[:60]!r}")
    return db


def _split_statements(text: str):
    parts = []
    buf = []
    in_str = False
    for ch in text:
        if ch == "'":
            in_str = not in_str
        if ch == ";" and not in_str:
            s = "".join(buf).strip()
            if s:
                parts.append(s)
            buf = []
        else:
            buf.append(ch)
    s = "".join(buf).strip()
    if s:
        parts.append(s)
    return parts


class _Toks:
    def __init__(self, toks):
        # the script grammar reads a qualified ref as the tokens it was
        # lexed from, so its errors name the same tokens
        self.toks = [u for t in toks
                     for u in (unfold(t) if t.kind == "qref" else (t,))]
        self.i = 0

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind, value=None):
        t = self.next()
        if t.kind != kind or (value is not None and t.value != value):
            raise ScriptError(f"expected {value or kind}, got {t.value!r}")
        return t


def _load_create(toks, db):
    ts = _Toks(toks)
    ts.expect("kw", "CREATE")
    ts.expect("kw", "TABLE")
    name = ts.expect("ident").value
    if name in db:
        raise ScriptError(f"table {name!r} already exists")
    ts.expect("punct", "(")
    cols = []
    while True:
        col = ts.expect("ident").value
        ty = ts.expect("ident").value
        if ty not in _DDL_TYPES:
            raise ScriptError(f"unknown column type {ty!r}")
        cols.append((col, _DDL_TYPES[ty]))
        t = ts.next()
        if t.kind == "punct" and t.value == ")":
            break
        if not (t.kind == "punct" and t.value == ","):
            raise ScriptError(f"expected , or ), got {t.value!r}")
    db[name] = TableData(tuple(cols))


def _load_insert(toks, db):
    ts = _Toks(toks)
    ts.expect("kw", "INSERT")
    ts.expect("kw", "INTO")
    name = ts.expect("ident").value
    if name not in db:
        raise ScriptError(f"insert into unknown table {name!r}")
    table = db[name]
    ts.expect("kw", "VALUES")
    while True:
        ts.expect("punct", "(")
        row = []
        while True:
            t = ts.next()
            if t.kind in ("int", "dec", "str"):
                row.append(t.value)
            elif t.kind == "kw" and t.value == "NULL":
                row.append(None)
            else:
                raise ScriptError(f"bad literal {t.value!r}")
            t = ts.next()
            if t.kind == "punct" and t.value == ")":
                break
            if not (t.kind == "punct" and t.value == ","):
                raise ScriptError(f"expected , or ), got {t.value!r}")
        if len(row) != len(table.columns):
            raise ScriptError(
                f"row arity {len(row)} != {len(table.columns)} for {name!r}")
        for v, (col, ty) in zip(row, table.columns):
            if v is not None and type(v) not in _FITS[ty]:
                raise ScriptError(
                    f"{render_literal(v)} does not fit {name}.{col} ({ty})")
        table.rows[tuple(row)] += 1
        t = ts.next()
        if t.kind == "eof":
            break
        if not (t.kind == "punct" and t.value == ","):
            raise ScriptError(f"expected , between rows, got {t.value!r}")


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
