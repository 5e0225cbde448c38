"""Reference SQL executor with multiset semantics and injectable faults.

Relations are multisets: a mapping from row tuples to multiplicities.
Predicates use three-valued logic; WHERE and HAVING keep rows/groups whose
predicate is true (not unknown).  NULLs compare to nothing and form a
single group under GROUP BY.  COUNT(*) counts every row, the other
aggregates skip NULLs; SUM/AVG over no non-null input yield NULL while
COUNT yields 0.

Faults are deliberate, named deviations used to exercise the detection
pipeline.  Each is shape-triggered so that a broken behavior shows up on
one side of an equivalent pair but not the other.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from typing import Optional

from .parser import parse, tokenize
from .sqlast import (
    AggCall, ColumnRef, Const, InvalidQuery, Schema, SqlQuery, qualify,
    render_pred, And, Or, Not, Cmp, TruthLit, _qualify_pred, _Resolver,
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


@dataclass
class Relation:
    columns: tuple  # output column labels
    rows: dict  # row tuple -> multiplicity


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
# predicate evaluation


def _term_value(t, bind):
    if isinstance(t, Const):
        return t.value
    return bind[(t.table, t.name)]


def eval_pred(p, bind) -> TruthValue:
    if isinstance(p, TruthLit):
        return p.value
    if isinstance(p, Not):
        return kleene_not(eval_pred(p.child, bind))
    if isinstance(p, And):
        return kleene_and(eval_pred(p.left, bind), eval_pred(p.right, bind))
    if isinstance(p, Or):
        return kleene_or(eval_pred(p.left, bind), eval_pred(p.right, bind))
    if isinstance(p, Cmp):
        lv = _term_value(p.left, bind)
        rv = _term_value(p.right, bind)
        if lv is None or rv is None:
            return TruthValue.UNKNOWN
        if is_numeric(lv) != is_numeric(rv):
            raise ExecError(TYPE_MISMATCH, render_pred(p))
        op = p.op
        res = {
            "=": lv == rv, "!=": lv != rv, "<": lv < rv,
            "<=": lv <= rv, ">": lv > rv, ">=": lv >= rv,
        }[op]
        return TruthValue.TRUE if res else TruthValue.FALSE
    raise TypeError(f"not a predicate: {p!r}")


# ---------------------------------------------------------------------------
# aggregates


def _quantized(fr: Fraction) -> Decimal:
    num = Decimal(fr.numerator)
    den = Decimal(fr.denominator)
    scale = Decimal(1).scaleb(-CANONICAL_SCALE)
    return (num / den).quantize(scale, rounding=ROUND_HALF_EVEN)


def eval_agg(call: AggCall, members):
    """members is a list of (bindings, multiplicity) pairs."""
    if call.fn == "COUNT" and call.arg is None:
        return sum(m for _, m in members)
    key = (call.arg.table, call.arg.name)
    present = [(b[key], m) for b, m in members if b[key] is not None]
    if call.fn == "COUNT":
        return sum(m for _, m in present)
    if not present:
        return None
    if call.fn == "MIN":
        return min(v for v, _ in present)
    if call.fn == "MAX":
        return max(v for v, _ in present)
    if call.fn == "SUM":
        total = None
        for v, m in present:
            contrib = v * m
            total = contrib if total is None else total + contrib
        return total
    if call.fn == "AVG":
        total = Fraction(0)
        count = 0
        for v, m in present:
            total += Fraction(v) * m
            count += m
        return _quantized(total / count)
    raise TypeError(f"unknown aggregate {call.fn!r}")


# ---------------------------------------------------------------------------
# executor


class Executor:
    """Evaluates queries against an in-memory database.

    An optional fault name switches on one deliberate misbehavior; see
    FAULTS for the catalog.
    """

    def __init__(self, fault: Optional[str] = None):
        self.fault = check_fault(fault)

    # -- entry points -------------------------------------------------------

    def execute(self, db: Database, query) -> Relation:
        """One-shot evaluation of a query (text or AST) on db."""
        q = parse(query) if isinstance(query, str) else query
        return self.run(db, self.prepare(q, schema_of(db)))

    def prepare(self, q: SqlQuery, schema: Schema) -> SqlQuery:
        """Validate and table-qualify q once, for running on any database
        of this schema; a semantic error raises ExecError."""
        try:
            if self.fault == "having-pre-group" and q.having is not None:
                # the faulty engine skips the grouped-column check on HAVING
                qq = qualify(replace(q, having=None), schema)
                errors: list = []
                having = _qualify_pred(q.having, _Resolver(q, schema, errors))
                if errors:
                    raise InvalidQuery(errors)
                return replace(qq, having=having)
            return qualify(q, schema)
        except InvalidQuery as exc:
            e = exc.errors[0]
            raise ExecError(_KIND_TO_CODE[e.kind], e.detail)

    def run(self, db: Database, q: SqlQuery) -> Relation:
        """Evaluate a query returned by prepare on a database of its
        schema."""
        rel = self._eval_core(db, q)
        if q.set_op is not None:
            op, rhs = q.set_op
            right = self._eval_core(db, rhs)
            if len(rel.columns) != len(right.columns):
                raise ExecError(TYPE_MISMATCH, "set operand arity mismatch")
            merged = Counter(rel.rows)
            merged.update(right.rows)
            if op == "UNION":
                merged = Counter({r: 1 for r in merged})
            elif self.fault == "union-all-as-union" and q.where is not None:
                merged = Counter({r: 1 for r in merged})
            rel = Relation(rel.columns, dict(merged))
        return rel

    def rendered_rows(self, rel: Relation, q) -> list:
        """Row tuples as engine-formatted strings, expanded and sorted.

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
        for row, mult in rel.rows.items():
            out.extend([tuple(fmt(v) for v in row)] * mult)
        out.sort(key=row_sort_key)
        return out

    # -- internals ----------------------------------------------------------

    def _scan(self, db: Database, tables):
        """Cross product in stored row order: list of (bindings,
        multiplicity).  No result depends on that order."""
        rows = [({}, 1)]
        for t in tables:
            table = db[t]
            keys = [(t, col) for col, _ in table.columns]
            new = []
            for bind, mult in rows:
                for row, m in table.rows.items():
                    b = dict(bind)
                    b.update(zip(keys, row))
                    new.append((b, mult * m))
            rows = new
        return rows

    def _where_pass(self, tv: TruthValue) -> bool:
        if self.fault == "null-where-true":
            return tv is not TruthValue.FALSE
        return tv is TruthValue.TRUE

    def _eval_core(self, db: Database, q: SqlQuery) -> Relation:
        rows = self._scan(db, q.from_tables)
        if q.where is not None:
            rows = [(b, m) for b, m in rows
                    if self._where_pass(eval_pred(q.where, b))]

        columns = tuple(str(it) for it in q.select)

        if q.is_grouped():
            rel = self._eval_grouped(q, rows, columns)
        else:
            out = Counter()
            for b, m in rows:
                out[tuple(b[(c.table, c.name)] for c in q.select)] += m
            rel = Relation(columns, dict(out))

        if q.distinct and self.fault != "drop-distinct":
            rel = Relation(rel.columns, {r: 1 for r in rel.rows})
        return rel

    def _eval_grouped(self, q: SqlQuery, rows, columns) -> Relation:
        keys = q.group_by or ()
        if keys:
            groups = {}
            for b, m in rows:
                key = tuple(b[(c.table, c.name)] for c in keys)
                groups.setdefault(key, []).append((b, m))
        else:
            groups = {(): rows}

        pre_group_having = (self.fault == "having-pre-group"
                            and q.having is not None)

        out = Counter()
        for key, members in groups.items():
            kb = {(c.table, c.name): v for c, v in zip(keys, key)}
            if pre_group_having:
                members = [(b, m) for b, m in members
                           if eval_pred(q.having, b) is TruthValue.TRUE]
            elif q.having is not None:
                if eval_pred(q.having, kb) is not TruthValue.TRUE:
                    continue
            cells = []
            for it in q.select:
                if isinstance(it, ColumnRef):
                    cells.append(kb[(it.table, it.name)])
                else:
                    cells.append(self._agg_value(q, it, members))
            out[tuple(cells)] += 1
        return Relation(columns, dict(out))

    def _agg_value(self, q: SqlQuery, call: AggCall, members):
        if (self.fault == "sum-skips-duplicates" and call.fn == "SUM"
                and q.where is not None):
            seen = set()
            deduped = []
            for b, m in members:
                sig = tuple(sorted((k, format_value(v))
                                   for k, v in b.items()))
                if sig not in seen:
                    seen.add(sig)
                    deduped.append((b, 1))
            members = deduped
        return eval_agg(call, members)


# ---------------------------------------------------------------------------
# script and fixture loading

_DDL_TYPES = {"int": "int", "integer": "int", "decimal": "dec",
              "dec": "dec", "numeric": "dec", "varchar": "str",
              "text": "str", "string": "str"}


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
        self.toks = toks
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


def load_json_fixture(obj) -> Database:
    """{"tables": [{"name", "columns": [{"name","type"}], "rows": [[..]]}]}"""
    if isinstance(obj, str):
        obj = json.loads(obj)
    db: Database = {}
    for t in obj["tables"]:
        cols = tuple((c["name"], c["type"]) for c in t["columns"])
        for _, ty in cols:
            if ty not in ("int", "dec", "str"):
                raise ScriptError(f"unknown column type {ty!r}")
        table = TableData(cols)
        for row in t.get("rows", ()):
            if len(row) != len(cols):
                raise ScriptError("row arity mismatch")
            vals = []
            for v, (_, ty) in zip(row, cols):
                if v is None:
                    vals.append(None)
                elif ty == "dec":
                    vals.append(Decimal(str(v)))
                elif ty == "int":
                    vals.append(int(v))
                else:
                    vals.append(str(v))
            table.rows[tuple(vals)] += 1
        db[t["name"]] = table
    return db
