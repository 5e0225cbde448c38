"""Surface AST for the supported SQL subset, plus rendering and validation.

The subset: SELECT [DISTINCT] items FROM tables [WHERE p] [GROUP BY cols]
[HAVING p], optionally combined once with UNION / UNION ALL.  Aggregate
functions: COUNT, SUM, MIN, MAX, AVG.  No joins, subqueries, ORDER BY.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union as TUnion

from .values import TruthValue, is_numeric, render_literal

AGG_FNS = ("COUNT", "SUM", "MIN", "MAX", "AVG")

UNION = "UNION"
UNION_ALL = "UNION ALL"

CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


class SqlSyntaxError(Exception):
    """Raised by the parser; carries position and the expected token set."""

    def __init__(self, message: str, position: int, expected=()):
        super().__init__(f"{message} at position {position}")
        self.position = position
        self.expected = tuple(expected)


@dataclass(frozen=True)
class ColumnRef:
    name: str
    table: Optional[str] = None

    def __str__(self):
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Const:
    value: object  # int | Decimal | str | None

    def __str__(self):
        return render_literal(self.value)


Term = TUnion[ColumnRef, Const]


@dataclass(frozen=True)
class AggCall:
    fn: str
    arg: Optional[ColumnRef]  # None means *, COUNT only

    def __post_init__(self):
        if self.fn not in AGG_FNS:
            raise ValueError(f"unknown aggregate function {self.fn!r}")
        if self.arg is None and self.fn != "COUNT":
            raise ValueError("star argument is only valid for COUNT")

    def __str__(self):
        return f"{self.fn}({self.arg if self.arg is not None else '*'})"


@dataclass(frozen=True)
class TruthLit:
    value: TruthValue


@dataclass(frozen=True)
class Cmp:
    left: Term
    op: str
    right: Term

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class And:
    left: "Predicate"
    right: "Predicate"


@dataclass(frozen=True)
class Or:
    left: "Predicate"
    right: "Predicate"


@dataclass(frozen=True)
class Not:
    child: "Predicate"


Predicate = TUnion[TruthLit, Cmp, And, Or, Not]

SelectItem = TUnion[ColumnRef, AggCall]


@dataclass(frozen=True)
class SqlQuery:
    select: tuple  # of SelectItem, non-empty
    from_tables: tuple
    distinct: bool = False
    where: Optional[Predicate] = None
    group_by: Optional[tuple] = None  # of ColumnRef
    having: Optional[Predicate] = None
    set_op: Optional[tuple] = None  # (UNION | UNION_ALL, SqlQuery)

    def __post_init__(self):
        if not self.select:
            raise ValueError("select list must be non-empty")
        if not self.from_tables:
            raise ValueError("FROM list must be non-empty")
        if self.having is not None and self.group_by is None:
            raise ValueError("HAVING requires GROUP BY")
        if self.set_op is not None and self.set_op[0] not in (UNION, UNION_ALL):
            raise ValueError(f"unknown set operation {self.set_op[0]!r}")

    def has_aggregates(self) -> bool:
        return any(isinstance(it, AggCall) for it in self.select)

    def is_grouped(self) -> bool:
        return self.group_by is not None or self.has_aggregates()


# ---------------------------------------------------------------------------
# rendering

_PREC = {Or: 1, And: 2, Not: 3}


def render_pred(p: Predicate, parent_prec: int = 0) -> str:
    if isinstance(p, TruthLit):
        s = {TruthValue.TRUE: "TRUE", TruthValue.FALSE: "FALSE",
             TruthValue.UNKNOWN: "NULL"}[p.value]
    elif isinstance(p, Cmp):
        s = f"{p.left} {p.op} {p.right}"
    elif isinstance(p, And):
        s = f"{render_pred(p.left, 2)} AND {render_pred(p.right, 3)}"
    elif isinstance(p, Or):
        s = f"{render_pred(p.left, 1)} OR {render_pred(p.right, 2)}"
    elif isinstance(p, Not):
        s = f"NOT {render_pred(p.child, 4)}"
    else:
        raise TypeError(f"not a predicate: {p!r}")
    prec = _PREC.get(type(p), 5)
    if prec < parent_prec:
        s = f"({s})"
    return s


def render(q: SqlQuery) -> str:
    """Deterministic canonical text; parse(render(q)) == q structurally."""
    parts = ["SELECT"]
    if q.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(str(it) for it in q.select))
    parts.append("FROM")
    parts.append(", ".join(q.from_tables))
    if q.where is not None:
        parts.append("WHERE")
        parts.append(render_pred(q.where))
    if q.group_by is not None:
        parts.append("GROUP BY")
        parts.append(", ".join(str(c) for c in q.group_by))
    if q.having is not None:
        parts.append("HAVING")
        parts.append(render_pred(q.having))
    text = " ".join(parts)
    if q.set_op is not None:
        op, rhs = q.set_op
        text = f"{text} {op} {render(rhs)}"
    return text


# ---------------------------------------------------------------------------
# schema and semantic validation

VALID_COL_TYPES = ("int", "dec", "str")


@dataclass(frozen=True)
class Schema:
    """Tables with ordered (column, type) pairs; types are int / dec / str."""

    tables: tuple  # of (table_name, ((col, type), ...))

    def __post_init__(self):
        seen = set()
        for name, cols in self.tables:
            if name in seen:
                raise ValueError(f"duplicate table {name!r}")
            seen.add(name)
            colnames = [c for c, _ in cols]
            if len(set(colnames)) != len(colnames):
                raise ValueError(f"duplicate column in {name!r}")
            for _, t in cols:
                if t not in VALID_COL_TYPES:
                    raise ValueError(f"unknown column type {t!r}")

    @staticmethod
    def of(mapping) -> "Schema":
        return Schema(tuple(
            (name, tuple(cols)) for name, cols in mapping.items()))

    def table_names(self):
        return tuple(name for name, _ in self.tables)

    def has_table(self, name: str) -> bool:
        return any(name == n for n, _ in self.tables)

    def columns(self, table: str):
        for name, cols in self.tables:
            if name == table:
                return cols
        raise KeyError(table)

    def col_type(self, table: str, col: str) -> str:
        for c, t in self.columns(table):
            if c == col:
                return t
        raise KeyError((table, col))

    def has_column(self, table: str, col: str) -> bool:
        return self.has_table(table) and any(
            c == col for c, _ in self.columns(table))


@dataclass(frozen=True)
class SemanticError:
    kind: str  # UnknownTable | UnknownColumn | AmbiguousColumn |
    #            NonGroupedColumn | TypeMismatch | GroupedMultiTable
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail}"


class InvalidQuery(Exception):
    def __init__(self, errors):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = tuple(errors)


def _value_type(v) -> str:
    if v is None:
        return "null"
    if is_numeric(v):
        return "num"
    return "str"


class _Resolver:
    def __init__(self, q: SqlQuery, schema: Schema, errors: list):
        self.q = q
        self.schema = schema
        self.errors = errors

    def resolve(self, ref: ColumnRef) -> Optional[ColumnRef]:
        if ref.table is not None:
            if ref.table not in self.q.from_tables:
                self.errors.append(SemanticError("UnknownTable", ref.table))
                return None
            if not self.schema.has_column(ref.table, ref.name):
                self.errors.append(SemanticError("UnknownColumn", str(ref)))
                return None
            return ref
        owners = [t for t in self.q.from_tables
                  if self.schema.has_table(t)
                  and self.schema.has_column(t, ref.name)]
        if not owners:
            self.errors.append(SemanticError("UnknownColumn", ref.name))
            return None
        if len(owners) > 1:
            self.errors.append(SemanticError("AmbiguousColumn", ref.name))
            return None
        return ColumnRef(ref.name, owners[0])

    def term_type(self, t: Term) -> Optional[str]:
        if isinstance(t, Const):
            return _value_type(t.value)
        r = self.resolve(t)
        if r is None:
            return None
        ct = self.schema.col_type(r.table, r.name)
        return "num" if ct in ("int", "dec") else "str"


def _check_pred(p: Predicate, res: _Resolver):
    if isinstance(p, TruthLit):
        return
    if isinstance(p, Cmp):
        lt = res.term_type(p.left)
        rt = res.term_type(p.right)
        if lt and rt and "null" not in (lt, rt) and lt != rt:
            res.errors.append(SemanticError(
                "TypeMismatch", f"{p.left} {p.op} {p.right}"))
        return
    if isinstance(p, Not):
        _check_pred(p.child, res)
        return
    _check_pred(p.left, res)
    _check_pred(p.right, res)


def _core_output_types(q: SqlQuery, schema: Schema):
    out = []
    for it in q.select:
        if isinstance(it, AggCall):
            out.append("num" if it.fn in ("COUNT", "SUM", "AVG") else "any")
        else:
            owners = [t for t in q.from_tables
                      if it.table is None and schema.has_table(t)
                      and schema.has_column(t, it.name)]
            table = it.table or (owners[0] if len(owners) == 1 else None)
            if table is not None and schema.has_column(table, it.name):
                ct = schema.col_type(table, it.name)
                out.append("num" if ct in ("int", "dec") else "str")
            else:
                out.append("any")
    return out


def validate(q: SqlQuery, schema: Schema):
    """Return a list of SemanticError; empty means the query is valid."""
    errors: list = []
    _validate_core(q, schema, errors)
    if q.set_op is not None:
        _, rhs = q.set_op
        errors.extend(validate(rhs, schema))
        if not errors:
            lt = _core_output_types(q, schema)
            rt = _core_output_types(rhs, schema)
            if len(lt) != len(rt):
                errors.append(SemanticError(
                    "TypeMismatch",
                    f"set operands have arity {len(lt)} vs {len(rt)}"))
            else:
                for i, (a, b) in enumerate(zip(lt, rt)):
                    if "any" not in (a, b) and a != b:
                        errors.append(SemanticError(
                            "TypeMismatch", f"set operand column {i}"))
    return errors


def _validate_core(q: SqlQuery, schema: Schema, errors: list):
    for t in q.from_tables:
        if not schema.has_table(t):
            errors.append(SemanticError("UnknownTable", t))
    res = _Resolver(q, schema, errors)

    grouped = q.is_grouped()
    if grouped and len(q.from_tables) > 1:
        errors.append(SemanticError(
            "GroupedMultiTable", ", ".join(q.from_tables)))

    group_keys = set()
    if q.group_by is not None:
        for c in q.group_by:
            r = res.resolve(c)
            if r is not None:
                group_keys.add((r.table, r.name))

    for it in q.select:
        if isinstance(it, AggCall):
            if it.arg is not None:
                r = res.resolve(it.arg)
                if r is not None and it.fn in ("SUM", "AVG"):
                    if schema.col_type(r.table, r.name) == "str":
                        errors.append(SemanticError(
                            "TypeMismatch", f"{it.fn} over string column"))
        else:
            r = res.resolve(it)
            if r is not None and grouped and (r.table, r.name) not in group_keys:
                errors.append(SemanticError("NonGroupedColumn", str(it)))

    if q.where is not None:
        _check_pred(q.where, res)
    if q.having is not None:
        for ref in pred_column_refs(q.having):
            r = res.resolve(ref)
            if r is not None and (r.table, r.name) not in group_keys:
                errors.append(SemanticError("NonGroupedColumn", str(ref)))
        _check_pred(q.having, res)


def pred_column_refs(p: Predicate):
    """All column refs mentioned in a predicate, in source order."""
    out = []

    def walk(node):
        if isinstance(node, Cmp):
            for t in (node.left, node.right):
                if isinstance(t, ColumnRef):
                    out.append(t)
        elif isinstance(node, Not):
            walk(node.child)
        elif isinstance(node, (And, Or)):
            walk(node.left)
            walk(node.right)

    walk(p)
    return out


def _qualify_pred(p: Predicate, res: _Resolver) -> Predicate:
    if isinstance(p, TruthLit):
        return p
    if isinstance(p, Cmp):
        left = res.resolve(p.left) if isinstance(p.left, ColumnRef) else p.left
        right = (res.resolve(p.right)
                 if isinstance(p.right, ColumnRef) else p.right)
        return Cmp(left or p.left, p.op, right or p.right)
    if isinstance(p, Not):
        return Not(_qualify_pred(p.child, res))
    cls = type(p)
    return cls(_qualify_pred(p.left, res), _qualify_pred(p.right, res))


def qualify(q: SqlQuery, schema: Schema) -> SqlQuery:
    """Return q with every column ref table-qualified; raises InvalidQuery."""
    errors = validate(q, schema)
    if errors:
        raise InvalidQuery(errors)
    res = _Resolver(q, schema, [])
    select = tuple(
        AggCall(it.fn, res.resolve(it.arg) if it.arg is not None else None)
        if isinstance(it, AggCall) else res.resolve(it)
        for it in q.select)
    where = _qualify_pred(q.where, res) if q.where is not None else None
    group_by = (tuple(res.resolve(c) for c in q.group_by)
                if q.group_by is not None else None)
    having = _qualify_pred(q.having, res) if q.having is not None else None
    set_op = None
    if q.set_op is not None:
        op, rhs = q.set_op
        set_op = (op, qualify(rhs, schema))
    return replace(q, select=select, where=where, group_by=group_by,
                   having=having, set_op=set_op)
