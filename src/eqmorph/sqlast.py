"""Surface AST for the supported SQL subset, plus rendering and validation.

The subset: SELECT [DISTINCT] items FROM tables [WHERE p] [GROUP BY cols]
[HAVING p], optionally combined once with UNION / UNION ALL.  Aggregate
functions: COUNT, SUM, MIN, MAX, AVG.  No joins, subqueries, ORDER BY.

EngineError(code, message) is the one error a rejected query raises, where
it is rejected: text that does not lex or parse raises it with the SYNTAX
code, name resolution with one of STABLE_ERROR_CODES, a reset script that
does not load with SCRIPT.  The code and message go unchanged to the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union as TUnion

from .values import TruthValue, is_numeric, render_literal

AGG_FNS = ("COUNT", "SUM", "MIN", "MAX", "AVG")

UNION = "UNION"
UNION_ALL = "UNION ALL"

CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")

UNKNOWN_TABLE = "UNKNOWN_TABLE"
UNKNOWN_COLUMN = "UNKNOWN_COLUMN"
NON_GROUPED_COLUMN = "NON_GROUPED_COLUMN"
TYPE_MISMATCH = "TYPE_MISMATCH"
DIV_BY_ZERO = "DIV_BY_ZERO"
# not stable codes: text the lexer or parser rejects, and a reset script
# that does not load
SYNTAX = "SYNTAX"
SCRIPT = "SCRIPT"

STABLE_ERROR_CODES = (
    UNKNOWN_TABLE, UNKNOWN_COLUMN, NON_GROUPED_COLUMN, TYPE_MISMATCH,
    DIV_BY_ZERO,
)


class EngineError(Exception):
    """A rejected query or script: one of the codes above, and a message
    that says what was rejected."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


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


class _once:
    """A method read as an attribute, computed on first access and stored
    in the instance __dict__, where it shadows this non-data descriptor
    from then on.  functools.cached_property does the same, but under
    Python 3.11 it takes a lock on every first access."""

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.fn.__name__] = self.fn(obj)
        return value


# A predicate keeps its rendered text, without the parentheses a parent
# may need, once it is first rendered (see render_pred).  Like
# SqlQuery._text, the text is not a field, so ==, hash and repr ignore it.

_TRUTH_TEXT = {TruthValue.TRUE: "TRUE", TruthValue.FALSE: "FALSE",
               TruthValue.UNKNOWN: "NULL"}


@dataclass(frozen=True)
class TruthLit:
    value: TruthValue

    @_once
    def _text(self) -> str:
        return _TRUTH_TEXT[self.value]


@dataclass(frozen=True)
class Cmp:
    left: Term
    op: str
    right: Term

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    @_once
    def _text(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And:
    left: "Predicate"
    right: "Predicate"

    @_once
    def _text(self) -> str:
        return f"{render_pred(self.left, 2)} AND {render_pred(self.right, 3)}"


@dataclass(frozen=True)
class Or:
    left: "Predicate"
    right: "Predicate"

    @_once
    def _text(self) -> str:
        return f"{render_pred(self.left, 1)} OR {render_pred(self.right, 2)}"


@dataclass(frozen=True)
class Not:
    child: "Predicate"

    @_once
    def _text(self) -> str:
        return f"NOT {render_pred(self.child, 4)}"


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
        if self.set_op is not None:
            if self.set_op[0] not in (UNION, UNION_ALL):
                raise ValueError(
                    f"unknown set operation {self.set_op[0]!r}")
            if self.set_op[1].set_op is not None:
                raise ValueError("nested set operations are unsupported")

    def has_aggregates(self) -> bool:
        return any(isinstance(it, AggCall) for it in self.select)

    def is_grouped(self) -> bool:
        return self.group_by is not None or self.has_aggregates()

    @_once
    def _text(self) -> str:
        """render(self), built once: a query never changes, and the
        cached text is not a field, so ==, hash and repr ignore it."""
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(str(it) for it in self.select))
        parts.append("FROM")
        parts.append(", ".join(self.from_tables))
        if self.where is not None:
            parts.append("WHERE")
            parts.append(render_pred(self.where))
        if self.group_by is not None:
            parts.append("GROUP BY")
            parts.append(", ".join(str(c) for c in self.group_by))
        if self.having is not None:
            parts.append("HAVING")
            parts.append(render_pred(self.having))
        text = " ".join(parts)
        if self.set_op is not None:
            op, rhs = self.set_op
            text = f"{text} {op} {rhs._text}"
        return text


# ---------------------------------------------------------------------------
# rendering

_PREC = {Or: 1, And: 2, Not: 3, TruthLit: 5, Cmp: 5}


def render_pred(p: Predicate, parent_prec: int = 0) -> str:
    """p's text, in parentheses when its operator binds less tightly than
    parent_prec asks; the text itself is built once per predicate."""
    prec = _PREC.get(type(p))
    if prec is None:
        raise TypeError(f"not a predicate: {p!r}")
    return p._text if prec >= parent_prec else f"({p._text})"


def render(q: SqlQuery) -> str:
    """Deterministic canonical text; parse(render(q)) == q structurally."""
    return q._text


# ---------------------------------------------------------------------------
# schema and semantic validation

VALID_COL_TYPES = ("int", "dec", "str")


def type_kind(col_type: str) -> str:
    """What a column of this type compares with: "num" or "str"."""
    return "num" if col_type in ("int", "dec") else "str"


@dataclass(frozen=True)
class Schema:
    """Tables with ordered (column, type) pairs; types are int / dec / str.
    Equality and hashing look at tables only."""

    tables: tuple  # of (table_name, ((col, type), ...))
    # table name -> {column: type}, in declaration order
    _index: dict = field(init=False, repr=False, compare=False)
    # (table, column) -> type_kind of its type, what name resolution and
    # the seed generator read
    _kinds: dict = field(init=False, repr=False, compare=False)
    # FROM list -> its layout, filled in by layout()
    _layouts: dict = field(init=False, repr=False, compare=False)
    # table -> its column refs, filled in by column_refs()
    _refs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {}
        for name, cols in self.tables:
            if name in index:
                raise ValueError(f"duplicate table {name!r}")
            types = dict(cols)
            if len(types) != len(cols):
                raise ValueError(f"duplicate column in {name!r}")
            for t in types.values():
                if t not in VALID_COL_TYPES:
                    raise ValueError(f"unknown column type {t!r}")
            index[name] = types
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_kinds", {
            (name, col): type_kind(t)
            for name, types in index.items() for col, t in types.items()})
        object.__setattr__(self, "_layouts", {})
        object.__setattr__(self, "_refs", {})

    @staticmethod
    def of(mapping) -> "Schema":
        return Schema(tuple(
            (name, tuple(cols)) for name, cols in mapping.items()))

    def table_names(self):
        return tuple(self._index)

    def has_table(self, name: str) -> bool:
        return name in self._index

    def columns(self, table: str):
        return tuple(self._index[table].items())

    def col_type(self, table: str, col: str) -> str:
        return self._index[table][col]

    def column_refs(self, table: str) -> tuple:
        """table's columns as table-qualified ColumnRefs, in declaration
        order.  Made on first use and kept."""
        refs = self._refs.get(table)
        if refs is None:
            refs = self._refs[table] = tuple(
                ColumnRef(col, table) for col in self._index[table])
        return refs

    def layout(self, tables: tuple) -> dict:
        """(table, column) -> position in a row of the cross product of
        tables, each table's columns after those of the tables before it.
        Worked out on first use and kept; the caller must not change it."""
        layout = self._layouts.get(tables)
        if layout is None:
            layout = {}
            width = 0
            for t in tables:
                cols = self.columns(t)
                for i, (col, _) in enumerate(cols):
                    layout[(t, col)] = width + i
                width += len(cols)
            self._layouts[tables] = layout
        return layout


def _value_type(v) -> str:
    if v is None:
        return "null"
    if is_numeric(v):
        return "num"
    return "str"


class _Resolver:
    """Resolves the column refs of one select core against its FROM list,
    appending what fails to errors."""

    def __init__(self, q: SqlQuery, schema: Schema, errors: list):
        self.from_tables = q.from_tables
        self.kinds = schema._kinds
        self.errors = errors

    def resolve(self, ref: ColumnRef) -> Optional[ColumnRef]:
        if ref.table is not None:
            if ref.table not in self.from_tables:
                self.errors.append(EngineError(UNKNOWN_TABLE, ref.table))
                return None
            if (ref.table, ref.name) not in self.kinds:
                self.errors.append(EngineError(UNKNOWN_COLUMN, str(ref)))
                return None
            return ref
        owners = [t for t in self.from_tables
                  if (t, ref.name) in self.kinds]
        if len(owners) != 1:
            # an ambiguous name is as unknown as a missing one
            self.errors.append(EngineError(UNKNOWN_COLUMN, ref.name))
            return None
        return ColumnRef(ref.name, owners[0])

    def pred(self, p: Predicate, mismatches: list,
             group_keys=None) -> Predicate:
        """p with its column refs qualified (a ref that fails stays as
        written); a subtree that needs no change comes back as the same
        object.  A comparison of a number with a string goes to
        mismatches; with group_keys, a ref outside them is a
        NON_GROUPED_COLUMN error."""
        if isinstance(p, TruthLit):
            return p
        if isinstance(p, Cmp):
            left, lk = self._term(p.left, group_keys)
            right, rk = self._term(p.right, group_keys)
            if lk and rk and "null" not in (lk, rk) and lk != rk:
                mismatches.append(EngineError(
                    TYPE_MISMATCH, f"{p.left} {p.op} {p.right}"))
            if left is p.left and right is p.right:
                return p
            return Cmp(left, p.op, right)
        if isinstance(p, Not):
            child = self.pred(p.child, mismatches, group_keys)
            return p if child is p.child else Not(child)
        left = self.pred(p.left, mismatches, group_keys)
        right = self.pred(p.right, mismatches, group_keys)
        if left is p.left and right is p.right:
            return p
        return type(p)(left, right)

    def _term(self, t: Term, group_keys):
        """(t qualified, its kind); the kind is None if t does not
        resolve."""
        if isinstance(t, Const):
            return t, _value_type(t.value)
        r = self.resolve(t)
        if r is None:
            return t, None
        if group_keys is not None and r not in group_keys:
            self.errors.append(EngineError(NON_GROUPED_COLUMN, str(t)))
        return r, self.kinds[(r.table, r.name)]


def _resolve(q: SqlQuery, schema: Schema):
    """(q with every column ref table-qualified, its EngineErrors): one
    walk over each select core.  Only what changes is rebuilt, so an
    already-qualified query comes back as the same object.  The qualified
    query is meaningful only when the error list is empty."""
    errors: list = []
    for t in q.from_tables:
        if not schema.has_table(t):
            errors.append(EngineError(UNKNOWN_TABLE, t))
    res = _Resolver(q, schema, errors)

    grouped = q.is_grouped()
    if grouped and len(q.from_tables) > 1:
        errors.append(EngineError(
            NON_GROUPED_COLUMN, ", ".join(q.from_tables)))

    group_by = q.group_by
    group_keys = set()
    if group_by is not None:
        keys = [res.resolve(c) for c in group_by]
        group_keys = {r for r in keys if r is not None}
        if any(r is not None and r is not c for r, c in zip(keys, group_by)):
            group_by = tuple(r or c for r, c in zip(keys, group_by))

    select = []
    changed = False
    for it in q.select:
        if isinstance(it, AggCall):
            arg = res.resolve(it.arg) if it.arg is not None else None
            if arg is not None and it.fn in ("SUM", "AVG") \
                    and schema._kinds[(arg.table, arg.name)] == "str":
                errors.append(EngineError(
                    TYPE_MISMATCH, f"{it.fn} over string column"))
            if arg is not None and arg is not it.arg:
                it, changed = AggCall(it.fn, arg), True
        else:
            r = res.resolve(it)
            if r is not None:
                if grouped and r not in group_keys:
                    errors.append(EngineError(NON_GROUPED_COLUMN, str(it)))
                if r is not it:
                    it, changed = r, True
        select.append(it)
    select = tuple(select) if changed else q.select

    where = res.pred(q.where, errors) if q.where is not None else None
    having = None
    if q.having is not None:
        # every grouped-column error of HAVING comes before its type errors
        mismatches: list = []
        having = res.pred(q.having, mismatches, group_keys)
        errors.extend(mismatches)

    set_op = q.set_op
    if set_op is not None:
        op, rhs = set_op
        qualified_rhs, rhs_errors = _resolve(rhs, schema)
        errors.extend(rhs_errors)
        if not errors:
            errors.extend(_set_operand_errors(select, qualified_rhs.select,
                                              schema))
        if qualified_rhs is not rhs:
            set_op = (op, qualified_rhs)
    if (select is q.select and where is q.where and having is q.having
            and group_by is q.group_by and set_op is q.set_op):
        return q, errors
    return SqlQuery(select, q.from_tables, q.distinct, where, group_by,
                    having, set_op), errors


def _set_operand_errors(left, right, schema: Schema) -> list:
    """Errors of combining two qualified select lists by a set operation;
    MIN and MAX match either kind."""
    def kinds(select):
        return [("num" if it.fn in ("COUNT", "SUM", "AVG") else "any")
                if isinstance(it, AggCall)
                else schema._kinds[(it.table, it.name)]
                for it in select]

    lk, rk = kinds(left), kinds(right)
    if len(lk) != len(rk):
        return [EngineError(
            TYPE_MISMATCH, f"set operands have arity {len(lk)} vs {len(rk)}")]
    return [EngineError(TYPE_MISMATCH, f"set operand column {i}")
            for i, (a, b) in enumerate(zip(lk, rk))
            if "any" not in (a, b) and a != b]


def validate(q: SqlQuery, schema: Schema):
    """The EngineErrors of q on schema, in the order found; empty means
    the query is valid."""
    return _resolve(q, schema)[1]


def qualify(q: SqlQuery, schema: Schema) -> SqlQuery:
    """Return q with every column ref table-qualified; raises the first
    EngineError that validate finds."""
    qualified, errors = _resolve(q, schema)
    if errors:
        raise errors[0]
    return qualified


def pred_column_refs(p: Predicate):
    """All column refs mentioned in a predicate, in source order."""
    out = []
    _collect_refs(p, out)
    return out


def _collect_refs(node, out: list):
    """Append the column refs of node to out, in source order.  (Not a
    closure inside pred_column_refs: a nested function that calls itself
    is a reference cycle, left for the garbage collector on every call.)"""
    if isinstance(node, Cmp):
        for t in (node.left, node.right):
            if isinstance(t, ColumnRef):
                out.append(t)
    elif isinstance(node, Not):
        _collect_refs(node.child, out)
    elif isinstance(node, (And, Or)):
        _collect_refs(node.left, out)
        _collect_refs(node.right, out)
