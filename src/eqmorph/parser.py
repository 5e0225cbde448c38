"""Hand-rolled lexer and recursive-descent parser for the SQL subset.

Text that does not lex or parse raises EngineError(SYNTAX, "<what> at
position N"), N being the offset of the token or character at fault."""

from __future__ import annotations

import re
from decimal import Decimal
from functools import lru_cache

from .sqlast import (
    AGG_FNS, SYNTAX, UNION, UNION_ALL, AggCall, And, ColumnRef, Cmp, Const,
    EngineError, Not, Or, SqlQuery, TruthLit,
)
from .values import TruthValue

KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING",
    "UNION", "ALL", "AND", "OR", "NOT", "TRUE", "FALSE", "NULL",
    "COUNT", "SUM", "MIN", "MAX", "AVG",
    # accepted by the script loader, reserved here
    "CREATE", "TABLE", "INSERT", "INTO", "VALUES",
}

# One match per token; leading whitespace is part of the match.  A name,
# a dot and a name with no space between them lex as one qualified ref
# (most generated column refs are); \S catches any other character.
_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<qref>[A-Za-z_][A-Za-z_0-9]*\.[A-Za-z_][A-Za-z_0-9]*)
  | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[(),.;*])
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<dec>-?\d+\.\d+)
  | (?P<int>-?\d+)
  | (?P<str>'(?:[^']|'')*')
  | (?P<bad>\S)
)""", re.VERBOSE)


class Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.pos})"


# A statement's names come from a small vocabulary (keywords, table and
# column names), so each distinct word and dotted name is classified once.
# The caches are bounded; a hit gives the same result as a miss, and
# ColumnRef is immutable, so sharing one across tokens is safe.
_LEX_CACHE_SIZE = 1024

# NOT, parentheses and each AND or OR link add a level to a predicate; the
# bound keeps every walk over one, the parser's own included, shallow.
MAX_PRED_DEPTH = 100


@lru_cache(maxsize=_LEX_CACHE_SIZE)
def _classify(word: str):
    """(kind, value) of a word token."""
    upper = word.upper()
    if upper in KEYWORDS:
        return "kw", upper
    return "ident", word.lower()


@lru_cache(maxsize=_LEX_CACHE_SIZE)
def _qualified(dotted: str):
    """The ColumnRef a dotted name lexes to, or None when either part is
    a keyword and it lexes as name, ".", name."""
    table, _, name = dotted.partition(".")
    if table.upper() in KEYWORDS or name.upper() in KEYWORDS:
        return None
    return ColumnRef(name.lower(), table.lower())


def tokenize(text: str):
    """Tokens of text, ending with an eof token.  A "qref" token's value
    is a ColumnRef; unfold turns it back into ident, ".", ident."""
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m.group(kind)
        pos = m.start(kind)
        if kind == "word":
            append(Token(*_classify(value), pos))
        elif kind == "qref":
            ref = _qualified(value)
            if ref is not None:
                append(Token("qref", ref, pos))
            else:
                table, _, name = value.partition(".")
                append(Token(*_classify(table), pos))
                append(Token("punct", ".", pos + len(table)))
                append(Token(*_classify(name), pos + len(table) + 1))
        elif kind == "punct" or kind == "op":
            append(Token(kind, value, pos))
        elif kind == "int":
            append(Token("int", int(value), pos))
        elif kind == "dec":
            append(Token("dec", Decimal(value), pos))
        elif kind == "str":
            append(Token("str", value[1:-1].replace("''", "'"), pos))
        else:
            raise EngineError(
                SYNTAX, f"unexpected character {value!r} at position {pos}")
    append(Token("eof", None, len(text)))
    return tokens


def unfold(tok: Token) -> list:
    """A qref token as the three tokens it was lexed from."""
    ref = tok.value
    dot = tok.pos + len(ref.table)
    return [Token("ident", ref.table, tok.pos), Token("punct", ".", dot),
            Token("ident", ref.name, dot + 1)]


class TokenCursor:
    """The moves over a token list that the query grammar and the script
    loader share.  A failed move raises EngineError(SYNTAX) naming the
    token at fault and its position; a subclass may override fail."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.cur = tokens[0]

    def advance(self) -> Token:
        t = self.cur
        self.i += 1
        self.cur = self.tokens[self.i]
        return t

    def unfold_cur(self):
        """Split a current qref token where a lone name is expected, so
        the parse goes on, or fails, as on the three tokens."""
        if self.cur.kind == "qref":
            self.tokens[self.i:self.i + 1] = unfold(self.cur)
            self.cur = self.tokens[self.i]

    def at_kw(self, *kws) -> bool:
        t = self.cur
        return t.kind == "kw" and t.value in kws

    def accept_kw(self, *kws):
        t = self.cur
        if t.kind == "kw" and t.value in kws:
            return self.advance()
        return None

    def expect_kw(self, kw):
        if not self.at_kw(kw):
            self.fail(f"expected {kw}")
        return self.advance()

    def expect(self, kind):
        if self.cur.kind != kind:
            self.unfold_cur()
            if self.cur.kind != kind:
                self.fail(f"expected {kind}")
        return self.advance()

    def punct(self, ch) -> bool:
        if self.cur.kind == "punct" and self.cur.value == ch:
            self.advance()
            return True
        return False

    def expect_punct(self, ch):
        if not self.punct(ch):
            self.fail(f"expected {ch}")

    def got(self) -> str:
        """The current token, quoted, as a failure message names it."""
        self.unfold_cur()
        t = self.cur
        return repr(t.value if t.kind != "eof" else "end of input")

    def fail(self, message):
        got = self.got()
        raise EngineError(
            SYNTAX, f"{message}, got {got} at position {self.cur.pos}")


class _Parser(TokenCursor):
    nesting = 0  # NOTs and parentheses open here

    def query(self) -> SqlQuery:
        q = self.select_core()
        if self.accept_kw(UNION):
            op = UNION_ALL if self.accept_kw("ALL") else UNION
            rhs = self.select_core()
            if self.at_kw(UNION):
                self.fail("at most one set operation is supported")
            q = SqlQuery(q.select, q.from_tables, q.distinct, q.where,
                         q.group_by, q.having, set_op=(op, rhs))
        self.punct(";")
        if self.cur.kind != "eof":
            self.fail("trailing input after query")
        return q

    def select_core(self) -> SqlQuery:
        self.expect_kw("SELECT")
        distinct = self.accept_kw("DISTINCT") is not None
        select = [self.select_item()]
        while self.punct(","):
            select.append(self.select_item())
        self.expect_kw("FROM")
        tables = [self.expect("ident").value]
        while self.punct(","):
            tables.append(self.expect("ident").value)
        where = group_by = having = None
        if self.accept_kw("WHERE"):
            where = self.pred()
        if self.accept_kw("GROUP"):
            self.expect_kw("BY")
            group_by = [self.column_ref()]
            while self.punct(","):
                group_by.append(self.column_ref())
        if self.at_kw("HAVING"):
            if group_by is None:
                self.fail("HAVING without GROUP BY")
            self.advance()
            having = self.pred()
        return SqlQuery(tuple(select), tuple(tables), distinct, where,
                        tuple(group_by) if group_by is not None else None,
                        having)

    def select_item(self):
        if self.at_kw(*AGG_FNS):
            fn = self.advance().value
            self.expect_punct("(")
            if self.punct("*"):
                arg = None
                if fn != "COUNT":
                    self.fail("star argument is only valid for COUNT")
            else:
                arg = self.column_ref()
            self.expect_punct(")")
            return AggCall(fn, arg)
        return self.column_ref()

    def column_ref(self) -> ColumnRef:
        if self.cur.kind == "qref":
            return self.advance().value
        first = self.expect("ident").value
        if self.punct("."):
            name = self.expect("ident").value
            return ColumnRef(name, first)
        return ColumnRef(first)

    # predicates ------------------------------------------------------------
    # Each method returns (predicate, depth), a comparison having depth 0;
    # nest fails before a NOT or a parenthesis recurses past the bound.

    def pred(self):
        return self.or_pred()[0]

    def or_pred(self):
        return self.chain("OR", Or, self.and_pred)

    def and_pred(self):
        return self.chain("AND", And, self.unary_pred)

    def chain(self, kw, node, operand):
        p, depth = operand()
        while self.accept_kw(kw):
            q, d = operand()
            p, depth = node(p, q), self.level(max(depth, d) + 1)
        return p, depth

    def level(self, depth):
        if depth > MAX_PRED_DEPTH:
            self.fail(f"predicate nested deeper than {MAX_PRED_DEPTH}")
        return depth

    def nest(self, inner):
        self.nesting = self.level(self.nesting + 1)
        p, depth = inner()
        self.nesting -= 1
        return p, self.level(depth + 1)

    def unary_pred(self):
        if self.accept_kw("NOT"):
            p, depth = self.nest(self.unary_pred)
            return Not(p), depth
        if self.punct("("):
            p, depth = self.nest(self.or_pred)
            self.expect_punct(")")
            return p, depth
        return self.atom_pred(), 0

    def atom_pred(self):
        if self.at_kw("TRUE", "FALSE"):
            kw = self.advance().value
            return TruthLit(TruthValue.TRUE if kw == "TRUE"
                            else TruthValue.FALSE)
        if self.at_kw("NULL"):
            # NULL is a truth literal unless it starts a comparison
            if self.tokens[self.i + 1].kind == "op":
                left = Const(None)
                self.advance()
                return self.finish_cmp(left)
            self.advance()
            return TruthLit(TruthValue.UNKNOWN)
        left = self.term()
        return self.finish_cmp(left)

    def finish_cmp(self, left):
        if self.cur.kind != "op":
            self.fail("expected comparison operator")
        op = self.advance().value
        right = self.term()
        return Cmp(left, op, right)

    def term(self):
        t = self.cur
        if t.kind == "ident" or t.kind == "qref":
            return self.column_ref()
        if t.kind in ("int", "dec", "str"):
            self.advance()
            return Const(t.value)
        if self.at_kw("NULL"):
            self.advance()
            return Const(None)
        self.fail("expected a column, constant, or NULL")


def parse(text: str) -> SqlQuery:
    """Parse a single statement; text that does not parse raises
    EngineError(SYNTAX)."""
    if not isinstance(text, str):
        raise EngineError(SYNTAX, "input is not a string at position 0")
    return _Parser(tokenize(text)).query()
