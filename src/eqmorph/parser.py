"""Hand-rolled lexer and recursive-descent parser for the SQL subset.

The lexer cuts text with one findall of _TOKEN_RE; each raw match is a
lexeme with its leading whitespace.  A table maps a raw match to its
tokens, a kind and a value each, shared and never changed; a miss
classifies the lexeme once.  No token holds its position.

Text that does not lex or parse raises EngineError(SYNTAX, "<what> at
position N"), N being the offset of the token or character at fault.
Only then is the position derived, from the raw matches: a lexeme starts
at the running sum of match lengths minus its own length.

The grammar is recursive descent, one method per rule:

    query  := core [UNION [ALL] core] [";"]
    core   := SELECT [DISTINCT] item {"," item} FROM name {"," name}
              [WHERE or] [GROUP BY ref {"," ref}] [HAVING or]
    or     := and {OR and}
    and    := unary {AND unary}
    unary  := NOT unary | "(" or ")" | TRUE | FALSE | NULL
            | term op term

The or and and rules are loops that build left-deep trees.  Each choice
tests the current token in place, and unary dispatches once on it: a
qualified ref starts a comparison directly.  NOT, a parenthesis and each
AND or OR link add a level; a predicate deeper than MAX_PRED_DEPTH fails.

The lexer reads ASCII only: outside a string literal, a non-ASCII digit,
letter or space is a character no token starts with."""

from __future__ import annotations

import re
from decimal import Decimal

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

# One raw match per lexeme; leading whitespace is part of the match.  A
# name, a dot and a name with no space between them are one lexeme, a
# qualified ref (most generated column refs are); \S catches any other
# character.  re.ASCII keeps \d and \s to ASCII digits and whitespace.
_TOKEN_RE = re.compile(r"""\s*(?:
    [A-Za-z_][A-Za-z_0-9]*\.[A-Za-z_][A-Za-z_0-9]*  # qualified name
  | [A-Za-z_][A-Za-z_0-9]*                         # word
  | [(),.;*]                                      # punctuation
  | <=|>=|!=|=|<|>                                 # operator
  | -?\d+\.\d+                                     # decimal
  | -?\d+                                          # integer
  | '(?:[^']|'')*'                                 # string
  | \S                                             # any other character
)""", re.VERBOSE | re.ASCII)

_SPACE = " \t\n\r\f\v"  # what \s matches under re.ASCII
_NAME_START = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
_OPS = frozenset(("<=", ">=", "!=", "=", "<", ">"))


class Token:
    """A kind and a value.  Tokens are shared between statements, so
    none is ever changed."""
    __slots__ = ("kind", "value")

    def __init__(self, kind, value):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("a token is immutable")

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r})"


EOF = Token("eof", None)
_DOT = Token("punct", ".")

# Raw match -> its tokens.  Statements repeat a small vocabulary of raw
# matches (keywords, names and small literals, each with its leading
# whitespace: 72 distinct ones in 10,230 campaign statements), so each is
# classified once.  The table is emptied when it holds _LEX_CACHE_SIZE of
# them, so text full of distinct literals cannot grow it; a hit gives the
# tokens a miss would.
_LEX_CACHE_SIZE = 1024
_LEXEMES: dict = {}

# NOT, parentheses and each AND or OR link add a level to a predicate; the
# bound keeps every walk over one, the parser's own included, shallow.
MAX_PRED_DEPTH = 100


def _word(word: str) -> Token:
    upper = word.upper()
    if upper in KEYWORDS:
        return Token("kw", upper)
    return Token("ident", word.lower())


def _lex(lexeme: str):
    """The tokens of one lexeme as _TOKEN_RE cut it, or None for a
    character no token starts with.  A name, a dot and a name are one
    qref token, its value a ColumnRef, unless a keyword is among them."""
    first = lexeme[0]
    if first in _NAME_START:
        table, dot, name = lexeme.partition(".")
        if not dot:
            return (_word(lexeme),)
        left, right = _word(table), _word(name)
        if left.kind == right.kind == "ident":
            return (Token("qref", ColumnRef(right.value, left.value)),)
        return (left, _DOT, right)
    if first in "(),.;*":
        return (Token("punct", first),)
    if lexeme in _OPS:
        return (Token("op", lexeme),)
    if lexeme[-1] in "0123456789":
        if "." in lexeme:
            return (Token("dec", Decimal(lexeme)),)
        return (Token("int", int(lexeme)),)
    if first == "'" and len(lexeme) > 1:
        return (Token("str", lexeme[1:-1].replace("''", "'")),)
    return None


def tokenize(text: str) -> list:
    """Tokens of text, ending with EOF.  A "qref" token's value is a
    ColumnRef; unfold turns it back into ident, ".", ident."""
    tokens = []
    extend = tokens.extend
    known = _LEXEMES.get
    for raw in _TOKEN_RE.findall(text):
        extend(known(raw) or _learn(text, raw))
    tokens.append(EOF)
    return tokens


def _learn(text, raw):
    """Classify a raw match the table lacks and keep its tokens; a
    character no token starts with raises EngineError(SYNTAX)."""
    tokens = _lex(raw.lstrip(_SPACE))
    if tokens is None:  # the first such character in text is at fault
        for tokens, lexeme, start in _lexemes(text):
            if tokens is None:
                raise EngineError(SYNTAX, f"unexpected character "
                                  f"{lexeme!r} at position {start}")
    if len(_LEXEMES) >= _LEX_CACHE_SIZE:
        _LEXEMES.clear()
    _LEXEMES[raw] = tokens
    return tokens


def _lexemes(text):
    """(tokens, lexeme, offset) of each raw match of text, in order; the
    tokens are None for a character no token starts with."""
    end = 0
    for raw in _TOKEN_RE.findall(text):
        end += len(raw)
        lexeme = raw.lstrip(_SPACE)
        yield _LEXEMES.get(raw) or _lex(lexeme), lexeme, end - len(lexeme)


def positions(text: str, tokens: list) -> list:
    """The offset in text of each of tokens, EOF's being len(text).
    tokens are text's tokens, some qref tokens perhaps unfolded."""
    out = []
    for group, _, start in _lexemes(text):
        if group[0].kind == "qref" and tokens[len(out)].kind != "qref":
            group = unfold(group[0])
        if len(group) == 1:
            out.append(start)
        else:  # name, ".", name
            dot = start + len(group[0].value)
            out += (start, dot, dot + 1)
    out.append(len(text))
    return out


def unfold(tok: Token) -> list:
    """A qref token as the three tokens it was lexed from."""
    ref = tok.value
    return [Token("ident", ref.table), _DOT, Token("ident", ref.name)]


class TokenCursor:
    """The moves over a token list that the query grammar and the script
    loader share.  A failed move calls fail(message), which each
    subclass defines to raise its EngineError naming the token at fault."""

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

    def accept_kw(self, kw):
        t = self.cur
        if t.kind == "kw" and t.value == kw:
            return self.advance()
        return None

    def expect_kw(self, kw):
        t = self.cur
        if t.kind != "kw" or t.value != kw:
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


class _Parser(TokenCursor):
    nesting = 0  # NOTs and parentheses open here

    def __init__(self, text):
        super().__init__(tokenize(text))
        self.text = text

    def fail(self, message):
        got = self.got()
        pos = positions(self.text, self.tokens)[self.i]
        raise EngineError(SYNTAX, f"{message}, got {got} at position {pos}")

    def query(self) -> SqlQuery:
        core = self.select_core()
        set_op = None
        if self.accept_kw(UNION):
            op = UNION_ALL if self.accept_kw("ALL") else UNION
            set_op = (op, SqlQuery(*self.select_core()))
            t = self.cur
            if t.kind == "kw" and t.value == UNION:
                self.fail("at most one set operation is supported")
        self.punct(";")
        if self.cur.kind != "eof":
            self.fail("trailing input after query")
        return SqlQuery(*core, set_op=set_op)

    def select_core(self) -> tuple:
        """One SELECT's parts, in SqlQuery's field order up to having."""
        self.expect_kw("SELECT")
        t = self.cur
        distinct = t.kind == "kw" and t.value == "DISTINCT"
        if distinct:
            self.advance()
        select = self.comma_list(self.select_item)
        self.expect_kw("FROM")
        tables = self.comma_list(self.table_name)
        where = group_by = having = None
        t = self.cur
        if t.kind == "kw" and t.value == "WHERE":
            self.advance()
            where = self.pred()
            t = self.cur
        if t.kind == "kw" and t.value == "GROUP":
            self.advance()
            self.expect_kw("BY")
            group_by = self.comma_list(self.column_ref)
            t = self.cur
        if t.kind == "kw" and t.value == "HAVING":
            if group_by is None:
                self.fail("HAVING without GROUP BY")
            self.advance()
            having = self.pred()
        return select, tables, distinct, where, group_by, having

    def comma_list(self, item) -> tuple:
        """item(), then one more for each comma that follows."""
        items = [item()]
        t = self.cur
        while t.kind == "punct" and t.value == ",":
            self.advance()
            items.append(item())
            t = self.cur
        return tuple(items)

    def table_name(self) -> str:
        return self.expect("ident").value

    def select_item(self):
        t = self.cur
        if t.kind == "qref":
            self.advance()
            return t.value
        if t.kind == "kw" and t.value in AGG_FNS:
            self.advance()
            fn = t.value
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
        p, depth = self.and_pred()
        t = self.cur
        while t.kind == "kw" and t.value == "OR":
            self.advance()
            q, d = self.and_pred()
            p, depth = Or(p, q), self.level(max(depth, d) + 1)
            t = self.cur
        return p, depth

    def and_pred(self):
        p, depth = self.unary_pred()
        t = self.cur
        while t.kind == "kw" and t.value == "AND":
            self.advance()
            q, d = self.unary_pred()
            p, depth = And(p, q), self.level(max(depth, d) + 1)
            t = self.cur
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
        t = self.cur
        kind = t.kind
        if kind == "qref":
            self.advance()
            return self.finish_cmp(t.value), 0
        if kind == "kw":
            kw = t.value
            if kw == "NOT":
                self.advance()
                p, depth = self.nest(self.unary_pred)
                return Not(p), depth
            if kw == "TRUE" or kw == "FALSE":
                self.advance()
                return TruthLit(TruthValue.TRUE if kw == "TRUE"
                                else TruthValue.FALSE), 0
            if kw == "NULL":
                self.advance()
                # NULL is a truth literal unless it starts a comparison
                if self.cur.kind == "op":
                    return self.finish_cmp(Const(None)), 0
                return TruthLit(TruthValue.UNKNOWN), 0
        elif kind == "punct" and t.value == "(":
            self.advance()
            p, depth = self.nest(self.or_pred)
            self.expect_punct(")")
            return p, depth
        return self.finish_cmp(self.term()), 0

    def finish_cmp(self, left):
        t = self.cur
        if t.kind != "op":
            self.fail("expected comparison operator")
        self.advance()
        right = self.cur
        if right.kind == "qref":
            self.advance()
            return Cmp(left, t.value, right.value)
        return Cmp(left, t.value, self.term())

    def term(self):
        t = self.cur
        kind = t.kind
        if kind == "ident" or kind == "qref":
            return self.column_ref()
        if kind == "int" or kind == "dec" or kind == "str":
            self.advance()
            return Const(t.value)
        if kind == "kw" and t.value == "NULL":
            self.advance()
            return Const(None)
        self.fail("expected a column, constant, or NULL")


def parse(text: str) -> SqlQuery:
    """Parse a single statement; text that does not parse raises
    EngineError(SYNTAX)."""
    if not isinstance(text, str):
        raise EngineError(SYNTAX, "input is not a string at position 0")
    return _Parser(text).query()
