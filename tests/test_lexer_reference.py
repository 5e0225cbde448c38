"""The lexer and the query grammar against references: the per-match
lexer the table-driven one replaced, which stored each token's position,
kept here with re.ASCII added; and the grammar as it was before its
predicate rules became loops that test the current token in place, kept
here over the reference tokens with the cursor moves it used.

Both must give the same (kind, value, position) triples, and parsing or
loading through either must give the same AST or database, or the same
EngineError code and message, on hand-picked text, on generated text, on
predicates nested up to and past the depth bound, on the statements of a
builtin campaign and on dumped scripts."""

import random
import re
from decimal import Decimal

from hypothesis import given, settings, strategies as st

from eqmorph import parser, refdb
from eqmorph.adapter import BuiltinEndpoint
from eqmorph.harness import (
    GeneratorConfig, generate_database, generate_schema, run_iteration,
)
from eqmorph.refdb import EngineError, dump_script, load_script
from eqmorph.sqlast import (
    AGG_FNS, SCRIPT, SYNTAX, UNION, UNION_ALL, AggCall, And, Cmp, ColumnRef,
    Const, Not, Or, SqlQuery, TruthLit, render_pred,
)
from eqmorph.values import TruthValue

from test_parser import (
    DEEP, LEXER_EDGE_FAILS, LEXER_EDGE_PARSES, LEXER_TEXTS, MISSING_OPERATOR,
    SYNTAX_ERROR_TEXTS,
)

_REF_RE = re.compile(r"""\s*(?:
    (?P<qref>[A-Za-z_][A-Za-z_0-9]*\.[A-Za-z_][A-Za-z_0-9]*)
  | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[(),.;*])
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<dec>-?\d+\.\d+)
  | (?P<int>-?\d+)
  | (?P<str>'(?:[^']|'')*')
  | (?P<bad>\S)
)""", re.VERBOSE | re.ASCII)


class RefToken:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _classify(word):
    upper = word.upper()
    if upper in parser.KEYWORDS:
        return "kw", upper
    return "ident", word.lower()


def _qualified(dotted):
    table, _, name = dotted.partition(".")
    if table.upper() in parser.KEYWORDS or name.upper() in parser.KEYWORDS:
        return None
    return ColumnRef(name.lower(), table.lower())


def ref_tokenize(text):
    tokens = []
    append = tokens.append
    for m in _REF_RE.finditer(text):
        kind = m.lastgroup
        value = m.group(kind)
        pos = m.start(kind)
        if kind == "word":
            append(RefToken(*_classify(value), pos))
        elif kind == "qref":
            ref = _qualified(value)
            if ref is not None:
                append(RefToken("qref", ref, pos))
            else:
                table, _, name = value.partition(".")
                append(RefToken(*_classify(table), pos))
                append(RefToken("punct", ".", pos + len(table)))
                append(RefToken(*_classify(name), pos + len(table) + 1))
        elif kind == "punct" or kind == "op":
            append(RefToken(kind, value, pos))
        elif kind == "int":
            append(RefToken("int", int(value), pos))
        elif kind == "dec":
            append(RefToken("dec", Decimal(value), pos))
        elif kind == "str":
            append(RefToken("str", value[1:-1].replace("''", "'"), pos))
        else:
            raise EngineError(
                SYNTAX, f"unexpected character {value!r} at position {pos}")
    append(RefToken("eof", None, len(text)))
    return tokens


def ref_unfold(tok):
    ref = tok.value
    dot = tok.pos + len(ref.table)
    return [RefToken("ident", ref.table, tok.pos),
            RefToken("punct", ".", dot),
            RefToken("ident", ref.name, dot + 1)]


# the depth bound as the reference grammar was written with it
REF_MAX_PRED_DEPTH = 100


class RefParser:
    """The query grammar over reference tokens, failing at the position
    the token stored."""
    nesting = 0  # NOTs and parentheses open here

    def __init__(self, text):
        self.tokens = ref_tokenize(text)
        self.i = 0
        self.cur = self.tokens[0]

    def fail(self, message):
        got = self.got()
        raise EngineError(
            SYNTAX, f"{message}, got {got} at position {self.cur.pos}")

    # cursor moves ----------------------------------------------------------

    def advance(self):
        t = self.cur
        self.i += 1
        self.cur = self.tokens[self.i]
        return t

    def unfold_cur(self):
        if self.cur.kind == "qref":
            self.tokens[self.i:self.i + 1] = ref_unfold(self.cur)
            self.cur = self.tokens[self.i]

    def at_kw(self, *kws):
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

    def punct(self, ch):
        if self.cur.kind == "punct" and self.cur.value == ch:
            self.advance()
            return True
        return False

    def expect_punct(self, ch):
        if not self.punct(ch):
            self.fail(f"expected {ch}")

    def got(self):
        self.unfold_cur()
        t = self.cur
        return repr(t.value if t.kind != "eof" else "end of input")

    # grammar ---------------------------------------------------------------

    def query(self):
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

    def select_core(self):
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

    def column_ref(self):
        if self.cur.kind == "qref":
            return self.advance().value
        first = self.expect("ident").value
        if self.punct("."):
            name = self.expect("ident").value
            return ColumnRef(name, first)
        return ColumnRef(first)

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
        if depth > REF_MAX_PRED_DEPTH:
            self.fail(f"predicate nested deeper than {REF_MAX_PRED_DEPTH}")
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


def ref_parse(text):
    return RefParser(text).query()


def ref_load_script(text):
    db = {}
    tokens = ref_tokenize(text)
    start = 0
    for end, t in enumerate(tokens):
        if t.kind == "eof" or (t.kind == "punct" and t.value == ";"):
            if end > start:
                stmt = tokens[start:end] + [RefToken("eof", None, t.pos)]
                reader = refdb._ScriptReader(stmt)
                if reader.accept_kw("CREATE"):
                    reader.create(db)
                elif reader.accept_kw("INSERT"):
                    reader.insert(db)
                else:
                    sql = text[stmt[0].pos:stmt[-1].pos].rstrip()
                    raise EngineError(
                        SCRIPT, f"unsupported statement: {sql[:60]!r}")
            start = end + 1
    return db


def ref_triples(text):
    return [(t.kind, t.value, t.pos) for t in ref_tokenize(text)]


def triples(text):
    tokens = parser.tokenize(text)
    return [(t.kind, t.value, pos)
            for t, pos in zip(tokens, parser.positions(text, tokens))]


def outcome(fn, text):
    """What fn(text) gives: ("ok", result) or ("error", code, message)."""
    try:
        return "ok", fn(text)
    except EngineError as e:
        return "error", e.code, e.message


def assert_same_query(text):
    assert outcome(triples, text) == outcome(ref_triples, text), text
    assert outcome(parser.parse, text) == outcome(ref_parse, text), text


def assert_same_script(text):
    assert outcome(triples, text) == outcome(ref_triples, text), text
    assert outcome(load_script, text) == outcome(ref_load_script, text), \
        text


# character edits that make text fail somewhere in the middle
EDITS = ("@", "'", ".", ",", ";", "(", ")", " x.", ".1", "٣", "　",
         " FROM", " t0.", "-", " CREATE")


def mangled(rng, text):
    i = rng.randrange(len(text) + 1)
    if rng.random() < 0.3:
        return text[:i]
    return text[:i] + rng.choice(EDITS) + text[i:]


def test_lexer_texts_match_the_reference():
    for text in LEXER_TEXTS:
        assert_same_query(text)
        assert_same_script(text)


# statements that take each branch of the grammar, or fail in it
GRAMMAR_TEXTS = [
    "SELECT a FROM t WHERE NOT a = 1 AND b = 2 OR c = 3",
    "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3",
    "SELECT a FROM t WHERE a = 1 AND (b = 2 OR c = 3)",
    "SELECT a FROM t WHERE NOT NOT (a = 1) OR NOT b = 2 AND NOT (c = 3)",
    "SELECT a FROM t WHERE NULL",
    "SELECT a FROM t WHERE NULL = a AND a != NULL OR NULL = NULL",
    "SELECT a FROM t WHERE NULL AND TRUE OR FALSE AND NOT NULL",
    "SELECT a FROM t WHERE TRUE = a",
    "SELECT a FROM t WHERE NULL NULL",
    "SELECT a FROM t WHERE 1 = t.a AND 'x' < t.b OR t.c >= -2.5",
    "SELECT a FROM t WHERE t.a = u.b AND u.b <> 1",
    "SELECT a FROM t WHERE a = b.c",
    "SELECT a FROM t WHERE a = SELECT",
    "SELECT a FROM t WHERE a = NULL.x",
    "SELECT a FROM t WHERE t.NOT = 1",
    "SELECT a FROM t WHERE NOT.x = 1",
    "SELECT a FROM t WHERE NOT",
    "SELECT a FROM t WHERE ()",
    "SELECT a FROM t WHERE (a = 1))",
    "SELECT a FROM t WHERE AND a = 1",
    "SELECT a FROM t WHERE a = 1 AND",
    "SELECT a FROM t WHERE a = 1 OR OR b = 1",
    "SELECT a FROM t WHERE a = 1 AND NOT",
    "SELECT DISTINCT COUNT(*), SUM(t.a), MIN(b) FROM t, u WHERE t.a = u.b "
    "GROUP BY t.a, b HAVING COUNT(*) > 1 UNION ALL SELECT a FROM t",
    "SELECT a FROM t GROUP BY a HAVING a = 1 OR NOT a = 2 UNION "
    "SELECT DISTINCT a FROM t WHERE TRUE;",
    "SELECT a FROM t GROUP BY a HAVING",
    "SELECT a FROM t GROUP BY HAVING a = 1",
    "SELECT a FROM t GROUP BY a, HAVING a = 1",
    "SELECT a FROM t WHERE a = 1 HAVING a = 1",
    "SELECT DISTINCT FROM t",
    "SELECT DISTINCT DISTINCT a FROM t",
    "SELECT a FROM t UNION",
    "SELECT a FROM t UNION ALL",
    "SELECT a FROM t UNION DISTINCT SELECT a FROM t",
    "SELECT a FROM t UNION ALL SELECT a FROM t UNION ALL SELECT a FROM t",
    "SELECT a FROM t;;",
    "SELECT a FROM t; SELECT",
    "SELECT SUM(*) FROM t",
    "SELECT COUNT(a FROM t",
    "SELECT COUNT a FROM t",
    "SELECT COUNT(t.a.b) FROM t",
    "SELECT a FROM t, FROM",
    "SELECT t.a, FROM t",
    "SELECT a, b, FROM t",
    "SELECT a FROM t, u, v WHERE a = 1",
]


def test_hand_picked_statements_match_the_reference():
    corpus = (LEXER_TEXTS + SYNTAX_ERROR_TEXTS + GRAMMAR_TEXTS
              + [sql for sql, _ in LEXER_EDGE_PARSES]
              + [sql for sql, _, _ in LEXER_EDGE_FAILS]
              + list(MISSING_OPERATOR))
    for text in corpus:
        assert_same_query(text)


# predicates nested exactly n deep, each level through NOT, a parenthesis,
# an AND link or an OR link, alone or mixed
DEEP_SHAPES = dict(DEEP, **{
    "parens-and": lambda n: ("(" * (n // 2)
                             + " AND ".join(["a = 1"] * (n - n // 2 + 1))
                             + ")" * (n // 2)),
    "not-parens-or": lambda n: ("NOT (" * (n // 3)
                                + " OR ".join(["a = 1"] * (n - 2 * (n // 3)
                                                           + 1))
                                + ")" * (n // 3)),
    "or-of-ands": lambda n: " OR ".join(["a = 1 AND a = 1"] * n),
    "and-of-ors": lambda n: " AND ".join(["(a = 1 OR a = 1)"] * (n - 1)),
    "right-deep": lambda n: ("NOT " * (n % 2) + "(a = 1 AND " * (n // 2)
                             + "a = 1" + ")" * (n // 2)),
    "right-deep-or": lambda n: ("NOT " * (n % 2) + "(a = 1 OR " * (n // 2)
                                + "a = 1" + ")" * (n // 2)),
})


def test_predicates_at_and_past_the_depth_bound_match_the_reference():
    assert parser.MAX_PRED_DEPTH == REF_MAX_PRED_DEPTH
    for shape, pred in DEEP_SHAPES.items():
        for n in (REF_MAX_PRED_DEPTH, REF_MAX_PRED_DEPTH + 1):
            for clause in ("WHERE", "GROUP BY a HAVING"):
                sql = f"SELECT a FROM t0 {clause} {pred(n)}"
                ref = outcome(ref_parse, sql)
                # the shape is exactly n deep: the bound admits it at n
                assert (ref[0] == "ok") == (n == REF_MAX_PRED_DEPTH), \
                    (shape, n, ref)
                if ref[0] == "error":
                    assert ref[2].startswith("predicate nested deeper than")
                assert outcome(parser.parse, sql) == ref, (shape, n)
                for cut in (len(sql) - 1, len(sql) - 7):
                    assert_same_query(sql[:cut])


def random_pred(rng, depth):
    """A random predicate tree at most depth levels deep."""
    if depth == 0 or rng.random() < 0.25:
        ref = rng.choice([ColumnRef("a", "t"), ColumnRef("b"),
                          ColumnRef("c", "u")])
        other = rng.choice([Const(rng.randint(-3, 3)), Const("x"),
                            Const(None), ColumnRef("a", "u")])
        return rng.choice([
            Cmp(ref, rng.choice(("=", "!=", "<", "<=", ">", ">=")), other),
            Cmp(other, "=", ref),
            TruthLit(rng.choice(list(TruthValue))),
        ])
    r = rng.random()
    if r < 0.2:
        return Not(random_pred(rng, depth - 1))
    node = And if r < 0.6 else Or
    return node(random_pred(rng, depth - 1), random_pred(rng, depth - 1))


def test_random_predicates_match_the_reference():
    """Rendered with the fewest parentheses, so each tree's shape rests on
    NOT binding tighter than AND, and AND tighter than OR."""
    rng = random.Random("grammar-ref")
    for _ in range(1500):
        text = render_pred(random_pred(rng, rng.randint(1, 6)))
        for sql in (f"SELECT a FROM t WHERE {text}",
                    f"SELECT a FROM t GROUP BY a HAVING {text} "
                    f"UNION SELECT b FROM u WHERE NOT ({text})"):
            assert_same_query(sql)
            assert_same_query(mangled(rng, sql))


PRED_TOKENS = ("NOT", "AND", "OR", "(", ")", "TRUE", "FALSE", "NULL", "a",
               "t.a", "=", "<", "1", "'x'", ",", ".", "GROUP", "SELECT")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(PRED_TOKENS), max_size=16))
def test_generated_predicates_match_the_reference(tokens):
    pred = " ".join(tokens)
    assert_same_query(f"SELECT a FROM t WHERE {pred}")
    assert_same_query(f"SELECT a FROM t GROUP BY a HAVING {pred}")


FUZZ_ALPHABET = "SELECT FROMabct01,.*()'<>=!;" + "٣　\t\n"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=FUZZ_ALPHABET, min_size=0, max_size=40))
def test_generated_text_matches_the_reference(text):
    assert_same_query(text)
    assert_same_script(text)


class _Recorder(BuiltinEndpoint):
    def __init__(self):
        super().__init__()
        self.statements = []

    def exec_sql(self, sql):
        self.statements.append(sql)
        return super().exec_sql(sql)


def test_campaign_statements_match_the_reference():
    ep = _Recorder()
    cfg = GeneratorConfig(queries_per_iteration=50, filter_budget=0)
    iteration = 0
    while len(ep.statements) < 2000:
        run_iteration(ep, cfg, "lexer-ref", iteration)
        iteration += 1
    rng = random.Random("lexer-ref")
    for sql in ep.statements[:2000]:
        assert_same_query(sql)
        assert_same_query(mangled(rng, sql))


def test_dumped_scripts_match_the_reference():
    for n in range(50):
        rng = random.Random(f"lexer-ref:{n}")
        script = dump_script(generate_database(rng, generate_schema(rng)))
        assert outcome(load_script, script)[0] == "ok"
        assert_same_script(script)
        for _ in range(4):
            assert_same_script(mangled(rng, script))
