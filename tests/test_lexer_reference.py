"""The lexer against a reference: the per-match lexer it replaced, which
stored each token's position, kept here with re.ASCII added.

Both must give the same (kind, value, position) triples, and parsing or
loading through either must give the same AST or database, or the same
EngineError code and message, on hand-picked text, on generated text, on
the statements of a builtin campaign and on dumped scripts."""

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
from eqmorph.sqlast import SCRIPT, SYNTAX, ColumnRef

from test_parser import LEXER_TEXTS

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


class RefParser(parser._Parser):
    """The query grammar over reference tokens, failing at the position
    the token stored."""

    def __init__(self, text):
        parser.TokenCursor.__init__(self, ref_tokenize(text))

    def unfold_cur(self):
        if self.cur.kind == "qref":
            self.tokens[self.i:self.i + 1] = ref_unfold(self.cur)
            self.cur = self.tokens[self.i]

    def fail(self, message):
        got = self.got()
        raise EngineError(
            SYNTAX, f"{message}, got {got} at position {self.cur.pos}")


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
