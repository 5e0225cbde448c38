"""Value model shared by the parser, the reference executor and the comparators.

Cell values are plain Python objects: int, decimal.Decimal, str, or None
(SQL NULL).  Decimals stay exact at their scale; nothing in here touches
binary floats except the deliberately broken formatter in the fault layer.
"""

from __future__ import annotations

import re
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from enum import Enum

# Scale used when normalizing rendered decimal strings for canonical
# comparison.  Engine formatting differences beyond this scale are a
# raw-text concern, not a value concern.
CANONICAL_SCALE = 6
_QUANTUM = Decimal(1).scaleb(-CANONICAL_SCALE)

# Rounds nothing and overflows nothing, so a value of any size keeps all
# of its integer digits.  parse_rendered only quantizes a value that has
# digits beyond CANONICAL_SCALE, so no result has more digits than the
# text it came from (plus a carry): 1e400 is not widened to 407 digits.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)

_INT_RE = re.compile(r"-?\d+\Z")
_DEC_RE = re.compile(r"-?\d+\.\d+([eE][+-]?\d+)?\Z|-?\d+[eE][+-]?\d+\Z")


class TruthValue(Enum):
    TRUE = "TRUE"
    FALSE = "FALSE"
    UNKNOWN = "UNKNOWN"


def kleene_not(a: TruthValue) -> TruthValue:
    if a is TruthValue.TRUE:
        return TruthValue.FALSE
    if a is TruthValue.FALSE:
        return TruthValue.TRUE
    return TruthValue.UNKNOWN


def kleene_and(a: TruthValue, b: TruthValue) -> TruthValue:
    if a is TruthValue.FALSE or b is TruthValue.FALSE:
        return TruthValue.FALSE
    if a is TruthValue.TRUE and b is TruthValue.TRUE:
        return TruthValue.TRUE
    return TruthValue.UNKNOWN


def kleene_or(a: TruthValue, b: TruthValue) -> TruthValue:
    if a is TruthValue.TRUE or b is TruthValue.TRUE:
        return TruthValue.TRUE
    if a is TruthValue.FALSE and b is TruthValue.FALSE:
        return TruthValue.FALSE
    return TruthValue.UNKNOWN


def is_numeric(v) -> bool:
    return isinstance(v, (int, Decimal)) and not isinstance(v, bool)


def format_decimal(d: Decimal) -> str:
    """Fixed notation, trailing zeros trimmed, never exponent form."""
    s = format(d.normalize(), "f")
    return s


def format_value(v) -> str:
    if v is None:
        return "NULL"
    if isinstance(v, Decimal):
        return format_decimal(v)
    if isinstance(v, str):
        return v
    return str(v)


def render_literal(v) -> str:
    """Render a constant as SQL source text."""
    if v is None:
        return "NULL"
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    if isinstance(v, Decimal):
        return format_decimal(v)
    return str(v)


def parse_rendered(s: str):
    """Invert an engine's textual rendering for canonical comparison.

    Decimal-looking strings are quantized to CANONICAL_SCALE so that pure
    representation differences (e.g. an engine printing a value through a
    binary float) do not register as value differences in canonical mode.
    """
    if s == "NULL":
        return None
    if _INT_RE.match(s):
        return int(s)
    if _DEC_RE.match(s):
        d = Decimal(s)
        if d.as_tuple().exponent < -CANONICAL_SCALE:
            d = d.quantize(_QUANTUM, context=_EXACT)
        return d.normalize(_EXACT) if d else Decimal(0)
    return s


def _cell_key(v):
    if v is None:
        return (0, "")
    if is_numeric(v):
        return (1, format_value(Decimal(v) if isinstance(v, int) else v))
    return (2, str(v))


def row_sort_key(row):
    """Deterministic ordering for rows holding mixed NULL/number/string cells."""
    return tuple(_cell_key(v) for v in row)
