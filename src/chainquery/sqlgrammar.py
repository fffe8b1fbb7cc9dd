"""Parser for the six-primitive SQL subset over the single table `entries`.

Supported statements:
  INSERT INTO entries (amount, addresses, timestamp[, image][, video])
      VALUES (...)
  DELETE FROM entries WHERE entry_id = N
  UPDATE entries SET col = val [, ...] WHERE entry_id = N
  SELECT * FROM entries WHERE entry_id = N
  SELECT * FROM entries WHERE timestamp = N
  SELECT * FROM entries WHERE timestamp BETWEEN A AND B
  SELECT * FROM entries WHERE ts_str LIKE 'prefix%'
  SELECT * FROM entries WHERE address LIKE 'prefix%'

Anything else raises SqlSyntaxError (with position) or UnsupportedFeature.
"""
from __future__ import annotations

import binascii
import re
from dataclasses import dataclass, field
from typing import Optional

from chainquery.core import ADDRESS_RE


class SqlSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnsupportedFeature(ValueError):
    pass


@dataclass(frozen=True)
class InsertQuery:
    amount: int
    addresses: tuple[str, ...]
    timestamp: int
    image_payload: Optional[bytes] = None
    video_payload: Optional[bytes] = None


@dataclass(frozen=True)
class DeleteQuery:
    entry_id: int


@dataclass(frozen=True)
class UpdateQuery:
    entry_id: int
    changes: tuple[tuple[str, object], ...]  # (column, new value)


@dataclass(frozen=True)
class SelectSimple:
    entry_id: Optional[int] = None
    timestamp: Optional[int] = None


@dataclass(frozen=True)
class SelectTimeRange:
    start_time: int
    end_time: int


@dataclass(frozen=True)
class SelectFuzzy:
    # field is "timestamp_string" or "address"
    field: str
    prefix: str


QueryAst = (InsertQuery | DeleteQuery | UpdateQuery | SelectSimple
            | SelectTimeRange | SelectFuzzy)


# Each match skips the whitespace before one token; the input's end is the
# last token, so a parser that asks for more finds it and reports its place.
# A string matches only its opening quote: `_Tokens` finds the closing one
# with `str.find`, which scans a long payload literal far faster than the
# regex engine does.
_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<string>')
  | (?P<int>[0-9]+)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[(),=*;])
  | (?P<end>\Z)
  | (?P<bad>\S)
)""", re.VERBOSE)

_UNSUPPORTED_WORDS = {"count", "sum", "avg", "min", "max", "join", "group",
                      "order", "having", "limit", "distinct", "inner",
                      "outer", "union"}

_INSERT_COLUMNS = ("amount", "addresses", "timestamp", "image", "video")
_UPDATE_COLUMNS = ("amount", "addresses", "timestamp")
_REQUIRED_COLUMNS = ("amount", "addresses", "timestamp")
_FUZZY_FIELDS = {"ts_str": "timestamp_string", "address": "address"}


class _Tokens:
    def __init__(self, sql: str):
        self.items: list[tuple[str, str, int]] = []
        kind, end = "", 0
        while kind != "end":
            m = _TOKEN_RE.match(sql, end)
            kind, start, end = m.lastgroup, m.start(m.lastgroup), m.end()
            if kind == "string":
                end = sql.find("'", end) + 1
                if not end:  # unterminated: the quote is a stray character
                    kind = "bad"
            if kind == "bad":
                raise SqlSyntaxError(f"unexpected character {sql[start]!r}",
                                     start)
            self.items.append((kind, sql[start:end], start))
        self.pos = 0
        self.end = len(sql)

    def peek(self) -> tuple[str, str, int]:
        return self.items[self.pos]

    def take(self, *texts: str, kind: str = "") -> str:
        """Consume the next token and return its text, lower-cased if it is
        a word. It must be one of `texts` when they are given, and of `kind`
        when that is given; the end of input is never taken."""
        tok_kind, text, pos = self.items[self.pos]
        if tok_kind == "end":
            raise SqlSyntaxError("unexpected end of input", pos)
        value = text.lower() if tok_kind == "word" else text
        if (kind and tok_kind != kind) or (texts and value not in texts):
            want = " or ".join(map(repr, texts)) or kind
            raise SqlSyntaxError(f"expected {want}, got {text!r}", pos)
        self.pos += 1
        return value

    def finish(self) -> None:
        if self.peek()[1] == ";":
            self.pos += 1
        kind, text, pos = self.peek()
        if kind != "end":
            raise SqlSyntaxError(f"unexpected trailing input {text!r}", pos)


def parse(sql: str) -> QueryAst:
    if not isinstance(sql, str):
        raise SqlSyntaxError("input is not text", 0)
    toks = _Tokens(sql)
    if toks.peek()[0] == "end":
        raise SqlSyntaxError("empty statement", 0)
    _check_word(toks)
    return _STATEMENTS[toks.take(*_STATEMENTS)](toks)


def _check_word(toks: _Tokens) -> None:
    kind, text, _ = toks.peek()
    if kind == "word" and text.lower() in _UNSUPPORTED_WORDS:
        raise UnsupportedFeature(f"{text.upper()} is out of grammar")


def _table(toks: _Tokens) -> None:
    name = toks.take(kind="word")
    if name != "entries":
        raise UnsupportedFeature(f"unknown table {name!r}; only `entries` "
                                 "exists")


def _columns(toks: _Tokens, allowed: tuple[str, ...],
             assigned: bool) -> dict[str, object]:
    """`col, ...` (or `col = value, ...` if `assigned`) over distinct
    columns in `allowed`, in order; stops before the first token that does
    not continue the list with ','."""
    found: dict[str, object] = {}
    while True:
        pos = toks.peek()[2]
        col = toks.take(kind="word")
        if col not in allowed:
            raise UnsupportedFeature(f"column {col!r} is out of grammar here")
        if col in found:
            raise SqlSyntaxError(f"duplicate column {col!r}", pos)
        found[col] = None
        if assigned:
            toks.take("=")
            found[col] = _value(toks, col)
        if toks.peek()[1] != ",":
            return found
        toks.take()


def _value(toks: _Tokens, col: str):
    """The literal for `col`: an integer, or a string holding addresses or
    payload hex."""
    pos = toks.peek()[2]
    if col not in ("addresses", "image", "video"):
        text = toks.take(kind="int")
        try:
            return int(text)
        except ValueError:  # past the interpreter's integer-string limit
            raise SqlSyntaxError("integer literal too long", pos) from None
    raw = toks.take(kind="string")[1:-1]
    if col == "addresses":
        return _parse_addresses(raw, pos)
    return _parse_payload(raw, pos)


def _entry_id(toks: _Tokens) -> int:
    """The `entry_id = N` tail that ends DELETE, UPDATE and a SELECT."""
    toks.take("entry_id")
    toks.take("=")
    entry_id = _value(toks, "entry_id")
    toks.finish()
    return entry_id


def _parse_addresses(raw: str, pos: int) -> tuple[str, ...]:
    addrs = tuple(a.strip() for a in raw.split(",") if a.strip())
    if not addrs:
        raise SqlSyntaxError("addresses literal is empty", pos)
    for a in addrs:
        if not ADDRESS_RE.fullmatch(a):
            raise SqlSyntaxError(f"malformed address {a!r}", pos)
    return addrs


def _parse_payload(raw: str, pos: int) -> bytes:
    # unhexlify rejects odd lengths, whitespace, non-hex and non-ASCII
    # characters but admits upper case, so six scans for A-F leave exactly
    # even-length lowercase hex; every step is one linear pass in C.
    try:
        data = binascii.unhexlify(raw)
    except ValueError:  # binascii.Error is a ValueError
        data = None
    if data is None or any(c in raw for c in "ABCDEF"):
        raise SqlSyntaxError("payload literal must be even-length lowercase "
                             "hex", pos)
    return data


def _parse_insert(toks: _Tokens) -> InsertQuery:
    toks.take("into")
    _table(toks)
    toks.take("(")
    columns = list(_columns(toks, _INSERT_COLUMNS, assigned=False))
    toks.take(")")
    for required in _REQUIRED_COLUMNS:
        if required not in columns:
            raise SqlSyntaxError(f"missing required column {required!r}",
                                 toks.end)
    toks.take("values")
    toks.take("(")
    values: dict[str, object] = {}
    for i, col in enumerate(columns):
        if i:
            toks.take(",")
        kind, text, _ = toks.peek()
        if kind == "word" and text.lower() == "null":
            toks.take()
            values[col] = None
        else:
            values[col] = _value(toks, col)
    toks.take(")")
    toks.finish()
    for required in _REQUIRED_COLUMNS:
        if values[required] is None:
            raise SqlSyntaxError(f"column {required!r} cannot be NULL",
                                 toks.end)
    return InsertQuery(amount=values["amount"], addresses=values["addresses"],
                       timestamp=values["timestamp"],
                       image_payload=values.get("image"),
                       video_payload=values.get("video"))


def _parse_delete(toks: _Tokens) -> DeleteQuery:
    toks.take("from")
    _table(toks)
    toks.take("where")
    return DeleteQuery(_entry_id(toks))


def _parse_update(toks: _Tokens) -> UpdateQuery:
    _table(toks)
    toks.take("set")
    changes = _columns(toks, _UPDATE_COLUMNS, assigned=True)
    toks.take("where")
    return UpdateQuery(_entry_id(toks), tuple(changes.items()))


def _parse_select(toks: _Tokens):
    _check_word(toks)
    if toks.take() != "*":
        raise UnsupportedFeature("only SELECT * is supported")
    toks.take("from")
    _table(toks)
    toks.take("where")
    if toks.peek()[1].lower() == "entry_id":
        return SelectSimple(entry_id=_entry_id(toks))
    col = toks.take(kind="word")
    if col == "timestamp" and toks.take("=", "between") == "=":
        ast = SelectSimple(timestamp=_value(toks, col))
    elif col == "timestamp":
        start = _value(toks, col)
        toks.take("and")
        ast = SelectTimeRange(start, _value(toks, col))
    elif col in _FUZZY_FIELDS:
        toks.take("like")
        pattern = toks.take(kind="string")[1:-1]
        if not pattern.endswith("%") or "%" in pattern[:-1] \
                or "_" in pattern:
            raise UnsupportedFeature(
                "only LIKE 'prefix%' patterns are supported")
        ast = SelectFuzzy(_FUZZY_FIELDS[col], pattern[:-1])
    else:
        raise UnsupportedFeature(f"cannot filter on column {col!r}")
    toks.finish()
    return ast


_STATEMENTS = {"insert": _parse_insert, "delete": _parse_delete,
               "update": _parse_update, "select": _parse_select}
