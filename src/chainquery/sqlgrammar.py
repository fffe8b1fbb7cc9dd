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


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<string>'(?:[^'])*')
  | (?P<int>\d+)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[(),=*;])
  | (?P<bad>.)
""", re.VERBOSE)

_UNSUPPORTED_WORDS = {"count", "sum", "avg", "min", "max", "join", "group",
                      "order", "having", "limit", "distinct", "inner",
                      "outer", "union"}

_INSERT_COLUMNS = ("amount", "addresses", "timestamp", "image", "video")
_UPDATE_COLUMNS = ("amount", "addresses", "timestamp")
_FUZZY_FIELDS = {"ts_str": "timestamp_string", "address": "address"}


class _Tokens:
    def __init__(self, sql: str):
        self.items: list[tuple[str, str, int]] = []
        for m in _TOKEN_RE.finditer(sql):
            kind = m.lastgroup
            if kind == "ws":
                continue
            if kind == "bad":
                raise SqlSyntaxError(f"unexpected character {m.group()!r}",
                                     m.start())
            self.items.append((kind, m.group(), m.start()))
        self.pos = 0
        self.end = len(sql)

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise SqlSyntaxError("unexpected end of input", self.end)
        self.pos += 1
        return tok

    def expect_word(self, *words: str) -> str:
        kind, text, pos = self.next()
        if kind != "word" or text.lower() not in words:
            raise SqlSyntaxError(
                f"expected {' or '.join(w.upper() for w in words)}, "
                f"got {text!r}", pos)
        return text.lower()

    def expect_punct(self, symbol: str) -> None:
        kind, text, pos = self.next()
        if kind != "punct" or text != symbol:
            raise SqlSyntaxError(f"expected {symbol!r}, got {text!r}", pos)

    def expect_int(self) -> int:
        kind, text, pos = self.next()
        if kind != "int":
            raise SqlSyntaxError(f"expected integer, got {text!r}", pos)
        return int(text)

    def expect_string(self) -> tuple[str, int]:
        kind, text, pos = self.next()
        if kind != "string":
            raise SqlSyntaxError(f"expected string literal, got {text!r}", pos)
        return text[1:-1], pos

    def finish(self) -> None:
        tok = self.peek()
        if tok is not None and not (tok[0] == "punct" and tok[1] == ";"):
            raise SqlSyntaxError(f"unexpected trailing input {tok[1]!r}",
                                 tok[2])
        if tok is not None:
            self.pos += 1
            if self.peek() is not None:
                extra = self.peek()
                raise SqlSyntaxError("input after statement end", extra[2])


def parse(sql: str) -> QueryAst:
    if not isinstance(sql, str):
        raise SqlSyntaxError("input is not text", 0)
    toks = _Tokens(sql)
    tok = toks.peek()
    if tok is None:
        raise SqlSyntaxError("empty statement", 0)
    kind, text, pos = tok
    if kind != "word":
        raise SqlSyntaxError(f"expected statement keyword, got {text!r}", pos)
    verb = text.lower()
    if verb == "insert":
        return _parse_insert(toks)
    if verb == "delete":
        return _parse_delete(toks)
    if verb == "update":
        return _parse_update(toks)
    if verb == "select":
        return _parse_select(toks)
    if verb in _UNSUPPORTED_WORDS:
        raise UnsupportedFeature(f"{verb.upper()} is out of grammar")
    raise SqlSyntaxError(f"unknown statement {text!r}", pos)


def _check_word(toks: _Tokens) -> None:
    tok = toks.peek()
    if tok and tok[0] == "word" and tok[1].lower() in _UNSUPPORTED_WORDS:
        raise UnsupportedFeature(f"{tok[1].upper()} is out of grammar")


def _expect_table(toks: _Tokens) -> None:
    kind, text, pos = toks.next()
    if kind != "word":
        raise SqlSyntaxError(f"expected table name, got {text!r}", pos)
    if text.lower() != "entries":
        raise UnsupportedFeature(f"unknown table {text!r}; only `entries` "
                                 "exists")


def _parse_addresses(raw: str, pos: int) -> tuple[str, ...]:
    addrs = tuple(a.strip() for a in raw.split(",") if a.strip())
    if not addrs:
        raise SqlSyntaxError("addresses literal is empty", pos)
    for a in addrs:
        if not ADDRESS_RE.fullmatch(a):
            raise SqlSyntaxError(f"malformed address {a!r}", pos)
    return addrs


def _parse_payload(raw: str, pos: int) -> bytes:
    # bytes.fromhex is linear but lenient (upper case, whitespace); the
    # round trip admits exactly the canonical even-length lowercase form.
    try:
        data = bytes.fromhex(raw)
    except ValueError:
        data = None
    if data is None or data.hex() != raw:
        raise SqlSyntaxError("payload literal must be even-length lowercase "
                             "hex", pos)
    return data


def _parse_insert(toks: _Tokens) -> InsertQuery:
    toks.next()  # INSERT
    toks.expect_word("into")
    _expect_table(toks)
    toks.expect_punct("(")
    columns = []
    while True:
        kind, text, pos = toks.next()
        if kind != "word":
            raise SqlSyntaxError(f"expected column name, got {text!r}", pos)
        col = text.lower()
        if col not in _INSERT_COLUMNS:
            raise UnsupportedFeature(f"unknown insert column {col!r}")
        if col in columns:
            raise SqlSyntaxError(f"duplicate column {col!r}", pos)
        columns.append(col)
        kind, text, pos = toks.next()
        if text == ")":
            break
        if text != ",":
            raise SqlSyntaxError(f"expected ',' or ')', got {text!r}", pos)
    for required in ("amount", "addresses", "timestamp"):
        if required not in columns:
            raise SqlSyntaxError(f"missing required column {required!r}",
                                 toks.end)
    toks.expect_word("values")
    toks.expect_punct("(")
    values: dict[str, object] = {}
    for i, col in enumerate(columns):
        tok = toks.peek()
        if tok and tok[0] == "word" and tok[1].lower() == "null":
            toks.next()
            values[col] = None
        elif col in ("amount", "timestamp"):
            values[col] = toks.expect_int()
        else:
            raw, pos = toks.expect_string()
            if col == "addresses":
                values[col] = _parse_addresses(raw, pos)
            else:
                values[col] = _parse_payload(raw, pos)
        if i < len(columns) - 1:
            toks.expect_punct(",")
    toks.expect_punct(")")
    toks.finish()
    for required in ("amount", "addresses", "timestamp"):
        if values.get(required) is None:
            raise SqlSyntaxError(f"column {required!r} cannot be NULL",
                                 toks.end)
    return InsertQuery(amount=values["amount"], addresses=values["addresses"],
                       timestamp=values["timestamp"],
                       image_payload=values.get("image"),
                       video_payload=values.get("video"))


def _parse_delete(toks: _Tokens) -> DeleteQuery:
    toks.next()  # DELETE
    toks.expect_word("from")
    _expect_table(toks)
    toks.expect_word("where")
    toks.expect_word("entry_id")
    toks.expect_punct("=")
    entry_id = toks.expect_int()
    toks.finish()
    return DeleteQuery(entry_id)


def _parse_update(toks: _Tokens) -> UpdateQuery:
    toks.next()  # UPDATE
    _expect_table(toks)
    toks.expect_word("set")
    changes = []
    seen = set()
    while True:
        kind, text, pos = toks.next()
        if kind != "word":
            raise SqlSyntaxError(f"expected column name, got {text!r}", pos)
        col = text.lower()
        if col not in _UPDATE_COLUMNS:
            raise UnsupportedFeature(f"cannot update column {col!r}")
        if col in seen:
            raise SqlSyntaxError(f"duplicate column {col!r}", pos)
        seen.add(col)
        toks.expect_punct("=")
        if col == "addresses":
            raw, vpos = toks.expect_string()
            changes.append((col, _parse_addresses(raw, vpos)))
        else:
            changes.append((col, toks.expect_int()))
        tok = toks.peek()
        if tok and tok[1] == ",":
            toks.next()
            continue
        break
    toks.expect_word("where")
    toks.expect_word("entry_id")
    toks.expect_punct("=")
    entry_id = toks.expect_int()
    toks.finish()
    return UpdateQuery(entry_id, tuple(changes))


def _parse_select(toks: _Tokens):
    toks.next()  # SELECT
    _check_word(toks)
    kind, text, pos = toks.next()
    if not (kind == "punct" and text == "*"):
        if kind == "word" and text.lower() in _UNSUPPORTED_WORDS:
            raise UnsupportedFeature(f"{text.upper()} is out of grammar")
        raise UnsupportedFeature("only SELECT * is supported")
    toks.expect_word("from")
    _expect_table(toks)
    toks.expect_word("where")
    kind, text, pos = toks.next()
    if kind != "word":
        raise SqlSyntaxError(f"expected column name, got {text!r}", pos)
    col = text.lower()
    if col == "entry_id":
        toks.expect_punct("=")
        entry_id = toks.expect_int()
        toks.finish()
        return SelectSimple(entry_id=entry_id)
    if col == "timestamp":
        kind, text, pos = toks.next()
        if kind == "punct" and text == "=":
            ts = toks.expect_int()
            toks.finish()
            return SelectSimple(timestamp=ts)
        if kind == "word" and text.lower() == "between":
            start = toks.expect_int()
            toks.expect_word("and")
            end = toks.expect_int()
            toks.finish()
            return SelectTimeRange(start, end)
        raise SqlSyntaxError(f"expected '=' or BETWEEN, got {text!r}", pos)
    if col in _FUZZY_FIELDS:
        toks.expect_word("like")
        pattern, ppos = toks.expect_string()
        if not pattern.endswith("%") or "%" in pattern[:-1] \
                or "_" in pattern:
            raise UnsupportedFeature(
                "only LIKE 'prefix%' patterns are supported")
        toks.finish()
        return SelectFuzzy(_FUZZY_FIELDS[col], pattern[:-1])
    raise UnsupportedFeature(f"cannot filter on column {col!r}")
