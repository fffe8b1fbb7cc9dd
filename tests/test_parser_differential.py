"""The parser against the reference copy in `sqlgrammar_oracle`: on every
input both must return the same AST, or raise the same error class, a
`SqlSyntaxError` at the same position."""
import random
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqlgrammar_oracle as oracle
from chainquery import sqlgrammar

ADDR = "0x" + "ab" * 20
ADDR2 = "0x" + "3f" * 20
ADDR3 = "0x" + "0123456789abcdef" * 2 + "01234567"
PIECES = ["SELECT", "INSERT", "DELETE", "UPDATE", "FROM", "WHERE",
          "entries", "entry_id", "timestamp", "ts_str", "address",
          "BETWEEN", "AND", "LIKE", "VALUES", "INTO", "SET", "*",
          "(", ")", ",", "=", ";", "'", "%", "1", "99",
          ADDR, "'2023%'", "'0xab%'",
          # words the parsers treat specially
          "NULL", "COUNT", "image", "video", "amount", "addresses",
          "'00ff'", "'ABCD'", f"'{ADDR}, {ADDR}'", "''"]
STATEMENTS = [
    f"INSERT INTO entries (amount, addresses, timestamp) "
    f"VALUES (5, '{ADDR}', 1700000000)",
    f"INSERT INTO entries (timestamp, video, addresses, amount, image) "
    f"VALUES (7, NULL, '{ADDR},{ADDR}', 3, '00ff');",
    "DELETE FROM entries WHERE entry_id = 4",
    f"UPDATE entries SET amount = 9, addresses = '{ADDR}' "
    "WHERE entry_id = 2;",
    "SELECT * FROM entries WHERE entry_id = 12",
    "SELECT * FROM entries WHERE timestamp = 1700000000",
    "select * from ENTRIES where timestamp between 3 and 8 ;",
    "SELECT * FROM entries WHERE ts_str LIKE '2023-11%'",
    "SELECT * FROM entries WHERE address LIKE '0xab%'",
    # the INSERT spellings perfbench sends, then both payloads and a NULL
    f"INSERT INTO entries (amount, addresses, timestamp, image) "
    f"VALUES (481516, '{ADDR},{ADDR2}', 1700000000, '00ff')",
    f"INSERT INTO entries (amount, addresses, timestamp, video) "
    f"VALUES (2342, '{ADDR},{ADDR2},{ADDR3}', 1700000100, 'c0ffee')",
    f"INSERT INTO entries (amount, addresses, timestamp, image, video) "
    f"VALUES (1, '{ADDR2}', 1700000200, '00ff', 'beef');",
    f"INSERT INTO entries (amount, addresses, timestamp, image, video) "
    f"VALUES (1, '{ADDR2}', 1700000200, NULL, 'beef')",
]
# 64 KiB payload literals: valid, unterminated, upper case last, a space in
# the middle. Compared once each, outside the mutated corpus.
_LONG_HEX = bytes(range(256)).hex() * 256
_LONG_PREFIX = ("INSERT INTO entries (amount, addresses, timestamp, image) "
                f"VALUES (1, '{ADDR}', 2, ")
LONG_STATEMENTS = [
    _LONG_PREFIX + f"'{_LONG_HEX}')",
    _LONG_PREFIX + "'" + "ab" * 50_000 + ")",
    _LONG_PREFIX + f"'{_LONG_HEX[:-1]}F')",
    _LONG_PREFIX + f"'{_LONG_HEX[:65_536]} {_LONG_HEX[65_536:]}')",
]


def outcome(parse, sql):
    """repr of the AST, or the error's class name and position."""
    try:
        return repr(parse(sql))
    except Exception as exc:  # the class is what is compared
        return type(exc).__name__, getattr(exc, "position", None)


def same_outcome(sql):
    want = outcome(oracle.parse, sql)
    assert outcome(sqlgrammar.parse, sql) == want, sql
    return want


def _mutate(rng, sql):
    """sql with one token or one character dropped, repeated, replaced or
    inserted."""
    if rng.random() < 0.5:
        words = sql.split(" ")
        i = rng.randrange(len(words))
        op = rng.randrange(4)
        if op == 0:
            del words[i]
        elif op == 1:
            words.insert(i, words[i])
        elif op == 2:
            words[i] = rng.choice(PIECES)
        else:
            words.insert(i, rng.choice(PIECES))
        return rng.choice([" ", "", "\n\t "]).join(words) \
            if rng.random() < 0.1 else " ".join(words)
    i = rng.randrange(len(sql) + 1)
    noise = rng.choice(string.printable)
    return rng.choice([sql[:i] + sql[i + 1:], sql[:i] + noise + sql[i:],
                       sql[:i] + noise + sql[i + 1:], sql[:i]])


def _respell(rng, sql):
    """sql with other integers, keyword case and whitespace."""
    sql = re.sub(r"\b\d+\b", lambda m: str(rng.randrange(10 ** 12)), sql)
    words = [w if w.startswith("'") else rng.choice([w.lower(), w.upper()])
             for w in sql.split(" ")]
    return "".join(w + rng.choice([" ", "  ", "\n", "\t "]) for w in words)


def test_seeded_corpus_matches_reference():
    rng = random.Random(0x5EED)
    kinds = set()
    for sql in STATEMENTS:
        assert not isinstance(same_outcome(sql), tuple)
    for n in range(24_000):
        case = n % 4
        if case == 0:
            sql = " ".join(rng.choices(PIECES, k=rng.randint(0, 12)))
        elif case == 1:
            sql = "".join(rng.choices(string.printable,
                                      k=rng.randint(0, 60)))
        elif case == 2:
            sql = rng.choice(STATEMENTS)
            for _ in range(rng.randint(1, 3)):
                sql = _mutate(rng, sql)
        else:
            sql = _respell(rng, rng.choice(STATEMENTS))
            if rng.random() < 0.5:
                sql = _mutate(rng, sql)
        result = same_outcome(sql)
        kinds.add(result[0] if isinstance(result, tuple)
                  else result.split("(")[0])
    # the corpus reaches every AST type and both error classes
    assert kinds >= {"InsertQuery", "DeleteQuery", "UpdateQuery",
                     "SelectSimple", "SelectTimeRange", "SelectFuzzy",
                     "SqlSyntaxError", "UnsupportedFeature"}


def test_long_literals_match_reference():
    outcomes = [same_outcome(sql) for sql in LONG_STATEMENTS]
    assert not isinstance(outcomes[0], tuple)
    assert outcomes[1:] == [("SqlSyntaxError", len(_LONG_PREFIX))] * 3


def test_non_text_input_matches_reference():
    for value in (None, b"SELECT", 7):
        same_outcome(value)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.text(max_size=80),
    st.lists(st.sampled_from(PIECES + [" ", "\n", "é"]), max_size=16)
    .map("".join),
    st.lists(st.sampled_from(PIECES), max_size=16).map(" ".join)))
def test_hypothesis_text_matches_reference(sql):
    same_outcome(sql)


# The five reads as perfbench's generators spell them.
CANONICAL_READS = [
    "SELECT * FROM entries WHERE entry_id = 4095",
    "SELECT * FROM entries WHERE timestamp = 1700003600",
    "SELECT * FROM entries WHERE timestamp BETWEEN 1699999990 AND 1700000410",
    "SELECT * FROM entries WHERE ts_str LIKE '2023-11-14-22:1%'",
    "SELECT * FROM entries WHERE address LIKE '0x3fa9c%'",
]


def _respellings(statements):
    """Each statement with each gap, keyword case and tail, and with each
    keyword letter swapped for a character that folds to it outside ASCII.
    Quoted literals are respelled too, and also kept as they are."""
    for sql in statements:
        words = sql.split(" ")
        for gap in (" ", "\t", "\n", "\r\n", "\x0b\x0c", " ", " ",
                    "  ", "\x1c"):
            for case in (str.lower, str.upper, str.title, str.swapcase):
                cased = [case(w) for w in words]
                kept = [w if w.startswith("'") else case(w) for w in words]
                for spelled in [cased, kept] if kept != cased else [cased]:
                    for tail in ("", ";", "; \t\n", " ;  ", "\n; ", ";;"):
                        yield gap + gap.join(spelled) + tail
        for old, new in (("s", "ſ"), ("k", "K"), ("i", "ı"), ("i", "İ"),
                         ("S", "ſ"), ("K", "K"), ("I", "ı"), ("I", "İ")):
            for i, c in enumerate(sql):
                if c == old and sql.count("'", 0, i) % 2 == 0:
                    yield sql[:i] + new + sql[i + 1:]


def _read_pattern_inputs():
    """Spellings on both sides of each edge of `sqlgrammar._READ_RE`."""
    yield from _respellings(CANONICAL_READS)
    for field in ("ts_str", "address"):
        for literal in ("'%'", "''", "'%%'", "'a%b%'", "'a_b%'", "'_%'",
                        "'20\n23%'", "'0x\r%'", "'été%'", "'日本%'",
                        "'ſelect%'", "'0xab'", "'0xab%", "'0xab%''",
                        "'0x'ab'%'", '"0xab%"'):
            yield f"SELECT * FROM entries WHERE {field} LIKE {literal}"
    yield from (
        "SELECT*FROM entries WHERE entry_id=5;",
        "select*from entries where timestamp=7",
        "SELECT * FROM entries WHERE timestamp BETWEEN 5AND 6",
        "SELECT * FROM entries WHERE timestamp BETWEEN 5 AND6",
        "SELECT * FROM entries WHERE timestamp BETWEEN5 AND 6",
        "SELECT * FROM entries WHERE timestampBETWEEN 5 AND 6",
        "SELECT * FROM entries WHERE timestamp=5AND",
        "SELECT * FROM entries WHERE ts_str LIKE'2023%'",
        "SELECT*FROM entries WHERE address LIKE'0x%';",
        "SELECT*FROMentries WHERE entry_id = 5",
        "SELECT * FROM entriesWHERE entry_id = 5",
        "SELECT * FROM entries WHEREentry_id = 5",
        "SELECT * FROM entries WHERE entry_id = 5x",
        "SELECT * FROM entries WHERE entry_id = 5 5",
        "SELECT * FROM entries WHERE entry_ids = 5",
        "SELECT * FROM entries WHERE ts_strLIKE '1%'",
        "SELECT * FROM entries WHERE address LIKE '0x%'x",
        "SELECT * FROM entries WHERE timestamp BETWEEN 5 AND 6 AND 7",
        "SELECT COUNT(*) FROM entries WHERE entry_id = 5",
        "SELECT * FROM other WHERE entry_id = 5",
    )


def test_read_pattern_matches_reference():
    kinds = set()
    for sql in _read_pattern_inputs():
        result = same_outcome(sql)
        kinds.add(result[0] if isinstance(result, tuple)
                  else result.split("(")[0])
    assert kinds == {"SelectSimple", "SelectTimeRange", "SelectFuzzy",
                     "SqlSyntaxError", "UnsupportedFeature"}


INTEGER_LITERALS = ["7" * 18, "7" * 19, "7" * 4300, "7" * 4301, "0" * 18,
                    "0" + "9" * 17, "00012", "0"]


def _integers_replaced_match_reference(statements, literal):
    """Each integer of each statement replaced.  Past the interpreter's
    integer-string limit the reference raises a bare ValueError, as it
    predates the parser's own "integer literal too long" error."""
    for sql in statements:
        for m in re.finditer(r"\b[0-9]+\b", sql):
            text = sql[:m.start()] + literal + sql[m.end():]
            want = outcome(oracle.parse, text)
            if want == ("ValueError", None):
                want = ("SqlSyntaxError", m.start())
            assert outcome(sqlgrammar.parse, text) == want, text


@pytest.mark.parametrize("literal", INTEGER_LITERALS)
def test_read_integer_literals_match_reference(literal):
    _integers_replaced_match_reference(CANONICAL_READS, literal)


def _padded(statements):
    """1 MiB of whitespace at each gap of each statement, alone and
    followed by a stray character: past the patterns' length limit, and
    the case where a backtracking tail would take quadratic time."""
    pad = " " * (1 << 20)
    for sql in statements:
        gaps = [0, *(i for i, c in enumerate(sql) if c == " "), len(sql)]
        for i in gaps:
            for stray in ("", "x"):
                yield sql[:i] + pad + stray + sql[i:]


def test_padded_reads_match_reference():
    for sql in _padded(CANONICAL_READS):
        same_outcome(sql)


def _tokenizer_skipped(monkeypatch, statements):
    """Each statement parses to the reference's AST with `_Tokens`
    replaced by a function that fails."""
    want = [repr(oracle.parse(sql)) for sql in statements]

    def no_tokens(sql):
        raise AssertionError(f"tokenized {sql[:80]!r}")
    monkeypatch.setattr(sqlgrammar, "_Tokens", no_tokens)
    assert [repr(sqlgrammar.parse(sql)) for sql in statements] == want


def test_canonical_reads_skip_the_tokenizer(monkeypatch):
    """The statement pattern alone parses the five reads perfbench sends."""
    _tokenizer_skipped(monkeypatch, CANONICAL_READS)


# INSERTs as perfbench's generator spells them: one to three addresses
# joined by ",", then an image or a video literal or neither.  The payloads
# are short here; test_canonical_inserts_skip_the_tokenizer also sends
# perfbench's 2 KiB image and 64 KiB video.
SHORT_IMAGE, SHORT_VIDEO = "00ff10", "c0ffee"
CANONICAL_INSERTS = [
    "INSERT INTO entries (amount, addresses, timestamp) "
    f"VALUES (999999, '{ADDR}', 1600000100)",
    "INSERT INTO entries (amount, addresses, timestamp) "
    f"VALUES (1, '{ADDR},{ADDR2},{ADDR3}', 1600204800)",
    "INSERT INTO entries (amount, addresses, timestamp, image) "
    f"VALUES (4242, '{ADDR},{ADDR2}', 1600000200, '{SHORT_IMAGE}')",
    "INSERT INTO entries (amount, addresses, timestamp, video) "
    f"VALUES (77, '{ADDR3}', 1600000300, '{SHORT_VIDEO}')",
]


def _insert_pattern_inputs():
    """Spellings on both sides of each edge of `sqlgrammar._INSERT_RE` and
    of the payload and tail checks after it."""
    yield from _respellings(CANONICAL_INSERTS)
    head = "INSERT INTO entries (amount, addresses, timestamp"
    image = head + f", image) VALUES (1, '{ADDR}', 2, "
    both = head + f", image, video) VALUES (1, '{ADDR}', 2, "
    for payload in ("''", "'abc'", "'ABCD'", "'00Ff'", "'00 ff'", "' 00ff'",
                    "'00ff\n'", "'0x00'", "'é0'", "'00ff", "'00ff)", "NULL",
                    "null", "12", "'00ff' 'ab'", "'ab'cd'", '"00ff"'):
        yield image + payload + ")"
        yield both + payload + ", 'ab')"
        yield both + "'ab', " + payload + ")"
    for junk in ("x", ";;", "; x", ",", ")", "; ;", "é", "@", "\x1c;",
                 ";\xa0", "'", "'ab'"):
        for sql in (image + "'ab')", both + "'ab', 'cd')",
                    head + f") VALUES (1, '{ADDR}', 2)"):
            yield sql + junk
            yield sql + " " + junk
    for between in ("'ab''cd'", "'ab' x 'cd'", "'ab',,'cd'", "'ab';'cd'",
                    "'ab'\n,\t'cd'", "'ab'\xa0,'cd'", "'ab',\x1c'cd'"):
        yield both + between + ")"
    # a literal that fails its check, then a character the tokenizer
    # rejects: the tokenizer's error comes first
    yield from (image + "'ABCD') @", image + "'00ff' @)",
                head + ") VALUES (1, '0xAB', 2) @",
                head + ") VALUES (1, '', 2);;é")
    four = ",".join((ADDR, ADDR2, ADDR3, ADDR))
    for addresses in (four, f"{ADDR}, {ADDR2}", f" {ADDR} ,", ",", "", " ",
                      ADDR.upper(), ADDR[:-1], ADDR + "0", f"{ADDR};{ADDR2}"):
        yield head + f") VALUES (1, '{addresses}', 2)"
    for columns, values in (
            ("addresses, amount, timestamp", f"'{ADDR}', 1, 2"),
            ("amount, addresses, timestamp, video, image",
             f"1, '{ADDR}', 2, 'ab', 'cd'"),
            ("amount, addresses, timestamp, image, image",
             f"1, '{ADDR}', 2, 'ab', 'cd'"),
            ("amount, amount, addresses, timestamp", f"1, 1, '{ADDR}', 2"),
            ("amount, addresses", f"1, '{ADDR}'"),
            ("amount, addresses, timestamp, foo", f"1, '{ADDR}', 2, 3"),
            ("amount, addresses, timestamp, image", f"1, '{ADDR}', 2"),
            ("amount, addresses, timestamp", f"1, '{ADDR}', 2, 'ab'"),
            ("amount, addresses, timestamp", f"1, '{ADDR}'"),
            ("amount, addresses, timestamp", f"NULL, '{ADDR}', 2"),
            ("amount, addresses, timestamp", "1, NULL, 2"),
            ("amount, addresses, timestamp", f"1, '{ADDR}', NULL"),
            ("amount, addresses, timestamp", f"'1', '{ADDR}', 2"),
            ("amount, addresses, timestamp", f"1, '{ADDR}', '2'"),
            ("amount, addresses, timestamp", f"1, {ADDR}, 2"),
            ("amount, addresses, timestamp", f"1, '{ADDR}', 2x"),
            ("amount, addresses, timestamp", f"1x, '{ADDR}', 2"),
            ("amount, addresses, timestamp", f"-1, '{ADDR}', 2"),
            ("amount, addresses, timestamp", f"1 '{ADDR}', 2"),
            ("amount, addresses, timestamp", f"1, '{ADDR}' 2"),
            ("amount, addresses, timestamp", f"1, '{ADDR}, 2"),
            ("amount addresses, timestamp", f"1, '{ADDR}', 2"),
            ("amount, addresses, timestamp, image", f"1, '{ADDR}', 2 'ab'")):
        yield f"INSERT INTO entries ({columns}) VALUES ({values})"
    values = f"(1, '{ADDR}', 2)"
    yield from (
        f"INSERT INTO entries(amount,addresses,timestamp)VALUES{values};",
        f"insert into entries(amount,addresses,timestamp,image)values(1,"
        f"'{ADDR}',2,'ab')",
        f"INSERTINTO entries (amount, addresses, timestamp) VALUES {values}",
        f"INSERT INTOentries (amount, addresses, timestamp) VALUES {values}",
        f"INSERT INTO entries (amount, addresses, timestamp) VALUES{values}",
        f"INSERT INTO entries (amount, addresses, timestamp) {values}",
        f"INSERT INTO other (amount, addresses, timestamp) VALUES {values}",
        f"INSERT entries (amount, addresses, timestamp) VALUES {values}",
        f"INSERT INTO entries amount, addresses, timestamp VALUES {values}",
        f"INSERT INTO entries (amount, addresses, timestamp) VALUES "
        f"{values[:-1]}",
    )


def test_insert_pattern_matches_reference():
    kinds = set()
    for sql in _insert_pattern_inputs():
        result = same_outcome(sql)
        kinds.add(result[0] if isinstance(result, tuple)
                  else result.split("(")[0])
    assert kinds == {"InsertQuery", "SqlSyntaxError", "UnsupportedFeature"}


@pytest.mark.parametrize("literal", INTEGER_LITERALS)
def test_insert_integer_literals_match_reference(literal):
    _integers_replaced_match_reference(CANONICAL_INSERTS, literal)


def test_padded_inserts_match_reference():
    for sql in _padded(CANONICAL_INSERTS):
        same_outcome(sql)


def test_canonical_inserts_skip_the_tokenizer(monkeypatch):
    """The INSERT pattern and `str.find` alone parse the INSERTs perfbench
    sends, with its 2 KiB image and 64 KiB video literals too."""
    full = [sql.replace(SHORT_IMAGE, _LONG_HEX[:4096])
            .replace(SHORT_VIDEO, _LONG_HEX) for sql in CANONICAL_INSERTS]
    _tokenizer_skipped(monkeypatch, CANONICAL_INSERTS + full[2:])


# UPDATEs and DELETEs as perfbench's mixed generator spells them, then an
# UPDATE of each other column set.
CANONICAL_WRITES = [
    "UPDATE entries SET amount = 481516 WHERE entry_id = 1234",
    "UPDATE entries SET amount = 77, timestamp = 1600000300 "
    "WHERE entry_id = 0",
    "DELETE FROM entries WHERE entry_id = 2047",
    f"UPDATE entries SET addresses = '{ADDR},{ADDR2}' WHERE entry_id = 9",
    f"UPDATE entries SET timestamp = 5, addresses = '{ADDR3}', amount = 6 "
    "WHERE entry_id = 31",
]


def _write_pattern_inputs():
    """Spellings on both sides of each edge of `sqlgrammar._WRITE_RE` and
    of the assignment checks after it."""
    yield from _respellings(CANONICAL_WRITES)
    update, where = "UPDATE entries SET ", " WHERE entry_id = 3"
    for sets in ("amount = 1, amount = 2", "timestamp = 1, amount = 2, "
                 "timestamp = 3", f"addresses = '{ADDR}', addresses = "
                 f"'{ADDR2}'", "amount = '1'", "timestamp = 'ab'",
                 "addresses = 5", f"amount = {ADDR}", "amount = NULL",
                 f"amount = 1, timestamp = 2, addresses = '{ADDR}', "
                 "amount = 3", "image = 'ab'", "video = 'ab'",
                 "entry_id = 4", "foo = 1", "amount = -1", "amount = 1.5",
                 "amount = 1 timestamp = 2", "amount = 1,", ", amount = 1",
                 "amount 1", "amount == 1", "= 1", "", "amount = 1x",
                 f"addresses = '{ADDR}' 'x'", f"addresses = '{ADDR}",
                 f"addresses = '{ADDR}'x", "addresses = ''",
                 "addresses = ','", f"addresses = '{ADDR.upper()}'",
                 f"addresses = '{ADDR[:-1]}'", f"addresses = ' {ADDR} ,'",
                 f"addresses = '{ADDR};{ADDR2}'", "addresses = '00ff'"):
        yield update + sets + where
        yield update + sets + where + " @"
    yield from (
        "UPDATE entries SET amount=5WHERE entry_id=1",
        "UPDATE entries SET amount = 5 WHERE entry_id = 1;",
        f"update entries set addresses='{ADDR}'where entry_id=2",
        "DELETE FROM entries WHERE entry_id=5;",
        "delete from entries where entry_id=5",
        "DELETEFROM entries WHERE entry_id = 5",
        "DELETE FROMentries WHERE entry_id = 5",
        "DELETE FROM entriesWHERE entry_id = 5",
        "DELETE FROM entries WHEREentry_id = 5",
        "DELETE FROM entries WHERE entry_id = 5x",
        "DELETE FROM entries WHERE entry_id = 5 5",
        "DELETE FROM entries WHERE entry_ids = 5",
        "DELETE FROM entries WHERE timestamp = 5",
        "DELETE FROM entries WHERE entry_id = '5'",
        "DELETE FROM entries WHERE entry_id =",
        "DELETE FROM entries WHERE entry_id",
        "DELETE FROM entries",
        "DELETE entries WHERE entry_id = 5",
        "DELETE FROM other WHERE entry_id = 5",
        "DELETE * FROM entries WHERE entry_id = 5",
        "DELETE FROM entries WHERE entry_id = 5 AND entry_id = 6",
        "UPDATEentries SET amount = 1 WHERE entry_id = 1",
        "UPDATE entriesSET amount = 1 WHERE entry_id = 1",
        "UPDATE entries SETamount = 1 WHERE entry_id = 1",
        "UPDATE entries SET amount = 1WHEREentry_id = 1",
        "UPDATE entries SET amount = 1 WHERE entry_id = 1 x",
        "UPDATE entries SET amount = 1",
        "UPDATE entries amount = 1 WHERE entry_id = 1",
        "UPDATE other SET amount = 1 WHERE entry_id = 1",
        "UPDATE entries SET amount = 1 WHERE timestamp = 1",
        "UPDATE entries SET amount = 1 WHERE entry_id = 1;;",
    )


def test_write_pattern_matches_reference():
    kinds = set()
    for sql in _write_pattern_inputs():
        result = same_outcome(sql)
        kinds.add(result[0] if isinstance(result, tuple)
                  else result.split("(")[0])
    assert kinds == {"UpdateQuery", "DeleteQuery", "SqlSyntaxError",
                     "UnsupportedFeature"}


@pytest.mark.parametrize("literal", INTEGER_LITERALS)
def test_write_integer_literals_match_reference(literal):
    _integers_replaced_match_reference(CANONICAL_WRITES, literal)


def test_padded_writes_match_reference():
    for sql in _padded(CANONICAL_WRITES):
        same_outcome(sql)


def test_canonical_writes_skip_the_tokenizer(monkeypatch):
    """The write pattern alone parses the UPDATEs and DELETEs perfbench
    sends, and the other column sets."""
    _tokenizer_skipped(monkeypatch, CANONICAL_WRITES)
