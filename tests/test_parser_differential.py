"""The parser against the reference copy in `sqlgrammar_oracle`: on every
input both must return the same AST, or raise the same error class, a
`SqlSyntaxError` at the same position."""
import random
import re
import string

from hypothesis import given, settings
from hypothesis import strategies as st

import sqlgrammar_oracle as oracle
from chainquery import sqlgrammar

ADDR = "0x" + "ab" * 20
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
