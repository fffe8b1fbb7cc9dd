"""Parser tests: the six statement shapes, error positions, and totality
under fuzzing (every input yields an AST or a typed error)."""
import random
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainquery.cache import QueryCache
from chainquery.sqlgrammar import (DeleteQuery, InsertQuery, QueryAst,
                                    SelectFuzzy, SelectSimple,
                                    SelectTimeRange, SqlSyntaxError,
                                    UnsupportedFeature, UpdateQuery, parse)

ADDR = "0x" + "ab" * 20


def test_parse_insert_minimal():
    ast = parse(f"INSERT INTO entries (amount, addresses, timestamp) "
                f"VALUES (5, '{ADDR}', 1700000000)")
    assert ast == InsertQuery(amount=5, addresses=(ADDR,),
                              timestamp=1700000000)


def test_parse_insert_with_payloads_and_nulls():
    ast = parse(f"insert into entries (amount, addresses, timestamp, image, "
                f"video) values (1, '{ADDR}', 2, 'deadbeef', NULL)")
    assert ast.image_payload == bytes.fromhex("deadbeef")
    assert ast.video_payload is None


def test_parse_insert_multiple_addresses():
    other = "0x" + "12" * 20
    ast = parse(f"INSERT INTO entries (amount, addresses, timestamp) "
                f"VALUES (9, '{ADDR},{other}', 3)")
    assert ast.addresses == (ADDR, other)


def test_parse_delete():
    assert parse("DELETE FROM entries WHERE entry_id = 7") == DeleteQuery(7)


def test_parse_update():
    ast = parse(f"UPDATE entries SET amount = 42, addresses = '{ADDR}' "
                f"WHERE entry_id = 3")
    assert ast == UpdateQuery(3, (("amount", 42), ("addresses", (ADDR,))))


def test_parse_select_by_id():
    assert parse("SELECT * FROM entries WHERE entry_id = 12") == \
        SelectSimple(entry_id=12)


def test_parse_select_by_timestamp():
    assert parse("SELECT * FROM entries WHERE timestamp = 1700000000") == \
        SelectSimple(timestamp=1700000000)


def test_parse_select_between():
    assert parse("SELECT * FROM entries WHERE timestamp BETWEEN 10 AND "
                 "20") == SelectTimeRange(10, 20)


def test_parse_select_like_timestamp():
    ast = parse("SELECT * FROM entries WHERE ts_str LIKE '2023-11%'")
    assert ast == SelectFuzzy("timestamp_string", "2023-11")


def test_parse_select_like_address():
    ast = parse("SELECT * FROM entries WHERE address LIKE '0xab%'")
    assert ast == SelectFuzzy("address", "0xab")


def test_trailing_semicolon_ok():
    parse("DELETE FROM entries WHERE entry_id = 1;")


def test_syntax_error_has_position():
    with pytest.raises(SqlSyntaxError) as exc:
        parse("SELECT * FROM entries WHERE entry_id != 1")
    assert exc.value.position == 37


def test_unknown_table_unsupported():
    with pytest.raises(UnsupportedFeature):
        parse("SELECT * FROM users WHERE entry_id = 1")


@pytest.mark.parametrize("sql", [
    "SELECT COUNT(*) FROM entries WHERE entry_id = 1",
    "SELECT amount FROM entries WHERE entry_id = 1",
    "SELECT * FROM entries WHERE amount = 5",
    "SELECT * FROM entries WHERE ts_str LIKE '%2023'",
    "SELECT * FROM entries WHERE ts_str LIKE '20_3%'",
    "UPDATE entries SET entry_id = 2 WHERE entry_id = 1",
    "INSERT INTO entries (amount, addresses, timestamp, color) "
    f"VALUES (1, '{ADDR}', 2, 'red')",
])
def test_recognized_but_unsupported(sql):
    with pytest.raises(UnsupportedFeature):
        parse(sql)


@pytest.mark.parametrize("sql", [
    "",
    "   ",
    "DELETE FROM entries",
    "DELETE FROM entries WHERE entry_id = ",
    "INSERT INTO entries (amount) VALUES (1)",
    f"INSERT INTO entries (amount, addresses, timestamp) "
    f"VALUES (1, 'nothex', 2)",
    "SELECT * FROM entries WHERE timestamp BETWEEN 1 OR 2",
    "SELECT * FROM entries WHERE entry_id = 1 extra",
    "@#$%^",
])
def test_syntax_errors(sql):
    with pytest.raises(SqlSyntaxError):
        parse(sql)


def test_fingerprints_distinguish_asts():
    # the query cache keys on the AST itself: distinct statements keep
    # distinct results
    asts = [parse(s) for s in [
        "SELECT * FROM entries WHERE entry_id = 1",
        "SELECT * FROM entries WHERE entry_id = 2",
        "SELECT * FROM entries WHERE timestamp = 1",
        "SELECT * FROM entries WHERE timestamp BETWEEN 1 AND 1",
        "SELECT * FROM entries WHERE ts_str LIKE '1%'",
        "SELECT * FROM entries WHERE address LIKE '1%'",
    ]]
    cache = QueryCache()
    for i, ast in enumerate(asts):
        cache.put(ast, (i,))
    assert [cache.get(ast) for ast in asts] == [(i,) for i in range(6)]


def test_fuzz_totality_10k():
    # [TRIVIAL] the parser must never raise anything but its own two
    # error types, no matter the input.
    rng = random.Random(0xF00D)
    pieces = ["SELECT", "INSERT", "DELETE", "UPDATE", "FROM", "WHERE",
              "entries", "entry_id", "timestamp", "ts_str", "address",
              "BETWEEN", "AND", "LIKE", "VALUES", "INTO", "SET", "*",
              "(", ")", ",", "=", ";", "'", "%", "1", "99",
              ADDR, "'2023%'", "'0xab%'"]
    alphabet = string.printable
    for _ in range(10_000):
        if rng.random() < 0.5:
            sql = " ".join(rng.choices(pieces, k=rng.randint(0, 12)))
        else:
            sql = "".join(rng.choices(alphabet, k=rng.randint(0, 60)))
        try:
            ast = parse(sql)
        except (SqlSyntaxError, UnsupportedFeature):
            continue
        assert isinstance(ast, QueryAst)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80))
def test_fuzz_totality_hypothesis(sql):
    try:
        parse(sql)
    except (SqlSyntaxError, UnsupportedFeature):
        pass


# --- payload literals ----------------------------------------------------

_PAYLOAD_PREFIX = (f"INSERT INTO entries (amount, addresses, timestamp, "
                   f"image) VALUES (1, '{ADDR}', 2, ")


def _parse_image(literal: str):
    return parse(_PAYLOAD_PREFIX + "'" + literal + "')").image_payload


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=40).map(bytes.hex),
    st.text(alphabet="0123456789abcdefABCDEFx \n\t\u00e9\uff11",
            max_size=40)))
def test_payload_literal_accepted_iff_lowercase_even_hex(literal):
    canonical = re.fullmatch(r"(?:[0-9a-f]{2})*", literal) is not None
    try:
        payload = _parse_image(literal)
    except SqlSyntaxError as exc:
        assert not canonical
        assert exc.position == len(_PAYLOAD_PREFIX)
    else:
        assert canonical
        assert payload == bytes.fromhex(literal)


@pytest.mark.parametrize("literal", [
    "ABCD",         # upper case
    "abC0",
    "abc",          # odd length
    "ab cd",        # embedded space
    "abcd\n",       # trailing newline
    "0xabcd",       # 0x prefix
    "ab\u00e9d",    # non-ASCII
    "\uff11\uff12",  # non-ASCII digits
])
def test_payload_literal_rejections(literal):
    with pytest.raises(SqlSyntaxError) as exc:
        _parse_image(literal)
    assert exc.value.position == len(_PAYLOAD_PREFIX)


def test_payload_literal_empty_and_canonical():
    assert _parse_image("") == b""
    assert _parse_image("00ff10") == b"\x00\xff\x10"
