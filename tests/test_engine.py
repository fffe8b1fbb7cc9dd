"""Engine tests: verified execution of all six primitives against a
naive in-memory oracle, tombstone/supersession semantics, replay
determinism over mixed workloads, and cache behavior."""
import dataclasses
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from chainquery import engine as engine_module
from chainquery import ledger as ledger_module
from chainquery.bhash import verify_range_bytes
from chainquery.cache import MAX_CACHED, BloomFilter, QueryCache
from chainquery.core import DataEntry, EncodingError
from chainquery.engine import (NS_ADDRESS, NS_TIMESTAMP, TS_FORMAT, Engine,
                               MalformedBlock, UnknownEntry,
                               VerificationFailure, plan_query, replay,
                               timestamp_string)
from chainquery.ledger import OP_DELETE, OP_UPDATE, Ledger
from chainquery.sqlgrammar import (PATTERN_MAX_LEN, InsertQuery,
                                   SqlSyntaxError, UnsupportedFeature, parse)
from chainquery.store import MAX_PAYLOAD, IntegrityFailure, PayloadTooLarge
from chainquery.trie import Trie, verify_prefix_bytes

ADDRS = ["0x" + f"{i:040x}" for i in range(16)]


def insert_sql(amount, addr, ts, image=None):
    cols = "amount, addresses, timestamp"
    vals = f"{amount}, '{addr}', {ts}"
    if image is not None:
        cols += ", image"
        vals += f", '{image.hex()}'"
    return f"INSERT INTO entries ({cols}) VALUES ({vals})"


@pytest.fixture
def engine():
    return Engine()


def seeded_engine(n=40, seed=7, threshold_t=10):
    rng = random.Random(seed)
    eng = Engine(threshold_t=threshold_t)
    rows = []
    for i in range(n):
        ts = 1_700_000_000 + rng.randrange(0, 3600)
        addr = rng.choice(ADDRS)
        eng.execute(insert_sql(i, addr, ts))
        rows.append({"entry_id": i, "amount": i, "addr": addr, "ts": ts})
    return eng, rows


def test_insert_then_select_by_id(engine):
    engine.execute(insert_sql(5, ADDRS[0], 1_700_000_000))
    res = engine.execute("SELECT * FROM entries WHERE entry_id = 0")
    assert res.rows == [{"entry_id": 0, "amount": 5,
                         "addresses": [ADDRS[0]],
                         "timestamp": 1_700_000_000,
                         "imagecid": None, "videocid": None}]


def test_insert_with_payload_roundtrip(engine):
    payload = bytes(range(256))
    engine.execute(insert_sql(1, ADDRS[0], 10, image=payload))
    res = engine.execute("SELECT * FROM entries WHERE entry_id = 0")
    cid = bytes.fromhex(res.rows[0]["imagecid"])
    assert engine.store.get(cid) == payload


def test_time_range_matches_oracle():
    eng, rows = seeded_engine(60)
    lo, hi = 1_700_000_600, 1_700_001_800
    res = eng.execute(f"SELECT * FROM entries WHERE timestamp BETWEEN "
                      f"{lo} AND {hi}")
    # [DERIVED] oracle: linear scan over everything ever inserted
    want = sorted(r["entry_id"] for r in rows if lo <= r["ts"] <= hi)
    assert [r["entry_id"] for r in res.rows] == want
    assert res.verified


def test_select_timestamp_eq_matches_oracle():
    eng, rows = seeded_engine(80)
    ts = rows[3]["ts"]
    res = eng.execute(f"SELECT * FROM entries WHERE timestamp = {ts}")
    want = sorted(r["entry_id"] for r in rows if r["ts"] == ts)
    assert [r["entry_id"] for r in res.rows] == want


def test_fuzzy_address_matches_oracle():
    eng, rows = seeded_engine(60)
    prefix = ADDRS[3][:6]
    res = eng.execute(f"SELECT * FROM entries WHERE address LIKE "
                      f"'{prefix}%'")
    want = sorted(r["entry_id"] for r in rows
                  if r["addr"].startswith(prefix))
    assert [r["entry_id"] for r in res.rows] == want


@pytest.mark.parametrize("pattern", ["ab%", "x%", "0X%", "00x%"])
def test_address_like_without_0x_matches_nothing(engine, pattern,
                                                 monkeypatch):
    # every address is 0x plus 40 hex digits, so no index is asked
    engine.execute(insert_sql(1, "0x" + "ab" * 20, 10))

    def no_lookup(key):
        raise AssertionError(f"trie asked for {key!r}")
    monkeypatch.setattr(engine.trie, "prefix_query", no_lookup)
    res = engine.execute(f"SELECT * FROM entries WHERE address LIKE "
                         f"'{pattern}'", emit_vo=True)
    assert res.rows == [] and res.vo_bytes is None


def test_fuzzy_timestamp_string_matches_oracle():
    eng, rows = seeded_engine(60)
    prefix = timestamp_string(rows[0]["ts"])[:13]
    res = eng.execute(f"SELECT * FROM entries WHERE ts_str LIKE "
                      f"'{prefix}%'")
    want = sorted(r["entry_id"] for r in rows
                  if timestamp_string(r["ts"]).startswith(prefix))
    assert [r["entry_id"] for r in res.rows] == want


def test_delete_hides_entry():
    eng, rows = seeded_engine(20)
    eng.execute("DELETE FROM entries WHERE entry_id = 5")
    res = eng.execute("SELECT * FROM entries WHERE entry_id = 5")
    assert res.rows == []
    ts = rows[5]["ts"]
    res = eng.execute(f"SELECT * FROM entries WHERE timestamp BETWEEN "
                      f"{ts} AND {ts}")
    assert 5 not in [r["entry_id"] for r in res.rows]


def test_delete_only_block_hashes_nothing():
    eng, _ = seeded_engine(8)
    compute = eng.meter.compute_units
    eng.execute("DELETE FROM entries WHERE entry_id = 3")
    assert eng.meter.compute_units == compute


# 9999-12-31T23:59:59Z, the last second with a four-digit year
LAST_DATED_SECOND = 253_402_300_799


@pytest.mark.parametrize("ts, text", [
    (0, "1970-01-01-00:00:00"),
    (68_169_600, "1972-02-29-00:00:00"),      # the first leap day
    (951_868_799, "2000-02-29-23:59:59"),     # a leap day of a 400th year
    (1_709_164_800, "2024-02-29-00:00:00"),
    (2**31, "2038-01-19-03:14:08"),           # past the 32-bit time_t
    (LAST_DATED_SECOND, "9999-12-31-23:59:59"),
])
def test_timestamp_string_pinned(ts, text):
    # every trie key and trie root is built from this text
    assert timestamp_string(ts) == text
    assert time.strftime(TS_FORMAT, time.gmtime(ts)) == text


@settings(max_examples=200, deadline=None)
@given(st.integers(0, LAST_DATED_SECOND))
def test_timestamp_string_matches_strftime(ts):
    assert timestamp_string(ts) == time.strftime(TS_FORMAT, time.gmtime(ts))


def test_timestamp_past_year_9999_has_no_string():
    with pytest.raises(OverflowError):
        timestamp_string(LAST_DATED_SECOND + 1)
    late = DataEntry(0, 1, (ADDRS[0],), LAST_DATED_SECOND + 1)
    with pytest.raises(MalformedBlock):
        Engine()._trie_keys([late])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(
    DataEntry, st.integers(0, 2**64 - 1), st.integers(0, 10**30),
    st.lists(st.text("0123456789abcdef", min_size=40, max_size=40)
             .map("0x".__add__), min_size=1, max_size=3).map(tuple),
    st.integers(0, LAST_DATED_SECOND)), max_size=4))
def test_trie_keys_are_keys_the_trie_accepts(entries):
    # _apply inserts key by key with no pre-check, so no key can fail
    keys = Engine()._trie_keys(entries)
    assert len(keys) == sum(1 + len(e.addresses) for e in entries)
    for key, entry_id in keys:
        Trie._check_key(key)
        assert entry_id >= 0


def test_delete_unknown_raises(engine):
    with pytest.raises(UnknownEntry):
        engine.execute("DELETE FROM entries WHERE entry_id = 99")


def test_double_delete_raises():
    eng, _ = seeded_engine(5)
    eng.execute("DELETE FROM entries WHERE entry_id = 1")
    with pytest.raises(UnknownEntry):
        eng.execute("DELETE FROM entries WHERE entry_id = 1")


@pytest.mark.parametrize("write, error", [
    (lambda eng: eng.execute(insert_sql(1, ADDRS[0], 300_000_000_000)),
     MalformedBlock),  # year 11476 has no date string
    (lambda eng: eng.execute(insert_sql(1, ADDRS[0], 1 << 62)),
     MalformedBlock),
    (lambda eng: eng.insert_batch([InsertQuery(1, (ADDRS[1],), 50),
                                   InsertQuery(1, (ADDRS[0] + "\n",), 60)]),
     EncodingError),
    (lambda eng: eng.execute("DELETE FROM entries WHERE entry_id = 99"),
     UnknownEntry),
    (lambda eng: eng.execute(insert_sql(1, ADDRS[0], 300_000_000_000,
                                        image=b"\xab\xcd")),
     MalformedBlock),
    (lambda eng: eng.insert_batch([
        InsertQuery(1, (ADDRS[1],), 50, image_payload=b"small"),
        InsertQuery(1, (ADDRS[0],), 60,
                    video_payload=b"\x00" * (MAX_PAYLOAD + 1))]),
     PayloadTooLarge),
], ids=["year-11476", "2^62", "address-newline", "delete-unknown",
        "year-11476-image", "payload-too-large"])
def test_rejected_write_changes_nothing(write, error):
    eng, _ = seeded_engine(12)
    before = (eng.ledger.latest_roots(), eng.ledger.height,
              dict(eng.entries), len(eng.store))
    with pytest.raises(error):
        write(eng)
    assert (eng.ledger.latest_roots(), eng.ledger.height,
            dict(eng.entries), len(eng.store)) == before
    eng.execute(insert_sql(99, ADDRS[2], 1_700_000_000))
    res = eng.execute("SELECT * FROM entries WHERE timestamp BETWEEN "
                      "1700000000 AND 1700000000")
    assert res.verified
    assert [r["entry_id"] for r in res.rows if r["amount"] == 99] == [12]


def test_update_supersedes():
    eng, rows = seeded_engine(10)
    eng.execute("UPDATE entries SET amount = 777 WHERE entry_id = 2")
    assert eng.execute("SELECT * FROM entries WHERE entry_id = 2").rows \
        == []
    new_id = max(eng.entries)
    res = eng.execute(f"SELECT * FROM entries WHERE entry_id = {new_id}")
    assert res.rows[0]["amount"] == 777
    assert res.rows[0]["timestamp"] == rows[2]["ts"]


def test_update_carries_payload_cids(engine):
    engine.execute(insert_sql(1, ADDRS[0], 10, image=b"\x01\x02"))
    engine.execute("UPDATE entries SET amount = 2 WHERE entry_id = 0")
    res = engine.execute("SELECT * FROM entries WHERE entry_id = 1")
    assert res.rows[0]["imagecid"] is not None


def test_every_write_advances_epoch():
    eng, _ = seeded_engine(5)
    e0 = eng.cache.epoch
    eng.execute(insert_sql(9, ADDRS[0], 99))
    eng.execute("DELETE FROM entries WHERE entry_id = 0")
    eng.execute("UPDATE entries SET amount = 1 WHERE entry_id = 1")
    assert eng.cache.epoch == e0 + 3


def test_cache_hit_on_repeat_and_miss_after_write():
    eng, _ = seeded_engine(30)
    sql = "SELECT * FROM entries WHERE timestamp BETWEEN 0 AND 2000000000"
    first = eng.execute(sql)
    second = eng.execute(sql)
    assert not first.cached and second.cached
    assert second.rows == first.rows
    eng.execute(insert_sql(1, ADDRS[0], 1_700_000_100))
    third = eng.execute(sql)
    assert not third.cached
    assert len(third.rows) == len(first.rows) + 1


def test_editing_returned_rows_leaves_cached_hits_unchanged():
    eng, _ = seeded_engine(3)
    sql = "SELECT * FROM entries WHERE timestamp BETWEEN 0 AND 2000000000"
    for res in (eng.execute(sql), eng.execute(sql)):
        want = [dict(r, addresses=list(r["addresses"])) for r in res.rows]
        res.rows[0]["amount"] = 999999
        res.rows[1]["addresses"].append("0x" + "ee" * 20)
        res.rows.pop()
        hit = eng.execute(sql)
        assert hit.cached and hit.rows == want


def test_statements_that_parse_alike_share_one_result():
    eng, _ = seeded_engine(10)
    first = eng.execute("SELECT * FROM entries WHERE timestamp "
                        "BETWEEN 0 AND 2000000000")
    second = eng.execute("select  *\tfrom ENTRIES where Timestamp between "
                         "0 and 2000000000 ;")
    assert not first.cached and second.cached
    assert second.rows == first.rows
    assert len(eng.cache._store) == 1


def test_cache_bounded_and_newest_put_hits():
    cache = QueryCache()
    asts = [parse(f"SELECT * FROM entries WHERE entry_id = {i}")
            for i in range(MAX_CACHED + 1)]
    for i, ast in enumerate(asts):
        cache.put(ast, (i,))
        assert len(cache._store) <= MAX_CACHED
    assert cache.get(asts[-1]) == (MAX_CACHED,)
    assert cache.epoch == 0


def test_cache_counters_match_a_dict_model():
    """get, put and invalidate in a seeded order, with puts past
    MAX_CACHED: every value and both counters match a plain dict."""
    rng = random.Random(11)
    asts = [parse(f"SELECT * FROM entries WHERE entry_id = {i}")
            for i in range(4 * MAX_CACHED)]
    cache, model = QueryCache(), {}
    hits = misses = full = 0
    for step in range(10000):
        ast = rng.choice(asts)
        op = rng.random()
        if op < 0.3:
            want = model.get(ast)
            assert cache.get(ast) == want
            hits, misses = hits + (want is not None), misses + (want is None)
        elif op < 0.9995:
            if len(model) >= MAX_CACHED:
                model, full = {}, full + 1
            model[ast] = (step,)
            cache.put(ast, (step,))
        else:
            model = {}
            cache.invalidate()
        assert (cache.hits, cache.misses) == (hits, misses)
        assert len(cache._store) == len(model)
    assert hits and misses and full >= 2 and cache.epoch >= 2


def counted_parses(monkeypatch) -> list:
    """Every text the engine hands to parse from here on, in order."""
    calls = []

    def counted(sql):
        calls.append(sql)
        return parse(sql)
    monkeypatch.setattr(engine_module, "parse", counted)
    return calls


def test_repeated_select_parsed_once_per_engine_across_writes(monkeypatch):
    eng, _ = seeded_engine(10)
    calls = counted_parses(monkeypatch)
    sql = "SELECT * FROM entries WHERE timestamp BETWEEN 0 AND 2000000000"
    first, second = eng.execute(sql), eng.execute(sql)
    eng.execute(insert_sql(1, ADDRS[0], 1_700_000_100))
    third = eng.execute(sql)
    assert calls.count(sql) == 1 and len(calls) == 2
    assert not first.cached and second.cached and not third.cached
    assert len(third.rows) == len(first.rows) + 1


def test_engines_do_not_share_parsed_reads(monkeypatch):
    a, _ = seeded_engine(5)
    b, _ = seeded_engine(5)
    calls = counted_parses(monkeypatch)
    sql = "SELECT * FROM entries WHERE entry_id = 3"
    for eng in (a, b, a, b):
        assert [r["entry_id"] for r in eng.execute(sql).rows] == [3]
    assert calls == [sql, sql]
    assert Engine()._parsed == {}


def test_writes_parsed_on_every_call_and_never_held(monkeypatch):
    eng, _ = seeded_engine(5)
    calls = counted_parses(monkeypatch)
    insert = insert_sql(7, ADDRS[1], 1_700_000_050)
    delete = "DELETE FROM entries WHERE entry_id = 0"
    update = "UPDATE entries SET amount = 3 WHERE entry_id = 1"
    eng.execute(insert)
    eng.execute(insert)
    eng.execute(delete)
    eng.execute(update)
    # a second run of each parses again, then finds its entry gone
    for sql in (delete, update):
        with pytest.raises(UnknownEntry):
            eng.execute(sql)
    assert calls == [insert, insert, delete, update, delete, update]
    assert eng._parsed == {}


def test_parsed_reads_bounded_by_max_cached(monkeypatch):
    eng, _ = seeded_engine(3)
    calls = counted_parses(monkeypatch)
    texts = [f"SELECT * FROM entries WHERE entry_id = {i}"
             for i in range(MAX_CACHED + 5)]
    for sql in texts:
        eng.execute(sql)
        assert len(eng._parsed) <= MAX_CACHED
    assert calls == texts
    # the memo emptied when full, so it holds the newest texts
    eng.execute(texts[-1])
    assert len(calls) == len(texts) and texts[-1] in eng._parsed
    eng.execute(texts[0])
    assert calls[-1] == texts[0]


def test_long_read_texts_parsed_every_time_and_never_held(monkeypatch):
    """The memo holds no text past PATTERN_MAX_LEN characters, so it holds
    at most MAX_CACHED x PATTERN_MAX_LEN of them."""
    eng, _ = seeded_engine(3)
    calls = counted_parses(monkeypatch)
    sql = "SELECT * FROM entries WHERE entry_id = 1"
    longest = sql.ljust(PATTERN_MAX_LEN)
    too_long = longest + " "
    padded = sql + " " * (1 << 20)
    for text in (longest, too_long, padded) * 2:
        assert [r["entry_id"] for r in eng.execute(text).rows] == [1]
    assert calls == [longest, too_long, padded, too_long, padded]
    assert list(eng._parsed) == [longest]


@pytest.mark.parametrize("sizes, held", [
    ([300, 300, 300, 124], [300, 300, 300, 124]),
    ([300, 300, 300, 125], [125]),
    ([1000, MAX_CACHED + 1], [1000]),
    ([0] * MAX_CACHED + [0], [0]),
    ([MAX_CACHED, 1], [1]),
], ids=["fills-exactly", "empties-first", "too-large-not-held",
        "empty-counts-one", "one-full-result"])
def test_cache_bounded_by_rows(sizes, held):
    cache = QueryCache()
    asts = [parse(f"SELECT * FROM entries WHERE entry_id = {i}")
            for i in range(len(sizes))]
    for ast, n in zip(asts, sizes):
        cache.put(ast, tuple(range(n)))
        assert sum(max(len(v), 1) for v in cache._store.values()) \
            <= MAX_CACHED
    assert [len(v) for v in cache._store.values()] == held


def test_cache_overwrite_counts_the_new_result_only():
    cache = QueryCache()
    a, b = (parse(f"SELECT * FROM entries WHERE entry_id = {i}")
            for i in range(2))
    for n in (600, 500, 600):
        cache.put(a, tuple(range(n)))
    cache.put(b, tuple(range(MAX_CACHED - 600)))
    assert [len(v) for v in cache._store.values()] == [600, 424]


def test_result_past_max_cached_rows_never_cached():
    eng = Engine()
    eng.insert_batch([InsertQuery(i, (ADDRS[0],), 1_700_000_000 + i)
                      for i in range(MAX_CACHED + 1)])
    sql = "SELECT * FROM entries WHERE timestamp BETWEEN 0 AND 2000000000"
    first, second = eng.execute(sql), eng.execute(sql)
    assert len(first.rows) == MAX_CACHED + 1 and not second.cached
    assert second.rows == first.rows and eng.cache._store == {}
    small = "SELECT * FROM entries WHERE timestamp BETWEEN 0 AND 1700000009"
    eng.execute(small)
    assert eng.execute(small).cached


@pytest.mark.parametrize("sql, error", [
    ("SELECT * FROM entries WHERE", SqlSyntaxError),
    ("SELECT * FROM entries WHERE entry_id = 1 AND", SqlSyntaxError),
    ("SELECT amount FROM entries WHERE entry_id = 1", UnsupportedFeature),
])
def test_malformed_statement_raises_alike_every_time(sql, error,
                                                      monkeypatch):
    eng, _ = seeded_engine(3)
    calls = counted_parses(monkeypatch)
    raised = []
    for _ in range(2):
        with pytest.raises(error) as info:
            eng.execute(sql)
        raised.append((type(info.value), str(info.value),
                       getattr(info.value, "position", None)))
    assert raised[0] == raised[1] and calls == [sql, sql]
    assert eng._parsed == {}


@pytest.mark.parametrize("sql", [
    ["SELECT * FROM entries WHERE entry_id = 0"],
    b"SELECT * FROM entries WHERE entry_id = 0",
    None,
    7,
])
def test_non_text_statement_is_syntax_error(sql):
    eng, _ = seeded_engine(3)
    for _ in range(2):
        with pytest.raises(SqlSyntaxError) as info:
            eng.execute(sql)
        assert info.value.position == 0
    assert eng._parsed == {}


def test_execute_matches_execute_ast_of_parse_over_a_seeded_mix():
    """The memo changes no result: two engines fed the same seeded reads
    and writes, one through text and one through parsed ASTs, agree on
    every field of every result."""
    rng = random.Random(25)
    by_text, by_ast = Engine(threshold_t=10), Engine(threshold_t=10)
    pool = ["SELECT * FROM entries WHERE timestamp BETWEEN "
            "1700000000 AND 1700001800",
            "select * from entries where timestamp between 0 and 2000000000",
            "SELECT * FROM entries WHERE ts_str LIKE '2023-11-14-22:1%'",
            *[f"SELECT * FROM entries WHERE address LIKE '{a[:5]}%'"
              for a in ADDRS[:4]],
            *[f"SELECT * FROM entries WHERE entry_id = {i}"
              for i in range(6)]]
    live, next_id = [], 0
    for _ in range(400):
        roll = rng.random()
        if roll < 0.15 or not live:
            ts = 1_700_000_000 + rng.randrange(0, 3600)
            sql = insert_sql(rng.randrange(100), rng.choice(ADDRS), ts)
            live.append(next_id)
            next_id += 1
        elif roll < 0.2:
            victim = live.pop(rng.randrange(len(live)))
            sql = f"DELETE FROM entries WHERE entry_id = {victim}"
        elif roll < 0.25:
            victim = live.pop(rng.randrange(len(live)))
            sql = (f"UPDATE entries SET amount = {rng.randrange(100)} "
                   f"WHERE entry_id = {victim}")
            live.append(next_id)
            next_id += 1
        else:
            sql = rng.choice(pool)
        # QueryResult's dataclass equality compares every field
        assert by_text.execute(sql, emit_vo=True) == \
            by_ast.execute_ast(parse(sql), emit_vo=True)
    assert 0 < len(by_text._parsed) <= len(pool)
    assert by_text.cache.hits == by_ast.cache.hits > 0


@pytest.mark.parametrize("sql", [
    "SELECT * FROM entries WHERE timestamp BETWEEN 0 AND 5",
    "SELECT * FROM entries WHERE timestamp = 5",
    "SELECT * FROM entries WHERE address LIKE '0xab%'",
    "SELECT * FROM entries WHERE ts_str LIKE '2023%'",
], ids=["between", "timestamp-eq", "address-like", "ts-string-like"])
def test_read_before_any_anchor_is_verification_failure(engine, sql):
    with pytest.raises(VerificationFailure, match="no anchored block"):
        engine.execute(sql)


def test_tampered_anchor_detected():
    eng, _ = seeded_engine(30)
    # point the trusted anchor somewhere else: proofs must be rejected
    import chainquery.ledger as ledger_mod
    block = eng.ledger.blocks[-1]
    bad = (b"\x00" * 32, block.anchored_roots[1])
    object.__setattr__(block, "bhash_root", bad[0])
    with pytest.raises(VerificationFailure):
        eng.execute("SELECT * FROM entries WHERE timestamp BETWEEN 0 "
                    "AND 2000000000")


def test_between_over_many_payloads_with_one_flipped_raises():
    eng = Engine()
    images = [bytes([i]) * 8192 for i in range(24)]
    for i, image in enumerate(images):
        eng.execute(insert_sql(i, ADDRS[i % 16], 100 + i, image=image))
    assert len(eng.execute("SELECT * FROM entries WHERE timestamp BETWEEN "
                           "0 AND 1000").rows) == 24
    cid = eng.store.address(images[17])
    eng.store._mem[cid] = b"\x00" + images[17][1:]
    with pytest.raises(IntegrityFailure):
        eng.execute("SELECT * FROM entries WHERE timestamp BETWEEN 0 "
                    "AND 1001")
    # the proof is checked before any payload: a forged anchor wins
    block = eng.ledger.blocks[-1]
    object.__setattr__(block, "bhash_root", b"\x00" * 32)
    with pytest.raises(VerificationFailure):
        eng.execute("SELECT * FROM entries WHERE timestamp BETWEEN 0 "
                    "AND 1002")


def test_tampered_trie_anchor_detected():
    eng, _ = seeded_engine(30)
    block = eng.ledger.blocks[-1]
    object.__setattr__(block, "trie_root", b"\x00" * 32)
    for sql in ("SELECT * FROM entries WHERE address LIKE '0x00%'",
                "SELECT * FROM entries WHERE ts_str LIKE '2023-11%'"):
        with pytest.raises(VerificationFailure,
                           match=f"trie .* height {block.height}"):
            eng.execute(sql)


def mutated_engine(threshold_t, seed=13):
    """seeded_engine after seeded DELETEs and UPDATEs, some of which move an
    entry to a new timestamp and address; also the live ids, kept apart
    from the engine's own bookkeeping."""
    eng, _ = seeded_engine(40, seed=seed, threshold_t=threshold_t)
    live = set(eng.entries)
    rng = random.Random(seed)
    for _ in range(16):
        target = rng.choice(sorted(live))
        live.discard(target)
        if rng.random() < 0.4:
            eng.execute(f"DELETE FROM entries WHERE entry_id = {target}")
            continue
        eng.execute(f"UPDATE entries SET amount = {rng.randrange(99)}, "
                    f"timestamp = {1_700_000_000 + rng.randrange(3600)}, "
                    f"addresses = '{rng.choice(ADDRS)}' "
                    f"WHERE entry_id = {target}")
        live.add(max(eng.entries))
    return eng, live


@pytest.mark.parametrize("threshold_t", [10, None])
def test_emitted_vos_pass_the_client_check(threshold_t):
    """The engine runs no verifier, so check what it emits: each read's VO
    is the index's own, a client accepts its bytes against the anchors, and
    the rows are exactly the live subset of the ids the VO proves."""
    eng, live = mutated_engine(threshold_t)
    bhash_root, trie_root = eng.ledger.latest_roots()
    stamps = sorted({e.timestamp for e in eng.entries.values()})
    reads = []  # (sql, the index's ids and VO, client check of VO bytes)
    for lo, hi in [(s, s) for s in stamps[::7] + [stamps[0] - 1]] + \
            [(stamps[3], stamps[30]), (0, 2 ** 40), (stamps[9], stamps[2])]:
        sql = (f"SELECT * FROM entries WHERE timestamp = {lo}" if lo == hi
               else f"SELECT * FROM entries WHERE timestamp BETWEEN {lo} "
                    f"AND {hi}")
        reads.append((sql, eng.time_index.range_query(lo, hi),
                      lambda b, ids, lo=lo, hi=hi:
                      verify_range_bytes(b, bhash_root, lo, hi, ids)))
    ts_prefixes = [timestamp_string(stamps[5])[:n] for n in (1, 7, 13, 19)]
    addr_prefixes = ["0", "0x", ADDRS[3][:6], ADDRS[3], ADDRS[12], "0x1"]
    for field, prefix, key in \
            [("ts_str", p, NS_TIMESTAMP + p) for p in ts_prefixes + ["19"]] + \
            [("address", p, NS_ADDRESS + p[2:]) for p in addr_prefixes]:
        reads.append((f"SELECT * FROM entries WHERE {field} LIKE '{prefix}%'",
                      eng.trie.prefix_query(key),
                      lambda b, ids, key=key:
                      verify_prefix_bytes(b, trie_root, key, ids)))
    hidden = 0
    for sql, (ids, vo), client_check in reads:
        res = eng.execute(sql, emit_vo=True)
        assert res.verified and not res.cached
        assert res.vo_bytes == vo.to_bytes()
        assert client_check(res.vo_bytes, ids)
        want = sorted(set(ids) & live)
        assert [r["entry_id"] for r in res.rows] == want
        hidden += len(set(ids)) - len(want)
    assert hidden  # some proofs reveal retired ids that the rows drop
    for eid in range(0, len(eng.entries), 3):
        res = eng.execute(f"SELECT * FROM entries WHERE entry_id = {eid}",
                          emit_vo=True)
        assert [r["entry_id"] for r in res.rows] == sorted({eid} & live)


def test_overlapping_betweens_hash_each_stored_payload_once(monkeypatch):
    """Distinct, overlapping BETWEENs all miss the cache and return the
    same rows again and again, yet each stored payload is hashed once."""
    import chainquery.store as store_mod
    eng = Engine()
    images = [bytes([i]) * 8192 for i in range(24)]
    for i, image in enumerate(images):
        eng.execute(insert_sql(i, ADDRS[i % 16], 100 + i, image=image))
    calls = []
    real = store_mod.content_id

    def counted(payload):
        calls.append(real(payload))
        return calls[-1]

    monkeypatch.setattr(store_mod, "content_id", counted)
    returned = 0
    for lo, hi in [(0, 1000), (100, 123), (105, 2000), (0, 115), (99, 124)]:
        result = eng.execute("SELECT * FROM entries WHERE timestamp "
                             f"BETWEEN {lo} AND {hi}")
        assert not result.cached
        returned += len(result.rows)
    assert returned > 2 * len(images)
    assert sorted(calls) == sorted(eng.store.address(i) for i in images)


def test_plan_steps():
    ins = plan_query(parse(insert_sql(1, ADDRS[0], 1)))
    sel = plan_query(parse("SELECT * FROM entries WHERE entry_id = 1"))
    rng = plan_query(parse("SELECT * FROM entries WHERE timestamp "
                           "BETWEEN 1 AND 2"))
    assert "cache-probe" in sel.steps and "ledger-append" in ins.steps
    assert rng.steps[0] == "cache-probe"
    with pytest.raises(TypeError, match="unplannable"):
        plan_query("SELECT * FROM entries WHERE entry_id = 1")


@pytest.mark.parametrize("sql", [
    insert_sql(5, ADDRS[1], 1_700_000_100, image=b"\x00\xff"),
    "UPDATE entries SET amount = 9, timestamp = 1700000200 "
    "WHERE entry_id = 3",
    "DELETE FROM entries WHERE entry_id = 4",
])
def test_write_runs_its_plan_steps_in_order(sql, monkeypatch):
    # each method a write calls is recorded under the plan step it serves
    eng, _ = seeded_engine(12)
    called = []

    def record(owner, name, step):
        method = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if not called or called[-1] != step:
                called.append(step)
            return method(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    record(eng, "_apply", "index-insert")
    record(eng.time_index, "insert", "index-insert")
    record(eng.store, "put", "store-payloads")
    record(eng.time_index, "root_digest", "anchor-roots")
    record(eng.trie, "root_digest", "anchor-roots")
    record(eng.ledger, "append_block", "ledger-append")
    record(eng.cache, "invalidate", "cache-invalidate")
    result = eng.execute(sql)
    assert tuple(called) == result.plan.steps


def test_emit_vo_bytes():
    eng, _ = seeded_engine(30)
    res = eng.execute("SELECT * FROM entries WHERE timestamp BETWEEN 0 "
                      "AND 2000000000", emit_vo=True)
    assert isinstance(res.vo_bytes, bytes) and len(res.vo_bytes) > 0


def test_replay_1000_mixed_ops_matches_oracle():
    # [DERIVED] oracle: dict of live rows maintained alongside; after
    # 1000 mixed operations, a replayed engine must answer identically.
    rng = random.Random(0xBEEF)
    eng = Engine()
    oracle = {}  # entry_id -> (amount, addr, ts)
    next_id = 0
    for _ in range(1000):
        live = [i for i in oracle]
        roll = rng.random()
        if roll < 0.70 or not live:
            ts = 1_700_000_000 + rng.randrange(0, 86_400)
            addr = rng.choice(ADDRS)
            amount = rng.randrange(0, 10_000)
            eng.execute(insert_sql(amount, addr, ts))
            oracle[next_id] = (amount, addr, ts)
            next_id += 1
        elif roll < 0.85:
            victim = rng.choice(live)
            eng.execute(f"DELETE FROM entries WHERE entry_id = {victim}")
            del oracle[victim]
        else:
            victim = rng.choice(live)
            amount = rng.randrange(0, 10_000)
            eng.execute(f"UPDATE entries SET amount = {amount} "
                        f"WHERE entry_id = {victim}")
            old = oracle.pop(victim)
            oracle[next_id] = (amount, old[1], old[2])
            next_id += 1
    assert eng.ledger.verify_chain()

    rebuilt = replay(eng.ledger, store=eng.store)
    assert rebuilt.ledger.blocks[-1].block_digest == \
        eng.ledger.blocks[-1].block_digest
    assert rebuilt.retired == eng.retired

    lo, hi = 1_700_020_000, 1_700_060_000
    sql = f"SELECT * FROM entries WHERE timestamp BETWEEN {lo} AND {hi}"
    want = sorted(i for i, (_, _, ts) in oracle.items() if lo <= ts <= hi)
    for e in (eng, rebuilt):
        assert [r["entry_id"] for r in e.execute(sql).rows] == want


def test_replay_detects_foreign_roots():
    eng, _ = seeded_engine(12)
    block = eng.ledger.blocks[4]
    object.__setattr__(block, "trie_root", b"\x11" * 32)
    with pytest.raises(VerificationFailure):
        replay(eng.ledger, store=eng.store)


@pytest.mark.parametrize("ops,error", [
    # no replacement entry rides in the block
    ([(OP_UPDATE, 0)], "1 UPDATE ops but 0 entries"),
    # the insert record blocks no longer carry
    ([(0, 99)], "unknown op kind 0"),
    ([(7, 0)], "unknown op kind 7"),
    # target never existed
    ([(OP_DELETE, 999)], "changes entry 999, which is not live"),
    # each op alone fits: only the check that no target repeats catches it
    ([(OP_DELETE, 3), (OP_DELETE, 3)], "changes entry 3, which is not live"),
], ids=["update-without-entry", "insert-record-is-unknown", "unknown-kind",
        "delete-unknown", "same-target-twice"])
def test_replay_rejects_ops_that_do_not_fit(ops, error):
    # the crafted block re-anchors the previous roots and links correctly,
    # so only the op check can catch it
    eng, _ = seeded_engine(12)
    eng.ledger.append_block([], eng.ledger.latest_roots(), ops=ops)
    assert eng.ledger.verify_chain()
    with pytest.raises(VerificationFailure, match=error):
        replay(eng.ledger, store=eng.store)


def test_update_block_may_carry_more_entries_than_updates():
    # an entry is its own record, so a block holds at least one entry per
    # UPDATE, not exactly one
    eng, _ = seeded_engine(12)
    new = [DataEntry(eid, 5, (ADDRS[1],), 1_700_000_000 + eid)
           for eid in (12, 13)]
    eng._commit(new, [(OP_UPDATE, 0)], ())
    rebuilt = replay(eng.ledger, store=eng.store)
    for e in (eng, rebuilt):
        assert not e.is_live(0)
        assert e.is_live(12) and e.is_live(13)
    assert rebuilt.ledger.blocks == eng.ledger.blocks


def test_replayed_engine_keeps_the_blocks_it_checked():
    eng, _ = seeded_engine(12)
    eng.execute("DELETE FROM entries WHERE entry_id = 3")
    eng.execute("UPDATE entries SET amount = 9 WHERE entry_id = 4")
    ledger = eng.ledger
    height = ledger.height
    rebuilt = replay(ledger, store=eng.store)
    assert len(rebuilt.ledger.blocks) == len(ledger.blocks)
    assert all(mine is theirs for mine, theirs
               in zip(rebuilt.ledger.blocks, ledger.blocks))
    # a write to the replayed engine extends its own chain only
    rebuilt.execute(insert_sql(7, ADDRS[2], 1_700_000_500))
    assert ledger.height == height
    assert rebuilt.ledger.height == height + 1
    assert [e.entry_id for e in rebuilt.ledger.blocks[-1].entries] == [13]
    assert rebuilt.ledger.verify_chain()
    again = replay(rebuilt.ledger, store=eng.store)
    assert again.ledger.latest_roots() == rebuilt.ledger.latest_roots()


def test_load_and_replay_encode_each_block_once(tmp_path, monkeypatch):
    eng = Engine()
    for b in range(6):
        eng.insert_batch([parse(insert_sql(i, ADDRS[i], 100 * b + i))
                          for i in range(3)])
    eng.execute("DELETE FROM entries WHERE entry_id = 1")
    eng.execute("UPDATE entries SET amount = 9 WHERE entry_id = 2")
    path = str(tmp_path / "ledger.bin")
    eng.ledger.save(path)
    calls = {"_block_body": 0, "encode_data_entry_body": 0}
    for name in calls:
        real = getattr(ledger_module, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(ledger_module, name, counted)
    rebuilt = replay(Ledger.load(path), store=eng.store)
    assert rebuilt.ledger.latest_roots() == eng.ledger.latest_roots()
    assert calls == {"_block_body": len(eng.ledger.blocks),
                     "encode_data_entry_body": len(eng.entries)}


def test_insert_only_block_records_no_ops(tmp_path):
    eng = Engine()
    eng.insert_batch([parse(insert_sql(i, ADDRS[i], 100 + i))
                      for i in range(2)])
    assert eng.ledger.blocks[-1].ops == ()
    path = str(tmp_path / "ledger.bin")
    eng.ledger.save(path)
    assert Ledger.load(path).blocks == eng.ledger.blocks


def test_bloom_no_false_negatives():
    bf = BloomFilter()
    keys = [random.Random(i).randbytes(32) for i in range(2000)]
    for k in keys:
        bf.add(k)
    assert all(bf.might_contain(k) for k in keys)


def test_bloom_false_positive_rate_reasonable():
    bf = BloomFilter()
    rng = random.Random(1)
    for _ in range(5000):
        bf.add(rng.randbytes(32))
    hits = sum(bf.might_contain(rng.randbytes(32)) for _ in range(5000))
    assert hits / 5000 < 0.01


def test_cache_epoch_isolation():
    cache = QueryCache()
    ast = parse("SELECT * FROM entries WHERE entry_id = 1")
    cache.put(ast, ("x",))
    assert cache.get(ast) == ("x",)
    cache.invalidate()
    assert cache.get(ast) is None


def test_cache_invalidate_frees_dead_epochs():
    cache = QueryCache()
    asts = [parse(f"SELECT * FROM entries WHERE entry_id = {i}")
            for i in range(3)]
    for _ in range(200):
        for i, ast in enumerate(asts):
            cache.put(ast, (i,))
        assert len(cache._store) <= len(asts)
        cache.invalidate()
    assert len(cache._store) == 0
    cache.put(asts[0], ("fresh",))
    assert cache.get(asts[0]) == ("fresh",)
    assert cache.get(asts[1]) is None


# Reads that come back verified=True though nothing checked them against
# an anchor.  Each test states what an honest engine does; strict xfail
# makes the run fail once a test passes, so closing a gap removes its mark.

def _between(ts):
    return f"SELECT * FROM entries WHERE timestamp BETWEEN {ts} AND {ts}"


@pytest.mark.xfail(reason="the anchors commit ids, not row contents")
def test_tampered_row_is_not_verified():
    eng, rows = seeded_engine(n=20)
    eng.entries[3] = dataclasses.replace(eng.entries[3], amount=999999)
    res = eng.execute(_between(rows[3]["ts"]))
    assert any(row["amount"] == 999999 for row in res.rows)
    assert res.verified is False


@pytest.mark.xfail(reason="the anchors do not commit the live set")
def test_row_dropped_as_retired_is_not_verified():
    eng, rows = seeded_engine(n=20)
    eng.retired.add(2)
    res = eng.execute(_between(rows[2]["ts"]))
    assert all(row["entry_id"] != 2 for row in res.rows)
    assert res.verified is False


@pytest.mark.xfail(reason="a point lookup builds no VO")
def test_point_lookup_emits_a_vo():
    eng, _ = seeded_engine(n=20)
    res = eng.execute("SELECT * FROM entries WHERE entry_id = 5",
                      emit_vo=True)
    assert res.rows and res.vo_bytes is not None


@pytest.mark.xfail(reason="a cache hit returns no VO")
def test_cache_hit_emits_a_vo():
    eng, rows = seeded_engine(n=20)
    eng.execute(_between(rows[0]["ts"]), emit_vo=True)
    res = eng.execute(_between(rows[0]["ts"]), emit_vo=True)
    assert res.cached and res.vo_bytes is not None
