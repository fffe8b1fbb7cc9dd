"""Engine tests: verified execution of all six primitives against a
naive in-memory oracle, tombstone/supersession semantics, replay
determinism over mixed workloads, and cache behavior."""
import random

import pytest

from chainquery.cache import MAX_CACHED, BloomFilter, QueryCache
from chainquery.core import EncodingError
from chainquery.engine import (Engine, MalformedBlock, UnknownEntry,
                               VerificationFailure, plan_query, replay,
                               timestamp_string)
from chainquery.ledger import OP_DELETE, OP_INSERT, OP_UPDATE
from chainquery.sqlgrammar import InsertQuery, parse
from chainquery.store import (MAX_PAYLOAD, SPLIT_FROM_BYTES, IntegrityFailure,
                              PayloadTooLarge)

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
    # more stored bytes than SPLIT_FROM_BYTES: the helper takes a share
    assert 24 * 8192 >= SPLIT_FROM_BYTES
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


def test_plan_costs_ordered():
    ins = plan_query(parse(insert_sql(1, ADDRS[0], 1)))
    sel = plan_query(parse("SELECT * FROM entries WHERE entry_id = 1"))
    rng = plan_query(parse("SELECT * FROM entries WHERE timestamp "
                           "BETWEEN 1 AND 2"))
    assert ins.est_cost > 0 and sel.est_cost > 0
    assert "cache-probe" in sel.steps and "ledger-append" in ins.steps
    assert rng.steps[0] == "cache-probe"


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

    record(eng.trie, "insert_many", "index-insert")
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


@pytest.mark.parametrize("ops", [
    [(OP_UPDATE, 0)],     # no replacement entry rides in the block
    [(OP_INSERT, 99)],    # names an entry the block does not carry
    [(7, 0)],             # unknown op kind
    [(OP_DELETE, 999)],   # target never existed
], ids=["update-without-entry", "insert-without-entry", "unknown-kind",
        "delete-unknown"])
def test_replay_rejects_ops_that_do_not_fit(ops):
    # the crafted block re-anchors the previous roots and links correctly,
    # so only the op check can catch it
    eng, _ = seeded_engine(12)
    eng.ledger.append_block([], eng.ledger.latest_roots(), ops=ops)
    assert eng.ledger.verify_chain()
    with pytest.raises(VerificationFailure):
        replay(eng.ledger, store=eng.store)


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
