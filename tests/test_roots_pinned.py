"""Pinned index roots, block digests and VO bytes.

Two fixed seeds drive an `Engine` through single INSERTs, one multi-entry
block, mid-span INSERTs (new and existing time keys), UPDATEs with and
without a new timestamp, and DELETEs.  With the default conversion
threshold the time index becomes one hash leaf; with threshold 40 it
converts inside the multi-entry block, after leaves have split, so hash
leaves sit under internal nodes.  The expected hex values were
captured from the reference implementation; any change to how digests are
computed must leave them byte-identical.
"""
import hashlib
import random

import pytest

from chainquery.engine import Engine, replay
from chainquery.sqlgrammar import parse

BASE_TS = 1_600_000_000


def _addr(rng: random.Random) -> str:
    # a small pool, so address prefixes share trie paths
    return "0x" + rng.choice(("ab", "a0", "12", "f3", "9c")) * 20


def _insert_sql(rng: random.Random, ts: int) -> str:
    addrs = ",".join(_addr(rng) for _ in range(rng.choice((1, 1, 2))))
    image = rng.randbytes(rng.randrange(0, 24)).hex() \
        if rng.random() < 0.3 else None
    video = rng.randbytes(rng.randrange(1, 48)).hex() \
        if rng.random() < 0.2 else None
    cols, vals = ["amount", "addresses", "timestamp"], \
        [str(rng.randrange(0, 10**6)), f"'{addrs}'", str(ts)]
    if image is not None:
        cols.append("image")
        vals.append(f"'{image}'")
    if video is not None:
        cols.append("video")
        vals.append(f"'{video}'")
    return (f"INSERT INTO entries ({', '.join(cols)}) "
            f"VALUES ({', '.join(vals)})")


def _drive(seed: int, threshold: int) -> Engine:
    rng = random.Random(seed)
    engine = Engine(threshold_t=threshold)
    ts = BASE_TS
    stamps = []
    # single INSERTs across the conversion threshold
    for _ in range(14):
        ts += rng.randrange(1, 400)
        stamps.append(ts)
        engine.execute(_insert_sql(rng, ts))
    # one multi-entry block
    batch = []
    for _ in range(40):
        ts += rng.randrange(0, 400)
        stamps.append(ts)
        batch.append(parse(_insert_sql(rng, ts)))
    engine.insert_batch(batch)
    # mid-span INSERTs: half land on an existing time key
    for i in range(20):
        mid = rng.choice(stamps) if i % 2 else \
            rng.randrange(BASE_TS, ts)
        engine.execute(_insert_sql(rng, mid))
    live = list(range(engine._next_id))
    # UPDATEs without and with a new timestamp
    for i in range(10):
        target = live.pop(rng.randrange(len(live)))
        if i % 2:
            sql = (f"UPDATE entries SET timestamp = "
                   f"{rng.randrange(BASE_TS, ts)}, amount = 7 "
                   f"WHERE entry_id = {target}")
        else:
            sql = (f"UPDATE entries SET amount = {rng.randrange(100)} "
                   f"WHERE entry_id = {target}")
        engine.execute(sql)
        live.append(engine._next_id - 1)
    # DELETEs
    for _ in range(8):
        target = live.pop(rng.randrange(len(live)))
        engine.execute(f"DELETE FROM entries WHERE entry_id = {target}")
    return engine


QUERIES = (
    f"SELECT * FROM entries WHERE timestamp BETWEEN {BASE_TS} "
    f"AND {BASE_TS + 3000}",
    f"SELECT * FROM entries WHERE timestamp BETWEEN {BASE_TS + 4000} "
    f"AND {BASE_TS + 9000}",
    f"SELECT * FROM entries WHERE timestamp BETWEEN {BASE_TS + 30000} "
    f"AND {BASE_TS + 40000}",
    "SELECT * FROM entries WHERE ts_str LIKE '2020-09-13-12:4%'",
    "SELECT * FROM entries WHERE ts_str LIKE '2020-09-14%'",
    "SELECT * FROM entries WHERE address LIKE '0xabab%'",
    "SELECT * FROM entries WHERE address LIKE '0x77%'",
)

# (seed, conversion threshold) -> expected values
PINNED = {
    (7, 10): {
        "bhash_root":
            "2eeac07cb587c1303f0a8d7d967d34a4819acfa8e4288782534170d5013a4891",
        "trie_root":
            "44a3cc519d3c2b9420c4eda21a1129dae2199cae7eb381edf430bffbcd3f4978",
        "block_digest":
            "4efb129a0be55afef7e23cfd904178422f563a70216b504694f3678f55afaeeb",
        "vo_sha256": (
            "00c15c4beef160ef0735025845e8117c5a4abae5ad58c42a0b68ad08897dd397",
            "960d8c371881ddd6bef3fbd25c9dcd7d5e79993ea6fa124735198578ff1aa088",
            "ef7d7d91c6be7423cb82a7afff427e50f44a2ff8982b00f809891384af6e63fb",
            "71517138cc029048db5ede25d3d79cc07d55b838b5c0ea52018731e313e7289d",
            "68ccc30f90057b1f6f304952fa2f7a23810177d1002c73dfa7317b218939f79e",
            "23db9233d92644d31308be75ca2bd9ed8261f3079e39a6020ab9fdd365e28208",
            "c4c7558de6726d824eace94ae22b19b491a0d4bbff5f9a462de9bba1c2d8f5e3",
        ),
    },
    (7, 40): {
        "bhash_root":
            "d887a199ff051751da3205f78dba4c3bc156e3caea01a21d66c78607503929aa",
        "trie_root":
            "44a3cc519d3c2b9420c4eda21a1129dae2199cae7eb381edf430bffbcd3f4978",
        "block_digest":
            "1f093c3a15131f6ea5441866d4b6831f864c480868dd6353f3d6989a2352bfb0",
        "vo_sha256": (
            "1850f04ca55a193221713acb756083680a0f0815def6ca85daffe50e5e1033a3",
            "ace38b0849849a84b99e1ebcc36950bee68f114ee3f6910bd339476332fa4170",
            "545c3badf8d73274f3a9834878c69c65a145722ec65a43d530f0b52ad692e445",
            "71517138cc029048db5ede25d3d79cc07d55b838b5c0ea52018731e313e7289d",
            "68ccc30f90057b1f6f304952fa2f7a23810177d1002c73dfa7317b218939f79e",
            "23db9233d92644d31308be75ca2bd9ed8261f3079e39a6020ab9fdd365e28208",
            "c4c7558de6726d824eace94ae22b19b491a0d4bbff5f9a462de9bba1c2d8f5e3",
        ),
    },
    (1234, 10): {
        "bhash_root":
            "8e8f842f6ffa0e4434379b3fab5281e4d7089cd41dd498651295a4c2671bd812",
        "trie_root":
            "706644b4298b6d31730a5dc9e78d031db7184e6f684cf5207ee37b8df21fd820",
        "block_digest":
            "ee3c05ee552a82b3c7af5f07ef83eb39856e4710b77117f479377651338e68c4",
        "vo_sha256": (
            "84b1276c527cb746e12d3bad2144571b0247a2ab7f1025b8590d606eba94d22f",
            "5c75b1360c1b57d2cc6d65a517e8876108afcf36959efaab2975fa1568f0d544",
            "a6a23533358fa3bd06b11a9d020cd2e0b7f480b9a1963035565e846e356e5254",
            "a26c94b922d1b41766ff3148a02dc0859102889e524fdddf143af0598c04f598",
            "709bcbac7c4ad437548c8fbd8a914f1fdeb0d4687f013560ef97cb9e4ee4c1d8",
            "88cc4ac47d39dc66c34fbe91c31e16052b867fa4102e0777f2cc356cae29457c",
            "bd7173ad0f9d6ca044d7022709dea78b5a909d61f1280ce820b728c77cec0b9a",
        ),
    },
    (1234, 40): {
        "bhash_root":
            "e68fd20b45f13029bc8f7e41ebff8a902d109675827c96d894f2eadb528c194a",
        "trie_root":
            "706644b4298b6d31730a5dc9e78d031db7184e6f684cf5207ee37b8df21fd820",
        "block_digest":
            "d826109340f1f192a1eab144f908dbaf24bc21c4b3ed47b36aad3229be2ef0e0",
        "vo_sha256": (
            "13f4b448cfcf37d3248113d20734eb0956546df2f75dc0dbdd88f3983243335c",
            "bb159192e3b1afacde513a7c3268f6052e772c286c0ace345dfbed95f1b5f7b3",
            "1bbab37e814fa6ad8e7ae7b551e99ad860d9f0cc21fb4102b2c9d162a90f79e4",
            "a26c94b922d1b41766ff3148a02dc0859102889e524fdddf143af0598c04f598",
            "709bcbac7c4ad437548c8fbd8a914f1fdeb0d4687f013560ef97cb9e4ee4c1d8",
            "88cc4ac47d39dc66c34fbe91c31e16052b867fa4102e0777f2cc356cae29457c",
            "bd7173ad0f9d6ca044d7022709dea78b5a909d61f1280ce820b728c77cec0b9a",
        ),
    },
}


def _observed(seed: int, threshold: int) -> dict:
    engine = _drive(seed, threshold)
    bhash_root, trie_root = engine.ledger.latest_roots()
    vo_hashes = tuple(
        hashlib.sha256(engine.execute(q, emit_vo=True).vo_bytes).hexdigest()
        for q in QUERIES)
    return {
        "bhash_root": bhash_root.hex(),
        "trie_root": trie_root.hex(),
        "block_digest": engine.ledger.blocks[-1].block_digest.hex(),
        "vo_sha256": vo_hashes,
        "engine": engine,
    }


CASES = sorted(PINNED)


@pytest.mark.parametrize("seed,threshold", CASES)
def test_roots_and_block_digest_pinned(seed, threshold):
    got = _observed(seed, threshold)
    want = PINNED[seed, threshold]
    assert got["bhash_root"] == want["bhash_root"]
    assert got["trie_root"] == want["trie_root"]
    assert got["block_digest"] == want["block_digest"]
    assert got["vo_sha256"] == want["vo_sha256"]


@pytest.mark.parametrize("seed,threshold", CASES)
def test_replay_reproduces_pinned_roots(seed, threshold):
    engine = _drive(seed, threshold)
    rebuilt = replay(engine.ledger, threshold_t=threshold)
    assert rebuilt.ledger.blocks[-1].block_digest.hex() == \
        PINNED[seed, threshold]["block_digest"]
