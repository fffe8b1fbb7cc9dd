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
            "3274bdfc5a8db3a98e18b83bd6126e7ffe88737175d7499bb9e83461ec32fb26",
        "trie_root":
            "a96388f43e9fa7fde3cee662918c73c482f0af676ddabd5bd3de57c0808d5d1f",
        "block_digest":
            "e67d7e35622cf279862744b0a3100fc82e95a8f8df432526c6de65c3375db554",
        "vo_sha256": (
            "fd800b9c887bfb77d7513fd50175de01e67b16637e22f87b671aefe9fe383bdd",
            "b1e4800604a676bec40fdc461aecd3c8a8778175dd83c420fc943e2f8320407b",
            "8d885a81cd6d95aa90448d4f966c1d2c0d896a82b3670eb00ec7df60df2d229d",
            "36ba5392b991f642a2f507f2d27b3374da69cc84e55876c7c6bbb7ca4c6a1863",
            "c92ec7840b585705cd20fdc2f850e1025a7e867dc17c315d32f74c5b224d744b",
            "2e01b39a3142c60045e36e6468bc82116b62c21680d019d5f7d7fc6af160ec07",
            "0eea1dfe94bcefd4358d2181d44ffcf6b60a4d4c2faecc8f935095b3e05d76db",
        ),
    },
    (7, 40): {
        "bhash_root":
            "8e13e9393127e39652ce012e08911d46a7493575ce01a8a1473a568ebb2d7263",
        "trie_root":
            "a96388f43e9fa7fde3cee662918c73c482f0af676ddabd5bd3de57c0808d5d1f",
        "block_digest":
            "e2fc530fe4bb964781d3bfc8a8d328cc6d081f1aba005d03e48ef79e3aacc4db",
        "vo_sha256": (
            "15e3895919109dc08f86c97cb8b38dc5e92e4166d1aca03f351bb9280fe9d664",
            "fa73f25a6b9a12445da7452e49662dbd32d85a41a431f7dd58550781326b4c5d",
            "1ee993cc82596f723dcdcfddc0afc4edc373cd4f0558b8b76bab04d78c947c72",
            "36ba5392b991f642a2f507f2d27b3374da69cc84e55876c7c6bbb7ca4c6a1863",
            "c92ec7840b585705cd20fdc2f850e1025a7e867dc17c315d32f74c5b224d744b",
            "2e01b39a3142c60045e36e6468bc82116b62c21680d019d5f7d7fc6af160ec07",
            "0eea1dfe94bcefd4358d2181d44ffcf6b60a4d4c2faecc8f935095b3e05d76db",
        ),
    },
    (1234, 10): {
        "bhash_root":
            "c33694f4341332c0623c905f76932dc7bdcc88825090c01dcce77d123b5fdccb",
        "trie_root":
            "a0fb8600399aa25ddc4f27336134b3f4f9d32c5ccafc40e1d14648e9264bf810",
        "block_digest":
            "4c78c12b0713cd4b375b2e1cfbb74279b49a2190e57e8830a99405823baad5d5",
        "vo_sha256": (
            "8923ffeae7d84d5fd899e7072d9cc8348e6b1ccf65fabb445e2f26117c641897",
            "765f7dd217a197eac562ae5277d5d2c6cfbbe1f6bf0c954af66bd19f776b3539",
            "adc3a575d91a287c3dec5ee368402afb5acfba4a2133ea8a675aefa07868b29e",
            "49d4cb545449cf9632e4bafc20197fb8a3fa727482f05cb7a7b98c4da8330564",
            "0e09bc4be0db30beefb13b4561494422328775007d0d03a67c886770cf3dded9",
            "838c8d4022a1bcd14ebb388d27739b9d9808203f651a4583a40e1f1b63e6bd8b",
            "36be20dce80cf7b3c635063a7b67fd555c6c164b9e979b62d7a1c56dc1cef336",
        ),
    },
    (1234, 40): {
        "bhash_root":
            "de8c592ba3d983b36b442322f82c96e7da2f99c98c7099b785a5c3039cfb0b66",
        "trie_root":
            "a0fb8600399aa25ddc4f27336134b3f4f9d32c5ccafc40e1d14648e9264bf810",
        "block_digest":
            "176a959b008ccd37b4bebb30de13488b6fbe0f21de1faefe581c46d63b6f9c73",
        "vo_sha256": (
            "99408d69f83506dd1da62e5ac87e5e6f67fff16ff9a65ee434267ee491af4f3b",
            "fee3b961723a1c20eb7d8291dd687e0abd5c1cb1be39677bc9b07bd8cf8b8fe1",
            "e47e16d9a7a7c1aa72b1c8c85d80909894a02a93eb21cd2141b384d5aaeb4608",
            "49d4cb545449cf9632e4bafc20197fb8a3fa727482f05cb7a7b98c4da8330564",
            "0e09bc4be0db30beefb13b4561494422328775007d0d03a67c886770cf3dded9",
            "838c8d4022a1bcd14ebb388d27739b9d9808203f651a4583a40e1f1b63e6bd8b",
            "36be20dce80cf7b3c635063a7b67fd555c6c164b9e979b62d7a1c56dc1cef336",
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
