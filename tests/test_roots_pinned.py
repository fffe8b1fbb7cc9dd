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
            "a96388f43e9fa7fde3cee662918c73c482f0af676ddabd5bd3de57c0808d5d1f",
        "block_digest":
            "8b1702dd122208060698b9f44286e1136dbd2d20fbb3d1ad2d6305a77086ec1c",
        "vo_sha256": (
            "00c15c4beef160ef0735025845e8117c5a4abae5ad58c42a0b68ad08897dd397",
            "960d8c371881ddd6bef3fbd25c9dcd7d5e79993ea6fa124735198578ff1aa088",
            "ef7d7d91c6be7423cb82a7afff427e50f44a2ff8982b00f809891384af6e63fb",
            "36ba5392b991f642a2f507f2d27b3374da69cc84e55876c7c6bbb7ca4c6a1863",
            "c92ec7840b585705cd20fdc2f850e1025a7e867dc17c315d32f74c5b224d744b",
            "2e01b39a3142c60045e36e6468bc82116b62c21680d019d5f7d7fc6af160ec07",
            "0eea1dfe94bcefd4358d2181d44ffcf6b60a4d4c2faecc8f935095b3e05d76db",
        ),
    },
    (7, 40): {
        "bhash_root":
            "d887a199ff051751da3205f78dba4c3bc156e3caea01a21d66c78607503929aa",
        "trie_root":
            "a96388f43e9fa7fde3cee662918c73c482f0af676ddabd5bd3de57c0808d5d1f",
        "block_digest":
            "8059c0d72d00091b0f5beac8ce7d3d8fe78c4ba005073cfcd265be06e1105fc3",
        "vo_sha256": (
            "1850f04ca55a193221713acb756083680a0f0815def6ca85daffe50e5e1033a3",
            "ace38b0849849a84b99e1ebcc36950bee68f114ee3f6910bd339476332fa4170",
            "545c3badf8d73274f3a9834878c69c65a145722ec65a43d530f0b52ad692e445",
            "36ba5392b991f642a2f507f2d27b3374da69cc84e55876c7c6bbb7ca4c6a1863",
            "c92ec7840b585705cd20fdc2f850e1025a7e867dc17c315d32f74c5b224d744b",
            "2e01b39a3142c60045e36e6468bc82116b62c21680d019d5f7d7fc6af160ec07",
            "0eea1dfe94bcefd4358d2181d44ffcf6b60a4d4c2faecc8f935095b3e05d76db",
        ),
    },
    (1234, 10): {
        "bhash_root":
            "8e8f842f6ffa0e4434379b3fab5281e4d7089cd41dd498651295a4c2671bd812",
        "trie_root":
            "a0fb8600399aa25ddc4f27336134b3f4f9d32c5ccafc40e1d14648e9264bf810",
        "block_digest":
            "ae374251a74e72c3008001219a69a6a2f784460e0530fe5bfb866f666c36d6a4",
        "vo_sha256": (
            "84b1276c527cb746e12d3bad2144571b0247a2ab7f1025b8590d606eba94d22f",
            "5c75b1360c1b57d2cc6d65a517e8876108afcf36959efaab2975fa1568f0d544",
            "a6a23533358fa3bd06b11a9d020cd2e0b7f480b9a1963035565e846e356e5254",
            "49d4cb545449cf9632e4bafc20197fb8a3fa727482f05cb7a7b98c4da8330564",
            "0e09bc4be0db30beefb13b4561494422328775007d0d03a67c886770cf3dded9",
            "838c8d4022a1bcd14ebb388d27739b9d9808203f651a4583a40e1f1b63e6bd8b",
            "36be20dce80cf7b3c635063a7b67fd555c6c164b9e979b62d7a1c56dc1cef336",
        ),
    },
    (1234, 40): {
        "bhash_root":
            "e68fd20b45f13029bc8f7e41ebff8a902d109675827c96d894f2eadb528c194a",
        "trie_root":
            "a0fb8600399aa25ddc4f27336134b3f4f9d32c5ccafc40e1d14648e9264bf810",
        "block_digest":
            "1b05cc8daf1455c96a4d393f977c6b69b949f6cda564d8e41841e6566d883141",
        "vo_sha256": (
            "13f4b448cfcf37d3248113d20734eb0956546df2f75dc0dbdd88f3983243335c",
            "bb159192e3b1afacde513a7c3268f6052e772c286c0ace345dfbed95f1b5f7b3",
            "1bbab37e814fa6ad8e7ae7b551e99ad860d9f0cc21fb4102b2c9d162a90f79e4",
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
