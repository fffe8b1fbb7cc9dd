"""SHA-256 calls of one fixed small workload, pinned apart for the writer
side (four insert blocks, an UPDATE, a DELETE and the engine's reads) and
the client side (each emitted VO checked against the anchors).  A root or
a VO stays the same when a hash is repeated or skipped on the way; these
counts do not."""
import hashlib

import pytest

# these two forward to chainquery.client's checks
from chainquery.bhash import verify_range_bytes
from chainquery.engine import NS_ADDRESS, NS_TIMESTAMP, Engine
from chainquery.sqlgrammar import parse
from chainquery.trie import verify_prefix_bytes

ADDRS = ["0x" + f"{i:040x}" for i in range(1, 6)]
T0 = 1_600_000_000  # 2020-09-13-12:26:40 UTC


@pytest.fixture
def sha256_calls(monkeypatch):
    """A list that grows by one on each hashlib.sha256 call."""
    calls = []
    real = hashlib.sha256

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(hashlib, "sha256", counting)
    return calls


def _insert(i: int):
    """Entry i: out of time order, every fourth with a 64-byte image."""
    cols = "amount, addresses, timestamp"
    vals = f"{i}, '{ADDRS[i % 5]}', {T0 + 37 * (i * 7 % 24)}"
    if i % 4 == 0:
        cols += ", image"
        vals += f", '{(bytes([i]) * 64).hex()}'"
    return parse(f"INSERT INTO entries ({cols}) VALUES ({vals})")


# (read, the index's query) for each read primitive; an id read has no VO
READS = [
    ("SELECT * FROM entries WHERE entry_id = 4", None),
    (f"SELECT * FROM entries WHERE timestamp = {T0 + 37}", (T0 + 37,) * 2),
    (f"SELECT * FROM entries WHERE timestamp BETWEEN {T0 + 100} AND "
     f"{T0 + 500}", (T0 + 100, T0 + 500)),
    ("SELECT * FROM entries WHERE ts_str LIKE '2020-09-13-12:3%'",
     NS_TIMESTAMP + "2020-09-13-12:3"),
    (f"SELECT * FROM entries WHERE address LIKE '{ADDRS[2][:-1]}%'",
     NS_ADDRESS + ADDRS[2][2:-1]),
]


def test_sha256_calls_pinned(sha256_calls):
    eng = Engine()
    for block in range(4):
        eng.insert_batch([_insert(6 * block + k) for k in range(6)])
    eng.execute(f"UPDATE entries SET amount = 99, timestamp = {T0 + 100} "
                "WHERE entry_id = 3")
    eng.execute("DELETE FROM entries WHERE entry_id = 10")
    writes = len(sha256_calls)
    blobs = [eng.execute(sql, emit_vo=True).vo_bytes for sql, _ in READS]
    engine_reads = len(sha256_calls) - writes
    assert blobs[0] is None
    # the ids each VO proves, retired ones too; the roots are fresh, so
    # these queries hash nothing
    bhash_root, trie_root = eng.ledger.latest_roots()
    client = []
    for blob, (_, query) in zip(blobs[1:], READS[1:]):
        before = len(sha256_calls)
        if isinstance(query, tuple):
            ids = eng.time_index.range_query(*query)[0]
            assert len(sha256_calls) == before and ids
            assert verify_range_bytes(blob, bhash_root, *query, ids)
        else:
            ids = eng.trie.prefix_query(query)[0]
            assert len(sha256_calls) == before and ids
            assert verify_prefix_bytes(blob, trie_root, query, ids)
        client.append(len(sha256_calls) - before)
    assert (writes, engine_reads, client) == (203, 6, [11, 45, 25, 7])


# One write of each kind on the engine of four insert blocks: an INSERT
# with a 64-byte image and two addresses, an UPDATE that moves its entry in
# time, and a DELETE.
WRITES = [
    "INSERT INTO entries (amount, addresses, timestamp, image) VALUES "
    f"(5, '{ADDRS[1]},{ADDRS[4]}', {T0 + 333}, '{bytes(range(64)).hex()}')",
    f"UPDATE entries SET amount = 8, timestamp = {T0 + 444} "
    "WHERE entry_id = 7",
    "DELETE FROM entries WHERE entry_id = 12",
]


def test_write_counts_pinned(sha256_calls):
    """Each write kind's SHA-256 calls and gas meter deltas (storage
    writes, storage reads, compute units)."""
    eng = Engine()
    for block in range(4):
        eng.insert_batch([_insert(6 * block + k) for k in range(6)])
    counts = []
    for sql in WRITES:
        calls, meter = len(sha256_calls), eng.meter.snapshot()
        assert eng.execute(sql).affected == 1
        counts.append((len(sha256_calls) - calls, *(
            b - a for a, b in zip(meter, eng.meter.snapshot()))))
    assert counts == [(18, 12, 9, 9), (16, 9, 7, 8), (1, 0, 0, 0)]
