import hashlib
import os
import random
import sys
import threading

import pytest

import chainquery.store as store_mod
from chainquery.engine import Engine
from chainquery.store import (SPLIT_FROM_BYTES, ContentStore, IntegrityFailure,
                              NotFound, PayloadTooLarge)


def put(store, payload):
    cid = store.address(payload)
    store.put(payload, cid)
    return cid


@pytest.fixture(params=["memory", "disk"])
def store(request, tmp_path):
    if request.param == "memory":
        return ContentStore()
    return ContentStore(str(tmp_path / "cas"))


def test_empty_payload_cid(store):
    assert put(store, b"") == hashlib.sha256(b"").digest()


def test_put_idempotent(store):
    cid1 = put(store, b"hello")
    n = len(store)
    cid2 = put(store, b"hello")
    assert cid1 == cid2
    assert len(store) == n


def test_roundtrip_random_payloads(store):
    rng = random.Random(5)
    payloads = [rng.randbytes(rng.randrange(1, 2048)) for _ in range(1000)]
    cids = [put(store, p) for p in payloads]
    for cid, payload in zip(cids, payloads):
        assert store.get(cid) == payload


def test_get_unknown(store):
    with pytest.raises(NotFound):
        store.get(b"\x01" * 32)


def test_payload_too_large(store):
    with pytest.raises(PayloadTooLarge):
        store.address(b"\x00" * (64 * 1024 * 1024 + 1))


def test_corruption_detected(tmp_path):
    store = ContentStore(str(tmp_path / "cas"))
    cid = put(store, b"important bytes")
    path = store._path(cid)
    raw = bytearray(open(path, "rb").read())
    raw[3] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(raw)
    with pytest.raises(IntegrityFailure):
        store.get(cid)


def test_disk_layout(tmp_path):
    store = ContentStore(str(tmp_path / "cas"))
    cid = put(store, b"xyz")
    expected = os.path.join(str(tmp_path / "cas"), "objects",
                            cid.hex()[:2], cid.hex())
    assert os.path.exists(expected)


# -- batch check (check_many) ---------------------------------------------

def damage(store, cid, how):
    """Flip one byte of the payload under cid, or remove it."""
    if store.root:
        path = store._path(cid)
        if how == "missing":
            os.remove(path)
            return
        raw = bytearray(open(path, "rb").read())
        raw[0] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(raw)
    elif how == "missing":
        del store._mem[cid]
    else:
        store._mem[cid] = bytes([store._mem[cid][0] ^ 0xFF]) \
            + store._mem[cid][1:]


def test_check_many_honest_batch_passes(store):
    cids = [put(store, bytes([i]) * (8000 + i)) for i in range(20)]
    assert 20 * 8000 >= SPLIT_FROM_BYTES
    store.check_many(cids)
    store.check_many(cids[:2])
    store.check_many([])


@pytest.mark.parametrize("first,error", [("flipped", IntegrityFailure),
                                         ("missing", NotFound)])
def test_check_many_raises_first_bad_cid_in_input_order(store, first,
                                                        error):
    """One flipped and one missing payload in a batch the helper shares.
    "flipped" first: the flipped payload is 16 MiB, so the other thread
    meets the later missing one while it is still being hashed.  "missing"
    first: a 16 MiB honest payload keeps the calling thread busy, so the
    helper meets the missing one."""
    small = [put(store, bytes([i]) * 4096) for i in range(8)]
    payload = bytes(range(256)) * (64 * 1024)   # 16 MiB: ~10 ms to hash
    big = put(store, payload)
    if first == "flipped":
        cids = [small[0], big, small[1]] + small[2:]
        damage(store, big, "flipped")
        damage(store, small[1], "missing")
    else:
        cids = [big, small[0], small[1]] + small[2:]
        damage(store, small[0], "missing")
        damage(store, small[1], "flipped")
    assert len(payload) >= SPLIT_FROM_BYTES
    with pytest.raises(error):
        store.check_many(cids)
    with pytest.raises(error):
        for cid in cids:
            store.get(cid)


def test_check_many_keeps_one_helper_thread():
    video = bytes(range(256)) * 256
    n_rows = SPLIT_FROM_BYTES // len(video) + 1
    for n in range(50):
        eng = Engine()
        for i in range(n_rows):
            eng.execute(f"INSERT INTO entries (amount, addresses, timestamp,"
                        f" video) VALUES ({i}, '0x{n:040x}', {100 + i}, "
                        f"'{(bytes([i]) + video).hex()}')")
        res = eng.execute("SELECT * FROM entries WHERE timestamp BETWEEN "
                          "0 AND 1000")
        assert len(res.rows) == n_rows
    helpers = [t for t in threading.enumerate()
               if t.name == "chainquery-store-check"]
    assert len(helpers) == (1 if store_mod._usable_cpus() > 1 else 0)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_helper():
    store = ContentStore()
    cids = [put(store, bytes([i]) * SPLIT_FROM_BYTES) for i in range(4)]
    store.check_many(cids)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            store.check_many(cids)
            code = 0 if any(t.name == "chainquery-store-check"
                            for t in threading.enumerate()) else 2
        finally:
            os.write(write_end, bytes([code]))
            os._exit(0)
    os.close(write_end)
    try:
        code = os.read(read_end, 1)
    finally:
        os.close(read_end)
        os.waitpid(pid, 0)
    expected = 0 if store_mod._usable_cpus() > 1 else 2
    assert code == bytes([expected])


def test_check_many_from_many_threads_at_once():
    """Four callers share the one helper under a short switch interval;
    each must see exactly the first bad cid of its own batch."""
    store = ContentStore()
    honest = [put(store, bytes([i]) * 8192) for i in range(40)]
    assert 40 * 8192 >= SPLIT_FROM_BYTES
    flipped = []
    for i in range(0, 40, 7):
        payload = bytes([i, 1]) * 4096
        cid = put(store, payload)
        damage(store, cid, "flipped")
        flipped.append(cid)
    wrong = []

    def caller(seed):
        rng = random.Random(seed)
        for _ in range(30):
            batch = list(honest)
            bad = sorted(rng.sample(range(len(batch)), rng.randrange(3)))
            for pos in bad:
                batch[pos] = rng.choice(flipped)
            try:
                store.check_many(batch)
                got = None
            except IntegrityFailure as exc:
                got = str(exc)
            want = None if not bad else \
                f"stored bytes for {batch[bad[0]].hex()} hash differently"
            if got != want:
                wrong.append((got, want))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(s,))
                   for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
