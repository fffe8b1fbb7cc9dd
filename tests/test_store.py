import hashlib
import os
import random
import sys
import threading

import pytest

from chainquery.store import (ContentStore, IntegrityFailure, NotFound,
                              PayloadTooLarge)


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
    store.check_many(cids)
    store.check_many(cids[:2])
    store.check_many([])


@pytest.mark.parametrize("first,error", [("flipped", IntegrityFailure),
                                         ("missing", NotFound)])
def test_check_many_raises_first_bad_cid_in_input_order(store, first,
                                                        error):
    """One flipped and one missing payload in one batch, beside a 16 MiB
    payload: the error raised is the earlier bad one's, whichever of the
    two it is."""
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
    with pytest.raises(error):
        store.check_many(cids)
    with pytest.raises(error):
        for cid in cids:
            store.get(cid)


def test_check_many_is_one_get_per_cid_in_input_order(store, monkeypatch):
    cids = [put(store, bytes([i]) * 4096) for i in range(6)]
    damage(store, cids[3], "flipped")
    damage(store, cids[4], "missing")
    seen = []
    get = ContentStore.get

    def recorded_get(self, cid):
        seen.append(cid)
        return get(self, cid)

    monkeypatch.setattr(ContentStore, "get", recorded_get)
    store.check_many(cids[:3])
    assert seen == cids[:3]
    seen.clear()
    batch = [cids[5], cids[0], cids[3], cids[4], cids[1]]
    with pytest.raises(IntegrityFailure):
        store.check_many(batch)
    assert seen == batch[:3]


def test_check_many_from_many_threads_at_once():
    """Four callers check batches of one store at once under a short
    switch interval; each must see exactly the first bad cid of its own
    batch."""
    store = ContentStore()
    honest = [put(store, bytes([i]) * 8192) for i in range(40)]
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


# -- the memory store's hash memo --------------------------------------------

def restore(store, cid, payload):
    """Put the honest bytes back under cid, as the very object stored first
    where there is one."""
    if store.root:
        with open(store._path(cid), "wb") as fh:
            fh.write(payload)
    else:
        store._mem[cid] = payload


def count_hashes(monkeypatch):
    """Count the store's content_id calls, per cid hashed."""
    import chainquery.store as store_mod
    calls = []
    real = store_mod.content_id

    def counted(payload):
        cid = real(payload)
        calls.append(cid)
        return cid

    monkeypatch.setattr(store_mod, "content_id", counted)
    return calls


@pytest.mark.parametrize("how,error", [("flipped", IntegrityFailure),
                                       ("missing", NotFound)])
def test_get_after_a_passing_get_sees_damage(store, how, error):
    payload = bytes(range(256)) * 16
    cid = put(store, payload)
    assert store.get(cid) == payload
    damage(store, cid, how)
    with pytest.raises(error):
        store.get(cid)
    with pytest.raises(error):
        store.check_many([cid])


@pytest.mark.parametrize("how", ["flipped", "missing"])
def test_restored_payload_is_hashed_again(store, how, monkeypatch):
    payload = bytes(range(256)) * 16
    cid = put(store, payload)
    stored = store._mem.get(cid)
    assert store.get(cid) == payload
    damage(store, cid, how)
    with pytest.raises((IntegrityFailure, NotFound)):
        store.get(cid)
    # the very object that passed before is hashed again once it is back
    restore(store, cid, stored if stored is not None else payload)
    calls = count_hashes(monkeypatch)
    assert store.get(cid) == payload
    assert calls == [cid]


def test_unchanged_payload_hashes_once_in_memory_twice_on_disk(
        store, monkeypatch):
    payload = b"\x5a" * 4096
    cid = put(store, payload)
    calls = count_hashes(monkeypatch)
    assert store.get(cid) == payload
    assert store.get(cid) == payload
    assert calls == [cid] * (2 if store.root else 1)


def test_put_keeps_an_immutable_copy_of_a_mutable_buffer(store):
    buf = bytearray(b"original bytes" * 100)
    cid = put(store, buf)
    assert store.get(cid) == b"original bytes" * 100
    buf[0] ^= 0xFF
    view = memoryview(bytearray(b"view bytes"))
    view_cid = put(store, view)
    view[0] = 0
    assert store.get(cid) == b"original bytes" * 100
    assert type(store.get(cid)) is bytes
    assert store.get(view_cid) == b"view bytes"


def test_mutable_object_written_into_the_store_is_always_hashed(
        monkeypatch):
    store = ContentStore()
    payload = b"abc" * 1000
    cid = put(store, payload)
    store._mem[cid] = bytearray(payload)
    assert store.get(cid) == payload
    store._mem[cid][0] ^= 0xFF
    with pytest.raises(IntegrityFailure):
        store.get(cid)


def test_memo_under_concurrent_flips_and_restores():
    """One thread keeps swapping flipped, honest and freshly copied bytes
    under a few cids while four threads read them under a short switch
    interval: every get that returns must return the honest bytes."""
    store = ContentStore()
    honest = {}
    for i in range(4):
        payload = bytes([i, 7]) * 2048
        honest[put(store, payload)] = payload
    cids = list(honest)
    stop = threading.Event()
    wrong = []

    def writer():
        rng = random.Random(1)
        while not stop.is_set():
            cid = rng.choice(cids)
            how = rng.randrange(3)
            if how == 0:
                damage(store, cid, "flipped")
            else:
                store._mem[cid] = honest[cid] if how == 1 \
                    else bytes(bytearray(honest[cid]))

    def reader(seed):
        rng = random.Random(seed)
        for _ in range(3000):
            cid = rng.choice(cids)
            try:
                got = store.get(cid)
            except IntegrityFailure:
                continue
            if got != honest[cid]:
                wrong.append(cid)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        w = threading.Thread(target=writer)
        readers = [threading.Thread(target=reader, args=(s,))
                   for s in range(4)]
        w.start()
        for t in readers:
            t.start()
        for t in readers:
            t.join(timeout=60)
        stop.set()
        w.join(timeout=60)
    finally:
        stop.set()
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in readers + [w])
    assert wrong == []
