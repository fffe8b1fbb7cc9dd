import hashlib
import os
import random

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
