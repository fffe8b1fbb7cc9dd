import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from chainquery.core import (DataEntry, EncodingError, content_id,
                             decode_data_entry_body, digest,
                             encode_data_entry_body)

ADDR = "0x" + "ab" * 20


def rand_entry(rng, eid):
    n_addr = rng.randint(1, 3)
    addrs = tuple("0x" + "".join(rng.choice("0123456789abcdef")
                                 for _ in range(40)) for _ in range(n_addr))
    return DataEntry(
        entry_id=eid,
        amount=rng.randrange(1 << 80),
        addresses=addrs,
        timestamp=rng.randrange(1 << 40),
        image_cid=bytes(rng.randrange(256) for _ in range(32)) if rng.random() < 0.5 else None,
        video_cid=bytes(rng.randrange(256) for _ in range(32)) if rng.random() < 0.5 else None,
    )


def test_timekey_range_checked():
    # a timestamp is its own time key; both ends of the 63-bit range hold
    DataEntry(0, 1, (ADDR,), 0)
    DataEntry(0, 1, (ADDR,), (1 << 63) - 1)
    with pytest.raises(EncodingError):
        DataEntry(0, 1, (ADDR,), -1)
    with pytest.raises(EncodingError):
        DataEntry(0, 1, (ADDR,), 1 << 63)


def test_equal_entries_encode_identically():
    a = DataEntry(1, 5, (ADDR,), 99)
    b = DataEntry(1, 5, (ADDR,), 99)
    assert encode_data_entry_body(a) == encode_data_entry_body(b)


def test_encoding_distinct_over_corpus():
    rng = random.Random(42)
    entries = [rand_entry(rng, eid) for eid in range(10_000)]
    blobs = {encode_data_entry_body(e) for e in entries}
    assert len(blobs) == len(entries)


_hex40 = st.text("0123456789abcdef", min_size=40, max_size=40)
_cid = st.none() | st.binary(min_size=32, max_size=32)


@given(st.builds(DataEntry,
                 entry_id=st.integers(0, (1 << 64) - 1),
                 amount=st.integers(0, 1 << 200),
                 addresses=st.lists(_hex40.map("0x".__add__), min_size=1,
                                    max_size=4).map(tuple),
                 timestamp=st.integers(0, (1 << 63) - 1),
                 image_cid=_cid, video_cid=_cid),
       st.binary(max_size=3))
def test_entry_body_roundtrip(entry, tail):
    body = encode_data_entry_body(entry)
    assert decode_data_entry_body(body + tail, 0) == (entry, len(body))


def test_entry_validation():
    with pytest.raises(EncodingError):
        DataEntry(0, 1, (), 0)
    with pytest.raises(EncodingError):
        DataEntry(0, 1, ("0xZZ",), 0)
    with pytest.raises(EncodingError):
        DataEntry(0, 1, ("0x" + "AB" * 20,), 0)  # uppercase hex
    with pytest.raises(EncodingError):
        DataEntry(0, -1, ("0x" + "ab" * 20,), 0)
    with pytest.raises(EncodingError):
        DataEntry(0, 1, ("0x" + "ab" * 20,), 1 << 63)
    with pytest.raises(EncodingError):
        DataEntry(0, 1, (ADDR + "\n",), 0)  # "$" would match before "\n"


def test_digest_definition():
    assert digest(0x00, b"") == hashlib.sha256(b"\x00").digest()
    assert digest(0x02, b"xy") == hashlib.sha256(b"\x02xy").digest()


def test_digest_domain_separation():
    rng = random.Random(1)
    for _ in range(1000):
        p = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
        assert digest(0x00, p) != digest(0x01, p)


def test_content_id_plain_sha256():
    assert content_id(b"") == hashlib.sha256(b"").digest()
