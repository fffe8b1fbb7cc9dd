import hashlib
import random

import pytest
from hypothesis import example, given, strategies as st

from chainquery.bhash import _leaf_body, leaf_digest
from chainquery.core import (DOM_LEAF, DataEntry, EncodingError,
                             _pack_u64_list, content_id,
                             decode_data_entry_body, digest,
                             encode_data_entry_body)

ADDR = "0x" + "ab" * 20
u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


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
_entries = st.builds(DataEntry,
                     entry_id=u64,
                     amount=st.integers(0, 1 << 200),
                     addresses=st.lists(_hex40.map("0x".__add__), min_size=1,
                                        max_size=4).map(tuple),
                     timestamp=st.integers(0, (1 << 63) - 1),
                     image_cid=_cid, video_cid=_cid)


@given(_entries, st.binary(max_size=3))
def test_entry_body_roundtrip(entry, tail):
    body = encode_data_entry_body(entry)
    assert decode_data_entry_body(body + tail, 0) == (entry, len(body))


@given(_entries)
@example(DataEntry(0, 0, (ADDR,), 0, None, b"\x07" * 32))
@example(DataEntry((1 << 64) - 1, 1, (ADDR, ADDR), (1 << 63) - 1,
                   b"\x07" * 32, None))
def test_entry_body_is_the_readme_layout(entry):
    # README, "Wire formats": entry_id u64 ‖ len u32 ‖ amount (minimal
    # big-endian) ‖ n u32 ‖ n × (len u32 ‖ ascii address) ‖ timestamp u64
    # ‖ two content ids (0x00, or 0x01 ‖ 32 bytes)
    amount = entry.amount.to_bytes((entry.amount.bit_length() + 7) // 8,
                                   "big")
    want = (entry.entry_id.to_bytes(8, "big")
            + len(amount).to_bytes(4, "big") + amount
            + len(entry.addresses).to_bytes(4, "big"))
    for addr in entry.addresses:
        want += len(addr).to_bytes(4, "big") + addr.encode("ascii")
    want += entry.timestamp.to_bytes(8, "big")
    for cid in (entry.image_cid, entry.video_cid):
        want += b"\x00" if cid is None else b"\x01" + cid
    assert encode_data_entry_body(entry) == want


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
    with pytest.raises(EncodingError, match="entry_id"):
        DataEntry(-1, 1, (ADDR,), 0)
    with pytest.raises(EncodingError, match="content id"):
        DataEntry(0, 1, (ADDR,), 0, b"\x07" * 31)


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


def test_pack_layout():
    assert _leaf_body(7, 9, [(1, 2)]) == (
        (7).to_bytes(8, "big") + (9).to_bytes(8, "big") + b"\x00\x00\x00\x01"
        + (1).to_bytes(8, "big") + (2).to_bytes(8, "big"))
    assert _pack_u64_list([5, (1 << 64) - 1]) == (
        b"\x00\x00\x00\x02" + (5).to_bytes(8, "big") + b"\xff" * 8)
    assert _pack_u64_list([]) == b"\x00\x00\x00\x00"
    # past the precompiled layouts, which stop at 255 values
    assert _pack_u64_list(range(300)) == (300).to_bytes(4, "big") + b"".join(
        v.to_bytes(8, "big") for v in range(300))


@given(st.lists(st.tuples(u64, u64), max_size=50), u64, u64)
def test_pack_matches_per_value_encoding(pairs, lo, hi):
    flat = [v for pair in pairs for v in pair]
    assert _pack_u64_list(flat) == (
        len(flat).to_bytes(4, "big")
        + b"".join(v.to_bytes(8, "big") for v in flat))
    body = _leaf_body(lo, hi, pairs)
    assert body == (lo.to_bytes(8, "big") + hi.to_bytes(8, "big")
                    + len(pairs).to_bytes(4, "big")
                    + _pack_u64_list(flat)[4:])
    # a B+ leaf's digest commits the body its proof record carries
    assert leaf_digest(pairs, lo, hi) == digest(DOM_LEAF, body)
