"""Core domain types, the data entry body encoding, and the digest
primitive.

An entry body is the byte layout the ledger commits for each entry:
integers are big-endian, variable-size fields carry a 4-byte big-endian
length prefix, and an absent content id is one zero byte.
"""
from __future__ import annotations

import hashlib
import re
import struct
from dataclasses import dataclass
from typing import Optional

# Domain-separation tags for digest().
DOM_LEAF = 0x00
DOM_INTERNAL = 0x01
DOM_BUCKET = 0x02
DOM_TRIE = 0x03
DOM_ANCHOR = 0x04

DIGEST_SIZE = 32
EMPTY_DIGEST = b"\x00" * DIGEST_SIZE

MAX_TIMESTAMP = (1 << 63) - 1

ADDRESS_RE = re.compile(r"0x[0-9a-f]{40}")


class EncodingError(ValueError):
    pass


class VODecodeError(ValueError):
    pass


def digest(domain_tag: int, payload: bytes) -> bytes:
    """32-byte SHA-256 of the domain tag byte followed by the payload."""
    return hashlib.sha256(bytes([domain_tag]) + payload).digest()


def content_id(payload: bytes) -> bytes:
    """Content address of raw bytes: plain SHA-256, no domain tag."""
    return hashlib.sha256(payload).digest()


def _check_timestamp(timestamp: int) -> int:
    """The timestamp itself, which is also its time key: numeric order and
    big-endian byte order coincide.  EncodingError outside 63 bits."""
    if not 0 <= timestamp <= MAX_TIMESTAMP:
        raise EncodingError(f"timestamp out of range: {timestamp}")
    return timestamp


def _take(data: bytes, off: int, n: int) -> bytes:
    """data[off:off + n] as bytes; IndexError, as indexing raises, when
    fewer than n bytes remain.  Each decoder turns that into its own
    error."""
    if off + n > len(data):
        raise IndexError("truncated")
    return bytes(data[off:off + n])


# The fixed-width scalars every committed layout is built from, and the
# run of n big-endian u64s, with and without the u32 count of an id list,
# compiled once for every n a one-byte count can give.
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_U64_RUNS = tuple(struct.Struct(f">{n}Q") for n in range(256))
_COUNTED_U64_RUNS = tuple(struct.Struct(f">I{n}Q") for n in range(256))


def _u64_run(n: int) -> struct.Struct:
    return _U64_RUNS[n] if n < 256 else struct.Struct(f">{n}Q")


def _pack_u64s(values) -> bytes:
    """The values as big-endian u64s with no count."""
    return _u64_run(len(values)).pack(*values)


def _pack_u64_list(values) -> bytes:
    """The counted id list both indexes commit: a u32 count, then the
    values as big-endian u64s."""
    n = len(values)
    run = _COUNTED_U64_RUNS[n] if n < 256 else struct.Struct(f">I{n}Q")
    return run.pack(n, *values)


# --- the layouts an index's writer and the light client share -------------
# Time index.  Each proof node starts with its kind byte.  In a hash-leaf
# record, two flag bits say whether each window edge has a digest-only
# bucket, and id counts are a one-byte varint.
P_PRUNED = 0
P_LEAF = 1
P_INTERNAL = 2
P_HASHLEAF = 3
_RANGE = struct.Struct(">QQ")              # a node's lo, hi
_HASHLEAF_HEAD = struct.Struct(">QQBI")    # lo, hi, flags, nrev
_KEY_COUNT = struct.Struct(">QB")          # a revealed bucket's key, count
# The DOM_INTERNAL preimages start with the node's head byte:
#   internal   0x01 ‖ child count u32 ‖ per child lo ‖ hi ‖ digest ‖ lo ‖ hi
#   hash node  0x02 ‖ crit root ‖ lo ‖ hi
_INTERNAL_HEAD = b"\x01"
_HASH_NODE_HEAD = b"\x02"
# The bucket preimages, each the whole SHA-256 input from DOM_BUCKET's tag
# on: the writer hands all but the tag to digest(), and the client hashes
# one with hashlib, the ids after an _IDS_HEADS head sliced from the VO.
#   ids     0x03 ‖ count u32 ‖ count × id u64
#   leaf    0x00 ‖ key u64 ‖ ids digest
#   branch  0x04 ‖ bit u8 ‖ left digest ‖ right digest
_IDS_HEAD = bytes((DOM_BUCKET, 0x03))
# the ids preimage up to the ids, for each count a one-byte count spells
_IDS_HEADS = tuple(_IDS_HEAD + _U32.pack(n) for n in range(0xFF))
_LEAF_HEAD = bytes((DOM_BUCKET, 0x00))
_BUCKET_LEAF = struct.Struct(">2sQ32s")    # _LEAF_HEAD, key, ids digest
_BRANCH_PREFIX = [bytes((DOM_BUCKET, 0x04, bit)) for bit in range(64)]

# Trie.  Keys are strings over ALPHABET, held as alphabet indices.
ALPHABET = "0123456789abcdef-:"
MAX_KEY_LEN = 64
# stands for a prefix character outside the alphabet: no label holds it
_NOT_IN_ALPHABET = 0xFF
# an ASCII byte's alphabet index, _NOT_IN_ALPHABET for any other byte; a
# string reaches it through encode("ascii", "replace"), which turns each
# non-ASCII character into one "?"
_TO_INDEX = bytes(ALPHABET.index(chr(b)) if chr(b) in ALPHABET
                  else _NOT_IN_ALPHABET for b in range(256))


def _indices(prefix: str) -> bytes:
    """prefix as alphabet indices, _NOT_IN_ALPHABET for other characters."""
    return prefix.encode("ascii", "replace").translate(_TO_INDEX)


# one-byte encodings; a dict, so a negative index fails as bytes([i]) would
_BYTE = {i: bytes([i]) for i in range(256)}
# A trie node's preimage: DOM_TRIE's tag ‖ label length u8 ‖ label ‖
# terminal u8 ‖ id count u32 ‖ ids ‖ child count u8 ‖ the children's items
# in index order.  A prefix VO holds all but the tag and terminal byte.
_TAG = bytes((DOM_TRIE,))
_TERMINAL = (b"\x00", b"\x01")            # by whether there are ids
# A prefix VO is claimed root ‖ mode u8 ‖ path length u8 ‖ path ‖ terminal.
MODE_NONMATCH = 0
MODE_MATCH = 1


@dataclass(frozen=True)
class DataEntry:
    """On-chain quintuple: amount, addresses, timestamp, optional media cids."""

    entry_id: int
    amount: int
    addresses: tuple[str, ...]
    timestamp: int
    image_cid: Optional[bytes] = None
    video_cid: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.entry_id < 0:
            raise EncodingError("entry_id must be non-negative")
        if self.amount < 0:
            raise EncodingError("amount must be non-negative")
        if not self.addresses:
            raise EncodingError("addresses must be non-empty")
        for addr in self.addresses:
            if not ADDRESS_RE.fullmatch(addr):
                raise EncodingError(f"malformed address: {addr!r}")
        _check_timestamp(self.timestamp)
        for cid in (self.image_cid, self.video_cid):
            if cid is not None and len(cid) != DIGEST_SIZE:
                raise EncodingError("content id must be 32 bytes")


def encode_data_entry_body(entry: DataEntry) -> bytes:
    amount = entry.amount.to_bytes((entry.amount.bit_length() + 7) // 8,
                                   "big")
    parts = [_U64.pack(entry.entry_id), _U32.pack(len(amount)), amount,
             _U32.pack(len(entry.addresses))]
    for addr in entry.addresses:
        parts += [_U32.pack(len(addr)), addr.encode("ascii")]
    parts.append(_U64.pack(entry.timestamp))
    for cid in (entry.image_cid, entry.video_cid):
        parts.append(b"\x00" if cid is None else b"\x01" + cid)
    return b"".join(parts)


def decode_data_entry_body(data: bytes, off: int) -> tuple[DataEntry, int]:
    """Inverse of encode_data_entry_body; raises EncodingError on bad input."""
    try:
        entry_id, = _U64.unpack_from(data, off)
        alen, = _U32.unpack_from(data, off + 8)
        amount = int.from_bytes(_take(data, off + 12, alen), "big")
        off += 12 + alen
        n_addr, = _U32.unpack_from(data, off)
        off += 4
        addrs = []
        for _ in range(n_addr):
            ln, = _U32.unpack_from(data, off)
            addrs.append(_take(data, off + 4, ln).decode("ascii"))
            off += 4 + ln
        timestamp, = _U64.unpack_from(data, off)
        off += 8
        cids = []
        for _ in range(2):
            if data[off] == 0:
                cids.append(None)
                off += 1
            else:
                cids.append(_take(data, off + 1, DIGEST_SIZE))
                off += 1 + DIGEST_SIZE
        return DataEntry(entry_id, amount, tuple(addrs), timestamp,
                         cids[0], cids[1]), off
    except (IndexError, struct.error, UnicodeDecodeError) as exc:
        raise EncodingError(f"bad entry encoding: {exc}") from None
