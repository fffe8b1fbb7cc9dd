"""Core domain types, canonical byte encoding, and the digest primitive.

The canonical encoding is the normative wire layout every verifiable
structure builds on: a one-byte type tag precedes each item, integers are
big-endian, variable-size fields carry a 4-byte big-endian length prefix,
and lists carry a 4-byte big-endian element count.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

# Type tags for canonical_encode.
TAG_TIMEKEY = 0x01
TAG_DIGEST = 0x02
TAG_CONTENT_ID = 0x03
TAG_DATA_ENTRY = 0x04
TAG_LIST = 0x05

# Domain-separation tags for digest().
DOM_LEAF = 0x00
DOM_INTERNAL = 0x01
DOM_BUCKET = 0x02
DOM_TRIE = 0x03
DOM_ANCHOR = 0x04

DIGEST_SIZE = 32
EMPTY_DIGEST = b"\x00" * DIGEST_SIZE

MAX_TIMESTAMP = (1 << 63) - 1

ADDRESS_RE = re.compile(r"^0x[0-9a-f]{40}$")


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


class TimeKey(int):
    """Order-preserving 64-bit key derived from a unix timestamp.

    The key function is the identity map onto an unsigned 64-bit integer,
    so numeric order and big-endian byte order coincide.
    """

    def __new__(cls, timestamp: int) -> "TimeKey":
        if not 0 <= timestamp <= MAX_TIMESTAMP:
            raise EncodingError(f"timestamp out of range: {timestamp}")
        return super().__new__(cls, timestamp)

    def to_bytes8(self) -> bytes:
        return int(self).to_bytes(8, "big")


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
            if not ADDRESS_RE.match(addr):
                raise EncodingError(f"malformed address: {addr!r}")
        if not 0 <= self.timestamp <= MAX_TIMESTAMP:
            raise EncodingError("timestamp must fit in 63 bits")
        for cid in (self.image_cid, self.video_cid):
            if cid is not None and len(cid) != DIGEST_SIZE:
                raise EncodingError("content id must be 32 bytes")


def _encode_uint(value: int, width: int) -> bytes:
    return value.to_bytes(width, "big")


def _encode_var_bytes(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


def _encode_biguint(value: int) -> bytes:
    raw = value.to_bytes((value.bit_length() + 7) // 8, "big") if value else b""
    return _encode_var_bytes(raw)


def _encode_optional_digest(value: Optional[bytes]) -> bytes:
    if value is None:
        return b"\x00"
    return b"\x01" + value


def encode_data_entry_body(entry: DataEntry) -> bytes:
    parts = [
        _encode_uint(entry.entry_id, 8),
        _encode_biguint(entry.amount),
        _encode_uint(len(entry.addresses), 4),
    ]
    for addr in entry.addresses:
        parts.append(_encode_var_bytes(addr.encode("ascii")))
    parts.append(_encode_uint(entry.timestamp, 8))
    parts.append(_encode_optional_digest(entry.image_cid))
    parts.append(_encode_optional_digest(entry.video_cid))
    return b"".join(parts)


def decode_data_entry_body(data: bytes, off: int) -> tuple[DataEntry, int]:
    """Inverse of encode_data_entry_body; raises EncodingError on bad input."""
    try:
        entry_id = int.from_bytes(data[off:off + 8], "big")
        off += 8
        alen = int.from_bytes(data[off:off + 4], "big")
        amount = int.from_bytes(data[off + 4:off + 4 + alen], "big")
        off += 4 + alen
        n_addr = int.from_bytes(data[off:off + 4], "big")
        off += 4
        addrs = []
        for _ in range(n_addr):
            ln = int.from_bytes(data[off:off + 4], "big")
            addrs.append(data[off + 4:off + 4 + ln].decode("ascii"))
            off += 4 + ln
        timestamp = int.from_bytes(data[off:off + 8], "big")
        off += 8
        cids = []
        for _ in range(2):
            if data[off] == 0:
                cids.append(None)
                off += 1
            else:
                cids.append(bytes(data[off + 1:off + 33]))
                if len(cids[-1]) != DIGEST_SIZE:
                    raise EncodingError("truncated cid")
                off += 33
        return DataEntry(entry_id, amount, tuple(addrs), timestamp,
                         cids[0], cids[1]), off
    except (IndexError, UnicodeDecodeError) as exc:
        raise EncodingError(f"bad entry encoding: {exc}") from None


def canonical_encode(item: object) -> bytes:
    """Injective tagged encoding of a core value or a homogeneous list."""
    if isinstance(item, TimeKey):
        return bytes([TAG_TIMEKEY]) + item.to_bytes8()
    if isinstance(item, DataEntry):
        return bytes([TAG_DATA_ENTRY]) + encode_data_entry_body(item)
    if isinstance(item, (bytes, bytearray)):
        if len(item) != DIGEST_SIZE:
            raise EncodingError("bare bytes must be a 32-byte digest/cid")
        return bytes([TAG_DIGEST]) + bytes(item)
    if isinstance(item, (list, tuple)):
        body = b"".join(canonical_encode(elem) for elem in item)
        return bytes([TAG_LIST]) + _encode_uint(len(item), 4) + body
    raise EncodingError(f"cannot canonically encode {type(item).__name__}")
