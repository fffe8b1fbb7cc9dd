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


def _take_u64s(data: bytes, off: int, n: int) -> list[int]:
    """The n big-endian u64s at data[off:], as a list; IndexError, as
    _take raises, when fewer than 8 * n bytes remain."""
    if off + 8 * n > len(data):
        raise IndexError("truncated")
    return list(_u64_run(n).unpack_from(data, off))


def _pack_u64s(values) -> bytes:
    """The values as big-endian u64s with no count, as _take_u64s reads
    them."""
    return _u64_run(len(values)).pack(*values)


def _pack_u64_list(values) -> bytes:
    """The counted id list both indexes commit: a u32 count, then the
    values as big-endian u64s."""
    n = len(values)
    run = _COUNTED_U64_RUNS[n] if n < 256 else struct.Struct(f">I{n}Q")
    return run.pack(n, *values)


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
