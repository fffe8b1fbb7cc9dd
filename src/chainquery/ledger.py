"""Deterministic append-only ledger simulator.

Blocks hold data entries plus the operation records needed to replay
mutations (tombstones, supersessions), and anchor the root digests of both
indexes.  Identical ingest sequences produce identical digest chains.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Optional

from chainquery.core import (DIGEST_SIZE, DOM_ANCHOR, EMPTY_DIGEST, DataEntry,
                             EncodingError, decode_data_entry_body, digest,
                             encode_data_entry_body)

OP_INSERT = 0
OP_DELETE = 1
OP_UPDATE = 2


class NonDenseEntryIds(ValueError):
    pass


class UnknownHeight(KeyError):
    pass


class LedgerDecodeError(ValueError):
    pass


@dataclass(frozen=True)
class Block:
    height: int
    prev_digest: bytes
    entries: tuple[DataEntry, ...]
    ops: tuple[tuple[int, int], ...]  # (op kind, target entry_id)
    bhash_root: bytes
    trie_root: bytes
    block_digest: bytes

    @property
    def anchored_roots(self) -> tuple[bytes, bytes]:
        return (self.bhash_root, self.trie_root)


def _block_body(height: int, entries, ops, bhash_root: bytes,
                trie_root: bytes) -> bytes:
    parts = [height.to_bytes(8, "big"), len(entries).to_bytes(4, "big")]
    for entry in entries:
        body = encode_data_entry_body(entry)
        parts.append(len(body).to_bytes(4, "big"))
        parts.append(body)
    parts.append(len(ops).to_bytes(4, "big"))
    for kind, target in ops:
        parts.append(struct.pack(">BQ", kind, target))
    parts.append(bhash_root)
    parts.append(trie_root)
    return b"".join(parts)


def block_digest_of(prev_digest: bytes, body: bytes) -> bytes:
    return digest(DOM_ANCHOR, prev_digest + body)


class Ledger:
    """Single append-only chain; genesis prev digest is 32 zero bytes."""

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self._next_entry_id = 0

    @property
    def height(self) -> int:
        return len(self.blocks) - 1

    def append_block(self, entries, roots: tuple[bytes, bytes],
                     ops: Optional[list[tuple[int, int]]] = None) -> Block:
        entries = tuple(entries)
        for entry in entries:
            if entry.entry_id != self._next_entry_id:
                raise NonDenseEntryIds(
                    f"expected entry_id {self._next_entry_id}, "
                    f"got {entry.entry_id}")
            self._next_entry_id += 1
        if ops is None:
            ops = [(OP_INSERT, e.entry_id) for e in entries]
        ops = tuple(ops)
        prev = self.blocks[-1].block_digest if self.blocks else EMPTY_DIGEST
        height = len(self.blocks)
        body = _block_body(height, entries, ops, roots[0], roots[1])
        block = Block(height, prev, entries, ops, roots[0], roots[1],
                      block_digest_of(prev, body))
        self.blocks.append(block)
        return block

    def trusted_root(self, height: int) -> tuple[bytes, bytes]:
        if not 0 <= height < len(self.blocks):
            raise UnknownHeight(height)
        return self.blocks[height].anchored_roots

    def latest_roots(self) -> tuple[bytes, bytes]:
        if not self.blocks:
            raise UnknownHeight("empty chain")
        return self.blocks[-1].anchored_roots

    def verify_chain(self) -> bool:
        """Recompute every block digest; False if any link is broken."""
        prev = EMPTY_DIGEST
        for block in self.blocks:
            if block.prev_digest != prev:
                return False
            body = _block_body(block.height, block.entries, block.ops,
                               block.bhash_root, block.trie_root)
            if block_digest_of(prev, body) != block.block_digest:
                return False
            prev = block.block_digest
        return True

    # -- persistence --

    def save(self, path: str) -> None:
        """Length-prefixed binary log of block records."""
        with open(path, "wb") as fh:
            for block in self.blocks:
                record = block.prev_digest + _block_body(
                    block.height, block.entries, block.ops,
                    block.bhash_root, block.trie_root)
                fh.write(len(record).to_bytes(4, "big"))
                fh.write(record)

    @classmethod
    def load(cls, path: str) -> "Ledger":
        ledger = cls()
        with open(path, "rb") as fh:
            data = fh.read()
        off = 0
        while off < len(data):
            if off + 4 > len(data):
                raise LedgerDecodeError("truncated record length")
            ln = int.from_bytes(data[off:off + 4], "big")
            record = data[off + 4:off + 4 + ln]
            if len(record) != ln:
                raise LedgerDecodeError("truncated record")
            off += 4 + ln
            ledger._append_record(record)
        return ledger

    def _append_record(self, record: bytes) -> None:
        try:
            prev = record[:DIGEST_SIZE]
            pos = DIGEST_SIZE
            height = int.from_bytes(record[pos:pos + 8], "big")
            pos += 8
            n_entries = int.from_bytes(record[pos:pos + 4], "big")
            pos += 4
            entries = []
            for _ in range(n_entries):
                ln = int.from_bytes(record[pos:pos + 4], "big")
                entry, _ = decode_data_entry_body(record, pos + 4)
                entries.append(entry)
                pos += 4 + ln
            n_ops = int.from_bytes(record[pos:pos + 4], "big")
            pos += 4
            ops = []
            for _ in range(n_ops):
                kind, target = struct.unpack_from(">BQ", record, pos)
                ops.append((kind, target))
                pos += 9
            bhash_root = record[pos:pos + DIGEST_SIZE]
            trie_root = record[pos + DIGEST_SIZE:pos + 2 * DIGEST_SIZE]
            if len(trie_root) != DIGEST_SIZE:
                raise LedgerDecodeError("truncated roots")
        except (EncodingError, struct.error, IndexError) as exc:
            raise LedgerDecodeError(str(exc)) from None
        if height != len(self.blocks):
            raise LedgerDecodeError("non-dense block heights")
        expected_prev = (self.blocks[-1].block_digest if self.blocks
                         else EMPTY_DIGEST)
        if prev != expected_prev:
            raise LedgerDecodeError("broken digest chain in log")
        for entry in entries:
            if entry.entry_id != self._next_entry_id:
                raise LedgerDecodeError("non-dense entry ids in log")
            self._next_entry_id += 1
        body = _block_body(height, entries, ops, bhash_root, trie_root)
        self.blocks.append(Block(height, prev, tuple(entries), tuple(ops),
                                 bhash_root, trie_root,
                                 block_digest_of(prev, body)))

    def export_jsonl(self, path: str) -> None:
        """Human-readable companion export, one JSON object per block."""
        with open(path, "w") as fh:
            for block in self.blocks:
                fh.write(json.dumps({
                    "height": block.height,
                    "prev_digest": block.prev_digest.hex(),
                    "block_digest": block.block_digest.hex(),
                    "bhash_root": block.bhash_root.hex(),
                    "trie_root": block.trie_root.hex(),
                    "ops": [[kind, target] for kind, target in block.ops],
                    "entries": [{
                        "entry_id": e.entry_id,
                        "amount": e.amount,
                        "addresses": list(e.addresses),
                        "timestamp": e.timestamp,
                        "imagecid": e.image_cid.hex() if e.image_cid else None,
                        "videocid": e.video_cid.hex() if e.video_cid else None,
                    } for e in block.entries],
                }) + "\n")
