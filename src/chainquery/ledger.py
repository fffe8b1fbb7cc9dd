"""Deterministic append-only ledger simulator.

Blocks hold data entries plus the operation records needed to replay
mutations (tombstones, supersessions), and anchor the root digests of both
indexes.  Identical ingest sequences produce identical digest chains.
"""
from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

from chainquery.core import (_U32, _U64, DIGEST_SIZE, DOM_ANCHOR,
                             EMPTY_DIGEST, DataEntry, EncodingError, _take,
                             decode_data_entry_body, digest,
                             encode_data_entry_body)

OP_DELETE = 1
OP_UPDATE = 2
_OP = struct.Struct(">BQ")    # an op record: kind u8, target entry_id u64


@contextlib.contextmanager
def replace_when_whole(*paths: str):
    """Yield path + ".tmp" for each path; move each over its path once the
    block completes, or remove them all if it raises."""
    tmps = [path + ".tmp" for path in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


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
    ops: tuple[tuple[int, int], ...]  # (OP_DELETE or OP_UPDATE, target id)
    bhash_root: bytes
    trie_root: bytes
    block_digest: bytes

    @property
    def anchored_roots(self) -> tuple[bytes, bytes]:
        return (self.bhash_root, self.trie_root)


def _block_body(height: int, entries, ops, bhash_root: bytes,
                trie_root: bytes) -> bytes:
    parts = [_U64.pack(height), _U32.pack(len(entries))]
    for entry in entries:
        body = encode_data_entry_body(entry)
        parts += [_U32.pack(len(body)), body]
    parts.append(_U32.pack(len(ops)))
    parts += [_OP.pack(kind, target) for kind, target in ops]
    parts += [bhash_root, trie_root]
    return b"".join(parts)


def _record(block: Block) -> bytes:
    """A block's log record: its prev digest, then its body.  The block
    digest is the anchor digest of this record."""
    return block.prev_digest + _block_body(
        block.height, block.entries, block.ops, block.bhash_root,
        block.trie_root)


def _parse_record(record: bytes):
    """(entries, roots, ops) of a log record.  The prev digest and the
    height are left to the caller, which checks the record against the
    block it builds; every count is bounded by the bytes left to read."""
    try:
        pos = DIGEST_SIZE + 8
        n_entries, = _U32.unpack_from(record, pos)
        pos += 4
        entries = []
        for _ in range(n_entries):
            ln, = _U32.unpack_from(record, pos)
            pos += 4
            entries.append(
                decode_data_entry_body(record[pos:pos + ln], 0)[0])
            pos += ln
        n_ops, = _U32.unpack_from(record, pos)
        pos += 4
        ops = []
        for _ in range(n_ops):
            ops.append(_OP.unpack_from(record, pos))
            if ops[-1][0] not in (OP_DELETE, OP_UPDATE):
                raise LedgerDecodeError(f"unknown op kind {ops[-1][0]}")
            pos += _OP.size
        roots = (_take(record, pos, DIGEST_SIZE),
                 _take(record, pos + DIGEST_SIZE, DIGEST_SIZE))
    except (EncodingError, struct.error, IndexError) as exc:
        raise LedgerDecodeError(str(exc)) from None
    return entries, roots, ops


class Ledger:
    """Single append-only chain; genesis prev digest is 32 zero bytes."""

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self._next_entry_id = 0

    @property
    def height(self) -> int:
        return len(self.blocks) - 1

    def append_block(self, entries, roots: tuple[bytes, bytes],
                     ops=()) -> Block:
        entries = tuple(entries)
        for i, entry in enumerate(entries, self._next_entry_id):
            if entry.entry_id != i:
                raise NonDenseEntryIds(
                    f"expected entry_id {i}, got {entry.entry_id}")
        ops = tuple(ops)
        prev = self.blocks[-1].block_digest if self.blocks else EMPTY_DIGEST
        height = len(self.blocks)
        record = prev + _block_body(height, entries, ops, roots[0], roots[1])
        block = Block(height, prev, entries, ops, roots[0], roots[1],
                      digest(DOM_ANCHOR, record))
        self.blocks.append(block)
        self._next_entry_id += len(entries)
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
            if (block.prev_digest != prev
                    or digest(DOM_ANCHOR, _record(block))
                    != block.block_digest):
                return False
            prev = block.block_digest
        return True

    # -- persistence --

    def save(self, path: str) -> None:
        """Length-prefixed binary log of block records; a failed save
        leaves the old file whole."""
        with replace_when_whole(path) as (tmp,), open(tmp, "wb") as fh:
            for block in self.blocks:
                record = _record(block)
                fh.write(len(record).to_bytes(4, "big"))
                fh.write(record)

    @classmethod
    def load(cls, path: str) -> "Ledger":
        """Inverse of save: each record is appended through append_block,
        and its anchor digest must equal the new block's digest, so a
        wrong height or prev digest, or a byte save would not write, is a
        LedgerDecodeError."""
        ledger = cls()
        with open(path, "rb") as fh:
            data = fh.read()
        off = 0
        while off < len(data):
            ln = int.from_bytes(data[off:off + 4], "big")
            record = data[off + 4:off + 4 + ln]
            if off + 4 > len(data) or len(record) != ln:
                raise LedgerDecodeError("truncated record")
            off += 4 + ln
            entries, roots, ops = _parse_record(record)
            try:
                block = ledger.append_block(entries, roots, ops)
            except NonDenseEntryIds as exc:
                raise LedgerDecodeError(f"non-dense entry ids in log: "
                                        f"{exc}") from None
            if digest(DOM_ANCHOR, record) != block.block_digest:
                raise LedgerDecodeError(
                    f"record {block.height} is not the record of the block "
                    "it decodes to (height, prev digest or encoding)")
        return ledger
