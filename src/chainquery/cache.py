"""Bloom-filter-backed query cache with epoch invalidation.

The bloom filter answers "might this query be cached?" before the exact
dict lookup, so a cold miss costs one probe of a bitset instead of hashing
into a large map.  Every write to the ledger bumps the epoch, which is
mixed into the cache fingerprint, so stale entries can never be returned:
there are no false negatives for the current epoch, and entries from prior
epochs are unreachable by construction, so invalidation frees them and
starts a clean bloom filter.
"""
from __future__ import annotations

import hashlib

from chainquery.sqlgrammar import QueryAst, ast_fingerprint

BLOOM_BITS = 1 << 20
BLOOM_HASHES = 7


class BloomFilter:
    def __init__(self):
        self._array = bytearray(BLOOM_BITS // 8)

    def _positions(self, key: bytes):
        h = hashlib.sha256(key).digest()
        a = int.from_bytes(h[:8], "big")
        b = int.from_bytes(h[8:16], "big") | 1
        for i in range(BLOOM_HASHES):
            yield (a + i * b) % BLOOM_BITS

    def add(self, key: bytes) -> None:
        for p in self._positions(key):
            self._array[p >> 3] |= 1 << (p & 7)

    def might_contain(self, key: bytes) -> bool:
        return all(self._array[p >> 3] & (1 << (p & 7))
                   for p in self._positions(key))


class QueryCache:
    def __init__(self):
        self.epoch = 0
        self._bloom = BloomFilter()
        self._store: dict[bytes, object] = {}
        self.hits = 0
        self.misses = 0

    def _key(self, ast: QueryAst) -> bytes:
        return hashlib.sha256(
            self.epoch.to_bytes(8, "big") + ast_fingerprint(ast)).digest()

    def invalidate(self) -> None:
        """Advance the epoch and free the previous epochs' results, which
        the new epoch's keys can never reach."""
        self.epoch += 1
        if self._store:
            self._store = {}
            self._bloom = BloomFilter()

    def get(self, ast: QueryAst):
        key = self._key(ast)
        if not self._bloom.might_contain(key):
            self.misses += 1
            return None
        value = self._store.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, ast: QueryAst, value: object) -> None:
        key = self._key(ast)
        self._bloom.add(key)
        self._store[key] = value
