"""Bloom-filter-backed query cache, emptied on every write.

Results are keyed by the parsed AST itself, a frozen dataclass, so
statements that parse alike (spacing, keyword case) share one entry.  A
value is the tuple of verified, immutable DataEntry records a read
returned, from which every hit builds fresh rows.  The bloom filter, fed
the AST's own hash, answers "might this query be cached?" before the
dict lookup.  Staleness has one rule: every ledger write empties the
cache.  A full cache empties the same way, as a bloom filter cannot
delete.
"""
from __future__ import annotations

import hashlib

from chainquery.sqlgrammar import QueryAst

BLOOM_BITS = 1 << 20
BLOOM_HASHES = 7
# The most results held at once.  Between two writes the `mixed` benchmark
# caches at most 22 results (124 rows; seeds 1-3) and `read` never repeats
# a query, so the bound costs no hit and keeps a write-free run bounded.
MAX_CACHED = 1024


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


def _bloom_key(ast: QueryAst) -> bytes:
    return hash(ast).to_bytes(8, "big", signed=True)


class QueryCache:
    def __init__(self):
        self.epoch = 0  # writes seen
        self._bloom = BloomFilter()
        self._store: dict[QueryAst, tuple] = {}
        self.hits = 0
        self.misses = 0

    def _clear(self) -> None:
        if self._store:
            self._store = {}
            self._bloom = BloomFilter()

    def invalidate(self) -> None:
        """Count a write and drop every cached result."""
        self.epoch += 1
        self._clear()

    def get(self, ast: QueryAst):
        value = None
        if self._bloom.might_contain(_bloom_key(ast)):
            value = self._store.get(ast)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, ast: QueryAst, value: tuple) -> None:
        if len(self._store) >= MAX_CACHED:
            self._clear()
        self._bloom.add(_bloom_key(ast))
        self._store[ast] = value
