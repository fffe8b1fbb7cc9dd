"""Query cache, emptied on every write.

Results are keyed by the parsed AST itself, a frozen dataclass, so
statements that parse alike (spacing, keyword case) share one entry.  A
value is the tuple of verified, immutable DataEntry records a read
returned, from which every hit builds fresh rows.  A probe is one dict
lookup.  Staleness has one rule: every ledger write empties the cache.
A full cache empties the same way.  Fullness counts rows, not results, so
the cache holds at most `MAX_CACHED` entry references however large the
results are.
"""
from __future__ import annotations

import hashlib

from chainquery.sqlgrammar import QueryAst

BLOOM_BITS = 1 << 20
BLOOM_HASHES = 7
# The most rows the cache holds at once (a result counts as at least one,
# as even an empty one holds its key), and the most read statements an
# Engine keeps parsed (text -> AST, each text at most
# `sqlgrammar.PATTERN_MAX_LEN` characters; writes never empty that memo,
# only a full one empties).  Between two writes the `mixed` benchmark
# caches at most 22 results (124 rows; seeds 1-3) and parses 32 distinct
# reads in all, and `read` never repeats a query, so the bound costs no hit
# in either dict and keeps a write-free run bounded.  A result of more rows
# is never cached: 1,024 full-range results over 16,384 entries would
# otherwise hold 16M references (128 MiB).
MAX_CACHED = 1024


# Not used by the cache, whose dict lookup is cheaper than a probe here;
# kept because acceptance criterion 8 imports and tests it.
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
        self.epoch = 0  # writes seen
        self._store: dict[QueryAst, tuple] = {}
        self._rows = 0  # rows held, each result counted as at least one
        self.hits = 0
        self.misses = 0

    def invalidate(self) -> None:
        """Count a write and drop every cached result."""
        self.epoch += 1
        self._store, self._rows = {}, 0

    def get(self, ast: QueryAst):
        value = self._store.get(ast)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, ast: QueryAst, value: tuple) -> None:
        """Hold `value`, a tuple of rows, under `ast`, emptying first if
        it would take the cache past `MAX_CACHED` rows; a larger result is
        not held."""
        rows = max(len(value), 1)
        if rows > MAX_CACHED:
            return
        if self._rows + rows > MAX_CACHED:
            self._store, self._rows = {}, 0
        old = self._store.get(ast)
        if old is not None:
            self._rows -= max(len(old), 1)
        self._store[ast] = value
        self._rows += rows
