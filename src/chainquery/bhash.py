"""Time-range index: a B+Tree over time keys that converts its leaves into
hash-bucket nodes once the entry population reaches a threshold.

Every node carries a digest; internal digests commit each child's key range
so a verifier can reject proofs that hide an overlapping subtree.  Converted
leaves commit their buckets through a sorted merkle layer, which keeps
range-proof size logarithmic in the number of resident keys.
"""
from __future__ import annotations

import hashlib
import struct
from bisect import bisect_left, insort
from typing import Optional

from chainquery import _kernels
from chainquery.core import (DOM_BUCKET, DOM_INTERNAL, DOM_LEAF, EMPTY_DIGEST,
                             MAX_TIMESTAMP, VODecodeError, _check_timestamp,
                             _take, digest)
from chainquery.gas import GasMeter

BRANCHING = 16
DEFAULT_THRESHOLD = 10
# Deepest proof nesting the decoder accepts.  Split nodes keep at least 8
# children, so an honest tree this deep would hold over 2^64 entries.
MAX_PROOF_DEPTH = 64


class DuplicateEntry(ValueError):
    pass


# --- digest compositions -------------------------------------------------

def leaf_digest(pairs, lo: int, hi: int) -> bytes:
    """Pre-conversion leaf: digest over the sorted (key, entry_id) pairs
    and the leaf's key range."""
    return digest(DOM_LEAF, lo.to_bytes(8, "big") + hi.to_bytes(8, "big")
                  + _kernels.pack_u64_pairs(pairs))


def bucket_ids_digest(entry_ids) -> bytes:
    return digest(DOM_BUCKET, b"\x03" + _kernels.pack_u64_list(entry_ids))


def bucket_leaf_digest(key: int, ids_digest: bytes) -> bytes:
    return digest(DOM_BUCKET, b"\x00" + key.to_bytes(8, "big") + ids_digest)


def fingerprint_digest(entry_ids) -> bytes:
    """Compressed fingerprint of a converted node's former entry-id set."""
    return digest(DOM_BUCKET, b"\x02" + _kernels.pack_u64_list(sorted(entry_ids)))


def hash_node_digest(fp: bytes, n_buckets: int, merkle_root: bytes,
                     lo: int, hi: int) -> bytes:
    return digest(DOM_INTERNAL,
                  b"\x02" + fp + n_buckets.to_bytes(4, "big") + merkle_root
                  + lo.to_bytes(8, "big") + hi.to_bytes(8, "big"))


def internal_digest(child_triples, lo: int, hi: int) -> bytes:
    """child_triples: iterable of (child_lo, child_hi, child_digest)."""
    parts = [b"\x01", len(child_triples).to_bytes(4, "big")]
    for clo, chi, d in child_triples:
        parts.append(clo.to_bytes(8, "big"))
        parts.append(chi.to_bytes(8, "big"))
        parts.append(d)
    parts.append(lo.to_bytes(8, "big"))
    parts.append(hi.to_bytes(8, "big"))
    return digest(DOM_INTERNAL, b"".join(parts))


def _merkle_levels(leaves):
    """Every merkle level, bottom up; levels[0] is `leaves` itself."""
    levels = [leaves]
    while len(levels[-1]) > 1:
        levels.append(_kernels.merkle_level(levels[-1], DOM_BUCKET))
    return levels


def _update_merkle_levels(levels, changed, start) -> None:
    """Bring the levels above levels[0] up to date after levels[0] changed
    at the sorted positions `changed` and, unless start is None, at every
    position from `start` on (leaves only ever get added).  Each affected
    slice is refolded from an even index, so an odd tail is promoted
    exactly as in a full rebuild."""
    lvl = 0
    while len(levels[lvl]) > 1:
        src = levels[lvl]
        if lvl + 1 == len(levels):
            levels.append([])
            start = 0
        dst = levels[lvl + 1]
        if start is not None:
            start -= start % 2
            dst[start // 2:] = _kernels.merkle_level(src[start:], DOM_BUCKET)
        parents = []
        for pos in changed:
            pos -= pos % 2
            if start is not None and pos >= start:
                break
            if parents and parents[-1] == pos // 2:
                continue
            dst[pos // 2] = _kernels.merkle_level(src[pos:pos + 2],
                                                  DOM_BUCKET)[0]
            parents.append(pos // 2)
        changed = parents
        if start is not None:
            start //= 2
        lvl += 1


def _merkle_window_siblings(levels, start: int, count: int):
    """Sibling digests needed to recompute the root from a contiguous
    leaf window; ordered exactly as the verifier consumes them."""
    sibs = []
    a, b = start, start + count
    for lvl in levels[:-1]:
        m = len(lvl)
        if a % 2 == 1:
            sibs.append(lvl[a - 1])
            a -= 1
        if b % 2 == 1:
            if b < m:
                sibs.append(lvl[b])
                b += 1
            # else: odd tail promotes unchanged
        a, b = a // 2, (b + 1) // 2
    return sibs


def _merkle_root_from_window(n: int, start: int, window, sibs):
    """Recompute the merkle root of n leaves from a contiguous window of
    leaf digests plus the sibling stream produced by the prover."""
    if n == 0:
        return EMPTY_DIGEST if not window and not sibs else None
    if not window:
        return None
    prefix = bytes([DOM_BUCKET]) + b"\x01"
    cur = list(window)
    si = 0  # next unread sibling
    a, b = start, start + len(window)
    m = n
    if b > m:
        return None
    while m > 1:
        # the row spans [a, b) once widened to even a and, short of the
        # level's end, even b; only a row ending the level has an odd tail
        if a % 2 == 1:
            if si == len(sibs):
                return None
            cur = [sibs[si]] + cur
            si += 1
            a -= 1
        if b % 2 == 1 and b < m:
            if si == len(sibs):
                return None
            cur.append(sibs[si])
            si += 1
            b += 1
        nxt = [hashlib.sha256(prefix + cur[i] + cur[i + 1]).digest()
               for i in range(0, len(cur) - 1, 2)]
        if len(cur) % 2:
            nxt.append(cur[-1])
        cur = nxt
        a, b, m = a // 2, (b + 1) // 2, (m + 1) // 2
    if si != len(sibs) or len(cur) != 1:
        return None
    return cur[0]


# --- nodes ---------------------------------------------------------------

class BHashNode:
    __slots__ = ("is_leaf", "is_hash_node", "pairs", "children",
                 "lo", "hi", "buckets", "bucket_keys", "bucket_leaves",
                 "merkle_cache", "merkle_changed", "merkle_from", "dirty",
                 "fingerprint", "node_digest")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.is_hash_node = False
        self.pairs = [] if is_leaf else None     # [(key, entry_id)] sorted
        self.children = None if is_leaf else []  # [BHashNode]
        self.lo = 0
        self.hi = 0
        self.buckets = None        # {key: sorted [entry_id]}
        self.bucket_keys = None    # sorted [key]
        self.bucket_leaves = None  # leaf digests aligned with bucket_keys
        self.merkle_cache = None   # merkle levels; [0] is bucket_leaves
        # bucket_leaves positions the cached levels have not absorbed yet:
        # replaced leaves, and every position from the first new leaf on
        self.merkle_changed: set[int] = set()
        self.merkle_from: Optional[int] = None
        self.dirty = False         # digest stale until the next flush
        self.fingerprint = None
        self.node_digest = EMPTY_DIGEST

    def merkle_levels_cached(self):
        if self.merkle_cache is None:
            self.merkle_cache = _merkle_levels(self.bucket_leaves)
        elif self.merkle_changed or self.merkle_from is not None:
            _update_merkle_levels(self.merkle_cache,
                                  sorted(self.merkle_changed),
                                  self.merkle_from)
        self.merkle_changed.clear()
        self.merkle_from = None
        return self.merkle_cache

    def recompute_digest(self, meter: Optional[GasMeter]) -> None:
        if self.is_hash_node:
            levels = self.merkle_levels_cached()
            root = levels[-1][0] if self.bucket_leaves else EMPTY_DIGEST
            self.node_digest = hash_node_digest(
                self.fingerprint, len(self.bucket_leaves), root,
                self.lo, self.hi)
        elif self.is_leaf:
            self.node_digest = leaf_digest(self.pairs, self.lo, self.hi)
        else:
            triples = [(c.lo, c.hi, c.node_digest) for c in self.children]
            self.node_digest = internal_digest(triples, self.lo, self.hi)
        if meter:
            meter.compute()


# --- verification objects ------------------------------------------------

# Proof node kinds (wire tags).
P_PRUNED = 0
P_LEAF = 1
P_INTERNAL = 2
P_HASHLEAF = 3

# Window entry kinds inside a hash-leaf proof.
W_REVEALED = 0
W_DIGEST_ONLY = 1


class RangeVO:
    """Proof that a range query's results are exactly the entries the
    anchored tree holds in [start_key, end_key]."""

    def __init__(self, claimed_root: bytes, proof):
        self.claimed_root = claimed_root
        self.proof = proof

    # proof nodes are plain tuples:
    #   (P_PRUNED, lo, hi, digest)
    #   (P_LEAF, lo, hi, pairs)
    #   (P_INTERNAL, lo, hi, [children])
    #   (P_HASHLEAF, lo, hi, fingerprint, n_buckets, window_start,
    #    [(kind, key, ids_or_digest)], [sibling digests])

    def to_bytes(self) -> bytes:
        return self.claimed_root + _encode_proof(self.proof)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RangeVO":
        if len(data) < 32:
            raise VODecodeError("truncated")
        root = bytes(data[:32])
        proof, off = _decode_proof(data, 32, 0)
        if off != len(data):
            raise VODecodeError("trailing bytes")
        return cls(root, proof)


# --- wire format for proof trees ----------------------------------------

def _encode_proof(node) -> bytes:
    kind = node[0]
    if kind == P_PRUNED:
        return struct.pack(">BQQ", kind, node[1], node[2]) + node[3]
    if kind == P_LEAF:
        pairs = node[3]
        return (struct.pack(">BQQI", kind, node[1], node[2], len(pairs))
                + _kernels.pack_u64_pairs(pairs)[4:])
    if kind == P_INTERNAL:
        body = b"".join(_encode_proof(c) for c in node[3])
        return struct.pack(">BQQI", kind, node[1], node[2], len(node[3])) + body
    # P_HASHLEAF.  Digest-only window entries only ever sit at the window
    # edges, so two flag bits replace per-entry kind bytes, and id counts
    # use a one-byte varint: revealed buckets cost 8+1+8*ids bytes.
    _, lo, hi, fp, n, wstart, window, sibs = node
    first_dig = bool(window) and window[0][0] == W_DIGEST_ONLY
    last_dig = len(window) > 1 and window[-1][0] == W_DIGEST_ONLY
    revealed = window[1 if first_dig else 0:
                      len(window) - 1 if last_dig else len(window)]
    flags = int(first_dig) | (int(last_dig) << 1)
    parts = [struct.pack(">BQQ", kind, lo, hi), fp,
             struct.pack(">IIBI", n, wstart, flags, len(revealed))]
    if first_dig:
        parts.append(struct.pack(">Q", window[0][1]) + window[0][2])
    for _, key, ids in revealed:
        parts.append(struct.pack(">Q", key))
        if len(ids) < 0xFF:
            parts.append(bytes([len(ids)]))
        else:
            parts.append(b"\xff" + struct.pack(">I", len(ids)))
        parts.append(_kernels.pack_u64_list(ids)[4:])
    if last_dig:
        parts.append(struct.pack(">Q", window[-1][1]) + window[-1][2])
    parts.append(struct.pack(">I", len(sibs)))
    parts.extend(sibs)
    return b"".join(parts)


def _decode_proof(data: bytes, off: int, depth: int):
    if depth > MAX_PROOF_DEPTH:
        raise VODecodeError("proof nested too deep")
    try:
        kind = data[off]
        if kind == P_PRUNED:
            lo, hi = struct.unpack_from(">QQ", data, off + 1)
            return (P_PRUNED, lo, hi, _take(data, off + 17, 32)), off + 49
        if kind == P_LEAF:
            lo, hi, n = struct.unpack_from(">QQI", data, off + 1)
            raw = _take(data, off + 21, 16 * n)
            flat = struct.unpack(f">{2 * n}Q", raw)
            return (P_LEAF, lo, hi, list(zip(flat[::2], flat[1::2]))), \
                off + 21 + len(raw)
        if kind == P_INTERNAL:
            lo, hi, n = struct.unpack_from(">QQI", data, off + 1)
            off += 21
            children = []
            for _ in range(n):
                child, off = _decode_proof(data, off, depth + 1)
                children.append(child)
            return (P_INTERNAL, lo, hi, children), off
        if kind == P_HASHLEAF:
            lo, hi = struct.unpack_from(">QQ", data, off + 1)
            fp = _take(data, off + 17, 32)
            n, wstart, flags, nrev = struct.unpack_from(">IIBI", data,
                                                        off + 49)
            if flags & ~0x03:
                raise VODecodeError("bad window flags")
            off += 62
            window = []

            def digest_entry(off):
                key, = struct.unpack_from(">Q", data, off)
                return (W_DIGEST_ONLY, key, _take(data, off + 8, 32)), off + 40

            if flags & 1:
                entry, off = digest_entry(off)
                window.append(entry)
            for _ in range(nrev):
                key, = struct.unpack_from(">Q", data, off)
                off += 8
                cnt = data[off]
                off += 1
                if cnt == 0xFF:
                    cnt, = struct.unpack_from(">I", data, off)
                    off += 4
                raw = _take(data, off, 8 * cnt)
                ids = list(struct.unpack(f">{cnt}Q", raw))
                off += len(raw)
                window.append((W_REVEALED, key, ids))
            if flags & 2:
                entry, off = digest_entry(off)
                window.append(entry)
            ns, = struct.unpack_from(">I", data, off)
            raw = _take(data, off + 4, 32 * ns)
            sibs = [raw[i:i + 32] for i in range(0, len(raw), 32)]
            return (P_HASHLEAF, lo, hi, fp, n, wstart, window, sibs), \
                off + 4 + len(raw)
        raise VODecodeError(f"bad proof kind {kind}")
    except (IndexError, struct.error) as exc:
        raise VODecodeError(str(exc)) from None


# --- the tree ------------------------------------------------------------

class BHashTree:
    """Converting B+Tree over time keys with verifiable range queries.

    threshold_t=None disables conversion (the plain-B+Tree variant used
    for the VO-size comparison).

    Inserts only mark the nodes they change; root_digest() recomputes the
    marked digests once, children before parents.
    """

    def __init__(self, threshold_t: Optional[int] = DEFAULT_THRESHOLD,
                 meter: Optional[GasMeter] = None):
        if threshold_t is not None and threshold_t <= 0:
            raise ValueError("threshold_t must be positive")
        self.threshold_t = threshold_t
        self.meter = meter
        self.root = BHashNode(is_leaf=True)
        self.root.recompute_digest(None)
        self.entry_count = 0
        self.node_count = 1
        self.converted = False
        self._stale = False
        self._inserted: set[int] = set()

    def root_digest(self) -> bytes:
        if self._stale:
            self._flush_node(self.root)
            self._stale = False
        return self.root.node_digest

    def _flush_node(self, node: BHashNode) -> None:
        if not node.dirty:
            return
        if not node.is_leaf:
            for child in node.children:
                self._flush_node(child)
        node.recompute_digest(self.meter)
        node.dirty = False

    @property
    def depth(self) -> int:
        d, node = 1, self.root
        while not node.is_leaf:
            d += 1
            node = node.children[0]
        return d

    # -- insertion --

    def insert(self, entry_id: int, timestamp: int) -> None:
        if entry_id in self._inserted:
            raise DuplicateEntry(f"entry {entry_id} already inserted")
        key = _check_timestamp(timestamp)
        if (self.threshold_t is not None and not self.converted
                and self.entry_count >= self.threshold_t):
            self._convert_node(self.root)
            self.converted = True
        path = []
        node = self.root
        self._visit(node)
        while not node.is_leaf:
            idx = self._route(node, key)
            path.append((node, idx))
            node = node.children[idx]
            self._visit(node)
        if node.is_hash_node:
            self._bucket_insert(node, key, entry_id)
        else:
            insort(node.pairs, (key, entry_id))
        self._touch(node)
        if len(node.pairs) > BRANCHING:  # hash nodes keep no pairs
            self._split(node, path)
        else:
            for parent, _ in reversed(path):
                self._touch(parent)
        self._inserted.add(entry_id)
        self.entry_count += 1

    def _touch(self, node: BHashNode) -> None:
        """Record a change to node: refresh its key range from its pairs,
        buckets or children, and leave its digest to the next flush."""
        if node.is_hash_node:
            node.lo, node.hi = node.bucket_keys[0], node.bucket_keys[-1]
        elif node.is_leaf:
            node.lo, node.hi = node.pairs[0][0], node.pairs[-1][0]
        else:
            node.lo, node.hi = node.children[0].lo, node.children[-1].hi
        node.dirty = True
        self._stale = True
        if self.meter:
            self.meter.write()

    def _visit(self, node: BHashNode) -> None:
        if self.meter:
            self.meter.read()

    def _route(self, node: BHashNode, key: int) -> int:
        for i, child in enumerate(node.children):
            if key <= child.hi:
                return i
        return len(node.children) - 1

    def _split(self, node: BHashNode, path) -> None:
        """Move the upper half of an over-full node into a new right
        sibling, placed under a new root or in the parent, which splits in
        turn when over-full; path holds node's ancestors as (node, index)."""
        sibling = BHashNode(is_leaf=node.is_leaf)
        self.node_count += 1
        if node.is_leaf:
            mid = len(node.pairs) // 2
            node.pairs, sibling.pairs = node.pairs[:mid], node.pairs[mid:]
        else:
            mid = len(node.children) // 2
            node.children, sibling.children = (node.children[:mid],
                                               node.children[mid:])
        self._touch(node)
        self._touch(sibling)
        if not path:
            self.root = BHashNode(is_leaf=False)
            self.node_count += 1
            self.root.children = [node, sibling]
            self._touch(self.root)
            return
        parent, idx = path[-1]
        parent.children.insert(idx + 1, sibling)
        if len(parent.children) > BRANCHING:
            self._split(parent, path[:-1])
        else:
            for p, _ in reversed(path):
                self._touch(p)

    # -- conversion --

    def _convert_node(self, node: BHashNode) -> None:
        """Turn every leaf under node into a hash-bucket node in place."""
        if node.is_leaf:
            buckets: dict[int, list[int]] = {}
            all_ids = []
            for key, eid in node.pairs:
                buckets.setdefault(key, []).append(eid)
                all_ids.append(eid)
            for ids in buckets.values():
                ids.sort()
            node.is_hash_node = True
            node.buckets = buckets
            node.bucket_keys = sorted(buckets)
            node.bucket_leaves = [
                bucket_leaf_digest(k, bucket_ids_digest(buckets[k]))
                for k in node.bucket_keys]
            node.fingerprint = fingerprint_digest(all_ids)
            node.pairs = []
        else:
            for child in node.children:
                self._convert_node(child)
        self._touch(node)

    @staticmethod
    def _bucket_insert(node: BHashNode, key: int, entry_id: int) -> None:
        """Add entry_id to key's bucket and record the merkle position the
        next flush must refold."""
        pos = bisect_left(node.bucket_keys, key)
        ids = node.buckets.setdefault(key, [])
        insort(ids, entry_id)
        leaf = bucket_leaf_digest(key, bucket_ids_digest(ids))
        if len(ids) == 1:
            node.bucket_keys.insert(pos, key)
            node.bucket_leaves.insert(pos, leaf)
            if node.merkle_from is None or pos < node.merkle_from:
                node.merkle_from = pos
        else:
            node.bucket_leaves[pos] = leaf
            node.merkle_changed.add(pos)

    # -- queries --

    def range_query(self, start_time: int, end_time: int):
        """All entry ids with start_time <= timestamp <= end_time, ordered
        by (time key, entry_id), plus a verification object."""
        root = self.root_digest()
        if start_time > end_time:
            proof = (P_PRUNED, self.root.lo, self.root.hi, root)
            return [], RangeVO(root, proof)
        lo = _check_timestamp(max(start_time, 0))
        hi = _check_timestamp(min(end_time, MAX_TIMESTAMP))
        results: list[tuple[int, int]] = []
        proof = self._prove(self.root, lo, hi, results)
        results.sort()
        return [eid for _, eid in results], RangeVO(root, proof)

    def _prove(self, node: BHashNode, lo: int, hi: int, results):
        self._visit(node)
        if node.is_leaf:
            if node.is_hash_node:
                return self._prove_hash_leaf(node, lo, hi, results)
            for k, eid in node.pairs:
                if lo <= k <= hi:
                    results.append((k, eid))
                    if self.meter:
                        self.meter.read()
            return (P_LEAF, node.lo, node.hi, list(node.pairs))
        children = []
        for child in node.children:
            if child.hi < lo or child.lo > hi:
                children.append((P_PRUNED, child.lo, child.hi, child.node_digest))
            else:
                children.append(self._prove(child, lo, hi, results))
        return (P_INTERNAL, node.lo, node.hi, children)

    def _prove_hash_leaf(self, node: BHashNode, lo: int, hi: int, results):
        keys = node.bucket_keys
        n = len(keys)
        i, j = _kernels.range_bounds(keys, lo, hi)
        wstart = max(i - 1, 0)
        wend = min(j + 1, n)
        window = []
        for idx in range(wstart, wend):
            key = keys[idx]
            if lo <= key <= hi:
                ids = node.buckets[key]
                window.append((W_REVEALED, key, list(ids)))
                results.extend((key, eid) for eid in ids)
                if self.meter:
                    self.meter.read(len(ids))
            else:
                window.append((W_DIGEST_ONLY, key,
                               bucket_ids_digest(node.buckets[key])))
        sibs = (_merkle_window_siblings(node.merkle_levels_cached(), wstart,
                                        wend - wstart) if n else [])
        return (P_HASHLEAF, node.lo, node.hi, node.fingerprint, n, wstart,
                window, sibs)


# --- verification --------------------------------------------------------

def verify_range(vo: RangeVO, trusted_root: bytes, start_time: int,
                 end_time: int, results) -> bool:
    """True iff the VO recomputes trusted_root, its in-range entries equal
    the claimed results, and no in-range key could have been omitted."""
    try:
        if vo.claimed_root != trusted_root:
            return False
        if start_time > end_time:
            if vo.proof[0] != P_PRUNED:
                return False
            return results == [] and vo.proof[3] == trusted_root
        lo = _check_timestamp(max(start_time, 0))
        hi = _check_timestamp(min(end_time, MAX_TIMESTAMP))
        collected: list[tuple[int, int]] = []
        recomputed = _verify_node(vo.proof, lo, hi, collected)
        if recomputed is None or recomputed != trusted_root:
            return False
        collected.sort()
        return [eid for _, eid in collected] == list(results)
    except (VODecodeError, ValueError, TypeError, IndexError, OverflowError,
            struct.error):
        return False


def verify_range_bytes(vo_bytes: bytes, trusted_root: bytes, start_time: int,
                       end_time: int, results) -> bool:
    """Verify a serialized VO; malformed bytes verify as False."""
    try:
        vo = RangeVO.from_bytes(vo_bytes)
    except (VODecodeError, ValueError, IndexError):
        return False
    return verify_range(vo, trusted_root, start_time, end_time, results)


def _verify_node(node, lo: int, hi: int, collected):
    """Recompute a proof node's digest; None signals a malformed or
    incomplete proof."""
    kind = node[0]
    if kind == P_PRUNED:
        _, nlo, nhi, d = node
        if nlo <= hi and nhi >= lo:
            return None  # pruned subtree overlaps the query range
        return d if len(d) == 32 else None
    if kind == P_LEAF:
        _, nlo, nhi, pairs = node
        for a, b in zip(pairs, pairs[1:]):
            if b < a:
                return None
        for k, eid in pairs:
            if lo <= k <= hi:
                collected.append((k, eid))
        return leaf_digest(pairs, nlo, nhi)
    if kind == P_INTERNAL:
        _, nlo, nhi, children = node
        if not children:
            return None
        triples = []
        for child in children:
            d = _verify_node(child, lo, hi, collected)
            if d is None:
                return None
            triples.append((child[1], child[2], d))
        return internal_digest(triples, nlo, nhi)
    if kind == P_HASHLEAF:
        return _verify_hash_leaf(node, lo, hi, collected)
    return None


def _verify_hash_leaf(node, lo, hi, collected):
    _, nlo, nhi, fp, n, wstart, window, sibs = node
    if len(fp) != 32:
        return None
    if n == 0:
        if window or sibs:
            return None
        return hash_node_digest(fp, 0, EMPTY_DIGEST, nlo, nhi)
    if not window:
        return None
    keys = [e[1] for e in window]
    for a, b in zip(keys, keys[1:]):
        if b <= a:
            return None
    # Completeness: the window must extend past the range edge on any side
    # where buckets remain, so an in-range key cannot be hidden outside it.
    if wstart > 0 and keys[0] >= lo:
        return None
    if wstart + len(window) < n and keys[-1] <= hi:
        return None
    leaf_digests = []
    for wkind, key, payload in window:
        if wkind == W_REVEALED:
            if not (lo <= key <= hi):
                return None
            ids = list(payload)
            if sorted(ids) != ids:
                return None
            collected.extend((key, eid) for eid in ids)
            leaf_digests.append(bucket_leaf_digest(key, bucket_ids_digest(ids)))
        else:
            if lo <= key <= hi:
                return None  # in-range bucket withheld
            if len(payload) != 32:
                return None
            leaf_digests.append(bucket_leaf_digest(key, payload))
    root = _merkle_root_from_window(n, wstart, leaf_digests, sibs)
    if root is None:
        return None
    return hash_node_digest(fp, n, root, nlo, nhi)
