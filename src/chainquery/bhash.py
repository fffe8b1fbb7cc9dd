"""Time-range index: a B+Tree over time keys that converts its leaves into
hash-bucket nodes once the entry population reaches a threshold.

Every node carries a digest; internal digests commit each child's key range
so a verifier can reject proofs that hide an overlapping subtree.  Converted
leaves commit their buckets through a crit-bit merkle tree over the 64 key
bits.  Its shape depends only on the key set, so an insert rehashes one
root-to-leaf path, and a range proof carries one digest per level: the
subtrees beside the window, which one descent finds for both window ends
while they take the same branch, then one tail for each.

A range proof travels as its wire bytes: range_query writes them straight
from the nodes, and the light client (`chainquery.client`) checks them.
A RangeVO is just the claimed root and those bytes.
"""
from __future__ import annotations

import struct
from bisect import bisect_left, insort
from typing import Optional

from chainquery import _kernels, client
from chainquery.core import (_BRANCH_PREFIX, _HASH_NODE_HEAD,
                             _HASHLEAF_HEAD, _IDS_HEAD, _INTERNAL_HEAD,
                             _KEY_COUNT, _LEAF_HEAD, _RANGE, _U32, _U64,
                             DOM_BUCKET, DOM_INTERNAL, DOM_LEAF,
                             MAX_TIMESTAMP, P_HASHLEAF, P_INTERNAL, P_LEAF,
                             P_PRUNED, VODecodeError, _check_timestamp,
                             _pack_u64_list, _pack_u64s, digest)
from chainquery.gas import GasMeter

BRANCHING = 16
DEFAULT_THRESHOLD = 10


class DuplicateEntry(ValueError):
    pass


# --- digest compositions -------------------------------------------------

_RANGE_COUNT = struct.Struct(">QQI")       # lo, hi, pair or child count


def _leaf_body(lo: int, hi: int, pairs) -> bytes:
    """A pre-conversion leaf's key range and sorted (key, entry_id) pairs:
    its digest preimage, and its proof record after the kind byte."""
    return _RANGE_COUNT.pack(lo, hi, len(pairs)) + _pack_u64s(
        [v for pair in pairs for v in pair])


def leaf_digest(pairs, lo: int, hi: int) -> bytes:
    """Pre-conversion leaf: digest over the sorted (key, entry_id) pairs
    and the leaf's key range."""
    return digest(DOM_LEAF, _leaf_body(lo, hi, pairs))


# The bucket preimages as digest() takes them: core's layouts without the
# DOM_BUCKET tag, which digest() puts first.
_IDS_KIND = _IDS_HEAD[1:]
_ONE_ID = struct.Struct(">BIQ")            # ids kind, 1, id
_LEAF_BODY = struct.Struct(">BQ32s")       # leaf kind, key, ids digest
_BRANCH_BODY = [prefix[1:] for prefix in _BRANCH_PREFIX]


def bucket_ids_digest(entry_ids) -> bytes:
    if len(entry_ids) == 1:
        return digest(DOM_BUCKET, _ONE_ID.pack(_IDS_HEAD[1], 1, entry_ids[0]))
    return digest(DOM_BUCKET, _IDS_KIND + _pack_u64_list(entry_ids))


def bucket_leaf_digest(key: int, ids_digest: bytes) -> bytes:
    return digest(DOM_BUCKET, _LEAF_BODY.pack(_LEAF_HEAD[1], key, ids_digest))


def hash_node_digest(crit_root: bytes, lo: int, hi: int) -> bytes:
    return digest(DOM_INTERNAL,
                  _HASH_NODE_HEAD + crit_root + _RANGE.pack(lo, hi))


def internal_digest(child_triples, lo: int, hi: int) -> bytes:
    """child_triples: iterable of (child_lo, child_hi, child_digest)."""
    parts = [_INTERNAL_HEAD, _U32.pack(len(child_triples))]
    for clo, chi, d in child_triples:
        parts += [_RANGE.pack(clo, chi), d]
    parts.append(_RANGE.pack(lo, hi))
    return digest(DOM_INTERNAL, b"".join(parts))


# --- the crit-bit merkle tree inside a hash node --------------------------
#
# Key bits are numbered from the top: bit b of key k is k >> (63 - b) & 1,
# and distinct keys a and b first differ at bit 64 - (a ^ b).bit_length().
# A leaf is one bucket.  A branch splits its keys at the first bit where
# they differ, zeros to the left; its digest is
# digest(DOM_BUCKET, 0x04 ‖ bit ‖ left digest ‖ right digest).

class _CritLeaf:
    __slots__ = ("key", "ids", "ids_digest", "digest")
    bit = 64  # past every branch bit, so a descent stops here

    def __init__(self, key: int, ids: list):
        self.key = key
        self.ids = ids             # the bucket's id list itself
        self.ids_digest = None
        self.digest = None         # None: stale until the next flush


class _CritBranch:
    __slots__ = ("bit", "left", "right", "digest")

    def __init__(self, bit: int, left, right):
        self.bit = bit
        self.left = left
        self.right = right
        self.digest = None


def _crit_rehash(node) -> bytes:
    """node's digest, node being stale, after those of its stale
    children."""
    if node.bit == 64:
        node.ids_digest = bucket_ids_digest(node.ids)
        node.digest = bucket_leaf_digest(node.key, node.ids_digest)
    else:
        left, right = node.left, node.right
        node.digest = digest(DOM_BUCKET, b"".join((
            _BRANCH_BODY[node.bit], left.digest or _crit_rehash(left),
            right.digest or _crit_rehash(right))))
    return node.digest


def _crit_window_paths(root, first: int, last: int):
    """The subtrees outside the key window [first, last], as the two side
    records of a hash-leaf proof: the left siblings on the path to first,
    outermost first, and the right siblings on the path to last, innermost
    first, each side count u8 ‖ branch bits ‖ sibling digests.  Also
    returns the leaves of first and last.

    One descent serves both keys while they take the same branch; the
    branch where they part has both in the window, so it gives neither
    side a sibling, and a tail descends from it to each key."""
    lbits, ldigs, rbits, rdigs = [], [], [], []
    node = root
    bit = node.bit
    while bit < 64:
        shift = 63 - bit
        side = first >> shift & 1
        if side != last >> shift & 1:
            break  # the keys part: first goes left and last right
        if side:
            lbits.append(bit)
            ldigs.append(node.left.digest)
            node = node.right
        else:
            rbits.append(bit)
            rdigs.append(node.right.digest)
            node = node.left
        bit = node.bit
    a = b = node
    if bit < 64:
        a, b = node.left, node.right
    bit = a.bit
    while bit < 64:  # first's left siblings: where first goes right
        if first >> (63 - bit) & 1:
            lbits.append(bit)
            ldigs.append(a.left.digest)
            a = a.right
        else:
            a = a.left
        bit = a.bit
    bit = b.bit
    while bit < 64:  # last's right siblings: where last goes left
        if last >> (63 - bit) & 1:
            b = b.right
        else:
            rbits.append(bit)
            rdigs.append(b.right.digest)
            b = b.left
        bit = b.bit
    rbits.reverse()
    rdigs.reverse()
    return (bytes([len(lbits), *lbits]) + b"".join(ldigs),
            bytes([len(rbits), *rbits]) + b"".join(rdigs), a, b)


# --- nodes ---------------------------------------------------------------

class BHashNode:
    __slots__ = ("is_leaf", "is_hash_node", "pairs", "children",
                 "lo", "hi", "buckets", "bucket_keys", "crit", "node_digest")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.is_hash_node = False
        self.pairs = [] if is_leaf else None     # [(key, entry_id)] sorted
        self.children = None if is_leaf else []  # [BHashNode]
        self.lo = 0
        self.hi = 0
        self.buckets = None        # {key: sorted [entry_id]}
        self.bucket_keys = None    # sorted [key]
        self.crit = None           # crit-bit tree over the buckets
        self.node_digest = None    # None: stale until the next flush

    def recompute_digest(self) -> None:
        if self.is_hash_node:
            crit = self.crit
            self.node_digest = hash_node_digest(
                crit.digest or _crit_rehash(crit), self.lo, self.hi)
        elif self.is_leaf:
            self.node_digest = leaf_digest(self.pairs, self.lo, self.hi)
        else:
            triples = [(c.lo, c.hi, c.node_digest) for c in self.children]
            self.node_digest = internal_digest(triples, self.lo, self.hi)


# --- verification objects ------------------------------------------------

class RangeVO:
    """Proof that a range query's results are exactly the entries the
    anchored tree holds in [start_key, end_key]: the claimed root and
    the proof's wire bytes, which verify_range_bytes walks."""

    def __init__(self, claimed_root: bytes, body: bytes):
        self.claimed_root = claimed_root
        self.body = body

    def to_bytes(self) -> bytes:
        return self.claimed_root + self.body

    @classmethod
    def from_bytes(cls, data: bytes) -> "RangeVO":
        if len(data) < 32:
            raise VODecodeError("truncated")
        return cls(bytes(data[:32]), bytes(data[32:]))


# --- wire format for proof trees ----------------------------------------

# Writer-only record layouts; a revealed bucket costs 8+1+8*ids bytes.
_KIND = {k: bytes((k,)) for k in (P_PRUNED, P_LEAF, P_INTERNAL, P_HASHLEAF)}
_KEY_ONE_ID = struct.Struct(">QBQ")        # key, 1, its one id


# --- the tree ------------------------------------------------------------

class BHashTree:
    """Converting B+Tree over time keys with verifiable range queries.

    threshold_t=None disables conversion (the plain-B+Tree variant used
    for the VO-size comparison).

    Inserts only mark the nodes they change stale; root_digest()
    recomputes the stale digests once, children before parents.
    """

    def __init__(self, threshold_t: Optional[int] = DEFAULT_THRESHOLD,
                 meter: Optional[GasMeter] = None):
        if threshold_t is not None and threshold_t <= 0:
            raise ValueError("threshold_t must be positive")
        self.threshold_t = threshold_t
        self.meter = meter or GasMeter()
        self.root = BHashNode(is_leaf=True)
        self.root.recompute_digest()
        self.node_count = 1
        self._inserted: set[int] = set()

    @property
    def converted(self) -> bool:
        return (self.threshold_t is not None
                and len(self._inserted) > self.threshold_t)

    def root_digest(self) -> bytes:
        if self.root.node_digest is None:
            self._flush_node(self.root)
        return self.root.node_digest

    def _flush_node(self, node: BHashNode) -> None:
        """Rehash node, which is stale, after its stale children."""
        if not node.is_leaf:
            for child in node.children:
                if child.node_digest is None:
                    self._flush_node(child)
        node.recompute_digest()
        self.meter.compute()

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
        if len(self._inserted) == self.threshold_t:
            self._convert_node(self.root)
        path = []
        node = self.root
        self.meter.read()
        while not node.is_leaf:
            idx = self._route(node, key)
            path.append((node, idx))
            node = node.children[idx]
            self.meter.read()
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

    def _touch(self, node: BHashNode) -> None:
        """Record a change to node: refresh its key range from its pairs,
        buckets or children, and leave its digest to the next flush.  Every
        caller touches each ancestor after node, so the root is stale
        whenever any node is."""
        if node.is_hash_node:
            node.lo, node.hi = node.bucket_keys[0], node.bucket_keys[-1]
        elif node.is_leaf:
            node.lo, node.hi = node.pairs[0][0], node.pairs[-1][0]
        else:
            node.lo, node.hi = node.children[0].lo, node.children[-1].hi
        node.node_digest = None
        self.meter.write()

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
            node.is_hash_node = True
            node.buckets, node.bucket_keys = {}, []
            for key, eid in node.pairs:
                self._bucket_insert(node, key, eid)
            node.pairs = []
        else:
            for child in node.children:
                self._convert_node(child)
        self._touch(node)

    @staticmethod
    def _bucket_insert(node: BHashNode, key: int, entry_id: int) -> None:
        """Add entry_id to key's bucket and mark the crit-tree path to the
        bucket stale.  A new key's leaf hangs under a new branch at the
        first bit where the key leaves the tree; the longest prefix it
        shares with any key is the one it shares with a sorted neighbour."""
        ids = node.buckets.get(key)
        if ids is not None:
            insort(ids, entry_id)
            bit = 64
        else:
            ids = node.buckets[key] = [entry_id]
            keys = node.bucket_keys
            pos = bisect_left(keys, key)
            near = keys[max(pos - 1, 0):pos + 1]
            keys.insert(pos, key)
            if not near:
                node.crit = _CritLeaf(key, ids)
                return
            bit = max(64 - (key ^ k).bit_length() for k in near)
        parent, cur = None, node.crit
        while cur.bit < bit:
            cur.digest = None
            parent = cur
            cur = cur.right if key >> (63 - cur.bit) & 1 else cur.left
        if bit == 64:  # cur is the key's own leaf
            cur.digest = None
            return
        leaf = _CritLeaf(key, ids)
        branch = (_CritBranch(bit, cur, leaf) if key >> (63 - bit) & 1
                  else _CritBranch(bit, leaf, cur))
        if parent is None:
            node.crit = branch
        elif parent.left is cur:
            parent.left = branch
        else:
            parent.right = branch

    # -- queries --

    def range_query(self, start_time: int, end_time: int):
        """All entry ids with start_time <= timestamp <= end_time, ordered
        by (time key, entry_id), plus a verification object written
        straight from the nodes."""
        root = self.root_digest()
        if start_time > end_time:
            body = _KIND[P_PRUNED] + _RANGE.pack(self.root.lo,
                                                 self.root.hi) + root
            return [], RangeVO(root, body)
        lo = _check_timestamp(max(start_time, 0))
        hi = _check_timestamp(min(end_time, MAX_TIMESTAMP))
        # one leaf gives its ids in (key, id) order already; the ids of
        # several are gathered with their keys and sorted
        keyed = not self.root.is_leaf
        parts: list[bytes] = []
        found: list = []
        self._write(self.root, lo, hi, parts, found, keyed)
        if keyed:
            found.sort()
            found = [eid for _, eid in found]
        return found, RangeVO(root, b"".join(parts))

    def _write(self, node: BHashNode, lo: int, hi: int, parts, found,
               keyed: bool) -> None:
        """Append node's proof record to parts, and its in-range ids, as
        (key, id) pairs if keyed, to found."""
        self.meter.read()
        if node.is_hash_node:
            self._write_hash_leaf(node, lo, hi, parts, found, keyed)
        elif node.is_leaf:
            hits = [pair for pair in node.pairs if lo <= pair[0] <= hi]
            self.meter.read(len(hits))
            found += hits if keyed else [eid for _, eid in hits]
            parts.append(_KIND[P_LEAF]
                         + _leaf_body(node.lo, node.hi, node.pairs))
        else:
            parts.append(_KIND[P_INTERNAL] + _RANGE_COUNT.pack(
                node.lo, node.hi, len(node.children)))
            for child in node.children:
                if child.hi < lo or child.lo > hi:
                    parts.append(_KIND[P_PRUNED] + _RANGE.pack(
                        child.lo, child.hi) + child.node_digest)
                else:
                    self._write(child, lo, hi, parts, found, keyed)

    def _write_hash_leaf(self, node: BHashNode, lo: int, hi: int, parts,
                         found, keyed: bool) -> None:
        """Reveal the in-range buckets plus one digest-only neighbour on
        each side, and the crit-tree subtrees left and right of them."""
        keys, buckets = node.bucket_keys, node.buckets
        i, j = _kernels.range_bounds(keys, lo, hi)
        wstart, wend = max(i - 1, 0), min(j + 1, len(keys))
        left, right, first, last = _crit_window_paths(
            node.crit, keys[wstart], keys[wend - 1])
        flags = (wstart < i) | (wend > j) << 1
        if flags == 2 and i == j:
            flags = 1  # a lone digest-only bucket is the window's first
        parts.append(_KIND[P_HASHLEAF]
                     + _HASHLEAF_HEAD.pack(node.lo, node.hi, flags, j - i))
        if wstart < i:
            parts.append(_U64.pack(first.key) + first.ids_digest)
        n_ids = 0
        for key in keys[i:j]:
            ids = buckets[key]
            n = len(ids)
            if n == 1:
                parts.append(_KEY_ONE_ID.pack(key, 1, ids[0]))
            else:
                parts.append(_KEY_COUNT.pack(key, n) if n < 0xFF else
                             _KEY_COUNT.pack(key, 0xFF) + _U32.pack(n))
                parts.append(_pack_u64s(ids))
            found += [(key, eid) for eid in ids] if keyed else ids
            n_ids += n
        self.meter.read(n_ids)
        if wend > j:
            parts.append(_U64.pack(last.key) + last.ids_digest)
        parts += (left, right)


# --- verification --------------------------------------------------------

def verify_range(vo: RangeVO, trusted_root: bytes, start_time: int,
                 end_time: int, results) -> bool:
    """verify_range_bytes on the VO's encoding."""
    return verify_range_bytes(vo.to_bytes(), trusted_root, start_time,
                              end_time, results)


def verify_range_bytes(vo_bytes: bytes, trusted_root: bytes, start_time: int,
                       end_time: int, results) -> bool:
    """client.verify_range_bytes, under the name the benchmark traces."""
    return client.verify_range_bytes(vo_bytes, trusted_root, start_time,
                                     end_time, results)
