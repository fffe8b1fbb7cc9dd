"""Time-range index: a B+Tree over time keys that converts its leaves into
hash-bucket nodes once the entry population reaches a threshold.

Every node carries a digest; internal digests commit each child's key range
so a verifier can reject proofs that hide an overlapping subtree.  Converted
leaves commit their buckets through a crit-bit merkle tree over the 64 key
bits.  Its shape depends only on the key set, so an insert rehashes one
root-to-leaf path, and a range proof carries one digest per level.
"""
from __future__ import annotations

import hashlib
import struct
from bisect import bisect_left, insort
from typing import Optional

from chainquery import _kernels
from chainquery.core import (_U32, _U64, DOM_BUCKET, DOM_INTERNAL, DOM_LEAF,
                             MAX_TIMESTAMP, VODecodeError, _check_timestamp,
                             _pack_u64_list, _pack_u64s, _take, _take_u64s,
                             digest)
from chainquery.gas import GasMeter

BRANCHING = 16
DEFAULT_THRESHOLD = 10
# Deepest proof nesting the decoder accepts.  Split nodes keep at least 8
# children, so an honest tree this deep would hold over 2^64 entries.
MAX_PROOF_DEPTH = 64


class DuplicateEntry(ValueError):
    pass


# --- digest compositions -------------------------------------------------

_RANGE = struct.Struct(">QQ")              # a node's lo, hi
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


# The bucket preimages, spelled once.  Each layout below is the whole
# SHA-256 input, DOM_BUCKET's tag byte first: the verifier hashes it with
# hashlib itself, and the provers hand the rest of it to digest(), which
# puts the tag back (and which the benchmark's tracer counts).
#   ids     0x03 ‖ count u32 ‖ count × id u64
#   leaf    0x00 ‖ key u64 ‖ ids digest
#   branch  0x04 ‖ bit u8 ‖ left digest ‖ right digest
_IDS_HEAD = bytes((DOM_BUCKET, 0x03))
_ONE_ID = struct.Struct(">2sIQ")           # _IDS_HEAD, 1, id
_LEAF_HEAD = bytes((DOM_BUCKET, 0x00))
_BUCKET_LEAF = struct.Struct(">2sQ32s")    # _LEAF_HEAD, key, ids digest
_BRANCH_PREFIX = [bytes((DOM_BUCKET, 0x04, bit)) for bit in range(64)]


def _ids_preimage(entry_ids) -> bytes:
    if len(entry_ids) == 1:
        return _ONE_ID.pack(_IDS_HEAD, 1, entry_ids[0])
    return _IDS_HEAD + _pack_u64_list(entry_ids)


def bucket_ids_digest(entry_ids) -> bytes:
    return digest(DOM_BUCKET, _ids_preimage(entry_ids)[1:])


def bucket_leaf_digest(key: int, ids_digest: bytes) -> bytes:
    return digest(DOM_BUCKET,
                  _BUCKET_LEAF.pack(_LEAF_HEAD, key, ids_digest)[1:])


def hash_node_digest(crit_root: bytes, lo: int, hi: int) -> bytes:
    return digest(DOM_INTERNAL, b"\x02" + crit_root + _RANGE.pack(lo, hi))


def internal_digest(child_triples, lo: int, hi: int) -> bytes:
    """child_triples: iterable of (child_lo, child_hi, child_digest)."""
    parts = [b"\x01", _U32.pack(len(child_triples))]
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
    """node's digest, recomputing the stale digests under it first."""
    if node.digest is None:
        if node.bit == 64:
            node.ids_digest = bucket_ids_digest(node.ids)
            node.digest = bucket_leaf_digest(node.key, node.ids_digest)
        else:
            node.digest = digest(DOM_BUCKET, _BRANCH_PREFIX[node.bit][1:]
                                 + _crit_rehash(node.left)
                                 + _crit_rehash(node.right))
    return node.digest


def _crit_window_paths(root, first: int, last: int):
    """The subtrees outside the key window [first, last]: the left
    siblings on the path to first, outermost first, and the right siblings
    on the path to last, innermost first, each side as (branch bits,
    sibling digests).  Also returns the leaves of first and last."""
    lefts, rights = [], []  # branches with a child outside the window
    a = b = root
    while a.bit < 64:  # first's left siblings: where first goes right
        if first >> (63 - a.bit) & 1:
            lefts.append(a)
            a = a.right
        else:
            a = a.left
    while b.bit < 64:  # last's right siblings: where last goes left
        if last >> (63 - b.bit) & 1:
            b = b.right
        else:
            rights.append(b)
            b = b.left
    rights.reverse()
    return ((bytes([n.bit for n in lefts]), [n.left.digest for n in lefts]),
            (bytes([n.bit for n in rights]), [n.right.digest for n in rights]),
            a, b)


def _crit_fold(items, gaps):
    """Root of the crit-bit tree whose leaves, in key order, have the
    digests `items`; gaps[i] is the bit of the branch that separates
    items[i] from items[i + 1].  None if two neighbouring gaps are equal,
    which no crit-bit tree has.  Hashes inline: this is the verifier's
    hot loop."""
    sha256, prefix = hashlib.sha256, _BRANCH_PREFIX
    digests, bits = [items[0]], []
    # a last gap of -1 merges the whole stack into digests[0]
    for gap, item in zip(gaps + [-1], items[1:] + [None]):
        while bits and bits[-1] > gap:
            right = digests.pop()
            digests[-1] = sha256(prefix[bits.pop()] + digests[-1]
                                 + right).digest()
        if bits and bits[-1] == gap:
            return None
        bits.append(gap)
        digests.append(item)
    return digests[0]


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
            self.node_digest = hash_node_digest(_crit_rehash(self.crit),
                                                self.lo, self.hi)
        elif self.is_leaf:
            self.node_digest = leaf_digest(self.pairs, self.lo, self.hi)
        else:
            triples = [(c.lo, c.hi, c.node_digest) for c in self.children]
            self.node_digest = internal_digest(triples, self.lo, self.hi)


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
    #   (P_HASHLEAF, lo, hi, [(kind, key, ids_or_digest)],
    #    (bits, [digest]) of the left siblings, the same of the right)

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

# One layout per record, shared by the encoder and the decoder; each
# proof node starts with its kind byte.
_KIND = {k: bytes((k,)) for k in (P_PRUNED, P_LEAF, P_INTERNAL, P_HASHLEAF)}
_HASHLEAF_HEAD = struct.Struct(">QQBI")    # lo, hi, flags, nrev
_KEY_COUNT = struct.Struct(">QB")          # a revealed bucket's key, count


def _encode_proof(node) -> bytes:
    kind, lo, hi = node[0], node[1], node[2]
    if kind == P_PRUNED:
        return b"".join((_KIND[kind], _RANGE.pack(lo, hi), node[3]))
    if kind == P_LEAF:
        return _KIND[kind] + _leaf_body(lo, hi, node[3])
    if kind == P_INTERNAL:
        return b"".join([_KIND[kind], _RANGE_COUNT.pack(lo, hi, len(node[3])),
                         *map(_encode_proof, node[3])])
    # P_HASHLEAF.  Digest-only window entries only ever sit at the window
    # edges, so two flag bits replace per-entry kind bytes, and id counts
    # use a one-byte varint: revealed buckets cost 8+1+8*ids bytes.  Each
    # side is count u8 ‖ count bits ‖ count digests.
    window, left, right = node[3:]
    first_dig = bool(window) and window[0][0] == W_DIGEST_ONLY
    last_dig = len(window) > 1 and window[-1][0] == W_DIGEST_ONLY
    revealed = window[1 if first_dig else 0:
                      len(window) - 1 if last_dig else len(window)]
    flags = int(first_dig) | (int(last_dig) << 1)
    parts = [_KIND[kind], _HASHLEAF_HEAD.pack(lo, hi, flags, len(revealed))]
    if first_dig:
        parts += [_U64.pack(window[0][1]), window[0][2]]
    for _, key, ids in revealed:
        if len(ids) < 0xFF:
            parts.append(_KEY_COUNT.pack(key, len(ids)))
        else:
            parts += [_KEY_COUNT.pack(key, 0xFF), _U32.pack(len(ids))]
        parts.append(_pack_u64s(ids))
    if last_dig:
        parts += [_U64.pack(window[-1][1]), window[-1][2]]
    for bits, digests in (left, right):
        parts += [bytes((len(bits),)), bits, *digests]
    return b"".join(parts)


def _decode_proof(data: bytes, off: int, depth: int):
    if depth > MAX_PROOF_DEPTH:
        raise VODecodeError("proof nested too deep")
    try:
        kind = data[off]
        if kind == P_PRUNED:
            lo, hi = _RANGE.unpack_from(data, off + 1)
            return (P_PRUNED, lo, hi, _take(data, off + 17, 32)), off + 49
        if kind == P_LEAF:
            lo, hi, n = _RANGE_COUNT.unpack_from(data, off + 1)
            flat = _take_u64s(data, off + 21, 2 * n)
            return (P_LEAF, lo, hi, list(zip(flat[::2], flat[1::2]))), \
                off + 21 + 16 * n
        if kind == P_INTERNAL:
            lo, hi, n = _RANGE_COUNT.unpack_from(data, off + 1)
            off += 21
            children = []
            for _ in range(n):
                child, off = _decode_proof(data, off, depth + 1)
                children.append(child)
            return (P_INTERNAL, lo, hi, children), off
        if kind == P_HASHLEAF:
            return _decode_hash_leaf(data, off + 1)
        raise VODecodeError(f"bad proof kind {kind}")
    except (IndexError, struct.error) as exc:
        raise VODecodeError(str(exc)) from None


def _decode_hash_leaf(data: bytes, off: int):
    """The hash-leaf proof whose body starts at off; IndexError or
    struct.error on truncated bytes, which _decode_proof converts."""
    lo, hi, flags, nrev = _HASHLEAF_HEAD.unpack_from(data, off)
    if flags & ~0x03:
        raise VODecodeError("bad window flags")
    off += 21
    window = []
    if flags & 1:
        entry, off = _decode_digest_only(data, off)
        window.append(entry)
    for _ in range(nrev):
        key, cnt = _KEY_COUNT.unpack_from(data, off)
        off += 9
        if cnt == 1:
            window.append((W_REVEALED, key, list(_U64.unpack_from(data, off))))
            off += 8
            continue
        if cnt == 0xFF:
            cnt, = _U32.unpack_from(data, off)
            off += 4
        window.append((W_REVEALED, key, _take_u64s(data, off, cnt)))
        off += 8 * cnt
    if flags & 2:
        entry, off = _decode_digest_only(data, off)
        window.append(entry)
    sides = []
    for _ in range(2):
        cnt = data[off]
        bits = _take(data, off + 1, cnt)
        raw = _take(data, off + 1 + cnt, 32 * cnt)
        sides.append((bits, [raw[i:i + 32] for i in range(0, len(raw), 32)]))
        off += 1 + 33 * cnt
    return (P_HASHLEAF, lo, hi, window, *sides), off


def _decode_digest_only(data: bytes, off: int):
    key, = _U64.unpack_from(data, off)
    return (W_DIGEST_ONLY, key, _take(data, off + 8, 32)), off + 40


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
        self._flush_node(self.root)
        return self.root.node_digest

    def _flush_node(self, node: BHashNode) -> None:
        if node.node_digest is None:
            if not node.is_leaf:
                for child in node.children:
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
        self.meter.read()
        if node.is_leaf:
            if node.is_hash_node:
                return self._prove_hash_leaf(node, lo, hi, results)
            for k, eid in node.pairs:
                if lo <= k <= hi:
                    results.append((k, eid))
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
        """Reveal the in-range buckets plus one digest-only neighbour on
        each side, and the crit-tree subtrees left and right of them."""
        keys = node.bucket_keys
        i, j = _kernels.range_bounds(keys, lo, hi)
        wstart, wend = max(i - 1, 0), min(j + 1, len(keys))
        left, right, first, last = _crit_window_paths(
            node.crit, keys[wstart], keys[wend - 1])
        window = []
        if wstart < i:
            window.append((W_DIGEST_ONLY, first.key, first.ids_digest))
        for key in keys[i:j]:
            ids = node.buckets[key]
            window.append((W_REVEALED, key, list(ids)))
            results.extend((key, eid) for eid in ids)
            self.meter.read(len(ids))
        if wend > j:
            window.append((W_DIGEST_ONLY, last.key, last.ids_digest))
        return (P_HASHLEAF, node.lo, node.hi, window, left, right)


# --- verification --------------------------------------------------------
#
# A verifier checks a proof in two walks.  The first hashes nothing: it
# checks the proof's shape, key order and completeness and gathers the
# in-range ids, which must equal the claimed results.  Only a proof that
# passes all of it is hashed, by the second walk, so a forged or damaged
# proof costs no SHA-256 call unless it is consistent with the claim.

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
        if not _check_node(vo.proof, lo, hi, collected):
            return False
        collected.sort()
        if [eid for _, eid in collected] != list(results):
            return False
        return _proof_digest(vo.proof) == trusted_root
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


def _check_node(node, lo: int, hi: int, collected) -> bool:
    """The first walk: False if the proof node is malformed or could hide
    a key in [lo, hi]; gathers its in-range (key, id) pairs."""
    kind = node[0]
    if kind == P_HASHLEAF:
        return _check_hash_leaf(node, lo, hi, collected)
    if kind == P_PRUNED:
        _, nlo, nhi, d = node
        # a pruned subtree may not overlap the query range
        return not (nlo <= hi and nhi >= lo) and len(d) == 32
    if kind == P_LEAF:
        _, nlo, nhi, pairs = node
        for a, b in zip(pairs, pairs[1:]):
            if b < a:
                return False
        for k, eid in pairs:
            if lo <= k <= hi:
                collected.append((k, eid))
        return True
    if kind == P_INTERNAL:
        _, nlo, nhi, children = node
        if not children:
            return False
        for child in children:
            if not _check_node(child, lo, hi, collected):
                return False
        return True
    return False


def _check_hash_leaf(node, lo, hi, collected) -> bool:
    _, nlo, nhi, window, (lbits, ldigs), (rbits, rdigs) = node
    if not window or len(lbits) != len(ldigs) or len(rbits) != len(rdigs):
        return False
    # Window keys strictly increase.  Revealed buckets lie in the range
    # and digest-only ones, whose ids stay hidden, outside it.
    prev = -1
    for wkind, key, payload in window:
        if key <= prev:
            return False
        prev = key
        if wkind == W_REVEALED:
            if not lo <= key <= hi or sorted(payload) != payload:
                return False
            if len(payload) == 1:
                collected.append((key, payload[0]))
            else:
                collected.extend([(key, eid) for eid in payload])
        elif lo <= key <= hi or len(payload) != 32:
            return False
    # Completeness: every key of a left subtree shares the first window
    # key's bits above the subtree's branch bit and has a 0 there, where
    # the first key has a 1; its interval must end below lo.  The right
    # side mirrors this around the last key and hi.
    first, last = window[0][1], prev
    prev = -1
    for bit, d in zip(lbits, ldigs):
        if (not prev < bit < 64 or len(d) != 32
                or not first >> (63 - bit) & 1
                or (first >> (63 - bit) ^ 1) << (63 - bit)
                | ((1 << (63 - bit)) - 1) >= lo):
            return False
        prev = bit
    prev = 64
    for bit, d in zip(rbits, rdigs):
        if (not 0 <= bit < prev or len(d) != 32 or last >> (63 - bit) & 1
                or (last >> (63 - bit) | 1) << (63 - bit) <= hi):
            return False
        prev = bit
    return True


def _proof_digest(node):
    """The second walk: the digest of a proof node that passed
    _check_node."""
    kind = node[0]
    if kind == P_HASHLEAF:
        return _hash_leaf_digest(node)
    if kind == P_PRUNED:
        return node[3]
    if kind == P_LEAF:
        return leaf_digest(node[3], node[1], node[2])
    return internal_digest([(c[1], c[2], _proof_digest(c)) for c in node[3]],
                           node[1], node[2])


def _hash_leaf_digest(node):
    """The hash leaf's digest, hashing its buckets inline; None if the
    crit-bit fold meets two equal neighbouring gaps."""
    _, nlo, nhi, window, (lbits, ldigs), (rbits, rdigs) = node
    sha256, pack_leaf = hashlib.sha256, _BUCKET_LEAF.pack
    leaves = []
    # gaps[i] is the bit of the branch between the i-th and next item
    gaps = list(lbits)
    prev = None
    for wkind, key, payload in window:
        if prev is not None:
            gaps.append(64 - (prev ^ key).bit_length())
        prev = key
        if wkind == W_REVEALED:
            payload = sha256(_ids_preimage(payload)).digest()
        leaves.append(sha256(pack_leaf(_LEAF_HEAD, key, payload)).digest())
    gaps += rbits
    root = _crit_fold(ldigs + leaves + rdigs, gaps)
    if root is None:
        return None
    return hash_node_digest(root, nlo, nhi)
