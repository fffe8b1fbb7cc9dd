"""The light client: checks a range or prefix VO's wire bytes against a
trusted index root, with nothing of the program but `core`, which holds
every layout it shares with the index writers.  Each check first walks
the bytes without hashing: shape, key order, labels, completeness, and
the proved ids against the claimed results.  Only a proof that passes is
hashed, children before parents, each preimage built from VO slices, so
a forged proof costs no SHA-256 call unless it fits the claim.  Each
crit-bit side of a range proof has its interval tested once, at its
deepest subtree, whose interval lies nearest the window and so bounds
the others'."""
from __future__ import annotations

import hashlib
import re
import struct
from bisect import bisect_left

from chainquery.core import (_BRANCH_PREFIX, _BUCKET_LEAF, _BYTE,
                             _HASH_NODE_HEAD, _HASHLEAF_HEAD, _IDS_HEAD,
                             _IDS_HEADS, _INTERNAL_HEAD, _KEY_COUNT,
                             _LEAF_HEAD, _NOT_IN_ALPHABET, _RANGE, _TAG,
                             _TERMINAL, _U32, _U64, ALPHABET, DOM_INTERNAL,
                             DOM_LEAF, MAX_KEY_LEN, MAX_TIMESTAMP,
                             MODE_MATCH, MODE_NONMATCH, P_HASHLEAF,
                             P_INTERNAL, P_LEAF, P_PRUNED, _check_timestamp,
                             _indices, _u64_run, digest)

# Deepest proof nesting the range walk accepts.  Split nodes keep at least
# 8 children, so an honest tree this deep would hold over 2^64 entries.
MAX_PROOF_DEPTH = 64

# what a check of malformed bytes may raise; the VO then verifies as False
_MALFORMED = (ValueError, TypeError, IndexError, KeyError, AttributeError,
              OverflowError, struct.error)


def verify_range_bytes(vo_bytes: bytes, trusted_root: bytes, start_time: int,
                       end_time: int, results) -> bool:
    """True iff the serialized range VO recomputes trusted_root, its
    in-range entries equal the claimed results, and no in-range key could
    have been omitted; malformed bytes verify as False."""
    try:
        return _verify_range(vo_bytes, trusted_root, start_time, end_time,
                             results)
    except _MALFORMED:
        return False


def verify_prefix_bytes(vo_bytes: bytes, trusted_root: bytes, prefix: str,
                        results) -> bool:
    """True iff the serialized prefix VO recomputes trusted_root and the
    matched subtree's terminal ids equal results (empty for a
    non-membership proof); malformed bytes verify as False."""
    try:
        return _verify_prefix(vo_bytes, trusted_root, prefix, results)
    except _MALFORMED:
        return False


# --- the time-range index ------------------------------------------------

def _verify_range(data, trusted_root, start_time, end_time, results) -> bool:
    if len(data) < 32 or data[:32] != trusted_root:
        return False
    if start_time > end_time:
        # the whole tree as one pruned node, whose digest is the root
        return (len(data) == 81 and data[32] == P_PRUNED and results == []
                and data[49:] == trusted_root)
    lo = _check_timestamp(max(start_time, 0))
    hi = _check_timestamp(min(end_time, MAX_TIMESTAMP))
    found: list = []
    nodes: list = []
    if data[32] == P_HASHLEAF:
        # a converted tree of one hash node, the engine's only proof shape
        # once it holds more than its threshold: the node's digest is the
        # root, so no stack is needed
        if _walk_hash_leaf(data, 32, lo, hi, found, False, nodes) \
                != len(data) or found != list(results):
            return False
        return _hash_leaf_digest(data, nodes[0]) == trusted_root
    # one leaf gives its ids in (key, id) order; under an internal node
    # they are gathered with their keys and sorted, as the prover does
    keyed = data[32] == P_INTERNAL
    if _walk(data, 32, 0, lo, hi, found, keyed, nodes) != len(data):
        return False
    if keyed:
        found.sort()
        found = [eid for _, eid in found]
    if found != list(results):
        return False
    return _proof_root(data, nodes) == trusted_root


def _walk(data, off: int, depth: int, lo: int, hi: int, found, keyed: bool,
          nodes) -> int:
    """Check the proof node at off without hashing: the offset after it,
    or -1 if it is malformed or could hide a key in [lo, hi].  Gathers its
    in-range ids in found and records its nodes, parents first, in nodes
    for _proof_root."""
    if depth > MAX_PROOF_DEPTH:
        return -1
    kind = data[off]
    if kind == P_HASHLEAF:
        return _walk_hash_leaf(data, off, lo, hi, found, keyed, nodes)
    if kind == P_PRUNED:
        nlo, nhi = _RANGE.unpack_from(data, off + 1)
        end = off + 49
        # a pruned subtree may not overlap the query range
        if end > len(data) or nlo <= hi and nhi >= lo:
            return -1
        nodes.append((P_PRUNED, off))
        return end
    if kind == P_LEAF:
        n, = _U32.unpack_from(data, off + 17)
        end = off + 21 + 16 * n
        if end > len(data):
            return -1
        flat = _u64_run(2 * n).unpack_from(data, off + 21)
        pairs = list(zip(flat[::2], flat[1::2]))
        if pairs != sorted(pairs):
            return -1
        hits = [pair for pair in pairs if lo <= pair[0] <= hi]
        found += hits if keyed else [eid for _, eid in hits]
        nodes.append((P_LEAF, off, end))
        return end
    if kind == P_INTERNAL:
        n, = _U32.unpack_from(data, off + 17)
        if n == 0:
            return -1
        nodes.append((P_INTERNAL, off, n))
        off += 21
        for _ in range(n):  # each child takes a byte at least
            off = _walk(data, off, depth + 1, lo, hi, found, keyed, nodes)
            if off < 0:
                return -1
        return off
    return -1


def _walk_hash_leaf(data, off: int, lo: int, hi: int, found, keyed: bool,
                    nodes) -> int:
    """_walk for a hash-leaf record.  Window keys strictly increase;
    revealed buckets lie in the range and digest-only ones, whose ids stay
    hidden, outside it.  Records where each window bucket's leaf preimage
    lies, and the crit-bit gaps between the proof's items."""
    _, _, flags, nrev = _HASHLEAF_HEAD.unpack_from(data, off + 1)
    # the prover writes a lone digest-only bucket as the first, never the
    # last: one encoding per proof
    if flags & ~0x03 or flags == 2 and nrev == 0:
        return -1
    size, p = len(data), off + 22
    keys, revealed = [], []
    before = after = -1  # the digest-only buckets' offsets: key ‖ digest
    if flags & 1:
        key, = _U64.unpack_from(data, p)
        if p + 40 > size or lo <= key <= hi:
            return -1
        keys.append(key)
        before, p = p, p + 40
    prev = keys[0] if keys else -1
    for _ in range(nrev):
        key, cnt = _KEY_COUNT.unpack_from(data, p)
        start = p = p + 9
        if cnt == 0xFF:  # the u32 count that follows is preimage bytes
            cnt, = _U32.unpack_from(data, p)
            if cnt < 0xFF:  # a count the byte could hold: not canonical
                return -1
            head, p = _IDS_HEAD, p + 4
        else:
            head = _IDS_HEADS[cnt]
        end = p + 8 * cnt
        if end > size or key <= prev or not lo <= key <= hi:
            return -1
        if cnt == 1:
            eid, = _U64.unpack_from(data, p)
            found.append((key, eid) if keyed else eid)
        else:
            ids = _u64_run(cnt).unpack_from(data, p)
            if list(ids) != sorted(ids):
                return -1
            found += [(key, eid) for eid in ids] if keyed else ids
        keys.append(key)
        revealed.append((key, head, start, end))
        prev, p = key, end
    if flags & 2:
        key, = _U64.unpack_from(data, p)
        if p + 40 > size or key <= prev or lo <= key <= hi:
            return -1
        keys.append(key)
        after, p = p, p + 40
    if not keys:
        return -1
    lbits = data[p + 1:p + 1 + data[p]]
    ldigs, p = p + 1 + len(lbits), p + 1 + 33 * data[p]
    rbits = data[p + 1:p + 1 + data[p]]
    rdigs, p = p + 1 + len(rbits), p + 1 + 33 * data[p]
    if p > size:
        return -1
    # Completeness: every key of a left subtree shares the first window
    # key's bits above the subtree's branch bit and has a 0 there, where
    # the first key has a 1; its interval must end below lo.  The right
    # side mirrors this around the last key and hi.  Bits strictly
    # ascend on the left, from the root down, and descend on the right,
    # from the window up, so each side's deepest subtree comes last on
    # the left and first on the right.  It is the only one whose bound
    # needs a test: of two left subtrees, the deeper one shares the
    # first key's 1 at the shallower one's bit, where that one has its
    # 0, so it ends higher; of two right subtrees, the deeper one starts
    # lower, as it has the last key's 0 where the shallower one has its 1.
    first, last = keys[0], keys[-1]
    prev = -1
    for bit in lbits:
        if not prev < bit < 64 or not first >> (63 - bit) & 1:
            return -1
        prev = bit
    if lbits and (first >> (63 - prev) ^ 1) << (63 - prev) \
            | ((1 << (63 - prev)) - 1) >= lo:
        return -1
    prev = 64
    for bit in rbits:
        if not 0 <= bit < prev or last >> (63 - bit) & 1:
            return -1
        prev = bit
    if rbits and (last >> (63 - rbits[0]) | 1) << (63 - rbits[0]) <= hi:
        return -1
    gaps = [*lbits, *[64 - (a ^ b).bit_length()
                      for a, b in zip(keys, keys[1:])], *rbits]
    nodes.append((P_HASHLEAF, off, before, revealed, after, gaps,
                  ldigs, len(lbits), rdigs, len(rbits)))
    return p


def _proof_root(data, nodes) -> bytes:
    """The digest of a proof that passed _walk: its nodes hashed in
    reverse of the walk's order, so that each node's children are done
    before it.  A stack entry is a child's lo ‖ hi ‖ digest, as its
    parent's preimage holds it."""
    stack: list[bytes] = []
    for node in reversed(nodes):
        kind, off = node[0], node[1]
        span = data[off + 1:off + 17]  # lo ‖ hi
        if kind == P_PRUNED:
            stack.append(data[off + 1:off + 49])
        elif kind == P_LEAF:
            stack.append(span + digest(DOM_LEAF, data[off + 1:node[2]]))
        elif kind == P_HASHLEAF:
            stack.append(span + _hash_leaf_digest(data, node))
        else:
            n = node[2]
            children = stack[-n:]
            del stack[-n:]
            children.reverse()
            stack.append(span + digest(DOM_INTERNAL, b"".join(
                [_INTERNAL_HEAD, data[off + 17:off + 21], *children, span])))
    return stack[0][16:]


def _hash_leaf_digest(data, node) -> bytes:
    """The digest of the hash node whose record passed _walk_hash_leaf."""
    off = node[1]
    return digest(DOM_INTERNAL, _HASH_NODE_HEAD + _crit_root(data, node)
                  + data[off + 1:off + 17])


def _crit_root(data, node) -> bytes:
    """A checked hash leaf's crit-bit root, its buckets hashed inline.
    The walk's side checks leave no two gaps that _crit_fold refuses, and
    order each side's bits as _crit_fold asks."""
    _, _, before, revealed, after, gaps, ldigs, nleft, rdigs, nright = node
    sha256, pack_leaf = hashlib.sha256, _BUCKET_LEAF.pack
    # a digest-only bucket's slice is its leaf preimage's key ‖ digest
    items = [sha256(_LEAF_HEAD + data[before:before + 40]).digest()] \
        if before >= 0 else []
    items += [sha256(pack_leaf(_LEAF_HEAD, key, sha256(
        head + data[start:end]).digest())).digest()
        for key, head, start, end in revealed]
    if after >= 0:
        items.append(sha256(_LEAF_HEAD + data[after:after + 40]).digest())
    return _crit_fold(
        items, gaps,
        [data[q:q + 32] for q in range(ldigs, ldigs + 32 * nleft, 32)],
        [data[q:q + 32] for q in range(rdigs, rdigs + 32 * nright, 32)])


def _crit_fold(items, gaps, lefts=(), rights=()):
    """Root of the crit-bit tree whose leaves, in key order, have the
    digests lefts, items and rights; gaps[i] is the bit of the branch that
    separates the i-th leaf from the next.  None if two gaps with only
    larger gaps between them are equal, which no crit-bit tree has.
    Hashes inline: this is the client's hot loop.

    The gaps of lefts, the first len(lefts), must strictly ascend and
    those of rights, the last len(rights), strictly descend, as a hash
    leaf's side subtrees do.  Then no left leaf closes a branch, so they
    open the stack as they come, and each right leaf closes its own branch
    at once, so it joins the top without being pushed.  The top is `cur`,
    and the stack below it holds each open branch's bit and left digest."""
    sha256, prefix = hashlib.sha256, _BRANCH_PREFIX
    nleft, split = len(lefts), len(gaps) - len(rights)
    # a -1 that no gap reaches ends bits, which holds one more than stack
    stack, bits, cur = [*lefts], [-1, *gaps[:nleft]], items[0]
    for gap, item in zip(gaps[nleft:split], items[1:]):
        while bits[-1] > gap:
            cur = sha256(prefix[bits.pop()] + stack.pop() + cur).digest()
        if bits[-1] == gap:
            return None
        bits.append(gap)
        stack.append(cur)
        cur = item
    for gap, item in zip(gaps[split:], rights):
        while bits[-1] > gap:
            cur = sha256(prefix[bits.pop()] + stack.pop() + cur).digest()
        if bits[-1] == gap:
            return None
        cur = sha256(prefix[gap] + cur + item).digest()
    for bit, left in zip(reversed(bits), reversed(stack)):
        cur = sha256(prefix[bit] + left + cur).digest()
    return cur


# --- the prefix trie -----------------------------------------------------
# The walk reads the descent path, then the terminal: for a match, the
# whole revealed subtree.  A node's label, ids and item runs are preimage
# bytes already.

def _label_ok(label: bytes, start: int, root: bool) -> bool:
    """The root's label is empty; any other is one or more alphabet
    characters that end within MAX_KEY_LEN of the root."""
    if root:
        return label == b""
    return (0 < len(label) <= MAX_KEY_LEN - start
            and max(label) < len(ALPHABET))


# the strictly ascending runs of alphabet indices: each index at most once,
# in order
_ASCENDING_INDICES = re.compile(b"".join(
    re.escape(_BYTE[i]) + b"?" for i in range(len(ALPHABET))))


def _indices_ok(idxs: bytes, taken: int) -> bool:
    """Child indices strictly ascending and in the alphabet, and none is
    taken."""
    return (_ASCENDING_INDICES.fullmatch(idxs) is not None
            and taken not in idxs)


def _ids_at(data, off: int, cnt: int):
    """The cnt ids at off, or None unless they strictly ascend.  The
    caller has checked that they lie inside data."""
    if cnt == 1:
        return _U64.unpack_from(data, off)
    ids = _u64_run(cnt).unpack_from(data, off)
    return None if _unsorted(ids) else ids


def _verify_prefix(data, trusted_root, prefix, results) -> bool:
    """Every check that hashes nothing first, the claimed results
    included; then the hashes, folded up the path to the root."""
    if len(data) < 34 or data[:32] != trusted_root:
        return False
    want, size = _indices(prefix), len(data)
    nwant = len(want)
    mode, npath = data[32], data[33]
    # The prefix spells out every path label, and the branch taken after
    # each is the prefix's next character, so it starts the next label.
    # The fold needs of each path node the offsets of its label, its ids
    # and its taken index, its id count, the taken index, its place among
    # its siblings, and the offset after them.
    path = []
    off, pos = 34, 0
    for k in range(npath):
        n = data[off]
        mid = off + 1 + n
        cnt, = _U32.unpack_from(data, mid)
        end = mid + 4 + 8 * cnt
        # only the root's label is empty; the others' room and alphabet
        # are checked once, below, on the part of the prefix they spell
        if end + 2 > size or (n == 0) != (k == 0) \
                or not want.startswith(data[off + 1:mid], pos):
            return False
        pos += n
        taken, after = data[end], end + 2 + 33 * data[end + 1]
        idxs = data[end + 2:after:33]
        if after > size or pos >= nwant or want[pos] != taken \
                or cnt > 1 and _ids_at(data, mid + 4, cnt) is None \
                or not _indices_ok(idxs, taken):
            return False
        path.append((off, mid, end, cnt, taken, bisect_left(idxs, taken),
                     after))
        off = after
    # _label_ok for every path label at once: they spell want[:pos]
    if pos > MAX_KEY_LEN or pos and max(want[:pos]) >= len(ALPHABET):
        return False
    rest = want[pos:]
    mid = off + 1 + data[off]
    label = data[off + 1:mid]
    cnt, = _U32.unpack_from(data, mid)
    end = mid + 4 + 8 * cnt
    if end >= size or not _label_ok(label, pos, not npath):
        return False
    if mode == MODE_MATCH:
        # the prefix ends inside or at the end of the subtree root's label
        if not label.startswith(rest):
            return False
        collected: set[int] = set()
        nodes: list = []
        if _walk_subtree(data, off, pos + len(label), collected,
                         nodes) != size or sorted(collected) != list(results):
            return False
        cur = _subtree_root(data, nodes)
    elif mode == MODE_NONMATCH:
        # the label starts with the branch taken, and must leave the
        # prefix: by a mismatch inside it, or by ending before the prefix
        # does with no branch for the next character
        nitems = data[end]
        idxs = data[end + 1:end + 1 + 33 * nitems:33]
        if results != [] or label.startswith(rest) \
                or end + 1 + 33 * nitems != size \
                or cnt > 1 and _ids_at(data, mid + 4, cnt) is None \
                or npath and label[0] != path[-1][4]:
            return False
        if not _indices_ok(idxs, rest[len(label)] if rest.startswith(label)
                           else _NOT_IN_ALPHABET):
            return False
        cur = hashlib.sha256(b"".join((
            _TAG, data[off:mid], _TERMINAL[cnt > 0], data[mid:size])))\
            .digest()
    else:
        return False
    # Fold the descent path up to the root, the taken child going in among
    # its siblings by index.
    sha256 = hashlib.sha256
    for off, mid, end, cnt, taken, at, after in reversed(path):
        split = end + 2 + 33 * at
        cur = sha256(b"".join((
            _TAG, data[off:mid], _TERMINAL[cnt > 0], data[mid:end],
            _BYTE[data[end + 1] + 1], data[end + 2:split], _BYTE[taken], cur,
            data[split:after]))).digest()
    return cur == trusted_root


def _walk_subtree(data, off: int, end: int, ids: set[int], nodes) -> int:
    """Check the revealed subtree at off, whose root's label the caller
    has checked and ends `end` characters below the trie root, without
    hashing: the offset after it, or -1 if a node breaks the shape rules.
    Gathers its terminal ids, and records its nodes, parents first, for
    _subtree_root.  Every child label is non-empty and the total stays
    within MAX_KEY_LEN, so recursion depth is bounded."""
    mid = off + 1 + data[off]
    cnt, = _U32.unpack_from(data, mid)
    p = mid + 4 + 8 * cnt
    if p >= len(data):
        return -1
    if cnt:
        node_ids = _ids_at(data, mid + 4, cnt)
        if node_ids is None:
            return -1
        ids.update(node_ids)
    nchild = data[p]
    nodes.append((off, mid, p + 1, cnt, nchild))
    p += 1
    last = -1
    room = MAX_KEY_LEN - end
    for _ in range(nchild):
        # _label_ok for a child, inline, and the labels' first characters
        # strictly ascend
        label = data[p + 1:p + 1 + data[p]]
        if not 0 < len(label) <= room or label[0] <= last \
                or max(label) >= len(ALPHABET):
            return -1
        last = label[0]
        p = _walk_subtree(data, p, end + len(label), ids, nodes)
        if p < 0:
            return -1
    return p


def _subtree_root(data, nodes) -> bytes:
    """The digest of a subtree that passed _walk_subtree: its nodes hashed
    in reverse of the walk's order, so that each node's children are done
    before it.  A stack entry is a child's item: its first label index ‖
    its digest."""
    sha256 = hashlib.sha256
    stack: list[bytes] = []
    for off, mid, end, cnt, nchild in reversed(nodes):
        parts = [_TAG, data[off:mid], _TERMINAL[cnt > 0], data[mid:end]]
        if nchild:
            parts += reversed(stack[-nchild:])
            del stack[-nchild:]
        cur = sha256(b"".join(parts)).digest()
        stack.append(data[off + 1:off + 2] + cur)
    return cur


def _unsorted(ids) -> bool:
    return len(ids) > 1 and any(b <= a for a, b in zip(ids, ids[1:]))
