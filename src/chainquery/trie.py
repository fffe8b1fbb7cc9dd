"""Verifiable fixed-alphabet trie for prefix (fuzzy) queries.

Keys are strings over an 18-character alphabet (hex digits, '-' and ':')
covering addresses and timestamp strings.  The trie is path-compressed
(PATRICIA): each node holds an edge label of one or more characters, and
no node but the root is non-terminal with exactly one child, so the shape
depends only on the key set.  Each node's digest composes its label, its
terminal entry ids, and one item per child: that child's first label
character ‖ its digest.  A node keeps its digest only in that item, as
it stands in its parent's preimage, so a rehash joins its children's
cached items in index order, and a proof's sibling runs are those same
items.  A path of sibling items plus the matched subtree reproduces the
root.

A prefix proof travels as its wire bytes: prefix_query writes them
straight from the nodes, and verify_prefix_bytes checks them in one
forward walk that hashes nothing, then hashes preimages built from slices
of them.  A PrefixVO is just the claimed root and those bytes.
"""
from __future__ import annotations

import hashlib
import struct
from bisect import bisect_left
from typing import Optional

from chainquery.core import (_U32, _U64, DOM_TRIE, VODecodeError,
                             _pack_u64_list, _u64_run, digest)
from chainquery.gas import GasMeter

ALPHABET = "0123456789abcdef-:"
MAX_KEY_LEN = 64
# stands for a prefix character outside the alphabet: no label holds it
_NOT_IN_ALPHABET = 0xFF
# an ASCII byte's alphabet index, _NOT_IN_ALPHABET for any other byte; a
# string reaches it through encode("ascii", "replace"), which turns each
# non-ASCII character into one "?"
_TO_INDEX = bytes(ALPHABET.index(chr(b)) if chr(b) in ALPHABET
                  else _NOT_IN_ALPHABET for b in range(256))


class InvalidCharacter(ValueError):
    pass


class KeyTooLong(ValueError):
    pass


# one-byte encodings; a dict, so a negative index fails as bytes([i]) would
_BYTE = {i: bytes([i]) for i in range(256)}

# A node's digest preimage, spelled once, as hashed: DOM_TRIE's tag byte,
# then label length u8 ‖ label ‖ terminal u8 ‖ id count u32 ‖ ids ‖ child
# count u8 ‖ the children's items in index order.  A node's item is its
# first label index u8 ‖ its digest, as it stands in its parent's
# preimage and in a proof's sibling runs; each node keeps its own in
# place of a bare digest, so a rehash joins its children's items and
# rebuilds none.  _node_preimage writes all but the tag, which digest()
# puts first (and which the benchmark's tracer counts).  The verifier
# puts the tag and the terminal byte around slices of the VO, which
# holds the rest as it is hashed, and hashes that with hashlib itself.
_TAG = bytes((DOM_TRIE,))
_NO_IDS = bytes(5)                        # not terminal, no ids
_ONE_ID = struct.Struct(">BIQ")           # terminal, 1, id
_TERMINAL = (b"\x00", b"\x01")            # by whether there are ids
_NO_ID_LIST = bytes(4)                    # an empty id list on the wire


def _node_preimage(label: bytes, entry_ids, items) -> bytes:
    """A node's preimage but the tag; items: its children's items in index
    order."""
    n = len(entry_ids)
    if n == 0:
        ids = _NO_IDS
    elif n == 1:
        ids = _ONE_ID.pack(1, 1, entry_ids[0])
    else:
        ids = b"\x01" + _pack_u64_list(entry_ids)
    return b"".join([_BYTE[len(label)], label, ids, _BYTE[len(items)],
                     *items])


def node_digest(label: bytes, entry_ids, child_items) -> bytes:
    """label: the node's alphabet indices.  child_items: the children's
    items (first label index u8 ‖ digest) in ascending index order.  The
    terminal flag is set by a non-empty entry id list."""
    return digest(DOM_TRIE, _node_preimage(label, entry_ids, child_items))


class TrieNode:
    __slots__ = ("label", "children", "entry_ids", "item")

    def __init__(self, label: bytes):
        self.label = label
        # keyed by the first character of each child's label
        self.children: dict[int, TrieNode] = {}
        # a shared empty tuple until the node turns terminal: most inner
        # nodes never do, and a list each would cost memory and GC time
        self.entry_ids: list[int] | tuple = ()
        # label[:1] ‖ digest, None while stale; the root's label is
        # empty, so its item is its digest
        self.item = None

    def recompute_digest(self) -> None:
        """Rehash from the children's items, which must be fresh."""
        kids = self.children
        self.item = self.label[:1] + digest(DOM_TRIE, _node_preimage(
            self.label, self.entry_ids, [kids[i].item for i in sorted(kids)]))


class PrefixVO:
    """Proof for a prefix query: sibling digests along the descent plus
    either the full matched subtree or the divergence node.  It is the
    claimed root and the proof's wire bytes, which verify_prefix_bytes
    walks: mode u8 ‖ path length u8, then the path and the terminal."""

    MODE_MATCH = 1
    MODE_NONMATCH = 0

    def __init__(self, claimed_root: bytes, body: bytes):
        self.claimed_root = claimed_root
        self.body = body

    def to_bytes(self) -> bytes:
        return self.claimed_root + self.body

    @classmethod
    def from_bytes(cls, data: bytes) -> "PrefixVO":
        if len(data) < 32:
            raise VODecodeError("truncated")
        return cls(bytes(data[:32]), bytes(data[32:]))


def _indices(prefix: str) -> bytes:
    """prefix as alphabet indices, _NOT_IN_ALPHABET for other characters."""
    return prefix.encode("ascii", "replace").translate(_TO_INDEX)


def _match_len(label: bytes, want: bytes, pos: int) -> int:
    """How many leading characters of label equal those of want[pos:]."""
    if want.startswith(label, pos):
        return len(label)
    n, end = 0, min(len(label), len(want) - pos)
    while n < end and label[n] == want[pos + n]:
        n += 1
    return n


class Trie:
    """Prefix index with iterative insert/descent and per-node digests."""

    def __init__(self, meter: Optional[GasMeter] = None):
        self.meter = meter or GasMeter()
        self.root = TrieNode(b"")
        self.root.recompute_digest()
        self.key_count = 0
        self.last_descent_visits = 0

    def root_digest(self) -> bytes:
        if self.root.item is None:
            self._flush_node(self.root)
        return self.root.item

    def _flush_node(self, node: TrieNode) -> None:
        """Rehash node, which is stale, after its stale children."""
        for child in node.children.values():
            if child.item is None:
                self._flush_node(child)
        node.recompute_digest()
        self.meter.compute()

    @staticmethod
    def _check_key(key: str) -> bytes:
        if not key:
            raise InvalidCharacter("key must be non-empty")
        if len(key) > MAX_KEY_LEN:
            raise KeyTooLong(f"key length {len(key)} exceeds {MAX_KEY_LEN}")
        idxs = _indices(key)
        if _NOT_IN_ALPHABET in idxs:
            bad = key[idxs.index(_NOT_IN_ALPHABET)]
            raise InvalidCharacter(f"character {bad!r} not in alphabet")
        return idxs

    def insert(self, key: str, entry_id: int) -> None:
        """Add entry_id under key; a bad key or id raises first.  Every
        node on the key's path, and any node a split relabels, is marked
        stale for root_digest() to rehash.  Meter: one read per existing
        node descended into, one write per node marked stale."""
        if entry_id < 0:
            raise ValueError("entry_id must be non-negative")
        key = self._check_key(key)
        node, pos, visited, written = self.root, 0, 0, 1
        node.item = None
        while pos < len(key):
            child = node.children.get(key[pos])
            if child is None:
                child = node.children[key[pos]] = TrieNode(key[pos:])
                pos = len(key)
            else:
                visited += 1
                label = child.label
                common = _match_len(label, key, pos)
                if common < len(label):
                    # the key leaves the edge inside its label: split it,
                    # and hang the old node under the shared part
                    child.item = None
                    written += 1
                    child.label = label[common:]
                    mid = node.children[key[pos]] = TrieNode(label[:common])
                    mid.children[label[common]] = child
                    child = mid
                pos += common
            node = child
            node.item = None
            written += 1
        ids = node.entry_ids
        if not ids:
            self.key_count += 1
            node.entry_ids = [entry_id]
        else:
            at = bisect_left(ids, entry_id)
            if at == len(ids) or ids[at] != entry_id:
                ids.insert(at, entry_id)
        self.meter.read(visited)
        self.meter.write(written)

    def prefix_query(self, prefix: str):
        """All entry ids whose key starts with prefix, sorted ascending,
        plus a PrefixVO (a non-membership proof when nothing matches),
        written straight from the nodes.  The descent compares one prefix
        character per step and counts the matched ones in
        last_descent_visits."""
        root = self.root_digest()
        want = _indices(prefix)
        node, pos, npath = self.root, 0, 0
        parts = [b""]  # the mode and path length go first, once known
        while pos < len(want):
            idx = want[pos]
            kids = node.children
            child = kids.get(idx)
            if child is None:
                break  # no branch for the next character
            parts += _label_ids(node)
            parts += (_BYTE[idx], _BYTE[len(kids) - 1])
            parts += [kids[i].item for i in sorted(kids) if i != idx]
            npath += 1
            node = child
            matched = _match_len(node.label, want, pos)
            pos += matched
            if matched < len(node.label) and pos < len(want):
                break  # a mismatch inside the label
        self.meter.read(npath)
        self.last_descent_visits = pos
        if pos < len(want):
            kids = node.children
            parts += _label_ids(node)
            parts.append(_BYTE[len(kids)])
            parts += [kids[i].item for i in sorted(kids)]
            parts[0] = bytes((PrefixVO.MODE_NONMATCH, npath))
            return [], PrefixVO(root, b"".join(parts))
        # the prefix ends inside or at the end of node's label: reveal the
        # subtree under node, each node before its children, which follow
        # in index order
        found: set[int] = set()
        todo, visited = [node], 0
        while todo:
            node = todo.pop()
            kids = node.children
            if node.entry_ids:
                found.update(node.entry_ids)
            parts += _label_ids(node)
            parts.append(_BYTE[len(kids)])
            if kids:
                todo += [kids[i] for i in sorted(kids, reverse=True)]
            visited += 1
        self.meter.read(visited)
        parts[0] = bytes((PrefixVO.MODE_MATCH, npath))
        return sorted(found), PrefixVO(root, b"".join(parts))


def _label_ids(node: TrieNode):
    """A node's label length u8 ‖ label ‖ id count u32 ‖ ids, as VO
    parts."""
    ids = node.entry_ids
    return (_BYTE[len(node.label)], node.label,
            _pack_u64_list(ids) if ids else _NO_ID_LIST)


# --- verification --------------------------------------------------------
#
# The verifier reads the VO bytes in one forward walk that hashes nothing:
# the descent path, then the terminal, and for a match every node of the
# revealed subtree, whose ids must equal the claimed results.  Only then
# does it hash, each preimage built from slices of the VO: a node's
# `label ‖ count ‖ ids` run and its item run are already preimage bytes.

def verify_prefix(vo: PrefixVO, trusted_root: bytes, prefix: str,
                  results) -> bool:
    """verify_prefix_bytes on the VO's encoding."""
    return verify_prefix_bytes(vo.to_bytes(), trusted_root, prefix, results)


def verify_prefix_bytes(vo_bytes: bytes, trusted_root: bytes, prefix: str,
                        results) -> bool:
    """True iff the serialized VO recomputes trusted_root and the matched
    subtree's terminal ids equal results (empty for a non-membership
    proof); malformed bytes verify as False."""
    try:
        return _verify(vo_bytes, trusted_root, prefix, results)
    except (ValueError, TypeError, IndexError, KeyError, AttributeError,
            OverflowError, struct.error):
        return False


def _label_ok(label: bytes, start: int, root: bool) -> bool:
    """The root's label is empty; any other is one or more alphabet
    characters that end within MAX_KEY_LEN of the root."""
    if root:
        return label == b""
    return (0 < len(label) <= MAX_KEY_LEN - start
            and max(label) < len(ALPHABET))


def _indices_ok(idxs: bytes, taken: int) -> bool:
    """Child indices strictly ascending and in the alphabet, and none is
    taken."""
    return (bytes(sorted(set(idxs))) == idxs and taken not in idxs
            and not (idxs and idxs[-1] >= len(ALPHABET)))


def _ids_at(data, off: int, cnt: int):
    """The cnt ids at off, or None unless they strictly ascend.  The
    caller has checked that they lie inside data."""
    if cnt == 1:
        return _U64.unpack_from(data, off)
    ids = _u64_run(cnt).unpack_from(data, off)
    return None if _unsorted(ids) else ids


def _verify(data, trusted_root, prefix, results) -> bool:
    """Every check that hashes nothing first, the claimed results
    included; then the hashes, folded up the path to the root."""
    if len(data) < 34 or data[:32] != trusted_root:
        return False
    want, size = _indices(prefix), len(data)
    mode, npath = data[32], data[33]
    # The prefix spells out every path label, and the branch taken after
    # each is the prefix's next character, so it starts the next label.
    # The fold needs of each path node the offsets of its label, its ids
    # and its taken index, its id count, the taken index, its place among
    # its siblings, and the offset after them.
    path = []
    off, pos = 34, 0
    for k in range(npath):
        mid = off + 1 + data[off]
        label = data[off + 1:mid]
        cnt, = _U32.unpack_from(data, mid)
        end = mid + 4 + 8 * cnt
        if end + 2 > size or not _label_ok(label, pos, k == 0) \
                or not want.startswith(label, pos):
            return False
        pos += len(label)
        taken, after = data[end], end + 2 + 33 * data[end + 1]
        idxs = data[end + 2:after:33]
        if after > size or pos >= len(want) or want[pos] != taken \
                or cnt > 1 and _ids_at(data, mid + 4, cnt) is None \
                or not _indices_ok(idxs, taken):
            return False
        path.append((off, mid, end, cnt, taken, bisect_left(idxs, taken),
                     after))
        off = after
    rest = want[pos:]
    mid = off + 1 + data[off]
    label = data[off + 1:mid]
    cnt, = _U32.unpack_from(data, mid)
    end = mid + 4 + 8 * cnt
    if end >= size or not _label_ok(label, pos, not npath):
        return False
    if mode == PrefixVO.MODE_MATCH:
        # the prefix ends inside or at the end of the subtree root's label
        if not label.startswith(rest):
            return False
        collected: set[int] = set()
        nodes: list = []
        if _walk_subtree(data, off, pos + len(label), collected,
                         nodes) != size or sorted(collected) != list(results):
            return False
        cur = _subtree_root(data, nodes)
    elif mode == PrefixVO.MODE_NONMATCH:
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
    for _ in range(nchild):
        label = data[p + 1:p + 1 + data[p]]
        if not _label_ok(label, end, False) or label[0] <= last:
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
