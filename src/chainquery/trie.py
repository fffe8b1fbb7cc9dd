"""Verifiable fixed-alphabet trie for prefix (fuzzy) queries.

Keys are strings over an 18-character alphabet (hex digits, '-' and ':')
covering addresses and timestamp strings.  The trie is path-compressed
(PATRICIA): each node holds an edge label of one or more characters, and
no node but the root is non-terminal with exactly one child, so the shape
depends only on the key set.  Each node's digest composes its label, its
terminal entry ids, and all (first label character, child digest) pairs,
so a path of sibling digests plus the matched subtree reproduces the root.
"""
from __future__ import annotations

import hashlib
import struct
from bisect import bisect_left
from typing import Optional

from chainquery import _kernels
from chainquery.core import (DOM_TRIE, VODecodeError, _take, _take_u64s,
                             digest)
from chainquery.gas import GasMeter

ALPHABET = "0123456789abcdef-:"
ALPHABET_INDEX = {c: i for i, c in enumerate(ALPHABET)}
MAX_KEY_LEN = 64
# stands for a prefix character outside the alphabet: no label holds it
_NOT_IN_ALPHABET = 0xFF


class InvalidCharacter(ValueError):
    pass


class KeyTooLong(ValueError):
    pass


# one-byte encodings; a dict, so a negative index fails as bytes([i]) would
_BYTE = {i: bytes([i]) for i in range(256)}

# A node's digest preimage, spelled once, as hashed: DOM_TRIE's tag byte,
# then label length u8 ‖ label ‖ terminal u8 ‖ id count u32 ‖ ids ‖ child
# count u8 ‖ one (first label index u8 ‖ digest) per child.  node_digest
# hands all but the tag to digest(), which puts it back (and which the
# benchmark's tracer counts); the verifier hashes it with hashlib itself.
_HEAD = {n: bytes((DOM_TRIE, n)) for n in range(256)}  # tag, label length
_NO_IDS = bytes(5)                        # not terminal, no ids
_ONE_ID = struct.Struct(">BIQ")           # terminal, 1, id


def _node_preimage(label: bytes, entry_ids, child_items) -> bytes:
    n = len(entry_ids)
    if n == 0:
        ids = _NO_IDS
    elif n == 1:
        ids = _ONE_ID.pack(1, 1, entry_ids[0])
    else:
        ids = b"\x01" + _kernels.pack_u64_list(entry_ids)
    return b"".join([_HEAD[len(label)], label, ids, _BYTE[len(child_items)],
                     *[_BYTE[i] + d for i, d in child_items]])


def node_digest(label: bytes, entry_ids, child_items) -> bytes:
    """label: the node's alphabet indices.  child_items: sequence of
    (index, digest) pairs in ascending index order, each index the first
    character of that child's label.  The terminal flag is set by a
    non-empty entry id list."""
    return digest(DOM_TRIE, _node_preimage(label, entry_ids, child_items)[1:])


class TrieNode:
    __slots__ = ("label", "children", "entry_ids", "node_digest")

    def __init__(self, label: bytes):
        self.label = label
        # keyed by the first character of each child's label
        self.children: dict[int, TrieNode] = {}
        # a shared empty tuple until the node turns terminal: most inner
        # nodes never do, and a list each would cost memory and GC time
        self.entry_ids: list[int] | tuple = ()
        self.node_digest = b""

    def recompute_digest(self, meter: Optional[GasMeter]) -> None:
        self.node_digest = node_digest(self.label, self.entry_ids,
                                       _items(self))
        if meter:
            meter.compute()


def _items(node: TrieNode, skip: int = _NOT_IN_ALPHABET):
    """(index, digest) of node's children in index order, less skip."""
    return [(i, node.children[i].node_digest)
            for i in sorted(node.children) if i != skip]


class PrefixVO:
    """Proof for a prefix query: sibling digests along the descent plus
    either the full matched subtree or the divergence node."""

    MODE_MATCH = 1
    MODE_NONMATCH = 0

    def __init__(self, claimed_root: bytes, mode: int, path, terminal):
        self.claimed_root = claimed_root
        self.mode = mode
        # path, root first: [(label, entry_ids, taken_index, [(idx, digest)])]
        self.path = path
        # match: terminal = encoded subtree tuple
        #   (label, entry_ids, [children subtrees])
        # nonmatch: terminal = (label, entry_ids, [(idx, digest)])
        self.terminal = terminal

    def to_bytes(self) -> bytes:
        parts = [self.claimed_root, bytes([self.mode, len(self.path)])]
        for label, ids, taken, sibs in self.path:
            parts += [_BYTE[len(label)], label, _kernels.pack_u64_list(ids),
                      _BYTE[taken], _encode_items(sibs)]
        if self.mode == self.MODE_MATCH:
            parts.append(_encode_subtree(self.terminal))
        else:
            label, ids, items = self.terminal
            parts += [_BYTE[len(label)], label, _kernels.pack_u64_list(ids),
                      _encode_items(items)]
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PrefixVO":
        try:
            root = _take(data, 0, 32)
            mode, path_len = data[32], data[33]
            off = 34
            path = []
            for _ in range(path_len):
                label, ids, off = _decode_label_ids(data, off)
                taken = data[off]
                sibs, off = _decode_items(data, off + 1)
                path.append((label, ids, taken, sibs))
            if mode == cls.MODE_MATCH:
                terminal, off = _decode_subtree(data, off, 0)
            elif mode == cls.MODE_NONMATCH:
                label, ids, off = _decode_label_ids(data, off)
                items, off = _decode_items(data, off)
                terminal = (label, ids, items)
            else:
                raise VODecodeError("bad mode")
            if off != len(data):
                raise VODecodeError("trailing bytes")
            return cls(root, mode, path, terminal)
        except (IndexError, struct.error) as exc:
            raise VODecodeError(str(exc)) from None


def _encode_items(items) -> bytes:
    """A one-byte count, then one (index byte, digest) per item."""
    return bytes([len(items)]) + b"".join([_BYTE[i] + d for i, d in items])


def _decode_items(data: bytes, off: int):
    """Inverse of _encode_items at off: (items, offset after them)."""
    n = data[off]
    raw = _take(data, off + 1, 33 * n)
    return ([(raw[i], raw[i + 1:i + 33]) for i in range(0, len(raw), 33)],
            off + 1 + len(raw))


# a label of each length, then the u32 count of the ids after it
_LABEL_COUNT = tuple(struct.Struct(f">{n}sI") for n in range(256))
_U64 = struct.Struct(">Q")


def _decode_label_ids(data: bytes, off: int):
    """A label (a one-byte length, then that many alphabet indices) and
    an id list (a u32 count, then that many u64s) at off: (label, ids,
    offset after them)."""
    n = data[off]
    label, cnt = _LABEL_COUNT[n].unpack_from(data, off + 1)
    off += 5 + n
    if cnt == 0:
        return label, [], off
    if cnt == 1:
        return label, list(_U64.unpack_from(data, off)), off + 8
    return label, _take_u64s(data, off, cnt), off + 8 * cnt


def _encode_subtree(sub) -> bytes:
    label, ids, children = sub
    parts = [_BYTE[len(label)], label, _kernels.pack_u64_list(ids),
             bytes([len(children)])]
    for child in children:
        parts.append(_encode_subtree(child))
    return b"".join(parts)


def _decode_subtree(data: bytes, off: int, depth: int):
    # a valid subtree nests at most MAX_KEY_LEN + 1 nodes, as every label
    # below the root is non-empty; stopping here keeps crafted nesting from
    # exhausting the stack
    if depth > MAX_KEY_LEN + 1:
        raise VODecodeError("subtree nested too deep")
    label, ids, off = _decode_label_ids(data, off)
    nchild = data[off]
    off += 1
    children = []
    for _ in range(nchild):
        child, off = _decode_subtree(data, off, depth + 1)
        children.append(child)
    return (label, ids, children), off


def _indices(prefix: str) -> bytes:
    """prefix as alphabet indices, _NOT_IN_ALPHABET for other characters."""
    return bytes([ALPHABET_INDEX.get(c, _NOT_IN_ALPHABET) for c in prefix])


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
        self.meter = meter
        self.root = TrieNode(b"")
        self.root.recompute_digest(None)
        self.key_count = 0
        self.last_descent_visits = 0

    def root_digest(self) -> bytes:
        return self.root.node_digest

    @staticmethod
    def _check_key(key: str) -> bytes:
        if not key:
            raise InvalidCharacter("key must be non-empty")
        if len(key) > MAX_KEY_LEN:
            raise KeyTooLong(f"key length {len(key)} exceeds {MAX_KEY_LEN}")
        try:
            return bytes([ALPHABET_INDEX[c] for c in key])
        except KeyError:
            bad = next(c for c in key if c not in ALPHABET_INDEX)
            raise InvalidCharacter(f"character {bad!r} not in alphabet") from None

    def insert(self, key: str, entry_id: int) -> None:
        self.insert_many([(key, entry_id)])

    def insert_many(self, pairs) -> None:
        """Insert (key, entry_id) pairs, then recompute the digest of every
        touched node once, children before parents.  All keys are checked
        first, so a bad pair leaves the trie unchanged.

        Meter: per key, one read per existing node descended into and one
        write per node on the key's path (each gets a new digest, and new
        nodes are on it) or relabelled by a split; one compute per node
        rehashed."""
        checked = []
        for key, entry_id in pairs:
            if entry_id < 0:
                raise ValueError("entry_id must be non-negative")
            checked.append((self._check_key(key), entry_id))
        meter = self.meter
        # touched node -> its end depth, the characters from the root to
        # the end of its label.  A split pushes the nodes below it one level
        # down but leaves every end depth as it was, and a child's end depth
        # exceeds its parent's, so this order hashes children first.
        dirty: dict[TrieNode, int] = {self.root: 0}
        for key, entry_id in checked:
            node, pos, visited, written = self.root, 0, 0, 1
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
                        # the key leaves the edge inside its label: split
                        # it, and hang the old node under the shared part
                        dirty[child] = pos + len(label)
                        written += 1
                        child.label = label[common:]
                        mid = node.children[key[pos]] = TrieNode(
                            label[:common])
                        mid.children[label[common]] = child
                        child = mid
                    pos += common
                node = child
                dirty[node] = pos
                written += 1
            ids = node.entry_ids
            if not ids:
                self.key_count += 1
                node.entry_ids = [entry_id]
            else:
                at = bisect_left(ids, entry_id)
                if at == len(ids) or ids[at] != entry_id:
                    ids.insert(at, entry_id)
            if meter:
                meter.read(visited)
                meter.write(written)
        for node in sorted(dirty, key=dirty.__getitem__, reverse=True):
            node.recompute_digest(meter)

    def prefix_query(self, prefix: str):
        """All entry ids whose key starts with prefix, sorted ascending,
        plus a PrefixVO (a non-membership proof when nothing matches).
        The descent compares one prefix character per step and counts the
        matched ones in last_descent_visits."""
        want = _indices(prefix)
        node, pos, path = self.root, 0, []
        meter = self.meter
        while pos < len(want):
            idx = want[pos]
            child = node.children.get(idx)
            if child is None:
                break  # no branch for the next character
            path.append((node.label, list(node.entry_ids), idx,
                         _items(node, idx)))
            node = child
            if meter:
                meter.read()
            matched = _match_len(node.label, want, pos)
            pos += matched
            if matched < len(node.label) and pos < len(want):
                break  # a mismatch inside the label
        self.last_descent_visits = pos
        if pos < len(want):
            terminal = (node.label, list(node.entry_ids), _items(node))
            return [], PrefixVO(self.root_digest(), PrefixVO.MODE_NONMATCH,
                                path, terminal)
        # the prefix ends inside or at the end of node's label
        ids: set[int] = set()
        subtree = self._collect(node, ids)
        return sorted(ids), PrefixVO(self.root_digest(), PrefixVO.MODE_MATCH,
                                     path, subtree)

    def _collect(self, node: TrieNode, ids: set[int]):
        """Encode the subtree under node, gathering terminal entry ids.
        Key length is capped, so recursion depth is bounded."""
        ids.update(node.entry_ids)
        if self.meter:
            self.meter.read()
        children = [self._collect(node.children[i], ids)
                    for i in sorted(node.children)]
        return (node.label, list(node.entry_ids), children)


# --- verification --------------------------------------------------------

def verify_prefix(vo: PrefixVO, trusted_root: bytes, prefix: str,
                  results) -> bool:
    """True iff the VO recomputes trusted_root and the matched subtree's
    terminal ids equal results (empty for a non-membership proof)."""
    try:
        return _verify_prefix(vo, trusted_root, prefix, results)
    except (VODecodeError, ValueError, TypeError, IndexError, KeyError,
            AttributeError, struct.error):
        return False


def _label_ok(label: bytes, start: int, root: bool) -> bool:
    """The root's label is empty; any other is one or more alphabet
    characters that end within MAX_KEY_LEN of the root."""
    if root:
        return label == b""
    return (0 < len(label) <= MAX_KEY_LEN - start
            and max(label) < len(ALPHABET))


def _verify_prefix(vo, trusted_root, prefix, results) -> bool:
    """Every check that hashes nothing first, the claimed results
    included; then the hashes, folded up the path to the root."""
    if vo.claimed_root != trusted_root:
        return False
    want = _indices(prefix)
    # The prefix spells out every path label, and the branch taken after
    # each is the prefix's next character.
    pos = 0
    for k, (label, ids, taken, sibs) in enumerate(vo.path):
        if not _label_ok(label, pos, k == 0) or \
                not want.startswith(label, pos):
            return False
        pos += len(label)
        if pos >= len(want) or want[pos] != taken:
            return False
    rest = want[pos:]
    if vo.mode == PrefixVO.MODE_MATCH:
        label = vo.terminal[0]
        # the prefix ends inside or at the end of the subtree root's label
        if not _label_ok(label, pos, not vo.path) or \
                not label.startswith(rest):
            return False
        collected: set[int] = set()
        if not _check_subtree(vo.terminal, collected, pos + len(label)) \
                or sorted(collected) != list(results):
            return False
    elif vo.mode == PrefixVO.MODE_NONMATCH:
        if results != []:
            return False
        label, node_ids, items = vo.terminal
        # the label must leave the prefix: by a mismatch inside it, or by
        # ending before the prefix does with no branch for the next
        # character
        if not _label_ok(label, pos, not vo.path) or label.startswith(rest):
            return False
        idxs = [i for i, _ in items]
        if idxs != sorted(set(idxs)) or any(i >= len(ALPHABET) for i in idxs):
            return False
        if rest.startswith(label) and rest[len(label)] in idxs:
            return False
        if _unsorted(node_ids):
            return False
    else:
        return False
    # Each path node: sorted ids, sibling indices ascending, in the
    # alphabet and distinct from the taken one, and a taken child whose
    # label starts with it.
    for label_above, ids, taken, sibs in reversed(vo.path):
        idxs = [i for i, _ in sibs]
        if _unsorted(ids) or _unsorted(idxs) or taken in idxs \
                or idxs and idxs[-1] >= len(ALPHABET):
            return False
        if label[0] != taken:
            return False
        label = label_above
    # Hash the terminal node, then fold the descent path up to the root,
    # the taken child going in among its siblings by index.
    sha256 = hashlib.sha256
    if vo.mode == PrefixVO.MODE_MATCH:
        cur = _subtree_digest(vo.terminal)
    else:
        cur = sha256(_node_preimage(*vo.terminal)).digest()
    for label, ids, taken, sibs in reversed(vo.path):
        items = list(sibs)
        items.insert(bisect_left(items, (taken,)), (taken, cur))
        cur = sha256(_node_preimage(label, ids, items)).digest()
    return cur == trusted_root


def _check_subtree(sub, ids: set[int], end: int) -> bool:
    """False if a node of the revealed subtree, whose root label ends
    `end` characters below the trie root, breaks the shape rules; gathers
    its terminal ids.  Every child label is non-empty and the total stays
    within MAX_KEY_LEN, so recursion depth is bounded."""
    label, node_ids, children = sub
    if _unsorted(node_ids):
        return False
    ids.update(node_ids)
    last = -1
    for child in children:
        c_label = child[0]
        if not _label_ok(c_label, end, False) or c_label[0] <= last:
            return False
        last = c_label[0]
        if not _check_subtree(child, ids, end + len(c_label)):
            return False
    return True


def _subtree_digest(sub) -> bytes:
    """Digest of a revealed subtree that passed _check_subtree."""
    label, node_ids, children = sub
    items = [(child[0][0], _subtree_digest(child)) for child in children]
    return hashlib.sha256(_node_preimage(label, node_ids, items)).digest()


def _unsorted(ids) -> bool:
    return len(ids) > 1 and any(b <= a for a, b in zip(ids, ids[1:]))


def verify_prefix_bytes(vo_bytes: bytes, trusted_root: bytes, prefix: str,
                        results) -> bool:
    """Verify a serialized VO; malformed bytes verify as False."""
    try:
        vo = PrefixVO.from_bytes(vo_bytes)
    except (VODecodeError, ValueError, IndexError):
        return False
    return verify_prefix(vo, trusted_root, prefix, results)
