"""Verifiable fixed-alphabet trie for prefix (fuzzy) queries.

Keys are strings over an 18-character alphabet (hex digits, '-' and ':')
covering addresses and timestamp strings.  Each node's digest composes its
own character, terminal entry ids, and all (index, child digest) pairs, so
a path of sibling digests plus the matched subtree reproduces the root.
"""
from __future__ import annotations

import struct
from bisect import bisect_left
from typing import Optional

from chainquery import _kernels
from chainquery.core import DOM_TRIE, VODecodeError, _take, digest
from chainquery.gas import GasMeter

ALPHABET = "0123456789abcdef-:"
ALPHABET_INDEX = {c: i for i, c in enumerate(ALPHABET)}
ROOT_CHAR = 0xFF
MAX_KEY_LEN = 64


class InvalidCharacter(ValueError):
    pass


class KeyTooLong(ValueError):
    pass


# one-byte encodings; a dict, so a negative index fails as bytes([i]) would
_BYTE = {i: bytes([i]) for i in range(256)}


def node_digest(char_index: int, entry_ids, child_items) -> bytes:
    """child_items: sequence of (index, digest) pairs in ascending index
    order.  The terminal flag is set by a non-empty entry id list."""
    n = len(entry_ids)
    head = struct.pack(f">BBI{n}QB", char_index, 1 if n else 0, n,
                       *entry_ids, len(child_items))
    return digest(DOM_TRIE,
                  head + b"".join([_BYTE[i] + d for i, d in child_items]))


class TrieNode:
    __slots__ = ("char_index", "children", "entry_ids", "node_digest")

    def __init__(self, char_index: int):
        self.char_index = char_index
        self.children: dict[int, TrieNode] = {}
        # a shared empty tuple until the node turns terminal: most nodes
        # never do, and a list each would cost memory and GC time
        self.entry_ids: list[int] | tuple = ()
        self.node_digest = b""

    def recompute_digest(self, meter: Optional[GasMeter]) -> None:
        items = [(i, self.children[i].node_digest)
                 for i in sorted(self.children)]
        self.node_digest = node_digest(self.char_index, self.entry_ids, items)
        if meter:
            meter.compute()


class PrefixVO:
    """Proof for a prefix query: sibling digests along the descent plus
    either the full matched subtree or the divergence node."""

    MODE_MATCH = 1
    MODE_NONMATCH = 0

    def __init__(self, claimed_root: bytes, mode: int, path, terminal):
        self.claimed_root = claimed_root
        self.mode = mode
        # path: [(char_index, entry_ids, taken_index, [(idx, digest)])]
        self.path = path
        # match: terminal = encoded subtree tuple
        #   (char_index, entry_ids, [children subtrees])
        # nonmatch: terminal = (char_index, entry_ids, [(idx, digest)])
        self.terminal = terminal

    def to_bytes(self) -> bytes:
        parts = [self.claimed_root, bytes([self.mode, len(self.path)])]
        for char_index, ids, taken, sibs in self.path:
            parts += [bytes([char_index]), _kernels.pack_u64_list(ids),
                      bytes([taken]), _encode_items(sibs)]
        if self.mode == self.MODE_MATCH:
            parts.append(_encode_subtree(self.terminal))
        else:
            char_index, ids, items = self.terminal
            parts += [bytes([char_index]), _kernels.pack_u64_list(ids),
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
                char_index = data[off]
                ids, off = _decode_ids(data, off + 1)
                taken = data[off]
                sibs, off = _decode_items(data, off + 1)
                path.append((char_index, ids, taken, sibs))
            if mode == cls.MODE_MATCH:
                terminal, off = _decode_subtree(data, off, 0)
            elif mode == cls.MODE_NONMATCH:
                char_index = data[off]
                ids, off = _decode_ids(data, off + 1)
                items, off = _decode_items(data, off)
                terminal = (char_index, ids, items)
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


def _decode_ids(data: bytes, off: int):
    cnt, = struct.unpack_from(">I", data, off)
    off += 4
    if off + 8 * cnt > len(data):
        raise VODecodeError("truncated ids")
    ids = list(struct.unpack_from(f">{cnt}Q", data, off))
    return ids, off + 8 * cnt


def _encode_subtree(sub) -> bytes:
    char_index, ids, children = sub
    parts = [bytes([char_index]), _kernels.pack_u64_list(ids),
             bytes([len(children)])]
    for child in children:
        parts.append(_encode_subtree(child))
    return b"".join(parts)


def _decode_subtree(data: bytes, off: int, depth: int):
    # _subtree_digest rejects deeper subtrees; stopping here keeps crafted
    # nesting from exhausting the stack
    if depth > MAX_KEY_LEN + 1:
        raise VODecodeError("subtree nested too deep")
    char_index = data[off]
    ids, off = _decode_ids(data, off + 1)
    nchild = data[off]
    off += 1
    children = []
    for _ in range(nchild):
        child, off = _decode_subtree(data, off, depth + 1)
        children.append(child)
    return (char_index, ids, children), off


class Trie:
    """Prefix index with iterative insert/descent and per-node digests."""

    def __init__(self, meter: Optional[GasMeter] = None):
        self.meter = meter
        self.root = TrieNode(ROOT_CHAR)
        self.root.recompute_digest(None)
        self.key_count = 0
        self.last_descent_visits = 0

    def root_digest(self) -> bytes:
        return self.root.node_digest

    @staticmethod
    def _check_key(key: str) -> list[int]:
        if not key:
            raise InvalidCharacter("key must be non-empty")
        if len(key) > MAX_KEY_LEN:
            raise KeyTooLong(f"key length {len(key)} exceeds {MAX_KEY_LEN}")
        try:
            return [ALPHABET_INDEX[c] for c in key]
        except KeyError:
            bad = next(c for c in key if c not in ALPHABET_INDEX)
            raise InvalidCharacter(f"character {bad!r} not in alphabet") from None

    def insert(self, key: str, entry_id: int) -> None:
        self.insert_many([(key, entry_id)])

    def insert_many(self, pairs) -> None:
        """Insert (key, entry_id) pairs, then recompute the digest of every
        touched node once, children before parents.  All keys are checked
        first, so a bad pair leaves the trie unchanged."""
        checked = []
        for key, entry_id in pairs:
            if entry_id < 0:
                raise ValueError("entry_id must be non-negative")
            checked.append((self._check_key(key), entry_id))
        meter = self.meter
        dirty: dict[TrieNode, int] = {}  # touched node -> depth
        for indices, entry_id in checked:
            node = self.root
            dirty[node] = 0
            created = 0
            for depth, idx in enumerate(indices, 1):
                child = node.children.get(idx)
                if child is None:
                    child = node.children[idx] = TrieNode(idx)
                    created += 1
                node = child
                dirty[node] = depth
            ids = node.entry_ids
            if not ids:
                self.key_count += 1
                node.entry_ids = [entry_id]
            else:
                pos = bisect_left(ids, entry_id)
                if pos == len(ids) or ids[pos] != entry_id:
                    ids.insert(pos, entry_id)
            if meter:
                meter.read(len(indices))
                # one write per new node and one per path node
                meter.write(created + len(indices) + 1)
        for node in sorted(dirty, key=dirty.__getitem__, reverse=True):
            node.recompute_digest(meter)

    def prefix_query(self, prefix: str):
        """All entry ids whose key starts with prefix, sorted ascending,
        plus a PrefixVO (a non-membership proof when nothing matches)."""
        node = self.root
        path_entries = []
        visits = 0
        for depth, ch in enumerate(prefix):
            idx = ALPHABET_INDEX.get(ch)
            child = node.children.get(idx) if idx is not None else None
            if child is None:
                self.last_descent_visits = visits
                return [], self._nonmatch_vo(path_entries, node)
            sibs = [(i, node.children[i].node_digest)
                    for i in sorted(node.children) if i != idx]
            path_entries.append((node.char_index, list(node.entry_ids), idx,
                                 sibs))
            node = child
            visits += 1
            if self.meter:
                self.meter.read()
        self.last_descent_visits = visits
        ids: set[int] = set()
        subtree = self._collect(node, ids)
        results = sorted(ids)
        vo = PrefixVO(self.root_digest(), PrefixVO.MODE_MATCH, path_entries,
                      subtree)
        return results, vo

    def _nonmatch_vo(self, path_entries, node: TrieNode) -> PrefixVO:
        items = [(i, node.children[i].node_digest)
                 for i in sorted(node.children)]
        terminal = (node.char_index, list(node.entry_ids), items)
        return PrefixVO(self.root_digest(), PrefixVO.MODE_NONMATCH,
                        path_entries, terminal)

    def _collect(self, node: TrieNode, ids: set[int]):
        """Encode the subtree under node, gathering terminal entry ids.
        Key length is capped, so recursion depth is bounded."""
        ids.update(node.entry_ids)
        if self.meter:
            self.meter.read()
        children = [self._collect(node.children[i], ids)
                    for i in sorted(node.children)]
        return (node.char_index, list(node.entry_ids), children)


# --- verification --------------------------------------------------------

def verify_prefix(vo: PrefixVO, trusted_root: bytes, prefix: str,
                  results) -> bool:
    """True iff the VO recomputes trusted_root and the matched subtree's
    terminal ids equal results (empty for a non-membership proof)."""
    try:
        return _verify_prefix(vo, trusted_root, prefix, results)
    except (VODecodeError, ValueError, TypeError, IndexError, KeyError,
            struct.error):
        return False


def _verify_prefix(vo, trusted_root, prefix, results) -> bool:
    if vo.claimed_root != trusted_root:
        return False
    depth = len(vo.path)
    if depth > len(prefix):
        return False
    # The taken branch at each step must spell out the prefix.
    for (char_index, ids, taken, sibs), ch in zip(vo.path, prefix):
        if ALPHABET_INDEX.get(ch) != taken:
            return False
    if vo.mode == PrefixVO.MODE_MATCH:
        if depth != len(prefix):
            return False
        collected: set[int] = set()
        cur = _subtree_digest(vo.terminal, collected, 0)
        if cur is None or sorted(collected) != list(results):
            return False
        cur_char = vo.terminal[0]
    elif vo.mode == PrefixVO.MODE_NONMATCH:
        if results != []:
            return False
        if depth >= len(prefix):
            return False  # divergence must happen before the prefix ends
        char_index, node_ids, items = vo.terminal
        missing = ALPHABET_INDEX.get(prefix[depth])
        idxs = [i for i, _ in items]
        if idxs != sorted(set(idxs)) or any(i >= len(ALPHABET) for i in idxs):
            return False
        if missing is not None and missing in idxs:
            return False
        if _unsorted(node_ids):
            return False
        cur = node_digest(char_index, node_ids, items)
        cur_char = char_index
    else:
        return False
    # Fold the descent path back up to the root.
    for char_index, ids, taken, sibs in reversed(vo.path):
        if _unsorted(ids):
            return False
        if any(i >= len(ALPHABET) for i, _ in sibs) or taken >= len(ALPHABET):
            return False
        if cur_char != taken:
            # the child we descended into must carry the taken character
            return False
        items = sorted(sibs + [(taken, cur)])
        idxs = [i for i, _ in items]
        if len(set(idxs)) != len(idxs):
            return False
        cur = node_digest(char_index, ids, items)
        cur_char = char_index
    if vo.path and vo.path[0][0] != ROOT_CHAR:
        return False
    if not vo.path and cur_char not in (ROOT_CHAR,):
        return False
    return cur == trusted_root


def _subtree_digest(sub, ids: set[int], depth: int):
    char_index, node_ids, children = sub
    if depth > MAX_KEY_LEN + 1:
        return None
    if _unsorted(node_ids):
        return None
    ids.update(node_ids)
    items = []
    last = -1
    for child in children:
        c_char = child[0]
        if c_char <= last or c_char >= len(ALPHABET):
            return None
        last = c_char
        d = _subtree_digest(child, ids, depth + 1)
        if d is None:
            return None
        items.append((c_char, d))
    return node_digest(char_index, node_ids, items)


def _unsorted(ids) -> bool:
    return any(b <= a for a, b in zip(ids, ids[1:]))


def verify_prefix_bytes(vo_bytes: bytes, trusted_root: bytes, prefix: str,
                        results) -> bool:
    """Verify a serialized VO; malformed bytes verify as False."""
    try:
        vo = PrefixVO.from_bytes(vo_bytes)
    except (VODecodeError, ValueError, IndexError):
        return False
    return verify_prefix(vo, trusted_root, prefix, results)
