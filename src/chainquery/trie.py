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
straight from the nodes, and the light client (`chainquery.client`)
checks them.  A PrefixVO is just the claimed root and those bytes.
"""
from __future__ import annotations

import struct
from bisect import bisect_left
from typing import Optional

from chainquery import client
# ALPHABET, the keys' alphabet, stays importable from here
from chainquery.core import (_BYTE, _NOT_IN_ALPHABET, _TERMINAL, ALPHABET,
                             DOM_TRIE, MAX_KEY_LEN, MODE_MATCH, MODE_NONMATCH,
                             VODecodeError, _indices, _pack_u64_list, digest)
from chainquery.gas import GasMeter


class InvalidCharacter(ValueError):
    pass


class KeyTooLong(ValueError):
    pass


# A node's preimage is laid out in core; _node_preimage writes all of it
# but the tag, which digest() puts first.
_NO_IDS = bytes(5)                        # not terminal, no ids
_ONE_ID = struct.Struct(">BIQ")           # terminal, 1, id
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
        ids = _TERMINAL[1] + _pack_u64_list(entry_ids)
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


class PrefixVO:
    """Proof for a prefix query: sibling digests along the descent plus
    either the full matched subtree or the divergence node.  It is the
    claimed root and the proof's wire bytes, which verify_prefix_bytes
    walks: mode u8 ‖ path length u8, then the path and the terminal."""

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
        self.root.item = node_digest(b"", (), ())
        self.key_count = 0
        self.last_descent_visits = 0

    def root_digest(self) -> bytes:
        return self.root.item or self._rehash(self.root)

    def _rehash(self, node: TrieNode) -> bytes:
        """node's item, node being stale: its children's items in index
        order, each stale child rehashed as it comes, then joined."""
        kids = node.children
        items = [kids[i].item or self._rehash(kids[i]) for i in sorted(kids)]
        node.item = node.label[:1] + digest(DOM_TRIE, _node_preimage(
            node.label, node.entry_ids, items))
        self.meter.compute()
        return node.item

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
            parts[0] = bytes((MODE_NONMATCH, npath))
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
        parts[0] = bytes((MODE_MATCH, npath))
        return sorted(found), PrefixVO(root, b"".join(parts))


def _label_ids(node: TrieNode):
    """A node's label length u8 ‖ label ‖ id count u32 ‖ ids, as VO
    parts."""
    ids = node.entry_ids
    return (_BYTE[len(node.label)], node.label,
            _pack_u64_list(ids) if ids else _NO_ID_LIST)


# --- verification --------------------------------------------------------

def verify_prefix(vo: PrefixVO, trusted_root: bytes, prefix: str,
                  results) -> bool:
    """verify_prefix_bytes on the VO's encoding."""
    return verify_prefix_bytes(vo.to_bytes(), trusted_root, prefix, results)


def verify_prefix_bytes(vo_bytes: bytes, trusted_root: bytes, prefix: str,
                        results) -> bool:
    """client.verify_prefix_bytes, under the name the benchmark traces."""
    return client.verify_prefix_bytes(vo_bytes, trusted_root, prefix, results)
