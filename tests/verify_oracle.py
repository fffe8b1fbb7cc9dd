"""Reference verifiers for the differential tests: the range and prefix
verifiers and their VO decoders as they stood before the check-first
rewrite, kept unchanged apart from their imports.  They hash through
`core.digest` and read the same in-memory proof tuples, so
`verify_range(vo, ...)` here accepts a `bhash.RangeVO` and `verify_prefix`
a `trie.PrefixVO`.  Nothing in the program imports this module.
"""
from __future__ import annotations

import hashlib
import itertools
import struct

from chainquery.core import (DOM_BUCKET, DOM_INTERNAL, DOM_LEAF, DOM_TRIE,
                             MAX_TIMESTAMP, VODecodeError, _check_timestamp,
                             _take, digest)

MAX_PROOF_DEPTH = 64
P_PRUNED, P_LEAF, P_INTERNAL, P_HASHLEAF = 0, 1, 2, 3
W_REVEALED, W_DIGEST_ONLY = 0, 1

ALPHABET = "0123456789abcdef-:"
ALPHABET_INDEX = {c: i for i, c in enumerate(ALPHABET)}
MAX_KEY_LEN = 64
_NOT_IN_ALPHABET = 0xFF
_BYTE = {i: bytes([i]) for i in range(256)}
MODE_MATCH, MODE_NONMATCH = 1, 0


def pack_u64_pairs(pairs):
    n = len(pairs)
    return struct.pack(f">I{2 * n}Q", n,
                       *itertools.chain.from_iterable(pairs))


def pack_u64_list(values):
    n = len(values)
    return struct.pack(f">I{n}Q", n, *values)


# --- range proofs ---------------------------------------------------------

def leaf_digest(pairs, lo: int, hi: int) -> bytes:
    return digest(DOM_LEAF, lo.to_bytes(8, "big") + hi.to_bytes(8, "big")
                  + pack_u64_pairs(pairs))


def bucket_ids_digest(entry_ids) -> bytes:
    return digest(DOM_BUCKET, b"\x03" + pack_u64_list(entry_ids))


def bucket_leaf_digest(key: int, ids_digest: bytes) -> bytes:
    return digest(DOM_BUCKET, b"\x00" + key.to_bytes(8, "big") + ids_digest)


def hash_node_digest(crit_root: bytes, lo: int, hi: int) -> bytes:
    return digest(DOM_INTERNAL, b"\x02" + crit_root + lo.to_bytes(8, "big")
                  + hi.to_bytes(8, "big"))


def internal_digest(child_triples, lo: int, hi: int) -> bytes:
    parts = [b"\x01", len(child_triples).to_bytes(4, "big")]
    for clo, chi, d in child_triples:
        parts.append(clo.to_bytes(8, "big"))
        parts.append(chi.to_bytes(8, "big"))
        parts.append(d)
    parts.append(lo.to_bytes(8, "big"))
    parts.append(hi.to_bytes(8, "big"))
    return digest(DOM_INTERNAL, b"".join(parts))


_BRANCH_PREFIX = [bytes((DOM_BUCKET, 0x04, bit)) for bit in range(64)]


def _crit_fold(items, gaps):
    digests, bits = [items[0]], []
    for gap, item in zip(gaps + [-1], items[1:] + [None]):
        while bits and bits[-1] > gap:
            right = digests.pop()
            digests[-1] = hashlib.sha256(_BRANCH_PREFIX[bits.pop()]
                                         + digests[-1] + right).digest()
        if bits and bits[-1] == gap:
            return None
        bits.append(gap)
        digests.append(item)
    return digests[0]


class RangeVO:
    def __init__(self, claimed_root: bytes, proof):
        self.claimed_root = claimed_root
        self.proof = proof

    @classmethod
    def from_bytes(cls, data: bytes) -> "RangeVO":
        if len(data) < 32:
            raise VODecodeError("truncated")
        root = bytes(data[:32])
        proof, off = _decode_proof(data, 32, 0)
        if off != len(data):
            raise VODecodeError("trailing bytes")
        return cls(root, proof)


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
            lo, hi, flags, nrev = struct.unpack_from(">QQBI", data, off + 1)
            if flags & ~0x03:
                raise VODecodeError("bad window flags")
            off += 22
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
            sides = []
            for _ in range(2):
                cnt = data[off]
                bits = _take(data, off + 1, cnt)
                raw = _take(data, off + 1 + cnt, 32 * cnt)
                sides.append((bits, [raw[i:i + 32]
                                     for i in range(0, len(raw), 32)]))
                off += 1 + 33 * cnt
            return (P_HASHLEAF, lo, hi, window, *sides), off
        raise VODecodeError(f"bad proof kind {kind}")
    except (IndexError, struct.error) as exc:
        raise VODecodeError(str(exc)) from None


def verify_range(vo, trusted_root: bytes, start_time: int,
                 end_time: int, results) -> bool:
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
    try:
        vo = RangeVO.from_bytes(vo_bytes)
    except (VODecodeError, ValueError, IndexError):
        return False
    return verify_range(vo, trusted_root, start_time, end_time, results)


def _verify_node(node, lo: int, hi: int, collected):
    kind = node[0]
    if kind == P_PRUNED:
        _, nlo, nhi, d = node
        if nlo <= hi and nhi >= lo:
            return None
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
    _, nlo, nhi, window, (lbits, ldigs), (rbits, rdigs) = node
    if not window or len(lbits) != len(ldigs) or len(rbits) != len(rdigs):
        return None
    keys = [e[1] for e in window]
    gaps = list(lbits)
    for a, b in zip(keys, keys[1:]):
        if b <= a:
            return None
        gaps.append(64 - (a ^ b).bit_length())
    gaps += rbits
    for wkind, key, payload in window:
        if wkind == W_REVEALED:
            if not lo <= key <= hi or sorted(payload) != payload:
                return None
        elif lo <= key <= hi or len(payload) != 32:
            return None
    first, last = keys[0], keys[-1]
    prev = -1
    for bit, d in zip(lbits, ldigs):
        if (not prev < bit < 64 or len(d) != 32
                or not first >> (63 - bit) & 1
                or (first >> (63 - bit) ^ 1) << (63 - bit)
                | ((1 << (63 - bit)) - 1) >= lo):
            return None
        prev = bit
    prev = 64
    for bit, d in zip(rbits, rdigs):
        if (not 0 <= bit < prev or len(d) != 32 or last >> (63 - bit) & 1
                or (last >> (63 - bit) | 1) << (63 - bit) <= hi):
            return None
        prev = bit
    leaves = []
    for wkind, key, payload in window:
        if wkind == W_REVEALED:
            collected.extend((key, eid) for eid in payload)
            payload = bucket_ids_digest(payload)
        leaves.append(bucket_leaf_digest(key, payload))
    root = _crit_fold(ldigs + leaves + rdigs, gaps)
    if root is None:
        return None
    return hash_node_digest(root, nlo, nhi)


# --- prefix proofs --------------------------------------------------------

def node_digest(label: bytes, entry_ids, child_items) -> bytes:
    n = len(entry_ids)
    head = struct.pack(f">B{len(label)}sBI{n}QB", len(label), label,
                       1 if n else 0, n, *entry_ids, len(child_items))
    return digest(DOM_TRIE,
                  head + b"".join([_BYTE[i] + d for i, d in child_items]))


class PrefixVO:
    MODE_MATCH = MODE_MATCH
    MODE_NONMATCH = MODE_NONMATCH

    def __init__(self, claimed_root: bytes, mode: int, path, terminal):
        self.claimed_root = claimed_root
        self.mode = mode
        self.path = path
        self.terminal = terminal

    @classmethod
    def from_bytes(cls, data: bytes) -> "PrefixVO":
        try:
            root = _take(data, 0, 32)
            mode, path_len = data[32], data[33]
            off = 34
            path = []
            for _ in range(path_len):
                label, off = _decode_label(data, off)
                ids, off = _decode_ids(data, off)
                taken = data[off]
                sibs, off = _decode_items(data, off + 1)
                path.append((label, ids, taken, sibs))
            if mode == cls.MODE_MATCH:
                terminal, off = _decode_subtree(data, off, 0)
            elif mode == cls.MODE_NONMATCH:
                label, off = _decode_label(data, off)
                ids, off = _decode_ids(data, off)
                items, off = _decode_items(data, off)
                terminal = (label, ids, items)
            else:
                raise VODecodeError("bad mode")
            if off != len(data):
                raise VODecodeError("trailing bytes")
            return cls(root, mode, path, terminal)
        except (IndexError, struct.error) as exc:
            raise VODecodeError(str(exc)) from None


def _decode_items(data: bytes, off: int):
    n = data[off]
    raw = _take(data, off + 1, 33 * n)
    return ([(raw[i], raw[i + 1:i + 33]) for i in range(0, len(raw), 33)],
            off + 1 + len(raw))


def _decode_label(data: bytes, off: int):
    n = data[off]
    return _take(data, off + 1, n), off + 1 + n


def _decode_ids(data: bytes, off: int):
    cnt, = struct.unpack_from(">I", data, off)
    off += 4
    if off + 8 * cnt > len(data):
        raise VODecodeError("truncated ids")
    ids = list(struct.unpack_from(f">{cnt}Q", data, off))
    return ids, off + 8 * cnt


def _decode_subtree(data: bytes, off: int, depth: int):
    if depth > MAX_KEY_LEN + 1:
        raise VODecodeError("subtree nested too deep")
    label, off = _decode_label(data, off)
    ids, off = _decode_ids(data, off)
    nchild = data[off]
    off += 1
    children = []
    for _ in range(nchild):
        child, off = _decode_subtree(data, off, depth + 1)
        children.append(child)
    return (label, ids, children), off


def _indices(prefix: str) -> bytes:
    return bytes([ALPHABET_INDEX.get(c, _NOT_IN_ALPHABET) for c in prefix])


def verify_prefix(vo, trusted_root: bytes, prefix: str, results) -> bool:
    try:
        return _verify_prefix(vo, trusted_root, prefix, results)
    except (VODecodeError, ValueError, TypeError, IndexError, KeyError,
            AttributeError, struct.error):
        return False


def _label_ok(label: bytes, start: int, root: bool) -> bool:
    if root:
        return label == b""
    return (0 < len(label) <= MAX_KEY_LEN - start
            and max(label) < len(ALPHABET))


def _verify_prefix(vo, trusted_root, prefix, results) -> bool:
    if vo.claimed_root != trusted_root:
        return False
    want = _indices(prefix)
    pos = 0
    for k, (label, ids, taken, sibs) in enumerate(vo.path):
        if not _label_ok(label, pos, k == 0) or \
                not want.startswith(label, pos):
            return False
        pos += len(label)
        if pos >= len(want) or want[pos] != taken:
            return False
    rest = want[pos:]
    if vo.mode == MODE_MATCH:
        label = vo.terminal[0]
        if not _label_ok(label, pos, not vo.path) or \
                not label.startswith(rest):
            return False
        collected: set[int] = set()
        cur = _subtree_digest(vo.terminal, collected, pos + len(label))
        if cur is None or sorted(collected) != list(results):
            return False
    elif vo.mode == MODE_NONMATCH:
        if results != []:
            return False
        label, node_ids, items = vo.terminal
        if not _label_ok(label, pos, not vo.path) or label.startswith(rest):
            return False
        idxs = [i for i, _ in items]
        if idxs != sorted(set(idxs)) or any(i >= len(ALPHABET) for i in idxs):
            return False
        if rest.startswith(label) and rest[len(label)] in idxs:
            return False
        if _unsorted(node_ids):
            return False
        cur = node_digest(label, node_ids, items)
    else:
        return False
    for label_above, ids, taken, sibs in reversed(vo.path):
        if _unsorted(ids) or any(i >= len(ALPHABET) for i, _ in sibs):
            return False
        if label[0] != taken:
            return False
        items = sorted(sibs + [(taken, cur)])
        idxs = [i for i, _ in items]
        if len(set(idxs)) != len(idxs):
            return False
        label = label_above
        cur = node_digest(label, ids, items)
    return cur == trusted_root


def _subtree_digest(sub, ids: set[int], end: int):
    label, node_ids, children = sub
    if _unsorted(node_ids):
        return None
    ids.update(node_ids)
    items = []
    last = -1
    for child in children:
        c_label = child[0]
        if not _label_ok(c_label, end, False) or c_label[0] <= last:
            return None
        last = c_label[0]
        d = _subtree_digest(child, ids, end + len(c_label))
        if d is None:
            return None
        items.append((last, d))
    return node_digest(label, node_ids, items)


def _unsorted(ids) -> bool:
    return any(b <= a for a, b in zip(ids, ids[1:]))


def verify_prefix_bytes(vo_bytes: bytes, trusted_root: bytes, prefix: str,
                        results) -> bool:
    try:
        vo = PrefixVO.from_bytes(vo_bytes)
    except (VODecodeError, ValueError, IndexError):
        return False
    return verify_prefix(vo, trusted_root, prefix, results)
