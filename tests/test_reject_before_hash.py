"""A proof that fails a check which needs no hash is rejected before the
verifier hashes anything: each case below returns False with no SHA-256
call."""
import hashlib
import random
import struct

import pytest

import verify_oracle as oracle
from chainquery.bhash import P_HASHLEAF, BHashTree, RangeVO, verify_range, \
    verify_range_bytes
from chainquery.trie import ALPHABET, PrefixVO, Trie, verify_prefix, \
    verify_prefix_bytes


@pytest.fixture
def sha256_calls(monkeypatch):
    """A list that grows by one on each hashlib.sha256 call."""
    calls = []
    real = hashlib.sha256

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(hashlib, "sha256", counting)
    return calls


def _tree(threshold=10):
    rng = random.Random(15)
    tree = BHashTree(threshold_t=threshold)
    for eid in range(200):
        tree.insert(eid, rng.randrange(10_000))
    return tree


def _swap(blob: bytes, start: int, size: int, n: int) -> bytes:
    """blob with the n records of `size` bytes at start in reverse order."""
    run = [blob[i:i + size] for i in range(start, start + size * n, size)]
    return blob[:start] + b"".join(run[::-1]) + blob[start + size * n:]


def _revealed(blob: bytes, off: int):
    """The offsets of the revealed bucket records in the hash-leaf record
    at off: key u64 ‖ count u8 (0xFF, then a u32 count) ‖ ids."""
    flags, nrev = struct.unpack_from(">BI", blob, off + 17)
    p, bounds = off + 22 + 40 * (flags & 1), []
    for _ in range(nrev):
        cnt, at = blob[p + 8], p + 9
        if cnt == 0xFF:
            cnt, = struct.unpack_from(">I", blob, at)
            at += 4
        bounds.append((p, at + 8 * cnt))
        p = at + 8 * cnt
    return bounds


def _range_cases():
    """name -> (vo, start, end, claimed results), each to be rejected."""
    tree = _tree()
    keys = tree.root.bucket_keys
    # an empty range between two buckets near the top of the key range:
    # its window is two digest-only buckets, and its left side holds
    # several subtrees
    i = next(i for i in range(len(keys) - 2, 0, -1)
             if keys[i + 1] - keys[i] > 1)
    a, b = keys[i], keys[i + 1]
    _, vo = tree.range_query(a + 1, b - 1)
    blob = vo.to_bytes()
    _, _, _, window, (lbits, _), _ = oracle.RangeVO.from_bytes(blob).proof
    assert len(lbits) >= 2 and len(window) == 2
    # the root's hash-leaf record: kind at 32, lo, hi, flags 3 at 49, nrev
    # 0, the two digest-only buckets of 40 bytes at 54, then the left
    # side's bit count and bits
    assert blob[32] == P_HASHLEAF and blob[49:54] == b"\x03" + bytes(4)

    def forged(at, new):
        return RangeVO.from_bytes(blob[:at] + new + blob[at + len(new):])

    swapped = bytes([lbits[1], lbits[0]])
    doubled = bytes([lbits[0], lbits[0]])
    results, full = tree.range_query(keys[10], keys[30])
    _, plain = _tree(None).range_query(keys[10], keys[30])
    # a range over two hash leaves, the second one's window reversed: the
    # first leaf checks out, and it is not hashed either
    wide = _tree(40)
    first, second = wide.root.children[:2]
    _, two = wide.range_query(first.lo, second.hi)
    two_blob = two.to_bytes()
    head = bytes([P_HASHLEAF]) + struct.pack(">QQ", second.lo, second.hi)
    assert two_blob[32 + 21] == P_HASHLEAF and two_blob.count(head) == 1
    bounds = _revealed(two_blob, two_blob.index(head))
    assert len(bounds) >= 2
    start, end = bounds[0][0], bounds[-1][1]
    unordered = RangeVO.from_bytes(
        two_blob[:start]
        + b"".join(two_blob[p:q] for p, q in reversed(bounds))
        + two_blob[end:])
    return {
        "swapped left bits": (forged(135, swapped), a + 1, b - 1, []),
        "equal left bits": (forged(135, doubled), a + 1, b - 1, []),
        # keys[i - 1] lies in a left subtree, below both window keys
        "left interval reaches lo": (vo, keys[i - 1], keys[i - 1], []),
        "unordered window keys": (
            RangeVO.from_bytes(_swap(blob, 54, 40, 2)), a + 1, b - 1, []),
        "in-range digest-only bucket": (vo, a, b - 1, []),
        "extra claimed id": (full, keys[10], keys[30], results + [10 ** 9]),
        "extra claimed id, no hash leaf": (plain, keys[10], keys[30],
                                           results + [10 ** 9]),
        "unordered window keys in a second hash leaf": (
            unordered, first.lo, second.hi,
            wide.range_query(first.lo, second.hi)[0]),
    }


@pytest.mark.parametrize("name", [
    "swapped left bits", "equal left bits", "left interval reaches lo",
    "unordered window keys", "in-range digest-only bucket",
    "extra claimed id", "extra claimed id, no hash leaf",
    "unordered window keys in a second hash leaf"])
def test_range_proof_rejected_before_hashing(name, sha256_calls):
    vo, start, end, claim = _range_cases()[name]
    del sha256_calls[:]
    assert verify_range(vo, vo.claimed_root, start, end, claim) is False
    assert verify_range_bytes(vo.to_bytes(), vo.claimed_root, start, end,
                              claim) is False
    assert sha256_calls == []


def _subtree_size(sub) -> int:
    """The bytes of a decoded subtree: label length u8 ‖ label ‖ id count
    u32 ‖ ids ‖ child count u8 ‖ children."""
    label, ids, children = sub
    return 6 + len(label) + 8 * len(ids) + sum(map(_subtree_size, children))


def _prefix_cases():
    trie = Trie()
    for eid, key in enumerate(["abc1", "abc2", "abd", "ab:0", "f0", "ff"]):
        trie.insert(key, eid)
    root = trie.root_digest()
    ids, match = trie.prefix_query("ab")
    _, nonmatch = trie.prefix_query("f1")
    blob, other = match.to_bytes(), nonmatch.to_bytes()
    # Both VOs: mode, a path of one entry for the root (empty label, no
    # ids, the taken index, one sibling), then the terminal at 74.
    for vo in (blob, other):
        assert vo[33] == 1 and vo[34:39] == bytes(5) and vo[40] == 1
    label, node_ids, children = oracle.PrefixVO.from_bytes(blob).terminal
    t_label, _, items = oracle.PrefixVO.from_bytes(other).terminal
    assert len(items) >= 2 and len(t_label) == 1
    # the match terminal's first child subtree, and its label character
    first = 74 + 6 + len(label) + 8 * len(node_ids)
    sizes = [_subtree_size(c) for c in children]
    assert first + sum(sizes) == len(blob) and blob[first] == 1
    starts = [first + sum(sizes[:k]) for k in range(len(sizes) + 1)]
    reordered = b"".join(blob[starts[k]:starts[k + 1]]
                         for k in reversed(range(len(sizes))))

    def forged(data, at, new):
        return PrefixVO.from_bytes(data[:at] + new + data[at + len(new):])

    return root, {
        "extra claimed id": (match, "ab", ids + [10 ** 9]),
        "child label outside the alphabet": (
            forged(blob, first + 1, bytes([len(ALPHABET)])), "ab", ids),
        "children out of order": (forged(blob, first, reordered), "ab",
                                  ids),
        "items out of order": (
            PrefixVO.from_bytes(_swap(other, len(other) - 33 * len(items),
                                      33, len(items))), "f1", []),
        "label off the prefix": (match, "ax", ids),
        # the only check on a label's first character that the prefix does
        # not imply: a non-match terminal must start with the branch taken
        "terminal off the branch taken": (
            forged(other, 75, bytes([ALPHABET.index("e")])), "f1", []),
    }


@pytest.mark.parametrize("name", [
    "extra claimed id", "child label outside the alphabet",
    "children out of order", "items out of order", "label off the prefix",
    "terminal off the branch taken"])
def test_prefix_proof_rejected_before_hashing(name, sha256_calls):
    root, cases = _prefix_cases()
    vo, prefix, claim = cases[name]
    del sha256_calls[:]
    assert verify_prefix(vo, root, prefix, claim) is False
    assert verify_prefix_bytes(vo.to_bytes(), root, prefix, claim) is False
    assert sha256_calls == []
