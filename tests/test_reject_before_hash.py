"""A proof that fails a check which needs no hash is rejected before the
verifier hashes anything: each case below returns False with no SHA-256
call."""
import hashlib
import random

import pytest

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
    kind, nlo, nhi, window, (lbits, ldigs), right = vo.proof
    assert len(lbits) >= 2 and len(window) == 2

    def forged(window=window, left=(lbits, ldigs)):
        return RangeVO(vo.claimed_root, (kind, nlo, nhi, window, left, right))

    swapped = bytes([lbits[1], lbits[0]]) + lbits[2:]
    doubled = bytes([lbits[0], lbits[0]]) + lbits[2:]
    results, full = tree.range_query(keys[10], keys[30])
    _, plain = _tree(None).range_query(keys[10], keys[30])
    # a range over two hash leaves, the second one's window reversed: the
    # first leaf checks out, and it is not hashed either
    wide = _tree(40)
    first, second = wide.root.children[:2]
    _, two = wide.range_query(first.lo, second.hi)
    children = list(two.proof[3])
    leaf = children[1]
    children[1] = leaf[:3] + (leaf[3][::-1],) + leaf[4:]
    assert children[0][0] == children[1][0] == P_HASHLEAF
    unordered = RangeVO(two.claimed_root, two.proof[:3] + (children,))
    return {
        "swapped left bits": (forged(left=(swapped, ldigs)), a + 1, b - 1, []),
        "equal left bits": (forged(left=(doubled, ldigs)), a + 1, b - 1, []),
        # keys[i - 1] lies in a left subtree, below both window keys
        "left interval reaches lo": (vo, keys[i - 1], keys[i - 1], []),
        "unordered window keys": (forged(window=window[::-1]), a + 1, b - 1,
                                  []),
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


def _prefix_cases():
    trie = Trie()
    for eid, key in enumerate(["abc1", "abc2", "abd", "ab:0", "f0", "ff"]):
        trie.insert(key, eid)
    root = trie.root_digest()
    ids, match = trie.prefix_query("ab")
    label, node_ids, children = match.terminal
    bad_child = (bytes([len(ALPHABET)]),) + children[0][1:]
    _, nonmatch = trie.prefix_query("f1")
    t_label, t_ids, items = nonmatch.terminal
    assert len(items) >= 2
    return root, {
        "extra claimed id": (match, "ab", ids + [10 ** 9]),
        "child label outside the alphabet": (
            PrefixVO(root, match.mode, match.path,
                     (label, node_ids, [bad_child] + children[1:])),
            "ab", ids),
        "children out of order": (
            PrefixVO(root, match.mode, match.path,
                     (label, node_ids, children[::-1])), "ab", ids),
        "items out of order": (
            PrefixVO(root, nonmatch.mode, nonmatch.path,
                     (t_label, t_ids, items[::-1])), "f1", []),
        "label off the prefix": (match, "ax", ids),
        # the only check on a label's first character that the prefix does
        # not imply: a non-match terminal must start with the branch taken
        "terminal off the branch taken": (
            PrefixVO(root, nonmatch.mode, nonmatch.path,
                     (bytes([ALPHABET.index("e")]), t_ids, items)),
            "f1", []),
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
