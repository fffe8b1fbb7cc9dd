"""The check-first verifiers against the reference copies in
`verify_oracle`, which decode the VO bytes into proof tuples, hash first
and check after: on honest VOs, on every single-bit flip of their bytes,
on forged hash-leaf side records and on tampered claims, both must return
the same bool."""
import itertools
import struct

import pytest
from hypothesis import given, settings, strategies as st

import verify_oracle as oracle
from chainquery import client
from chainquery.bhash import BHashTree, verify_range, verify_range_bytes
from chainquery.core import (_HASHLEAF_HEAD, _KEY_COUNT, _NOT_IN_ALPHABET,
                             _U32, _U64, ALPHABET, MAX_TIMESTAMP, P_HASHLEAF)
from chainquery.trie import Trie, verify_prefix, verify_prefix_bytes


def _flips(blob: bytes):
    for i in range(len(blob)):
        for bit in range(8):
            yield blob[:i] + bytes([blob[i] ^ (1 << bit)]) + blob[i + 1:]


def _claims(results):
    """The honest claim, then: each id dropped, each id changed, an extra
    id, an empty claim."""
    yield results
    for i in range(len(results)):
        yield results[:i] + results[i + 1:]
        yield results[:i] + [results[i] + 1] + results[i + 1:]
    yield results + [999_999_999]
    yield []


# narrow stamps share buckets and crit-bit prefixes; wide ones reach the
# top key bits
stamps = st.lists(st.one_of(st.integers(0, 300),
                            st.integers(0, MAX_TIMESTAMP)), max_size=24)
start = st.one_of(st.integers(-5, 310), st.integers(0, MAX_TIMESTAMP))
end = st.one_of(st.integers(0, 310), st.integers(0, MAX_TIMESTAMP))


@pytest.mark.parametrize("threshold", [None, 10, 40],
                         ids=["None", "10", "40"])
@settings(max_examples=8, deadline=None)
@given(stamps=stamps, a=start, b=end, c=start, d=end)
def test_range_verifier_matches_reference(threshold, stamps, a, b, c, d):
    tree = BHashTree(threshold_t=threshold)
    for eid, ts in enumerate(stamps):
        tree.insert(eid, ts)
    root = tree.root_digest()
    if len(stamps) % 3 and a > b:
        a, b = max(b, 0), a  # else as drawn: an inverted range
    results, vo = tree.range_query(a, b)
    blob = vo.to_bytes()
    assert verify_range(vo, root, a, b, results)
    for claim in _claims(results):
        want = oracle.verify_range_bytes(blob, root, a, b, claim)
        assert verify_range(vo, root, a, b, claim) == want
    # the same VO for other ranges, where completeness decides: one
    # drawn, and one point range at each of a few stored keys
    for c, d in [(c, d)] + [(s, s) for s in stamps[::4]]:
        for claim in (results, tree.range_query(c, d)[0]):
            want = oracle.verify_range_bytes(blob, root, c, d, claim)
            assert verify_range(vo, root, c, d, claim) == want
    for cut in _flips(blob):
        assert (verify_range_bytes(cut, root, a, b, results)
                == oracle.verify_range_bytes(cut, root, a, b, results))


def _hash_leaf_blob(root, lo, hi, window, left, right) -> bytes:
    """The range VO of a converted tree, one hash-leaf record, written from
    the reference decoder's proof tuple parts."""
    flags = ((window[0][0] == oracle.W_DIGEST_ONLY)
             | (len(window) > 1 and window[-1][0] == oracle.W_DIGEST_ONLY)
             << 1)
    revealed = sum(kind == oracle.W_REVEALED for kind, _, _ in window)
    parts = [root, bytes([P_HASHLEAF]),
             _HASHLEAF_HEAD.pack(lo, hi, flags, revealed)]
    for kind, key, payload in window:
        if kind == oracle.W_DIGEST_ONLY:
            parts += [_U64.pack(key), payload]
            continue
        n = len(payload)
        parts.append(_KEY_COUNT.pack(key, n) if n < 0xFF
                     else _KEY_COUNT.pack(key, 0xFF) + _U32.pack(n))
        parts.append(struct.pack(f">{n}Q", *payload))
    for bits, digs in (left, right):
        parts += [bytes([len(bits)]), bits, *digs]
    return b"".join(parts)


def _leaf(entry) -> bytes:
    kind, key, payload = entry
    if kind == oracle.W_REVEALED:
        payload = oracle.bucket_ids_digest(payload)
    return oracle.bucket_leaf_digest(key, payload)


def _gap(a: int, b: int) -> int:
    """The crit-bit branch bit that separates keys a and b."""
    return 64 - (a ^ b).bit_length()


def _forged_sides(window, left, right, runs):
    """(window, left side, right side) forgeries of an honest hash leaf:
    each side entry dropped, its bit moved, neighbours swapped, a side
    reversed, an entry moved across, the drawn bit runs written over a
    side, and the window's end buckets folded into the sides one by one,
    which keeps the crit-bit root but not always completeness."""
    sides = (left, right)
    for s, (bits, digs) in enumerate(sides):
        def put(b, d, s=s):
            new = [left, right]
            new[s] = (bytes(b), list(d))
            return (window, *new)
        for i, bit in enumerate(bits):
            yield put(bits[:i] + bits[i + 1:], digs[:i] + digs[i + 1:])
            for moved in {bit ^ 1, bit ^ 16, 63 - bit, 64}:
                yield put(bits[:i] + bytes([moved]) + bits[i + 1:], digs)
            other = [list(sides[1 - s][0]), list(sides[1 - s][1])]
            other[0].insert(0 if s else len(other[0]), bit)
            other[1].insert(0 if s else len(other[1]), digs[i])
            crossed = [left, right]
            crossed[s] = (bits[:i] + bits[i + 1:], digs[:i] + digs[i + 1:])
            crossed[1 - s] = (bytes(other[0]), other[1])
            yield (window, *crossed)
        for i in range(len(bits) - 1):
            yield put(bits[:i] + bits[i:i + 2][::-1] + bits[i + 2:],
                      digs[:i] + digs[i:i + 2][::-1] + digs[i + 2:])
        yield put(bits[::-1], digs[::-1])
        pool = [*left[1], *right[1], bytes(32)]
        for run in runs:
            yield put(run, itertools.islice(itertools.cycle(pool), len(run)))
    (lbits, ldigs), (rbits, rdigs), w = left, right, list(window)
    while len(w) > 1:
        lbits += bytes([_gap(w[0][1], w[1][1])])
        ldigs = [*ldigs, _leaf(w[0])]
        w = w[1:]
        yield (w, (lbits, ldigs), right)
    w = list(window)
    while len(w) > 1:
        rbits = bytes([_gap(w[-2][1], w[-1][1])]) + rbits
        rdigs = [_leaf(w[-1]), *rdigs]
        w = w[:-1]
        yield (w, left, (rbits, rdigs))


bit_runs = st.lists(st.lists(st.integers(0, 66), max_size=10).map(bytes),
                    max_size=3)


@settings(max_examples=25, deadline=None)
@given(stamps=st.lists(st.one_of(st.integers(0, 300),
                                 st.integers(0, MAX_TIMESTAMP)),
                       min_size=11, max_size=40),
       a=start, b=end, c=start, d=end, runs=bit_runs)
def test_forged_hash_leaf_sides_match_reference(stamps, a, b, c, d, runs):
    # past the threshold the tree is one hash node: its range VO is a
    # single hash-leaf record, whose sides are the record's tail
    tree = BHashTree(threshold_t=10)
    for eid, ts in enumerate(stamps):
        tree.insert(eid, ts)
    root = tree.root_digest()
    if a > b:
        a, b = max(b, 0), a
    results, vo = tree.range_query(a, b)
    blob = vo.to_bytes()
    kind, lo, hi, window, left, right = oracle.RangeVO.from_bytes(blob).proof
    assert kind == P_HASHLEAF
    assert _hash_leaf_blob(root, lo, hi, window, left, right) == blob
    keys = [key for _, key, _ in window]
    # where completeness decides: the honest range, a drawn one, and the
    # honest range with one end moved to just inside a window end key
    ranges = [(a, b), (c, d), (keys[0] + 1, b), (a, max(keys[-1] - 1, 0))]
    for forged in _forged_sides(window, left, right, runs):
        cut = _hash_leaf_blob(root, lo, hi, *forged)
        shown = [eid for kind, _, ids in forged[0]
                 if kind == oracle.W_REVEALED for eid in ids]
        for (x, y), claim in itertools.product(ranges, (results, shown)):
            assert (verify_range_bytes(cut, root, x, y, claim)
                    == oracle.verify_range_bytes(cut, root, x, y, claim))


def _sorted_set_indices_ok(idxs: bytes, taken: int) -> bool:
    """client._indices_ok as a sort of the set of indices, the reference
    for its pattern."""
    return (bytes(sorted(set(idxs))) == idxs and taken not in idxs
            and not (idxs and idxs[-1] >= len(ALPHABET)))


TAKEN = [*range(len(ALPHABET) + 2), _NOT_IN_ALPHABET]


def test_indices_ok_matches_sorted_set_on_short_strings():
    # every index string of up to 3 indices, two past the alphabet included
    for n in range(4):
        for idxs in itertools.product(range(len(ALPHABET) + 2), repeat=n):
            idxs = bytes(idxs)
            for taken in TAKEN:
                assert (client._indices_ok(idxs, taken)
                        == _sorted_set_indices_ok(idxs, taken))


@settings(max_examples=300, deadline=None)
@given(idxs=st.one_of(
    st.lists(st.integers(0, len(ALPHABET) + 1), max_size=18).map(bytes),
    st.sets(st.integers(0, len(ALPHABET) + 1), max_size=18)
    .map(sorted).map(bytes)),
    taken=st.sampled_from(TAKEN))
def test_indices_ok_matches_sorted_set(idxs, taken):
    assert (client._indices_ok(idxs, taken)
            == _sorted_set_indices_ok(idxs, taken))


keys = st.lists(st.tuples(st.text(alphabet="01ab:-", min_size=1, max_size=6),
                          st.integers(0, 50)), max_size=20)


prefixes = st.text(alphabet="01ab:-x", max_size=5)


@settings(max_examples=12, deadline=None)
@given(pairs=keys, prefix=prefixes, other=prefixes)
def test_prefix_verifier_matches_reference(pairs, prefix, other):
    trie = Trie()
    for key, eid in pairs:
        trie.insert(key, eid)
    root = trie.root_digest()
    results, vo = trie.prefix_query(prefix)
    blob = vo.to_bytes()
    assert verify_prefix(vo, root, prefix, results)
    for claim in _claims(results):
        want = oracle.verify_prefix_bytes(blob, root, prefix, claim)
        assert verify_prefix(vo, root, prefix, claim) == want
    # the same VO for another prefix, where the label checks decide
    for claim in (results, trie.prefix_query(other)[0]):
        want = oracle.verify_prefix_bytes(blob, root, other, claim)
        assert verify_prefix(vo, root, other, claim) == want
    for cut in _flips(blob):
        assert (verify_prefix_bytes(cut, root, prefix, results)
                == oracle.verify_prefix_bytes(cut, root, prefix, results))
