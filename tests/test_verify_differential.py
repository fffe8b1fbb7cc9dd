"""The check-first verifiers against the reference copies in
`verify_oracle`, which decode the VO bytes into proof tuples, hash first
and check after: on honest VOs, on every single-bit flip of their bytes and
on tampered claims, both must return the same bool."""
import pytest
from hypothesis import given, settings, strategies as st

import verify_oracle as oracle
from chainquery.bhash import BHashTree, verify_range, verify_range_bytes
from chainquery.core import MAX_TIMESTAMP
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
