import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

import verify_oracle as reference
from chainquery.core import MODE_MATCH, MODE_NONMATCH
from chainquery.trie import (ALPHABET, InvalidCharacter, KeyTooLong,
                             PrefixVO, Trie, _indices, node_digest,
                             verify_prefix, verify_prefix_bytes)
from chainquery.gas import GasMeter


def random_keys(n, seed, minlen=4, maxlen=20):
    rng = random.Random(seed)
    return ["".join(rng.choice(ALPHABET) for _ in range(rng.randint(minlen, maxlen)))
            for _ in range(n)]


def build(pairs):
    trie = Trie()
    for key, eid in pairs:
        trie.insert(key, eid)
    return trie


def oracle(pairs, prefix):
    return sorted({eid for key, eid in pairs if key.startswith(prefix)})


def test_insert_then_prefix_contains():
    trie = build([("2023-01-15", 7)])
    results, vo = trie.prefix_query("2023")
    assert results == [7]
    assert verify_prefix(vo, trie.root_digest(), "2023", results)


def test_invalid_character_rejected():
    trie = Trie()
    with pytest.raises(InvalidCharacter):
        trie.insert("2023_01", 1)
    with pytest.raises(InvalidCharacter):
        trie.insert("", 1)


def test_key_too_long_rejected():
    trie = Trie()
    with pytest.raises(KeyTooLong):
        trie.insert("a" * 65, 1)
    trie.insert("a" * 64, 1)


def test_empty_prefix_returns_all():
    pairs = [(k, i) for i, k in enumerate(random_keys(50, 21))]
    trie = build(pairs)
    results, vo = trie.prefix_query("")
    assert results == oracle(pairs, "")
    assert verify_prefix(vo, trie.root_digest(), "", results)


def test_unmatched_prefix_nonmembership():
    pairs = [("abc", 1), ("abd", 2)]
    trie = build(pairs)
    for prefix in ("abe", "b", "abcdix", "a" * 70):
        results, vo = trie.prefix_query(prefix)
        assert results == []
        assert vo.to_bytes()[32] == MODE_NONMATCH
        assert verify_prefix(vo, trie.root_digest(), prefix, results)


def test_prefix_with_invalid_character_is_empty():
    trie = build([("abc", 1)])
    results, vo = trie.prefix_query("ab_")
    assert results == []
    assert verify_prefix(vo, trie.root_digest(), "ab_", results)


def test_oracle_equivalence():
    pairs = [(k, i) for i, k in enumerate(random_keys(2000, 22))]
    trie = build(pairs)
    rng = random.Random(23)
    keys = [k for k, _ in pairs]
    for _ in range(300):
        src = rng.choice(keys)
        prefix = src[:rng.randint(1, len(src))]
        results, vo = trie.prefix_query(prefix)
        assert results == oracle(pairs, prefix)
        assert verify_prefix(vo, trie.root_digest(), prefix, results)


def test_whole_key_is_its_own_prefix():
    pairs = [(k, i) for i, k in enumerate(random_keys(500, 24))]
    trie = build(pairs)
    for key, _ in pairs:
        results, _ = trie.prefix_query(key)
        assert results == oracle(pairs, key)


def test_descent_visits_equal_prefix_length():
    pairs = [(k, i) for i, k in enumerate(random_keys(200, 25, 32, 40))]
    trie = build(pairs)
    rng = random.Random(26)
    for _ in range(100):
        src = rng.choice(pairs)[0]
        prefix = src[:rng.randint(1, 32)]
        trie.prefix_query(prefix)
        assert trie.last_descent_visits == len(prefix)


def test_digest_consistency_bottom_up():
    pairs = [(k, i) for i, k in enumerate(random_keys(300, 27))]
    trie = build(pairs)
    trie.root_digest()

    def recompute(node):
        items = [bytes([i]) + recompute(node.children[i])
                 for i in sorted(node.children)]
        d = node_digest(node.label, node.entry_ids, items)
        # the item a parent's preimage and a proof's sibling runs use;
        # the root's label is empty, so its item is the root
        if node is trie.root:
            assert node.item == d == trie.root_digest()
        else:
            assert node.item == bytes([node.label[0]]) + d
        return d

    recompute(trie.root)


def _nodes(trie):
    todo = [(trie.root, b"")]
    while todo:
        node, spelled = todo.pop()
        yield node, spelled
        todo.extend((c, spelled + c.label) for c in node.children.values())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.text(alphabet="01ab:-", min_size=1, max_size=8),
                          st.integers(0, 40)), max_size=30),
       st.randoms(use_true_random=False), st.integers(1, 8))
def test_shape_depends_only_on_the_key_set(pairs, rng, chunk):
    trie = build(pairs)
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    other = Trie()
    for i, (key, eid) in enumerate(shuffled, 1):
        other.insert(key, eid)
        if i % chunk == 0:
            other.root_digest()
    assert other.root_digest() == trie.root_digest()
    keys = {key for key, _ in pairs}
    count = 0
    for node, spelled in _nodes(trie):
        if node is trie.root:
            assert node.label == b""
            continue
        assert node.label and (node.entry_ids or len(node.children) != 1)
        assert all(i == c.label[0] for i, c in node.children.items())
        count += bool(node.entry_ids)
        assert bool(node.entry_ids) == \
            ("".join(ALPHABET[i] for i in spelled) in keys)
    assert count == len(keys) == trie.key_count


_PREFIXES = ("", "0", "01", "a", "ab", "ab:", ":", "-", "1-", "b0a", "0_")


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.text(alphabet="01ab:-", min_size=1, max_size=8),
                          st.integers(0, 40)), max_size=30),
       st.data())
def test_cached_items_never_stale(pairs, data):
    """Roots and prefix VOs flushed at random points, by root_digest() or
    by a prefix_query that then reads the cached items, equal those of a
    trie built in one batch: the shape depends only on the key set, so a
    stale item would show in a root or a sibling run."""
    trie = Trie()
    for key, eid in pairs:
        trie.insert(key, eid)
        action = data.draw(st.integers(0, 2))
        if action == 1:
            trie.root_digest()
        elif action == 2:
            trie.prefix_query(data.draw(st.sampled_from(_PREFIXES)))
    batch = build(pairs)
    assert trie.root_digest() == batch.root_digest()
    for prefix in _PREFIXES + tuple(key for key, _ in pairs):
        results, vo = trie.prefix_query(prefix)
        expected, batch_vo = batch.prefix_query(prefix)
        assert results == expected
        assert vo.to_bytes() == batch_vo.to_bytes()


@pytest.mark.parametrize("bad", ["\u00e9", "\uff41", "\u0663", "\ud800",
                                 "\x00", "A", "_"])
def test_key_outside_alphabet_names_first_bad_character(bad):
    trie = build([("ab", 1), ("abc", 2)])
    root = trie.root_digest()
    for key, first in ((bad, bad), ("ab" + bad, bad), ("0" * 62 + bad, bad),
                       (bad + "\u00e9_", bad), ("x" + bad, "x")):
        with pytest.raises(InvalidCharacter) as exc:
            trie.insert(key, 3)
        assert str(exc.value) == f"character {first!r} not in alphabet"
    # the length is checked first, over characters as the key counts them
    for key in (bad * 65, "ab" * 32 + bad):
        with pytest.raises(KeyTooLong):
            trie.insert(key, 3)
    assert trie.root_digest() == root
    trie.insert("0" * 64, 3)
    assert trie.prefix_query("0" * 64)[0] == [3]
    # in a prefix the same characters match nothing, and the
    # non-membership proof verifies
    root = trie.root_digest()
    for prefix in (bad, "a" + bad, "ab" + bad, "abc" + bad, "0" * 30 + bad):
        results, vo = trie.prefix_query(prefix)
        assert results == []
        assert vo.to_bytes()[32] == MODE_NONMATCH
        assert verify_prefix_bytes(vo.to_bytes(), root, prefix, [])


def test_indices_match_alphabet_positions_for_every_code_point():
    text = "".join(map(chr, range(0x110000)))
    want = bytes([ALPHABET.index(c) if c in ALPHABET else 0xFF
                  for c in text])
    assert _indices(text) == want


def test_split_inside_one_batch():
    """A later key of a batch splits an edge above nodes that earlier keys
    touched since the last flush: the rehash must still reach every stale
    node, children before parents."""
    base = [("abcd1", 0), ("abcd2", 1), ("abcd1ef", 2), ("abcd1e0", 3)]
    for batch in ([("abcd3", 4), ("ab:", 5)],
                  [("abcd1e", 4), ("abcd1:", 5), ("ab", 6), ("a", 7)],
                  [("abcd1ef9", 4), ("abcd", 5), ("abc0", 6), ("a-", 7)]):
        one, many = build(base + batch), build(base)
        many.root_digest()
        for key, eid in batch:
            many.insert(key, eid)
        assert many.root_digest() == one.root_digest()
        for prefix in ("a", "ab", "abc", "abcd1e", "ab:", "abcd1ef"):
            results, vo = many.prefix_query(prefix)
            assert results == oracle(base + batch, prefix)
            assert verify_prefix(vo, many.root_digest(), prefix, results)


def test_shared_key_multiple_ids():
    trie = build([("cafe", 3), ("cafe", 1), ("cafe", 1)])
    results, vo = trie.prefix_query("cafe")
    assert results == [1, 3]
    assert verify_prefix(vo, trie.root_digest(), "cafe", results)


def test_result_mutations_rejected():
    pairs = [(k, i) for i, k in enumerate(random_keys(80, 28))]
    trie = build(pairs)
    prefix = pairs[0][0][:2]
    results, vo = trie.prefix_query(prefix)
    root = trie.root_digest()
    for i in range(len(results)):
        assert not verify_prefix(vo, root, prefix, results[:i] + results[i + 1:])
    absent = max(eid for _, eid in pairs) + 5
    assert not verify_prefix(vo, root, prefix, sorted(results + [absent]))
    assert not verify_prefix(vo, b"\x00" * 32, prefix, results)


def _assert_every_flip_rejected(trie, prefix):
    results, vo = trie.prefix_query(prefix)
    root = trie.root_digest()
    blob = vo.to_bytes()
    assert verify_prefix_bytes(blob, root, prefix, results)
    for pos in range(len(blob)):
        for flip in (1, 0x80):
            mutated = bytearray(blob)
            mutated[pos] ^= flip
            assert not verify_prefix_bytes(bytes(mutated), root, prefix,
                                           results), f"escape at byte {pos}"
    return results, vo


@pytest.mark.parametrize("prefix_len", [0, 1, 3])
def test_vo_byte_fuzz_rejected(prefix_len):
    pairs = [(k, i) for i, k in enumerate(random_keys(40, 29, 4, 8))]
    _assert_every_flip_rejected(build(pairs), pairs[3][0][:prefix_len])


def test_nonmatch_vo_byte_fuzz_rejected():
    trie = build([("abc", 1), ("abd", 2), ("ff:0", 3)])
    results, _ = _assert_every_flip_rejected(trie, "abx1")
    assert results == []


def test_nonmatch_inside_label_vo_byte_fuzz_rejected():
    trie = build([("abc", 1), ("abd", 2), ("abe123", 3), ("ff:01", 4),
                  ("ff:02", 5)])
    for prefix in ("ff:1", "f0", "abe13", "abe1_"):
        results, vo = _assert_every_flip_rejected(trie, prefix)
        decoded = reference.PrefixVO.from_bytes(vo.to_bytes())
        assert results == [] and decoded.mode == MODE_NONMATCH
        # the prefix leaves the terminal node's label inside it
        rest = prefix[sum(len(label) for label, *_ in decoded.path):]
        label = "".join(ALPHABET[i] for i in decoded.terminal[0])
        assert not rest.startswith(label) and not label.startswith(rest)


def test_crafted_label_vos_rejected():
    trie = build([("abc1", 0), ("abc2", 1), ("abd", 2)])
    root = trie.root_digest()
    _, vo_ab = trie.prefix_query("ab")
    node_ab = trie.root.children[ALPHABET.index("a")]
    assert node_ab.label == bytes(ALPHABET.index(c) for c in "ab")
    # a match whose subtree root label does not extend the prefix: it
    # would claim every key under "ab" for a longer prefix
    for prefix in ("abe", "abc"):
        assert not verify_prefix(vo_ab, root, prefix, [0, 1, 2])
        assert not verify_prefix_bytes(vo_ab.to_bytes(), root, prefix,
                                       [0, 1, 2])
    # a non-match whose label agrees with the prefix: "a" ends inside
    # the label "ab", so keys do extend it.  Its terminal is the node
    # "ab" with its children as items: after the root's path entry (at
    # 34: empty label, no ids, the taken index, no siblings), its label,
    # no ids, then its item count and items.
    blob = vo_ab.to_bytes()
    assert blob[33] == 1 and blob[34:39] == bytes(5) and blob[40] == 0
    assert blob[41:48] == bytes([2]) + node_ab.label + bytes(4)
    crafted = PrefixVO.from_bytes(
        blob[:32] + bytes([MODE_NONMATCH]) + blob[33:48]
        + bytes([len(node_ab.children)])
        + b"".join(c.item for _, c in sorted(node_ab.children.items())))
    for prefix in ("a", "ab"):
        assert not verify_prefix(crafted, root, prefix, [])
        assert not verify_prefix_bytes(crafted.to_bytes(), root, prefix, [])
    # the same node proves a prefix that does leave it
    assert verify_prefix(crafted, root, "abe", [])
    assert verify_prefix(crafted, root, "ax", [])


def test_reordered_path_siblings_rejected():
    # one node's siblings, out of index order, would give a second VO
    # for the same proof
    trie = build([("a1", 0), ("b2", 1), ("c3", 2), ("a4", 3), ("d5", 4)])
    root = trie.root_digest()
    results, vo = trie.prefix_query("a1")
    blob = vo.to_bytes()
    # the root's path entry at 34: empty label, no ids, the taken index,
    # the sibling count at 40, then the siblings of 33 bytes each
    assert blob[34:39] == bytes(5) and blob[40] == 3
    assert verify_prefix(vo, root, "a1", results)
    sibs = [blob[p:p + 33] for p in range(41, 140, 33)]
    crafted = PrefixVO.from_bytes(blob[:41] + b"".join(sibs[::-1])
                                  + blob[140:])
    assert crafted.to_bytes() != vo.to_bytes()
    assert not verify_prefix(crafted, root, "a1", results)
    assert not verify_prefix_bytes(crafted.to_bytes(), root, "a1", results)


def test_vo_roundtrip_bytes():
    pairs = [(k, i) for i, k in enumerate(random_keys(100, 30))]
    trie = build(pairs)
    prefix = pairs[0][0][:3]
    results, vo = trie.prefix_query(prefix)
    blob = vo.to_bytes()
    vo2 = PrefixVO.from_bytes(blob)
    assert vo2.to_bytes() == blob
    assert verify_prefix(vo2, trie.root_digest(), prefix, results)


def test_metered_writes_on_insert():
    meter = GasMeter()
    trie = Trie(meter=meter)
    trie.insert("abcd", 1)
    assert meter.storage_writes > 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(
    st.text(alphabet=ALPHABET, min_size=1, max_size=12),
    st.integers(min_value=0, max_value=1000)), max_size=30),
    st.text(alphabet=ALPHABET, max_size=6))
def test_property_oracle(pairs, prefix):
    trie = build(pairs)
    results, vo = trie.prefix_query(prefix)
    assert results == oracle(pairs, prefix)
    assert verify_prefix(vo, trie.root_digest(), prefix, results)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.text(alphabet="0123:-", min_size=1, max_size=6),
                          st.integers(0, 40)), max_size=30),
       st.integers(1, 8))
def test_flush_points_change_no_root_or_meter_reads_and_writes(pairs,
                                                               chunk):
    meter_one, meter_many = GasMeter(), GasMeter()
    one, many = Trie(meter=meter_one), Trie(meter=meter_many)
    for i, (key, eid) in enumerate(pairs, 1):
        one.insert(key, eid)
        one.root_digest()
        many.insert(key, eid)
        if i % chunk == 0:
            many.root_digest()
    assert many.root_digest() == one.root_digest()
    assert many.key_count == one.key_count
    # same reads and writes; each stale node is rehashed once per flush,
    # so fewer flushes rehash no more
    assert meter_many.storage_writes == meter_one.storage_writes
    assert meter_many.storage_reads == meter_one.storage_reads
    assert meter_many.compute_units <= meter_one.compute_units


def test_rejected_insert_changes_nothing():
    trie = build([("ab", 1)])
    root = trie.root_digest()
    with pytest.raises(InvalidCharacter):
        trie.insert("a_c", 3)
    with pytest.raises(ValueError):
        trie.insert("abd", -1)
    # nothing was marked stale
    assert trie.root.item == root
    assert trie.root_digest() == root
    assert trie.prefix_query("abc")[0] == []


def _nested_prefix_vo(root: bytes, nodes: int) -> bytes:
    """Match mode, empty path, then a chain of `nodes` subtree nodes: each
    an empty label (length byte 0), no entry ids (count 0) and one child,
    the last no child."""
    node = b"\x00" + struct.pack(">I", 0)
    return (root + bytes([MODE_MATCH, 0])
            + (node + b"\x01") * (nodes - 1) + node + b"\x00")


def test_deeply_nested_vo_bytes_rejected():
    root = build([("abc", 1)]).root_digest()
    blob = _nested_prefix_vo(root, 2001)
    assert len(blob) == 12_040
    assert verify_prefix_bytes(blob, root, "", [1]) is False
