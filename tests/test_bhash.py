import hashlib
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

import verify_oracle as reference
from chainquery.bhash import (P_HASHLEAF, P_INTERNAL, P_PRUNED, BHashTree,
                              DuplicateEntry, RangeVO, _crit_window_paths,
                              verify_range, verify_range_bytes)
from chainquery.client import _crit_fold
from chainquery.core import MAX_TIMESTAMP, EncodingError
from chainquery.gas import GasMeter


def build(entries, threshold=10):
    tree = BHashTree(threshold_t=threshold)
    for eid, ts in entries:
        tree.insert(eid, ts)
    return tree


def oracle(entries, lo, hi):
    hits = sorted((ts, eid) for eid, ts in entries if lo <= ts <= hi)
    return [eid for _, eid in hits]


def random_entries(n, seed, span=10_000):
    rng = random.Random(seed)
    return [(eid, rng.randrange(span)) for eid in range(n)]


def test_single_insert_is_leaf():
    tree = build([(0, 1000)])
    assert tree.root.is_leaf and not tree.root.is_hash_node
    assert tree.root.pairs == [(1000, 0)]


def test_duplicate_entry_rejected():
    tree = build([(0, 5)])
    with pytest.raises(DuplicateEntry):
        tree.insert(0, 6)


def test_conversion_at_eleventh_insert():
    tree = BHashTree(threshold_t=10)
    for eid in range(10):
        tree.insert(eid, 100 + eid)
        assert not tree.converted
        assert not any_hash_node(tree.root)
    tree.insert(10, 50)
    assert tree.converted
    assert tree.root.is_hash_node
    assert tree.root.pairs == []
    assert sum(len(v) for v in tree.root.buckets.values()) == 11


@pytest.mark.parametrize("threshold", [1, 10, 40, None])
def test_only_accepted_insert_converts(threshold):
    # a rejected insert at the boundary leaves the tree unconverted, and
    # the next accepted one converts it; with no threshold, none does
    tree = BHashTree(threshold_t=threshold)
    for eid in range(threshold or 40):
        tree.insert(eid, 100 + eid)
    with pytest.raises(DuplicateEntry):
        tree.insert(0, 7)
    with pytest.raises(EncodingError):
        tree.insert(1000, MAX_TIMESTAMP + 1)
    assert not tree.converted and not any_hash_node(tree.root)
    tree.insert(1000, 7)
    assert tree.converted is (threshold is not None)
    assert any_hash_node(tree.root) is (threshold is not None)


def any_hash_node(node):
    if node.is_leaf:
        return node.is_hash_node
    return any(any_hash_node(c) for c in node.children)


def test_inverted_range_is_empty():
    tree = build(random_entries(50, 1))
    results, vo = tree.range_query(5, 1)
    assert results == []
    assert verify_range(vo, tree.root_digest(), 5, 1, results)


def test_universal_range_returns_everything():
    entries = random_entries(200, 2)
    tree = build(entries)
    results, vo = tree.range_query(0, (1 << 63) - 1)
    assert sorted(results) == sorted(e for e, _ in entries)
    assert verify_range(vo, tree.root_digest(), 0, (1 << 63) - 1, results)


@pytest.mark.parametrize("threshold", [10, None, 5000])
def test_oracle_equivalence(threshold):
    entries = random_entries(1000, 3)
    tree = build(entries, threshold)
    rng = random.Random(99)
    for _ in range(200):
        lo = rng.randrange(11_000)
        hi = rng.randrange(11_000)
        results, vo = tree.range_query(lo, hi)
        assert results == oracle(entries, lo, hi)
        assert verify_range(vo, tree.root_digest(), lo, hi, results)


def test_empty_tree_query_verifies():
    tree = BHashTree()
    results, vo = tree.range_query(0, 100)
    assert results == []
    assert verify_range(vo, tree.root_digest(), 0, 100, results)


def test_digest_changes_on_every_insert():
    tree = BHashTree()
    rng = random.Random(4)
    seen = {tree.root_digest()}
    for eid in range(300):
        tree.insert(eid, rng.randrange(5000))
        d = tree.root_digest()
        assert d not in seen
        seen.add(d)


def test_wrong_root_rejected():
    tree = build(random_entries(100, 5))
    results, vo = tree.range_query(100, 5000)
    assert not verify_range(vo, b"\x00" * 32, 100, 5000, results)


@pytest.mark.parametrize("threshold", [10, None])
def test_result_mutations_rejected(threshold):
    entries = random_entries(120, 6)
    tree = build(entries, threshold)
    results, vo = tree.range_query(1000, 6000)
    assert results
    root = tree.root_digest()
    for i in range(len(results)):
        dropped = results[:i] + results[i + 1:]
        assert not verify_range(vo, root, 1000, 6000, dropped)
        swapped = list(results)
        swapped[i] = 10_000 + i
        assert not verify_range(vo, root, 1000, 6000, swapped)
    assert not verify_range(vo, root, 1000, 6000, results + [99_999])


@pytest.mark.parametrize("threshold", [10, None])
def test_vo_byte_fuzz_rejected(threshold):
    entries = random_entries(60, 7)
    tree = build(entries, threshold)
    lo, hi = 2000, 7000
    results, vo = tree.range_query(lo, hi)
    root = tree.root_digest()
    blob = vo.to_bytes()
    assert verify_range_bytes(blob, root, lo, hi, results)
    for pos in range(len(blob)):
        for flip in (1, 0x80):
            mutated = bytearray(blob)
            mutated[pos] ^= flip
            assert not verify_range_bytes(bytes(mutated), root, lo, hi,
                                          results), f"escape at byte {pos}"


def test_vo_roundtrip_bytes():
    tree = build(random_entries(500, 8))
    results, vo = tree.range_query(100, 9000)
    blob = vo.to_bytes()
    vo2 = RangeVO.from_bytes(blob)
    assert vo2.to_bytes() == blob
    assert verify_range(vo2, tree.root_digest(), 100, 9000, results)
    # 300 more ids at 4,321: a bucket whose count escapes to a u32
    tree = build(random_entries(300, 8)
                 + [(eid, 4_321) for eid in range(300, 600)])
    results, vo = tree.range_query(4_321, 4_321)
    blob = vo.to_bytes()
    assert len(results) >= 300
    assert (4_321).to_bytes(8, "big") + b"\xff" in blob
    assert RangeVO.from_bytes(blob).to_bytes() == blob
    assert verify_range_bytes(blob, tree.root_digest(), 4_321, 4_321,
                              results)


def test_post_conversion_insert_writes_constant():
    writes = []
    for n in (100, 1000, 5000):
        meter = GasMeter()
        tree = BHashTree(meter=meter)
        rng = random.Random(n)
        for eid in range(n):
            tree.insert(eid, rng.randrange(1 << 32))
        before = meter.storage_writes
        tree.insert(n, rng.randrange(1 << 32))
        writes.append(meter.storage_writes - before)
    assert max(writes) - min(writes) <= 1


def test_pre_conversion_insert_writes_grow_with_depth():
    meter = GasMeter()
    tree = BHashTree(threshold_t=None, meter=meter)
    rng = random.Random(11)
    per_depth = {}
    for eid in range(3000):
        before = meter.storage_writes
        tree.insert(eid, rng.randrange(1 << 32))
        per_depth.setdefault(tree.depth, []).append(meter.storage_writes - before)
    depths = sorted(per_depth)
    assert len(depths) >= 3
    medians = [sorted(per_depth[d])[len(per_depth[d]) // 2] for d in depths]
    assert medians == sorted(medians)
    assert medians[-1] > medians[0]


def test_post_conversion_read_cost_linear_in_result_size():
    meter = GasMeter()
    tree = BHashTree(meter=meter)
    rng = random.Random(12)
    entries = [(eid, rng.randrange(100_000)) for eid in range(5000)]
    for eid, ts in entries:
        tree.insert(eid, ts)
    costs = []
    for width in (1000, 10_000, 50_000):
        before = meter.storage_reads
        results, _ = tree.range_query(0, width)
        costs.append((len(results), meter.storage_reads - before))
    for r, reads in costs:
        assert reads <= 3 * r + 40
    assert costs[0][1] < costs[-1][1]


def test_duplicate_timestamps_share_bucket():
    tree = build([(i, 777) for i in range(20)])
    results, vo = tree.range_query(777, 777)
    assert results == list(range(20))
    assert verify_range(vo, tree.root_digest(), 777, 777, results)


def test_multi_leaf_conversion():
    entries = random_entries(400, 13)
    tree = build(entries, threshold=300)
    assert tree.converted and not tree.root.is_leaf
    rng = random.Random(14)
    for _ in range(100):
        lo, hi = rng.randrange(11_000), rng.randrange(11_000)
        results, vo = tree.range_query(lo, hi)
        assert results == oracle(entries, lo, hi)
        assert verify_range(vo, tree.root_digest(), lo, hi, results)


def _nodes(node):
    yield node
    if not node.is_leaf:
        for child in node.children:
            yield from _nodes(child)


def _crit_nodes(node):
    yield node
    if node.bit < 64:
        yield from _crit_nodes(node.left)
        yield from _crit_nodes(node.right)


def _crit_keys(node):
    return [n.key for n in _crit_nodes(node) if n.bit == 64]


def _mark_crit_stale(node):
    for crit in _crit_nodes(node.crit):
        crit.digest = None


@pytest.mark.parametrize("threshold,seed",
                         [(10, 1), (10, 2), (40, 3), (None, 1)])
def test_incremental_merkle_levels_match_full_rebuild(threshold, seed):
    # out-of-order inserts into a few hundred buckets (or, with no
    # threshold, splitting B+ leaves), with repeated keys, flushed after
    # 1..6 inserts at a time
    rng = random.Random(seed)
    tree = BHashTree(threshold_t=threshold)
    eid = 0
    while eid < 400:
        for _ in range(rng.randint(1, 6)):
            tree.insert(eid, rng.randrange(300))
            eid += 1
        tree.root_digest()
        for node in _nodes(tree.root):
            if not node.is_hash_node:
                continue
            # the crit tree holds the buckets in key order, and each
            # branch splits at the first bit where its keys differ
            assert _crit_keys(node.crit) == node.bucket_keys
            for crit in _crit_nodes(node.crit):
                if crit.bit < 64:
                    keys = _crit_keys(crit)
                    assert crit.bit == 64 - (keys[0] ^ keys[-1]).bit_length()
            # rehashing every crit node from scratch gives the same digest
            incremental = node.node_digest
            _mark_crit_stale(node)
            node.recompute_digest()
            assert node.node_digest == incremental
    # rehashing every node from scratch gives the same root
    root = tree.root_digest()
    for node in _nodes(tree.root):
        if node.is_hash_node:
            _mark_crit_stale(node)
        node.node_digest = None
    assert tree.root_digest() == root


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 300),
                          st.integers(0, MAX_TIMESTAMP)),
                min_size=11, max_size=120),
       st.randoms(use_true_random=False))
def test_hash_node_root_depends_only_on_the_key_set(stamps, rnd):
    # the 11th insert converts the root into one hash node holding every
    # entry, whatever the order and wherever the flushes fall
    entries = list(enumerate(stamps))

    def root_after(order, flush_odds):
        tree = BHashTree()
        for eid, ts in order:
            tree.insert(eid, ts)
            if rnd.random() < flush_odds:
                tree.root_digest()
        assert tree.root.is_hash_node
        return tree.root_digest()

    want = root_after(entries, 0.0)
    shuffled = list(entries)
    rnd.shuffle(shuffled)
    assert root_after(shuffled, 0.3) == want
    assert root_after(shuffled[::-1], 1.0) == want


def _two_walk_window_paths(root, first: int, last: int):
    """The reference for bhash._crit_window_paths: one walk from the root
    to each window end, the first's gathering its left siblings and the
    last's its right ones."""
    lefts, rights = [], []  # branches with a child outside the window
    a = b = root
    while a.bit < 64:  # first's left siblings: where first goes right
        if first >> (63 - a.bit) & 1:
            lefts.append(a)
            a = a.right
        else:
            a = a.left
    while b.bit < 64:  # last's right siblings: where last goes left
        if last >> (63 - b.bit) & 1:
            b = b.right
        else:
            rights.append(b)
            b = b.left
    rights.reverse()
    return (b"".join([bytes([len(lefts)] + [n.bit for n in lefts]),
                      *[n.left.digest for n in lefts]]),
            b"".join([bytes([len(rights)] + [n.bit for n in rights]),
                      *[n.right.digest for n in rights]]),
            a, b)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 300),
                          st.integers(0, MAX_TIMESTAMP)),
                min_size=11, max_size=80),
       st.data())
def test_window_paths_match_two_walks(stamps, data):
    tree = build(enumerate(stamps))
    tree.root_digest()
    node = tree.root
    assert node.is_hash_node
    keys = node.bucket_keys
    i = data.draw(st.integers(0, len(keys) - 1))
    j = data.draw(st.integers(i, len(keys) - 1))
    # one key, adjacent keys, the whole range and either end of the tree,
    # then a drawn window
    windows = [(0, 0), (i, i), (len(keys) - 1, len(keys) - 1),
               (0, len(keys) - 1), (i, j)]
    if len(keys) > 1:
        windows += [(0, 1), (len(keys) - 2, len(keys) - 1),
                    (min(i, len(keys) - 2), min(i, len(keys) - 2) + 1)]
    for a, b in windows:
        first, last = keys[a], keys[b]
        assert (_crit_window_paths(node.crit, first, last)
                == _two_walk_window_paths(node.crit, first, last))


def _gap_vo(tree, top=True):
    """An empty range between two adjacent buckets near the top (or the
    bottom) of the key range, and its VO, whose left (right) side then
    holds several subtrees."""
    keys = tree.root.bucket_keys
    gaps = list(zip(keys, keys[1:]))
    a, b = next((a, b) for a, b in (gaps[::-1] if top else gaps)
                if b - a > 1)
    results, vo = tree.range_query(a + 1, b - 1)
    sides = reference.RangeVO.from_bytes(vo.to_bytes()).proof[4:]
    assert results == [] and len(sides[0 if top else 1][0]) >= 2
    assert verify_range(vo, tree.root_digest(), a + 1, b - 1, [])
    return a, b, vo


@pytest.mark.parametrize("top", [True, False])
def test_pruned_subtree_meeting_the_range_rejected(top):
    tree = build(random_entries(200, 15))
    a, b, vo = _gap_vo(tree, top)
    # the same VO, checked for a range inside one of its side subtrees:
    # both window keys lie outside that range, but the subtree does not
    keys = tree.root.bucket_keys
    hidden = keys[0] if top else keys[-1]
    assert not verify_range(vo, tree.root_digest(), hidden, hidden, [])


def test_crafted_crit_sides_rejected():
    tree = build(random_entries(200, 15))
    a, b, vo = _gap_vo(tree)
    root = tree.root_digest()
    blob = vo.to_bytes()
    honest = reference.RangeVO.from_bytes(blob).proof
    *head, (lbits, ldigs), (rbits, rdigs) = honest
    # the root's hash-leaf record: kind at 32, lo, hi, flags 3 at 49, nrev
    # 0, the two digest-only buckets of 40 bytes at 54, then each side:
    # count u8 ‖ bits ‖ digests
    assert blob[32] == P_HASHLEAF and blob[49:54] == b"\x03" + bytes(4)
    left, right = 135, 136 + 33 * len(lbits)  # the bits of each side
    unset = next(bit for bit in range(lbits[-1] + 1, 64)
                 if not a >> (63 - bit) & 1)
    # a new outermost right bit must lie below the present ones
    set_in_last = next(bit for bit in reversed(range(min(rbits, default=64)))
                       if b >> (63 - bit) & 1)
    swapped = bytes([lbits[1], lbits[0]])
    doubled = bytes([lbits[0], lbits[0]])
    # (forged blob, the sides it should decode to)
    crafted = [
        # left bits must strictly increase
        (blob[:left] + swapped + blob[left + 2:],
         (swapped + lbits[2:], ldigs), (rbits, rdigs)),
        (blob[:left] + doubled + blob[left + 2:],
         (doubled + lbits[2:], ldigs), (rbits, rdigs)),
        # a left bit must be set in the first window key
        (blob[:left + len(lbits) - 1] + bytes([unset])
         + blob[left + len(lbits):],
         (lbits[:-1] + bytes([unset]), ldigs), (rbits, rdigs)),
        # a right bit must be clear in the last window key
        (blob[:right - 1] + bytes([len(rbits) + 1]) + rbits
         + bytes([set_in_last]) + blob[right + len(rbits):] + bytes(32),
         (lbits, ldigs), (rbits + bytes([set_in_last]), rdigs + [bytes(32)])),
    ]
    for cut, *sides in crafted:
        # the patch landed where the case means it to, and nowhere else
        assert reference.RangeVO.from_bytes(cut).proof == (*head, *sides)
        forged = RangeVO.from_bytes(cut)
        assert not verify_range(forged, root, a + 1, b - 1, [])
        assert not verify_range_bytes(forged.to_bytes(), root, a + 1, b - 1,
                                      [])


def test_fold_rejects_equal_neighbouring_gaps():
    items = [bytes([i]) * 32 for i in range(3)]
    assert _crit_fold(items, [40, 50]) is not None
    assert _crit_fold(items, [50, 40]) is not None
    assert _crit_fold(items, [40, 40]) is None


def _sha256_calls_per_insert(n, monkeypatch):
    """SHA-256 calls per shuffled insert + flush into a hash node that
    holds n buckets."""
    rng = random.Random(n)
    stamps = rng.sample(range(1 << 40), n + 200)
    tree = BHashTree()
    for eid in range(n):
        tree.insert(eid, stamps[eid])
    tree.root_digest()
    calls = 0
    real = hashlib.sha256

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(hashlib, "sha256", counting)
        for eid in range(n, n + 200):
            tree.insert(eid, stamps[eid])
            tree.root_digest()
    return calls / 200


def test_shuffled_insert_hashes_grow_logarithmically(monkeypatch):
    small = _sha256_calls_per_insert(1_000, monkeypatch)
    large = _sha256_calls_per_insert(16_000, monkeypatch)
    assert large <= 1.5 * small


def _nested_range_vo(root: bytes, depth: int) -> bytes:
    """`depth` one-child internal proof nodes around a pruned subtree."""
    return (root + struct.pack(">BQQI", P_INTERNAL, 0, 1 << 62, 1) * depth
            + struct.pack(">BQQ", P_PRUNED, 0, 0) + bytes(32))


def test_deeply_nested_vo_bytes_rejected():
    root = build(random_entries(50, 1)).root_digest()
    blob = _nested_range_vo(root, 2000)
    assert len(blob) == 42_081
    assert verify_range_bytes(blob, root, 0, 10, []) is False


def test_non_canonical_hash_leaf_encodings_rejected():
    """Each hash-leaf proof has one encoding: a count the byte could hold
    behind the 0xFF escape, or a lone digest-only bucket under flag 2
    rather than 1, verifies as False."""
    tree = build([(i, 1000 + 10 * i) for i in range(20)])
    root = tree.root_digest()
    ids, vo = tree.range_query(1050, 1050)
    blob = vo.to_bytes()
    assert ids == [5] and blob[32] == P_HASHLEAF
    assert verify_range_bytes(blob, root, 1050, 1050, ids)
    bucket = struct.pack(">QBQ", 1050, 1, 5)
    assert blob.count(bucket) == 1
    escaped = blob.replace(bucket, struct.pack(">QBIQ", 1050, 0xFF, 1, 5))
    assert verify_range_bytes(escaped, root, 1050, 1050, ids) is False

    ids, vo = tree.range_query(0, 5)
    blob = vo.to_bytes()
    assert ids == [] and blob[32] == P_HASHLEAF and blob[49] == 1
    assert verify_range_bytes(blob, root, 0, 5, [])
    flipped = blob[:49] + b"\x02" + blob[50:]
    assert verify_range_bytes(flipped, root, 0, 5, []) is False


def test_hash_leaf_without_window_buckets_rejected():
    """A hash-leaf record with flags 0 and no revealed bucket has no
    window to place the range against: it verifies as False."""
    tree = build([(i, 1000 + 10 * i) for i in range(20)])
    root = tree.root_digest()
    ids, vo = tree.range_query(0, 5)
    blob = vo.to_bytes()
    assert ids == [] and blob[32] == P_HASHLEAF
    lo, hi = struct.unpack_from(">QQ", blob, 33)
    empty = blob[:33] + struct.pack(">QQBI", lo, hi, 0, 0) + bytes(2)
    for start, end in ((0, 5), (1000, 1190), (0, MAX_TIMESTAMP)):
        assert verify_range_bytes(empty, root, start, end, []) is False
        assert reference.verify_range_bytes(empty, root, start, end,
                                            []) is False


def _metered_run(threshold):
    """600 inserts with random flushes and a range VO every 50 inserts."""
    meter = GasMeter()
    tree = BHashTree(threshold_t=threshold, meter=meter)
    rng = random.Random(21)
    vos = hashlib.sha256()
    for eid in range(600):
        tree.insert(eid, rng.randrange(5000))
        if rng.random() < 0.1:
            tree.root_digest()
        if eid % 50 == 49:
            lo = rng.randrange(5000)
            _, vo = tree.range_query(lo, lo + rng.randrange(800))
            vos.update(vo.to_bytes())
    return (meter.storage_writes, meter.storage_reads,
            tree.root_digest().hex(), vos.hexdigest())


@pytest.mark.parametrize("threshold,writes,reads,root,vos", [
    (None, 1707, 1930,
     "c0db63fc3e9541ac8eb97b53b301825e8c6c68252d438850611a8c300b345e4d",
     "2dcc5309ffc70ff60b59a85be734967b5bf18918650812f5c421064c2138c355"),
    (10, 601, 891,
     "ca15970ccc3a7545154fda45ac64e62ff08b15ec420a24e5509ad03ad5c6eda9",
     "fb2cc35e04e1357a623b3eadf11b0b31bb9df8e0bb1c9d43c8a33ad3fc3c8668"),
    (40, 1195, 1491,
     "d92a4f07fae87b83c6ea183b04a1deb93d61c97695a4232a010f97e8946875bc",
     "3a587725ec50809d2464ff0ddf2c22985a719dda6271e5b486417dddd4f2dd53"),
], ids=["None", "10", "40"])
def test_storage_ticks_and_root_pinned(threshold, writes, reads, root, vos):
    # storage ticks, the root and the VO bytes are part of the contract;
    # compute ticks are not, since they count digest recomputations
    got = _metered_run(threshold)
    assert got == (writes, reads, root, vos)
