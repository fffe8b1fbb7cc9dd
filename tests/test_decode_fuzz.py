"""The VO decoders and `Ledger.load` on arbitrary bytes and on honest
encodings that are truncated, extended or byte-flipped: each returns a
value or raises its own decode error, never `IndexError`, `struct.error`,
`RecursionError`, `UnicodeDecodeError` or `EncodingError`.  A VO is its
bytes: each one decoded encodes back to the same bytes."""
import os
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_ledger import _records
from chainquery.bhash import (P_HASHLEAF, P_INTERNAL, P_LEAF, BHashTree,
                              RangeVO, verify_range_bytes)
from chainquery.core import VODecodeError
from chainquery.engine import Engine
from chainquery.ledger import Ledger, LedgerDecodeError
from chainquery.trie import PrefixVO, Trie, verify_prefix_bytes

ADDR = "0x" + "ab" * 20


def _range_vos():
    blobs = []
    for threshold in (None, 4):  # plain B+-tree leaves, then hash leaves
        tree = BHashTree(threshold_t=threshold)
        for eid in range(40):
            tree.insert(eid, (eid * 7919) % 97)
        for a, b in ((0, 100), (10, 30), (50, 50), (9, 3)):
            blobs.append(tree.range_query(a, b)[1].to_bytes())
    return blobs


def _prefix_vos():
    trie = Trie()
    for eid, key in enumerate(["ab1", "ab2", "abc", "b", "ba:0", "c-d"]):
        trie.insert(key, eid)
    return [trie.prefix_query(p)[1].to_bytes()
            for p in ("a", "ab", "abc", "ba", "zz", "ab3")]


def _ledger_file():
    engine = Engine()
    for i in range(3):
        engine.execute(f"INSERT INTO entries (amount, addresses, timestamp, "
                       f"image) VALUES ({i}, '{ADDR}', {100 + i}, '00ff')")
    engine.execute("UPDATE entries SET amount = 9 WHERE entry_id = 1")
    engine.execute("DELETE FROM entries WHERE entry_id = 0")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ledger.bin")
        engine.ledger.save(path)
        with open(path, "rb") as fh:
            return fh.read()


HONEST = {"range": _range_vos(), "prefix": _prefix_vos(),
          "ledger": [_ledger_file()]}


def _load_ledger(blob: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ledger.bin")
        with open(path, "wb") as fh:
            fh.write(blob)
        return Ledger.load(path)


DECODERS = {"range": (RangeVO.from_bytes, VODecodeError),
            "prefix": (PrefixVO.from_bytes, VODecodeError),
            "ledger": (_load_ledger, LedgerDecodeError)}


def _mutate(draw, blob: bytes) -> bytes:
    """blob cut short, extended, or with bytes flipped or nudged by a
    little (which turns a count or length into a nearby wrong one)."""
    blob = bytearray(blob)
    how = draw(st.sampled_from(["cut", "extend", "flip", "nudge"]))
    if how == "cut":
        return bytes(blob[:draw(st.integers(0, len(blob)))])
    if how == "extend":
        return bytes(blob) + draw(st.binary(min_size=1, max_size=16))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(blob) - 1))
        if how == "flip":
            blob[i] ^= draw(st.integers(1, 255))
        else:
            blob[i] = (blob[i] + draw(st.integers(-8, 8))) % 256
    return bytes(blob)


@st.composite
def mutated(draw, kind):
    """Arbitrary bytes, or an honest encoding of `kind` mutated; for a
    ledger, either the whole file or one record inside intact framing, so
    that the record decoder sees the damage."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=200))
    blob = draw(st.sampled_from(HONEST[kind]))
    if kind != "ledger" or draw(st.booleans()):
        return _mutate(draw, blob)
    records = _records(blob)
    i = draw(st.integers(0, len(records) - 1))
    records[i] = _mutate(draw, records[i])
    return b"".join(len(r).to_bytes(4, "big") + r for r in records)


def _decodes_or_own_error(kind, blob):
    decode, own_error = DECODERS[kind]
    try:
        value = decode(blob)
    except own_error:
        return
    if kind != "ledger":
        assert value.to_bytes() == blob


def test_honest_encodings_decode():
    for kind, blobs in HONEST.items():
        for blob in blobs:
            DECODERS[kind][0](blob)


@settings(max_examples=600, deadline=None)
@given(mutated("range"))
def test_range_vo_decoder_raises_only_its_error(blob):
    _decodes_or_own_error("range", blob)


@settings(max_examples=600, deadline=None)
@given(mutated("prefix"))
def test_prefix_vo_decoder_raises_only_its_error(blob):
    _decodes_or_own_error("prefix", blob)


@settings(max_examples=300, deadline=None)
@given(mutated("ledger"))
def test_ledger_load_raises_only_its_error(blob):
    _decodes_or_own_error("ledger", blob)


# The byte verifiers on the same inputs: each returns a bool and raises
# nothing.  Each blob is checked against its own root, so that the walk
# gets past the root check, for every honest claim.

def _range_tree(threshold, n=40):
    tree = BHashTree(threshold_t=threshold)
    for eid in range(n):
        tree.insert(eid, (eid * 7919) % 97)
    return tree


def _prefix_trie():
    trie = Trie()
    for eid, key in enumerate(["ab1", "ab2", "abc", "b", "ba:0", "c-d"]):
        trie.insert(key, eid)
    return trie


RANGE_CLAIMS = [(a, b, _range_tree(t).range_query(a, b)[0])
                for t in (None, 4)
                for a, b in ((0, 100), (10, 30), (50, 50), (9, 3))]
PREFIX_CLAIMS = [(p, _prefix_trie().prefix_query(p)[0])
                 for p in ("a", "ab", "abc", "ba", "zz", "ab3")]


def test_honest_encodings_verify():
    for (a, b, ids), blob in zip(RANGE_CLAIMS, HONEST["range"]):
        assert verify_range_bytes(blob, blob[:32], a, b, ids) is True
    for (p, ids), blob in zip(PREFIX_CLAIMS, HONEST["prefix"]):
        assert verify_prefix_bytes(blob, blob[:32], p, ids) is True


@settings(max_examples=600, deadline=None)
@given(mutated("range"))
def test_range_verifier_returns_a_bool(blob):
    for a, b, ids in RANGE_CLAIMS:
        assert type(verify_range_bytes(blob, blob[:32], a, b, ids)) is bool


@settings(max_examples=600, deadline=None)
@given(mutated("prefix"))
def test_prefix_verifier_returns_a_bool(blob):
    for p, ids in PREFIX_CLAIMS:
        assert type(verify_prefix_bytes(blob, blob[:32], p, ids)) is bool


def _patch(blob: bytes, off: int, new: bytes) -> bytes:
    return blob[:off] + new + blob[off + len(new):]


def _oversized():
    """name -> (kind, blob, query, claim): an honest VO with one count
    raised past what its bytes hold."""
    cases = {}
    hashed = _range_tree(4).range_query(10, 30)
    blob = hashed[1].to_bytes()
    assert blob[32] == P_HASHLEAF
    # a hash-leaf record: kind, lo u64, hi u64, flags u8 at 49, nrev u32
    # at 50, then the window, a digest-only bucket (40 bytes) first if
    # flag bit 0 is set
    bucket = 54 + 40 * (blob[49] & 1)
    for name, off, new in (
            ("hash-leaf nrev", 50, b"\xff" * 4),
            # a revealed bucket: key u64, then the count byte 0xFF and the
            # u32 count it escapes to
            ("bucket count escape", bucket + 8, b"\xff" * 5)):
        cases[name] = ("range", _patch(blob, off, new), (10, 30), hashed[0])
    # a B+ leaf (up to 16 pairs) and an internal node: kind at 32, lo,
    # hi, then the count u32 at 49
    for name, n, kind in (("leaf pair count", 12, P_LEAF),
                          ("internal child count", 40, P_INTERNAL)):
        ids, vo = _range_tree(None, n).range_query(0, 100)
        blob = vo.to_bytes()
        assert blob[32] == kind
        cases[name] = ("range", _patch(blob, 49, b"\xff" * 4), (0, 100),
                       ids)
    trie = _prefix_trie()
    ids, match = trie.prefix_query("abc")
    blob = match.to_bytes()
    # the root path entry: label length 0 at 34, its id count u32 at 35,
    # the taken index at 39 and the sibling count at 40
    cases["trie id count"] = ("prefix", _patch(blob, 35, b"\xff" * 4),
                              ("abc",), ids)
    cases["sibling count"] = ("prefix", _patch(blob, 40, b"\xff"),
                              ("abc",), ids)
    # the matched subtree is one leaf, whose child count ends the VO
    cases["child count"] = ("prefix", blob[:-1] + b"\xff", ("abc",), ids)
    _, nonmatch = trie.prefix_query("abcd")
    # the non-match terminal is that leaf, whose item count ends the VO
    cases["item count"] = ("prefix", nonmatch.to_bytes()[:-1] + b"\xff",
                           ("abcd",), [])
    return cases


OVERSIZED = _oversized()
VERIFIERS = {"range": verify_range_bytes, "prefix": verify_prefix_bytes}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_count_past_the_bytes_rejected_without_allocating(name):
    kind, blob, query, claim = OVERSIZED[name]
    tracemalloc.start()
    try:
        ok = VERIFIERS[kind](blob, blob[:32], *query, claim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok is False
    assert peak < 1 << 20  # a count-sized list of ids would be GiBs
