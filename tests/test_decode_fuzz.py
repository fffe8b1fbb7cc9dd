"""The VO decoders and `Ledger.load` on arbitrary bytes and on honest
encodings that are truncated, extended or byte-flipped: each returns a
value or raises its own decode error, never `IndexError`, `struct.error`,
`RecursionError`, `UnicodeDecodeError` or `EncodingError`."""
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from test_ledger import _records
from chainquery.bhash import BHashTree, RangeVO
from chainquery.core import VODecodeError
from chainquery.engine import Engine
from chainquery.ledger import Ledger, LedgerDecodeError
from chainquery.trie import PrefixVO, Trie

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
        decode(blob)
    except own_error:
        pass


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
