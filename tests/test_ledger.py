import random

import pytest

from chainquery import ledger as ledger_module
from chainquery.bhash import BHashTree
from chainquery.core import EMPTY_DIGEST, DataEntry
from chainquery.gas import GasMeter
from chainquery.ledger import (Block, Ledger, LedgerDecodeError,
                               NonDenseEntryIds, OP_DELETE, OP_UPDATE,
                               UnknownHeight)
from chainquery.trie import Trie

ROOTS = (b"\x11" * 32, b"\x22" * 32)


def make_entry(eid, ts=None, rng=None):
    rng = rng or random.Random(eid)
    addr = "0x" + "".join(rng.choice("0123456789abcdef") for _ in range(40))
    return DataEntry(eid, rng.randrange(10**9), (addr,),
                     ts if ts is not None else rng.randrange(1 << 40))


def test_genesis_block():
    ledger = Ledger()
    block = ledger.append_block([], ROOTS)
    assert block.height == 0
    assert block.prev_digest == EMPTY_DIGEST
    assert ledger.trusted_root(0) == ROOTS


def test_identical_content_distinct_digests():
    ledger = Ledger()
    ledger.append_block([], ROOTS)
    b1 = ledger.append_block([], ROOTS)
    b2 = ledger.append_block([], ROOTS)
    assert b1.block_digest != b2.block_digest


def test_non_dense_rejected():
    ledger = Ledger()
    with pytest.raises(NonDenseEntryIds):
        ledger.append_block([make_entry(5)], ROOTS)
    # a rejected block moves no counter: [e0, e5] fails, then [e0] fits
    with pytest.raises(NonDenseEntryIds):
        ledger.append_block([make_entry(0), make_entry(5)], ROOTS)
    assert ledger.blocks == []
    assert ledger.append_block([make_entry(0)], ROOTS).entries[0].entry_id == 0


def test_unknown_height():
    ledger = Ledger()
    with pytest.raises(UnknownHeight):
        ledger.trusted_root(0)


def test_replay_determinism(tmp_path):
    def build():
        rng = random.Random(77)
        ledger = Ledger()
        eid = 0
        for _ in range(128):
            entries = [make_entry(eid + i, rng=rng)
                       for i in range(rng.randint(0, 4))]
            eid += len(entries)
            roots = (random.Random(eid).randbytes(32),
                     random.Random(eid + 1).randbytes(32))
            ledger.append_block(entries, roots)
        return ledger

    a, b = build(), build()
    assert [x.block_digest for x in a.blocks] == [x.block_digest for x in b.blocks]


def test_save_load_roundtrip(tmp_path):
    rng = random.Random(3)
    ledger = Ledger()
    eid = 0
    for h in range(20):
        entries = [make_entry(eid + i, rng=rng) for i in range(2)]
        eid += 2
        ops = {5: [(OP_DELETE, 1)], 8: [(OP_UPDATE, 2)]}.get(h, [])
        ledger.append_block(entries, ROOTS, ops)
    path = str(tmp_path / "chain.bin")
    ledger.save(path)
    loaded = Ledger.load(path)
    assert [b.block_digest for b in loaded.blocks] == \
           [b.block_digest for b in ledger.blocks]
    assert loaded.blocks[5].ops[-1] == (OP_DELETE, 1)
    assert loaded.verify_chain()
    again = str(tmp_path / "again.bin")
    loaded.save(again)
    assert open(again, "rb").read() == open(path, "rb").read()


def test_failed_save_leaves_the_saved_file_whole(tmp_path, monkeypatch):
    ledger = Ledger()
    for h in range(5):
        ledger.append_block([make_entry(h)], ROOTS)
    path = tmp_path / "ledger.bin"
    ledger.save(str(path))
    saved = path.read_bytes()
    ledger.append_block([make_entry(5)], ROOTS)
    record = ledger_module._record
    calls = []

    def failing_record(block):
        calls.append(block.height)
        if len(calls) == 3:
            raise OSError("disk gone")
        return record(block)

    monkeypatch.setattr(ledger_module, "_record", failing_record)
    with pytest.raises(OSError):
        ledger.save(str(path))
    assert path.read_bytes() == saved
    assert list(tmp_path.iterdir()) == [path]
    monkeypatch.setattr(ledger_module, "_record", record)
    ledger.save(str(path))
    assert [b.block_digest for b in Ledger.load(str(path)).blocks] == \
           [b.block_digest for b in ledger.blocks]


def test_tamper_evidence():
    ledger = Ledger()
    for h in range(5):
        e = make_entry(h, ts=1000 + h)
        ledger.append_block([e], ROOTS)
    assert ledger.verify_chain()
    victim = ledger.blocks[2]
    forged = make_entry(victim.entries[0].entry_id, ts=1)
    ledger.blocks[2] = Block(victim.height, victim.prev_digest, (forged,),
                             victim.ops, victim.bhash_root, victim.trie_root,
                             victim.block_digest)
    assert not ledger.verify_chain()


def test_anchor_consistency_with_rebuilt_indexes(tmp_path):
    rng = random.Random(9)
    ledger = Ledger()
    tree = BHashTree()
    trie = Trie()
    for h in range(60):
        e = make_entry(h, rng=rng)
        tree.insert(e.entry_id, e.timestamp)
        trie.insert(f"{e.timestamp:016x}"[:16], e.entry_id)
        ledger.append_block([e], (tree.root_digest(), trie.root_digest()))
    path = str(tmp_path / "chain.bin")
    ledger.save(path)

    replayed = Ledger.load(path)
    tree2 = BHashTree()
    trie2 = Trie()
    for block in replayed.blocks:
        for e in block.entries:
            tree2.insert(e.entry_id, e.timestamp)
            trie2.insert(f"{e.timestamp:016x}"[:16], e.entry_id)
        assert replayed.trusted_root(block.height) == \
               (tree2.root_digest(), trie2.root_digest())


def _records(blob):
    records, off = [], 0
    while off < len(blob):
        ln = int.from_bytes(blob[off:off + 4], "big")
        records.append(blob[off + 4:off + 4 + ln])
        off += 4 + ln
    return records


def _slot(record, body):
    """record with its first entry slot (at byte 44) holding body."""
    ln = int.from_bytes(record[44:48], "big")
    return record[:44] + len(body).to_bytes(4, "big") + body + record[48 + ln:]


def _first_body(record):
    return record[48:48 + int.from_bytes(record[44:48], "big")]


def _padded_slot(rec):
    return _slot(rec, _first_body(rec) + b"\x00")


def _zero_padded_amount(rec):
    body = _first_body(rec)
    alen = int.from_bytes(body[8:12], "big")
    return _slot(rec, body[:8] + (alen + 1).to_bytes(4, "big") + b"\x00"
                 + body[12:])


def _cid_flag_2(rec):
    body = _first_body(rec)  # ends: 0x01, image cid, 0x00 (no video)
    flag = len(body) - 34
    return _slot(rec, body[:flag] + b"\x02" + body[flag + 1:])


def _wrong_height(rec):
    return rec[:32] + (int.from_bytes(rec[32:40], "big") + 1).to_bytes(
        8, "big") + rec[40:]


def _wrong_prev(rec):
    return bytes([rec[0] ^ 1]) + rec[1:]


def _non_dense_id(rec):
    body = _first_body(rec)
    eid = int.from_bytes(body[:8], "big")
    return _slot(rec, (eid + 1).to_bytes(8, "big") + body[8:])


def _short_trie_root(rec):
    return rec[:-1]


@pytest.mark.parametrize("craft", [
    _padded_slot, _zero_padded_amount, _cid_flag_2, _wrong_height,
    _wrong_prev, _non_dense_id, _short_trie_root,
], ids=lambda f: f.__name__.strip("_"))
def test_load_accepts_only_what_save_writes(tmp_path, craft):
    """Each crafted last record decodes to a block whose own record
    differs (or to no block at all); the digest chain alone cannot tell,
    since no later record links to the last one."""
    ledger = Ledger()
    for eid in range(2):
        e = make_entry(eid)
        ledger.append_block([DataEntry(eid, e.amount, e.addresses,
                                       e.timestamp, image_cid=b"\x07" * 32)],
                            ROOTS)
    path = str(tmp_path / "chain.bin")
    ledger.save(path)
    records = _records(open(path, "rb").read())
    records[-1] = craft(records[-1])
    with open(path, "wb") as fh:
        for rec in records:
            fh.write(len(rec).to_bytes(4, "big") + rec)
    with pytest.raises(LedgerDecodeError):
        Ledger.load(path)


@pytest.mark.parametrize("kind", [0, 7])
def test_load_rejects_unknown_op_kinds(tmp_path, kind):
    # append_block leaves op rules to the engine; the decoder has its own
    ledger = Ledger()
    ledger.append_block([make_entry(0)], ROOTS)
    ledger.append_block([], ROOTS, ops=[(kind, 0)])
    path = str(tmp_path / "chain.bin")
    ledger.save(path)
    with pytest.raises(LedgerDecodeError, match=f"unknown op kind {kind}"):
        Ledger.load(path)


def test_gas_meter_noop_and_report():
    meter = GasMeter()
    assert (meter.snapshot(), meter.total_gas()) == ((0, 0, 0), 0)
    meter.write(2)
    meter.read(3)
    meter.compute(5)
    assert meter.snapshot() == (2, 3, 5)
    assert meter.total_gas() == 2 * 20_000 + 3 * 800 + 5
