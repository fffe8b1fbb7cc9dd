"""CLI tests: subcommand round trips, output formats, and exit codes."""
import json
import os
from pathlib import Path

import pytest

from chainquery.cli import main
from chainquery.ledger import OP_UPDATE, Ledger


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def dataset(tmp_path, capsys):
    d = str(tmp_path / "data")
    code, _, _ = run(capsys, "generate", "--dataset", d, "--seed", "7",
                     "--blocks", "32")
    assert code == 0
    code, _, _ = run(capsys, "ingest", "--dataset", d, "--blocks", "32")
    assert code == 0
    return d


def test_generate_reports_counts(tmp_path, capsys):
    d = str(tmp_path / "data")
    code, out, _ = run(capsys, "generate", "--dataset", d, "--blocks", "8",
                       "--queries-per-primitive", "2")
    assert code == 0
    assert "8 entries" in out and "8 queries" in out
    assert os.path.exists(os.path.join(d, "dataset.jsonl"))


def test_query_formats(dataset, capsys):
    sql = "SELECT * FROM entries WHERE timestamp BETWEEN 0 AND 99999999999"
    code, out, _ = run(capsys, "query", "--dataset", dataset,
                       "--format", "jsonl", sql)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 32
    code, out, _ = run(capsys, "query", "--dataset", dataset,
                       "--format", "csv", sql)
    assert code == 0
    assert out.splitlines()[0].startswith("entry_id,")
    assert len(out.splitlines()) == 33
    code, out, _ = run(capsys, "query", "--dataset", dataset, sql)
    assert code == 0  # table format
    assert out.splitlines()[0].startswith("entry_id")


def test_query_emit_vo(dataset, capsys):
    code, _, err = run(capsys, "query", "--dataset", dataset, "--emit-vo",
                       "SELECT * FROM entries WHERE timestamp BETWEEN 0 "
                       "AND 99999999999")
    assert code == 0
    assert "vo_bytes=" in err


def test_query_bad_sql_exit_2(dataset, capsys):
    code, _, err = run(capsys, "query", "--dataset", dataset, "SELEKT 1")
    assert code == 2
    assert "bad query" in err


@pytest.mark.parametrize("sql", [
    "INSERT INTO entries (amount, addresses, timestamp) VALUES "
    f"(1, '0x{'ab' * 20}', 300000000000)",
    "INSERT INTO entries (amount, addresses, timestamp) VALUES "
    f"(1, '0x{'ab' * 20}', {1 << 64})",
    "DELETE FROM entries WHERE entry_id = 999",
    "DELETE FROM entries WHERE entry_id = " + "1" * 5000,
    "SELECT * FROM entries WHERE timestamp = 9223372036854775808",
], ids=["year-11476", "2^64", "delete-unknown", "5000-digit-id",
        "select-timestamp-2^63"])
def test_query_rejected_statement_exit_2(dataset, capsys, sql):
    code, _, err = run(capsys, "query", "--dataset", dataset, sql)
    assert code == 2
    assert err.startswith("error: bad query") and err.count("\n") == 1


def _store_files(dataset):
    return sum(len(files)
               for _, _, files in os.walk(os.path.join(dataset, "store")))


@pytest.mark.parametrize("sql", [
    "INSERT INTO entries (amount, addresses, timestamp, image) VALUES "
    f"(1, '0x{'ab' * 20}', 1700000000, '0badcafe')",
    "UPDATE entries SET amount = 5 WHERE entry_id = 1",
    "DELETE FROM entries WHERE entry_id = 1",
], ids=["insert-with-image", "update", "delete"])
def test_query_refuses_writes_exit_2(dataset, capsys, sql):
    # `query` saves no ledger, so a write it ran would be lost
    ledger = Path(dataset, "ledger.bin")
    saved, n_files = ledger.read_bytes(), _store_files(dataset)
    code, out, err = run(capsys, "query", "--dataset", dataset, sql)
    assert code == 2 and out == ""
    assert err.startswith("error: bad query") and err.count("\n") == 1
    assert "SELECT statements only" in err
    assert ledger.read_bytes() == saved
    assert _store_files(dataset) == n_files


def test_query_without_ingest_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "query", "--dataset", str(tmp_path),
                       "SELECT * FROM entries WHERE entry_id = 1")
    assert code == 2
    assert "ingest" in err


def test_usage_error_exit_2(capsys):
    assert run(capsys, "query")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_verify_ok(dataset, capsys):
    code, out, _ = run(capsys, "verify", "--dataset", dataset)
    assert code == 0
    assert out.startswith("ok:")


def test_verify_detects_tamper(dataset, capsys):
    path = os.path.join(dataset, "ledger.bin")
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0x01
    open(path, "wb").write(bytes(blob))
    code, _, err = run(capsys, "verify", "--dataset", dataset)
    assert code == 1
    assert "verification failed" in err


def test_verify_rejects_op_without_entry(dataset, capsys):
    path = os.path.join(dataset, "ledger.bin")
    ledger = Ledger.load(path)
    ledger.append_block([], ledger.latest_roots(), ops=[(OP_UPDATE, 0)])
    ledger.save(path)
    code, _, err = run(capsys, "verify", "--dataset", dataset)
    assert code == 1
    assert "verification failed" in err and "height 32" in err


@pytest.mark.parametrize("argv", [
    ("query", "SELECT * FROM entries WHERE entry_id = 1"), ("verify",),
], ids=["query", "verify"])
def test_ledger_with_insert_records_exit_1(dataset, capsys, argv):
    # a ledger saved when blocks still recorded (0, id) for each entry
    path = os.path.join(dataset, "ledger.bin")
    old = Ledger()
    for block in Ledger.load(path).blocks:
        old.append_block(block.entries, block.anchored_roots,
                         [(0, e.entry_id) for e in block.entries])
    old.save(path)
    code, out, err = run(capsys, argv[0], "--dataset", dataset, *argv[1:])
    assert code == 1 and out == ""
    assert "unknown op kind 0" in err and "Traceback" not in err


def test_verify_detects_payload_corruption(dataset, capsys):
    store = os.path.join(dataset, "store", "objects")
    victim = None
    for sub in sorted(os.listdir(store)):
        for name in sorted(os.listdir(os.path.join(store, sub))):
            victim = os.path.join(store, sub, name)
            break
        if victim:
            break
    assert victim is not None
    blob = bytearray(open(victim, "rb").read())
    blob[0] ^= 0xFF
    open(victim, "wb").write(bytes(blob))
    # corruption surfaces on the first query that touches the payload
    cid = os.path.basename(victim)
    records = [json.loads(l) for l in
               open(os.path.join(dataset, "dataset.jsonl"))]
    ts = next(r["timestamp"] for r in records
              if cid in (r["imagecid"], r["videocid"]))
    code, _, err = run(capsys, "query", "--dataset", dataset,
                       f"SELECT * FROM entries WHERE timestamp = {ts}")
    assert code == 1
    assert "verification failed" in err


def _first_object(dataset):
    """Path of the first payload file in the dataset's store."""
    store = os.path.join(dataset, "store", "objects")
    sub = os.path.join(store, sorted(os.listdir(store))[0])
    return os.path.join(sub, sorted(os.listdir(sub))[0])


@pytest.mark.parametrize("damage", ["deleted", "flipped"])
def test_verify_rehashes_payloads(dataset, capsys, damage):
    victim = _first_object(dataset)
    if damage == "deleted":
        os.remove(victim)
    else:
        blob = bytearray(open(victim, "rb").read())
        blob[-1] ^= 0x01
        open(victim, "wb").write(bytes(blob))
    code, out, err = run(capsys, "verify", "--dataset", dataset)
    assert code == 1 and out == ""
    assert err.startswith("verification failed: ")
    assert os.path.basename(victim) in err and "Traceback" not in err


def test_query_with_missing_payload_exit_1(dataset, capsys):
    os.remove(_first_object(dataset))
    code, _, err = run(capsys, "query", "--dataset", dataset,
                       "SELECT * FROM entries WHERE timestamp BETWEEN 0 "
                       "AND 9999999999")
    assert code == 1
    assert err.startswith("verification failed: no payload stored under")
    assert "Traceback" not in err


def test_bplus_only_variant_roundtrip(tmp_path, capsys):
    d = str(tmp_path / "data")
    assert run(capsys, "generate", "--dataset", d, "--blocks", "16")[0] == 0
    assert run(capsys, "ingest", "--dataset", d, "--blocks", "16",
               "--index-variant", "bplus-only")[0] == 0
    # verify must pick up the saved variant even without the flag
    assert run(capsys, "verify", "--dataset", d)[0] == 0


def test_bench_csv_and_jsonl(tmp_path, capsys):
    d = str(tmp_path / "data")
    code, out, _ = run(capsys, "bench", "--dataset", d, "--scales", "8,16",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n_blocks,") and len(lines) == 3
    code, out, _ = run(capsys, "bench", "--dataset", d, "--scales", "8",
                       "--format", "jsonl")
    assert code == 0
    row = json.loads(out.strip().splitlines()[-1])
    assert row["n_blocks"] == 8


_BENCH_HEADER = ("n_blocks,vo_bytes_select_simple,vo_bytes_time_range,"
                 "vo_bytes_fuzzy_time,vo_bytes_fuzzy_address,gas_writes,"
                 "gas_reads,gas_compute,root_digest")
# `bench --scales 8,16,64` at seed 0: VO bytes per primitive, gas ticks and
# the root per scale.  Any change to an index's shape, its VO encoding or
# its metering moves a figure here and must say why.
_BENCH_CSV = {
    "bhash": [
        "8,1448,1448,1876,3941,100,42,76,"
        "127c61b52e6dfe148af1405fe99844bd8c0566a8ef81796c10efa5e83725d14d",
        "16,1863,2475,2938,4895,192,85,151,"
        "dd494e8a2c7d9e58af471c67835ce9985d7ed306c3ec956747b8a17226e9b1ae",
        "64,2999,4996,9666,6827,933,489,735,"
        "81c7c1f53c11601d267c222b64a40b6c004fe58ef475cd764e1cb3b15bbd554b",
    ],
    "bplus-only": [
        "8,1448,1448,1876,3941,100,42,76,"
        "127c61b52e6dfe148af1405fe99844bd8c0566a8ef81796c10efa5e83725d14d",
        "16,2472,2472,2938,4895,191,85,151,"
        "c1d680bc30ec371fa01cb527ec00875ad072c646785c9209efe8f49f1068ee62",
        "64,4096,6052,9666,6827,992,536,789,"
        "48701e83dbe459cb83e90f57394176d1dce716e88d1043a40cb7f17e18b76cb6",
    ],
}


@pytest.mark.parametrize("variant", sorted(_BENCH_CSV))
def test_bench_csv_pinned(tmp_path, capsys, variant):
    code, out, _ = run(capsys, "bench", "--dataset", str(tmp_path / "data"),
                       "--scales", "8,16,64", "--index-variant", variant)
    assert code == 0
    assert out.splitlines() == [_BENCH_HEADER, *_BENCH_CSV[variant]]


@pytest.mark.parametrize("argv", [
    ("verify", "--format", "csv"),
    ("verify", "--seed", "1"),
    ("generate", "--blocks", "8", "--threshold-t", "5"),
    ("ingest", "--blocks", "8", "--format", "jsonl"),
    ("query", "--entries-per-block", "2",
     "SELECT * FROM entries WHERE entry_id = 1"),
    ("bench", "--scales", "8", "--format", "table"),
    ("verify", "--threshold-t", "3"),
    ("query", "--index-variant", "bplus-only",
     "SELECT * FROM entries WHERE entry_id = 1"),
], ids=["verify-format", "verify-seed", "generate-threshold-t",
        "ingest-format", "query-entries-per-block", "bench-format-table",
        "verify-threshold-t", "query-index-variant"])
def test_flag_a_subcommand_does_not_read_exit_2(dataset, capsys, argv):
    # each command line runs to exit 0 without its last unread flag
    code, _, err = run(capsys, argv[0], "--dataset", dataset, *argv[1:])
    assert code == 2
    assert "unrecognized arguments" in err or "invalid choice" in err


@pytest.mark.parametrize("argv", [
    ("generate", "--blocks", "3"),
    ("generate", "--density", "0"),
    ("bench", "--scales", "x"),
    ("ingest", "--blocks", "16"),
    ("ingest", "--blocks", "8", "--threshold-t", "0"),
    ("generate", "--queries-per-primitive", "-1"),
    ("ingest", "--blocks", "0"),
    ("ingest", "--blocks", "-3"),
    ("ingest", "--entries-per-block", "0"),
    ("generate", "--density", "nan"),
    ("generate", "--density", "5e-324"),
    ("generate", "--density", "1e-20"),
    ("bench", "--scales", ","),
], ids=["generate-blocks-3", "generate-density-0", "bench-scales-x",
        "ingest-past-dataset", "ingest-threshold-t-0",
        "generate-queries-per-primitive-negative", "ingest-blocks-0",
        "ingest-blocks-negative", "ingest-entries-per-block-0",
        "generate-density-nan", "generate-density-5e-324",
        "generate-density-1e-20", "bench-scales-empty"])
def test_bad_input_value_exit_2(tmp_path, capsys, argv):
    d = str(tmp_path / "data")
    if argv[0] == "ingest":
        assert run(capsys, "generate", "--dataset", d, "--blocks", "8")[0] == 0
    code, out, err = run(capsys, argv[0], "--dataset", d, *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if "--threshold-t" in argv:
        # the index's own check, not the dataset's size
        assert "threshold_t" in err


def test_rejected_generate_keeps_the_dataset(tmp_path, capsys):
    d = tmp_path / "data"
    assert run(capsys, "generate", "--dataset", str(d), "--blocks", "8")[0] \
        == 0
    paths = [d / "dataset.jsonl", d / "queries.jsonl"]
    saved = [path.read_bytes() for path in paths]
    # the density puts a timestamp past year 9999 after some entries
    code, _, err = run(capsys, "generate", "--dataset", str(d), "--blocks",
                       "8", "--density", "1e-20")
    assert code == 2 and err.startswith("error: ")
    assert [path.read_bytes() for path in paths] == saved
    assert not list(d.glob("*.tmp"))


@pytest.mark.parametrize("argv", [
    ("--blocks", "0"), ("--blocks", "-1"), ("--entries-per-block", "0"),
], ids=["blocks-0", "blocks-negative", "entries-per-block-0"])
def test_rejected_ingest_keeps_the_saved_ledger(dataset, capsys, argv):
    paths = [Path(dataset, name)
             for name in ("ledger.bin", "ingest-meta.json")]
    saved = [path.read_bytes() for path in paths]
    code, _, err = run(capsys, "ingest", "--dataset", dataset, *argv)
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert [path.read_bytes() for path in paths] == saved
    assert run(capsys, "verify", "--dataset", dataset)[0] == 0


def test_ingest_with_missing_payload_file_exit_2(tmp_path, capsys):
    d = str(tmp_path / "data")
    assert run(capsys, "generate", "--dataset", d, "--blocks", "8")[0] == 0
    with open(os.path.join(d, "dataset.jsonl")) as fh:
        records = [json.loads(line) for line in fh]
    # the last image: without the check, earlier blocks would be stored
    cid = next(r["imagecid"] for r in reversed(records) if r["imagecid"])
    os.remove(os.path.join(d, "payloads", cid))
    code, out, err = run(capsys, "ingest", "--dataset", d, "--blocks", "8")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert cid in err
    assert not os.path.exists(os.path.join(d, "ledger.bin"))
    assert not os.path.exists(os.path.join(d, "ingest-meta.json"))
    objects = os.path.join(d, "store", "objects")
    assert [f for _, _, files in os.walk(objects) for f in files] == []


def test_query_on_empty_ledger_exit_1(dataset, capsys):
    open(os.path.join(dataset, "ledger.bin"), "wb").close()
    code, _, err = run(capsys, "query", "--dataset", dataset,
                       "SELECT * FROM entries WHERE timestamp BETWEEN 0 "
                       "AND 9999999999")
    assert code == 1
    assert err.startswith("verification failed: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("query", "SELECT * FROM entries WHERE entry_id = 1"), ("verify",),
], ids=["query", "verify"])
def test_emptied_ledger_exit_1(dataset, capsys, argv):
    # ingest saves at least one block, so an empty ledger.bin beside
    # ingest-meta.json was emptied after ingest
    open(os.path.join(dataset, "ledger.bin"), "wb").close()
    code, out, err = run(capsys, argv[0], "--dataset", dataset, *argv[1:])
    assert code == 1 and out == ""
    assert err.startswith("verification failed: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("query", "SELECT * FROM entries WHERE entry_id = 1"), ("verify",),
], ids=["query", "verify"])
def test_query_and_verify_load_the_ledger_alike(dataset, capsys, argv):
    ledger, meta = (os.path.join(dataset, name)
                    for name in ("ledger.bin", "ingest-meta.json"))
    blob = open(ledger, "rb").read()
    open(ledger, "wb").write(blob[:len(blob) - 7])
    code, _, err = run(capsys, argv[0], "--dataset", dataset, *argv[1:])
    assert code == 1
    assert "verification failed" in err and "Traceback" not in err
    open(ledger, "wb").write(blob)
    for saved in ('{"threshold_t": ', '{"threshold": 10}',
                  '{"threshold_t": "10"}', '{"threshold_t": 0}'):
        open(meta, "w").write(saved)
        code, _, err = run(capsys, argv[0], "--dataset", dataset, *argv[1:])
        assert code == 2
        assert "ingest" in err and "Traceback" not in err
    os.remove(meta)
    code, _, err = run(capsys, argv[0], "--dataset", dataset, *argv[1:])
    assert code == 2
    assert "ingest" in err
