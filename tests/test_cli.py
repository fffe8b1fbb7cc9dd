"""CLI tests: subcommand round trips, output formats, and exit codes."""
import json
import os

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
], ids=["year-11476", "2^64", "delete-unknown"])
def test_query_rejected_statement_exit_2(dataset, capsys, sql):
    code, _, err = run(capsys, "query", "--dataset", dataset, sql)
    assert code == 2
    assert "bad query" in err and "Traceback" not in err


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
