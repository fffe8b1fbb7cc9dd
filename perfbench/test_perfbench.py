"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run

run._import_program()
import layertrace  # noqa: E402
import workloads as wl  # noqa: E402
from chainquery import bhash, trie  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = wl.Sizes(ingest_entries=48, base_entries=96, base_block=16,
                read_ops=60, mixed_ops=120)
# figures each workload reports beside the result line's metrics
REPORTED = {
    "ingest": ("write_p50_ms", "write_p95_ms"),
    "read": ("read_p50_ms", "read_p95_ms", "time_read_p50_ms",
             "time_read_p95_ms", "prefix_read_p50_ms", "prefix_read_p95_ms",
             "vo_bytes_per_read"),
    "mixed": ("write_p50_ms", "write_p95_ms", "read_p50_ms", "read_p95_ms",
              "time_read_p50_ms", "time_read_p95_ms", "prefix_read_p50_ms",
              "prefix_read_p95_ms", "vo_bytes_per_read"),
}
DETERMINISTIC = ("engine.vo_bytes_per_read", "core.digest.calls.",
                 "gas.", "kernels.merkle_level.hashes")


def _run(workload, seed=1, trace=0):
    args = SimpleNamespace(workload=workload, seed=seed, seconds=0.01,
                           trace=trace)
    return run.run_one(args, sizes=TINY)


def _flip(data: bytes) -> bytes:
    mid = len(data) // 2
    return data[:mid] + bytes([data[mid] ^ 1]) + data[mid + 1:]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload, capsys):
    record = _run(workload)
    run.print_record(record)
    out = capsys.readouterr().out
    result = record["result"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert f"{workload} {m['name']} " in out
    for name in REPORTED[workload] + ("fail_frac",):
        assert f"{workload} {name} " in out
    assert "kernel_backend=" in out and "nproc=" in out


def _deterministic(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if k.startswith(DETERMINISTIC)}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    first = _run(workload, seed=1, trace=1)["result"]
    again = _run(workload, seed=1, trace=1)["result"]
    other = _run(workload, seed=2, trace=1)["result"]
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert first["metrics"][m["name"]]["unit"] == m["unit"]
    counts = _deterministic(first["metrics"])
    assert counts == _deterministic(again["metrics"])
    assert counts != _deterministic(other["metrics"])


def test_read_phase_makes_no_writes():
    metrics = _run("read", trace=1)["result"]["metrics"]
    for name in ("bhash.insert.calls", "trie.insert.calls",
                 "ledger.append_block.calls", "store.put.calls"):
        assert metrics[name]["value"] == 0
    assert metrics["bhash.verify_range_bytes.calls"]["value"] > 0
    assert metrics["trie.verify_prefix_bytes.calls"]["value"] > 0
    assert metrics["cache.hit_ratio"]["value"] == 0


def test_mixed_hits_the_cache():
    metrics = _run("mixed", trace=1)["result"]["metrics"]
    assert metrics["cache.hit_ratio"]["value"] > 0


def _flip_vo_bytes(monkeypatch):
    """The client receives a VO with one byte flipped."""
    for mod, name in ((bhash, "verify_range_bytes"),
                      (trie, "verify_prefix_bytes")):
        check = getattr(mod, name)
        monkeypatch.setattr(mod, name,
                            lambda vo, *a, check=check: check(_flip(vo), *a))


def _flip_stored_payloads(monkeypatch):
    """Every stored payload has one byte flipped after set-up, as a disk
    fault would (the in-memory store's dict is private)."""
    build_base = wl.build_base

    def corrupted(*args):
        engine, model = build_base(*args)
        mem = engine.store._mem
        for cid, payload in mem.items():
            mem[cid] = _flip(payload)
        return engine, model
    monkeypatch.setattr(wl, "build_base", corrupted)


def _forge_last_anchor(monkeypatch):
    """The last block's anchored bhash root is altered before the checks."""
    check_pass = wl._check_pass

    def forged(engine, model, res):
        last = engine.ledger.blocks[-1]
        engine.ledger.blocks[-1] = dataclasses.replace(
            last, bhash_root=_flip(last.bhash_root))
        check_pass(engine, model, res)
    monkeypatch.setattr(wl, "_check_pass", forged)


@pytest.mark.parametrize("workload,fault", [
    ("read", _flip_vo_bytes), ("mixed", _flip_vo_bytes),
    ("read", _flip_stored_payloads), ("mixed", _flip_stored_payloads),
    ("ingest", _forge_last_anchor), ("read", _forge_last_anchor),
])
def test_injected_fault_counts_as_failure(workload, fault, monkeypatch):
    fault(monkeypatch)
    result = _run(workload)["result"]
    assert result["failed"] > 0 and not result["correct"]


def test_compiled_kernels_are_traced(monkeypatch):
    """The compiled kernels are builtins; they must be wrapped too."""
    import chainquery._kernels as kernels
    monkeypatch.setattr(kernels, "range_bounds", max)
    found = {name: orig for name, _, _, orig
             in layertrace._public_functions("kernels")}
    assert found["kernels.range_bounds"] is max


def test_spans_nest():
    _run("read", trace=1)
    spans = layertrace.load_spans(str(run.OUT / "read-seed1-trace1"))
    assert spans
    for i, (name, start, end, parent, root) in enumerate(spans):
        assert start <= end
        if parent < 0:
            assert root == i and name.startswith("client.")
        else:
            assert parent < i and spans[parent][1] <= start
            assert end <= spans[parent][2] and spans[root][3] == -1


def test_untraced_run_does_not_load_the_tracer():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import run;"
        " run._import_program(); import workloads as wl;"
        " from types import SimpleNamespace as N;"
        " run.run_one(N(workload='read', seed=1, seconds=0, trace=0),"
        " sizes=wl.Sizes(base_entries=16, base_block=8, read_ops=10));"
        " assert 'layertrace' not in sys.modules, 'tracer loaded'")
    subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, check=True)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not Path(tmp_path / "perfbench" / "out").exists()
