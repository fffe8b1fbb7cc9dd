"""Workload generation and bench harness tests."""
import filecmp
import json
import os
import statistics

import pytest

from chainquery.workload import (WorkloadSpec, _gen_entries, build_queries,
                                 generate, ingest, load_dataset, run_bench)


def spec(**kw):
    base = dict(n_blocks=16, entries_per_block=1, seed=42)
    base.update(kw)
    return WorkloadSpec(**base)


def test_single_entry_spec(tmp_path):
    generate(spec(n_blocks=1), str(tmp_path / "d"))
    records, _ = load_dataset(str(tmp_path / "d"))
    assert len(records) == 1


@pytest.mark.parametrize("bad", [
    dict(n_blocks=0), dict(n_blocks=3), dict(n_blocks=32_768),
    dict(entries_per_block=0), dict(timestamp_density=0.0), dict(seed=-1),
    dict(seed=2 ** 64), dict(query_mix={"time_range": -1}),
    dict(timestamp_density=float("nan")),
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(ValueError):
        spec(**bad)


def test_same_seed_identical_files(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    generate(spec(), a)
    generate(spec(), b)
    for name in ("dataset.jsonl", "queries.jsonl"):
        assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                           shallow=False)
    assert sorted(os.listdir(os.path.join(a, "payloads"))) == \
        sorted(os.listdir(os.path.join(b, "payloads")))


def test_different_seed_different_dataset(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    generate(spec(seed=1), a)
    generate(spec(seed=2), b)
    assert not filecmp.cmp(os.path.join(a, "dataset.jsonl"),
                           os.path.join(b, "dataset.jsonl"), shallow=False)


def median_interarrival(density, n=10_000):
    ts = [r["timestamp"]
          for r, _, _ in _gen_entries(spec(n_blocks=16_384, seed=9,
                                           timestamp_density=density))]
    diffs = [b - a for a, b in zip(ts, ts[1:n])]
    return statistics.median(diffs)


def test_density_halved_doubles_interarrival():
    # [DERIVED] sample-statistics check over 10,000 entries
    m1 = median_interarrival(0.01)
    m2 = median_interarrival(0.005)
    assert abs(m2 / m1 - 2.0) < 0.2


def test_payload_sizes_and_cids(tmp_path):
    d = str(tmp_path / "d")
    generate(spec(n_blocks=64), d)
    records, _ = load_dataset(d)
    sizes = {"imagecid": set(), "videocid": set()}
    for r in records:
        for name, found in sizes.items():
            if r[name] is not None:
                found.add(os.path.getsize(os.path.join(d, "payloads",
                                                       r[name])))
    assert sizes == {"imagecid": {2048}, "videocid": {65536}}


def test_query_mix_counts(tmp_path):
    s = spec(query_mix={"select_simple": 3, "time_range": 5,
                        "fuzzy_time": 2, "fuzzy_address": 1})
    d = str(tmp_path / "d")
    generate(s, d)
    _, queries = load_dataset(d)
    counts = {}
    for primitive, _ in queries:
        counts[primitive] = counts.get(primitive, 0) + 1
    assert counts == {"select_simple": 3, "time_range": 5,
                      "fuzzy_time": 2, "fuzzy_address": 1}


def test_ingest_and_queries_verify(tmp_path):
    d = str(tmp_path / "d")
    generate(spec(n_blocks=32), d)
    engine = ingest(d, 32)
    assert len(engine.entries) == 32
    _, queries = load_dataset(d)
    for _, sql in queries:
        assert engine.execute(sql).verified


def test_ingest_beyond_dataset_rejected(tmp_path):
    d = str(tmp_path / "d")
    generate(spec(n_blocks=8), d)
    with pytest.raises(ValueError):
        ingest(d, 16)


def test_bench_smoke_one_row(tmp_path):
    d = str(tmp_path / "d")
    generate(spec(n_blocks=16), d)
    report = run_bench(spec(n_blocks=16), d, [16])
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.n_blocks == 16
    csv = report.to_csv()
    assert csv.startswith("n_blocks,")
    assert len(csv.strip().splitlines()) == 2


def test_bench_non_timing_columns_deterministic(tmp_path):
    d = str(tmp_path / "d")
    generate(spec(n_blocks=32), d)
    r1 = run_bench(spec(n_blocks=32), d, [16, 32])
    r2 = run_bench(spec(n_blocks=32), d, [16, 32])
    for a, b in zip(r1.rows, r2.rows):
        assert (a.n_blocks, a.vo_bytes, a.gas, a.root_digest) == \
            (b.n_blocks, b.vo_bytes, b.gas, b.root_digest)


def test_bhash_vo_not_larger_than_bplus_only(tmp_path):
    # [DERIVED] paired run at a post-conversion scale
    d = str(tmp_path / "d")
    s = spec(n_blocks=64)
    generate(s, d)
    bhash = run_bench(s, d, [64], threshold_t=10)
    bplus = run_bench(s, d, [64], threshold_t=None)
    assert bhash.rows[0].vo_bytes["time_range"] <= \
        bplus.rows[0].vo_bytes["time_range"]
