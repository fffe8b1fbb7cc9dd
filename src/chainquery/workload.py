"""Deterministic workload generation and the benchmark harness.

`generate` turns a WorkloadSpec into a dataset directory: a jsonl file of
quintuples, a payload directory keyed by content id, and a jsonl file of
query statements.  The same seed always produces byte-identical files.
`run_bench` ingests the dataset at several scales and reports the
deterministic cost model: VO bytes per primitive, gas ticks after ingest
and the time-index root.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

from chainquery.bhash import DEFAULT_THRESHOLD
from chainquery.core import content_id
from chainquery.engine import Engine, timestamp_string
from chainquery.ledger import replace_when_whole
from chainquery.sqlgrammar import InsertQuery
from chainquery.store import ContentStore

IMAGE_BYTES = 2 * 1024
VIDEO_BYTES = 64 * 1024

PRIMITIVES = ("select_simple", "time_range", "fuzzy_time", "fuzzy_address")

# fractions of entries with an image, a video and no payload
PAYLOAD_MIX = (0.25, 0.25, 0.5)

DEFAULT_QUERY_MIX = {"select_simple": 8, "time_range": 8,
                     "fuzzy_time": 8, "fuzzy_address": 8}


@dataclass(frozen=True)
class WorkloadSpec:
    n_blocks: int
    entries_per_block: int = 1
    # events per second; mean inter-arrival is 1 / timestamp_density
    timestamp_density: float = 0.01
    query_mix: dict = field(default_factory=lambda: dict(DEFAULT_QUERY_MIX))
    seed: int = 0

    def __post_init__(self):
        if self.n_blocks < 1 or self.n_blocks & (self.n_blocks - 1):
            raise ValueError("n_blocks must be a power of two")
        if self.n_blocks > 16_384:
            raise ValueError("n_blocks must be at most 16384")
        if self.entries_per_block < 1:
            raise ValueError("entries_per_block must be positive")
        if not self.timestamp_density > 0:  # also NaN
            raise ValueError("timestamp_density must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if any(count < 0 for count in self.query_mix.values()):
            raise ValueError("query_mix counts must not be negative")


BASE_TIMESTAMP = 1_600_000_000
TIMESTAMP_END = 253_402_300_800  # 10000-01-01T00:00:00Z: no date string


def _gen_entries(spec: WorkloadSpec):
    rng = random.Random(spec.seed)
    clock = float(BASE_TIMESTAMP)
    image_cut = PAYLOAD_MIX[0]
    video_cut = image_cut + PAYLOAD_MIX[1]
    total = spec.n_blocks * spec.entries_per_block
    for _ in range(total):
        clock += rng.expovariate(spec.timestamp_density)
        if clock >= TIMESTAMP_END:
            raise ValueError(f"timestamp_density {spec.timestamp_density} "
                             "puts a timestamp after 9999-12-31T23:59:59Z")
        addresses = ["0x" + rng.getrandbits(160).to_bytes(20, "big").hex()
                     for _ in range(rng.randint(1, 3))]
        roll = rng.random()
        image = rng.randbytes(IMAGE_BYTES) if roll < image_cut else None
        video = rng.randbytes(VIDEO_BYTES) \
            if image_cut <= roll < video_cut else None
        yield {
            "amount": rng.randrange(1, 1_000_000),
            "addresses": addresses,
            "timestamp": int(clock),
        }, image, video


def generate(spec: WorkloadSpec, out_dir: str) -> None:
    """Write dataset.jsonl, queries.jsonl, and payloads/ under out_dir.
    A rejected spec leaves the old jsonl files; the payload files written
    before it are named by content id, so they are harmless."""
    payload_dir = os.path.join(out_dir, "payloads")
    os.makedirs(payload_dir, exist_ok=True)  # and out_dir
    records = []
    for record, image, video in _gen_entries(spec):
        for name, payload in (("imagecid", image), ("videocid", video)):
            if payload is None:
                record[name] = None
                continue
            cid = content_id(payload)
            Path(payload_dir, cid.hex()).write_bytes(payload)
            record[name] = cid.hex()
        records.append(record)
    queries = [{"primitive": primitive, "sql": sql}
               for primitive, sql in build_queries(spec, records)]
    with replace_when_whole(os.path.join(out_dir, "dataset.jsonl"),
                            os.path.join(out_dir, "queries.jsonl")) as tmps:
        for tmp, rows in zip(tmps, (records, queries)):
            with open(tmp, "w") as fh:
                fh.writelines(json.dumps(row, sort_keys=True) + "\n"
                              for row in rows)


def build_queries(spec: WorkloadSpec, records: list[dict]) \
        -> list[tuple[str, str]]:
    """Seeded query templates: random sub-intervals of the dataset span
    and random-length truncations of existing keys."""
    rng = random.Random(spec.seed ^ 0x5EED_C0DE)
    timestamps = [r["timestamp"] for r in records]
    lo_ts, hi_ts = min(timestamps), max(timestamps)
    queries: list[tuple[str, str]] = []
    for _ in range(spec.query_mix.get("select_simple", 0)):
        ts = rng.choice(timestamps)
        queries.append(("select_simple",
                        f"SELECT * FROM entries WHERE timestamp = {ts}"))
    for _ in range(spec.query_mix.get("time_range", 0)):
        a, b = sorted((rng.randint(lo_ts, hi_ts), rng.randint(lo_ts, hi_ts)))
        queries.append(("time_range",
                        f"SELECT * FROM entries WHERE timestamp BETWEEN "
                        f"{a} AND {b}"))
    for _ in range(spec.query_mix.get("fuzzy_time", 0)):
        full = timestamp_string(rng.choice(timestamps))
        prefix = full[:rng.randint(1, len(full))]
        queries.append(("fuzzy_time",
                        f"SELECT * FROM entries WHERE ts_str LIKE "
                        f"'{prefix}%'"))
    for _ in range(spec.query_mix.get("fuzzy_address", 0)):
        addr = rng.choice(rng.choice(records)["addresses"])
        prefix = addr[:rng.randint(3, len(addr))]
        queries.append(("fuzzy_address",
                        f"SELECT * FROM entries WHERE address LIKE "
                        f"'{prefix}%'"))
    return queries


def load_dataset(out_dir: str) -> tuple[list[dict], list[tuple[str, str]]]:
    with open(os.path.join(out_dir, "dataset.jsonl")) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    queries = []
    path = os.path.join(out_dir, "queries.jsonl")
    if os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                obj = json.loads(line)
                queries.append((obj["primitive"], obj["sql"]))
    return records, queries


def _record_to_insert(record: dict, payload_dir: str) -> InsertQuery:
    payloads = [None if cid is None else Path(payload_dir, cid).read_bytes()
                for cid in (record.get("imagecid"), record.get("videocid"))]
    return InsertQuery(record["amount"], tuple(record["addresses"]),
                       record["timestamp"], *payloads)


def ingest(out_dir: str, n_blocks: int, entries_per_block: int = 1,
           threshold_t=DEFAULT_THRESHOLD,
           store: ContentStore = None) -> Engine:
    """Build a fresh engine from the first n_blocks blocks of a generated
    dataset.  ValueError, before anything is stored, for a count below 1,
    too few entries or a missing payload file."""
    if n_blocks < 1 or entries_per_block < 1:
        raise ValueError(f"need at least 1 block of at least 1 entry, got "
                         f"{n_blocks} blocks of {entries_per_block}")
    records, _ = load_dataset(out_dir)
    payload_dir = os.path.join(out_dir, "payloads")
    needed = n_blocks * entries_per_block
    if needed > len(records):
        raise ValueError(f"dataset holds {len(records)} entries, "
                         f"need {needed}")
    for record in records[:needed]:
        for name in ("imagecid", "videocid"):
            cid = record.get(name)
            if cid is not None and not os.path.isfile(
                    os.path.join(payload_dir, cid)):
                raise ValueError(f"no payload file for {name} {cid} in "
                                 f"{payload_dir}")
    engine = Engine(store=store, threshold_t=threshold_t)
    for i in range(0, needed, entries_per_block):
        batch = [_record_to_insert(r, payload_dir)
                 for r in records[i:i + entries_per_block]]
        engine.insert_batch(batch)
    return engine


@dataclass
class BenchRow:
    n_blocks: int
    vo_bytes: dict          # primitive -> total VO bytes over the mix
    gas: dict               # "writes"/"reads"/"compute" ticks after ingest
    root_digest: str        # hex of the final time-index root


@dataclass
class BenchReport:
    rows: list[BenchRow]

    CSV_HEADER = ("n_blocks," +
                  ",".join(f"vo_bytes_{p}" for p in PRIMITIVES) +
                  ",gas_writes,gas_reads,gas_compute,root_digest")

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            cells = [str(r.n_blocks)]
            cells += [str(r.vo_bytes.get(p, 0)) for p in PRIMITIVES]
            cells += [str(r.gas["writes"]), str(r.gas["reads"]),
                      str(r.gas["compute"]), r.root_digest]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def run_bench(spec: WorkloadSpec, out_dir: str, scales: list[int],
              threshold_t=DEFAULT_THRESHOLD) -> BenchReport:
    """Ingest at each scale and run the query mix once.  Every figure is
    deterministic; query time is measured by perfbench/, not here."""
    _, queries = load_dataset(out_dir)
    rows = []
    for scale in sorted(scales):
        engine = ingest(out_dir, scale, spec.entries_per_block,
                        threshold_t=threshold_t)
        gas = {"writes": engine.meter.storage_writes,
               "reads": engine.meter.storage_reads,
               "compute": engine.meter.compute_units}
        vo_bytes = {p: 0 for p in PRIMITIVES}
        for primitive, sql in queries:
            if primitive not in vo_bytes:
                continue
            engine.cache.invalidate()  # a repeated statement still emits a VO
            res = engine.execute(sql, emit_vo=True)
            assert res.verified
            vo_bytes[primitive] += len(res.vo_bytes or b"")
        rows.append(BenchRow(
            n_blocks=scale, vo_bytes=vo_bytes, gas=gas,
            root_digest=engine.time_index.root_digest().hex()))
    return BenchReport(rows)
