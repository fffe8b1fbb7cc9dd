"""Seeded inputs, the oracle model and the timed passes of the benchmark.

One client drives the public `Engine` API in a closed loop: each statement
is sent after the previous one returned.  A run repeats identical passes
(same seed, same statements in the same order, a freshly built engine each
time), so every count a pass makes repeats exactly for a seed, and the i-th
statement of every pass is the same statement on the same engine state.

Each read is `execute(sql, emit_vo=True)` followed, inside the timed region,
by the check a light client makes: `verify_range_bytes` or
`verify_prefix_bytes` of the serialized VO against `ledger.latest_roots()`.
The client passes the id list the benchmark's model expects, live and dead
alike, because the indexes keep ids of deleted and superseded entries.
Outside the timed region every read's rows are compared with the model, and
after each pass the ledger's chain, its latest anchors and its entries are
checked against the engine and the model.
"""
from __future__ import annotations

import bisect
import contextlib
import datetime
import gc
import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from time import perf_counter_ns

from chainquery import bhash, trie
from chainquery.engine import Engine
from chainquery.sqlgrammar import parse

IMAGE_BYTES = 2 * 1024
VIDEO_BYTES = 64 * 1024
# a quarter of the entries carry a 2 KiB image, a quarter a 64 KiB video
PAYLOAD_DECK = (None, None, "image", "video")
BASE_TS = 1_600_000_000
MEAN_GAP_S = 100
# BETWEEN spans are log-uniform in [0, MAX_SPAN_S) seconds: from empty up to
# a few hundred rows at one entry per MEAN_GAP_S.
MAX_SPAN_S = 30_000
READ_KINDS = ("between", "ts_eq", "ts_like", "addr_like", "id_eq")
WRITE_SHARE = 0.10
# Zipf exponent of the hot-pool draw: YCSB's default for its skewed request
# distribution (Cooper et al., "Benchmarking Cloud Serving Systems with
# YCSB", SoCC 2010).
ZIPF_S = 0.99
# The hot pool's size and the 40/30/30 INSERT/UPDATE/DELETE split of mixed's
# writes are assumptions of this benchmark, not taken from a published
# workload.
HOT_POOL = 32
WRITE_SPLIT = (0.4, 0.7)    # cumulative: INSERT below 0.4, UPDATE below 0.7
# ingest's set-up (Engine() plus one genesis block) takes about 0.1 s, so
# each pass times it this often and setup_s is a median of many.
GENESIS_BUILDS = 5
HEX = "0123456789abcdef"
NS_TIMESTAMP, NS_ADDRESS = ":", "-"

WRITES = ("insert", "update", "delete")
TIME_READS = ("between", "ts_eq")
PREFIX_READS = ("ts_like", "addr_like")


@dataclass(frozen=True)
class Sizes:
    """Work per pass; fixed, so that a pass's counts depend on the seed
    alone."""
    ingest_entries: int = 2048
    base_entries: int = 2048
    base_block: int = 64
    read_ops: int = 8000
    mixed_ops: int = 4000


@dataclass(frozen=True)
class Entry:
    amount: int
    addresses: tuple[str, ...]
    timestamp: int
    image: bytes | None
    video: bytes | None


def ts_string(ts: int) -> str:
    return datetime.datetime.fromtimestamp(
        ts, tz=datetime.timezone.utc).strftime("%Y-%m-%d-%H:%M:%S")


def gen_entry(rng: random.Random, timestamp: int,
              payload: str | None) -> Entry:
    addresses = tuple("0x" + rng.getrandbits(160).to_bytes(20, "big").hex()
                      for _ in range(rng.randint(1, 3)))
    image = rng.randbytes(IMAGE_BYTES) if payload == "image" else None
    video = rng.randbytes(VIDEO_BYTES) if payload == "video" else None
    return Entry(rng.randrange(1, 1_000_000), addresses, timestamp, image,
                 video)


def gen_entries(seed: int, n: int):
    """The base data stream: n entries with rising timestamps.  Payloads
    are dealt from shuffled decks of PAYLOAD_DECK, so each group of four
    consecutive entries holds exactly one image and one video."""
    rng = random.Random(f"{seed}/entries")
    clock = float(BASE_TS)
    deck: list[str | None] = []
    for _ in range(n):
        if not deck:
            deck = list(PAYLOAD_DECK)
            rng.shuffle(deck)
        clock += rng.expovariate(1 / MEAN_GAP_S)
        yield gen_entry(rng, int(clock), deck.pop())


def insert_sql(e: Entry) -> str:
    cols = ["amount", "addresses", "timestamp"]
    vals = [str(e.amount), "'" + ",".join(e.addresses) + "'",
            str(e.timestamp)]
    for col, payload in (("image", e.image), ("video", e.video)):
        if payload is not None:
            cols.append(col)
            vals.append("'" + payload.hex() + "'")
    return (f"INSERT INTO entries ({', '.join(cols)}) "
            f"VALUES ({', '.join(vals)})")


def _cid(payload: bytes | None) -> str | None:
    return hashlib.sha256(payload).hexdigest() if payload is not None else None


class Model:
    """The benchmark's oracle: every entry ever indexed, which of them are
    live, and the keys both indexes hold for them.  UPDATE gives the new
    version the next entry id; neither DELETE nor UPDATE removes index
    keys."""

    def __init__(self):
        self.rows: dict[int, dict] = {}      # every entry, engine row format
        self.live: list[int] = []            # live ids, for sampling
        self._live_pos: dict[int, int] = {}
        self.by_time: list[tuple[int, int]] = []  # (timestamp, id), sorted
        self.keys: list[tuple[str, int]] = []     # (trie key, id), sorted
        self.next_id = 0

    def _add(self, amount, addresses, timestamp, imagecid, videocid) -> int:
        eid = self.next_id
        self.next_id += 1
        self.rows[eid] = {"entry_id": eid, "amount": amount,
                          "addresses": list(addresses),
                          "timestamp": timestamp, "imagecid": imagecid,
                          "videocid": videocid}
        self._live_pos[eid] = len(self.live)
        self.live.append(eid)
        bisect.insort(self.by_time, (timestamp, eid))
        bisect.insort(self.keys, (NS_TIMESTAMP + ts_string(timestamp), eid))
        for addr in addresses:
            bisect.insort(self.keys, (NS_ADDRESS + addr[2:], eid))
        return eid

    def _kill(self, eid: int) -> dict:
        pos = self._live_pos.pop(eid)
        last = self.live.pop()
        if last != eid:
            self.live[pos] = last
            self._live_pos[last] = pos
        return self.rows[eid]

    def insert(self, e: Entry) -> int:
        return self._add(e.amount, e.addresses, e.timestamp, _cid(e.image),
                         _cid(e.video))

    def update(self, eid: int, amount: int, timestamp: int | None) -> int:
        old = self._kill(eid)
        return self._add(amount, old["addresses"],
                         old["timestamp"] if timestamp is None else timestamp,
                         old["imagecid"], old["videocid"])

    def delete(self, eid: int) -> None:
        self._kill(eid)

    def is_live(self, eid: int) -> bool:
        return eid in self._live_pos

    def range_ids(self, a: int, b: int) -> list[int]:
        i = bisect.bisect_left(self.by_time, (a, -1))
        j = bisect.bisect_right(self.by_time, (b, math.inf))
        return [eid for _, eid in self.by_time[i:j]]

    def prefix_ids(self, key: str) -> list[int]:
        i = bisect.bisect_left(self.keys, (key,))
        j = bisect.bisect_left(self.keys, (key + "\x7f",))
        return sorted({eid for _, eid in self.keys[i:j]})

    def live_rows(self, ids) -> list[dict]:
        return [self.rows[eid] for eid in sorted(set(ids))
                if self.is_live(eid)]


# --- statements -------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    kind: str
    sql: str
    # (start, end) | trie key | entry id | Entry | (id, amount, timestamp)
    arg: object = None


class ReadGen:
    """Distinct read statements in equal shares of READ_KINDS, drawn
    against the model's current contents."""

    def __init__(self, rng: random.Random, model: Model):
        self.rng = rng
        self.model = model
        self.seen: set[str] = set()
        self._turn = 0
        self._order = list(READ_KINDS)

    def next(self) -> Op:
        if self._turn % len(READ_KINDS) == 0:
            self.rng.shuffle(self._order)
        kind = self._order[self._turn % len(READ_KINDS)]
        self._turn += 1
        for _ in range(100):
            op = getattr(self, "_" + kind)()
            if op.sql not in self.seen:
                self.seen.add(op.sql)
                return op
        raise RuntimeError(f"cannot draw a new distinct {kind} read")

    def _time_span(self) -> tuple[int, int]:
        by_time = self.model.by_time
        return by_time[0][0], by_time[-1][0]

    def _between(self) -> Op:
        lo, hi = self._time_span()
        span = int(math.exp(self.rng.uniform(0, math.log(MAX_SPAN_S)))) - 1
        a = self.rng.randint(lo - MEAN_GAP_S, hi)
        return Op("between", "SELECT * FROM entries WHERE timestamp "
                  f"BETWEEN {a} AND {a + span}", (a, a + span))

    def _ts_eq(self) -> Op:
        if self.rng.random() < 0.8:
            ts = self.rng.choice(self.model.by_time)[0]
        else:
            ts = self.rng.randint(*self._time_span())
        return Op("ts_eq", f"SELECT * FROM entries WHERE timestamp = {ts}",
                  (ts, ts))

    def _ts_like(self) -> Op:
        full = ts_string(self.rng.choice(self.model.by_time)[0])
        prefix = full[:self.rng.randint(12, len(full))]
        if self.rng.random() < 0.25:
            # a prefix that diverges from every stored key
            for _ in range(20):
                pos = self.rng.randrange(5, len(prefix))
                cand = (prefix[:pos] + self.rng.choice("0123456789")
                        + prefix[pos + 1:])
                if not self.model.prefix_ids(NS_TIMESTAMP + cand):
                    prefix = cand
                    break
        return Op("ts_like", "SELECT * FROM entries WHERE ts_str LIKE "
                  f"'{prefix}%'", NS_TIMESTAMP + prefix)

    def _addr_like(self) -> Op:
        if self.rng.random() < 0.75:
            addr = self.rng.choice(
                self.model.rows[self.rng.choice(self.model.live)]["addresses"])
            body = addr[2:2 + self.rng.randint(2, 10)]
        else:
            body = "".join(self.rng.choice(HEX)
                           for _ in range(self.rng.randint(3, 8)))
        return Op("addr_like", "SELECT * FROM entries WHERE address LIKE "
                  f"'0x{body}%'", NS_ADDRESS + body)

    def _id_eq(self) -> Op:
        if self.rng.random() < 0.9:
            eid = self.rng.randrange(self.model.next_id)
        else:
            eid = self.model.next_id + self.rng.randrange(1000)
        return Op("id_eq", f"SELECT * FROM entries WHERE entry_id = {eid}",
                  eid)


class MixedGen:
    """About 90% reads from a small hot pool of HOT_POOL statements, picked
    with a Zipf skew, so repeats hit the query cache between writes; and
    10% writes: late INSERTs inside the stored time span, UPDATEs and
    DELETEs.

    The few hottest statements make most of the cache misses, and a read's
    cost spans three orders of magnitude (an empty range to hundreds of
    rows).  So the pool is drawn by one fixed generator, not the seed's:
    every seed's base data spans about the same times, so each rank is
    nearly the same statement in every run, and runs with different seeds
    do comparable work.  The seed decides the base data, the order of the
    reads and the writes."""

    def __init__(self, rng: random.Random, model: Model):
        self.rng = rng
        self.model = model
        reads = ReadGen(random.Random("hot-pool"), model)
        self.pool = [reads.next() for _ in range(HOT_POOL)]
        weights = [1 / (rank + 1) ** ZIPF_S for rank in range(HOT_POOL)]
        self.cum = list(itertools.accumulate(weights))

    def next(self) -> Op:
        rng, model = self.rng, self.model
        if rng.random() >= WRITE_SHARE:
            return rng.choices(self.pool, cum_weights=self.cum)[0]
        lo, hi = model.by_time[0][0], model.by_time[-1][0]
        roll = rng.random()
        if roll < WRITE_SPLIT[0]:
            e = gen_entry(rng, rng.randint(lo, hi),
                          rng.choice(PAYLOAD_DECK))
            return Op("insert", insert_sql(e), e)
        eid = rng.choice(model.live)
        if roll < WRITE_SPLIT[1]:
            amount = rng.randrange(1, 1_000_000)
            ts = rng.randint(lo, hi) if rng.random() < 0.5 else None
            sets = f"amount = {amount}" + (
                f", timestamp = {ts}" if ts is not None else "")
            return Op("update", f"UPDATE entries SET {sets} "
                      f"WHERE entry_id = {eid}", (eid, amount, ts))
        return Op("delete", f"DELETE FROM entries WHERE entry_id = {eid}",
                  eid)


# --- passes -----------------------------------------------------------------

@dataclass
class PassResult:
    setup_ns: list[int] = field(default_factory=list)
    # kind and latency of each timed statement, in the order sent
    op_kinds: list[str] = field(default_factory=list)
    op_ns: list[int] = field(default_factory=list)
    vo_bytes: list[int] = field(default_factory=list)
    read_rows: int = 0
    reads_without_vo: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    gas: tuple[int, int, int] = (0, 0, 0)
    cache_hits: int = 0
    cache_misses: int = 0
    engine: Engine | None = None
    model: Model | None = None

    @property
    def ops(self) -> int:
        return len(self.op_ns)

    @property
    def busy_ns(self) -> int:
        """Summed latency of the timed statements."""
        return sum(self.op_ns)

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(msg)


def build_base(entries, n: int, sizes: Sizes,
               res: PassResult) -> tuple[Engine, Model]:
    """Fresh engine plus the first n entries, ingested in multi-entry
    blocks; records the engine's share of the time (Engine(), parse and
    insert_batch) in res.setup_ns."""
    model = Model()
    t0 = perf_counter_ns()
    engine = Engine()
    spent = perf_counter_ns() - t0
    for _ in range(0, n, sizes.base_block):
        block = list(itertools.islice(entries, sizes.base_block))
        sqls = [insert_sql(e) for e in block]
        t0 = perf_counter_ns()
        engine.insert_batch([parse(s) for s in sqls])
        spent += perf_counter_ns() - t0
        for e in block:
            model.insert(e)
    res.setup_ns.append(spent)
    return engine, model


def run_pass(workload: str, seed: int, sizes: Sizes,
             tracer=None) -> PassResult:
    """One pass: set-up, then the workload's fixed statement stream, then
    the post-pass checks.  With a tracer, only the statements are traced."""
    res = PassResult()
    if workload == "ingest":
        for _ in range(GENESIS_BUILDS):
            engine = model = None
            entries = gen_entries(seed, sizes.base_block
                                  + sizes.ingest_entries)
            engine, model = build_base(entries, sizes.base_block, sizes, res)
        ops = (Op("insert", insert_sql(e), e) for e in entries)
    elif workload == "read":
        engine, model = build_base(
            gen_entries(seed, sizes.base_entries), sizes.base_entries, sizes,
            res)
        gen = ReadGen(random.Random(f"{seed}/read"), model)
        ops = (gen.next() for _ in range(sizes.read_ops))
    elif workload == "mixed":
        engine, model = build_base(
            gen_entries(seed, sizes.base_entries), sizes.base_entries, sizes,
            res)
        gen = MixedGen(random.Random(f"{seed}/mixed"), model)
        ops = (gen.next() for _ in range(sizes.mixed_ops))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    res.engine, res.model = engine, model
    gc.collect()
    gas0 = engine.meter.snapshot()
    hits0, misses0 = engine.cache.hits, engine.cache.misses
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            _run_op(engine, model, op, res, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    gas1 = engine.meter.snapshot()
    res.gas = tuple(b - a for a, b in zip(gas0, gas1))
    res.cache_hits = engine.cache.hits - hits0
    res.cache_misses = engine.cache.misses - misses0
    _check_pass(engine, model, res)
    return res


def _run_op(engine: Engine, model: Model, op: Op, res: PassResult,
            tracer) -> None:
    res.attempted += 1
    kind = op.kind
    expect_ids = None
    if kind in TIME_READS:
        expect_ids = model.range_ids(*op.arg)
    elif kind in PREFIX_READS:
        expect_ids = model.prefix_ids(op.arg)
    span = tracer.span("client." + kind) if tracer is not None \
        else contextlib.nullcontext()
    result, error = None, None
    t0 = perf_counter_ns()
    try:
        with span:
            result = engine.execute(op.sql, emit_vo=True)
            ok = _client_check(engine, op, result.vo_bytes, expect_ids)
    except Exception as exc:  # a failed operation is counted, not fatal
        error = exc
    res.op_ns.append(perf_counter_ns() - t0)
    res.op_kinds.append(kind)
    if error is not None:
        res.fail(f"{kind}: {type(error).__name__}: {error}")
        return
    if not ok:
        res.fail(f"{kind}: client check rejected the VO of {op.sql[:80]}")
        return
    if kind in WRITES:
        if result.affected != 1:
            res.fail(f"{kind}: affected {result.affected}")
        if kind == "insert":
            model.insert(op.arg)
        elif kind == "update":
            model.update(*op.arg)
        else:
            model.delete(op.arg)
        return
    if result.vo_bytes is None:
        res.reads_without_vo += 1
        if not result.cached and kind != "id_eq":
            res.fail(f"{kind}: uncached read returned no VO")
            return
    else:
        res.vo_bytes.append(len(result.vo_bytes))
    res.read_rows += len(result.rows)
    if kind == "id_eq":
        expected = model.live_rows([op.arg] if op.arg in model.rows else [])
    else:
        expected = model.live_rows(expect_ids)
    if result.rows != expected:
        res.fail(f"{kind}: rows differ from the model for {op.sql[:80]}")


def _client_check(engine: Engine, op: Op, vo: bytes | None,
                  expect_ids) -> bool:
    """The light client's check of a serialized VO against the anchors."""
    if vo is None:
        return True
    bhash_root, trie_root = engine.ledger.latest_roots()
    if op.kind in TIME_READS:
        return bhash.verify_range_bytes(vo, bhash_root, *op.arg, expect_ids)
    return trie.verify_prefix_bytes(vo, trie_root, op.arg, expect_ids)


def _check_pass(engine: Engine, model: Model, res: PassResult) -> None:
    """Chain, anchors and ledger contents after the timed statements."""
    checks = {
        "ledger chain": engine.ledger.verify_chain(),
        "latest anchors": engine.ledger.latest_roots() == (
            engine.time_index.root_digest(), engine.trie.root_digest()),
        "ledger entries": _ledger_matches(engine, model),
    }
    for name, ok in checks.items():
        res.attempted += 1
        if not ok:
            res.fail(f"post-pass check failed: {name}")


def _ledger_matches(engine: Engine, model: Model) -> bool:
    seen = 0
    for block in engine.ledger.blocks:
        for e in block.entries:
            row = model.rows.get(e.entry_id)
            if row is None or (
                    row["amount"], tuple(row["addresses"]), row["timestamp"],
                    row["imagecid"], row["videocid"]) != (
                    e.amount, e.addresses, e.timestamp,
                    e.image_cid.hex() if e.image_cid else None,
                    e.video_cid.hex() if e.video_cid else None):
                return False
            seen += 1
    return seen == len(model.rows)
