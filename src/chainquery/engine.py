"""Query middleware: planning and verified execution of the six primitives.

The engine owns a ledger, a time index (BHashTree), a prefix index (Trie),
a content-addressed payload store, and a bloom-filter query cache.  Writes
insert into both indexes, store payloads, anchor the new roots in a block
(entries + operation records), and empty the cache.  Reads probe the
cache, query the index, verify the proof against the latest anchored
root, drop deleted or superseded entries, re-hash the payloads of the
rest and cache those entries; a hit skips all of that.  Every read builds
fresh row dicts from the entries.
"""
from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Optional

from chainquery.bhash import DEFAULT_THRESHOLD, BHashTree, verify_range
from chainquery.cache import QueryCache
from chainquery.core import DataEntry
from chainquery.gas import GasMeter
from chainquery.ledger import (Ledger, OP_DELETE, OP_INSERT, OP_UPDATE)
from chainquery.sqlgrammar import (DeleteQuery, InsertQuery, QueryAst,
                                   SelectFuzzy, SelectSimple, SelectTimeRange,
                                   UpdateQuery, parse)
from chainquery.store import ContentStore
from chainquery.trie import Trie, verify_prefix

# Planner cost constants (abstract units).
COST_CACHE_PROBE = 1
COST_INDEX_LOOKUP = 50
COST_OFFCHAIN_FETCH = 500
COST_MERGE = 5
COST_LEDGER_APPEND = 100

# Trie namespace prefixes; both are alphabet characters that cannot start
# a key in the other namespace.
NS_TIMESTAMP = ":"
NS_ADDRESS = "-"

TS_FORMAT = "%Y-%m-%d-%H:%M:%S"


class UnknownEntry(KeyError):
    pass


class VerificationFailure(RuntimeError):
    pass


class MalformedBlock(ValueError):
    """A block's operation records do not match its entries."""


def timestamp_string(ts: int) -> str:
    dt = datetime.datetime.fromtimestamp(ts, tz=datetime.timezone.utc)
    return dt.strftime(TS_FORMAT)


def _rows(entries) -> list[dict]:
    """A new row dict per entry, so no caller's edit reaches another."""
    return [{
        "entry_id": e.entry_id,
        "amount": e.amount,
        "addresses": list(e.addresses),
        "timestamp": e.timestamp,
        "imagecid": e.image_cid.hex() if e.image_cid else None,
        "videocid": e.video_cid.hex() if e.video_cid else None,
    } for e in entries]


@dataclass(frozen=True)
class Plan:
    steps: tuple[str, ...]
    est_cost: int


@dataclass
class QueryResult:
    rows: list[dict]
    plan: Plan
    verified: bool = False
    cached: bool = False
    vo_bytes: Optional[bytes] = None
    affected: int = 0


def plan_query(ast: QueryAst) -> Plan:
    if isinstance(ast, (InsertQuery, DeleteQuery, UpdateQuery)):
        # in the order Engine._commit runs them
        steps = ["index-insert"]
        if isinstance(ast, InsertQuery):
            steps.append("store-payloads")
        steps += ["anchor-roots", "ledger-append", "cache-invalidate"]
        cost = COST_LEDGER_APPEND + 2 * COST_INDEX_LOOKUP
        if isinstance(ast, InsertQuery):
            cost += COST_OFFCHAIN_FETCH
        return Plan(tuple(steps), cost)
    if isinstance(ast, SelectSimple) and ast.entry_id is not None:
        return Plan(("cache-probe", "ledger-lookup", "payload-fetch",
                     "merge"),
                    COST_CACHE_PROBE + COST_INDEX_LOOKUP
                    + COST_OFFCHAIN_FETCH + COST_MERGE)
    if isinstance(ast, (SelectSimple, SelectTimeRange)):
        return Plan(("cache-probe", "time-index-query", "verify-vo",
                     "payload-fetch", "merge"),
                    COST_CACHE_PROBE + COST_INDEX_LOOKUP
                    + COST_OFFCHAIN_FETCH + COST_MERGE)
    if isinstance(ast, SelectFuzzy):
        return Plan(("cache-probe", "trie-query", "verify-vo",
                     "payload-fetch", "merge"),
                    COST_CACHE_PROBE + COST_INDEX_LOOKUP
                    + COST_OFFCHAIN_FETCH + COST_MERGE)
    raise TypeError(f"unplannable ast {ast!r}")


class Engine:
    def __init__(self, store: Optional[ContentStore] = None,
                 threshold_t: Optional[int] = DEFAULT_THRESHOLD,
                 meter: GasMeter = None):
        self.meter = meter or GasMeter()
        self.ledger = Ledger()
        self.time_index = BHashTree(threshold_t=threshold_t,
                                    meter=self.meter)
        self.trie = Trie(meter=self.meter)
        # not `store or ...`: an empty ContentStore is falsy via __len__
        self.store = store if store is not None else ContentStore()
        self.cache = QueryCache()
        # ids a DELETE or UPDATE ended; the ledger's ops say which
        self.retired: set[int] = set()
        self.entries: dict[int, DataEntry] = {}

    # -- state helpers -------------------------------------------------

    def is_live(self, entry_id: int) -> bool:
        return entry_id in self.entries and entry_id not in self.retired

    @property
    def _next_id(self) -> int:
        """Id of the next new entry: ids are dense from 0, so the count of
        committed entries."""
        return len(self.entries)

    # -- writes --------------------------------------------------------

    def _trie_keys(self, entries) -> list[tuple[str, int]]:
        """The entries' trie keys; MalformedBlock for a timestamp with no
        date string (after year 9999 or beyond the platform's range)."""
        keys = []
        for e in entries:
            try:
                keys.append((NS_TIMESTAMP + timestamp_string(e.timestamp),
                             e.entry_id))
            except (ValueError, OverflowError, OSError) as exc:
                raise MalformedBlock(f"entry {e.entry_id}: timestamp "
                                     f"{e.timestamp} has no date string "
                                     f"({exc})") from None
            keys.extend((NS_ADDRESS + a[2:], e.entry_id) for a in e.addresses)
        return keys

    def _commit(self, entries, ops, payloads) -> None:
        """Apply one block: check its operation records against its
        entries and the live state, then index the entries, store their
        payloads ((cid, bytes) pairs), take the new roots, append the block
        with them and invalidate the cache, the steps `plan_query` lists.
        Live writes and replay both come here, so a replayed block meets
        the same rules.

        In op order, each INSERT names the next entry of the block, each
        UPDATE takes the next entry as its replacement, and DELETE and
        UPDATE targets must be live.  Raises UnknownEntry or MalformedBlock
        before changing any state."""
        keys = self._trie_keys(entries)
        n_named = 0
        ended = set()
        for kind, target in ops:
            if kind == OP_INSERT:
                if (n_named == len(entries)
                        or entries[n_named].entry_id != target):
                    raise MalformedBlock(
                        f"INSERT of entry {target} does not name the "
                        "block's next entry")
                n_named += 1
            elif kind in (OP_DELETE, OP_UPDATE):
                if target in ended:
                    raise UnknownEntry(target)
                self._require_live(target)
                ended.add(target)
                n_named += kind == OP_UPDATE
            else:
                raise MalformedBlock(f"unknown op kind {kind}")
        if n_named != len(entries):
            raise MalformedBlock(f"{len(entries)} entries but {n_named} "
                                 "INSERT and UPDATE ops")
        # the trie checks every key before it changes, so it goes first;
        # the time index cannot reject a checked entry, and payloads are
        # stored once nothing can reject the block
        self.trie.insert_many(keys)
        for entry in entries:
            self.entries[entry.entry_id] = entry
            self.time_index.insert(entry.entry_id, entry.timestamp)
        self.retired |= ended
        for cid, payload in payloads:
            self.store.put(payload, cid)
        roots = (self.time_index.root_digest(), self.trie.root_digest())
        self.ledger.append_block(entries, roots, ops=ops)
        self.cache.invalidate()

    def insert_batch(self, inserts: list[InsertQuery]) -> list[int]:
        """Apply several inserts as a single ledger block. Returns the
        assigned entry ids."""
        entries, payloads = [], []
        for eid, ins in enumerate(inserts, self._next_id):
            raw = (ins.image_payload, ins.video_payload)
            cids = [None if p is None else self.store.address(p) for p in raw]
            payloads += [(c, p) for c, p in zip(cids, raw) if p is not None]
            entries.append(DataEntry(eid, ins.amount, tuple(ins.addresses),
                                     ins.timestamp, *cids))
        self._commit(entries, [(OP_INSERT, e.entry_id) for e in entries],
                     payloads)
        return [e.entry_id for e in entries]

    def _exec_insert(self, ast: InsertQuery) -> QueryResult:
        self.insert_batch([ast])
        return QueryResult([], plan_query(ast), affected=1)

    def _require_live(self, entry_id: int) -> DataEntry:
        if not self.is_live(entry_id):
            raise UnknownEntry(entry_id)
        return self.entries[entry_id]

    def _exec_delete(self, ast: DeleteQuery) -> QueryResult:
        self._commit([], [(OP_DELETE, ast.entry_id)], ())
        return QueryResult([], plan_query(ast), affected=1)

    def _exec_update(self, ast: UpdateQuery) -> QueryResult:
        old = self._require_live(ast.entry_id)
        fields = {"amount": old.amount, "addresses": old.addresses,
                  "timestamp": old.timestamp}
        fields.update(dict(ast.changes))
        # carry payload references forward; the payloads are unchanged
        new = DataEntry(self._next_id, fields["amount"],
                        tuple(fields["addresses"]), fields["timestamp"],
                        old.image_cid, old.video_cid)
        self._commit([new], [(OP_UPDATE, ast.entry_id)], ())
        return QueryResult([], plan_query(ast), affected=1)

    # -- reads ---------------------------------------------------------

    def _live(self, ids) -> tuple[DataEntry, ...]:
        return tuple(self.entries[eid] for eid in sorted(set(ids))
                     if self.is_live(eid))

    def _exec_time_range(self, start: int, end: int):
        ids, vo = self.time_index.range_query(start, end)
        bhash_root, _ = self.ledger.latest_roots()
        if not verify_range(vo, bhash_root, start, end, ids):
            raise VerificationFailure("time-range proof rejected")
        return self._live(ids), vo

    def _exec_fuzzy(self, ast: SelectFuzzy):
        if ast.field == "timestamp_string":
            key = NS_TIMESTAMP + ast.prefix
        elif ast.prefix.startswith("0x"):
            key = NS_ADDRESS + ast.prefix[2:]
        elif "0x".startswith(ast.prefix):
            key = NS_ADDRESS
        else:
            # every address starts with 0x: the schema rules out a match
            return (), None
        ids, vo = self.trie.prefix_query(key)
        _, trie_root = self.ledger.latest_roots()
        if not verify_prefix(vo, trie_root, key, ids):
            raise VerificationFailure("prefix proof rejected")
        return self._live(ids), vo

    # -- entry points --------------------------------------------------

    def execute_ast(self, ast: QueryAst, emit_vo: bool = False) \
            -> QueryResult:
        if isinstance(ast, InsertQuery):
            return self._exec_insert(ast)
        if isinstance(ast, DeleteQuery):
            return self._exec_delete(ast)
        if isinstance(ast, UpdateQuery):
            return self._exec_update(ast)
        if not isinstance(ast, (SelectSimple, SelectTimeRange, SelectFuzzy)):
            raise TypeError(f"unexecutable ast {ast!r}")
        plan = plan_query(ast)
        cached = self.cache.get(ast)
        if cached is not None:
            return QueryResult(_rows(cached), plan, verified=True,
                               cached=True)
        vo = None
        if isinstance(ast, SelectFuzzy):
            entries, vo = self._exec_fuzzy(ast)
        elif isinstance(ast, SelectTimeRange):
            entries, vo = self._exec_time_range(ast.start_time, ast.end_time)
        elif ast.entry_id is not None:
            entries = self._live([ast.entry_id])
        else:
            entries, vo = self._exec_time_range(ast.timestamp, ast.timestamp)
        # one batch re-hash of every payload; a corrupt or missing one raises
        self.store.check_many([cid for e in entries
                               for cid in (e.image_cid, e.video_cid)
                               if cid is not None])
        self.cache.put(ast, entries)
        vo_bytes = vo.to_bytes() if emit_vo and vo is not None else None
        return QueryResult(_rows(entries), plan, verified=True,
                           vo_bytes=vo_bytes)

    def execute(self, sql: str, emit_vo: bool = False) -> QueryResult:
        return self.execute_ast(parse(sql), emit_vo=emit_vo)


def replay(ledger: Ledger, store: Optional[ContentStore] = None,
           threshold_t: Optional[int] = DEFAULT_THRESHOLD) -> Engine:
    """Rebuild engine state from a ledger by re-applying every block's
    operation records in order; each block's rebuilt roots must equal its
    anchored roots."""
    engine = Engine(store=store, threshold_t=threshold_t)
    for block in ledger.blocks:
        try:
            engine._commit(block.entries, block.ops, ())
        except UnknownEntry as exc:
            raise VerificationFailure(
                f"block at height {block.height} changes entry "
                f"{exc.args[0]}, which is not live") from None
        except MalformedBlock as exc:
            raise VerificationFailure(
                f"block at height {block.height}: {exc}") from None
        if engine.ledger.latest_roots() != block.anchored_roots:
            raise VerificationFailure(
                f"replayed roots at height {block.height} do not match the "
                "anchored roots")
    return engine
