"""Query middleware: planning and execution of the six primitives.

The engine owns a ledger, a time index (BHashTree), a prefix index (Trie),
a content-addressed payload store, and a query cache.  Writes
insert into both indexes, store payloads, anchor the new roots in a block
(entries + operation records), and empty the cache.  Reads probe the
cache, query the index for ids and a VO (verification object), check that
the VO's root is the latest anchored root, drop deleted or superseded
entries, check the payloads of the rest with the store and cache those
entries; a hit skips all of that.  The engine runs no verifier: a client
checks the VO bytes against the anchors with `chainquery.client`.  The
memory store hashes each stored payload object on its first fetch and
again whenever the object under a cid changes; the disk store re-hashes
on every fetch.  Every read builds fresh row dicts from the entries.

`execute` parses each read statement's text once per engine: a dict maps
the text to its AST, which `parse` makes as a pure function of the text,
so no write empties it.  It holds reads only, since an INSERT's text and
AST carry its payload bytes and write texts seldom repeat.  It holds no
text longer than `sqlgrammar.PATTERN_MAX_LEN`, which is parsed on every
call, and it empties when it reaches `MAX_CACHED` texts, so it holds at
most `MAX_CACHED` x `PATTERN_MAX_LEN` characters.
"""
from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Optional

from chainquery.bhash import DEFAULT_THRESHOLD, BHashTree
from chainquery.cache import MAX_CACHED, QueryCache
from chainquery.core import DataEntry
from chainquery.gas import GasMeter
from chainquery.ledger import Ledger, OP_DELETE, OP_UPDATE
from chainquery.sqlgrammar import (PATTERN_MAX_LEN, DeleteQuery,
                                   InsertQuery, QueryAst, SelectFuzzy,
                                   SelectSimple, SelectTimeRange, UpdateQuery,
                                   parse)
from chainquery.store import ContentStore
from chainquery.trie import Trie

# Trie namespace prefixes; both are alphabet characters that cannot start
# a key in the other namespace.
NS_TIMESTAMP = ":"
NS_ADDRESS = "-"

TS_FORMAT = "%Y-%m-%d-%H:%M:%S"

_READS = (SelectSimple, SelectTimeRange, SelectFuzzy)


class UnknownEntry(KeyError):
    pass


class VerificationFailure(RuntimeError):
    pass


class MalformedBlock(ValueError):
    """A block's operation records do not match its entries."""


_EPOCH = datetime.datetime(1970, 1, 1)


def timestamp_string(ts: int) -> str:
    """ts as UTC in TS_FORMAT.  A naive date's isoformat is the same text
    with a `T` for the middle `-`, and takes a third of strftime's time;
    past year 9999 it raises OverflowError."""
    return (_EPOCH + datetime.timedelta(seconds=ts)).isoformat() \
        .replace("T", "-")


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


@dataclass
class QueryResult:
    """`verified` is the engine's word that the VO was built from an index
    whose root is the latest anchor; a client must check `vo_bytes`."""
    rows: list[dict]
    plan: Plan
    verified: bool = False
    cached: bool = False
    vo_bytes: Optional[bytes] = None
    affected: int = 0


# the writes' plans, in the order Engine._commit runs them
_INSERT_PLAN = Plan(("index-insert", "store-payloads", "anchor-roots",
                     "ledger-append", "cache-invalidate"))
_WRITE_PLAN = Plan(("index-insert", "anchor-roots", "ledger-append",
                    "cache-invalidate"))


def plan_query(ast: QueryAst) -> Plan:
    if isinstance(ast, InsertQuery):
        return _INSERT_PLAN
    if isinstance(ast, (DeleteQuery, UpdateQuery)):
        return _WRITE_PLAN
    if isinstance(ast, SelectSimple) and ast.entry_id is not None:
        index_steps = ("ledger-lookup",)
    elif isinstance(ast, (SelectSimple, SelectTimeRange)):
        index_steps = ("time-index-query", "check-anchor")
    elif isinstance(ast, SelectFuzzy):
        index_steps = ("trie-query", "check-anchor")
    else:
        raise TypeError(f"unplannable ast {ast!r}")
    return Plan(("cache-probe", *index_steps, "payload-fetch", "merge"))


class Engine:
    def __init__(self, store: Optional[ContentStore] = None,
                 threshold_t: Optional[int] = DEFAULT_THRESHOLD):
        self.meter = GasMeter()
        self.ledger = Ledger()
        self.time_index = BHashTree(threshold_t=threshold_t,
                                    meter=self.meter)
        self.trie = Trie(meter=self.meter)
        # not `store or ...`: an empty ContentStore is falsy via __len__
        self.store = store if store is not None else ContentStore()
        self.cache = QueryCache()
        # read statement text -> AST; per engine, so a fresh engine parses
        # every statement afresh
        self._parsed: dict[str, QueryAst] = {}
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

    def _apply(self, entries, ops) -> None:
        """Check one block's operation records against its entries and the
        live state, then index the entries and end the ops' targets.  Live
        writes and replay both come here, so a replayed block meets the
        same rules.

        An entry is its own record, so ops are only DELETEs and UPDATEs:
        each target must be live and named once, and the block must hold
        at least one entry per UPDATE.  Raises UnknownEntry or
        MalformedBlock before changing any state."""
        keys = self._trie_keys(entries)
        ended = set()
        for kind, target in ops:
            if kind not in (OP_DELETE, OP_UPDATE):
                raise MalformedBlock(f"unknown op kind {kind}")
            if target in ended:
                raise UnknownEntry(target)
            self._require_live(target)
            ended.add(target)
        n_updates = sum(kind == OP_UPDATE for kind, _ in ops)
        if n_updates > len(entries):
            raise MalformedBlock(f"{n_updates} UPDATE ops but "
                                 f"{len(entries)} entries")
        # _trie_keys built only keys the trie accepts, and the time index
        # cannot reject a checked entry; both rehash once, in _commit
        for key, entry_id in keys:
            self.trie.insert(key, entry_id)
        for entry in entries:
            self.entries[entry.entry_id] = entry
            self.time_index.insert(entry.entry_id, entry.timestamp)
        self.retired |= ended

    def _commit(self, entries, ops, payloads) -> None:
        """Write one block: apply it, store its payloads ((cid, bytes)
        pairs) once nothing can reject it, then append the block with the
        new roots and invalidate the cache, the steps `plan_query` lists."""
        self._apply(entries, ops)
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
        self._commit(entries, (), payloads)
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

    def _anchor(self, vo, index: int) -> None:
        """The VO's root must be its index's (0 time, 1 trie) latest anchor."""
        if not self.ledger.blocks:
            raise VerificationFailure("no anchored block to check against")
        if vo.claimed_root != self.ledger.latest_roots()[index]:
            raise VerificationFailure(
                f"{('time-index', 'trie')[index]} proof root is not the "
                f"root anchored at height {self.ledger.height}")

    def _exec_time_range(self, start: int, end: int):
        ids, vo = self.time_index.range_query(start, end)
        self._anchor(vo, 0)
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
        self._anchor(vo, 1)
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
        plan = plan_query(ast)  # a TypeError for an ast it cannot plan
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
        # one batch check of every payload; a corrupt or missing one raises
        self.store.check_many([cid for e in entries
                               for cid in (e.image_cid, e.video_cid)
                               if cid is not None])
        self.cache.put(ast, entries)
        vo_bytes = vo.to_bytes() if emit_vo and vo is not None else None
        return QueryResult(_rows(entries), plan, verified=True,
                           vo_bytes=vo_bytes)

    def execute(self, sql: str, emit_vo: bool = False) -> QueryResult:
        # a non-str key could fail to hash; parse rejects it with its own error
        held = isinstance(sql, str) and len(sql) <= PATTERN_MAX_LEN
        ast = self._parsed.get(sql) if held else None
        if ast is None:
            ast = parse(sql)
            if held and isinstance(ast, _READS):
                if len(self._parsed) >= MAX_CACHED:
                    self._parsed = {}
                self._parsed[sql] = ast
        return self.execute_ast(ast, emit_vo=emit_vo)


def replay(ledger: Ledger, store: Optional[ContentStore] = None,
           threshold_t: Optional[int] = DEFAULT_THRESHOLD) -> Engine:
    """Rebuild engine state by applying every block of a ledger in order,
    by the rules live writes meet; each height's rebuilt roots must equal
    its anchored roots.  The engine keeps the blocks it checked, in a list
    of its own, and encodes or hashes none of them again."""
    engine = Engine(store=store, threshold_t=threshold_t)
    for block in ledger.blocks:
        try:
            engine._apply(block.entries, block.ops)
        except UnknownEntry as exc:
            raise VerificationFailure(
                f"block at height {block.height} changes entry "
                f"{exc.args[0]}, which is not live") from None
        except MalformedBlock as exc:
            raise VerificationFailure(
                f"block at height {block.height}: {exc}") from None
        if (engine.time_index.root_digest(), engine.trie.root_digest()) \
                != block.anchored_roots:
            raise VerificationFailure(
                f"replayed roots at height {block.height} do not match the "
                "anchored roots")
    engine.ledger.blocks = list(ledger.blocks)
    engine.ledger._next_entry_id = engine._next_id
    return engine
