"""Per-layer tracing for the benchmark, installed from outside the program.

`Tracer.install()` wraps the public functions and methods of each chainquery
module at every name that binds them, and `uninstall()` puts the originals
back.  Every wrapped call adds to its function's call count, busy time
(outermost calls only, so recursion is not counted twice) and self time
(duration minus the wrapped calls made inside it).  Calls of most functions
are also kept as spans (name, start, end, parent, root) in flat arrays and
written out by `write_spans`; per-node helpers called hundreds of thousands
of times per run are aggregated only, which keeps memory bounded.

`core.digest` is wrapped only where `bhash`, `trie` and `ledger` bind it, and
only counted, by its domain-tag argument; the `GasMeter` ticks are only
counted too.  Timing calls that small would mostly measure the timer.
The untraced benchmark never imports this module.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

LAYERS = ("core", "kernels", "bhash", "trie", "ledger", "store", "cache",
          "sqlgrammar", "engine", "gas")
_MODULES = {layer: "chainquery."
            + ("_kernels" if layer == "kernels" else layer)
            for layer in LAYERS}
DIGEST_BINDINGS = ("chainquery.bhash", "chainquery.trie", "chainquery.ledger")
DOMAINS = {0x00: "leaf", 0x01: "internal", 0x02: "bucket", 0x03: "trie",
           0x04: "anchor"}

# Counted only, not timed: a meter tick is one integer addition, so timing
# it would mostly measure the timer.
COUNT_ONLY = frozenset({"gas.GasMeter.write", "gas.GasMeter.read",
                        "gas.GasMeter.compute"})
# Aggregated, not kept as spans: each runs once per tree node, i.e.
# 10^5..10^6 times per run.
NO_SPAN = frozenset({
    "kernels.pack_u64_list", "kernels.pack_u64_pairs",
    "trie.node_digest", "trie.TrieNode.recompute_digest",
    "bhash.BHashNode.recompute_digest", "bhash.BHashNode.merkle_levels_cached",
    "bhash.bucket_ids_digest", "bhash.bucket_leaf_digest",
    "cache.BloomFilter.add", "cache.BloomFilter.might_contain",
    "engine.Engine.is_live", "engine.timestamp_string",
})

# Extra counts, taken from a call's arguments and result.
COUNTERS = {
    "kernels.merkle_level": ("kernels.merkle_level.hashes",
                             lambda args, res: len(args[0]) // 2),
    "store.ContentStore.put": ("store.put.bytes",
                               lambda args, res: len(args[1])),
    "store.ContentStore.get": ("store.get.bytes", lambda args, res: len(res)),
    "trie.Trie.prefix_query": ("trie.descent_visits",
                               lambda args, res: args[0].last_descent_visits),
}


def _public_functions(layer: str):
    """(span name, owner, attribute, original) for each public function or
    method defined in the layer's module.  The kernels package re-exports
    its backend's functions, which are builtins under the compiled one."""
    mod = importlib.import_module(_MODULES[layer])
    for name, obj in list(vars(mod).items()):
        if name.startswith("_"):
            continue
        if layer == "kernels" and inspect.isbuiltin(obj) or (
                inspect.isfunction(obj) and (obj.__module__ == mod.__name__
                                             or layer == "kernels")):
            yield f"{layer}.{name}", mod, name, obj
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for mname, mobj in list(vars(obj).items()):
                if mname.startswith("_"):
                    continue
                if inspect.isfunction(mobj) or isinstance(
                        mobj, (staticmethod, classmethod)):
                    yield f"{layer}.{obj.__name__}.{mname}", obj, mname, mobj


class Tracer:
    """Span store and per-name aggregates for one traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # spans, one slot per recorded call
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_root = array("i")
        # aggregates per name id
        self.calls: list[int] = []
        self.busy_ns: list[int] = []
        self.self_ns: list[int] = []
        self._active: list[int] = []
        self.counts: Counter = Counter()
        # open calls: [name id, span slot or -1, start ns, child ns]
        self._stack: list[list] = []
        self._root = -1
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.busy_ns.append(0)
            self.self_ns.append(0)
            self._active.append(0)
        return nid

    # -- calls ------------------------------------------------------------

    def enter(self, nid: int, record: bool) -> list:
        stack = self._stack
        slot = -1
        if record:
            slot = len(self.span_start)
            if not stack:
                self._root = slot
            self.span_name.append(nid)
            self.span_parent.append(self._parent_slot())
            self.span_root.append(self._root)
            self.span_end.append(0)
            self.span_start.append(0)
        self._active[nid] += 1
        frame = [nid, slot, 0, 0]
        stack.append(frame)
        frame[2] = perf_counter_ns()
        if slot >= 0:
            self.span_start[slot] = frame[2]
        return frame

    def leave(self, frame: list) -> None:
        end = perf_counter_ns()
        nid, slot, start, child = frame
        self._stack.pop()
        dur = end - start
        self.calls[nid] += 1
        self.self_ns[nid] += dur - child
        self._active[nid] -= 1
        if not self._active[nid]:
            self.busy_ns[nid] += dur
        if self._stack:
            self._stack[-1][3] += dur
        if slot >= 0:
            self.span_end[slot] = end

    def _parent_slot(self) -> int:
        for frame in reversed(self._stack):
            if frame[1] >= 0:
                return frame[1]
        return -1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one statement."""
        frame = self.enter(self._name_id(name), True)
        try:
            yield
        finally:
            self.leave(frame)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        record = name not in NO_SPAN
        counter = COUNTERS.get(name)
        enter, leave, counts = self.enter, self.leave, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(nid, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if counter is not None:
                counts[counter[0]] += counter[1](args, result)
            return result
        return wrapper

    def _counted(self, fn, key):
        """Wrapper that only counts calls, under key(args)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key(args)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of every layer, at every name that
        binds it in the loaded chainquery modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        core = importlib.import_module("chainquery.core")
        homes = [mod for name, mod in list(sys.modules.items())
                 if name.split(".")[0] == "chainquery"]
        digest_keys = {tag: f"core.digest.calls.{dom}"
                       for tag, dom in DOMAINS.items()}
        digest_wrapper = self._counted(
            core.digest,
            lambda args: digest_keys.get(args[0], "core.digest.calls.other"))
        for modname in DIGEST_BINDINGS:
            self._patch(importlib.import_module(modname), "digest",
                        digest_wrapper)
        for layer in LAYERS:
            found = list(_public_functions(layer))
            if not found:
                self.uninstall()
                raise RuntimeError(f"layer {layer} has no function to trace")
            for name, owner, attr, orig in found:
                if name == "core.digest":
                    continue
                if name in COUNT_ONLY:
                    key = name + ".calls"
                    self._patch(owner, attr,
                                self._counted(orig, lambda args, key=key: key))
                    continue
                if isinstance(orig, (staticmethod, classmethod)):
                    wrapped = type(orig)(self._wrap(name, orig.__func__))
                    self._patch(owner, attr, wrapped)
                    continue
                wrapped = self._wrap(name, orig)
                if inspect.isclass(owner):
                    self._patch(owner, attr, wrapped)
                    continue
                for mod in homes:
                    if vars(mod).get(attr) is orig:
                        self._patch(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float]:
        """(calls, busy ms) of one function; zeros if it never ran."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0
        return self.calls[nid], self.busy_ns[nid] / 1e6

    def self_ms(self, prefix: str) -> float:
        """Summed self time of every name starting with prefix."""
        return sum(self.self_ns[i] for i, n in enumerate(self.names)
                   if n.startswith(prefix)) / 1e6

    def layer_self_ms(self) -> dict[str, float]:
        return {layer: self.self_ms(layer + ".") for layer in LAYERS}

    def write_spans(self, stem: str) -> None:
        """Write `<stem>.spans.json` (name table and layout) and
        `<stem>.spans.bin` (the span arrays, back to back, native order)."""
        arrays = (self.span_name, self.span_start, self.span_end,
                  self.span_parent, self.span_root)
        with open(stem + ".spans.bin", "wb") as fh:
            for arr in arrays:
                arr.tofile(fh)
        header = {
            "count": len(self.span_start),
            "names": self.names,
            "arrays": [["name", "i"], ["start_ns", "q"], ["end_ns", "q"],
                       ["parent", "i"], ["root", "i"]],
        }
        with open(stem + ".spans.json", "w") as fh:
            json.dump(header, fh)


def load_spans(stem: str) -> list[tuple[str, int, int, int, int]]:
    """Read spans written by `Tracer.write_spans` as
    (name, start_ns, end_ns, parent, root) tuples."""
    with open(stem + ".spans.json") as fh:
        header = json.load(fh)
    n = header["count"]
    cols = []
    with open(stem + ".spans.bin", "rb") as fh:
        for _, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, n)
            cols.append(arr)
    names = header["names"]
    return [(names[cols[0][i]], cols[1][i], cols[2][i], cols[3][i],
             cols[4][i]) for i in range(n)]
