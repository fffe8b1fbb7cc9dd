"""chainquery benchmark: verified-read and write latency, one closed-loop
client, three workloads.

    python3 perfbench/run.py --workload ingest|read|mixed|all --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The lines before it
report every metric by name and unit, the environment, and with `--trace 1`
the top three layers by self time.  A full record of each run, and with
`--trace 1` its spans, are written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("ingest", "read", "mixed")
# a run makes at least this many passes: each statement's latency is its
# fastest of them, and setup_s the median of their set-ups
MIN_PASSES = 4


def _import_program():
    """Put the checkout's src/ first on the path; refuse to run against any
    other copy of chainquery."""
    src = ROOT / "src"
    if not (src / "chainquery" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no chainquery sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import chainquery
    if Path(chainquery.__file__).resolve().parent != src / "chainquery":
        raise SystemExit("perfbench: imported chainquery from "
                         f"{chainquery.__file__}, not from {src}")
    return chainquery


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def fastest_ns(passes) -> list[int]:
    """Each statement's fastest latency over the run's passes.  Every pass
    sends the same statements in the same order to the same engine state,
    so the i-th latencies of the passes time the same work, and the shared
    host's slow periods can only add to them.  The minimum over repeats is
    the estimator Chen and Revels found most robust for deterministic code
    on noisy machines ("Robust benchmarking in noisy environments", 2016)."""
    kinds = passes[0].op_kinds
    if any(p.op_kinds != kinds for p in passes):
        raise RuntimeError("passes of one run sent different statements")
    return [min(col) for col in zip(*(p.op_ns for p in passes))]


def _lat_stats(kinds, lat_ns, wanted) -> tuple[int, float, float]:
    vals = sorted(ns for k, ns in zip(kinds, lat_ns) if k in wanted)
    if not vals:
        return 0, 0.0, 0.0
    return len(vals), percentile(vals, 50) / 1e6, percentile(vals, 95) / 1e6


def end_to_end(passes) -> tuple[dict, dict]:
    """(metrics for the result line, every end-to-end figure that applies,
    each as (value, unit))."""
    import workloads as wl
    kinds, best = passes[0].op_kinds, fastest_ns(passes)
    _, p50, p95 = _lat_stats(kinds, best, wl.WRITES + wl.READ_KINDS)
    line = {
        "setup_s": (statistics.median(
            ns for p in passes for ns in p.setup_ns) / 1e9, "s"),
        "ops_per_s": (len(best) / (sum(best) / 1e9), "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p95_ms": (p95, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, "MiB"),
    }
    report = dict(line)
    for label, group in (("write", wl.WRITES), ("read", wl.READ_KINDS),
                         ("time_read", wl.TIME_READS),
                         ("prefix_read", wl.PREFIX_READS)):
        n, p50, p95 = _lat_stats(kinds, best, group)
        if n:
            report[f"{label}_p50_ms"] = (p50, "ms")
            report[f"{label}_p95_ms"] = (p95, "ms")
            report[f"{label}_samples"] = (n, "count")
    vo = [b for p in passes for b in p.vo_bytes]
    if vo:
        report["vo_bytes_per_read"] = (sum(vo) / len(vo), "B")
    attempted = sum(p.attempted for p in passes)
    report["fail_frac"] = (sum(p.failed for p in passes) / attempted, "1")
    return line, report


def per_layer(traced, untraced, tracer) -> dict:
    """Per-layer metrics of one traced pass, each as (value, unit)."""
    import workloads as wl
    m = {}
    for metric, name in (
            ("kernels.merkle_level", "kernels.merkle_level"),
            ("bhash.root_digest", "bhash.BHashTree.root_digest"),
            ("bhash.insert", "bhash.BHashTree.insert"),
            ("trie.insert", "trie.Trie.insert"),
            ("trie.root_digest", "trie.Trie.root_digest"),
            ("ledger.append_block", "ledger.Ledger.append_block"),
            ("store.put", "store.ContentStore.put"),
            ("store.get", "store.ContentStore.get"),
            ("bhash.range_query", "bhash.BHashTree.range_query"),
            ("bhash.verify_range", "bhash.verify_range"),
            ("bhash.vo_encode", "bhash.RangeVO.to_bytes"),
            ("bhash.verify_range_bytes", "bhash.verify_range_bytes"),
            ("trie.prefix_query", "trie.Trie.prefix_query"),
            ("trie.verify_prefix", "trie.verify_prefix"),
            ("trie.vo_encode", "trie.PrefixVO.to_bytes"),
            ("trie.verify_prefix_bytes", "trie.verify_prefix_bytes"),
            ("cache.get", "cache.QueryCache.get"),
            ("sqlgrammar.parse", "sqlgrammar.parse"),
            ("core.content_id", "core.content_id")):
        calls, ms = tracer.stat(name)
        m[metric + ".calls"] = (calls, "count")
        if metric != "core.content_id":
            m[metric + ".ms"] = (ms, "ms")
    counts = tracer.counts
    m["kernels.merkle_level.hashes"] = (
        counts["kernels.merkle_level.hashes"], "count")
    for dom in ("leaf", "internal", "bucket", "trie", "anchor"):
        m[f"core.digest.calls.{dom}"] = (
            counts[f"core.digest.calls.{dom}"], "count")
    m["store.put.mib"] = (counts["store.put.bytes"] / 2**20, "MiB")
    m["store.get.mib"] = (counts["store.get.bytes"] / 2**20, "MiB")
    m["trie.descent_visits"] = (counts["trie.descent_visits"], "count")
    m["engine.execute.self_ms"] = (tracer.self_ms("engine.Engine.execute"),
                                   "ms")
    for layer, ms in tracer.layer_self_ms().items():
        m[f"layer.{layer}.self_ms"] = (ms, "ms")
    m["client.self_ms"] = (tracer.self_ms("client."), "ms")

    engine = traced.engine
    m["bhash.depth"] = (engine.time_index.depth, "count")
    m["bhash.node_count"] = (engine.time_index.node_count, "count")
    m["trie.nodes"] = (_trie_nodes(engine.trie.root), "count")
    m["ledger.bytes_per_entry"] = (_ledger_bytes(engine)
                                   / max(1, len(traced.model.rows)), "B")
    lookups = traced.cache_hits + traced.cache_misses
    m["cache.hit_ratio"] = (traced.cache_hits / lookups if lookups else 0.0,
                            "1")
    reads = sum(k in wl.READ_KINDS for k in traced.op_kinds)
    vo_total = sum(traced.vo_bytes)
    m["engine.rows_per_read"] = (traced.read_rows / reads if reads else 0.0,
                                 "count")
    m["engine.vo_bytes_per_read"] = (
        vo_total / len(traced.vo_bytes) if traced.vo_bytes else 0.0, "B")
    m["engine.vo_bytes_per_row"] = (
        vo_total / traced.read_rows if traced.read_rows else 0.0, "B")
    m["engine.reads_without_vo"] = (traced.reads_without_vo, "count")
    ops = traced.ops
    for key, delta in zip(("writes", "reads", "compute"), traced.gas):
        m[f"gas.{key}_per_op"] = (delta / ops, "count")
    m["trace.overhead"] = (_ops_per_s(traced) / _ops_per_s(untraced), "1")
    return m


def _ops_per_s(p) -> float:
    return p.ops / (p.busy_ns / 1e9)


def _trie_nodes(root) -> int:
    n, todo = 0, [root]
    while todo:
        node = todo.pop()
        n += 1
        todo.extend(node.children.values())
    return n


def _ledger_bytes(engine) -> int:
    path = OUT / f"ledger-{os.getpid()}.bin"
    try:
        engine.ledger.save(str(path))
        return path.stat().st_size
    finally:
        path.unlink(missing_ok=True)


def environment(chainquery, args) -> dict:
    return {
        "python": platform.python_version(),
        "kernel_backend": chainquery.KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "payload_store": "memory; disk behaviour is not measured",
        "client": "one process, one thread, closed loop",
    }


def run_one(args, sizes=None) -> dict:
    """Run one workload in this process; return the result record."""
    chainquery = _import_program()
    import workloads as wl
    sizes = sizes or wl.Sizes()
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": environment(chainquery, args)}
    if args.trace:
        import layertrace as tr
        untraced = wl.run_pass(args.workload, args.seed, sizes)
        untraced.engine = untraced.model = None
        tracer = tr.Tracer()
        traced = wl.run_pass(args.workload, args.seed, sizes, tracer=tracer)
        passes = [untraced, traced]
        metrics = per_layer(traced, untraced, tracer)
        layers = tracer.layer_self_ms()
        record["top_layers"] = sorted(layers, key=layers.get,
                                      reverse=True)[:3]
        tracer.write_spans(str(stem))
        report = metrics
    else:
        # passes until another would end after --seconds, at least
        # MIN_PASSES
        passes, start, elapsed = [], perf_counter(), 0.0
        while (len(passes) < MIN_PASSES
               or elapsed * (len(passes) + 1) / len(passes) <= args.seconds):
            p = wl.run_pass(args.workload, args.seed, sizes)
            p.engine = p.model = None
            passes.append(p)
            elapsed = perf_counter() - start
        metrics, report = end_to_end(passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record.update({
        "passes": len(passes),
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "errors": [e for p in passes for e in p.errors][:10],
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        },
    })
    with open(str(stem) + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(record: dict) -> None:
    env = record["env"]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes {record['passes']}")
    for name, m in record["report"].items():
        print(f"{env['workload']} {name} {m['value']:.6g} {m['unit']}")
    if "top_layers" in record:
        print("top_layers_by_self_time " + " ".join(record["top_layers"]))
    for err in record["errors"]:
        print("error " + err)
    res = record["result"]
    print(f"attempted {res['attempted']} failed {res['failed']} "
          f"fail_frac {res['failed'] / res['attempted']:.6g}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        # each workload in its own process, so peak RSS is its own
        status = 0
        for name in WORKLOADS:
            status |= subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]).returncode
        return status
    record = run_one(args)
    print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
