"""Command-line front end: dataset generation, ingestion, querying,
chain verification, and the benchmark harness.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from chainquery import workload
from chainquery.bhash import DEFAULT_THRESHOLD
from chainquery.core import EncodingError
from chainquery.engine import (Engine, MalformedBlock, UnknownEntry,
                               VerificationFailure, replay)
from chainquery.ledger import Ledger, LedgerDecodeError
from chainquery.sqlgrammar import SqlSyntaxError, UnsupportedFeature
from chainquery.store import ContentStore, IntegrityFailure, NotFound


def _threshold(args) -> int | None:
    if args.index_variant == "bplus-only":
        return None
    return args.threshold_t


def _ledger_path(dataset: str) -> str:
    return os.path.join(dataset, "ledger.bin")


def _store_dir(dataset: str) -> str:
    return os.path.join(dataset, "store")


def _meta_path(dataset: str) -> str:
    return os.path.join(dataset, "ingest-meta.json")


def _load_engine(args) -> Engine:
    """Decode and chain-check the saved ledger, then replay it with the
    index variant `ingest` saved: any other variant rebuilds roots that
    cannot match the anchors."""
    for path in (_ledger_path(args.dataset), _meta_path(args.dataset)):
        if not os.path.exists(path):
            raise SystemExit2(f"no {path}; run `ingest` first")
    try:
        with open(_meta_path(args.dataset)) as fh:
            threshold_t = json.load(fh)["threshold_t"]
        if threshold_t is not None and (type(threshold_t) is not int
                                        or threshold_t <= 0):
            raise ValueError(f"threshold_t {threshold_t!r}")
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit2(f"unreadable {_meta_path(args.dataset)} "
                          f"({exc!r}); run `ingest` again") from None
    ledger = Ledger.load(_ledger_path(args.dataset))
    if not ledger.verify_chain():
        raise VerificationFailure("block chain is inconsistent")
    store = ContentStore(_store_dir(args.dataset))
    return replay(ledger, store=store, threshold_t=threshold_t)


class SystemExit2(Exception):
    """Usage-level error: reported on stderr, exit code 2."""


def cmd_generate(args) -> int:
    spec = workload.WorkloadSpec(
        n_blocks=args.blocks, entries_per_block=args.entries_per_block,
        timestamp_density=args.density, seed=args.seed,
        query_mix={p: args.queries_per_primitive
                   for p in workload.PRIMITIVES})
    workload.generate(spec, args.dataset)
    total = spec.n_blocks * spec.entries_per_block
    print(f"generated {total} entries and "
          f"{4 * args.queries_per_primitive} queries in {args.dataset}")
    return 0


def cmd_ingest(args) -> int:
    store = ContentStore(_store_dir(args.dataset))
    engine = workload.ingest(args.dataset, args.blocks,
                             args.entries_per_block,
                             threshold_t=_threshold(args), store=store)
    engine.ledger.save(_ledger_path(args.dataset))
    with open(_meta_path(args.dataset), "w") as fh:
        json.dump({"threshold_t": _threshold(args)}, fh)
    roots = engine.ledger.latest_roots()
    print(f"ingested {args.blocks} blocks; time-index root "
          f"{roots[0].hex()[:16]}… trie root {roots[1].hex()[:16]}…")
    return 0


def _emit_rows(rows, fmt) -> None:
    if fmt == "jsonl":
        for row in rows:
            print(json.dumps(row, sort_keys=True))
        return
    columns = ["entry_id", "amount", "timestamp", "addresses",
               "imagecid", "videocid"]
    if fmt == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join(_cell(row[c]) for c in columns))
        return
    widths = {c: max([len(c)] + [len(_cell(r[c])) for r in rows])
              for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(_cell(row[c]).ljust(widths[c]) for c in columns))


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, list):
        return "|".join(value)
    return str(value)


def cmd_query(args) -> int:
    engine = _load_engine(args)
    try:
        result = engine.execute(args.sql, emit_vo=args.emit_vo)
    except (SqlSyntaxError, UnsupportedFeature, EncodingError,
            MalformedBlock, UnknownEntry) as exc:
        raise SystemExit2(f"bad query: {exc}")
    _emit_rows(result.rows, args.format)
    if args.emit_vo and result.vo_bytes is not None:
        print(f"# vo_bytes={len(result.vo_bytes)}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    """Replay the chain, then fetch and re-hash every payload a live entry
    references: a missing or corrupted one is a verification failure."""
    engine = _load_engine(args)
    cids = [cid for eid, e in engine.entries.items() if engine.is_live(eid)
            for cid in (e.image_cid, e.video_cid) if cid is not None]
    engine.store.check_many(cids)
    print(f"ok: {len(engine.ledger.blocks)} blocks, "
          f"{len(engine.entries)} entries, roots match at every height, "
          f"{len(cids)} payloads match their content ids")
    return 0


def cmd_bench(args) -> int:
    scales = [int(s) for s in args.scales.split(",") if s]
    if not scales:
        raise SystemExit2("--scales must list at least one block count")
    spec = workload.WorkloadSpec(
        n_blocks=max(scales), entries_per_block=args.entries_per_block,
        seed=args.seed)
    if not os.path.exists(os.path.join(args.dataset, "dataset.jsonl")):
        workload.generate(spec, args.dataset)
    report = workload.run_bench(spec, args.dataset, scales,
                                threshold_t=_threshold(args))
    if args.format == "jsonl":
        for row in report.rows:
            print(json.dumps({
                "n_blocks": row.n_blocks,
                "vo_bytes": row.vo_bytes,
                "gas": row.gas,
                "root_digest": row.root_digest,
            }, sort_keys=True))
    else:
        print(report.to_csv(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainquery",
        description="verifiable hybrid-storage query middleware")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--seed": dict(type=int, default=0),
        "--entries-per-block": dict(type=int, default=1),
        "--index-variant": dict(choices=["bhash", "bplus-only"],
                                default="bhash"),
        "--threshold-t": dict(type=int, default=DEFAULT_THRESHOLD),
    }

    def command(name, func, help, *flags):
        """A subcommand with --dataset and only the shared flags it reads."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--dataset", required=True, help="dataset directory")
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.set_defaults(func=func)
        return p

    p = command("generate", cmd_generate, "write a deterministic dataset",
                "--seed", "--entries-per-block")
    p.add_argument("--blocks", type=int, default=64,
                   help="number of blocks (power of two)")
    p.add_argument("--density", type=float, default=0.01,
                   help="event rate; mean inter-arrival is 1/density")
    p.add_argument("--queries-per-primitive", type=int, default=8)

    p = command("ingest", cmd_ingest, "build and save a ledger from a "
                                      "dataset",
                "--entries-per-block", "--index-variant", "--threshold-t")
    p.add_argument("--blocks", type=int, default=64)

    p = command("query", cmd_query, "run one SQL statement")
    p.add_argument("--format", choices=["table", "jsonl", "csv"],
                   default="table")
    p.add_argument("--emit-vo", action="store_true")
    p.add_argument("sql", help="statement to execute")

    command("verify", cmd_verify, "check chain integrity, re-derive all "
                                  "anchored roots and re-hash live payloads")

    p = command("bench", cmd_bench, "ingest at several scales and report "
                                    "VO size, gas, and the root",
                "--seed", "--entries-per-block", "--index-variant",
                "--threshold-t")
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--scales", default="16,64",
                   help="comma-separated block counts")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize others
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VerificationFailure, IntegrityFailure, NotFound,
            LedgerDecodeError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
