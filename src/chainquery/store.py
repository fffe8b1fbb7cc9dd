"""Content-addressed payload store.

Addresses are the plain SHA-256 of the raw bytes; every fetch re-hashes, so
a corrupted store surfaces as IntegrityFailure rather than bad data.

`check_many` re-hashes a read's payloads as one batch, split between the
calling thread and one helper thread per process.  hashlib releases the GIL
while it hashes an input of 2 KiB or more, so on a machine with a second
CPU the two threads hash at the same time.  The helper runs only private
code of this module and hashlib, never a public chainquery function.
"""
from __future__ import annotations

import hashlib
import itertools
import os
import queue
import threading
from typing import Iterable, Optional

from chainquery.core import DIGEST_SIZE, content_id

MAX_PAYLOAD = 64 * 1024 * 1024

# A batch of fewer stored bytes is checked inline: handing part of it to
# the helper costs more than it saves there.  Measured on the memory
# store (2 vCPUs, Python 3.11), split against inline: two 64 KiB payloads
# 50 against 69 µs, one 64 KiB and one 2 KiB payload 39 against 37 µs,
# forty 2 KiB payloads 99 against 60 µs.
SPLIT_FROM_BYTES = 128 * 1024


class NotFound(KeyError):
    # the message, not KeyError's quoted repr of it
    __str__ = Exception.__str__


class IntegrityFailure(ValueError):
    pass


class PayloadTooLarge(ValueError):
    pass


class ContentStore:
    """Directory-backed store (objects/<first-2-hex>/<full-hex>), or fully
    in-memory when no root directory is given."""

    def __init__(self, root: Optional[str] = None):
        self.root = root
        self._mem: dict[bytes, bytes] = {}
        if root:
            os.makedirs(os.path.join(root, "objects"), exist_ok=True)

    def _path(self, cid: bytes) -> str:
        hexcid = cid.hex()
        return os.path.join(self.root, "objects", hexcid[:2], hexcid)

    @staticmethod
    def address(payload: bytes) -> bytes:
        """The payload's content id; PayloadTooLarge past MAX_PAYLOAD."""
        if len(payload) > MAX_PAYLOAD:
            raise PayloadTooLarge(f"{len(payload)} bytes exceeds {MAX_PAYLOAD}")
        return content_id(payload)

    def put(self, payload: bytes, cid: bytes) -> None:
        """Store payload under cid, which must be address(payload): a
        writer hashes once, and can check a whole batch before storing any
        of it.  Fetches re-hash, so a wrong cid surfaces there."""
        if self.root:
            path = self._path(cid)
            if not os.path.exists(path):
                os.makedirs(os.path.dirname(path), exist_ok=True)
                tmp = path + ".tmp"
                with open(tmp, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp, path)
        else:
            self._mem.setdefault(cid, payload)

    def _fetch_checked(self, cid: bytes) -> bytes:
        """The bytes stored under cid, re-hashed against it: NotFound or
        IntegrityFailure.  The helper thread runs this, so it calls no
        public chainquery function."""
        payload = None
        if len(cid) == DIGEST_SIZE:
            if self.root:
                try:
                    with open(self._path(cid), "rb") as fh:
                        payload = fh.read()
                except FileNotFoundError:
                    pass
            else:
                payload = self._mem.get(cid)
        if payload is None:
            raise NotFound(f"no payload stored under {cid.hex()}")
        if hashlib.sha256(payload).digest() != cid:
            raise IntegrityFailure(f"stored bytes for {cid.hex()} hash "
                                   "differently")
        return payload

    def get(self, cid: bytes) -> bytes:
        """The payload stored under cid, re-hashed: NotFound or
        IntegrityFailure."""
        return self._fetch_checked(cid)

    def check_many(self, cids: Iterable[bytes]) -> None:
        """Fetch and re-hash each payload in cids, keeping none of them.
        Raises the error of the first bad cid in input order, whichever
        thread found it."""
        cids = list(cids)
        # one payload cannot be shared, so it skips the size scan
        big = len(cids) > 1 and any(
            total >= SPLIT_FROM_BYTES for total
            in itertools.accumulate(map(self._stored_size, cids)))
        jobs = _helper_jobs() if big else None
        if jobs is None:
            for cid in cids:
                self._fetch_checked(cid)
            return
        items = enumerate(cids)
        pull = threading.Lock()
        busy = threading.Lock()
        errors: list[tuple[int, Exception]] = []

        def helper_part() -> None:
            with busy:
                self._check_items(items, pull, errors)

        jobs.put(helper_part)
        self._check_items(items, pull, errors)
        # the items are all taken now; wait only if the helper holds one
        with busy:
            pass
        if errors:
            raise min(errors, key=lambda e: e[0])[1]

    def _stored_size(self, cid: bytes) -> int:
        """Bytes stored under cid; 0 when there are none."""
        if self.root:
            try:
                return os.stat(self._path(cid)).st_size
            except OSError:
                return 0
        return len(self._mem.get(cid, b""))

    def _check_items(self, items, pull: threading.Lock,
                     errors: list) -> None:
        """Check (index, cid) items taken from the shared iterator until it
        runs out or a check fails.  A failure is kept with its index and
        ends the iterator: no later cid can be the first bad one."""
        while True:
            with pull:
                item = next(items, None)
            if item is None:
                return
            try:
                self._fetch_checked(item[1])
            except Exception as exc:  # re-raised by check_many's caller
                errors.append((item[0], exc))
                with pull:
                    for _ in items:
                        pass
                return

    def __len__(self) -> int:
        if self.root:
            base = os.path.join(self.root, "objects")
            return sum(len(files) for _, _, files in os.walk(base))
        return len(self._mem)


# The helper thread: one per process, started on first use and started
# again in a forked child, which inherits no threads.
_helper_lock = threading.Lock()
_helper_pid: Optional[int] = None
_helper_queue: Optional[queue.SimpleQueue] = None


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _helper_jobs() -> Optional[queue.SimpleQueue]:
    """The job queue of this process's helper thread, or None when the
    process can run on only one CPU."""
    global _helper_pid, _helper_queue
    if _helper_pid != os.getpid():
        with _helper_lock:
            if _helper_pid != os.getpid():
                jobs = None
                if _usable_cpus() > 1:
                    jobs = queue.SimpleQueue()
                    threading.Thread(target=_serve, args=(jobs,),
                                     name="chainquery-store-check",
                                     daemon=True).start()
                _helper_queue = jobs
                _helper_pid = os.getpid()
    return _helper_queue


def _serve(jobs: queue.SimpleQueue) -> None:
    while True:
        jobs.get()()
