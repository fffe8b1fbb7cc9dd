"""Content-addressed payload store.

Addresses are the plain SHA-256 of the raw bytes; every fetch re-hashes, so
a corrupted store surfaces as IntegrityFailure rather than bad data.

`check_many` re-hashes a read's payloads as one batch, split between the
calling thread and the one worker thread of a per-process executor.
hashlib releases the GIL while it hashes an input of 2 KiB or more, so on
a machine with a second CPU the two threads hash at the same time.  The
helper runs only private code of this module and hashlib, never a public
chainquery function.
"""
from __future__ import annotations

import collections
import hashlib
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
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
        helper = _helper() if big else None
        if helper is None:
            for cid in cids:
                self._fetch_checked(cid)
            return
        todo = collections.deque(enumerate(cids))
        errors: list[tuple[int, Exception]] = []
        share = helper.submit(self._check_items, todo, errors)
        self._check_items(todo, errors)
        # all items are taken: cancel a helper that never started, or wait
        if not share.cancel():
            share.result()
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

    def _check_items(self, todo: collections.deque, errors: list) -> None:
        """Check (index, cid) items popped from the shared deque, whose pops
        are thread-safe, until it is empty or a check fails.  A failure is
        kept with its index and empties the deque: no later cid can be the
        first bad one."""
        while True:
            try:
                index, cid = todo.popleft()
            except IndexError:  # empty: all taken, or a check failed
                return
            try:
                self._fetch_checked(cid)
            except Exception as exc:  # re-raised by check_many's caller
                errors.append((index, exc))
                todo.clear()
                return

    def __len__(self) -> int:
        if self.root:
            base = os.path.join(self.root, "objects")
            return sum(len(files) for _, _, files in os.walk(base))
        return len(self._mem)


# The helper: one single-thread executor per process, made on first use
# and made again in a forked child, which inherits no threads.
_helper_lock = threading.Lock()
_helper_pid: Optional[int] = None
_helper_pool: Optional[ThreadPoolExecutor] = None


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _helper() -> Optional[ThreadPoolExecutor]:
    """This process's helper executor, or None when the process can run
    on only one CPU."""
    global _helper_pid, _helper_pool
    if _helper_pid != os.getpid():
        with _helper_lock:
            if _helper_pid != os.getpid():
                pool = None
                if _usable_cpus() > 1:
                    pool = ThreadPoolExecutor(1, "chainquery-store-check")
                _helper_pool = pool
                _helper_pid = os.getpid()
    return _helper_pool
