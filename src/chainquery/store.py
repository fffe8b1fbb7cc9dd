"""Content-addressed payload store.

Addresses are the plain SHA-256 of the raw bytes, and a fetch checks them,
so a corrupted store surfaces as IntegrityFailure rather than bad data.  A
disk fetch re-hashes every time: a file can change under the same path.  A
memory fetch hashes on the first fetch of each stored object, and again
whenever the object under a cid changes: the store remembers which
immutable `bytes` object last hashed to each cid, and skips the hash only
while that same object is still the one stored.  `check_many` checks a
batch of payloads on the calling thread, one `get` per cid in input order,
so the first bad cid is the one that raises.
"""
from __future__ import annotations

import os
from typing import Iterable, Optional

from chainquery.core import DIGEST_SIZE, content_id

MAX_PAYLOAD = 64 * 1024 * 1024


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
        # cid -> the object in _mem that last hashed to it; holding it
        # keeps its id from being reused
        self._checked: dict[bytes, bytes] = {}
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
        of it.  Fetches check the hash, so a wrong cid surfaces there.  In
        memory the store keeps an immutable copy of a bytearray or
        memoryview (a plain bytes is kept as it is)."""
        if self.root:
            path = self._path(cid)
            if not os.path.exists(path):
                os.makedirs(os.path.dirname(path), exist_ok=True)
                tmp = path + ".tmp"
                with open(tmp, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp, path)
        else:
            self._mem.setdefault(cid, bytes(payload))

    def get(self, cid: bytes) -> bytes:
        """The payload stored under cid, hash-checked: NotFound or
        IntegrityFailure.  A disk fetch re-hashes every time; a memory
        fetch hashes only when the object under cid is not the one that
        last passed."""
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
                if payload is not None and payload is self._checked.get(cid):
                    return payload
        if payload is None:
            self._checked.pop(cid, None)
            raise NotFound(f"no payload stored under {cid.hex()}")
        if content_id(payload) != cid:
            self._checked.pop(cid, None)
            raise IntegrityFailure(f"stored bytes for {cid.hex()} hash "
                                   "differently")
        # only an immutable object can stand for the bytes that passed
        if not self.root and type(payload) is bytes:
            self._checked[cid] = payload
        return payload

    def check_many(self, cids: Iterable[bytes]) -> None:
        """Fetch and check each payload in cids with `get`, keeping none
        of them: the error of the first bad cid in input order.  A disk
        store re-hashes every payload; a memory store hashes only the
        objects it has not yet seen pass under their cid."""
        for cid in cids:
            self.get(cid)

    def __len__(self) -> int:
        if self.root:
            base = os.path.join(self.root, "objects")
            return sum(len(files) for _, _, files in os.walk(base))
        return len(self._mem)
