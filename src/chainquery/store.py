"""Content-addressed payload store.

Addresses are the plain SHA-256 of the raw bytes; every fetch re-hashes, so
a corrupted store surfaces as IntegrityFailure rather than bad data.
"""
from __future__ import annotations

import os
from typing import Optional

from chainquery.core import DIGEST_SIZE, content_id

MAX_PAYLOAD = 64 * 1024 * 1024


class NotFound(KeyError):
    pass


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
        of it.  get() re-hashes, so a wrong cid surfaces there."""
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

    def get(self, cid: bytes) -> bytes:
        if len(cid) != DIGEST_SIZE:
            raise NotFound(cid.hex())
        if self.root:
            path = self._path(cid)
            if not os.path.exists(path):
                raise NotFound(cid.hex())
            with open(path, "rb") as fh:
                payload = fh.read()
        else:
            if cid not in self._mem:
                raise NotFound(cid.hex())
            payload = self._mem[cid]
        if content_id(payload) != cid:
            raise IntegrityFailure(f"stored bytes for {cid.hex()} hash "
                                   "differently")
        return payload

    def __contains__(self, cid: bytes) -> bool:
        if self.root:
            return os.path.exists(self._path(cid))
        return cid in self._mem

    def __len__(self) -> int:
        if self.root:
            base = os.path.join(self.root, "objects")
            return sum(len(files) for _, _, files in os.walk(base))
        return len(self._mem)
