"""The memory store's `get` against a plain re-hash: after every step of a
seeded sequence of puts, gets, replacements, flips, deletions and restores,
each `get` must return the same bytes, or raise the same error class with
the same message, as a `get` that always hashes."""
import hashlib
import random

import pytest

from chainquery.store import ContentStore, IntegrityFailure, NotFound

OPS = ("put", "get", "replace", "flip", "delete", "restore", "alias",
       "mutate")


def rehash_get(mem, cid):
    """The reference: fetch from the dict and hash, every time."""
    payload = mem.get(cid) if len(cid) == 32 else None
    if payload is None:
        raise NotFound(f"no payload stored under {cid.hex()}")
    if hashlib.sha256(payload).digest() != cid:
        raise IntegrityFailure(f"stored bytes for {cid.hex()} hash "
                               "differently")
    return payload


def outcome(get, cid):
    """The bytes returned, or the error's class name and message."""
    try:
        return bytes(get(cid))
    except (NotFound, IntegrityFailure) as exc:
        return type(exc).__name__, str(exc)


def step(rng, store, honest):
    """One random change to the store, or a get; honest maps every cid
    ever put to its bytes."""
    op = rng.choice(OPS)
    mem = store._mem
    if op == "put" or not honest:
        payload = rng.randbytes(rng.randrange(0, 300))
        cid = store.address(payload)
        store.put(payload, cid)
        honest[cid] = payload
        return
    cid = rng.choice(list(honest))
    if op == "get":
        outcome(store.get, cid)
    elif op == "replace":
        # the same bytes as a new object
        mem[cid] = bytes(bytearray(honest[cid]))
    elif op == "flip" and mem.get(cid):
        raw = bytearray(mem[cid])
        raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
        mem[cid] = bytes(raw)
    elif op == "delete":
        mem.pop(cid, None)
    elif op == "restore":
        mem[cid] = honest[cid]
    elif op == "alias":
        # a mutable buffer written straight into the store
        mem[cid] = bytearray(honest[cid])
    elif op == "mutate" and isinstance(mem.get(cid), bytearray) \
            and mem[cid]:
        mem[cid][rng.randrange(len(mem[cid]))] ^= 0x80


@pytest.mark.parametrize("seed", range(6))
def test_memo_matches_a_get_that_always_hashes(seed):
    rng = random.Random(seed)
    store = ContentStore()
    honest: dict[bytes, bytes] = {}
    unknown = [b"\x00" * 32, b"\x01" * 31]
    for _ in range(600):
        step(rng, store, honest)
        for cid in list(honest) + unknown:
            want = outcome(lambda c: rehash_get(store._mem, c), cid)
            assert outcome(store.get, cid) == want, (seed, cid.hex())
