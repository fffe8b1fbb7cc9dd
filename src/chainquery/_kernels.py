"""Hot-loop kernels: byte packing, range scans, merkle level folding.

Both indexes commit id lists in the u64 layout packed here.  The stdlib is
imported as modules, not names, so this namespace holds only the kernels.
"""
import bisect
import hashlib
import itertools
import struct


def pack_u64_pairs(pairs):
    """4-byte BE count, then each (a, b) as two 8-byte BE integers."""
    n = len(pairs)
    return struct.pack(f">I{2 * n}Q", n,
                       *itertools.chain.from_iterable(pairs))


def pack_u64_list(values):
    """4-byte BE count, then each value as an 8-byte BE integer."""
    n = len(values)
    return struct.pack(f">I{n}Q", n, *values)


def range_bounds(sorted_keys, lo, hi):
    """Half-open index window [i, j) of keys with lo <= key <= hi."""
    return (bisect.bisect_left(sorted_keys, lo),
            bisect.bisect_right(sorted_keys, hi))


def merkle_level(nodes, domain):
    """Fold one merkle level: hash adjacent pairs, promote an odd tail."""
    prefix = bytes([domain]) + b"\x01"
    out = []
    n = len(nodes)
    for i in range(0, n - 1, 2):
        out.append(hashlib.sha256(prefix + nodes[i] + nodes[i + 1]).digest())
    if n % 2:
        out.append(nodes[-1])
    return out
