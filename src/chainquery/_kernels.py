"""Hot-loop kernels: byte packing and range scans.

Both indexes commit id lists in the u64 layout packed here.  The stdlib is
imported as modules, not names, so this namespace holds only the kernels.
"""
import bisect
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

