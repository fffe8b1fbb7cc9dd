"""Hot-loop kernel: the index window of a key range in sorted keys.

bisect is imported as a module, not by name, so this namespace holds only
the kernel.
"""
import bisect


def range_bounds(sorted_keys, lo, hi):
    """Half-open index window [i, j) of keys with lo <= key <= hi."""
    return (bisect.bisect_left(sorted_keys, lo),
            bisect.bisect_right(sorted_keys, hi))
