"""The stdlib kernels: the u64 wire layout and range windows."""
from hypothesis import given, strategies as st

from chainquery import _kernels

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


def test_pack_layout():
    assert _kernels.pack_u64_pairs([(1, 2)]) == (
        b"\x00\x00\x00\x01" + (1).to_bytes(8, "big") + (2).to_bytes(8, "big"))
    assert _kernels.pack_u64_list([5, (1 << 64) - 1]) == (
        b"\x00\x00\x00\x02" + (5).to_bytes(8, "big") + b"\xff" * 8)
    assert _kernels.pack_u64_list([]) == b"\x00\x00\x00\x00"


@given(st.lists(st.tuples(u64, u64), max_size=50))
def test_pack_matches_per_value_encoding(pairs):
    flat = [v for pair in pairs for v in pair]
    assert _kernels.pack_u64_list(flat) == (
        len(flat).to_bytes(4, "big")
        + b"".join(v.to_bytes(8, "big") for v in flat))
    assert _kernels.pack_u64_pairs(pairs) == (
        len(pairs).to_bytes(4, "big") + _kernels.pack_u64_list(flat)[4:])


@given(st.lists(st.integers(0, 100), max_size=60),
       st.integers(-5, 105), st.integers(-5, 105))
def test_range_bounds_matches_linear_scan(keys, lo, hi):
    keys.sort()
    i, j = _kernels.range_bounds(keys, lo, hi)
    assert keys[i:j] == [k for k in keys if lo <= k <= hi]
    assert all(k < lo for k in keys[:i])
    assert all(k > hi for k in keys[j:])

