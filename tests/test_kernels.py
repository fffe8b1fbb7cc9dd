"""The stdlib kernel: range windows."""
from hypothesis import given, strategies as st

from chainquery import _kernels


@given(st.lists(st.integers(0, 100), max_size=60),
       st.integers(-5, 105), st.integers(-5, 105))
def test_range_bounds_matches_linear_scan(keys, lo, hi):
    keys.sort()
    i, j = _kernels.range_bounds(keys, lo, hi)
    assert keys[i:j] == [k for k in keys if lo <= k <= hi]
    assert all(k < lo for k in keys[:i])
    assert all(k > hi for k in keys[j:])

