"""``NumericGuard.check_values`` scans a float ndarray in NumPy; its
report must equal the element walk's, field for field."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience.guard import NumericGuard

FLAGS = [(True, False), (True, True), (False, True), (False, False)]

cells = st.lists(
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0]),
    ),
    max_size=40,
)


@pytest.mark.parametrize("nan_fatal,inf_fatal", FLAGS)
@given(values=cells)
@settings(max_examples=60, deadline=None)
def test_array_report_equals_element_walk(values, nan_fatal, inf_fatal):
    guard = NumericGuard(nan_fatal=nan_fatal, inf_fatal=inf_fatal)
    walked = guard.check_values(list(values), where="w")
    scanned = guard.check_values(np.asarray(values, dtype=np.float64), where="w")
    assert scanned == walked
    assert all(type(c) is int for c in scanned.bad_cells)


@pytest.mark.parametrize("nan_fatal,inf_fatal", FLAGS)
def test_lists_generators_and_arrays_agree(nan_fatal, inf_fatal):
    guard = NumericGuard(nan_fatal=nan_fatal, inf_fatal=inf_fatal)
    values = [1.0, math.nan, 3, math.inf, "x", -math.inf, math.nan]
    from_list = guard.check_values(values)
    from_gen = guard.check_values(v for v in values)
    assert from_list == from_gen
    assert (from_list.checked, from_list.nan_count, from_list.inf_count) == (
        7, 2, 2,
    )
    floats = [v for v in values if isinstance(v, float)]
    assert guard.check_values(np.asarray(floats)) == guard.check_values(floats)
