"""Log-magnitude encoding of sampled states: trajectory_rows writes each
nonzero entry k of a state as (mode k + 1, sign, log|v| + the sample's log
norm), and a zero state as one (0, 0, -inf) placeholder row."""
import math
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, strategies as st

from attractorlab.geometry import NEG_INF
from attractorlab.reports import trajectory_rows

finite_vals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                        allow_infinity=False).filter(lambda v: v == 0.0 or abs(v) > 1e-12)


def rows_of(values, logscale):
    log = SimpleNamespace(times=[0.5], lognorms=[logscale], states=[np.array(values)])
    rows = list(trajectory_rows(log))
    assert all(type(r[1]) is int and type(r[2]) is int for r in rows)  # written as ints
    return rows


@given(st.lists(finite_vals, min_size=1, max_size=12),
       st.sampled_from([0.0, math.log(2.0), -5000.0]))
@example([0.0, 0.0], -5000.0)  # a zero state writes the placeholder row
def test_dense_round_trip(values, logscale):
    want = [(0.5, k + 1, 1 if v > 0 else -1, math.log(abs(v)) + logscale)
            for k, v in enumerate(values) if v != 0.0]
    assert rows_of(values, logscale) == (want or [(0.5, 0, 0, NEG_INF)])


def test_scaled_shifts_every_log():
    assert rows_of([1.0, -2.0, 0.0], math.log(2.0)) == [
        (0.5, 1, 1, math.log(2.0)), (0.5, 2, -1, math.log(2.0) + math.log(2.0))]
    assert rows_of([1.0, -2.0, 0.0], -5000.0) == [
        (0.5, 1, 1, -5000.0), (0.5, 2, -1, math.log(2.0) - 5000.0)]
