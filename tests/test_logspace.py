import math

from hypothesis import given, strategies as st

from attractorlab.logspace import LogModeVector, NEG_INF

finite_vals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                        allow_infinity=False).filter(lambda v: v == 0.0 or abs(v) > 1e-12)


@given(st.lists(finite_vals, min_size=1, max_size=12))
def test_dense_round_trip(values):
    vec = LogModeVector.from_dense(values)
    assert vec.entries == {k + 1: (1 if v > 0 else -1, math.log(abs(v)))
                           for k, v in enumerate(values) if v != 0.0}


def test_sign_zero_iff_absent():
    vec = LogModeVector({3: (1, -2.0), 5: (0, -1.0), 7: (1, NEG_INF)})
    assert vec.indices() == [3]
    assert vec.entries == {3: (1, -2.0)}


def test_scaled_shifts_every_log():
    vec = LogModeVector.from_dense([1.0, -2.0, 0.0])
    assert vec.scaled(math.log(2.0)).entries == {
        1: (1, math.log(2.0)), 2: (-1, math.log(2.0) + math.log(2.0))}
    assert vec.scaled(-5000.0).entries == {1: (1, -5000.0), 2: (-1, math.log(2.0) - 5000.0)}
