import numpy as np
import pytest

from attractorlab.cutoffs import periodic_drive
from attractorlab.floquet import make_periodic_operator, poincare_predicted
from attractorlab.spectral import make_spectrum


@pytest.fixture(scope="session")
def linear_spectrum_big():
    return make_spectrum("linear", {"c": 1.0}, 300)


@pytest.fixture(scope="session")
def shift_t1(linear_spectrum_big):
    return poincare_predicted(linear_spectrum_big, 1.0)


@pytest.fixture(scope="session")
def operator_t2():
    spec = make_spectrum("linear", {"c": 1.0}, 12)
    drive = periodic_drive(1.0, 2.0, 0.75)
    return make_periodic_operator(spec, drive, 12)


@pytest.fixture(scope="session")
def one_column_rhs():
    """Builder of the one-column rhs that `PeriodicOperator.tabulated_rhs`
    returned before it took only column batches: Phi(t) u with the
    coefficients on the stage grid np.linspace(t0, t1, 2 steps + 1), the
    stage read as round((t - t0) / (h / 2)).  The oracles step vectors and
    dense matrices with it."""

    def build(op, t0, t1, steps):
        dm, rm, dp, rp = op._templates
        stages = 2 * steps
        tm, r1m, tp, r1p = op._coefficients(np.linspace(t0, t1, stages + 1))
        half = (t1 - t0) / stages

        def rhs(t, u):
            k = int(round((t - t0) / half))
            return tm[k] * (dm @ u) + r1m[k] * (rm @ u) + tp[k] * (dp @ u) + r1p[k] * (rp @ u)

        return rhs

    return build
