import numpy as np
import pytest

from qdarwin import DensityMatrix, StateVector


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def ghz4():
    from qdarwin import ghz_state

    return ghz_state(4)


def as_state(array) -> StateVector:
    return StateVector(np.asarray(array, dtype=complex))


def as_density(array) -> DensityMatrix:
    return DensityMatrix(np.asarray(array, dtype=complex))
