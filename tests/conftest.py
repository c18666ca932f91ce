import numpy as np
import pytest

from helpers import random_hermitian


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def rand_herm(dim, rng, scale=1.0):
    return random_hermitian(dim, rng, scale=scale)
