"""Shared fixtures: the hypothesis profile and the standard parameters."""

import numpy as np
import pytest
from hypothesis import settings

from symsector.geometry import SteinParams

settings.register_profile("package", deadline=None, max_examples=25)
settings.load_profile("package")


@pytest.fixture(scope="session")
def pure16():
    return SteinParams(alpha=1.5, epsilon=16.0, smoothing="pure")


@pytest.fixture(scope="session")
def cutoff16():
    return SteinParams(alpha=1.5, epsilon=16.0, smoothing="cutoff")


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
