"""Shared test fixtures and path builders."""
from __future__ import annotations

import numpy as np
import pytest

from gammasig import Alphabet, SamplePath, path_rng


def make_random_path(rng: np.random.Generator, n: int, d: int,
                     scale: float = 1.0) -> SamplePath:
    """Random path on a random strictly increasing grid in [0, 1]."""
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 1.0, size=n))])
    while np.any(np.diff(times) <= 0):
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 1.0, size=n))])
    values = np.cumsum(rng.normal(0.0, scale, size=(n + 1, d)), axis=0)
    values[0] = rng.normal(0.0, scale, size=d)
    return SamplePath(times, values, Alphabet(d))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session", autouse=True)
def warm_numpy_random() -> None:
    """Build one Philox stream before any test: the first that a process
    builds imports ``numpy.random``'s pickling support, whose memory would
    otherwise count towards whichever ``tracemalloc`` peak guard runs
    first."""
    path_rng(0, 0)
