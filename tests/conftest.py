import concurrent.futures

import numpy as np
import pytest
from hypothesis import settings

from chslab.spectral import Grid

# property tests do real FFT work per example, so no deadline
settings.register_profile("lab", deadline=None, max_examples=40)
settings.load_profile("lab")


@pytest.fixture
def circle():
    """Unit circle at modest resolution, the workhorse for oracle tests."""
    return Grid(64, 2.0 * np.pi)


@pytest.fixture
def circle_fine():
    return Grid(256, 2.0 * np.pi)


@pytest.fixture
def line():
    """Long domain matching the default solver setup."""
    return Grid(256, 64.0)


@pytest.fixture
def pools(monkeypatch):
    """max_workers of every process pool built while the test runs."""
    built = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return built
