import concurrent.futures

import numpy as np
import pytest

from cosetwalk import coarse
from cosetwalk import examples as ex


@pytest.fixture(scope="session")
def g1_flat():
    """Class I at (n, m) = (1, 0): the exactly flat member."""
    return ex.g1_walk(ex.G1Params("I", 1.0, 0.0, 1))


@pytest.fixture(scope="session")
def g1_massive():
    """Class II at (n, m) = (0.6, 0.8): effective weight 0.6."""
    return ex.g1_walk(ex.G1Params("II", 0.6, 0.8, 1))


@pytest.fixture(scope="session")
def g2_one():
    return ex.g2_walk("I")


@pytest.fixture(scope="session")
def g2_two():
    return ex.g2_walk("II")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture()
def cores(monkeypatch):
    """Set the cores ``coarse.map_kchunks`` and ``evolve.evolve`` see as available to this process."""

    def set_cores(count):
        monkeypatch.setattr(coarse.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return set_cores


@pytest.fixture()
def pools(monkeypatch):
    """Worker counts of the thread pools ``coarse.map_kchunks`` and ``evolve.evolve`` start."""
    started = []
    executor = concurrent.futures.ThreadPoolExecutor

    def recording(workers):
        started.append(workers)
        return executor(workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
    return started
