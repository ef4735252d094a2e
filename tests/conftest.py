"""Shared fixtures for the test suite."""

import os

import pytest

from tests.helpers import make_mlp_trainer  # noqa: F401 (re-export)
from repro.storage import CheckpointStore, InMemoryBackend
from repro.utils.rng import Rng


@pytest.fixture(autouse=True, scope="session")
def _flight_dumps_in_tmp(tmp_path_factory):
    """Keep fail-stop flight-recorder dumps out of the system tmpdir."""
    os.environ.setdefault("REPRO_FLIGHT_DIR",
                          str(tmp_path_factory.mktemp("flight")))


@pytest.fixture
def rng():
    return Rng(1234)


@pytest.fixture
def store():
    return CheckpointStore(InMemoryBackend())


@pytest.fixture
def mlp_trainer():
    return make_mlp_trainer()
