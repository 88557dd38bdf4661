import random

import pytest

from equilines import two_graph_group
from equilines.battery import EXTENSIONS, extension, random_graph  # noqa: F401


@pytest.fixture(scope="session")
def extensions():
    return {n: extension(base) for n, base in EXTENSIONS.items()}


@pytest.fixture(scope="session")
def two_graph_groups(extensions):
    return {n: two_graph_group(g) for n, g in extensions.items()}


@pytest.fixture(scope="session")
def paley_extensions():
    return {q: extension(f"paley:{q}") for q in (5, 9, 13)}


@pytest.fixture
def rng():
    return random.Random(20260810)
