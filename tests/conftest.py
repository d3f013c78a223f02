import numpy as np
import pytest
from hypothesis import settings

from graphprox import WeightedGraph, builtin_graph

from oracles import pin_corpus

# Tier-1 draws the same examples on every run, so that a failure there is
# reproducible rather than flaky. The "explore" profile draws fresh ones,
# ten times as many for a test that leaves its count to the profile:
#     pytest tests/test_cli_fuzz.py --hypothesis-profile=explore
settings.register_profile("tier1", derandomize=True, database=None, max_examples=60)
settings.register_profile("explore", derandomize=False, database=None, max_examples=600)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def path4():
    return builtin_graph("paper:path4")


@pytest.fixture(scope="session")
def path5():
    return builtin_graph("paper:path5")


@pytest.fixture(scope="session")
def triangle():
    w = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
    return WeightedGraph(w, name="triangle")


@pytest.fixture(scope="session")
def cycle4():
    w = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=float)
    return WeightedGraph(w, name="cycle4")


@pytest.fixture(scope="session")
def corpus():
    """oracles.pin_corpus(): the paper paths, the unit triangle and 20
    seeded random connected graphs, the graphs the report dump reads."""
    return pin_corpus()
