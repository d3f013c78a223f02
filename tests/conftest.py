import numpy as np
import pytest
from hypothesis import settings

from graphprox import WeightedGraph, build_matrices, builtin_graph

from oracles import random_connected_graph

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
def path4_gm(path4):
    return build_matrices(path4)


@pytest.fixture(scope="session")
def path5():
    return builtin_graph("paper:path5")


@pytest.fixture(scope="session")
def path5_gm(path5):
    return build_matrices(path5)


@pytest.fixture(scope="session")
def triangle():
    w = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
    return WeightedGraph(3, w, name="triangle")


@pytest.fixture(scope="session")
def triangle_gm(triangle):
    return build_matrices(triangle)


@pytest.fixture(scope="session")
def cycle4():
    w = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=float)
    return WeightedGraph(4, w, name="cycle4")


@pytest.fixture(scope="session")
def cycle4_gm(cycle4):
    return build_matrices(cycle4)


@pytest.fixture(scope="session")
def corpus(path4, path5, triangle):
    """path4, path5, the unit triangle, and 20 seeded random connected
    graphs with n <= 7 and weights in (0, 3]."""
    rng = np.random.default_rng(20260808)
    graphs = [path4, path5, triangle]
    for idx in range(20):
        n = 3 + idx % 5  # sizes 3..7
        graphs.append(random_connected_graph(rng, n, name=f"random{idx}"))
    return [(g, build_matrices(g)) for g in graphs]
