import random

import pytest

from erbimatch import SimilarityGraph
from erbimatch.reference import reference_graph


@pytest.fixture
def g_ref() -> SimilarityGraph:
    return reference_graph()


def make_random_graph(rng: random.Random, max_side: int = 20,
                      density: float = 0.4, *, weight_grid: int | None = None,
                      spare: int = 0) -> SimilarityGraph:
    """Random bipartite graph; weight_grid snaps weights to k levels to force
    ties, and each side gets up to ``spare`` extra isolated nodes."""
    n1 = rng.randint(1, max_side)
    n2 = rng.randint(1, max_side)
    edges = []
    for i in range(n1):
        for j in range(n2):
            if rng.random() < density:
                w = rng.random()
                if weight_grid:
                    w = round(w * weight_grid) / weight_grid
                edges.append((i, j, w))
    if spare:
        n1 += rng.randint(0, spare)
        n2 += rng.randint(0, spare)
    return SimilarityGraph(n1, n2, edges)


def assert_same_graph(a: SimilarityGraph, b: SimilarityGraph) -> None:
    """Equal partition sizes, id tables and edge arrays, bit for bit."""
    assert (a.left_count, a.right_count) == (b.left_count, b.right_count)
    assert (a.left_ids, a.right_ids) == (b.left_ids, b.right_ids)
    for x, y in ((a.lefts, b.lefts), (a.rights, b.rights),
                 (a.weights, b.weights)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
