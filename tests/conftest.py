import io
import os

import numpy as np
import pytest

from degreeldp.graph import Graph, load_edge_list

## 4-node worked example used across the protocol tests:
## edges A-B, B-C, B-D, A-C; ids A=0, B=1, C=2, D=3; degrees [2, 3, 2, 1]
FIG_EDGE_LIST = "A B\nB C\nB D\nA C\n"

FACEBOOK_CANDIDATES = ("facebook_combined.txt", "facebook_combined.txt.gz")


@pytest.fixture
def fig_graph() -> Graph:
    return load_edge_list(io.StringIO(FIG_EDGE_LIST))


def find_facebook() -> str | None:
    """Locate the SNAP ego-Facebook edge list if the user has fetched it."""
    search: list[str] = []
    env = os.environ.get("LDP_DEGREE_DATA_DIR")
    if env:
        search.append(env)
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    search.append(os.path.join(here, "data"))
    for root in search:
        for name in FACEBOOK_CANDIDATES:
            path = os.path.join(root, name)
            if os.path.isfile(path):
                return path
    return None


@pytest.fixture
def facebook_graph() -> Graph:
    path = find_facebook()
    if path is None:
        pytest.skip(
            "SNAP facebook_combined dataset not found; "
            "run scripts/fetch_datasets.py or set LDP_DEGREE_DATA_DIR"
        )
    from degreeldp.graph import load_graph

    return load_graph(path)


def edge_set(g) -> set[tuple[int, int]]:
    """Each edge of a Graph or a ProjectedGraph once, as (i, j) with i < j, read from its adjacency."""
    nbrs = g.adj if isinstance(g, Graph) else g.neighbors
    return {(i, j) for i in range(g.n) for j in nbrs[i] if i < j}


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Erdos-Renyi style helper for property tests."""
    mask = rng.random((n, n)) < p
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
    return Graph(n, edges)
