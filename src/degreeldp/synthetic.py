"""Seeded synthetic graphs with heavy-tailed degrees.

Hand-rolled preferential attachment (repeated-endpoints urn) rather
than an external generator so that a seed pins the exact same graph
across library versions.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, check_count


def powerlaw_graph(n: int, attach: int = 4, seed: int = 0) -> Graph:
    """Preferential-attachment graph: each new node links to `attach` old ones.

    Starts from a clique on attach + 1 nodes; every later node draws
    `attach` distinct endpoints weighted by current degree.  Degrees
    follow the usual power-law-like tail.
    """
    check_count("attach", attach)
    if n < attach + 1:
        raise ValueError(f"need n > attach, got n={n}, attach={attach}")
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    urn: list[int] = []  # node id repeated once per incident edge
    core = attach + 1
    for i in range(core):
        for j in range(i + 1, core):
            edges.append((i, j))
            urn.append(i)
            urn.append(j)
    for v in range(core, n):
        targets: set[int] = set()
        while len(targets) < attach:
            targets.add(urn[int(rng.integers(len(urn)))])
        for t in sorted(targets):
            edges.append((t, v))
            urn.append(t)
            urn.append(v)
    return Graph(n, edges)
