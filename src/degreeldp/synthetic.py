"""Seeded synthetic graphs with heavy-tailed degrees.

Hand-rolled preferential attachment (repeated-endpoints urn) rather
than an external generator, so a seed's graph rests only on this loop
and NumPy's `Generator` stream.  NumPy may change that stream between
versions; the pairs goldens in tests/test_synthetic.py and CI's
`degreeldp stats` check of the benchmark inputs would show it.
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
    check_count("seed", seed, least=0)
    if n < attach + 1:
        raise ValueError(f"need n > attach, got n={n}, attach={attach}")
    rng = np.random.default_rng(seed)
    urn: list[int] = []  # each edge's two ends in turn: a node once per incident edge
    core = attach + 1
    for i in range(core):
        for j in range(i + 1, core):
            urn += (i, j)
    for v in range(core, n):
        targets: set[int] = set()
        while len(targets) < attach:
            ## each pick adds at most one target, so one pick per call would
            ## draw at least this many more; a sized call with the same bound
            ## takes the same values from the stream as that many scalar calls
            targets.update([urn[k] for k in rng.integers(len(urn), size=attach - len(targets)).tolist()])
        for t in sorted(targets):
            urn += (t, v)
    return Graph(n, zip(urn[::2], urn[1::2]))
