"""Undirected graph loading and basic statistics.

Graphs are read from plain edge lists: one edge per line, two
whitespace-separated node labels, lines starting with '#' ignored.
Node labels are remapped to contiguous internal ids 0..n-1 in order of
first appearance on a line that is not a self-loop; labels seen only on
self-loops take the last ids.  The ``Graph`` constructor is the one
place that drops self-loops (the endpoint still counts as a node) and
merges duplicate edges.  It builds a graph's sorted neighbor lists and,
once, two read-only arrays: the edge pairs and the degrees, which
projections and statistics read instead of the lists.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np


class EdgeListParseError(ValueError):
    """Raised for a malformed edge-list line; message carries the line number."""


def check_count(name: str, value, least: int = 1) -> None:
    """The one check of a count parameter: an int or NumPy integer, not a bool, of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be at least {least} and an integer, got {value!r} ({type(value).__name__})")


class Graph:
    """Immutable undirected graph over internal ids 0..n-1.

    Attributes:
        n: number of nodes.
        m: number of distinct undirected edges.
        adj: per-node neighbor lists, each sorted by internal id; no projection reads them.
        labels: internal id -> original external label.
        pairs: read-only int32 array of shape (m, 2), each edge once with
            the lower id first, in the order of first appearance.
        degrees: read-only int32 array of length n.
    """

    __slots__ = ("n", "m", "adj", "labels", "pairs", "degrees")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], labels: list[str] | None = None):
        """Build from integer id pairs, dropping self-loops and merging duplicates."""
        check_count("n", n, least=0)
        labels = [str(i) for i in range(n)] if labels is None else labels
        if len(labels) != n:
            raise ValueError("labels must have one entry per node")
        ## a dict keeps input order; a set would hand each node's sort a
        ## scrambled list, which sorts slower
        kept: dict[tuple[int, int], None] = {}
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            if i != j:
                kept[(i, j) if i < j else (j, i)] = None
        adj: list[list[int]] = [[] for _ in range(n)]
        for i, j in kept:
            adj[i].append(j)
            adj[j].append(i)
        for nbrs in adj:
            nbrs.sort()
        pairs = np.fromiter(chain.from_iterable(kept), dtype=np.int32, count=2 * len(kept)).reshape(-1, 2)
        degrees = np.bincount(pairs.ravel(), minlength=n).astype(np.int32)
        pairs.flags.writeable = False
        degrees.flags.writeable = False
        self.n = n
        self.m = len(kept)
        self.adj = adj
        self.labels = labels
        self.pairs = pairs
        self.degrees = degrees

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class GraphStats:
    d_min: int
    d_max: int
    d_avg: float


def load_edge_list(source: Iterable[str]) -> Graph:
    """Parse an edge-list text stream into a Graph.

    Args:
        source: iterable of lines (an open text file works).

    Raises:
        EdgeListParseError: if a non-comment line does not contain
            exactly two tokens, with the 1-based line number.
    """
    id_map: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    loops: list[str] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"line {lineno}: expected two node labels, got {len(parts)} tokens")
        if parts[0] == parts[1]:
            loops.append(parts[0])
            continue
        ## setdefault hands a new label the next id, in first-appearance order
        pairs.append(tuple(id_map.setdefault(label, len(id_map)) for label in parts))
    ## labels map released degrees back to nodes, and ids break the schedule's ties, so a
    ## self-loop moves no id: labels seen only on self-loops are degree-0 nodes and take the last ids
    pairs += [(id_map.setdefault(label, len(id_map)),) * 2 for label in loops]
    return Graph(len(id_map), pairs, list(id_map))


def load_graph(path: str) -> Graph:
    """Load an edge list from a file path, transparently decompressing .gz."""
    with (gzip.open if path.endswith(".gz") else open)(path, "rt") as fh:
        return load_edge_list(fh)


def degree_sequence(g: Graph) -> list[int]:
    """Per-node degrees indexed by internal id."""
    return g.degrees.tolist()


def stats(g: Graph) -> GraphStats:
    """Degree summary; the node and edge counts are Graph.n and Graph.m. Errors on an empty graph."""
    if g.n == 0:
        raise ValueError("stats undefined for an empty graph")
    return GraphStats(d_min=int(g.degrees.min()), d_max=int(g.degrees.max()), d_avg=2.0 * g.m / g.n)
