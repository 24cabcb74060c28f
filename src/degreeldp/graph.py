"""Undirected graph loading and basic statistics.

Graphs are read from plain edge lists: one edge per line, two
whitespace-separated node labels, lines starting with '#' ignored.
Node labels are remapped to contiguous internal ids 0..n-1 in order of
first appearance.  The ``Graph`` constructor is the one place that drops
self-loops (the endpoint still counts as a node) and merges duplicate
edges.  It builds a graph's sorted neighbor lists and, once, two
read-only arrays: the edge pairs and the degrees, which projections and
statistics read instead of walking the lists.  ``edges`` derives the
edges from the lists, in an order that writes out and reloads to the
same ids.
"""

from __future__ import annotations

import gzip
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable, Iterator

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
        adj: per-node neighbor lists, each sorted by internal id.
        labels: internal id -> original external label.
        pairs: read-only int32 array of shape (m, 2), each edge once with
            the lower id first, in the order of first appearance.
        degrees: read-only int32 array of length n.
    """

    __slots__ = ("n", "m", "adj", "labels", "pairs", "degrees")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], labels: list[str] | None = None):
        """Build from integer id pairs, dropping self-loops and merging duplicates."""
        if labels is None:
            labels = [str(i) for i in range(n)]
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

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (i, j) pairs with i < j, by j ascending and then i descending.

        Written out in this order, the edges reload to the same ids: each
        node's label first appears in the order of its id.
        """
        for j, nbrs in enumerate(self.adj):
            for i in reversed(nbrs[: bisect_left(nbrs, j)]):
                yield i, j

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self.edges())

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
    labels: list[str] = []
    pairs: list[tuple[int, int]] = []

    def intern(label: str) -> int:
        node = id_map.get(label)
        if node is None:
            node = len(labels)
            id_map[label] = node
            labels.append(label)
        return node

    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"line {lineno}: expected two node labels, got {len(parts)} tokens")
        pairs.append((intern(parts[0]), intern(parts[1])))

    return Graph(len(labels), pairs, labels)


def write_edge_list(g: Graph, sink: IO[str]) -> None:
    """Serialize a graph so that reloading reproduces the identical internal structure.

    Edges are written in the order of ``Graph.edges`` with original labels,
    which preserves the id assignment on reload.  Degree-zero nodes
    (possible only via self-loop-only input) cannot be expressed in an edge
    list and are lost.
    """
    for i, j in g.edges():
        sink.write(f"{g.labels[i]} {g.labels[j]}\n")


def load_graph(path: str) -> Graph:
    """Load an edge list from a file path, transparently decompressing .gz."""
    if path.endswith(".gz"):
        with gzip.open(path, "rt") as fh:
            return load_edge_list(fh)
    with open(path, "r") as fh:
        return load_edge_list(fh)


def degree_sequence(g: Graph) -> list[int]:
    """Per-node degrees indexed by internal id."""
    return g.degrees.tolist()


def stats(g: Graph) -> GraphStats:
    """Degree summary; the node and edge counts are Graph.n and Graph.m. Errors on an empty graph."""
    if g.n == 0:
        raise ValueError("stats undefined for an empty graph")
    return GraphStats(d_min=int(g.degrees.min()), d_max=int(g.degrees.max()), d_avg=2.0 * g.m / g.n)
