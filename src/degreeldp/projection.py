"""Degree-bounded graph projection by edge addition or edge removal.

Addition strategies rebuild the graph from an empty edge set.  Nodes
take turns initiating: the initiator asks each not-yet-connected
neighbor whether it still has spare capacity (through randomized
response when the config carries PrivacyParams, truthfully otherwise),
estimates the number of willing neighbors, and connects to that many of
them in rank order.  An edge is established only while both endpoints
are below the degree bound theta, so the bound holds unconditionally.

The rank-scheduled strategies (lpea-low, lpea-high) share one schedule
rank: ascending (order, id), reversed for lpea-high.  A truthful run of
either has the same outcome as one greedy pass over the edges in
schedule order, and runs as that pass; it draws no randomness.  Private
runs and random-add keep the per-initiator loop and its order of draws.

The removal strategy instead visits nodes in random order and deletes
random incident edges (symmetrically) until no degree exceeds theta.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Graph, check_count
from .mechanisms import PrivacyParams, wrr_debias_count, wrr_truth_rate

## bench/tracing.py wraps projection.wrr_respond to count answers, so the name
## stays here though the negotiation draws its answers in bulk (_addition_run)
from .mechanisms import wrr_respond  # noqa: F401


class Strategy(enum.Enum):
    LPEA_LOW = "lpea-low"
    LPEA_HIGH = "lpea-high"
    RANDOM_ADD = "random-add"
    EDGE_REMOVE = "edge-remove"


@dataclass(frozen=True)
class ProjectionConfig:
    """Bound theta and strategy; a projection is private iff params is set."""

    theta: int
    strategy: Strategy = Strategy.LPEA_LOW
    params: PrivacyParams | None = None

    def __post_init__(self):
        if not isinstance(self.strategy, Strategy):
            raise ValueError(f"strategy must be a Strategy, got {self.strategy!r}")
        check_count("theta", self.theta)


class ProjectedGraph:
    """Mutable adjacency produced by a projection run.

    ``degrees`` is a list and ``neighbors`` a list of sets.  A graph made
    by the truthful edge scan holds its kept edges as arrays and builds
    the sets on the first read of ``neighbors``; the sets are then kept,
    so edits made through them stay visible.
    """

    __slots__ = ("n", "degrees", "_neighbors", "_kept")

    def __init__(self, n: int, neighbors: list[set[int]]):
        if len(neighbors) != n:
            raise ValueError(f"neighbors must have one set per node: {len(neighbors)} for n={n}")
        self.n = n
        self.degrees = [len(s) for s in neighbors]
        self._neighbors = neighbors
        self._kept = None

    @classmethod
    def _from_kept(cls, n: int, u: np.ndarray, v: np.ndarray) -> "ProjectedGraph":
        pg = cls.__new__(cls)
        pg.n = n
        pg.degrees = np.bincount(np.concatenate((u, v)), minlength=n).tolist()
        pg._neighbors = None
        pg._kept = (u, v)
        return pg

    @property
    def neighbors(self) -> list[set[int]]:
        if self._neighbors is None:
            nbrs: list[set[int]] = [set() for _ in range(self.n)]
            ## the sets share one int object per node, as sets of Graph.adj entries do
            node = list(range(self.n))
            u, v = self._kept
            for i, j in zip(memoryview(u), memoryview(v)):
                nbrs[i].add(node[j])
                nbrs[j].add(node[i])
            self._neighbors = nbrs
            self._kept = None
        return self._neighbors

    def edge_count(self) -> int:
        return sum(self.degrees) // 2


def _schedule_rank(orders: Sequence[int], strategy: Strategy) -> np.ndarray:
    """Each node's turn: ascending (order, id), reversed for lpea-high."""
    n = len(orders)
    rank = np.empty(n, dtype=np.int32)
    rank[np.lexsort((np.arange(n), np.asarray(orders)))] = np.arange(n, dtype=np.int32)
    if strategy is Strategy.LPEA_HIGH:
        rank = n - 1 - rank
    return rank


def _edge_scan(g: Graph, orders: Sequence[int], cfg: ProjectionConfig) -> ProjectedGraph:
    """Truthful rank-scheduled addition as one greedy pass over the edges.

    Edges run by (earlier endpoint's rank, later endpoint's rank) and are
    kept iff both endpoints are still below theta.  This is the
    per-initiator loop's outcome: each edge is decided at its earlier
    endpoint's turn, in that endpoint's neighbor-rank order, where
    taking the first theta - deg willing neighbors is the same
    both-below-theta test; degrees only grow, so an edge refused then
    stays refused at the later endpoint's turn.  A node of degree at
    most theta never fills before its last edge, so only edges with an
    endpoint above theta are scanned; the rest are kept outright.
    """
    n = g.n
    theta = cfg.theta
    rank = _schedule_rank(orders, cfg.strategy)
    ## orient each edge from the endpoint whose turn decides it
    a, b = g.pairs.T
    first = rank[a] < rank[b]
    u, v = np.where(first, a, b), np.where(first, b, a)
    contested = (g.degrees[u] > theta) | (g.degrees[v] > theta)
    cu, cv = u[contested], v[contested]
    by_turn = np.argsort(rank[cu].astype(np.int64) * n + rank[cv])
    cu, cv = cu[by_turn], cv[by_turn]
    deg = [0] * n
    keep = bytearray(cu.size)
    ## memoryview hands out each int as it is read; tolist would hold all of them at once
    for e, (i, j) in enumerate(zip(memoryview(cu), memoryview(cv))):
        if deg[i] < theta and deg[j] < theta:
            deg[i] += 1
            deg[j] += 1
            keep[e] = 1
    kept = np.frombuffer(keep, dtype=bool)
    free = ~contested
    return ProjectedGraph._from_kept(
        n, np.concatenate((u[free], cu[kept])), np.concatenate((v[free], cv[kept]))
    )


def _addition_run(
    g: Graph,
    order_of: Sequence[int] | None,
    cfg: ProjectionConfig,
    rng: np.random.Generator,
) -> ProjectedGraph:
    """Per-initiator engine for private runs and for random-add.

    order_of gives each node's scheduling rank (private order or true
    degree); None selects the uniform-random strategy.  Randomness is
    consumed in a fixed documented order: schedule first (random
    strategy only), then per initiator one rng.random(len(pending)) draw,
    a uniform per request in neighbor-rank order, then the responder draw
    (random strategy only).  Responder j answers yes iff its true bit
    "j's current degree < theta" equals u_j < rate, rate =
    wrr_truth_rate(budget): the answer wrr_respond gives on u_j.
    Truthful rank-scheduled runs do not come here: they are one edge
    scan (``_edge_scan``) and draw nothing.
    """
    n = g.n
    theta = cfg.theta
    strategy = cfg.strategy
    private = cfg.params is not None
    budget = cfg.params.negotiation_budget if private else 0.0
    rate = wrr_truth_rate(budget)

    if strategy is Strategy.RANDOM_ADD:
        schedule = [int(i) for i in rng.permutation(n)]
        ranked_adj = g.adj
    else:
        rank = _schedule_rank(order_of, strategy).tolist()
        schedule = sorted(range(n), key=rank.__getitem__)
        ranked_adj = [sorted(g.adj[i], key=rank.__getitem__) for i in range(n)]

    established: list[set[int]] = [set() for _ in range(n)]

    for i in schedule:
        est_i = established[i]
        pending = [j for j in ranked_adj[i] if j not in est_i]
        if not pending:
            continue
        if private:
            kept = (rng.random(len(pending)) < rate).tolist()
            willing = [j for j, keep in zip(pending, kept) if (len(established[j]) < theta) == keep]
            debiased = wrr_debias_count(len(pending), len(willing), budget)
            ## clamped before round: a tiny budget can make the estimate infinite
            count = round(min(max(debiased, 0), len(willing)))
        else:
            willing = [j for j in pending if len(established[j]) < theta]
            count = len(willing)
        count = min(count, theta - len(est_i))
        if count <= 0:
            continue
        if strategy is Strategy.RANDOM_ADD:
            picks = rng.choice(len(willing), size=count, replace=False)
            chosen = [willing[int(k)] for k in picks]
        else:
            chosen = willing[:count]
        for j in chosen:
            ## count <= theta - len(est_i) keeps i below theta; randomized answers can nominate a full
            ## j, and refusing it tells i the true bit "j's current degree < theta", outside the DP budget
            if len(established[j]) < theta:
                est_i.add(j)
                established[j].add(i)

    return ProjectedGraph(n, established)


def lpea_low(g: Graph, orders: Sequence[int], cfg: ProjectionConfig, rng: np.random.Generator) -> ProjectedGraph:
    """Edge addition scheduled low-order-first; ties broken by node id.

    Initiators run in ascending (order, id) and connect to their
    lowest-ranked willing neighbors first, which favors nodes that can
    least afford to lose edges.  The paper's method under its own name;
    cfg must name it.
    """
    if cfg.strategy is not Strategy.LPEA_LOW:
        raise ValueError(f"lpea_low runs the lpea-low strategy, got {cfg.strategy.value}")
    return project(g, cfg, rng, orders=orders)


def edge_remove(g: Graph, cfg: ProjectionConfig, rng: np.random.Generator) -> ProjectedGraph:
    """Delete random incident edges until every degree is at most theta.

    Nodes are visited in a uniform random permutation; each over-bound
    node removes uniformly chosen incident edges, which also lowers the
    other endpoint's degree.
    """
    n = g.n
    theta = cfg.theta
    established: list[set[int]] = [set(g.adj[i]) for i in range(n)]
    for i in rng.permutation(n).tolist():
        excess = len(established[i]) - theta
        if excess <= 0:
            continue
        current = sorted(established[i])
        for k in rng.choice(len(current), size=excess, replace=False).tolist():
            j = current[k]
            established[i].discard(j)
            established[j].discard(i)
    ## a set keeps its table when it shrinks: swap in copies sized to what is left, one at a time
    for i, nbrs in enumerate(established):
        established[i] = set(nbrs)
    return ProjectedGraph(n, established)


def project(
    g: Graph,
    cfg: ProjectionConfig,
    rng: np.random.Generator,
    orders: Sequence[int] | None = None,
) -> ProjectedGraph:
    """Run the configured strategy.

    The two rank-scheduled strategies need per-node orders (private
    encodings, or true degrees in non-private mode); lpea-high runs the
    schedule rank reversed, so high-order nodes go first.  A truthful
    (params None) rank-scheduled run is one edge scan and draws nothing
    from rng.  random-add draws a uniform schedule and uniform responders;
    edge-remove deletes excess edges instead of adding.
    """
    if cfg.strategy is Strategy.EDGE_REMOVE:
        return edge_remove(g, cfg, rng)
    if cfg.strategy is Strategy.RANDOM_ADD:
        return _addition_run(g, None, cfg, rng)
    if orders is None:
        raise ValueError(f"{cfg.strategy.value} requires per-node orders")
    if len(orders) != g.n:
        raise ValueError(f"orders must cover all {g.n} nodes, got {len(orders)}")
    if cfg.params is None:
        return _edge_scan(g, orders, cfg)
    return _addition_run(g, orders, cfg, rng)


def projection_error(g: Graph, pg: ProjectedGraph) -> tuple[np.ndarray, int]:
    """Per-node absolute degree loss and its total."""
    if pg.n != g.n:
        raise ValueError("projected graph has a different node set")
    loss = np.abs(g.degrees - np.array(pg.degrees))
    return loss, int(loss.sum())

