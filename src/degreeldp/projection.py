"""Degree-bounded graph projection by edge addition or edge removal.

Addition strategies rebuild the graph from an empty edge set.  Nodes
take turns initiating: the initiator asks each not-yet-connected
neighbor whether it still has spare capacity (through randomized
response when the config carries PrivacyParams, truthfully otherwise),
estimates the number of willing neighbors, and connects to that many of
them in rank order.  An edge is established only while both endpoints
are below the degree bound theta, so the bound holds unconditionally.

One schedule gives every addition run its turns: ascending (order, id)
for lpea-low, reversed for lpea-high, uniform for random-add.  Every
truthful run is one greedy pass over the edges in schedule order, which
ends where the per-initiator loop ends (for random-add, in
distribution); only random-add's pass draws randomness.  Private runs
keep the per-initiator loop and its order of draws, over sorted edge ends.

The removal strategy visits nodes in random order and deletes random
incident edges until no degree exceeds theta, as one pass over edge ends:
every projection is a pass over Graph.pairs and reads no neighbor lists.
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

    ``degrees`` is a list and ``neighbors`` a list of sets.  A projection
    keeps its kept edges as arrays and builds the sets on their first read,
    then keeps them, so edits stay visible; the constructor takes sets as given.
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
            ## the sets share one int object per node
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


def _schedule(n: int, orders: Sequence[int] | None, strategy: Strategy, rng: np.random.Generator) -> np.ndarray:
    """The nodes in turn order: uniform for random-add, else ascending (order, id), reversed for lpea-high."""
    if strategy is Strategy.RANDOM_ADD:
        return rng.permutation(n)
    turns = np.argsort(np.asarray(orders), kind="stable")
    return turns[::-1] if strategy is Strategy.LPEA_HIGH else turns


def _edge_scan(g: Graph, schedule: np.ndarray, cfg: ProjectionConfig, rng: np.random.Generator) -> ProjectedGraph:
    """Truthful addition as one greedy pass over the edges.

    Edges run by their earlier endpoint's turn and are kept iff both
    endpoints are still below theta.  This is the per-initiator loop's
    outcome: each edge is decided at its earlier endpoint's turn, where
    taking theta - deg of the willing neighbors is the same
    both-below-theta test; degrees only grow, so an edge refused then
    stays refused at the later endpoint's turn.  Within a turn, edges
    run by the later endpoint's rank; random-add instead draws one
    permutation of the scanned edges, a uniform order of each
    initiator's neighbors that gives the loop's uniform pick.  A node of
    degree at most theta never fills before its last edge, so only edges
    with an endpoint above theta are scanned; the rest are kept outright.
    """
    n = g.n
    theta = cfg.theta
    rank = np.empty(n, dtype=np.int64)
    rank[schedule] = np.arange(n)
    ## orient each edge from the endpoint whose turn decides it
    a, b = g.pairs.T
    first = rank[a] < rank[b]
    u, v = np.where(first, a, b), np.where(first, b, a)
    contested = (g.degrees[u] > theta) | (g.degrees[v] > theta)
    cu, cv = u[contested], v[contested]
    if cfg.strategy is Strategy.RANDOM_ADD:
        by_turn = np.argsort(rank[cu] * cu.size + rng.permutation(cu.size))
    else:
        by_turn = np.argsort(rank[cu] * n + rank[cv])
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


def _addition_run(g: Graph, schedule: np.ndarray, cfg: ProjectionConfig, rng: np.random.Generator) -> ProjectedGraph:
    """The private negotiation: the per-initiator loop, run in schedule order.

    An initiator's run of the edge ends, sorted by (turn, neighbor rank;
    id for random-add), lists the neighbors it asks, less edges already
    live.  Randomness is consumed in a fixed documented order after the
    schedule: per initiator one rng.random(len(pending)) draw, a uniform
    per request, then the responder draw (random-add only).  Responder j
    answers yes iff its true bit "j's current degree < theta" equals
    u_j < rate, rate = wrr_truth_rate(budget): the answer wrr_respond
    gives on u_j.  Truthful runs are one edge scan (``_edge_scan``).
    """
    n = g.n
    theta = cfg.theta
    strategy = cfg.strategy
    budget = cfg.params.negotiation_budget
    rate = wrr_truth_rate(budget)
    rank = np.argsort(schedule)
    ## end k is at node ends[k] on edge k >> 1, whose other end is k ^ 1
    ends = g.pairs.ravel()
    asks = ends[np.arange(ends.size) ^ 1]
    at = np.argsort(rank[ends] * n + (asks if strategy is Strategy.RANDOM_ADD else rank[asks]))
    nbr, edge = memoryview(asks[at]), memoryview(at >> 1)
    deg, live = [0] * n, bytearray(g.m)
    start = 0
    for i, stop in zip(schedule.tolist(), np.cumsum(g.degrees[schedule]).tolist()):
        ## one initiator's ints at a time (whole-array lists would hold them all), kept by position in its run
        js, es = nbr[start:stop].tolist(), edge[start:stop].tolist()
        start = stop
        pending = [k for k, e in enumerate(es) if not live[e]]
        if not pending:
            continue
        kept = (rng.random(len(pending)) < rate).tolist()
        willing = [k for k, keep in zip(pending, kept) if (deg[js[k]] < theta) == keep]
        debiased = wrr_debias_count(len(pending), len(willing), budget)
        ## clamped before round: a tiny budget can make the estimate infinite
        count = round(min(max(debiased, 0), len(willing)))
        count = min(count, theta - deg[i])
        if count <= 0:
            continue
        if strategy is Strategy.RANDOM_ADD:
            picks = rng.choice(len(willing), size=count, replace=False)
            chosen = [willing[int(k)] for k in picks]
        else:
            chosen = willing[:count]
        for k in chosen:
            j = js[k]
            ## count <= theta - deg[i] keeps i below theta; randomized answers can nominate a full
            ## j, and refusing it tells i the true bit "j's current degree < theta", outside the DP budget
            if deg[j] < theta:
                live[es[k]] = 1
                deg[i] += 1
                deg[j] += 1
    established = np.frombuffer(live, dtype=bool)
    return ProjectedGraph._from_kept(n, g.pairs[established, 0], g.pairs[established, 1])


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

    Nodes take turns in a uniform order, each above theta deleting a uniform subset
    of its remaining edges: one pass over the ends at nodes above theta, by turn and
    then one permutation, each end deleting its live edge while its node is above theta.
    """
    n = g.n
    theta = cfg.theta
    turn = np.argsort(rng.permutation(n))
    ## end k is at node ends[k] on edge k >> 1, whose other end is k ^ 1
    ends = g.pairs.ravel()
    at = np.flatnonzero(g.degrees[ends] > theta)
    at = at[np.argsort(turn[ends[at]] * at.size + rng.permutation(at.size))]
    deg = g.degrees.tolist()
    live = bytearray(b"\x01") * g.m
    for i, j, e in zip(memoryview(ends[at]), memoryview(ends[at ^ 1]), memoryview(at >> 1)):
        if deg[i] > theta and live[e]:
            live[e] = 0
            deg[i] -= 1
            deg[j] -= 1
    kept = np.frombuffer(live, dtype=bool)
    return ProjectedGraph._from_kept(n, g.pairs[kept, 0], g.pairs[kept, 1])


def project(
    g: Graph,
    cfg: ProjectionConfig,
    rng: np.random.Generator,
    orders: Sequence[int] | None = None,
) -> ProjectedGraph:
    """Run the configured strategy.

    The two rank-scheduled strategies need per-node orders (private
    encodings, or true degrees in non-private mode); lpea-high runs the
    schedule reversed, so high-order nodes go first.  random-add draws a
    uniform schedule and uniform responders.  A truthful (params None)
    addition run is one edge scan, which draws nothing from rng unless
    the strategy is random-add; edge-remove deletes excess edges instead
    of adding.
    """
    if cfg.strategy is Strategy.EDGE_REMOVE:
        return edge_remove(g, cfg, rng)
    if cfg.strategy is not Strategy.RANDOM_ADD:
        if orders is None:
            raise ValueError(f"{cfg.strategy.value} requires per-node orders")
        if len(orders) != g.n:
            raise ValueError(f"orders must cover all {g.n} nodes, got {len(orders)}")
    schedule = _schedule(g.n, orders, cfg.strategy, rng)
    if cfg.params is None:
        return _edge_scan(g, schedule, cfg, rng)
    return _addition_run(g, schedule, cfg, rng)


def projection_error(g: Graph, pg: ProjectedGraph) -> tuple[np.ndarray, int]:
    """Per-node absolute degree loss and its total."""
    if pg.n != g.n:
        raise ValueError("projected graph has a different node set")
    loss = np.abs(g.degrees - np.array(pg.degrees))
    return loss, int(loss.sum())

