"""Degree-bounded graph projection by edge addition or edge removal.

Addition strategies rebuild the graph from an empty edge set.  Nodes
take turns initiating: the initiator asks each not-yet-connected
neighbor whether it still has spare capacity (through randomized
response when the config carries PrivacyParams, truthfully otherwise),
estimates the number of willing neighbors, and connects to that many of
them in asking order.  An edge is established only while both endpoints
are below the degree bound theta, so the bound holds unconditionally.
The removal strategy instead deletes random incident edges of each node
above theta.

``project`` fixes every strategy's turns and runs one of three loops:
the truthful edge scan, the private negotiation or edge removal.  Each
is one pass over the ends of Graph.pairs sorted by turn, reads no
neighbor lists, and builds its result from one kept flag per edge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Graph, check_count
from .mechanisms import PrivacyParams, wrr_debiaser, wrr_truth_rate

## bench/tracing.py wraps projection.wrr_respond to count answers, so the name
## stays here though the negotiation draws its answers in bulk (_addition_run)
from .mechanisms import wrr_respond  # noqa: F401


class Strategy(enum.Enum):
    LPEA_LOW = "lpea-low"
    LPEA_HIGH = "lpea-high"
    RANDOM_ADD = "random-add"
    EDGE_REMOVE = "edge-remove"

    @property
    def uniform(self) -> bool:
        """random-add and edge-remove take their turns from rng.permutation(n) and never read per-node orders."""
        return self in (Strategy.RANDOM_ADD, Strategy.EDGE_REMOVE)


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
    def _from_kept(cls, g: Graph, live: bytearray) -> "ProjectedGraph":
        """The projection of g that keeps the edges whose flag in live is set."""
        pg = cls.__new__(cls)
        pg.n = g.n
        pg._kept = g.pairs.compress(np.frombuffer(live, dtype=bool), axis=0)
        pg.degrees = np.bincount(pg._kept.ravel(), minlength=g.n).tolist()
        pg._neighbors = None
        return pg

    @property
    def neighbors(self) -> list[set[int]]:
        if self._neighbors is None:
            nbrs: list[set[int]] = [set() for _ in range(self.n)]
            ## the sets share one int object per node
            node = list(range(self.n))
            u, v = self._kept.T
            for i, j in zip(memoryview(u), memoryview(v)):
                nbrs[i].add(node[j])
                nbrs[j].add(node[i])
            self._neighbors = nbrs
            self._kept = None
        return self._neighbors

    def edge_count(self) -> int:
        return sum(self.degrees) // 2


def _ends(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """End k sits at node ends[k] on edge k >> 1 and faces nbrs[k]; intp, which gathers faster than int32."""
    ends = g.pairs.ravel().astype(np.intp)
    return ends, ends[np.arange(ends.size) ^ 1]


def _by_turn(at: np.ndarray, ends: np.ndarray, nbrs: np.ndarray, rank: np.ndarray, uniform: bool, rng) -> np.ndarray:
    """The ends at, by their node's turn and then the neighbor's, or one permutation of at if uniform."""
    after = rng.permutation(at.size) if uniform else rank[nbrs[at]]
    ## both tie-breaks are below n + at.size
    return at[np.argsort(rank[ends[at]] * (rank.size + at.size) + after)]


def _edge_scan(g: Graph, cfg: ProjectionConfig, rank: np.ndarray, uniform: bool, rng) -> ProjectedGraph:
    """Truthful addition as one greedy pass over the edges.

    Each edge is decided at its earlier-turn end and kept iff both
    endpoints are still below theta.  This is the per-initiator loop's
    outcome: taking theta - deg of the willing neighbors is the same
    both-below-theta test; degrees only grow, so an edge refused then
    stays refused at the later endpoint's turn.  A uniform order within
    each turn gives random-add's uniform pick.  A node of degree at most
    theta never fills before its last edge, so only edges with an
    endpoint above theta are scanned; the rest are kept outright.
    """
    theta = cfg.theta
    ends, nbrs = _ends(g)
    over = g.degrees > theta
    at = np.flatnonzero((rank[ends] < rank[nbrs]) & (over[ends] | over[nbrs]))
    at = _by_turn(at, ends, nbrs, rank, uniform, rng)
    deg = [0] * g.n
    live = bytearray(b"\x01") * g.m
    ## memoryview hands out each int as it is read; tolist would hold all of them at once
    for i, j, e in zip(memoryview(ends[at]), memoryview(nbrs[at]), memoryview(at >> 1)):
        if deg[i] < theta and deg[j] < theta:
            deg[i] += 1
            deg[j] += 1
        else:
            live[e] = 0
    return ProjectedGraph._from_kept(g, live)


def _addition_run(g: Graph, cfg: ProjectionConfig, rank: np.ndarray, uniform: bool, rng) -> ProjectedGraph:
    """The private negotiation: the per-initiator loop, run in turn order.

    An initiator's run of the sorted edge ends lists the neighbors it
    asks, less edges already live.  After the turns, randomness is
    random-add's permutation, then one double u per request in request
    order; no responder draw.  j answers yes iff its true bit "j's current
    degree < theta" equals u < rate, rate = wrr_truth_rate(budget): the
    answer wrr_respond gives on u.  The initiator takes the first count
    willing, count the debiased yes count: a uniform subset for random-add.
    The doubles come from one rng.random(2m), and rng is left where
    rng.random(used) leaves it.
    """
    theta = cfg.theta
    budget = cfg.params.negotiation_budget
    debias = wrr_debiaser(budget)
    ends, nbrs = _ends(g)
    at = _by_turn(np.arange(ends.size), ends, nbrs, rank, uniform, rng)
    nbr, edge = memoryview(nbrs[at]), memoryview(at >> 1)
    ## an edge is asked at most once per end: 2m coins cover every request
    state = rng.bit_generator.state
    coin = (rng.random(ends.size) < wrr_truth_rate(budget)).tobytes()
    deg, live = [0] * g.n, bytearray(g.m)
    stop = used = 0
    turns = np.argsort(rank)
    for i, degree in zip(turns.tolist(), g.degrees[turns].tolist()):
        start, stop = stop, stop + degree
        ## the edges not yet live are pending; an initiator at theta asks them all and takes none
        pending = degree - deg[i]
        if pending and deg[i] < theta:
            asked = [(j, e) for j, e in zip(nbr[start:stop], edge[start:stop]) if not live[e]]
            willing = [p for p, keep in zip(asked, coin[used:used + pending]) if (deg[p[0]] < theta) == keep]
            ## clamped before round: a tiny budget can make the estimate infinite
            count = min(round(min(max(debias(pending, len(willing)), 0), len(willing))), theta - deg[i])
            for j, e in willing[:count]:
                ## count <= theta - deg[i] keeps i below theta; randomized answers can nominate a full
                ## j, and refusing it tells i the true bit "j's current degree < theta", outside the DP budget
                if deg[j] < theta:
                    live[e] = 1
                    deg[i] += 1
                    deg[j] += 1
        used += pending
    rng.bit_generator.state = state
    rng.random(used)
    return ProjectedGraph._from_kept(g, live)


def _edge_remove(g: Graph, cfg: ProjectionConfig, rank: np.ndarray, uniform: bool, rng) -> ProjectedGraph:
    """Delete random incident edges until every degree is at most theta.

    Each node above theta deletes a uniform subset of its remaining edges
    at its turn: one pass over the ends at nodes above theta, each end
    deleting its live edge while its node is above theta.
    """
    theta = cfg.theta
    ends, nbrs = _ends(g)
    at = _by_turn(np.flatnonzero(g.degrees[ends] > theta), ends, nbrs, rank, uniform, rng)
    deg = g.degrees.tolist()
    live = bytearray(b"\x01") * g.m
    for i, j, e in zip(memoryview(ends[at]), memoryview(nbrs[at]), memoryview(at >> 1)):
        if deg[i] > theta and live[e]:
            live[e] = 0
            deg[i] -= 1
            deg[j] -= 1
    return ProjectedGraph._from_kept(g, live)


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


def project(
    g: Graph,
    cfg: ProjectionConfig,
    rng: np.random.Generator,
    orders: Sequence[int] | None = None,
) -> ProjectedGraph:
    """Run the configured strategy.

    The turns are fixed here, for every strategy.  random-add and
    edge-remove take a uniform order, rng.permutation(n), as their first
    draw.  lpea-low takes ascending (order, id) over per-node orders
    (private encodings, or true degrees in non-private mode), and
    lpea-high the reverse, so high-order nodes go first; neither draws
    here.  Each loop then walks the edge ends by their node's turn and,
    within a turn, by the neighbor's turn, or for random-add and
    edge-remove by one permutation of the walked ends.  A truthful
    (params None) addition run is one edge scan, which draws nothing
    unless the strategy is random-add; edge-remove deletes excess edges
    instead of adding.
    """
    uniform = cfg.strategy.uniform
    if uniform:
        turns = rng.permutation(g.n)
    elif orders is None:
        raise ValueError(f"{cfg.strategy.value} requires per-node orders")
    elif len(orders) != g.n:
        raise ValueError(f"orders must cover all {g.n} nodes, got {len(orders)}")
    else:
        turns = np.argsort(np.asarray(orders), kind="stable")
        if cfg.strategy is Strategy.LPEA_HIGH:
            turns = turns[::-1]
    if cfg.strategy is Strategy.EDGE_REMOVE:
        run = _edge_remove
    else:
        run = _edge_scan if cfg.params is None else _addition_run
    return run(g, cfg, np.argsort(turns), uniform, rng)


def projection_error(g: Graph, pg: ProjectedGraph) -> tuple[np.ndarray, int]:
    """Per-node absolute degree loss and its total."""
    if pg.n != g.n:
        raise ValueError("projected graph has a different node set")
    loss = np.abs(g.degrees - np.array(pg.degrees))
    return loss, int(loss.sum())

