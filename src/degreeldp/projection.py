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

``project`` runs one of three loops: the truthful edge scan, the private
negotiation or edge removal.  Each is one pass over the ends of
Graph.pairs sorted by turn, reads no neighbor lists, and builds its
result from one kept flag per edge.  lpea-low and lpea-high walk the
ends that ``schedule(g, orders, strategy)`` sorts once; nothing in a
schedule depends on theta, so the sum selection's K trial projections
share one: ``lpea_low(g, schedule(g, orders), cfg, rng)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

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


def _by_turn(at: np.ndarray, ends: np.ndarray, rank: np.ndarray, rng) -> np.ndarray:
    """The ends at, by their node's turn and, within a turn, by one permutation of at."""
    ## the permutation's tie-breaks are below at.size
    return at[np.argsort(rank[ends[at]] * at.size + rng.permutation(at.size))]


@dataclass(frozen=True, eq=False)
class Schedule:
    """The turns of lpea-low or lpea-high over one graph, and its edges in walk order.

    rank[v] is node v's turn.  sorted_ends lists every edge end (an
    index into Graph.pairs.ravel()) by its node's turn and then the
    neighbor's: the private negotiation's asking order.  scan() returns
    walk and top, built on its first call: only the truthful edge scan
    needs them.  walk has three rows, node, neighbor and edge, and one
    column per edge: its earlier-turn end, in the same order.  top is the
    larger degree of each column's two endpoints; the scan at bound theta
    walks the columns whose top exceeds theta.  None of them depends on
    theta, so one schedule serves a projection at every bound; n and m
    name the graph it was built for.  The arrays are read-only.
    """

    strategy: Strategy
    n: int
    m: int
    rank: np.ndarray
    sorted_ends: np.ndarray
    scan: Callable[[], tuple[np.ndarray, np.ndarray]]


def schedule(g: Graph, orders: Sequence[int] | None, strategy: Strategy = Strategy.LPEA_LOW) -> Schedule:
    """Fix a ranked strategy's turns from per-node orders; draws nothing.

    lpea-low takes ascending (order, id) and lpea-high the reverse, so
    high-order nodes go first.
    """
    if strategy.uniform:
        raise ValueError(f"{strategy.value} draws its turns from rng, not from orders")
    if orders is None:
        raise ValueError(f"{strategy.value} requires per-node orders")
    if len(orders) != g.n:
        raise ValueError(f"orders must cover all {g.n} nodes, got {len(orders)}")
    turns = np.argsort(np.asarray(orders), kind="stable")
    if strategy is Strategy.LPEA_HIGH:
        turns = turns[::-1]
    rank = np.argsort(turns)
    ## int32, as Graph.pairs: the schedule is held across a selection's trials, and its build is its peak
    ends = g.pairs.ravel()
    key, nbr_turn = rank[ends], rank[ends[np.arange(ends.size) ^ 1]]
    key *= g.n
    key += nbr_turn
    del nbr_turn
    ## a node's neighbors are distinct, so the keys are and the order is fixed
    sorted_ends = np.argsort(key).astype(np.int32)
    del key

    @cache
    def scan():
        ## each edge at its earlier-turn end
        at = sorted_ends[rank[ends[sorted_ends]] < rank[ends[sorted_ends ^ 1]]]
        walk = np.stack([ends[at], ends[at ^ 1], at >> 1])
        top = np.maximum(g.degrees[walk[0]], g.degrees[walk[1]])
        walk.flags.writeable = top.flags.writeable = False
        return walk, top

    rank.flags.writeable = sorted_ends.flags.writeable = False
    return Schedule(strategy, g.n, g.m, rank, sorted_ends, scan)


def _edge_scan(g: Graph, cfg: ProjectionConfig, walk) -> ProjectedGraph:
    """Truthful addition as one greedy pass over the edges.

    Each edge is decided at its earlier-turn end and kept iff both
    endpoints are still below theta.  This is the per-initiator loop's
    outcome: taking theta - deg of the willing neighbors is the same
    both-below-theta test; degrees only grow, so an edge refused then
    stays refused at the later endpoint's turn.  A uniform order within
    each turn gives random-add's uniform pick.  A node of degree at most
    theta never fills before its last edge, so walk, the node, neighbor
    and edge rows of the ends to decide in turn order, holds only edges
    with an endpoint above theta; the rest are kept outright.
    """
    theta = cfg.theta
    deg = [0] * g.n
    live = bytearray(b"\x01") * g.m
    node, nbr, edge = walk
    ## memoryview hands out each int as it is read; tolist would hold all of them at once
    for i, j, e in zip(memoryview(node), memoryview(nbr), memoryview(edge)):
        if deg[i] < theta and deg[j] < theta:
            deg[i] += 1
            deg[j] += 1
        else:
            live[e] = 0
    return ProjectedGraph._from_kept(g, live)


def _addition_run(g: Graph, cfg: ProjectionConfig, rank: np.ndarray, at: np.ndarray, rng) -> ProjectedGraph:
    """The private negotiation: the per-initiator loop, run in turn order.

    An initiator's run of at, every edge end by turn, lists the neighbors
    it asks, less edges already live.  After the turns, randomness is
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
    nbr, edge = memoryview(g.pairs.ravel()[at ^ 1]), memoryview(at >> 1)
    ## an edge is asked at most once per end: 2m coins cover every request
    state = rng.bit_generator.state
    coin = (rng.random(at.size) < wrr_truth_rate(budget)).tobytes()
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


def _edge_remove(g: Graph, cfg: ProjectionConfig, rank: np.ndarray, rng) -> ProjectedGraph:
    """Delete random incident edges until every degree is at most theta.

    Each node above theta deletes a uniform subset of its remaining edges
    at its turn: one pass over the ends at nodes above theta, each end
    deleting its live edge while its node is above theta.
    """
    theta = cfg.theta
    ends, nbrs = _ends(g)
    at = _by_turn(np.flatnonzero(g.degrees[ends] > theta), ends, rank, rng)
    deg = g.degrees.tolist()
    live = bytearray(b"\x01") * g.m
    for i, j, e in zip(memoryview(ends[at]), memoryview(nbrs[at]), memoryview(at >> 1)):
        if deg[i] > theta and live[e]:
            live[e] = 0
            deg[i] -= 1
            deg[j] -= 1
    return ProjectedGraph._from_kept(g, live)


def _ranked(g: Graph, sched: Schedule, cfg: ProjectionConfig, rng) -> ProjectedGraph:
    """lpea-low or lpea-high on its schedule: the truthful edge scan, or the private negotiation."""
    if (sched.n, sched.m) != (g.n, g.m):
        raise ValueError(f"schedule built for n={sched.n}, m={sched.m}, given a graph with n={g.n}, m={g.m}")
    if sched.strategy is not cfg.strategy:
        raise ValueError(f"schedule built for {sched.strategy.value}, config names {cfg.strategy.value}")
    if cfg.params is not None:
        return _addition_run(g, cfg, sched.rank, sched.sorted_ends, rng)
    walk, top = sched.scan()
    ## a boolean filter keeps the walk's order
    return _edge_scan(g, cfg, walk.compress(top > cfg.theta, axis=1))


def lpea_low(g: Graph, sched: Schedule, cfg: ProjectionConfig, rng: np.random.Generator) -> ProjectedGraph:
    """Edge addition scheduled low-order-first; ties broken by node id.

    Initiators run in ascending (order, id) and connect to their
    lowest-ranked willing neighbors first, which favors nodes that can
    least afford to lose edges.  The paper's method under its own name;
    cfg must name it.  sched is schedule(g, orders), built once and
    reusable at every theta on the same graph.
    """
    if not isinstance(sched, Schedule):
        raise TypeError(f"lpea_low takes schedule(g, orders), got {type(sched).__name__}")
    if cfg.strategy is not Strategy.LPEA_LOW:
        raise ValueError(f"lpea_low runs the lpea-low strategy, got {cfg.strategy.value}")
    return _ranked(g, sched, cfg, rng)


def project(
    g: Graph,
    cfg: ProjectionConfig,
    rng: np.random.Generator,
    orders: Sequence[int] | None = None,
) -> ProjectedGraph:
    """Run the configured strategy.

    random-add and edge-remove take a uniform order, rng.permutation(n),
    as their first draw.  lpea-low and lpea-high build their schedule
    from per-node orders (private encodings, or true degrees in
    non-private mode) and draw nothing for it.  Each loop then walks the
    edge ends by their node's turn and, within a turn, by the neighbor's
    turn, or for random-add and edge-remove by one permutation of the
    walked ends.  A truthful (params None) addition run is one edge
    scan, which draws nothing unless the strategy is random-add;
    edge-remove deletes excess edges instead of adding.
    """
    if not cfg.strategy.uniform:
        return _ranked(g, schedule(g, orders, cfg.strategy), cfg, rng)
    rank = np.argsort(rng.permutation(g.n))
    if cfg.strategy is Strategy.EDGE_REMOVE:
        return _edge_remove(g, cfg, rank, rng)
    ends, nbrs = _ends(g)
    if cfg.params is not None:
        return _addition_run(g, cfg, rank, _by_turn(np.arange(ends.size), ends, rank, rng), rng)
    ## the order within a turn permutes the ends to decide, so random-add draws its walk per call
    over = g.degrees > cfg.theta
    at = _by_turn(np.flatnonzero((rank[ends] < rank[nbrs]) & (over[ends] | over[nbrs])), ends, rank, rng)
    return _edge_scan(g, cfg, (ends[at], nbrs[at], at >> 1))


def projection_error(g: Graph, pg: ProjectedGraph) -> tuple[np.ndarray, int]:
    """Per-node absolute degree loss and its total."""
    if pg.n != g.n:
        raise ValueError("projected graph has a different node set")
    loss = np.abs(g.degrees - np.array(pg.degrees))
    return loss, int(loss.sum())

