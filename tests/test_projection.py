import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degreeldp.encoding import build_partitions, ndoe_sample, order_cdfs
from degreeldp.graph import Graph, degree_sequence, stats
from degreeldp.harness import load_dataset
from degreeldp.mechanisms import PrivacyParams
from degreeldp.projection import (
    ProjectedGraph,
    ProjectionConfig,
    Strategy,
    edge_remove,
    lpea_low,
    project,
    projection_error,
)
from conftest import random_graph


def nonprivate(theta: int, strategy: Strategy = Strategy.LPEA_LOW) -> ProjectionConfig:
    return ProjectionConfig(theta=theta, strategy=strategy)


def private_cfg(theta: int, strategy: Strategy = Strategy.LPEA_LOW, eps: float = 1.0) -> ProjectionConfig:
    return ProjectionConfig(theta=theta, strategy=strategy, params=PrivacyParams(eps, 0.1))


class TestConfig:
    def test_theta_must_be_positive(self):
        with pytest.raises(ValueError):
            ProjectionConfig(theta=0)

    @pytest.mark.parametrize("name", ["lpea-low", "lpea-high", "random-add", "edge-remove"])
    def test_strategy_name_string_rejected(self, name):
        ## a string compared unequal to every member by identity and quietly ran lpea-low
        with pytest.raises(ValueError, match=f"strategy must be a Strategy, got '{name}'"):
            ProjectionConfig(theta=2, strategy=name)
        assert ProjectionConfig(theta=2, strategy=Strategy(name)).strategy.value == name

    def test_dispatcher_requires_orders_for_ranked_strategies(self, fig_graph):
        with pytest.raises(ValueError, match="orders"):
            project(fig_graph, nonprivate(1), np.random.default_rng(0))


class TestWorkedExample:
    """4-node graph A-B, B-C, B-D, A-C with true-degree orders [2, 3, 2, 1]."""

    def test_low_first_keeps_bd_and_ac(self, fig_graph):
        pg = lpea_low(fig_graph, degree_sequence(fig_graph), nonprivate(1), np.random.default_rng(0))
        assert pg.edge_set() == {(1, 3), (0, 2)}

    def test_low_first_theta_two(self, fig_graph):
        pg = lpea_low(fig_graph, degree_sequence(fig_graph), nonprivate(2), np.random.default_rng(0))
        assert pg.edge_set() == {(0, 1), (0, 2), (1, 3)}

    def test_high_first_keeps_single_hub_edge(self, fig_graph):
        cfg = nonprivate(1, Strategy.LPEA_HIGH)
        pg = project(fig_graph, cfg, np.random.default_rng(0), orders=degree_sequence(fig_graph))
        assert pg.edge_set() == {(1, 2)}
        assert pg.edge_count() <= 2  # never beats the low-first variant here

    def test_random_add_seeded_hub_pick(self, fig_graph):
        ## frozen seed where B initiates early and picks C: only B-C survives
        cfg = nonprivate(1, Strategy.RANDOM_ADD)
        pg = project(fig_graph, cfg, np.random.default_rng(16))
        assert pg.edge_set() == {(1, 2)}

    def test_edge_remove_seeded_loss(self, fig_graph):
        ## frozen seed keeping only A-B; per-node losses 1+2+2+1 = 6
        cfg = nonprivate(1, Strategy.EDGE_REMOVE)
        pg = edge_remove(fig_graph, cfg, np.random.default_rng(3))
        assert pg.edge_set() == {(0, 1)}
        losses, total = projection_error(fig_graph, pg)
        assert losses.tolist() == [1, 2, 2, 1]
        assert total == 6

    def test_projection_error_low_first(self, fig_graph):
        pg = lpea_low(fig_graph, degree_sequence(fig_graph), nonprivate(1), np.random.default_rng(0))
        losses, total = projection_error(fig_graph, pg)
        assert losses.tolist() == [1, 2, 1, 0]
        assert total == 4

    def test_projection_error_needs_same_node_set(self, fig_graph):
        other = Graph(fig_graph.n + 1, fig_graph.edges())
        pg = lpea_low(other, degree_sequence(other), nonprivate(1), np.random.default_rng(0))
        with pytest.raises(ValueError, match="different node set"):
            projection_error(fig_graph, pg)

    def test_theta_at_dmax_reconstructs(self, fig_graph):
        orders = degree_sequence(fig_graph)
        for strategy in Strategy:
            cfg = nonprivate(3, strategy)
            pg = project(fig_graph, cfg, np.random.default_rng(5), orders=orders)
            assert pg.edge_set() == fig_graph.edge_set(), strategy


class TestDeterminism:
    def test_nonprivate_ranked_runs_ignore_rng(self, fig_graph):
        orders = degree_sequence(fig_graph)
        a = lpea_low(fig_graph, orders, nonprivate(2), np.random.default_rng(1))
        b = lpea_low(fig_graph, orders, nonprivate(2), np.random.default_rng(999))
        assert a.edge_set() == b.edge_set()

    def test_private_run_seed_determinism(self, fig_graph):
        orders = [1, 2, 1, 1]
        cfg = private_cfg(2)
        a = lpea_low(fig_graph, orders, cfg, np.random.default_rng(4))
        b = lpea_low(fig_graph, orders, cfg, np.random.default_rng(4))
        assert a.edge_set() == b.edge_set()


def reference_ranked_run(g: Graph, orders, theta: int, strategy: Strategy) -> set[tuple[int, int]]:
    """The truthful rank-scheduled per-initiator loop, kept as the oracle for the edge scan."""
    n = g.n
    key = [orders[i] * n + i for i in range(n)]
    if strategy is Strategy.LPEA_HIGH:
        key = [-k for k in key]
    schedule = sorted(range(n), key=key.__getitem__)
    ranked_adj = [sorted(g.adj[i], key=key.__getitem__) for i in range(n)]
    established: list[set[int]] = [set() for _ in range(n)]
    deg = [0] * n
    for i in schedule:
        pending = [j for j in ranked_adj[i] if j not in established[i]]
        willing = [j for j in pending if deg[j] < theta]
        count = min(len(willing), theta - deg[i])
        for j in willing[:max(count, 0)]:
            if deg[i] < theta and deg[j] < theta:
                established[i].add(j)
                established[j].add(i)
                deg[i] += 1
                deg[j] += 1
    return {(i, j) for i in range(n) for j in established[i] if i < j}


class TestEdgeScan:
    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_initiator_loop(self, seed, data):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(1, 30)), float(rng.uniform(0.05, 0.7)))
        ## few distinct order values, so ties are common
        orders = rng.integers(0, int(rng.integers(1, 5)), size=g.n).tolist()
        dmax = max(degree_sequence(g))
        theta = data.draw(st.integers(1, dmax + 1), label="theta")
        for strategy in (Strategy.LPEA_LOW, Strategy.LPEA_HIGH):
            run_rng = np.random.default_rng(seed)
            before = run_rng.bit_generator.state
            pg = project(g, nonprivate(theta, strategy), run_rng, orders=orders)
            assert run_rng.bit_generator.state == before, "a truthful ranked run drew from rng"
            expected = reference_ranked_run(g, orders, theta, strategy)
            ## degrees first: they come from the kept edges, before any set is built
            assert pg.degrees == [sum(i in e for e in expected) for i in range(g.n)]
            assert pg.edge_set() == expected, strategy


## sha256 of repr(sorted(edge_set())) for private projections of
## synthetic:300:11:1 with ndoe_sample orders (eps 3, alpha 0.1, seed 2024)
## and projection seed 7; a reordered or extra draw changes these
PRIVATE_GOLDEN = {
    ("lpea-low", 3): "480e95f4722f3b9d6ea8547fc688be4e0b9663d16a5841be23a10a1afcfc5160",
    ("lpea-low", 17): "0edb90270f45e95c075c30198fbdf4a30d4479baee5f91d68c3dadb309b0f025",
    ("lpea-high", 3): "2222dd62d97caf8fa159ab6bafa86a6ee953aa254df68b212ef105f436801b5c",
    ("lpea-high", 17): "62f45622290809d89fdb419e7ba7d4c35085dee7c3f6c36f7d63b8bff56572d7",
    ("random-add", 3): "549e2dadeb8c9c588376471d43d8988d681fc132ce721f67baddddc4466070fd",
    ("random-add", 17): "ae9b49e145ec4cfa721e571869cc203611417eec413a813a4671e6828049becc",
    ("edge-remove", 3): "59571d5eb6660194154932270c28f734348831aa981e531b77cf9655f0a59c28",
    ("edge-remove", 17): "0b7129496490b43884d2e4ad505723ab3f9550ab878addd59e49d750ff513d4e",
}


class TestPrivateGolden:
    def test_edge_sets_pinned(self):
        g, _ = load_dataset("synthetic:300:11:1")
        info = stats(g)
        params = PrivacyParams(3.0, 0.1)
        scheme = build_partitions(info.d_min, info.d_max)
        order_rng = np.random.default_rng(2024)
        orders = ndoe_sample(order_cdfs(degree_sequence(g), params, scheme), order_rng)
        got = {}
        for strategy, theta in PRIVATE_GOLDEN:
            cfg = ProjectionConfig(theta=theta, strategy=Strategy(strategy), params=params)
            pg = project(g, cfg, np.random.default_rng(7), orders=orders)
            got[strategy, theta] = hashlib.sha256(repr(sorted(pg.edge_set())).encode()).hexdigest()
        assert got == PRIVATE_GOLDEN


## sha256 of repr(degrees) and of repr(sorted(edge_set())) for truthful
## lpea-high projections of synthetic:1000:3:5 with true degrees as orders
TRUTHFUL_GOLDEN = {
    3: (
        "78009f42bd5860289f0c1fe854c1f512cfc1926f59bd4212cc6777037ba0e22c",
        "53423fd863a00a6cc54da3f7a5a4a55bb4279730ee029c38b869beadf0a58e46",
    ),
    17: (
        "03ec4d6c2cfadf0917e742642d086b259613cd037522184a5d93ce877058cb96",
        "2473fdb2a71b8ce0e150a6f8a4b74558eb3a03bfcece4071147fe1ef08a3d017",
    ),
}


class TestTruthfulGolden:
    def test_lpea_high_pinned(self):
        g, _ = load_dataset("synthetic:1000:3:5")
        orders = degree_sequence(g)
        got = {}
        for theta in TRUTHFUL_GOLDEN:
            pg = project(g, nonprivate(theta, Strategy.LPEA_HIGH), np.random.default_rng(0), orders=orders)
            got[theta] = (
                hashlib.sha256(repr(pg.degrees).encode()).hexdigest(),
                hashlib.sha256(repr(sorted(pg.edge_set())).encode()).hexdigest(),
            )
        assert got == TRUTHFUL_GOLDEN


class TestInvariants:
    @given(seed=st.integers(0, 10_000), theta=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_addition_invariants_private_and_not(self, seed, theta):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(2, 30)), float(rng.uniform(0.05, 0.6)))
        orders = degree_sequence(g)
        for cfg in (nonprivate(theta), private_cfg(theta)):
            for strategy in Strategy:
                c = ProjectionConfig(theta=theta, strategy=strategy, params=cfg.params)
                pg = project(g, c, np.random.default_rng(seed + 1), orders=orders)
                orig = g.edge_set()
                assert pg.edge_set() <= orig
                for i in range(g.n):
                    assert pg.degrees[i] <= theta
                    assert pg.degrees[i] <= len(g.adj[i])
                    for j in pg.neighbors[i]:
                        assert i in pg.neighbors[j]

    def test_private_negotiation_can_drop_edges_even_at_dmax(self):
        ## randomized answers may exclude willing neighbors, so exact
        ## reconstruction is not guaranteed in private mode
        tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
        pg = lpea_low(tri, degree_sequence(tri), private_cfg(2), np.random.default_rng(1))
        assert pg.edge_count() < 3

    def test_removal_monotone_in_theta_per_seed(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(5, 35)), float(rng.uniform(0.1, 0.5)))
            if g.m == 0:
                continue
            dmax = max(degree_sequence(g))
            for seed in (1, 2):
                counts = [
                    edge_remove(g, nonprivate(t, Strategy.EDGE_REMOVE), np.random.default_rng(seed)).edge_count()
                    for t in range(1, dmax + 2)
                ]
                assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_removal_leaves_no_degree_above_theta(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 40, 0.3)
        for theta in (1, 3, 6):
            pg = edge_remove(g, nonprivate(theta, Strategy.EDGE_REMOVE), np.random.default_rng(11))
            assert max(pg.degrees) <= theta


class TestOrdersValidation:
    def test_orders_length_checked(self, fig_graph):
        with pytest.raises(ValueError):
            lpea_low(fig_graph, [1, 2], nonprivate(1), np.random.default_rng(0))
        with pytest.raises(ValueError, match="cover all 4 nodes"):
            project(fig_graph, nonprivate(1, Strategy.LPEA_HIGH), np.random.default_rng(0), orders=[1, 2])

    @pytest.mark.parametrize("strategy", [s for s in Strategy if s is not Strategy.LPEA_LOW])
    def test_lpea_low_refuses_other_strategies(self, fig_graph, strategy):
        ## lpea_low is the paper's named method; other strategies go through project
        with pytest.raises(ValueError, match="lpea-low"):
            lpea_low(fig_graph, degree_sequence(fig_graph), nonprivate(1, strategy), np.random.default_rng(0))


class TestProjectedGraph:
    @pytest.mark.parametrize("n, neighbors", [(3, [set()]), (1, [set(), set()]), (0, [set()])])
    def test_one_set_per_node(self, n, neighbors):
        with pytest.raises(ValueError, match="one set per node"):
            ProjectedGraph(n, neighbors)
