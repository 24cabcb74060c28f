import hashlib
import math
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sstats

from degreeldp.encoding import build_partitions, ndoe_sample, order_cdfs
from degreeldp.graph import Graph, degree_sequence, stats
from degreeldp.harness import load_dataset
from degreeldp.mechanisms import PrivacyParams, wrr_debiaser, wrr_truth_rate
from degreeldp import projection
from degreeldp.projection import (
    ProjectedGraph,
    ProjectionConfig,
    Strategy,
    lpea_low,
    project,
    projection_error,
    schedule,
)
from conftest import edge_set, random_graph
from exact import Coin, Pick, Run, Shuffle, agree_on_small_cases, run, uniform_turns


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
        sched = schedule(fig_graph, degree_sequence(fig_graph))
        pg = lpea_low(fig_graph, sched, nonprivate(1), np.random.default_rng(0))
        assert edge_set(pg) == {(1, 3), (0, 2)}

    def test_low_first_theta_two(self, fig_graph):
        sched = schedule(fig_graph, degree_sequence(fig_graph))
        pg = lpea_low(fig_graph, sched, nonprivate(2), np.random.default_rng(0))
        assert edge_set(pg) == {(0, 1), (0, 2), (1, 3)}

    def test_high_first_keeps_single_hub_edge(self, fig_graph):
        cfg = nonprivate(1, Strategy.LPEA_HIGH)
        pg = project(fig_graph, cfg, np.random.default_rng(0), orders=degree_sequence(fig_graph))
        assert edge_set(pg) == {(1, 2)}
        assert pg.edge_count() <= 2  # never beats the low-first variant here

    def test_random_add_gives_each_maximal_matching(self, fig_graph):
        ## at theta 1 a truthful random-add keeps a maximal matching: AB, BC, or AC with BD
        cfg = nonprivate(1, Strategy.RANDOM_ADD)
        got = {frozenset(edge_set(project(fig_graph, cfg, np.random.default_rng(s)))) for s in range(200)}
        assert got == {frozenset({(0, 1)}), frozenset({(1, 2)}), frozenset({(0, 2), (1, 3)})}

    def test_edge_remove_seeded_loss(self, fig_graph):
        ## frozen seed keeping only A-B; per-node losses 1+2+2+1 = 6
        cfg = nonprivate(1, Strategy.EDGE_REMOVE)
        pg = project(fig_graph, cfg, np.random.default_rng(0))
        assert edge_set(pg) == {(0, 1)}
        losses, total = projection_error(fig_graph, pg)
        assert losses.tolist() == [1, 2, 2, 1]
        assert total == 6

    def test_projection_error_low_first(self, fig_graph):
        sched = schedule(fig_graph, degree_sequence(fig_graph))
        pg = lpea_low(fig_graph, sched, nonprivate(1), np.random.default_rng(0))
        losses, total = projection_error(fig_graph, pg)
        assert losses.tolist() == [1, 2, 1, 0]
        assert total == 4

    def test_projection_error_needs_same_node_set(self, fig_graph):
        other = Graph(fig_graph.n + 1, fig_graph.pairs.tolist())
        pg = lpea_low(other, schedule(other, degree_sequence(other)), nonprivate(1), np.random.default_rng(0))
        with pytest.raises(ValueError, match="different node set"):
            projection_error(fig_graph, pg)

    def test_theta_at_dmax_reconstructs(self, fig_graph):
        orders = degree_sequence(fig_graph)
        for strategy in Strategy:
            cfg = nonprivate(3, strategy)
            pg = project(fig_graph, cfg, np.random.default_rng(5), orders=orders)
            assert edge_set(pg) == edge_set(fig_graph), strategy


class TestDeterminism:
    def test_nonprivate_ranked_runs_ignore_rng(self, fig_graph):
        sched = schedule(fig_graph, degree_sequence(fig_graph))
        a = lpea_low(fig_graph, sched, nonprivate(2), np.random.default_rng(1))
        b = lpea_low(fig_graph, sched, nonprivate(2), np.random.default_rng(999))
        assert edge_set(a) == edge_set(b)

    def test_private_run_seed_determinism(self, fig_graph):
        sched = schedule(fig_graph, [1, 2, 1, 1])
        cfg = private_cfg(2)
        a = lpea_low(fig_graph, sched, cfg, np.random.default_rng(4))
        b = lpea_low(fig_graph, sched, cfg, np.random.default_rng(4))
        assert edge_set(a) == edge_set(b)


def pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    return deg


def addition_turn(g: Graph, theta: int, budget, ask):
    """Initiator i's turn of the per-initiator loop, as a process turn(i, edges): the edges after it.

    i asks its pending neighbors in the order the choice ask(i, pending)
    gives.  Truthfully (budget None) the willing are those below theta;
    privately j is willing iff its bit "degree < theta" equals one coin per
    request, true at wrr_truth_rate(budget), and count is the code's float
    debiased yes count.  i links the first min(count, theta - degree)
    willing, or with ask None a uniform subset of that size; a nominated j
    already at theta refuses.
    """
    rr = budget and (Fraction(wrr_truth_rate(budget)), wrr_debiaser(budget))

    def turn(i, edges):
        deg = degrees(g.n, edges)
        pending = [j for j in g.adj[i] if pair(i, j) not in edges]
        ## with no room the order changes nothing: the coins are drawn and nothing is linked
        if ask and pending and deg[i] < theta:
            pending = yield ask(i, pending)
        willing = [j for j in pending if deg[j] < theta]
        count = len(willing)
        if rr:
            rate, debias = rr
            willing = []
            for j in pending:
                if (deg[j] < theta) == (yield Coin(rate)):
                    willing.append(j)
            count = round(min(max(debias(len(pending), len(willing)), 0), len(willing)))
        count = max(min(count, theta - deg[i]), 0)
        chosen = willing[:count] if ask else (yield Pick(list(combinations(willing, count))))
        return edges | {pair(i, j) for j in chosen if deg[j] < theta}

    return turn


def negotiation(g: Graph, orders, theta: int, strategy: Strategy, budget=None):
    """A whole addition run of the per-initiator loop, as a process: project's oracle.

    lpea-low's turns go in ascending (order, id), lpea-high's in reverse, and
    each initiator asks in turn order, a Pick of one order, which draws
    nothing.  random-add's turns are one Shuffle of the nodes and its asking
    order one of the edge ends: the code's rng.permutation(n), then
    rng.permutation(2m).
    """
    if strategy is Strategy.RANDOM_ADD:
        turns = yield Shuffle(range(g.n))
        ends = g.pairs.ravel().tolist()
        after = yield Shuffle(range(len(ends)))
        key = {(ends[k], ends[k ^ 1]): after[k] for k in range(len(ends))}
    else:
        sign = -1 if strategy is Strategy.LPEA_HIGH else 1
        turns = sorted(range(g.n), key=lambda i: sign * (orders[i] * g.n + i))
        key = {(i, j): sign * (orders[j] * g.n + j) for i in range(g.n) for j in g.adj[i]}
    turn = addition_turn(g, theta, budget, lambda i, pending: Pick([sorted(pending, key=lambda j: key[i, j])]))
    edges = frozenset()
    for i in turns:
        edges = yield from turn(i, edges)
    return edges


@given(seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=150, deadline=None)
def test_negotiation_matches_degree_list_reference(seed, data):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, int(rng.integers(1, 30)), float(rng.uniform(0.05, 0.7)))
    ## few distinct order values, so ties are common
    orders = rng.integers(0, int(rng.integers(1, 5)), size=g.n).tolist()
    theta = data.draw(st.integers(1, max(degree_sequence(g)) + 1), label="theta")
    eps = data.draw(st.sampled_from([0.1, 1.0, 3.0, 10.0]), label="eps")
    for strategy in (Strategy.LPEA_LOW, Strategy.LPEA_HIGH, Strategy.RANDOM_ADD):
        cfg = private_cfg(theta, strategy, eps)
        run_rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        pg = project(g, cfg, run_rng, orders=orders)
        assert edge_set(pg) == run(ref_rng, negotiation, g, orders, theta, strategy, cfg.params.negotiation_budget), cfg
        assert run_rng.bit_generator.state == ref_rng.bit_generator.state, cfg


@pytest.mark.parametrize("a, b", [(0, 0), (0, 5), (1, 1), (7, 300), (1000, 1)])
def test_batched_doubles_are_the_split_draws(a, b):
    ## the negotiation draws its coins as one rng.random(2m), then rewinds rng and draws the used
    ## prefix again; that matches per-initiator draws only if random(a) then random(b) is
    ## random(a + b), doubles and final state, from a state a permutation left mid-word
    split, batch = np.random.default_rng(5), np.random.default_rng(5)
    split.permutation(11), batch.permutation(11)
    assert split.bit_generator.state["has_uint32"] == 1
    first, second = split.random(a), split.random(b)
    state = batch.bit_generator.state
    assert np.array_equal(np.concatenate((first, second)), batch.random(a + b + 3)[: a + b])
    batch.bit_generator.state = state
    batch.random(a + b)
    assert split.bit_generator.state == batch.bit_generator.state


@pytest.mark.parametrize("eps", [1e-15, 1e-307])
@pytest.mark.parametrize("strategy", [Strategy.LPEA_LOW, Strategy.RANDOM_ADD])
def test_tiny_negotiation_budget_keeps_the_cap(eps, strategy):
    ## the debiased count divided by zero at 1e-15 and is infinite at 1e-307; both clamp to the willing
    g, _ = load_dataset("synthetic:60:4:1")
    pg = project(g, private_cfg(3, strategy, eps), np.random.default_rng(0), orders=degree_sequence(g))
    assert max(pg.degrees) <= 3 and pg.edge_count() > 0


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
            expected = run(np.random.default_rng(seed), negotiation, g, orders, theta, strategy)
            ## degrees first: they come from the kept edges, before any set is built
            assert pg.degrees == degrees(g.n, expected)
            assert edge_set(pg) == expected, strategy


    def test_truthful_runs_never_reach_the_negotiation(self, fig_graph, monkeypatch):
        def refuse(*args):
            raise AssertionError("reached _addition_run")

        monkeypatch.setattr(projection, "_addition_run", refuse)
        orders = degree_sequence(fig_graph)
        for strategy in (Strategy.LPEA_LOW, Strategy.LPEA_HIGH, Strategy.RANDOM_ADD):
            assert project(fig_graph, nonprivate(1, strategy), np.random.default_rng(0), orders=orders).edge_count()
            with pytest.raises(AssertionError, match="reached _addition_run"):
                project(fig_graph, private_cfg(1, strategy), np.random.default_rng(0), orders=orders)


def addition_distribution(g: Graph, theta: int, budget=None, asking=None) -> dict[frozenset, Fraction]:
    """random-add's exact distribution as the per-initiator loop, truthful or private.

    With asking None an initiator links a uniform count-subset of the
    willing, as a per-initiator rng.choice does; otherwise it asks in the
    order the choice asking(pending) gives and links the first count willing.
    """
    turn = addition_turn(g, theta, budget, asking and (lambda i, pending: asking(pending)))
    return uniform_turns(g.n, lambda i, left, edges: Run(turn, i, edges), frozenset())


def scan_distribution(g: Graph, theta: int, asking) -> dict[frozenset, Fraction]:
    """The greedy edge scan: i walks its later-turn neighbors in the order the choice asking(later) gives."""

    def turn(i, left, edges):
        kept, deg = set(edges), degrees(g.n, edges)
        for j in (yield asking([j for j in g.adj[i] if j in left])):
            if deg[i] < theta and deg[j] < theta:
                kept.add(pair(i, j))
                deg[i] += 1
                deg[j] += 1
        return frozenset(kept)

    return uniform_turns(g.n, lambda i, left, edges: Run(turn, i, left, edges), frozenset())


def removal_distribution(g: Graph, theta: int, asking=None) -> dict[frozenset, Fraction]:
    """edge-remove's exact distribution: each node in turn deletes edges while above theta.

    With asking None it deletes a uniform subset of its remaining edges, the
    set-based reference; otherwise it walks its edge ends in the order the
    choice asking(neighbors) gives, deleting each live one while above theta.
    """

    def turn(i, edges):
        mine = [j for j in g.adj[i] if pair(i, j) in edges]
        if asking is None:
            return edges - {pair(i, j) for j in (yield Pick(list(combinations(mine, max(len(mine) - theta, 0)))))}
        left, deg = set(edges), len(mine)
        for j in (yield asking(g.adj[i])):
            if deg > theta and pair(i, j) in left:
                left.remove(pair(i, j))
                deg -= 1
        return frozenset(left)

    return uniform_turns(g.n, lambda i, left, edges: Run(turn, i, edges), frozenset(edge_set(g)))


def fits(g: Graph, cfg: ProjectionConfig, expected: dict) -> None:
    """2,000 seeded projections land only on expected's outcomes, at its probabilities by a chi-square test."""
    runs = 2000
    counts = Counter(frozenset(edge_set(project(g, cfg, np.random.default_rng(seed)))) for seed in range(runs))
    assert set(counts) <= set(expected)
    outcomes = sorted(expected, key=sorted)
    assert min(runs * expected[e] for e in outcomes) >= 5
    result = sstats.chisquare([counts[e] for e in outcomes], [float(runs * expected[e]) for e in outcomes])
    assert result.pvalue > 1e-3, (len(outcomes), result)


class TestTruthfulRandomAdd:
    def test_uniform_order_scan_has_the_loop_distribution(self):
        agree_on_small_cases(addition_distribution, scan_distribution)

    def test_project_fits_the_exact_distribution(self):
        ## a 5-node graph whose truthful random-add at theta 2 has several likely outcomes
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 3), (3, 4)])
        fits(g, nonprivate(2, Strategy.RANDOM_ADD), addition_distribution(g, 2))


class TestPrivateRandomAdd:
    def test_uniform_order_prefix_has_the_choice_distribution(self):
        ## a budget whose truth rate is exactly 7/8 keeps the fractions small
        assert wrr_truth_rate(math.log(7)) == 0.875
        private = partial(addition_distribution, budget=math.log(7))
        agree_on_small_cases(private, private)


class TestEdgeRemove:
    def test_end_pass_has_the_set_based_distribution(self):
        agree_on_small_cases(removal_distribution, removal_distribution)

    def test_project_fits_the_worked_distribution(self, fig_graph):
        ## theta 1 on the figure graph: each outcome's probability and projection_error total
        expected = {
            frozenset({(0, 1)}): (Fraction(5, 24), 6),
            frozenset({(1, 2)}): (Fraction(5, 24), 6),
            frozenset({(0, 2)}): (Fraction(11, 72), 6),
            frozenset({(1, 3)}): (Fraction(11, 72), 6),
            frozenset({(0, 2), (1, 3)}): (Fraction(5, 18), 4),
        }
        probability = {e: p for e, (p, _) in expected.items()}
        assert removal_distribution(fig_graph, 1) == probability
        cfg = nonprivate(1, Strategy.EDGE_REMOVE)
        fits(fig_graph, cfg, probability)
        for seed in range(2000):
            pg = project(fig_graph, cfg, np.random.default_rng(seed))
            assert projection_error(fig_graph, pg)[1] == expected[frozenset(edge_set(pg))][1]


def test_projections_read_no_adjacency_lists(fig_graph):
    ## each is a pass over the ends of pairs, so a graph without adj gives the same edges
    bare = Graph(fig_graph.n, fig_graph.pairs.tolist())
    bare.adj = None
    orders = degree_sequence(fig_graph)
    for cfg in [f(1, s) for f in (nonprivate, private_cfg) for s in Strategy]:
        for seed in range(5):
            want = project(fig_graph, cfg, np.random.default_rng(seed), orders=orders).neighbors
            assert project(bare, cfg, np.random.default_rng(seed), orders=orders).neighbors == want, cfg


## sha256 of repr(sorted(edge_set(pg))) for private projections of
## synthetic:300:11:1 with ndoe_sample orders (eps 3, alpha 0.1, seed 2024)
## and projection seed 7; a reordered or extra draw changes these
PRIVATE_GOLDEN = {
    ("lpea-low", 3): "480e95f4722f3b9d6ea8547fc688be4e0b9663d16a5841be23a10a1afcfc5160",
    ("lpea-low", 17): "0edb90270f45e95c075c30198fbdf4a30d4479baee5f91d68c3dadb309b0f025",
    ("lpea-high", 3): "2222dd62d97caf8fa159ab6bafa86a6ee953aa254df68b212ef105f436801b5c",
    ("lpea-high", 17): "62f45622290809d89fdb419e7ba7d4c35085dee7c3f6c36f7d63b8bff56572d7",
    ("random-add", 3): "2dabd3ef8da11049e2b188038f4fca6b0643a59c0ce5cf0d787c0e71e67f4b6e",
    ("random-add", 17): "10fbc30fd9dc12eb0d040287291cd596530fa86597c0b5602fbadcb6ff3d3312",
    ("edge-remove", 3): "74e60eef6e910a27c10932ad21bd0d030527555d2f553ac2f237afc85c509f64",
    ("edge-remove", 17): "1d301dd75cb2efaa7eb279a3f38200cc81780660fb48ff377bdb22e5e97e30d2",
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
            got[strategy, theta] = hashlib.sha256(repr(sorted(edge_set(pg))).encode()).hexdigest()
        assert got == PRIVATE_GOLDEN


## sha256 of repr(degrees) and of repr(sorted(edge_set(pg))) for truthful
## projections of synthetic:1000:3:5 with true degrees as orders and
## projection seed 0; random-add's are its two permutations' draws
TRUTHFUL_GOLDEN = {
    ("lpea-low", 3): (
        "518d7630839361bb4f0a9dcdbcd94659a9e5690cdb79fb1b1988133ccf16f44f",
        "331a3cb0253aa7448c764b5b12f2e0b6715211540b5b035eb6db110ae4217341",
    ),
    ("lpea-low", 17): (
        "20a06b2ac7091a6586a3ec1bc6b2ab2029f59822f55528608273f4fe63d12750",
        "7484234b48f5c27123f912b15021a5bd21e3f3e97096f16be62237fc1a1867d2",
    ),
    ("lpea-high", 3): (
        "78009f42bd5860289f0c1fe854c1f512cfc1926f59bd4212cc6777037ba0e22c",
        "53423fd863a00a6cc54da3f7a5a4a55bb4279730ee029c38b869beadf0a58e46",
    ),
    ("lpea-high", 17): (
        "03ec4d6c2cfadf0917e742642d086b259613cd037522184a5d93ce877058cb96",
        "2473fdb2a71b8ce0e150a6f8a4b74558eb3a03bfcece4071147fe1ef08a3d017",
    ),
    ("random-add", 3): (
        "8a207be687380a5f91cbdc5acaa9e03dbda17c2b65e1324a9a20dd8f789e2c75",
        "cb2d4a5fcf45f8c8f36809a70aa2a3272f6b6c1eed425beaa069a8e4a34643c0",
    ),
    ("random-add", 17): (
        "088bcbeb87288fce60dc4d3a304265169d4df9102e5bd0d222a8c820d66ae41b",
        "485ded8739587119b7a9dc563bd2852cb3786879bd02a4aac4eff58c69567873",
    ),
}


class TestTruthfulGolden:
    def test_edge_sets_pinned(self):
        g, _ = load_dataset("synthetic:1000:3:5")
        orders = degree_sequence(g)
        got = {}
        for strategy, theta in TRUTHFUL_GOLDEN:
            pg = project(g, nonprivate(theta, Strategy(strategy)), np.random.default_rng(0), orders=orders)
            got[strategy, theta] = (
                hashlib.sha256(repr(pg.degrees).encode()).hexdigest(),
                hashlib.sha256(repr(sorted(edge_set(pg))).encode()).hexdigest(),
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
                orig = edge_set(g)
                assert edge_set(pg) <= orig
                for i in range(g.n):
                    assert pg.degrees[i] <= theta
                    assert pg.degrees[i] <= len(g.adj[i])
                    for j in pg.neighbors[i]:
                        assert i in pg.neighbors[j]

    def test_private_negotiation_can_drop_edges_even_at_dmax(self):
        ## randomized answers may exclude willing neighbors, so exact
        ## reconstruction is not guaranteed in private mode
        tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
        pg = lpea_low(tri, schedule(tri, degree_sequence(tri)), private_cfg(2), np.random.default_rng(1))
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
                    project(g, nonprivate(t, Strategy.EDGE_REMOVE), np.random.default_rng(seed)).edge_count()
                    for t in range(1, dmax + 2)
                ]
                assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_removal_leaves_no_degree_above_theta(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 40, 0.3)
        for theta in (1, 3, 6):
            pg = project(g, nonprivate(theta, Strategy.EDGE_REMOVE), np.random.default_rng(11))
            assert max(pg.degrees) <= theta


@given(seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=100, deadline=None)
def test_certain_answers_give_the_truthful_projection(seed, data):
    ## at a negotiation budget of 45 every answer is the true bit, so private
    ## rank-scheduled runs with true-degree orders keep the edge scan's edges
    params = PrivacyParams(100.0, 0.9)
    assert wrr_truth_rate(params.negotiation_budget) == 1.0
    rng = np.random.default_rng(seed)
    g = random_graph(rng, int(rng.integers(1, 30)), float(rng.uniform(0.05, 0.7)))
    orders = degree_sequence(g)
    theta = data.draw(st.integers(1, max(orders) + 1), label="theta")
    for strategy in (Strategy.LPEA_LOW, Strategy.LPEA_HIGH):
        truthful = project(g, nonprivate(theta, strategy), np.random.default_rng(0), orders=orders)
        cfg = ProjectionConfig(theta=theta, strategy=strategy, params=params)
        private = project(g, cfg, np.random.default_rng(seed + 1), orders=orders)
        assert private.neighbors == truthful.neighbors, strategy


class TestOrdersValidation:
    def test_orders_length_checked(self, fig_graph):
        with pytest.raises(ValueError):
            lpea_low(fig_graph, schedule(fig_graph, [1, 2]), nonprivate(1), np.random.default_rng(0))
        with pytest.raises(ValueError, match="cover all 4 nodes"):
            project(fig_graph, nonprivate(1, Strategy.LPEA_HIGH), np.random.default_rng(0), orders=[1, 2])

    @pytest.mark.parametrize("strategy", [s for s in Strategy if s is not Strategy.LPEA_LOW])
    def test_lpea_low_refuses_other_strategies(self, fig_graph, strategy):
        ## lpea_low is the paper's named method; other strategies go through project
        with pytest.raises(ValueError, match="lpea-low"):
            sched = schedule(fig_graph, degree_sequence(fig_graph))
            lpea_low(fig_graph, sched, nonprivate(1, strategy), np.random.default_rng(0))


class TestSchedule:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_one_schedule_serves_every_theta(self, seed, data):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(1, 25)), float(rng.uniform(0.05, 0.7)))
        ## three order values over up to 24 nodes: most turns are broken by node id
        orders = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n), label="orders")
        for strategy in (Strategy.LPEA_LOW, Strategy.LPEA_HIGH):
            sched = schedule(g, orders, strategy)
            for theta in range(1, int(g.degrees.max(initial=0)) + 2):
                cfg = nonprivate(theta, strategy)
                shared = projection._ranked(g, sched, cfg, np.random.default_rng(0))
                fresh = project(g, cfg, np.random.default_rng(0), orders=orders)
                assert np.array_equal(shared._kept, fresh._kept), (strategy, theta)
                assert shared.degrees == fresh.degrees, (strategy, theta)

    @pytest.mark.parametrize("cfg", [nonprivate(1), private_cfg(1)])
    def test_refused_on_another_graph(self, fig_graph, cfg):
        sched = schedule(fig_graph, degree_sequence(fig_graph))
        edges = [(0, 1), (1, 2), (1, 3), (0, 2)]
        for other in (Graph(5, edges), Graph(4, edges[:3])):
            with pytest.raises(ValueError, match="schedule built for n=4, m=4, given a graph with n="):
                lpea_low(other, sched, cfg, np.random.default_rng(0))

    def test_refused_for_another_strategy(self, fig_graph):
        high = schedule(fig_graph, degree_sequence(fig_graph), Strategy.LPEA_HIGH)
        with pytest.raises(ValueError, match="schedule built for lpea-high, config names lpea-low"):
            lpea_low(fig_graph, high, nonprivate(1), np.random.default_rng(0))
        for strategy in (Strategy.RANDOM_ADD, Strategy.EDGE_REMOVE):
            with pytest.raises(ValueError, match=f"{strategy.value} draws its turns from rng"):
                schedule(fig_graph, degree_sequence(fig_graph), strategy)

    def test_lpea_low_takes_a_schedule(self, fig_graph):
        with pytest.raises(TypeError, match="lpea_low takes schedule"):
            lpea_low(fig_graph, degree_sequence(fig_graph), nonprivate(1), np.random.default_rng(0))

    def test_scan_arrays_built_once_and_only_for_the_scan(self, fig_graph):
        sched = schedule(fig_graph, degree_sequence(fig_graph))
        lpea_low(fig_graph, sched, private_cfg(1), np.random.default_rng(0))
        assert sched.scan.cache_info().misses == 0
        for theta in (1, 2, 3):
            lpea_low(fig_graph, sched, nonprivate(theta), np.random.default_rng(0))
        assert (sched.scan.cache_info().hits, sched.scan.cache_info().misses) == (2, 1)

    def test_arrays_are_read_only(self, fig_graph):
        sched = schedule(fig_graph, degree_sequence(fig_graph))
        for a in (sched.rank, sched.sorted_ends, *sched.scan()):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


class TestProjectedGraph:
    @pytest.mark.parametrize("n, neighbors", [(3, [set()]), (1, [set(), set()]), (0, [set()])])
    def test_one_set_per_node(self, n, neighbors):
        with pytest.raises(ValueError, match="one set per node"):
            ProjectedGraph(n, neighbors)
