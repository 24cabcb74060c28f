import hashlib
import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sstats

from degreeldp.encoding import build_partitions, ndoe_sample, order_cdfs
from degreeldp.graph import Graph, degree_sequence, stats
from degreeldp.harness import load_dataset
from degreeldp.mechanisms import PrivacyParams, wrr_debias_count, wrr_truth_rate
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


def schedule_key(orders, strategy: Strategy) -> list[int]:
    """Each node's turn key: ascending (order, id), reversed for lpea-high."""
    n = len(orders)
    key = [orders[i] * n + i for i in range(n)]
    return [-k for k in key] if strategy is Strategy.LPEA_HIGH else key


def reference_ranked_run(g: Graph, orders, theta: int, strategy: Strategy) -> set[tuple[int, int]]:
    """The truthful rank-scheduled per-initiator loop, kept as the oracle for the edge scan."""
    n = g.n
    key = schedule_key(orders, strategy)
    schedule = sorted(range(n), key=key.__getitem__)
    ranked_adj = [sorted(g.adj[i], key=key.__getitem__) for i in range(n)]
    established: list[set[int]] = [set() for _ in range(n)]
    deg = [0] * n
    for i in schedule:
        pending = [j for j in ranked_adj[i] if j not in established[i]]
        willing = [j for j in pending if deg[j] < theta]
        count = min(len(willing), theta - deg[i])
        for j in willing[:count]:
            if deg[i] < theta and deg[j] < theta:
                established[i].add(j)
                established[j].add(i)
                deg[i] += 1
                deg[j] += 1
    return {(i, j) for i in range(n) for j in established[i] if i < j}


def reference_addition_run(g: Graph, order_of, cfg: ProjectionConfig, rng: np.random.Generator) -> list[set[int]]:
    """The private negotiation over neighbor sets with a degree list kept beside them, as an oracle.

    Each initiator draws rng.random(len(pending)) and connects to the first
    count of its willing neighbors in asking order; random-add asks in the
    order of one permutation of the edge ends, drawn after the schedule.
    """
    n = g.n
    theta = cfg.theta
    strategy = cfg.strategy
    budget = cfg.params.negotiation_budget
    rate = wrr_truth_rate(budget)
    if strategy is Strategy.RANDOM_ADD:
        schedule = [int(i) for i in rng.permutation(n)]
        ends = g.pairs.ravel().tolist()
        after = rng.permutation(len(ends)).tolist()
        key = {(ends[k], ends[k ^ 1]): after[k] for k in range(len(ends))}
        ranked_adj = [sorted(g.adj[i], key=lambda j: key[i, j]) for i in range(n)]
    else:
        key = schedule_key(order_of, strategy)
        schedule = sorted(range(n), key=key.__getitem__)
        ranked_adj = [sorted(g.adj[i], key=key.__getitem__) for i in range(n)]
    established: list[set[int]] = [set() for _ in range(n)]
    deg = [0] * n
    for i in schedule:
        est_i = established[i]
        pending = [j for j in ranked_adj[i] if j not in est_i]
        if not pending:
            continue
        kept = (rng.random(len(pending)) < rate).tolist()
        willing = [j for j, keep in zip(pending, kept) if (deg[j] < theta) == keep]
        debiased = wrr_debias_count(len(pending), len(willing), budget)
        count = round(min(max(debiased, 0), len(willing)))
        count = min(count, theta - deg[i])
        for j in willing[:count]:
            if deg[j] < theta:
                est_i.add(j)
                established[j].add(i)
                deg[i] += 1
                deg[j] += 1
    return established


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
        assert pg.neighbors == reference_addition_run(g, orders, cfg, ref_rng), cfg
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
            expected = reference_ranked_run(g, orders, theta, strategy)
            ## degrees first: they come from the kept edges, before any set is built
            assert pg.degrees == [sum(i in e for e in expected) for i in range(g.n)]
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


def _uniform_schedule_distribution(g: Graph, theta: int, turn, start=frozenset()) -> dict[frozenset, Fraction]:
    """Exact output distribution of a projection under a uniform schedule.

    The schedule is drawn one turn at a time, each next node uniform
    among the nodes yet to go, from the edge set start (empty for
    addition).  turn(i, remaining, edges) lists the node's outcomes as
    (edge set after its turn, probability).  The distribution over
    (nodes yet to go, edges) is carried forward one turn at a time.
    """
    states: dict[tuple, Fraction] = {(frozenset(range(g.n)), start): Fraction(1)}
    for _ in range(g.n):
        ahead: dict[tuple, Fraction] = defaultdict(Fraction)
        for (remaining, edges), p in states.items():
            for i in remaining:
                for after, q in turn(i, remaining, edges):
                    ahead[remaining - {i}, after] += p * q / len(remaining)
        states = ahead
    return {edges: p for (_, edges), p in states.items()}


def _degree(edges: frozenset, i: int) -> int:
    return sum(i in e for e in edges)


def loop_distribution(g: Graph, theta: int) -> dict[frozenset, Fraction]:
    """The per-initiator loop: connect to a uniform subset of min(willing, theta - deg) willing neighbors."""

    def turn(i, remaining, edges):
        willing = [j for j in g.adj[i] if frozenset((i, j)) not in edges and _degree(edges, j) < theta]
        subsets = list(combinations(willing, max(min(len(willing), theta - _degree(edges, i)), 0)))
        return [(edges | {frozenset((i, j)) for j in sub}, Fraction(1, len(subsets))) for sub in subsets]

    return _uniform_schedule_distribution(g, theta, turn)


def scan_distribution(g: Graph, theta: int, later_order=None) -> dict[frozenset, Fraction]:
    """The greedy edge scan: each initiator's later-scheduled neighbors in a uniform order, or in later_order's."""

    def turn(i, remaining, edges):
        later = [j for j in g.adj[i] if j in remaining]
        orders = [later_order(later)] if later_order else list(permutations(later))
        outcomes = []
        for order in orders:
            kept = set(edges)
            for j in order:
                if _degree(kept, i) < theta and _degree(kept, j) < theta:
                    kept.add(frozenset((i, j)))
            outcomes.append((frozenset(kept), Fraction(1, len(orders))))
        return outcomes

    return _uniform_schedule_distribution(g, theta, turn)


def small_cases() -> list[tuple[Graph, int]]:
    """80 (graph, theta) cases on 3 to 5 nodes, each with a degree above theta."""
    rng = np.random.default_rng(0)
    cases = []
    while len(cases) < 80:
        g = random_graph(rng, int(rng.integers(3, 6)), float(rng.uniform(0.3, 0.9)))
        cases += [(g, theta) for theta in (1, 2) if max(degree_sequence(g)) > theta]
    return cases[:80]


class TestTruthfulRandomAdd:
    def test_uniform_order_scan_has_the_loop_distribution(self):
        by_id = 0
        for g, theta in small_cases():
            loop = loop_distribution(g, theta)
            assert sum(loop.values()) == 1
            assert scan_distribution(g, theta) == loop, (edge_set(g), theta)
            by_id += scan_distribution(g, theta, later_order=sorted) != loop
        ## the enumeration tells orders apart: a fixed order of the later neighbors gives another distribution
        assert by_id > 0

    def test_project_fits_the_exact_distribution(self):
        ## a 5-node graph whose truthful random-add at theta 2 has several likely outcomes
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 3), (3, 4)])
        expected = {frozenset(tuple(sorted(e)) for e in final): p for final, p in loop_distribution(g, 2).items()}
        cfg = nonprivate(2, Strategy.RANDOM_ADD)
        runs = 2000
        counts = defaultdict(int)
        for seed in range(runs):
            counts[frozenset(edge_set(project(g, cfg, np.random.default_rng(seed))))] += 1
        assert set(counts) <= set(expected)
        outcomes = sorted(expected, key=sorted)
        assert min(runs * expected[e] for e in outcomes) >= 5
        observed = [counts[e] for e in outcomes]
        result = sstats.chisquare(observed, [float(runs * expected[e]) for e in outcomes])
        assert result.pvalue > 1e-3, (len(outcomes), result)


def private_distribution(g: Graph, theta: int, budget: float, orders=None) -> dict[frozenset, Fraction]:
    """Exact output distribution of private random-add, one coin per pending request.

    A request's answer is yes iff the neighbor's true bit "degree < theta"
    equals a coin that lands true with probability wrr_truth_rate(budget),
    and count is the code's own float estimate of the yes answers.  With
    orders None the initiator connects to a uniform count-subset of the
    willing, as the per-initiator rng.choice loop picks it; otherwise it asks
    in one of orders(pending), equally likely, and takes the first count
    willing.  A nominated neighbor already at theta refuses.
    """
    rate = Fraction(wrr_truth_rate(budget))

    @lru_cache(maxsize=None)
    def after(i, edges):
        pending = [j for j in g.adj[i] if frozenset((i, j)) not in edges]
        room = theta - _degree(edges, i)
        if not pending or room <= 0:
            return [(edges, Fraction(1))]
        below = {j: _degree(edges, j) < theta for j in pending}
        asked = list(orders(pending)) if orders else [pending]
        out: dict[frozenset, Fraction] = defaultdict(Fraction)
        for coins in product((True, False), repeat=len(pending)):
            p = math.prod(rate if keep else 1 - rate for keep in coins) / len(asked)
            for order in asked:
                willing = [j for j, keep in zip(order, coins) if below[j] == keep]
                debiased = wrr_debias_count(len(order), len(willing), budget)
                count = min(round(min(max(debiased, 0), len(willing))), room)
                picks = [willing[:count]] if orders else list(combinations(willing, count))
                for chosen in picks:
                    out[frozenset(j for j in chosen if below[j])] += p / len(picks)
        return [(edges | {frozenset((i, j)) for j in chosen}, p) for chosen, p in out.items()]

    return _uniform_schedule_distribution(g, theta, lambda i, remaining, edges: after(i, edges))


class TestPrivateRandomAdd:
    def test_uniform_order_prefix_has_the_choice_distribution(self):
        ## a budget whose truth rate is exactly 7/8 keeps the fractions small
        budget = math.log(7)
        assert wrr_truth_rate(budget) == 0.875
        by_id = False
        for g, theta in small_cases():
            choice = private_distribution(g, theta, budget)
            assert sum(choice.values()) == 1
            assert private_distribution(g, theta, budget, orders=permutations) == choice, (edge_set(g), theta)
            ## asking by id and cutting to a prefix gives another distribution; one case shows it
            by_id = by_id or private_distribution(g, theta, budget, orders=lambda pending: [sorted(pending)]) != choice
        assert by_id


def set_removal_distribution(g: Graph, theta: int) -> dict[frozenset, Fraction]:
    """The set-based removal, as the reference: a node over theta deletes a uniform subset of its remaining edges."""

    def turn(i, remaining, edges):
        current = [e for e in edges if i in e]
        subsets = list(combinations(current, max(len(current) - theta, 0)))
        return [(edges - set(sub), Fraction(1, len(subsets))) for sub in subsets]

    return _uniform_schedule_distribution(g, theta, turn, frozenset(map(frozenset, edge_set(g))))


def end_pass_distribution(g: Graph, theta: int, end_order=None) -> dict[frozenset, Fraction]:
    """The pass over edge ends: a node's edges in a uniform order, or in end_order's, each live one deleted while over theta."""

    @lru_cache(maxsize=None)
    def after(i, edges):
        orders = [end_order(g.adj[i])] if end_order else list(permutations(g.adj[i]))
        counts: dict[frozenset, int] = defaultdict(int)
        for order in orders:
            left, deg = set(edges), _degree(edges, i)
            for j in order:
                if deg > theta and frozenset((i, j)) in left:
                    left.remove(frozenset((i, j)))
                    deg -= 1
            counts[frozenset(left)] += 1
        return [(final, Fraction(c, len(orders))) for final, c in counts.items()]

    return _uniform_schedule_distribution(
        g, theta, lambda i, remaining, edges: after(i, edges), frozenset(map(frozenset, edge_set(g)))
    )


class TestEdgeRemove:
    def test_end_pass_has_the_set_based_distribution(self):
        by_id = 0
        for g, theta in small_cases():
            reference = set_removal_distribution(g, theta)
            assert sum(reference.values()) == 1
            assert end_pass_distribution(g, theta) == reference, (edge_set(g), theta)
            by_id += end_pass_distribution(g, theta, end_order=sorted) != reference
        ## deleting in neighbour-id order within a turn gives another distribution
        assert by_id > 0

    def test_project_fits_the_worked_distribution(self, fig_graph):
        ## theta 1 on the figure graph: each outcome's probability and projection_error total
        expected = {
            frozenset({(0, 1)}): (Fraction(5, 24), 6),
            frozenset({(1, 2)}): (Fraction(5, 24), 6),
            frozenset({(0, 2)}): (Fraction(11, 72), 6),
            frozenset({(1, 3)}): (Fraction(11, 72), 6),
            frozenset({(0, 2), (1, 3)}): (Fraction(5, 18), 4),
        }
        reference = set_removal_distribution(fig_graph, 1)
        assert {frozenset(tuple(sorted(e)) for e in final): p for final, p in reference.items()} == {
            e: p for e, (p, _) in expected.items()
        }
        cfg = nonprivate(1, Strategy.EDGE_REMOVE)
        runs = 2000
        counts = defaultdict(int)
        for seed in range(runs):
            pg = project(fig_graph, cfg, np.random.default_rng(seed))
            kept = frozenset(edge_set(pg))
            assert kept in expected, kept
            assert projection_error(fig_graph, pg)[1] == expected[kept][1], kept
            counts[kept] += 1
        outcomes = sorted(expected, key=sorted)
        observed = [counts[e] for e in outcomes]
        result = sstats.chisquare(observed, [float(runs * expected[e][0]) for e in outcomes])
        assert result.pvalue > 1e-3, result


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

    def test_arrays_are_read_only(self, fig_graph):
        sched = schedule(fig_graph, degree_sequence(fig_graph))
        for a in (sched.rank, sched.sorted_ends, sched.walk, sched.top):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


class TestProjectedGraph:
    @pytest.mark.parametrize("n, neighbors", [(3, [set()]), (1, [set(), set()]), (0, [set()])])
    def test_one_set_per_node(self, n, neighbors):
        with pytest.raises(ValueError, match="one set per node"):
            ProjectedGraph(n, neighbors)
