"""Exact privacy loss of the local randomizers against the budgets they are given.

Each check computes a randomizer's output probabilities for every input a
node can hold and compares the largest log ratio between two inputs with
the stage's budget: the order encoding over every degree in [d_min, d_max],
randomized response over the true bit, and the Laplace release over a
degree change of theta: relation (a), where a node's messages change with
its own list and everything it receives is held fixed.  The negotiation's
composition over many answers is not covered here.  Under relation (b), G
and G' differ only in one node's edges and the whole release is compared;
test_node_neighbouring_stability_gap pins how far the truthful ranked
projections move under it.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degreeldp.encoding import build_partitions, order_cdfs
from degreeldp.graph import Graph, degree_sequence
from degreeldp.mechanisms import PrivacyParams, wrr_truth_rate
from degreeldp.projection import ProjectionConfig, Strategy, project
from degreeldp.release import noise_scale
from conftest import random_graph


def order_loss(d_min: int, d_max: int, params: PrivacyParams, p_size: int) -> np.ndarray:
    """Per order, the largest log ratio of its probability between two degrees in [d_min, d_max]."""
    scheme = build_partitions(d_min, d_max, p_size)
    cdf, _ = order_cdfs(np.arange(d_min, d_max + 1), params, scheme)
    probs = np.diff(cdf, axis=1, prepend=0.0)
    return np.log(probs.max(axis=0)) - np.log(probs.min(axis=0))


@given(
    d_min=st.integers(0, 50),
    spread=st.integers(0, 400),
    p_size=st.integers(1, 60),
    epsilon=st.floats(0.01, 30.0),
    alpha=st.floats(0.01, 0.99),
)
@settings(max_examples=150, deadline=None)
def test_order_encoding_loss_within_order_budget(d_min, spread, p_size, epsilon, alpha):
    params = PrivacyParams(epsilon, alpha)
    loss = order_loss(d_min, d_min + spread, params, p_size)
    assert loss.max() <= params.order_budget + 1e-9


@pytest.mark.parametrize("p_size", [3, 50])
@pytest.mark.parametrize("epsilon, alpha", [(3.0, 0.1), (1.0, 0.5), (30.0, 0.9)])
def test_order_encoding_loss_on_the_benchmark_domain(p_size, epsilon, alpha):
    ## synthetic:4000:11:1 has degrees 11..380; the loss was measured at 0.070-0.074
    ## for a budget of 0.15 and at most 0.496 of the budget over these settings
    params = PrivacyParams(epsilon, alpha)
    loss = order_loss(11, 380, params, p_size)
    assert loss.max() <= 0.5 * params.order_budget


@given(budget=st.floats(1e-12, 30.0))
def test_randomized_response_log_odds_is_the_budget(budget):
    ## the truth is kept iff u < rate for a uniform double u = k / 2**53, so the
    ## exact truth probability is the double rate itself, a multiple of 2**-53 above 1/2
    rate = Fraction(wrr_truth_rate(budget))
    assert rate.denominator <= 2**53
    log_odds = math.log(rate / (1 - rate))
    ## e^b / (e^b + 1) takes a few roundings of 2**-53; an error dr in the rate moves
    ## the log-odds by dr / (rate (1 - rate)) = dr (e^b + 2 + e^-b)
    assert math.isclose(log_odds, budget, rel_tol=1e-15, abs_tol=2**-50 * (math.exp(budget) + 3))


def test_randomized_response_keeps_every_truth_past_the_double_range():
    ## from a budget of about 36.7, e^b / (e^b + 1) rounds to 1.0: every answer is the true bit,
    ## so the exact loss there is unbounded, not the budget capped at 40
    assert wrr_truth_rate(30.0) < 1.0
    assert wrr_truth_rate(37.0) == wrr_truth_rate(1e4) == 1.0


@given(
    theta=st.integers(1, 10_000),
    epsilon=st.floats(1e-3, 1e3),
    alpha=st.floats(0.01, 0.99),
)
def test_laplace_release_loss_is_the_release_budget(theta, epsilon, alpha):
    ## a node's projected degree moves by at most theta, so the loss is theta / scale
    params = PrivacyParams(epsilon, alpha)
    assert math.isclose(theta / noise_scale(theta, params), params.release_budget, rel_tol=1e-15)


## S at theta = 1, 2, 3; 150 graphs give lpea-low the same and lpea-high 4, 10 and 12,
## so these bound S only from below
NODE_STABILITY = {Strategy.LPEA_LOW: [4, 6, 8], Strategy.LPEA_HIGH: [4, 8, 10]}


def test_node_neighbouring_stability_gap():
    """Relation (b)'s S = max ||D(G) - D(G')||_1 of truthful lpea-low and lpea-high, a documented gap.

    D is the projected degree vector, each graph projected with its own true
    degrees as orders, and G' runs over every graph that differs from G only
    in one node v's neighbor set.  dsr scales each node's noise to theta, so
    under (b) the release spends up to S / theta times its budget.  A
    projection with a stated bound would turn this into S <= bound.
    """
    rng = np.random.default_rng(0)
    graphs = [random_graph(rng, int(rng.integers(4, 8)), float(rng.uniform(0.3, 0.8))) for _ in range(20)]

    def projected(g):
        cfgs = [ProjectionConfig(theta, s) for s in NODE_STABILITY for theta in (1, 2, 3)]
        return np.array([project(g, cfg, rng, orders=degree_sequence(g)).degrees for cfg in cfgs])

    worst = np.zeros(6, dtype=int)
    for g in graphs:
        base = projected(g)
        for v in range(g.n):
            rest = [(i, j) for i, j in g.pairs.tolist() if v not in (i, j)]
            for k in range(g.n):
                for nbrs in combinations([u for u in range(g.n) if u != v], k):
                    moved = projected(Graph(g.n, rest + [(v, u) for u in nbrs]))
                    worst = np.maximum(worst, np.abs(moved - base).sum(axis=1))
    assert worst.tolist() == [s for row in NODE_STABILITY.values() for s in row]
