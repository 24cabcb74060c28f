import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degreeldp import theta
from degreeldp.graph import Graph, degree_sequence, stats
from degreeldp.harness import load_dataset
from degreeldp.theta import (
    ThetaSearchConfig,
    quantile_oracle,
    theta_by_deviation,
    theta_by_sum,
)


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(K=0, epsilon=1.0),
        dict(K=5, epsilon=0.0),
        dict(K=5, epsilon=1.0, method="bogus"),
        dict(K=5, epsilon=math.inf),
        dict(K=5, epsilon=math.nan),
        dict(K=5, epsilon=True),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ThetaSearchConfig(**kwargs)


class TestErrorModel:
    def test_total_is_sum_of_terms(self):
        ## theta_by_sum scores k as the Laplace term n * k / epsilon plus the
        ## summed projection loss: star(9) at epsilon 1 loses 16 edges' worth
        ## at k=1 (score 10 + 16) and nothing at k=9 (score 90 + 0)
        g = star(9)
        cfg = ThetaSearchConfig(K=9, epsilon=1.0, method="sum")
        log: list = []
        theta_by_sum(g, degree_sequence(g), cfg, np.random.default_rng(0), masked=False, round_log=log)
        scores = [g.n * k / cfg.epsilon + sum(payloads) for k, (_, payloads) in enumerate(log, start=1)]
        assert scores[0] == pytest.approx(10.0 + 16.0)
        assert scores[-1] == pytest.approx(90.0)


class TestQuantileOracle:
    def test_trace_example(self):
        assert quantile_oracle(list(range(1, 11)), 2.0, 10) == 6

    def test_single_candidate(self):
        assert quantile_oracle([5, 5, 5], 1.0, 1) == 1

    def test_returns_k_when_nothing_qualifies(self):
        assert quantile_oracle([10] * 5, 1.0, 5) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            quantile_oracle([1, 2], 1.0, 0)
        with pytest.raises(ValueError):
            quantile_oracle([1, 2], 0.0, 3)

    @pytest.mark.parametrize("epsilon", [math.inf, True, np.True_])
    def test_infinite_or_bool_epsilon_rejected(self, epsilon):
        ## the same refusal as every other budget check
        with pytest.raises(ValueError, match="finite and positive"):
            quantile_oracle([1, 2], epsilon, 3)

    @given(
        degrees=st.lists(st.integers(1, 80), min_size=1, max_size=200),
        e1=st.floats(0.2, 5.0),
        factor=st.floats(1.0, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_epsilon(self, degrees, e1, factor):
        K = max(degrees)
        assert quantile_oracle(degrees, e1, K) <= quantile_oracle(degrees, e1 * factor, K)


class TestThetaByDeviation:
    def test_trace_example(self):
        cfg = ThetaSearchConfig(K=10, epsilon=2.0)
        got = theta_by_deviation(list(range(1, 11)), cfg, np.random.default_rng(0), masked=False)
        assert got == 6

    def test_narrow_window_agrees_with_oracle(self):
        ## a stop at window width one would land on 3 here; the full
        ## search must reach the oracle value 5
        degrees = [5, 5, 5, 5, 5, 1, 1, 1, 1, 9]
        cfg = ThetaSearchConfig(K=9, epsilon=2.0)
        assert theta_by_deviation(degrees, cfg, np.random.default_rng(0), masked=False) == 5
        assert quantile_oracle(degrees, 2.0, 9) == 5

    def test_single_candidate(self):
        cfg = ThetaSearchConfig(K=1, epsilon=2.0)
        assert theta_by_deviation([3, 3, 3], cfg, np.random.default_rng(0), masked=False) == 1

    def test_empty_degrees_rejected(self):
        cfg = ThetaSearchConfig(K=5, epsilon=1.0)
        with pytest.raises(ValueError, match="nonempty"):
            theta_by_deviation([], cfg, np.random.default_rng(0))

    @given(
        degrees=st.lists(st.integers(1, 60), min_size=1, max_size=120),
        eps=st.floats(0.3, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, degrees, eps):
        K = max(degrees)
        cfg = ThetaSearchConfig(K=K, epsilon=eps)
        got = theta_by_deviation(degrees, cfg, np.random.default_rng(1), masked=False)
        assert got == quantile_oracle(degrees, eps, K)

    def test_masked_and_bypassed_agree(self):
        degrees = [4, 9, 1, 6, 6, 2, 8]
        cfg = ThetaSearchConfig(K=9, epsilon=1.5)
        m = theta_by_deviation(degrees, cfg, np.random.default_rng(3), masked=True)
        b = theta_by_deviation(degrees, cfg, np.random.default_rng(3), masked=False)
        assert m == b

    def test_round_complexity(self):
        degrees = list(range(1, 200))
        K = 199
        cfg = ThetaSearchConfig(K=K, epsilon=2.0)
        log: list = []
        theta_by_deviation(degrees, cfg, np.random.default_rng(0), masked=False, round_log=log)
        assert len(log) <= K.bit_length()

    @given(
        K=st.integers(1, 512),
        degrees=st.lists(st.integers(0, 600), min_size=2, max_size=24),
        eps=st.floats(0.3, 5.0),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_masked_rounds_fit_the_derived_masks(self, K, degrees, eps, seed):
        ## the masks are derived for K.bit_length() rounds, the most the search takes
        log: list = []
        got = theta_by_deviation(degrees, ThetaSearchConfig(K=K, epsilon=eps), np.random.default_rng(seed),
                                 masked=True, round_log=log)
        assert 1 <= len(log) <= K.bit_length()
        assert all(kind == "masked" for kind, _ in log)
        assert got == quantile_oracle(degrees, eps, K)

    def test_round_past_the_derived_masks_fails(self, monkeypatch):
        ## every probe goes right, so K = 7 takes all 3 rounds; with masks for 2 the third has none
        original = theta.round_masks
        monkeypatch.setattr(theta, "round_masks",
                            lambda peers, keys, rounds: original(peers, keys, rounds - 1))
        cfg = ThetaSearchConfig(K=7, epsilon=1.0)
        with pytest.raises(IndexError):
            theta_by_deviation([9, 9, 9], cfg, np.random.default_rng(0), masked=True)
        assert theta_by_deviation([9, 9, 9], cfg, np.random.default_rng(0), masked=False) == 7


@pytest.mark.parametrize("masked", [True, False])
@pytest.mark.parametrize("K", [9, np.int64(9)], ids=["int", "np.int64"])
def test_numpy_K_selects_a_python_int(K, masked):
    ## a NumPy K has no bit_length, which the deviation search read for its round count
    g = star(9)
    degs = degree_sequence(g)
    by_dev = theta_by_deviation(degs, ThetaSearchConfig(K=K, epsilon=1.0), np.random.default_rng(0), masked=masked)
    by_sum = theta_by_sum(g, degs, ThetaSearchConfig(K=K, epsilon=1.0, method="sum"), np.random.default_rng(0),
                          masked=masked)
    assert type(by_dev) is int and by_dev == quantile_oracle(degs, 1.0, 9)
    assert type(by_sum) is int and by_sum == 1


class TestThetaBySum:
    def test_star_prefers_smallest_bound(self):
        g = star(9)
        cfg = ThetaSearchConfig(K=9, epsilon=1.0, method="sum")
        got = theta_by_sum(g, degree_sequence(g), cfg, np.random.default_rng(0), masked=False)
        assert got == 1

    def test_matches_unmasked_objective_argmin(self):
        ## independent oracle: recompute the objective per candidate with
        ## plain sums and take the smallest argmin
        from degreeldp.projection import ProjectionConfig, Strategy, lpea_low, projection_error, schedule

        rng = np.random.default_rng(8)
        g = Graph(12, [(int(a), int(b)) for a, b in rng.integers(0, 12, (30, 2)) if a != b])
        orders = degree_sequence(g)
        K, eps = 6, 1.3
        objectives = []
        for k in range(1, K + 1):
            pg = lpea_low(g, schedule(g, orders), ProjectionConfig(theta=k), np.random.default_rng(0))
            _, total = projection_error(g, pg)
            objectives.append(g.n * k / eps + total)
        expected = int(np.argmin(objectives)) + 1
        cfg = ThetaSearchConfig(K=K, epsilon=eps, method="sum")
        assert theta_by_sum(g, orders, cfg, np.random.default_rng(5), masked=True) == expected

    def test_tie_breaks_to_smallest(self):
        ## path on 3 nodes, epsilon 1.5: objective is exactly 4.0 at both
        ## candidates, so the protocol must return 1
        g = Graph(3, [(0, 1), (1, 2)])
        cfg = ThetaSearchConfig(K=2, epsilon=1.5, method="sum")
        assert theta_by_sum(g, degree_sequence(g), cfg, np.random.default_rng(0), masked=False) == 1

    def test_empty_graph_rejected(self):
        cfg = ThetaSearchConfig(K=5, epsilon=1.0, method="sum")
        with pytest.raises(ValueError, match="nonempty"):
            theta_by_sum(Graph(0, []), [], cfg, np.random.default_rng(0), masked=False)

    def test_one_round_per_candidate(self):
        g = star(5)
        cfg = ThetaSearchConfig(K=5, epsilon=1.0, method="sum")
        log: list = []
        theta_by_sum(g, degree_sequence(g), cfg, np.random.default_rng(0), masked=True, round_log=log)
        assert len(log) == 5

    def test_masked_and_bypassed_agree(self):
        g = star(7)
        cfg = ThetaSearchConfig(K=7, epsilon=0.7, method="sum")
        m = theta_by_sum(g, degree_sequence(g), cfg, np.random.default_rng(2), masked=True)
        b = theta_by_sum(g, degree_sequence(g), cfg, np.random.default_rng(2), masked=False)
        assert m == b


## theta and sha256 of repr(round_log) for an unmasked sum selection on
## synthetic:1000:3:5 (K = min(d_max, 64) = 64, eps 20, seed 0); each
## round logs one trial projection's per-node losses, so a changed trial
## changes the hash
SUM_GOLDEN = (19, "13b85668be53bef41e1c1a23f9500a819dc5cea02ae8d10b89be7f7cdd625ecd")


class TestSumGolden:
    def test_trials_pinned(self):
        g, _ = load_dataset("synthetic:1000:3:5")
        cfg = ThetaSearchConfig(K=min(stats(g).d_max, 64), epsilon=20.0, method="sum")
        log: list = []
        theta = theta_by_sum(g, degree_sequence(g), cfg, np.random.default_rng(0), masked=False, round_log=log)
        assert len(log) == 64
        assert (theta, hashlib.sha256(repr(log).encode()).hexdigest()) == SUM_GOLDEN


## theta, round count and sha256 of repr(round_log) for masked selections on
## synthetic:300:11:1 (K 64, eps 3, default_rng(0)), by method: each payload
## is a value plus its party's mask, so a moved key draw, ring, key or mask
## changes the hash
MASKED_GOLDEN = {
    "deviation": (20, 6, "a9f6a3507438c2c09c0e5e45963c6d8e4c03d0f37ec9fbd9b7aaac052c935d97"),
    "sum": (18, 64, "b4547ddac85ac1d92c2c5b9ea3c25842a92a5fd687f6eb59a29444a84d272384"),
}


@pytest.mark.parametrize("method", sorted(MASKED_GOLDEN))
def test_masked_round_log_pinned(method):
    g, _ = load_dataset("synthetic:300:11:1")
    degs = degree_sequence(g)
    cfg = ThetaSearchConfig(K=64, epsilon=3.0, method=method)
    log: list = []
    rng = np.random.default_rng(0)
    if method == "sum":
        selected = theta_by_sum(g, degs, cfg, rng, masked=True, round_log=log)
    else:
        selected = theta_by_deviation(degs, cfg, rng, masked=True, round_log=log)
    assert all(kind == "masked" for kind, _ in log)
    assert (selected, len(log), hashlib.sha256(repr(log).encode()).hexdigest()) == MASKED_GOLDEN[method]
