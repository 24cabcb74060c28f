import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degreeldp.encoding import build_partitions, ndoe_sample, order_cdfs
from degreeldp.graph import stats
from degreeldp.harness import load_dataset
from degreeldp.mechanisms import PrivacyParams, exp_mech_probs
from conftest import random_graph


def two_thirds_params() -> PrivacyParams:
    ## alpha * epsilon = 8 ln 2 makes the two-partition case land on {2/3, 1/3}
    return PrivacyParams(epsilon=8 * math.log(2) / 0.1, alpha=0.1)


class TestBuildPartitions:
    def test_wide_domain(self):
        s = build_partitions(1, 1045, 50)
        assert len(s.medians) == 21
        assert s.delta_u == 1044
        assert s.medians[0] == 26.0  # [1, 51)
        assert s.medians[-1] == 1023.0  # [1001, 1045]

    def test_degenerate_domain(self):
        s = build_partitions(7, 7, 50)
        assert len(s.medians) == 1
        assert s.delta_u == 0
        assert s.medians == (7.0,)

    @pytest.mark.parametrize("dmin,dmax,psize", [(-1, 5, 2), (5, 4, 2), (0, 5, 0)])
    def test_validation(self, dmin, dmax, psize):
        with pytest.raises(ValueError):
            build_partitions(dmin, dmax, psize)

    @given(
        dmin=st.integers(0, 50),
        spread=st.integers(0, 400),
        psize=st.integers(1, 60),
    )
    def test_partitions_tile_domain(self, dmin, spread, psize):
        dmax = dmin + spread
        s = build_partitions(dmin, dmax, psize)
        ## contiguous p_size-wide intervals from dmin, the last one closed at dmax
        bounds = [(lo, lo + psize) for lo in range(dmin, dmax, psize)] or [(dmin, dmin)]
        bounds[-1] = (bounds[-1][0], dmax)
        assert len(s.medians) == len(bounds)
        for (lo, hi), med in zip(bounds, s.medians):
            assert med == (lo + hi) / 2


def row_probs(degrees, params, s):
    """Each distinct degree's order probabilities, ascending in degree, read off its order_cdfs row."""
    cdf, _ = order_cdfs(degrees, params, s)
    return np.diff(cdf, axis=1, prepend=0.0)


class FixedRng:
    """Stands in for a Generator whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


class TestOrderProbs:
    def test_analytic_two_partition(self):
        s = build_partitions(0, 10, 5)
        assert s.medians == (2.5, 7.5)
        (probs,) = row_probs([2], two_thirds_params(), s)
        assert probs == pytest.approx([2 / 3, 1 / 3])

    def test_equidistant_degree_splits_evenly(self):
        s = build_partitions(0, 10, 5)
        (probs,) = row_probs([5], PrivacyParams(epsilon=2.0, alpha=0.5), s)
        assert probs == pytest.approx([0.5, 0.5])

    def test_degenerate_domain_is_certain(self):
        s = build_partitions(3, 3, 10)
        cdf, row = order_cdfs([3, 3], PrivacyParams(3.0, 0.1), s)
        assert cdf.tolist() == [[1.0]]
        assert row.tolist() == [0, 0]

    def test_out_of_domain_rejected(self):
        s = build_partitions(1, 10, 5)
        with pytest.raises(ValueError):
            order_cdfs([0, 5], PrivacyParams(3.0, 0.1), s)
        with pytest.raises(ValueError):
            order_cdfs([5, 11], PrivacyParams(3.0, 0.1), s)

    def test_sums_to_one_across_domain(self):
        s = build_partitions(0, 137, 10)
        params = PrivacyParams(epsilon=2.5, alpha=0.2)
        cdf, _ = order_cdfs(range(138), params, s)
        assert cdf.shape == (138, len(s.medians))
        assert np.abs(cdf[:, -1] - 1.0).max() <= 1e-9

    def test_mode_is_own_partition(self):
        s = build_partitions(0, 100, 10)
        params = PrivacyParams(epsilon=50.0, alpha=0.5)
        degrees = (3, 25, 47, 99)
        ## partitions are [0, 10), [10, 20), ..., [90, 100]
        modes = np.argmax(row_probs(degrees, params, s), axis=1) + 1
        assert modes.tolist() == [min(d // 10, 9) + 1 for d in degrees]

    def test_vanishing_budget_gives_uniform(self):
        s = build_partitions(0, 100, 10)
        params = PrivacyParams(epsilon=1e-5, alpha=1e-1)
        (probs,) = row_probs([17], params, s)
        assert np.max(np.abs(probs - 1 / len(s.medians))) < 1e-6

    def test_probability_ratio_bounded_between_degrees(self):
        ## privacy bound: switching the input degree moves any output
        ## probability by at most exp(order budget)
        s = build_partitions(0, 60, 7)
        params = PrivacyParams(epsilon=2.0, alpha=0.3)
        bound = math.exp(params.order_budget) + 1e-9
        probs = row_probs([0, 5, 13, 31, 60], params, s)
        for p1 in probs:
            for p2 in probs:
                assert np.all(p1 / p2 <= bound)

    @given(
        seed=st.integers(0, 10_000),
        epsilon=st.floats(0.01, 30.0),
        alpha=st.floats(0.01, 0.99),
        p_size=st.integers(1, 60),
    )
    @settings(max_examples=150, deadline=None)
    def test_row_spread_within_half_the_order_budget(self, seed, epsilon, alpha, p_size):
        ## scores lie within delta_u of each other, so within one row the
        ## largest probability is at most exp(order_budget / 2) times the smallest
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(2, 60)), float(rng.uniform(0.02, 0.9)))
        summary = stats(g)
        params = PrivacyParams(epsilon, alpha)
        probs = row_probs(g.degrees, params, build_partitions(summary.d_min, summary.d_max, p_size))
        spread = probs.max(axis=1) / probs.min(axis=1)
        assert np.all(spread <= math.exp(params.order_budget / 2) * (1 + 1e-12))

    def test_rows_follow_distinct_degrees(self):
        ## one row per distinct degree, ascending, and each node's row index
        s = build_partitions(0, 100, 10)
        params = PrivacyParams(epsilon=3.0, alpha=0.1)
        degrees = [42, 3, 42, 97, 0, 3, 42]
        cdf, row = order_cdfs(degrees, params, s)
        assert row.tolist() == [2, 1, 2, 3, 0, 1, 2]
        assert np.array_equal(cdf, order_cdfs([0, 3, 42, 97], params, s)[0])


## sha256 of repr(orders.tolist()) for three successive ndoe_sample draws on
## synthetic:300:11:1 at p_size 3 (34 orders), eps 3, alpha 0.1, seed 2024
PSIZE3_ORDERS_GOLDEN = [
    "6a1c3450c8d52e4192dbc0b1dc981fb55a1b01f1c3af9ccedd29e2352ce3041d",
    "f94265e0e9fd1c77ac5819d9e84c81044847d4c11e1acd9bd3a71c7d35661d8f",
    "dbb3f4f7b7ab0d305e15fbd7bb0ff02b20ca4307595ae01ba1596cf375bdac8d",
]


class TestNdoeSample:
    def test_range_and_determinism(self):
        s = build_partitions(0, 100, 10)
        params = PrivacyParams(epsilon=3.0, alpha=0.1)
        table = order_cdfs([42, 3, 42, 97, 0], params, s)
        a = ndoe_sample(table, np.random.default_rng(9))
        b = ndoe_sample(table, np.random.default_rng(9))
        assert a.tolist() == b.tolist()
        assert all(1 <= o <= len(s.medians) for o in a)

    def test_empirical_two_partition_frequencies(self):
        s = build_partitions(0, 10, 5)
        params = two_thirds_params()
        rng = np.random.default_rng(77)
        draws = ndoe_sample(order_cdfs([2] * 20_000, params, s), rng)
        assert np.mean(draws == 1) == pytest.approx(2 / 3, abs=0.02)

    def test_point_mass(self):
        ## a hand-built table: every node's row puts all mass on order 2
        table = (np.cumsum([[0.0, 1.0, 0.0]], axis=1), np.zeros(20, dtype=np.int64))
        assert ndoe_sample(table, np.random.default_rng(0)).tolist() == [2] * 20

    def test_frequencies(self):
        probs = np.array([0.25, 0.25, 0.5])
        table = (np.cumsum([probs], axis=1), np.zeros(40_000, dtype=np.int64))
        counts = np.bincount(ndoe_sample(table, np.random.default_rng(31)), minlength=4)[1:]
        assert counts / 40_000 == pytest.approx(probs, abs=0.01)

    def test_uniform_below_one_clamps_to_last_order(self):
        ## a uniform of nextafter(1, 0) can exceed a row total that rounds
        ## below 1; the search then points past the row and the order is clamped
        g, _ = load_dataset("synthetic:300:11:1")
        degs = g.degrees.tolist()
        for p_size in (1, 3, 50):
            s = build_partitions(min(degs), max(degs), p_size)
            table = order_cdfs(degs, PrivacyParams(3.0, 0.1), s)
            orders = ndoe_sample(table, FixedRng(np.nextafter(1.0, 0.0)))
            assert orders.min() >= 1 and orders.max() <= len(s.medians)
        ## a row whose total rounds below 1 takes the last order
        short = (np.array([[0.5, 1.0 - 2.0**-52]]), np.zeros(3, dtype=np.int64))
        assert ndoe_sample(short, FixedRng(np.nextafter(1.0, 0.0))).tolist() == [2, 2, 2]

    def test_batch_equals_per_node_draws(self):
        g, _ = load_dataset("synthetic:4000:11:1")
        degs = g.degrees.tolist()
        params = PrivacyParams(epsilon=3.0, alpha=0.1)
        s = build_partitions(min(degs), max(degs))
        ## the per-node form: one rng.random() per node in id order, inverse CDF of
        ## its own 1-D exponential-mechanism call
        rng = np.random.default_rng(2024)
        expected = []
        for d in degs:
            cum = np.cumsum(exp_mech_probs(-np.abs(d - np.asarray(s.medians)), params.order_budget, s.delta_u))
            expected.append(min(int(np.searchsorted(cum, rng.random(), side="right")), cum.size - 1) + 1)
        batch_rng = np.random.default_rng(2024)
        assert ndoe_sample(order_cdfs(degs, params, s), batch_rng).tolist() == expected
        assert batch_rng.random() == rng.random()

    def test_column_count_is_the_row_search_in_linear_memory(self):
        g, _ = load_dataset("synthetic:4000:11:1")
        degs = g.degrees.tolist()
        for p_size in (50, 3, 1):
            scheme = build_partitions(min(degs), max(degs), p_size)
            cdf, row = table = order_cdfs(degs, PrivacyParams(3.0, 0.1), scheme)
            u = np.random.default_rng(p_size).random(row.size)
            want = [min(int(np.searchsorted(cdf[r], x, side="right")), cdf.shape[1] - 1) + 1 for r, x in zip(row, u)]
            assert ndoe_sample(table, np.random.default_rng(p_size)).tolist() == want, p_size
        ## at p_size 1 (369 orders) an n-by-orders gather peaks near 13 MB
        tracemalloc.start()
        try:
            ndoe_sample(table, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_psize3_orders_golden(self):
        g, _ = load_dataset("synthetic:300:11:1")
        degs = g.degrees.tolist()
        s = build_partitions(min(degs), max(degs), 3)
        assert len(s.medians) == 34
        table = order_cdfs(degs, PrivacyParams(3.0, 0.1), s)
        rng = np.random.default_rng(2024)
        got = [hashlib.sha256(repr(ndoe_sample(table, rng).tolist()).encode()).hexdigest() for _ in range(3)]
        assert got == PSIZE3_ORDERS_GOLDEN
