import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from degreeldp.encoding import build_partitions, ndoe_sample, order_probs
from degreeldp.mechanisms import PrivacyParams


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


class TestOrderProbs:
    def test_analytic_two_partition(self):
        s = build_partitions(0, 10, 5)
        assert s.medians == (2.5, 7.5)
        probs = order_probs(2, two_thirds_params(), s)
        assert probs == pytest.approx([2 / 3, 1 / 3])

    def test_equidistant_degree_splits_evenly(self):
        s = build_partitions(0, 10, 5)
        probs = order_probs(5, PrivacyParams(epsilon=2.0, alpha=0.5), s)
        assert probs == pytest.approx([0.5, 0.5])

    def test_degenerate_domain_is_certain(self):
        s = build_partitions(3, 3, 10)
        assert order_probs(3, PrivacyParams(3.0, 0.1), s) == pytest.approx([1.0])

    def test_out_of_domain_rejected(self):
        s = build_partitions(1, 10, 5)
        with pytest.raises(ValueError):
            order_probs(0, PrivacyParams(3.0, 0.1), s)
        with pytest.raises(ValueError):
            order_probs(11, PrivacyParams(3.0, 0.1), s)

    def test_sums_to_one_across_domain(self):
        s = build_partitions(0, 137, 10)
        params = PrivacyParams(epsilon=2.5, alpha=0.2)
        for d in range(0, 138):
            assert abs(order_probs(d, params, s).sum() - 1.0) <= 1e-9

    def test_mode_is_own_partition(self):
        s = build_partitions(0, 100, 10)
        params = PrivacyParams(epsilon=50.0, alpha=0.5)
        for d in (3, 25, 47, 99):
            probs = order_probs(d, params, s)
            ## partitions are [0, 10), [10, 20), ..., [90, 100]
            assert int(np.argmax(probs)) + 1 == min(d // 10, 9) + 1

    def test_vanishing_budget_gives_uniform(self):
        s = build_partitions(0, 100, 10)
        params = PrivacyParams(epsilon=1e-5, alpha=1e-1)
        probs = order_probs(17, params, s)
        assert np.max(np.abs(probs - 1 / len(s.medians))) < 1e-6

    def test_probability_ratio_bounded_between_degrees(self):
        ## privacy bound: switching the input degree moves any output
        ## probability by at most exp(order budget)
        s = build_partitions(0, 60, 7)
        params = PrivacyParams(epsilon=2.0, alpha=0.3)
        bound = math.exp(params.order_budget) + 1e-9
        degrees = [0, 5, 13, 31, 60]
        for d1 in degrees:
            p1 = order_probs(d1, params, s)
            for d2 in degrees:
                p2 = order_probs(d2, params, s)
                assert np.all(p1 / p2 <= bound)


class TestNdoeSample:
    def test_range_and_determinism(self):
        s = build_partitions(0, 100, 10)
        params = PrivacyParams(epsilon=3.0, alpha=0.1)
        a = [ndoe_sample(42, params, s, np.random.default_rng(9)) for _ in range(5)]
        b = [ndoe_sample(42, params, s, np.random.default_rng(9)) for _ in range(5)]
        assert a == b
        assert all(1 <= o <= len(s.medians) for o in a)

    def test_empirical_two_partition_frequencies(self):
        s = build_partitions(0, 10, 5)
        params = two_thirds_params()
        rng = np.random.default_rng(77)
        draws = np.array([ndoe_sample(2, params, s, rng) for _ in range(20_000)])
        assert np.mean(draws == 1) == pytest.approx(2 / 3, abs=0.02)
