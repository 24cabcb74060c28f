import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from degreeldp.mechanisms import (
    PrivacyParams,
    categorical_sample,
    exp_mech_probs,
    laplace_sample,
    wrr_debias_count,
    wrr_respond,
    wrr_truth_rate,
)


class TestPrivacyParams:
    def test_budget_split(self):
        p = PrivacyParams(epsilon=3.0, alpha=0.1)
        assert p.order_budget == pytest.approx(0.15)
        assert p.negotiation_budget == pytest.approx(0.15)
        assert p.release_budget == pytest.approx(2.7)
        assert p.order_budget + p.negotiation_budget + p.release_budget == pytest.approx(p.epsilon)

    @pytest.mark.parametrize("eps,alpha", [
        (0.0, 0.1), (-1.0, 0.1), (math.inf, 0.1), (-math.inf, 0.1), (math.nan, 0.1),
        (1.0, 0.0), (1.0, 1.0), (1.0, 1.5),
        (True, 0.1), (np.True_, 0.1), (1.0, True), (1.0, False),
    ])
    def test_validation(self, eps, alpha):
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=eps, alpha=alpha)


class TestLaplace:
    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            laplace_sample(np.random.default_rng(0), 0.0, 1)

    def test_seed_determinism(self):
        a = laplace_sample(np.random.default_rng(7), 2.0, 10)
        b = laplace_sample(np.random.default_rng(7), 2.0, 10)
        assert a.tolist() == b.tolist()

    def test_mean_abs_matches_scale(self):
        rng = np.random.default_rng(123)
        draws = laplace_sample(rng, 3.5, 200_000)
        assert abs(draws).mean() == pytest.approx(3.5, rel=0.02)
        assert draws.mean() == pytest.approx(0.0, abs=0.05)

    def test_scale_linearity(self):
        ## same uniform stream, doubled scale doubles every draw
        a = laplace_sample(np.random.default_rng(5), 1.0, 50)
        b = laplace_sample(np.random.default_rng(5), 2.0, 50)
        assert b == pytest.approx(2 * a)

    def test_zero_uniform_gives_finite_draw(self):
        ## random() may return 0.0, i.e. u = -0.5; it maps to the nearest u
        ## inside (-0.5, 0.5) instead of raising from log1p(-1)
        class ZeroRng:
            def random(self, size):
                return np.zeros(size)

        draws = laplace_sample(ZeroRng(), 2.0, 3)
        assert np.all(np.isfinite(draws))
        assert draws == pytest.approx([-2.0 * 53 * math.log(2)] * 3)

    def test_batch_equals_scalar_draws(self):
        ## the per-call form: one rng.random() and one math.log1p per draw
        def scalar(rng, scale):
            u = rng.random() - 0.5
            if u == -0.5:
                u = math.nextafter(-0.5, 0.0)
            return -scale * math.copysign(1.0, u) * math.log1p(-2.0 * abs(u))

        batch_rng, scalar_rng = np.random.default_rng(11), np.random.default_rng(11)
        batch = laplace_sample(batch_rng, 2.5, 5000)
        assert batch.tolist() == [scalar(scalar_rng, 2.5) for _ in range(5000)]
        assert batch_rng.random() == scalar_rng.random()


class TestWrr:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            wrr_respond(np.random.default_rng(0), True, 0.0)
        with pytest.raises(ValueError):
            wrr_debias_count(10, 5, 0.0)

    def test_truth_rate_formula(self):
        assert wrr_truth_rate(math.log(3)) == pytest.approx(0.75)
        assert wrr_truth_rate(1.0) == pytest.approx(math.e / (math.e + 1))

    def test_empirical_truth_rate(self):
        rng = np.random.default_rng(99)
        budget = math.log(3)
        kept = sum(wrr_respond(rng, True, budget) for _ in range(100_000))
        assert kept / 100_000 == pytest.approx(0.75, abs=0.01)

    @pytest.mark.parametrize(
        "u1,u2,budget,expected",
        [(10, 5, math.log(3), 5.0), (4, 1, math.log(3), 0.0), (10, 10, math.log(3), 15.0)],
    )
    def test_debias_spot_values(self, u1, u2, budget, expected):
        assert wrr_debias_count(u1, u2, budget) == pytest.approx(expected)

    @pytest.mark.parametrize("u1,u2", [(-1, 0), (5, -1), (5, 6)])
    def test_debias_rejects_bad_counts(self, u1, u2):
        with pytest.raises(ValueError):
            wrr_debias_count(u1, u2, 1.0)

    @given(
        u1=st.integers(1, 500),
        frac=st.floats(0.0, 1.0),
        budget=st.floats(0.05, 6.0),
    )
    def test_debias_inverts_expectation(self, u1, frac, budget):
        ## plugging the exact expected Yes-count back in recovers the truth
        c = frac * u1
        p = wrr_truth_rate(budget)
        expected_u2 = c * p + (u1 - c) * (1 - p)
        assert wrr_debias_count(u1, expected_u2, budget) == pytest.approx(c, abs=1e-6)


class TestExpMech:
    def test_analytic_two_choice(self):
        probs = exp_mech_probs(np.array([0.0, -5.0]), 4 * math.log(2), 10.0)
        assert probs == pytest.approx([2 / 3, 1 / 3])

    def test_equal_scores_uniform(self):
        probs = exp_mech_probs(np.zeros(7), 1.0, 1.0)
        assert probs == pytest.approx(np.full(7, 1 / 7))

    def test_validation(self):
        with pytest.raises(ValueError):
            exp_mech_probs(np.array([]), 1.0, 1.0)
        with pytest.raises(ValueError):
            exp_mech_probs(np.array([1.0]), 0.0, 1.0)
        with pytest.raises(ValueError):
            exp_mech_probs(np.array([1.0]), 1.0, 0.0)

    def test_large_scores_stable(self):
        probs = exp_mech_probs(np.array([1e6, 1e6 - 1.0]), 2.0, 1.0)
        assert np.isfinite(probs).all()
        assert probs.sum() == pytest.approx(1.0)

    @given(
        scores=st.lists(st.floats(-100, 100), min_size=1, max_size=10),
        shift=st.floats(-50, 50),
    )
    def test_shift_invariance(self, scores, shift):
        a = exp_mech_probs(np.array(scores), 1.3, 2.0)
        b = exp_mech_probs(np.array(scores) + shift, 1.3, 2.0)
        assert a == pytest.approx(b, abs=1e-12)


class TestCategorical:
    def test_validation(self):
        u = np.random.default_rng(0).random(1)
        with pytest.raises(ValueError):
            categorical_sample(np.cumsum([0.5, 0.6]), u)
        with pytest.raises(ValueError):
            categorical_sample(np.cumsum([-0.1, 1.1]), u)

    def test_point_mass(self):
        rng = np.random.default_rng(0)
        assert all(categorical_sample(np.cumsum([0.0, 1.0, 0.0]), rng.random(20)) == 1)

    def test_frequencies(self):
        rng = np.random.default_rng(31)
        probs = np.array([0.25, 0.25, 0.5])
        counts = np.bincount(categorical_sample(np.cumsum(probs), rng.random(40_000)), minlength=3)
        assert counts / 40_000 == pytest.approx(probs, abs=0.01)
