import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from degreeldp.mechanisms import (
    PrivacyParams,
    exp_mech_probs,
    laplace_sample,
    wrr_debiaser,
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
            wrr_debiaser(0.0)

    def test_truth_rate_formula(self):
        assert wrr_truth_rate(math.log(3)) == pytest.approx(0.75)
        assert wrr_truth_rate(1.0) == pytest.approx(math.e / (math.e + 1))

    @pytest.mark.parametrize("budget", [36.0, 40.0, 50.0, 700.0, 710.0, 5000.0, 1e300])
    def test_truth_rate_finite_at_any_budget(self, budget):
        ## where math.exp(budget) is finite the rate is the uncapped formula's; past it, 1.0
        if budget < 709:
            assert wrr_truth_rate(budget) == math.exp(budget) / (math.exp(budget) + 1.0)
        else:
            assert wrr_truth_rate(budget) == 1.0

    @pytest.mark.parametrize("budget", [50.0, 700.0, 5000.0, 1e300])
    @pytest.mark.parametrize("u1,u2", [(10, 0), (10, 7), (10, 10), (1, 1)])
    def test_debias_finite_at_any_budget(self, u1, u2, budget):
        ## past e^b = 2^53 the estimate rounds to u2, as the uncapped formula's does where finite
        got = wrr_debiaser(budget)(u1, u2)
        assert math.isfinite(got) and round(got) == u2
        if budget < 709:
            e = math.exp(budget)
            assert round((u2 * (e + 1.0) - u1) / (e - 1.0)) == u2

    @pytest.mark.parametrize("budget", [1e-17, 5e-309])
    def test_debias_at_a_tiny_budget(self, budget):
        ## exp(b) - 1.0 is 0.0 below b ~ 1.1e-16, which divided by zero; the estimate keeps its sign
        assert wrr_debiaser(budget)(10, 5) == 0.0
        assert wrr_debiaser(budget)(10, 7) > 10
        assert wrr_debiaser(budget)(10, 3) < 0

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
        assert wrr_debiaser(budget)(u1, u2) == pytest.approx(expected)

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
        assert wrr_debiaser(budget)(u1, expected_u2) == pytest.approx(c, abs=1e-6)


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

    @given(
        rows=st.integers(1, 12),
        cols=st.integers(1, 300),
        budget=st.floats(1e-3, 50.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_one_dimensional_calls(self, rows, cols, budget, seed):
        ## a 2-D call is the 1-D call on each row, bit for bit
        scores = -np.abs(np.random.default_rng(seed).normal(0, 100, (rows, cols)))
        table = exp_mech_probs(scores, budget, 7.0)
        assert table.shape == (rows, cols)
        for r in range(rows):
            assert np.array_equal(table[r], exp_mech_probs(scores[r], budget, 7.0))

