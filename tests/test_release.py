from types import SimpleNamespace

import numpy as np
import pytest

from degreeldp.graph import Graph, degree_sequence
from degreeldp.mechanisms import PrivacyParams, laplace_sample
from degreeldp.projection import ProjectionConfig, lpea_low, schedule
from degreeldp.release import degree_distribution, dsr, noise_scale


def small_projected(theta=2):
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    cfg = ProjectionConfig(theta=theta)
    return g, lpea_low(g, schedule(g, degree_sequence(g)), cfg, np.random.default_rng(0))


class TestNoiseScale:
    def test_spot_value(self):
        assert noise_scale(42, PrivacyParams(3.0, 0.1)) == pytest.approx(42 / 2.7)

    def test_theta_validated(self):
        with pytest.raises(ValueError):
            noise_scale(0, PrivacyParams(3.0, 0.1))

    def test_infinite_scale_refused(self):
        ## 3 / (0.9 * 1e-308) overflows to inf, and every noisy degree with it
        with pytest.raises(ValueError, match=r"theta / release budget = 3 / .* is not finite"):
            noise_scale(3, PrivacyParams(1e-308, 0.1))

    def test_scale_with_an_infinite_largest_draw_refused(self):
        ## 3 / (0.9 * 5e-308) = 6.7e307 is finite, but 53·ln 2 times it is not
        with pytest.raises(ValueError, match=r"= 3 / 4.5e-308 is not finite at its largest draw"):
            noise_scale(3, PrivacyParams(5e-308, 0.1))

    def test_accepted_exactly_when_the_largest_draw_is_finite(self):
        ## a generator whose uniforms are all 0.0 gives laplace_sample's largest |draw|
        zeros = SimpleNamespace(random=np.zeros)
        accepted = refused = 0
        for epsilon in np.geomspace(1e-306, 1e-307, 400):
            params = PrivacyParams(float(epsilon), 0.1)
            try:
                scale = noise_scale(1, params)
            except ValueError:
                refused += 1
                with np.errstate(over="ignore"):
                    assert not np.isfinite(laplace_sample(zeros, 1 / params.release_budget, 1)).all()
            else:
                accepted += 1
                assert np.isfinite(laplace_sample(zeros, scale, 1)).all()
        assert accepted and refused


class TestDegreeDistribution:
    def test_rounding_and_clamping(self):
        dist = degree_distribution([0.2, -0.4, 1.1], 3)
        assert dist == pytest.approx([2 / 3, 1 / 3, 0.0])

    def test_clips_before_the_integer_cast(self):
        ## cast first, 1e19 wrapped to a negative integer and was counted in bin 0
        assert degree_distribution([1e19, 2.0, 2.0], 3).tolist() == [0.0, 0.0, 1.0]

    def test_clamps_to_bins(self):
        dist = degree_distribution([-5.0, 99.0], 3)
        assert dist == pytest.approx([0.5, 0.0, 0.5])

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        dist = degree_distribution(rng.normal(3, 10, 500), 50)
        assert dist.sum() == pytest.approx(1.0)

    def test_n_validated(self):
        with pytest.raises(ValueError):
            degree_distribution([1.0], 0)


class TestDsr:
    def test_report_is_deterministic_per_seed(self):
        _, pg = small_projected()
        params = PrivacyParams(1.5, 0.2)
        a = dsr(pg, 2, params, np.random.default_rng(11), seed=11)
        b = dsr(pg, 2, params, np.random.default_rng(11), seed=11)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_noise_centered_on_projected_degrees(self):
        _, pg = small_projected()
        params = PrivacyParams(epsilon=100.0, alpha=0.01)  # tiny noise
        report = dsr(pg, 2, params, np.random.default_rng(0))
        assert np.asarray(report.noisy_degrees) == pytest.approx(pg.degrees, abs=0.5)

    def test_distribution_matches_noisy_sequence(self):
        _, pg = small_projected()
        report = dsr(pg, 2, PrivacyParams(2.0, 0.1), np.random.default_rng(5))
        recomputed = degree_distribution(report.noisy_degrees, pg.n)
        assert np.asarray(report.distribution) == pytest.approx(recomputed)

    def test_report_carries_run_metadata(self):
        _, pg = small_projected()
        params = PrivacyParams(2.0, 0.1)
        report = dsr(pg, 2, params, np.random.default_rng(5), seed=1234)
        assert report.theta == 2
        assert report.params == params
        assert report.seed == 1234
        assert len(report.noisy_degrees) == pg.n

    def test_degree_above_theta_rejected(self):
        ## sensitivity theta only holds once projection capped every degree at theta
        _, pg = small_projected(theta=3)
        assert max(pg.degrees) == 3
        params = PrivacyParams(2.0, 0.1)
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="exceeds theta=2"):
            dsr(pg, 2, params, rng)
        assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state
        assert dsr(pg, 3, params, rng).theta == 3

    def test_empirical_noise_magnitude(self):
        ## average |noisy - projected| approaches the Laplace scale
        g = Graph(2000, [(i, (i + 1) % 2000) for i in range(2000)])
        cfg = ProjectionConfig(theta=2)
        pg = lpea_low(g, schedule(g, degree_sequence(g)), cfg, np.random.default_rng(0))
        params = PrivacyParams(2.0, 0.5)
        report = dsr(pg, 2, params, np.random.default_rng(3))
        dev = np.abs(np.asarray(report.noisy_degrees) - np.asarray(pg.degrees))
        assert dev.mean() == pytest.approx(noise_scale(2, params), rel=0.1)
