"""Final degree-sequence release with Laplace noise.

After projection bounds every degree by theta, each node's reported
degree has sensitivity theta, so adding Laplace(theta / release_budget)
noise per node gives the release stage its share of the privacy budget.
The raw noisy sequence is kept as reals; the degree distribution is
computed from the rounded, clamped values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .graph import check_count
from .mechanisms import PrivacyParams, laplace_sample
from .projection import ProjectedGraph


@dataclass(frozen=True)
class ReleaseReport:
    noisy_degrees: tuple[float, ...]
    distribution: tuple[float, ...]
    theta: int
    params: PrivacyParams
    seed: int | None = None
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Deterministic serialization; float repr round-trips exactly."""
        payload = {
            "theta": self.theta,
            "epsilon": self.params.epsilon,
            "alpha": self.params.alpha,
            "seed": self.seed,
            "noisy_degrees": [repr(x) for x in self.noisy_degrees],
            "distribution": [repr(x) for x in self.distribution],
            "metadata": self.metadata,
        }
        return json.dumps(payload, sort_keys=True)


def noise_scale(theta: int, params: PrivacyParams) -> float:
    """Laplace scale for one node's bounded degree: theta over the release budget."""
    check_count("theta", theta)
    return theta / params.release_budget


def degree_distribution(noisy_degrees, n: int) -> np.ndarray:
    """Proportion of nodes per degree bin 0..n-1 after rounding and clamping."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    vals = np.rint(np.asarray(noisy_degrees, dtype=float)).astype(int)
    vals = np.clip(vals, 0, n - 1)
    return np.bincount(vals, minlength=n) / len(vals)


def dsr(
    pg: ProjectedGraph,
    theta: int,
    params: PrivacyParams,
    rng: np.random.Generator,
    seed: int | None = None,
) -> ReleaseReport:
    """Perturb each projected degree with Laplace noise and assemble the release.

    The noise is one laplace_sample batch of n draws, node i taking draw
    i, so a seed pins the whole report.  Raises ValueError if a projected
    degree exceeds theta: the scale theta / budget would then under-noise it.
    """
    scale = noise_scale(theta, params)
    if pg.degrees and max(pg.degrees) > theta:
        raise ValueError(f"projected degree {max(pg.degrees)} exceeds theta={theta}; the noise would not cover it")
    noisy = (np.asarray(pg.degrees, dtype=float) + laplace_sample(rng, scale, pg.n)).tolist()
    dist = degree_distribution(noisy, pg.n)
    return ReleaseReport(
        noisy_degrees=tuple(noisy),
        distribution=tuple(dist.tolist()),
        theta=theta,
        params=params,
        seed=seed,
    )
