"""Final degree-sequence release with Laplace noise.

After projection bounds every degree by theta, each node's reported
degree has sensitivity theta, so adding Laplace(theta / release_budget)
noise per node gives the release stage its share of the privacy budget.
The raw noisy sequence is kept as reals; the degree distribution is
computed from the rounded, clamped values.
"""

from __future__ import annotations

import json
import math
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


## laplace_sample's largest |draw| over its scale: -log1p(-2|u|) at u = nextafter(-0.5, 0), 53·ln 2
_LARGEST_LOG = -math.log1p(-2.0 * abs(math.nextafter(-0.5, 0.0)))


def noise_scale(theta: int, params: PrivacyParams) -> float:
    """Laplace scale for one node's bounded degree: theta over the release budget.

    Refused unless the largest draw at that scale, scale · 53·ln 2, is
    finite, so no noisy degree can overflow float64.
    """
    check_count("theta", theta)
    scale = theta / params.release_budget
    if not math.isfinite(scale * _LARGEST_LOG):
        raise ValueError(
            f"Laplace scale theta / release budget = {theta} / {params.release_budget} "
            "is not finite at its largest draw, scale · 53·ln 2"
        )
    return scale


def degree_distribution(noisy_degrees, n: int) -> np.ndarray:
    """Proportion of nodes per degree bin 0..n-1 after rounding and clamping."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    ## clipped as floats: a value past the int range would wrap in the cast
    vals = np.clip(np.rint(np.asarray(noisy_degrees, dtype=float)), 0, n - 1).astype(int)
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
