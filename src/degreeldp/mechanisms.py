"""Core randomizers: Laplace noise, binary randomized response, exponential mechanism.

All sampling goes through an explicit numpy Generator so a seed fully
determines a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def check_epsilon(epsilon) -> None:
    """The one check of a privacy budget: a finite positive number, not a bool."""
    if isinstance(epsilon, (bool, np.bool_)) or not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")


@dataclass(frozen=True)
class PrivacyParams:
    """Total budget epsilon and the split ratio alpha.

    A fraction alpha of the budget goes to the interactive stages: half
    to degree-order encoding and half to each randomized-response answer
    of the negotiation.  The remaining (1 - alpha) goes to the final
    Laplace perturbation.  A node answers once for every neighbor that
    asks it, and each answer spends the negotiation half again, so the
    stages compose to epsilon (epsilon-node LDP) only for a node that
    answers at most once; the negotiation does not cap its answers yet.
    """

    epsilon: float
    alpha: float

    def __post_init__(self):
        check_epsilon(self.epsilon)
        ## a bool alpha is 0 or 1, which the open range already refuses
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    @property
    def order_budget(self) -> float:
        """Budget for sampling a private degree-order encoding."""
        return self.alpha * self.epsilon / 2

    @property
    def negotiation_budget(self) -> float:
        """Budget for each randomized-response answer during edge negotiation."""
        return self.alpha * self.epsilon / 2

    @property
    def release_budget(self) -> float:
        """Budget for the Laplace noise on the projected degrees."""
        return (1 - self.alpha) * self.epsilon


def laplace_sample(rng: np.random.Generator, scale: float, size: int) -> np.ndarray:
    """Draw size Laplace(0, scale) variates by inverting the CDF on rng.random(size).

    rng.random(size) holds the doubles that size calls of rng.random()
    return, and math.log1p runs per element because np.log1p can differ
    from it in the last bits, so draw k equals the k-th of size scalar
    draws from the same generator.
    """
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    u = rng.random(size) - 0.5
    u[u == -0.5] = math.nextafter(-0.5, 0.0)  # a uniform of 0.0, where log1p(-1) would raise
    logs = np.fromiter(map(math.log1p, (-2.0 * np.abs(u)).tolist()), dtype=float, count=size)
    return -scale * np.copysign(1.0, u) * logs


def wrr_truth_rate(budget: float) -> float:
    """Probability e^b / (e^b + 1) that binary randomized response keeps the true bit."""
    return math.exp(budget) / (math.exp(budget) + 1.0)


def wrr_respond(rng: np.random.Generator, truth: bool, budget: float) -> bool:
    """Binary randomized response: keep the true bit with probability wrr_truth_rate(budget)."""
    if not budget > 0:
        raise ValueError(f"budget must be positive, got {budget}")
    return truth if rng.random() < wrr_truth_rate(budget) else (not truth)


def wrr_debias_count(u1: float, u2: float, budget: float) -> float:
    """Unbiased estimate of the number of true Yes answers among u1 responses.

    u2 of the u1 randomized answers came back Yes.  Inverting the response
    distribution gives (u2 * (e^b + 1) - u1) / (e^b - 1), which can fall
    outside [0, u1]; callers clamp as needed.
    """
    if not budget > 0:
        raise ValueError(f"budget must be positive, got {budget}")
    if u1 < 0 or u2 < 0 or u2 > u1:
        raise ValueError(f"need 0 <= u2 <= u1, got u1={u1}, u2={u2}")
    e = math.exp(budget)
    return (u2 * (e + 1.0) - u1) / (e - 1.0)


def exp_mech_probs(scores: np.ndarray, budget: float, sensitivity: float) -> np.ndarray:
    """Exponential-mechanism selection probabilities over candidate scores.

    Computes softmax(scores * budget / (2 * sensitivity)) with the max
    score subtracted first for numerical stability.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("scores must be nonempty")
    if not budget > 0:
        raise ValueError(f"budget must be positive, got {budget}")
    if not sensitivity > 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    z = scores * (budget / (2.0 * sensitivity))
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


def categorical_sample(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF indices: for each uniform in u, the first index whose cumulative probability exceeds it.

    cdf is one row of cumulative probabilities in the given order.  A
    uniform at or above a total that rounds below 1 takes the last index.
    """
    cdf = np.asarray(cdf, dtype=float)
    if cdf.size == 0 or not (cdf[0] >= 0 and (cdf[:-1] <= cdf[1:]).all() and abs(cdf[-1] - 1.0) <= 1e-9):
        raise ValueError("cdf must be nondecreasing from a nonnegative start and end at 1")
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)
