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


def laplace_sample(rng: np.random.Generator, scale: float) -> float:
    """Draw Laplace(0, scale) noise by inverting the CDF on one uniform."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    u = rng.random() - 0.5
    if u == -0.5:  # rng.random() returned 0.0, where log1p(-1) would raise
        u = math.nextafter(-0.5, 0.0)
    return -scale * math.copysign(1.0, u) * math.log1p(-2.0 * abs(u))


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


def categorical_sample(rng: np.random.Generator, probs: np.ndarray) -> int:
    """Sample an index from a probability vector by inverse CDF in the given order."""
    probs = np.asarray(probs, dtype=float)
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("probs must be nonnegative and sum to 1")
    cum = np.cumsum(probs)
    u = rng.random()
    idx = int(np.searchsorted(cum, u, side="right"))
    return min(idx, probs.size - 1)
