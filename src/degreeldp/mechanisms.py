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


## past e^b = 2^53 the truth rate is exactly 1.0 and the debiased count rounds
## to u2, so capping b there keeps math.exp finite and changes no finite result
_MAX_EXPONENT = 40.0


def wrr_truth_rate(budget: float) -> float:
    """Probability e^b / (e^b + 1) that binary randomized response keeps the true bit."""
    e = math.exp(min(budget, _MAX_EXPONENT))
    return e / (e + 1.0)


def wrr_respond(rng: np.random.Generator, truth: bool, budget: float) -> bool:
    """Binary randomized response: keep the true bit with probability wrr_truth_rate(budget)."""
    if not budget > 0:
        raise ValueError(f"budget must be positive, got {budget}")
    return truth if rng.random() < wrr_truth_rate(budget) else (not truth)


def wrr_debiaser(budget: float):
    """Unbiased estimate of the true Yes count among u1 answers, u2 of them Yes, as a function of (u1, u2).

    Inverting the response distribution gives (u2 * (e^b + 1) - u1) / (e^b - 1),
    which can fall outside [0, u1]: callers clamp, and nothing checks the
    counts.  e^b - 1 comes from expm1, which stays positive where exp(b) - 1.0
    rounds to 0 (b below ~1.1e-16).
    """
    if not budget > 0:
        raise ValueError(f"budget must be positive, got {budget}")
    b = min(budget, _MAX_EXPONENT)
    plus, minus = math.exp(b) + 1.0, math.expm1(b)
    return lambda u1, u2: (u2 * plus - u1) / minus


def exp_mech_probs(scores: np.ndarray, budget: float, sensitivity: float) -> np.ndarray:
    """Exponential-mechanism selection probabilities over candidate scores.

    Computes softmax(scores * budget / (2 * sensitivity)) along the last
    axis (one distribution per row), each row's max subtracted first for
    numerical stability.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("scores must be nonempty")
    if not budget > 0:
        raise ValueError(f"budget must be positive, got {budget}")
    if not sensitivity > 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    z = scores * (budget / (2.0 * sensitivity))
    z = z - z.max(axis=-1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=-1, keepdims=True)

