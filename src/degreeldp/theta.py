"""Collaborative selection of the projection threshold theta.

Two protocols pick theta before any degree is released.  Both move only
masked sums between the parties and the collector, so the collector
learns aggregate statistics and nothing per-node.

- by sum: for every candidate k, run a truthful trial projection and
  aggregate the per-node degree losses; pick the k minimizing the
  modeled total error (noise term plus projection term).
- by deviation: binary-search the threshold at which the number of
  nodes above it drops below n / epsilon, probing one masked indicator
  sum per round.

A masked selection is one protocol run: the parties agree their pairwise
keys once, before the first round, each with its k = O(log n) peers on
a Harary ring over a permutation the collector draws (agree_keys), and
expand them at once into the masks of every round the run can take
(round_masks); round r uses chunk r of each pair's mask stream.  The
collector learns a sum over fewer than all parties only if every peer
of that set outside it colludes: for one party, all k of its peers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import ClassVar, Sequence

import numpy as np

from .graph import Graph, check_count
from .graph import degree_sequence  # noqa: F401  (bench/tracing.py spans theta.degree_sequence)
from .mechanisms import check_epsilon
from .projection import ProjectionConfig, lpea_low, projection_error, schedule
from .secure_agg import agree_keys, masked_sum_round, round_masks

METHODS = ("sum", "deviation")


@dataclass(frozen=True)
class ThetaSearchConfig:
    """One selection run's settings.  Neither protocol reads alpha; bench/workloads.py passes it."""

    K: int
    epsilon: float
    alpha: float = 0.1
    method: str = "deviation"
    ## not a field: bench/workloads.py and bench/test_bench.py read q as ka_param(cfg.bits).q until
    ## ROADMAP item 2 moves them to secure_agg.GROUP.q and deletes this
    bits: ClassVar[int] = 61

    def __post_init__(self):
        check_count("K", self.K)
        check_epsilon(self.epsilon)
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")


def quantile_oracle(degrees: Sequence[int], epsilon: float, K: int) -> int:
    """Smallest theta in [1, K] with fewer than n / epsilon degrees above it.

    Reference linear scan used to validate the interactive protocol;
    returns K when no threshold qualifies.
    """
    check_count("K", K)
    check_epsilon(epsilon)
    d = np.sort(np.asarray(degrees))
    n = d.size
    ## count of degrees strictly above each candidate, all candidates at once
    above = n - np.searchsorted(d, np.arange(1, K + 1), side="right")
    for theta, cnt in enumerate(above, start=1):
        if cnt * epsilon < n:
            return theta
    return K


def _round_sums(n: int, rng: np.random.Generator, masked: bool, round_log, rounds: int):
    """One selection run's aggregation: a function that sums one round's n values per call, at most rounds calls.

    A masked run agrees its peer and key tables and derives the masks of every round here, once, before the first
    round.
    """
    if n == 0:
        raise ValueError("the graph must be nonempty")
    masks = round_masks(*agree_keys(n, rng), rounds) if masked else [None] * rounds
    r = count()
    return lambda values: masked_sum_round(values, masked=masked, round_log=round_log, masks=masks[next(r)])


def theta_by_deviation(
    degrees: Sequence[int],
    cfg: ThetaSearchConfig,
    rng: np.random.Generator,
    masked: bool = True,
    round_log: list | None = None,
) -> int:
    """Binary-search theta so that about an epsilon-th of nodes exceed it.

    Each probe is one aggregation round: every party submits a masked
    indicator of its degree exceeding the probe, and the collector
    compares the exact sum against n / epsilon.  The search runs until
    the candidate window is empty, which lands on the same threshold as
    the linear-scan oracle, in at most K.bit_length() rounds
    (floor(log2 K) + 1).  Keys are agreed, and the masks of that many
    rounds derived, once for all the rounds.
    """
    degrees = np.asarray(degrees)
    n = degrees.size
    K = int(cfg.K)
    sum_round = _round_sums(n, rng, masked, round_log, K.bit_length())
    lo, hi = 1, K
    while lo <= hi:
        probe = (lo + hi) // 2
        ## compare count < n / epsilon without dividing
        if sum_round((degrees > probe).astype(int).tolist()) * cfg.epsilon < n:
            hi = probe - 1
        else:
            lo = probe + 1
    return min(lo, K)


def theta_by_sum(
    g: Graph,
    orders: Sequence[int],
    cfg: ThetaSearchConfig,
    rng: np.random.Generator,
    masked: bool = True,
    round_log: list | None = None,
) -> int:
    """Pick theta by trialing every candidate and aggregating its masked loss.

    For each k in 1..K the parties run one truthful low-order-first
    addition projection at bound k and submit their degree losses to a
    masked sum.  The K trial projections share one schedule, built once
    from the orders: its turns and sorted edge layout do not depend on
    k.  One pass over that layout decides the trials at k <= 64 at once,
    one bit per k, so each of them only reads its bit; a trial at k > 64
    scans the edges with an endpoint above k on its own, which is by then
    cheaper than carrying wider words.  The keys are agreed
    once, before round 1, and each pair's key is expanded once into one
    SHAKE-256 stream with a 32-byte chunk per round; round k masks with
    chunk k - 1.  The collector scores each k as n * k / epsilon plus
    the summed loss and returns the smallest minimizer.  Exactly K
    aggregation rounds.
    """
    K = int(cfg.K)
    sum_round = _round_sums(g.n, rng, masked, round_log, K)
    sched = schedule(g, orders, bounds=K)
    scores = []
    for k in range(1, K + 1):
        losses, _ = projection_error(g, lpea_low(g, sched, ProjectionConfig(theta=k), rng))
        ## modeled release error: Laplace noise term plus projection loss
        scores.append(g.n * k / cfg.epsilon + float(sum_round(losses.tolist())))
    return 1 + int(np.argmin(scores))
