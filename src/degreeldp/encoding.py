"""Private degree-order encoding.

The public degree domain [d_min, d_max] is tiled with fixed-width
partitions.  Each node reports which partition its degree falls in, but
samples the answer with the exponential mechanism (scored by distance to
each partition's median) so the report is differentially private.  The
resulting small integer is the node's order, used to schedule the edge
negotiation without revealing true degrees.

A run builds one inverse-CDF row per distinct degree (order_cdfs); each
trial samples all orders from one rng.random(n), node i on the i-th double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import check_count
from .mechanisms import PrivacyParams, categorical_sample, exp_mech_probs

DEFAULT_PARTITION_SIZE = 50


@dataclass(frozen=True)
class PartitionScheme:
    """Medians of a fixed tiling of [d_min, d_max] into equal-width partitions.

    Orders are the 1-based indices into medians.
    """

    d_min: int
    d_max: int
    medians: tuple[float, ...]

    @property
    def delta_u(self) -> int:
        """Score sensitivity: the spread of the degree domain."""
        return self.d_max - self.d_min


def build_partitions(d_min: int, d_max: int, p_size: int = DEFAULT_PARTITION_SIZE) -> PartitionScheme:
    """Tile [d_min, d_max] into ceil((d_max - d_min) / p_size) partitions.

    Partitions are half-open [lo, lo + p_size) except the last, which is
    closed at d_max; each is represented by its median (lo + hi) / 2.
    """
    if d_min < 0 or d_max < d_min:
        raise ValueError(f"need 0 <= d_min <= d_max, got d_min={d_min}, d_max={d_max}")
    check_count("p_size", p_size)
    p_num = max(math.ceil((d_max - d_min) / p_size), 1)
    medians = []
    for j in range(p_num):
        lo = d_min + j * p_size
        hi = d_max if j == p_num - 1 else lo + p_size
        medians.append((lo + hi) / 2.0)
    return PartitionScheme(d_min=d_min, d_max=d_max, medians=tuple(medians))


def order_probs(d: int, params: PrivacyParams, scheme: PartitionScheme) -> np.ndarray:
    """Selection probabilities over orders for a node of degree d.

    Scores are the negated distances to partition medians; the mechanism
    budget is the order share of the node's budget.  A degenerate domain
    (delta_u = 0) makes order 1 certain.
    """
    if not scheme.d_min <= d <= scheme.d_max:
        raise ValueError(f"degree {d} outside [{scheme.d_min}, {scheme.d_max}]")
    if scheme.delta_u == 0:
        return np.ones(1)
    scores = -np.abs(d - np.asarray(scheme.medians))
    return exp_mech_probs(scores, params.order_budget, scheme.delta_u)


def order_cdfs(degrees, params: PrivacyParams, scheme: PartitionScheme) -> list[tuple[np.ndarray, np.ndarray]]:
    """One (inverse-CDF row, node ids) pair per distinct degree, in ascending degree.

    Each row is the cumulative sum of order_probs for its degree; the ids
    are the nodes of that degree, ascending.
    """
    degs = np.asarray(degrees, dtype=np.int64)
    counts = np.bincount(degs)
    present = np.flatnonzero(counts)
    nodes = np.split(np.argsort(degs, kind="stable"), np.cumsum(counts[present])[:-1])
    return [(np.cumsum(order_probs(int(d), params, scheme)), ids) for d, ids in zip(present, nodes)]


def ndoe_sample(cdfs: list[tuple[np.ndarray, np.ndarray]], rng: np.random.Generator) -> np.ndarray:
    """Sample every node's private order (1-based partition index) from order_cdfs rows.

    Node i's order is the inverse CDF of its degree's row at u[i], where
    u = rng.random(n) is one draw for all n nodes.
    """
    n = sum(ids.size for _, ids in cdfs)
    u = rng.random(n)
    orders = np.empty(n, dtype=np.int64)
    for cdf, ids in cdfs:
        orders[ids] = categorical_sample(cdf, u[ids]) + 1
    return orders
