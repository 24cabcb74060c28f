"""Private degree-order encoding.

The public degree domain [d_min, d_max] is tiled with fixed-width
partitions.  Each node reports which partition its degree falls in, but
samples the answer with the exponential mechanism (scored by distance to
each partition's median) so the report is differentially private.  The
resulting small integer is the node's order, used to schedule the edge
negotiation without revealing true degrees.

A run builds its order table once (order_cdfs): one inverse-CDF row per
distinct degree, from one exponential-mechanism call, and each node's row.
Each trial samples all orders from one rng.random(n), node i on the i-th double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import check_count
from .mechanisms import PrivacyParams, exp_mech_probs

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
    los = range(d_min, d_min + p_num * p_size, p_size)
    medians = tuple((lo + min(lo + p_size, d_max)) / 2.0 for lo in los)
    return PartitionScheme(d_min=d_min, d_max=d_max, medians=medians)


def order_cdfs(degrees, params: PrivacyParams, scheme: PartitionScheme) -> tuple[np.ndarray, np.ndarray]:
    """The run's order table: one inverse-CDF row per distinct degree, ascending, and each node's row index.

    Scores are negated distances to partition medians, the budget is the order
    share; a degenerate domain (delta_u = 0) makes order 1 certain: one column of ones.
    """
    present, row = np.unique(np.asarray(degrees, dtype=np.int64), return_inverse=True)
    if not scheme.d_min <= present[0] <= present[-1] <= scheme.d_max:
        raise ValueError(f"degrees [{present[0]}, {present[-1]}] outside [{scheme.d_min}, {scheme.d_max}]")
    if scheme.delta_u == 0:
        probs = np.ones((present.size, 1))
    else:
        scores = -np.abs(present[:, None] - np.asarray(scheme.medians))
        probs = exp_mech_probs(scores, params.order_budget, scheme.delta_u)
    return np.cumsum(probs, axis=1), row


def ndoe_sample(table: tuple[np.ndarray, np.ndarray], rng: np.random.Generator) -> np.ndarray:
    """Sample every node's private order (1-based partition index) from the order_cdfs table.

    Node i's order is the inverse CDF of its row at u[i], u = rng.random(n), counted one CDF
    column at a time, in O(n) memory; a u[i] at or above a row total below 1 takes the last order.
    """
    cdf, row = table
    u = rng.random(row.size)
    orders = np.zeros(row.size, dtype=np.int64)
    for column in cdf.T:
        orders += column[row] <= u
    return np.minimum(orders, cdf.shape[1] - 1) + 1
