"""Experiment harness: seeded end-to-end runs, experiment grids and CSV emission.

A run loads one dataset, resolves the projection threshold, and repeats
the (encode, project, perturb) pipeline over independent trials; a grid
repeats runs over strategies and config overrides.  All
error metrics compare against the original degree sequence.  Seeding is
hierarchical: the master seed draws one integer seed per trial, and each
trial seed is split into per-stage substreams (order encoding,
projection, release), so any row can be reproduced in isolation.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, fields, replace
from typing import IO, Mapping, Sequence

import numpy as np

from .encoding import DEFAULT_PARTITION_SIZE, build_partitions, ndoe_sample
from .graph import Graph, degree_sequence, load_graph, stats
from .mechanisms import PrivacyParams
from .projection import ProjectionConfig, Strategy, project
from .release import ReleaseReport, degree_distribution, dsr
from .secure_agg import DEFAULT_BITS, ka_param
from .synthetic import powerlaw_graph
from .theta import ThetaSearchConfig, resolve_theta

DATA_DIR_ENV = "LDP_DEGREE_DATA_DIR"

SYNTHETIC_PREFIX = "synthetic:"


def mae(truth: Sequence[float], estimate: Sequence[float]) -> float:
    """Mean absolute error between two equal-length sequences."""
    a = np.asarray(truth, dtype=float)
    b = np.asarray(estimate, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.mean(np.abs(a - b)))


def mse(truth: Sequence[float], estimate: Sequence[float]) -> float:
    a = np.asarray(truth, dtype=float)
    b = np.asarray(estimate, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def mae_dist(p: Sequence[float], q: Sequence[float]) -> float:
    """L1 distance between two distribution vectors divided by their length."""
    return mae(p, q)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str
    strategy: Strategy = Strategy.LPEA_LOW
    epsilon: float = 3.0
    alpha: float = 0.1
    theta: int | str = "auto-deviation"
    K: int | None = None
    p_size: int = DEFAULT_PARTITION_SIZE
    bits: int = DEFAULT_BITS
    trials: int = 20
    seed: int = 0
    private: bool = True  # False: true-degree orders, truthful negotiation, no Laplace release
    masked: bool = True

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if isinstance(self.theta, str):
            if self.theta not in ("auto-sum", "auto-deviation"):
                raise ValueError(f"theta must be an integer, 'auto-sum' or 'auto-deviation', got {self.theta!r}")
        elif self.theta < 1:
            raise ValueError(f"theta must be at least 1, got {self.theta}")
        if self.K is not None and self.K < 1:
            raise ValueError(f"K must be at least 1, got {self.K}")
        if self.p_size < 1:
            raise ValueError(f"p_size must be at least 1, got {self.p_size}")
        PrivacyParams(self.epsilon, self.alpha)  # raises for a bad epsilon or alpha
        ka_param(self.bits)  # raises for a modulus bit length with no group


@dataclass(frozen=True)
class MetricsRow:
    dataset: str
    strategy: str
    epsilon: float
    alpha: float
    theta: int
    trial: int
    seed: int
    mae_seq: float
    mse_seq: float
    mae_dist: float
    edge_ratio: float
    runtime_ms: float


CSV_COLUMNS = tuple(f.name for f in fields(MetricsRow))


def find_dataset(path: str) -> str:
    """Resolve a dataset path, falling back to the LDP_DEGREE_DATA_DIR directory."""
    candidates = [path, path + ".gz"]
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir:
        candidates += [os.path.join(data_dir, path), os.path.join(data_dir, path + ".gz")]
    for cand in candidates:
        if os.path.isfile(cand):
            return cand
    raise FileNotFoundError(
        f"dataset {path!r} not found (set {DATA_DIR_ENV} to point at your edge-list directory)"
    )


def load_dataset(token: str) -> tuple[Graph, str]:
    """Load a dataset path or a synthetic token, returning (graph, label).

    Synthetic tokens look like 'synthetic:2000' or 'synthetic:2000:4:7'
    (node count, attachment degree, seed) and generate a seeded
    preferential-attachment graph in memory.
    """
    if token.startswith(SYNTHETIC_PREFIX):
        parts = token[len(SYNTHETIC_PREFIX):].split(":")
        if not parts[0] or len(parts) > 3:
            raise ValueError(f"bad synthetic token {token!r}; expected synthetic:<n>[:<attach>[:<seed>]]")
        n = int(parts[0])
        attach = int(parts[1]) if len(parts) > 1 else 4
        seed = int(parts[2]) if len(parts) > 2 else 0
        return powerlaw_graph(n, attach, seed), f"synthetic-{n}-{attach}-{seed}"
    resolved = find_dataset(token)
    label = os.path.basename(resolved)
    for ext in (".gz", ".txt", ".csv", ".edges"):
        if label.endswith(ext):
            label = label[: -len(ext)]
    return load_graph(resolved), label


def run_pipeline(cfg: ExperimentConfig, graph: Graph | None = None) -> tuple[list[MetricsRow], list[ReleaseReport]]:
    """Run all trials for one configuration.

    Returns one metrics row per trial plus the release reports (empty
    when the run is not private: the rows then score the projected
    degrees themselves).
    """
    if graph is None:
        graph, label = load_dataset(cfg.dataset)
    else:
        label = cfg.dataset
    ## both read Graph.degrees; stats stays a call because bench/tracing.py spans it
    st = stats(graph)
    degs = degree_sequence(graph)
    params = PrivacyParams(epsilon=cfg.epsilon, alpha=cfg.alpha)
    K = cfg.K if cfg.K is not None else max(st.d_max, 1)

    master = np.random.default_rng(cfg.seed)
    theta_seed = int(master.integers(2**63))
    trial_seeds = [int(master.integers(2**63)) for _ in range(cfg.trials)]

    if isinstance(cfg.theta, str):
        method = "sum" if cfg.theta == "auto-sum" else "deviation"
        tcfg = ThetaSearchConfig(K=K, epsilon=cfg.epsilon, alpha=cfg.alpha, bits=cfg.bits, method=method)
        theta = resolve_theta(graph, tcfg, np.random.default_rng(theta_seed), masked=cfg.masked)
    else:
        theta = cfg.theta

    scheme = build_partitions(st.d_min, st.d_max, cfg.p_size)
    dist_orig = degree_distribution(degs, graph.n)
    pcfg = ProjectionConfig(theta=theta, strategy=cfg.strategy, params=params if cfg.private else None)

    rows: list[MetricsRow] = []
    reports: list[ReleaseReport] = []
    for trial, trial_seed in enumerate(trial_seeds):
        t0 = time.perf_counter()
        order_rng, proj_rng, release_rng = (
            np.random.default_rng(s) for s in np.random.SeedSequence(trial_seed).spawn(3)
        )
        if cfg.private:
            orders = [ndoe_sample(d, params, scheme, order_rng) for d in degs]
        else:
            orders = degs
        pg = project(graph, pcfg, proj_rng, orders=orders)
        if cfg.private:
            report = dsr(pg, theta, params, release_rng, seed=trial_seed)
            reports.append(report)
            released = list(report.noisy_degrees)
            dist_rel = np.asarray(report.distribution)
        else:
            released = pg.degrees
            dist_rel = degree_distribution(released, graph.n)
        runtime_ms = (time.perf_counter() - t0) * 1000.0
        rows.append(
            MetricsRow(
                dataset=label,
                strategy=cfg.strategy.value,
                epsilon=cfg.epsilon,
                alpha=cfg.alpha,
                theta=theta,
                trial=trial,
                seed=trial_seed,
                mae_seq=mae(degs, released),
                mse_seq=mse(degs, released),
                mae_dist=mae_dist(dist_orig, dist_rel),
                edge_ratio=pg.edge_count() / graph.m if graph.m else 1.0,
                runtime_ms=runtime_ms,
            )
        )
    return rows, reports


def run_grid(
    base: ExperimentConfig,
    strategies: Sequence[Strategy],
    grid: Sequence[Mapping[str, object]] = ({},),
) -> tuple[str, list[MetricsRow]]:
    """Run base once per strategy and grid point, loading its dataset once.

    Each grid point maps config fields to the values that replace base's
    (e.g. {"theta": 16}).  Rows come strategy by strategy, grid points in
    order within each, and carry the dataset's label.  An automatic theta
    is selected once per grid point, by the first strategy's run; the
    others reuse it, which draws the same seeds.  Every point's config is
    built, and so checked, before the dataset loads.  Returns the label
    and the rows.
    """
    points = [replace(base, **point) for point in grid]
    graph, label = load_dataset(base.dataset)
    rows: list[MetricsRow] = []
    selected: list[int | None] = [None] * len(points)
    for strategy in strategies:
        for k, point in enumerate(points):
            cfg = replace(point, dataset=label, strategy=strategy, theta=selected[k] or point.theta)
            point_rows = run_pipeline(cfg, graph=graph)[0]
            selected[k] = point_rows[0].theta
            rows.extend(point_rows)
    return label, rows


def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(rows: Sequence[MetricsRow], sink: str | IO[str]) -> None:
    """Write metrics rows with the fixed column schema; floats keep full precision."""
    if isinstance(sink, str):
        with open(sink, "w", newline="") as fh:
            emit_csv(rows, fh)
        return
    writer = csv.writer(sink)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_format(getattr(row, col)) for col in CSV_COLUMNS])
