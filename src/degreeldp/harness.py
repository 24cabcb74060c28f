"""Experiment harness: seeded end-to-end runs, experiment grids and CSV emission.

A run loads one dataset, resolves the projection threshold, and repeats
the (encode, project, perturb) pipeline over independent trials; a grid
resolves each point's threshold once, then repeats runs over strategies
and config overrides.  All error metrics compare against the original
degree sequence.  Seeding is hierarchical: the master seed draws the
threshold-selection seed, then one integer seed per trial, and each
trial seed is split into per-stage substreams (order encoding,
projection, release), so any row can be reproduced in isolation.  Each
stage draws its uniforms as arrays, in the order one draw per node or
per request would take them, so the batches give the same outputs.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import astuple, dataclass, fields, replace
from typing import IO, Mapping, Sequence

import numpy as np

from . import theta
from .encoding import DEFAULT_PARTITION_SIZE, build_partitions, ndoe_sample, order_cdfs
from .graph import Graph, check_count, degree_sequence, load_graph, stats
from .mechanisms import PrivacyParams
from .projection import ProjectionConfig, Strategy, project
from .release import ReleaseReport, degree_distribution, dsr
from .synthetic import powerlaw_graph

DATA_DIR_ENV = "LDP_DEGREE_DATA_DIR"

SYNTHETIC_PREFIX = "synthetic:"

AUTO_PREFIX = "auto-"


def _mean_error(name: str, truth: Sequence[float], estimate: Sequence[float], power: int) -> float:
    """Mean of |truth - estimate| ** power in float64, refused unless finite."""
    a = np.asarray(truth, dtype=float)
    b = np.asarray(estimate, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    with np.errstate(over="ignore"):
        mean = float(np.mean(np.abs(a - b) ** power))
    if not math.isfinite(mean):
        raise ValueError(f"{name} = {mean} is not finite in float64")
    return mean


def mae(truth: Sequence[float], estimate: Sequence[float]) -> float:
    """Mean absolute error between two equal-length sequences."""
    return _mean_error("mae", truth, estimate, 1)


def mse(truth: Sequence[float], estimate: Sequence[float]) -> float:
    """Mean squared error between two equal-length sequences."""
    return _mean_error("mse", truth, estimate, 2)


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
    trials: int = 20
    seed: int = 0
    private: bool = True  # False: true-degree orders, truthful negotiation, no Laplace release
    masked: bool = True

    def __post_init__(self):
        if not isinstance(self.strategy, Strategy):
            raise ValueError(f"strategy must be a Strategy, got {self.strategy!r}")
        check_count("trials", self.trials)
        if isinstance(self.theta, str):
            autos = [AUTO_PREFIX + m for m in theta.METHODS]
            if self.theta not in autos:
                raise ValueError(f"theta must be an integer, {' or '.join(map(repr, autos))}, got {self.theta!r}")
        else:
            check_count("theta", self.theta)
        if self.K is not None:
            check_count("K", self.K)
        check_count("p_size", self.p_size)
        check_count("seed", self.seed, least=0)
        PrivacyParams(self.epsilon, self.alpha)  # raises for a bad epsilon or alpha


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
    preferential-attachment graph in memory.  A file with no nodes is
    refused here, so every command reports an empty graph the same way.
    """
    if token.startswith(SYNTHETIC_PREFIX):
        parts = token[len(SYNTHETIC_PREFIX):].split(":")
        try:  ## attach defaults to 4 and seed to 0; a fourth part fails to unpack
            n, attach, seed = map(int, parts + ["4", "0"][len(parts) - 1:])
        except ValueError:
            raise ValueError(f"bad synthetic token {token!r}; expected synthetic:<n>[:<attach>[:<seed>]]") from None
        return powerlaw_graph(n, attach, seed), f"synthetic-{n}-{attach}-{seed}"
    resolved = find_dataset(token)
    label = os.path.basename(resolved)
    for ext in (".gz", ".txt", ".csv", ".edges"):
        if label.endswith(ext):
            label = label[: -len(ext)]
    graph = load_graph(resolved)
    if graph.n == 0:
        raise ValueError(f"dataset {token!r} has no nodes; the graph must be nonempty")
    return graph, label


def select_theta(cfg: ExperimentConfig, graph: Graph, rng: np.random.Generator) -> int:
    """The run's projection bound: an integer cfg.theta as it is, else the one its protocol selects.

    An 'auto-<method>' theta runs that selection method over 1..K, where K
    is cfg.K or, when unset, the largest degree (at least 1).
    """
    if not isinstance(cfg.theta, str):
        return cfg.theta
    K = cfg.K if cfg.K is not None else int(graph.degrees.max(initial=1))
    method = cfg.theta.removeprefix(AUTO_PREFIX)
    tcfg = theta.ThetaSearchConfig(K=K, epsilon=cfg.epsilon, method=method)
    degs = degree_sequence(graph)
    ## through the module, so that a patched protocol is the one called
    if method == "deviation":
        return theta.theta_by_deviation(degs, tcfg, rng, masked=cfg.masked)
    return theta.theta_by_sum(graph, degs, tcfg, rng, masked=cfg.masked)


def _seeds(cfg: ExperimentConfig) -> tuple[np.random.Generator, list[int]]:
    """Theta selection's generator and the trial seeds, drawn in that order from the master seed."""
    master = np.random.default_rng(cfg.seed)
    theta_rng = np.random.default_rng(int(master.integers(2**63)))
    return theta_rng, [int(master.integers(2**63)) for _ in range(cfg.trials)]


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
    theta_rng, trial_seeds = _seeds(cfg)
    bound = select_theta(cfg, graph, theta_rng)

    scheme = build_partitions(st.d_min, st.d_max, cfg.p_size)
    dist_orig = degree_distribution(degs, graph.n)
    pcfg = ProjectionConfig(theta=bound, strategy=cfg.strategy, params=params if cfg.private else None)
    ## random-add and edge-remove never read orders, so their trials leave order_rng undrawn
    sample_orders = cfg.private and not cfg.strategy.uniform
    order_table = order_cdfs(degs, params, scheme) if sample_orders else None

    rows: list[MetricsRow] = []
    reports: list[ReleaseReport] = []
    for trial, trial_seed in enumerate(trial_seeds):
        t0 = time.perf_counter()
        order_rng, proj_rng, release_rng = (
            np.random.default_rng(s) for s in np.random.SeedSequence(trial_seed).spawn(3)
        )
        orders = ndoe_sample(order_table, order_rng) if sample_orders else degs
        pg = project(graph, pcfg, proj_rng, orders=orders)
        if cfg.private:
            report = dsr(pg, bound, params, release_rng, seed=trial_seed)
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
                theta=bound,
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


def resolve_grid(base: ExperimentConfig, grid: Sequence[Mapping[str, object]]) -> tuple[Graph, list[ExperimentConfig]]:
    """Build and check every grid point, then load base's dataset once; returns the graph and the points.

    A grid point maps config fields to the values that replace base's (e.g.
    {"theta": 16, "epsilon": 2.0}).  Each returned point carries the dataset's
    label and an integer theta, from the seed its own run_pipeline call draws.
    """
    points = [replace(base, **point) for point in grid]
    graph, label = load_dataset(base.dataset)
    return graph, [replace(p, dataset=label, theta=select_theta(p, graph, _seeds(p)[0])) for p in points]


def run_grid(
    base: ExperimentConfig,
    strategies: Sequence[Strategy],
    grid: Sequence[Mapping[str, object]] = ({},),
) -> list[MetricsRow]:
    """Run base once per strategy and resolve_grid point; returns the rows.

    Rows come strategy by strategy, grid points in order within each, and
    every row equals a separate run_pipeline call's.
    """
    graph, points = resolve_grid(base, grid)
    rows: list[MetricsRow] = []
    for strategy in strategies:
        for point in points:
            rows.extend(run_pipeline(replace(point, strategy=strategy), graph=graph)[0])
    return rows


def emit_csv(rows: Sequence[MetricsRow], sink: str | IO[str]) -> None:
    """Write metrics rows with the fixed column schema; floats keep full precision."""
    if isinstance(sink, str):
        with open(sink, "w", newline="") as fh:
            emit_csv(rows, fh)
        return
    writer = csv.writer(sink)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(astuple(row))
