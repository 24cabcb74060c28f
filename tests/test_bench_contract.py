"""The benchmark still runs on the package: call sites, call layout and output checks.

The benchmark's tracer replaces degreeldp.<module>.<attr> for every entry
of its SPANS, TIMED and COUNTED tables and counts masked rounds from the
``masked`` keyword of theta.masked_sum_round.  A refactor that renames or
moves one of these names, or passes ``masked`` positionally, breaks
``bench/run.py --trace 1`` without failing any other test.  A short run of
each workload on a small graph checks that the package's outputs still
pass the benchmark's own checks, and one traced run of each checks that
the wrapped calls still run and count what they did.  The benchmark's checks and its own
tests read and edit ``ProjectedGraph`` directly, so its layout is pinned
here as well.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from degreeldp import theta
from degreeldp.graph import Graph, degree_sequence
from degreeldp.mechanisms import PrivacyParams
from degreeldp.projection import ProjectedGraph, ProjectionConfig, Strategy, edge_remove, project
from degreeldp.theta import ThetaSearchConfig

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def import_bench(name: str):
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH_DIR))


@pytest.fixture(scope="module")
def tracing():
    return import_bench("tracing")


def test_every_traced_call_site_exists(tracing):
    sites = tracing.SPANS + tracing.TIMED + tracing.COUNTED
    assert sites
    for mod_name, attr, _ in sites:
        module = importlib.import_module(f"degreeldp.{mod_name}")
        assert callable(getattr(module, attr, None)), f"degreeldp.{mod_name}.{attr}"


@pytest.fixture
def round_calls(monkeypatch):
    calls = []
    original = theta.masked_sum_round

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(theta, "masked_sum_round", spy)
    return calls


@pytest.mark.parametrize("masked", [True, False])
def test_theta_protocols_pass_masked_by_keyword(round_calls, masked):
    g = Graph(6, [(0, i) for i in range(1, 6)] + [(1, 2)])
    degs = degree_sequence(g)
    theta.theta_by_deviation(degs, ThetaSearchConfig(K=5, epsilon=1.0), np.random.default_rng(0), masked=masked)
    theta.theta_by_sum(g, degs, ThetaSearchConfig(K=5, epsilon=1.0, method="sum"), np.random.default_rng(0),
                       masked=masked)
    assert len(round_calls) > 5
    for _, kwargs in round_calls:
        assert kwargs["masked"] is masked


SMALL_N = 60


def run_checked(workload: str, trace: int) -> dict:
    """A short benchmark run on a small graph; its result once every output check passed."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--graph", f"synthetic:{SMALL_N}:3"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_its_output_checks(workload):
    run_checked(workload, trace=0)


def test_traced_masked_selection_passes_its_output_checks():
    ## --trace 1 runs the tracer's wrappers around mask_scalar, compute_mask and aggregate
    metrics = {k: v["value"] for k, v in run_checked("masked-select-300", trace=1)["metrics"].items()}
    ## counts come from one selection: every party draws one key pair, one ka_agree call
    ## agrees the whole key matrix, and every ordered pair expands its key once
    assert metrics["secure_agg.ka_gen_calls"] == SMALL_N
    assert metrics["secure_agg.ka_agree_calls"] == 1
    assert metrics["secure_agg.mask_scalar_calls"] == SMALL_N * (SMALL_N - 1)
    assert metrics["secure_agg.rounds"] > 0


def test_traced_sum_selection_samples_once_per_release_trial():
    metrics = {k: v["value"] for k, v in run_checked("sum-select-4k", trace=1)["metrics"].items()}
    ## each release trial draws its orders and its noise as one batch each
    workloads = import_bench("workloads")
    trials = len(workloads.STRATEGIES) * workloads.WORKLOADS["sum-select-4k"].trials
    assert metrics["encoding.ndoe_sample_calls"] == metrics["mechanisms.laplace_sample_calls"] == trials
    assert metrics["projection.lpea_low_calls"] > 0


def test_truthful_projection_layout():
    ## the edge scan, edge removal and the private negotiation keep edge arrays and build the sets on the first read
    g = Graph(6, [(0, i) for i in range(1, 6)] + [(1, 2), (2, 3)])
    private = ProjectionConfig(theta=2, params=PrivacyParams(3.0, 0.1))
    for pg in (
        theta.lpea_low(g, degree_sequence(g), ProjectionConfig(theta=2), np.random.default_rng(0)),
        edge_remove(g, ProjectionConfig(theta=2, strategy=Strategy.EDGE_REMOVE), np.random.default_rng(0)),
        project(g, private, np.random.default_rng(0), orders=degree_sequence(g)),
    ):
        assert pg._neighbors is None
        assert isinstance(pg.degrees, list)
        assert isinstance(pg.neighbors, list) and all(isinstance(s, set) for s in pg.neighbors)
        assert pg.degrees == [len(s) for s in pg.neighbors]
        ## an edit through the sets stays visible on the next read
        i = next(i for i in range(pg.n) if pg.neighbors[i])
        j = next(iter(pg.neighbors[i]))
        pg.neighbors[i].discard(j)
        pg.degrees[i] -= 1
        assert j not in pg.neighbors[i]
        assert pg.degrees[i] == len(pg.neighbors[i])


def test_projected_graph_keeps_sets_as_given():
    one_way = [{1}, set(), {0, 1}]
    pg = ProjectedGraph(3, one_way)
    assert pg.neighbors is one_way
    assert pg.neighbors == [{1}, set(), {0, 1}]
    assert pg.degrees == [1, 0, 2]
