"""Tests of the benchmark itself: python -m pytest bench

The smoke runs use a 60-node graph so that every workload finishes in
about a second; they check the emitted metric names against
BENCHMARK.json, the output checks, the exact-count identities that
count-based claims rest on, and that tracing leaves the outputs unchanged.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workloads as wl  # noqa: E402
from degreeldp import harness, theta  # noqa: E402
from degreeldp.projection import ProjectedGraph  # noqa: E402

SMALL = "synthetic:60:3"
SMALL_N = 60
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seed=1, cwd=ROOT, script=BENCH_DIR / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--graph", SMALL],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert lines[-2].startswith("record ")
    return json.loads(lines[-2][len("record "):]), result


@pytest.fixture(scope="module")
def runs():
    return {(w, t): parse(run_bench(w, t)) for w in wl.WORKLOADS for t in (0, 1)}


def test_workloads_match_spec():
    assert sorted(wl.WORKLOADS) == sorted(x["name"] for x in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke(runs, workload, trace):
    record, result = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert record["error_rate"] == 0
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for key in ("git_sha", "python", "numpy", "nproc", "cpu_model", "seed", "samples"):
        assert key in record
    assert set(record["samples"]) == set(expected)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_traced_outputs_match_untraced(runs, workload):
    untraced, _ = runs[workload, 0]
    traced, _ = runs[workload, 1]
    assert traced["theta"] == untraced["theta"]
    assert traced["outputs_sha256"] == untraced["outputs_sha256"]


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_exact_counts(runs, workload):
    m = {k: v["value"] for k, v in runs[workload, 1][1]["metrics"].items()}
    trials = len(wl.STRATEGIES) * wl.WORKLOADS[workload].trials
    assert m["encoding.ndoe_sample_calls"] == m["mechanisms.laplace_sample_calls"] == trials * SMALL_N
    assert m["secure_agg.ka_agree_calls"] == m["secure_agg.rounds"] * SMALL_N * (SMALL_N - 1)
    assert m["mechanisms.wrr_respond_calls"] > 0
    if wl.WORKLOADS[workload].masked:
        assert m["secure_agg.rounds"] > 0
    if wl.WORKLOADS[workload].select == "sum":
        assert m["projection.lpea_low_calls"] > 0


def test_wrr_count_repeats(runs):
    again = parse(run_bench("sum-select-4k", 1))[1]["metrics"]
    first = runs["sum-select-4k", 1][1]["metrics"]
    assert again["mechanisms.wrr_respond_calls"] == first["mechanisms.wrr_respond_calls"]
    assert again["mechanisms.wrr_yes"] == first["mechanisms.wrr_yes"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("sum-select-4k", 0, cwd=tmp_path, script=tmp_path / BENCH_DIR.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture
def small():
    ctx = wl.setup(f"{SMALL}:1")
    ctx.edge_codes = wl.edge_codes(ctx.g.n, ctx.g.adj)
    return ctx


def test_projection_check_catches_bad_graphs(small):
    g = small.g
    good = ProjectedGraph(g.n, [set(a) for a in g.adj])
    assert wl.projection_problems(small, good, max(small.degs)) == []
    assert wl.projection_problems(small, good, max(small.degs) - 1)  # above theta
    one_way = [set(a) for a in g.adj]
    one_way[0].discard(g.adj[0][0])
    assert wl.projection_problems(small, ProjectedGraph(g.n, one_way), g.n)  # not symmetric
    extra = [set(a) for a in g.adj]
    outsider = next(j for j in range(1, g.n) if j not in extra[0])
    extra[0].add(outsider)
    extra[outsider].add(0)
    assert wl.projection_problems(small, ProjectedGraph(g.n, extra), g.n)  # not an original edge


def test_selection_checks_catch_bad_rounds(small):
    K = small.stats.d_max
    cfg = theta.ThetaSearchConfig(K=K, epsilon=wl.EPSILON, alpha=wl.ALPHA)
    log = []
    selected = theta.theta_by_deviation(small.degs, cfg, np.random.default_rng(0), masked=True, round_log=log)
    q = wl.ka_param(cfg.bits).q
    assert wl.deviation_problems(small.degs, log, True, K, q, selected) == []
    assert wl.deviation_problems(small.degs, log, True, K, q, selected + 1)
    kind, payloads = log[0]
    tampered = [(kind, (payloads[0] + 1,) + payloads[1:])] + log[1:]
    assert wl.deviation_problems(small.degs, tampered, True, K, q, selected)
    assert wl.deviation_problems(small.degs, log[:-1], True, K, q, selected)

    sum_log, losses, checks = [], [], wl.Checks()
    scfg = theta.ThetaSearchConfig(K=K, epsilon=wl.EPSILON, method="sum")
    with wl.observe(theta, "lpea_low", wl.trial_projection_checker(small, checks, losses)):
        chosen = theta.theta_by_sum(small.g, small.degs, scfg, np.random.default_rng(0), masked=False, round_log=sum_log)
    assert checks.attempted == K and checks.failed == 0
    assert wl.sum_problems(small.g.n, sum_log, losses, K, q, chosen) == []
    assert wl.sum_problems(small.g.n, sum_log, losses, K, q, chosen % K + 1)
    assert wl.sum_problems(small.g.n, sum_log, losses[:-1], K, q, chosen)
    off_by_one = [losses[0] + 1] + losses[1:]
    assert wl.sum_problems(small.g.n, sum_log, off_by_one, K, q, chosen)


def run_sum_round(small):
    w = wl.WORKLOADS["sum-select-4k"]
    checks = wl.Checks()
    result = wl.run_round(w, small, 1, 0, checks, wl.Deadline(0.0))
    return result, checks


def test_sum_round_checks_trial_projections(small, monkeypatch):
    result, checks = run_sum_round(small)
    assert checks.failed == 0
    # one check per trial projection, one for the selection, one per release trial
    assert checks.attempted == min(small.stats.d_max, wl.K_CAP) + 1 + len(wl.STRATEGIES)

    original = theta.lpea_low

    def bad_lpea_low(g, orders, cfg, rng):
        pg = original(g, orders, cfg, rng)
        if cfg.theta == 3:  # drop one direction of an edge: asymmetric, degrees still consistent
            i = next(i for i in range(pg.n) if pg.neighbors[i])
            pg.neighbors[i].discard(next(iter(pg.neighbors[i])))
            pg.degrees[i] -= 1
        return pg

    monkeypatch.setattr(theta, "lpea_low", bad_lpea_low)
    _, checks = run_sum_round(small)
    assert checks.failed == 1
    assert any("trial projection 3" in p and "symmetric" in p for p in checks.problems)


def test_sum_round_checks_logged_losses(small, monkeypatch):
    original = theta.projection_error

    def bad_projection_error(g, pg):
        loss, total = original(g, pg)
        loss = loss.copy()
        loss[0] += 1
        return loss, total + 1

    monkeypatch.setattr(theta, "projection_error", bad_projection_error)
    _, checks = run_sum_round(small)
    assert any("payloads are not |degree - projected degree|" in p for p in checks.problems)


def test_release_check_catches_bad_vectors(small):
    cfg = harness.ExperimentConfig(dataset="small", theta=5, trials=1, seed=3)
    _, reports = harness.run_pipeline(cfg, graph=small.g)
    assert wl.release_problems(reports[0], small.g.n, 5) == []
    assert wl.release_problems(reports[0], small.g.n + 1, 5)
    bad = reports[0].__class__(**{**reports[0].__dict__, "noisy_degrees": (float("nan"),) * small.g.n})
    assert wl.release_problems(bad, small.g.n, 5)
