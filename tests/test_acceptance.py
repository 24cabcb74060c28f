"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The two Facebook-dependent checks skip with a notice when the
SNAP edge list has not been fetched (see scripts/fetch_datasets.py).
"""

import io
import math
import time

import numpy as np
import pytest

from degreeldp.encoding import build_partitions, ndoe_sample, order_cdfs, order_probs
from degreeldp.graph import Graph, degree_sequence, load_edge_list, load_graph
from degreeldp.harness import ExperimentConfig, run_pipeline
from degreeldp.mechanisms import PrivacyParams, laplace_sample, wrr_debias_count, wrr_respond, wrr_truth_rate
from degreeldp.projection import ProjectionConfig, Strategy, edge_remove, lpea_low, project
from degreeldp.secure_agg import agree_keys, ka_param, masked_sum_round, round_masks
from degreeldp.synthetic import powerlaw_graph
from degreeldp.theta import ThetaSearchConfig, quantile_oracle, theta_by_deviation, theta_by_sum
from conftest import FIG_EDGE_LIST, find_facebook, random_graph


def _report(num: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {status} [{time.perf_counter() - t0:.2f}s] {detail}"
    print(line)
    assert ok, line


def test_criterion_1_worked_example_projection():
    """Non-private low-first addition at bound 1 keeps exactly B-D and A-C."""
    t0 = time.perf_counter()
    g = load_edge_list(io.StringIO(FIG_EDGE_LIST))
    cfg = ProjectionConfig(theta=1, strategy=Strategy.LPEA_LOW)
    pg = lpea_low(g, degree_sequence(g), cfg, np.random.default_rng(0))
    got = pg.edge_set()
    _report(1, got == {(1, 3), (0, 2)}, f"edges={sorted(got)} expected BD, AC", t0)


def test_criterion_2_masked_aggregation_exact():
    """Masked sums equal plaintext sums bit-exactly for 2, 3, and 50 parties."""
    t0 = time.perf_counter()
    params = ka_param(61)
    rng = np.random.default_rng(17)
    checked = 0
    ok = True
    for n in (2, 3, 50):
        for _ in range(100):
            values = [int(v) for v in rng.integers(0, 2**40, n)]
            masks = round_masks(agree_keys(n, params, rng), params, 1)[0]
            if masked_sum_round(values, params, masks=masks) != sum(values):
                ok = False
            checked += 1
    _report(2, ok, f"{checked} rounds over n in (2, 3, 50), 61-bit modulus", t0)


def test_criterion_3_debiased_count_unbiased():
    """Debiased Yes-count estimator centers on the true count within 3 SE."""
    t0 = time.perf_counter()
    u1, c, budget, rounds = 50, 20, 1.0, 100_000
    p = wrr_truth_rate(budget)
    rng = np.random.default_rng(20240823)
    ## same per-response Bernoulli semantics as wrr_respond, drawn in bulk:
    ## c holders answer Yes w.p. p, the other u1 - c w.p. 1 - p
    uniforms = rng.random((rounds, u1))
    yes = (uniforms[:, :c] < p).sum(axis=1) + (uniforms[:, c:] < 1 - p).sum(axis=1)
    estimates = np.array([wrr_debias_count(u1, int(u2), budget) for u2 in yes])
    se = estimates.std(ddof=1) / math.sqrt(rounds)
    dev = abs(estimates.mean() - c)
    ## cross-check the single-response op path on a smaller sample
    loop_rounds = 2000
    loop_est = np.array([
        wrr_debias_count(u1, sum(wrr_respond(rng, i < c, budget) for i in range(u1)), budget)
        for _ in range(loop_rounds)
    ])
    loop_se = loop_est.std(ddof=1) / math.sqrt(loop_rounds)
    loop_dev = abs(loop_est.mean() - c)
    ok = dev <= 3 * se and loop_dev <= 3 * loop_se
    _report(3, ok, f"mean={estimates.mean():.4f} true={c} dev={dev:.4f} 3SE={3 * se:.4f}; "
                   f"op-level mean={loop_est.mean():.4f} 3SE={3 * loop_se:.4f}", t0)


def test_criterion_4_deviation_protocol_vs_oracle():
    """Binary-search threshold selection within 1 of the quantile oracle."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0
    ok = True
    for trial in range(1000):
        n = int(rng.integers(1, 10_001))
        kind = trial % 3
        if kind == 0:
            degrees = rng.integers(1, int(rng.integers(2, 2000)), n)
        elif kind == 1:
            degrees = np.minimum(rng.zipf(float(rng.uniform(1.6, 3.0)), n), 5000)
        else:
            degrees = np.full(n, int(rng.integers(1, 500))) + rng.integers(0, 3, n)
        K = int(degrees.max())
        eps = float(rng.uniform(0.3, 5.0))
        cfg = ThetaSearchConfig(K=K, epsilon=eps)
        got = theta_by_deviation(degrees, cfg, rng, masked=False)
        dev = abs(got - quantile_oracle(degrees, eps, K))
        worst = max(worst, dev)
        if dev > 1:
            ok = False
    detail = f"1000 multisets, worst deviation {worst}"

    fb_path = find_facebook()
    if fb_path is None:
        detail += "; facebook check skipped (dataset not found)"
    else:
        degs = degree_sequence(load_graph(fb_path))
        K = max(degs)
        expected = {1.0: 1, 1.5: 15, 2.0: 25, 2.5: 34, 3.0: 42}
        got_row = {}
        for eps, want in expected.items():
            cfg = ThetaSearchConfig(K=K, epsilon=eps)
            got_theta = theta_by_deviation(degs, cfg, rng, masked=False)
            got_row[eps] = got_theta
            if abs(got_theta - want) > 1:
                ok = False
        detail += f"; facebook row {got_row} vs {expected} (tol 1)"
    _report(4, ok, detail, t0)


def test_criterion_5_strategy_ordering_on_facebook():
    """Low-first addition retains the most edges and hits the reference MAE."""
    t0 = time.perf_counter()
    fb_path = find_facebook()
    if fb_path is None:
        print("criterion 5: SKIP (facebook dataset not found; run scripts/fetch_datasets.py)")
        pytest.skip("facebook dataset not found")
    g = load_graph(fb_path)
    degs = degree_sequence(g)
    reference_mae = {16: 31.02, 64: 13.38, 128: 4.71}
    trials = 20
    ok = True
    details = []
    for theta, want_mae in reference_mae.items():
        ## the ranked non-private run is deterministic, one evaluation suffices
        cfg = ProjectionConfig(theta=theta, strategy=Strategy.LPEA_LOW)
        pg = lpea_low(g, degs, cfg, np.random.default_rng(0))
        ll_ratio = pg.edge_count() / g.m
        ll_mae = sum(abs(a - b) for a, b in zip(degs, pg.degrees)) / g.n
        ra = np.mean([
            project(g, ProjectionConfig(theta=theta, strategy=Strategy.RANDOM_ADD),
                    np.random.default_rng(s)).edge_count() / g.m
            for s in range(trials)
        ])
        er = np.mean([
            edge_remove(g, ProjectionConfig(theta=theta, strategy=Strategy.EDGE_REMOVE),
                        np.random.default_rng(s)).edge_count() / g.m
            for s in range(trials)
        ])
        if not (ll_ratio >= ra >= er):
            ok = False
        if abs(ll_mae - want_mae) > 0.10 * want_mae:
            ok = False
        details.append(f"theta={theta}: ratios LL={ll_ratio:.3f} RA={ra:.3f} ER={er:.3f} "
                       f"mae={ll_mae:.2f} ref={want_mae}")
    _report(5, ok, "; ".join(details), t0)


def test_criterion_5_strategy_ordering_on_synthetic():
    """Offline stand-in for criterion 5: the edge-ratio ordering on synthetic:4000:11.

    The facebook check above stays the real criterion; this one needs no
    download and checks only the ordering, not the reference MAE.
    """
    t0 = time.perf_counter()
    g = powerlaw_graph(4000, 11, 0)
    degs = degree_sequence(g)
    seeds = range(5)
    ok = True
    details = []
    for theta in (8, 16, 32):
        ratio = {}
        for strategy in (Strategy.LPEA_LOW, Strategy.RANDOM_ADD, Strategy.EDGE_REMOVE):
            cfg = ProjectionConfig(theta=theta, strategy=strategy)
            ratio[strategy] = np.mean([
                project(g, cfg, np.random.default_rng(s), orders=degs).edge_count() / g.m for s in seeds
            ])
        ll, ra, er = ratio[Strategy.LPEA_LOW], ratio[Strategy.RANDOM_ADD], ratio[Strategy.EDGE_REMOVE]
        if not (ll >= ra >= er):
            ok = False
        details.append(f"theta={theta}: ratios LL={ll:.3f} RA={ra:.3f} ER={er:.3f}")
    _report(5, ok, "synthetic:4000:11 " + "; ".join(details), t0)


def test_criterion_6_mechanism_calibration():
    """Response rates, Laplace magnitude, and order probabilities match closed forms."""
    t0 = time.perf_counter()
    ok = True
    details = []

    rng = np.random.default_rng(6)
    n_wrr = 1_000_000
    for budget in (0.5, 1.0, math.log(3)):
        kept = sum(wrr_respond(rng, True, budget) for _ in range(n_wrr)) / n_wrr
        want = wrr_truth_rate(budget)
        if abs(kept - want) > 0.002:
            ok = False
        details.append(f"wrr b={budget:.3f}: {kept:.4f} vs {want:.4f}")

    scale = 3.0
    draws = laplace_sample(rng, scale, 1_000_000)
    mean_abs = float(np.abs(draws).mean())
    if abs(mean_abs - scale) > 0.01 * scale:
        ok = False
    details.append(f"laplace mean|x|={mean_abs:.4f} vs {scale}")

    scheme = build_partitions(0, 137, 10)
    params = PrivacyParams(epsilon=2.5, alpha=0.2)
    max_gap = max(abs(order_probs(d, params, scheme).sum() - 1.0) for d in range(138))
    if max_gap > 1e-9:
        ok = False
    details.append(f"order prob sum gap {max_gap:.2e}")

    two = build_partitions(0, 10, 5)
    two_params = PrivacyParams(epsilon=8 * math.log(2) / 0.1, alpha=0.1)
    draws2 = ndoe_sample(order_cdfs([2] * 100_000, two_params, two), rng)
    freq = float(np.mean(draws2 == 1))
    if abs(freq - 2 / 3) > 0.01:
        ok = False
    details.append(f"two-partition freq {freq:.4f} vs {2 / 3:.4f}")

    _report(6, ok, "; ".join(details), t0)


def test_criterion_7_projection_invariants():
    """Edge subset, symmetry, capped degrees on 200 random graphs, every strategy."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    params = PrivacyParams(epsilon=1.0, alpha=0.1)
    graphs = 0
    ok = True
    while graphs < 200:
        n = int(rng.integers(2, 201))
        g = random_graph(rng, n, float(rng.uniform(0.01, 0.2)))
        if g.m == 0:
            continue
        graphs += 1
        degs = degree_sequence(g)
        d_max = max(degs)
        theta = int(rng.integers(1, d_max + 2))
        orig_edges = g.edge_set()
        for strategy in Strategy:
            for private in (False, True):
                cfg = ProjectionConfig(theta=theta, strategy=strategy, params=params if private else None)
                pg = project(g, cfg, np.random.default_rng(graphs), orders=degs)
                if not pg.edge_set() <= orig_edges:
                    ok = False
                for i in range(n):
                    if pg.degrees[i] > theta or pg.degrees[i] > degs[i]:
                        ok = False
                    if any(i not in pg.neighbors[j] for j in pg.neighbors[i]):
                        ok = False
        ## with the bound at d_max nothing constrains a truthful run, so the
        ## graph must come back whole; randomized negotiation can drop edges,
        ## so in private mode only the removal strategy guarantees identity
        for strategy in Strategy:
            cfg = ProjectionConfig(theta=d_max, strategy=strategy)
            pg = project(g, cfg, np.random.default_rng(graphs), orders=degs)
            if pg.edge_set() != orig_edges:
                ok = False
        cfg = ProjectionConfig(theta=d_max, strategy=Strategy.EDGE_REMOVE, params=params)
        if project(g, cfg, np.random.default_rng(graphs)).edge_set() != orig_edges:
            ok = False
    _report(7, ok, f"{graphs} graphs x 4 strategies x 2 modes, plus identity at theta=d_max", t0)


def test_criterion_8_mask_neutrality():
    """Both selection protocols give bit-identical results masked or bypassed."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    ok = True
    for case in range(25):
        degrees = rng.integers(1, int(rng.integers(4, 64)), int(rng.integers(2, 50)))
        cfg = ThetaSearchConfig(K=int(degrees.max()), epsilon=float(rng.uniform(0.4, 4.0)))
        m = theta_by_deviation(degrees, cfg, np.random.default_rng(case), masked=True)
        b = theta_by_deviation(degrees, cfg, np.random.default_rng(case), masked=False)
        if m != b:
            ok = False
    for case in range(25):
        g = random_graph(rng, int(rng.integers(3, 30)), float(rng.uniform(0.1, 0.5)))
        if g.m == 0:
            continue
        degs = degree_sequence(g)
        cfg = ThetaSearchConfig(K=min(max(degs), 8), epsilon=float(rng.uniform(0.4, 4.0)), method="sum")
        m = theta_by_sum(g, degs, cfg, np.random.default_rng(case), masked=True)
        b = theta_by_sum(g, degs, cfg, np.random.default_rng(case), masked=False)
        if m != b:
            ok = False
    _report(8, ok, "50 random inputs across both protocols", t0)


def test_criterion_9_error_convex_in_theta():
    """On a synthetic heavy-tailed graph the selected bound beats both extremes."""
    t0 = time.perf_counter()
    g = powerlaw_graph(2000, 4, seed=20240823)
    degs = degree_sequence(g)
    K = max(degs)
    eps = 3.0
    theta_star = theta_by_deviation(degs, ThetaSearchConfig(K=K, epsilon=eps),
                                    np.random.default_rng(0), masked=False)
    means = {}
    for theta in (1, theta_star, K):
        cfg = ExperimentConfig(dataset="synthetic-2000", theta=int(theta), epsilon=eps,
                               alpha=0.1, trials=20, seed=99, private=True)
        rows, _ = run_pipeline(cfg, graph=g)
        means[theta] = float(np.mean([r.mae_seq for r in rows]))
    ok = means[theta_star] <= means[1] and means[theta_star] <= means[K]
    detail = (f"theta*={theta_star} of K={K}: mae(1)={means[1]:.2f} "
              f"mae(theta*)={means[theta_star]:.2f} mae(K)={means[K]:.2f}")
    _report(9, ok, detail, t0)
