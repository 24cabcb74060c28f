import csv
import hashlib
import io
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from degreeldp import harness
from degreeldp import theta as theta_module
from degreeldp.graph import Graph, degree_sequence
from degreeldp.harness import (
    CSV_COLUMNS,
    DATA_DIR_ENV,
    ExperimentConfig,
    emit_csv,
    find_dataset,
    load_dataset,
    mae,
    mae_dist,
    mse,
    resolve_grid,
    run_grid,
    run_pipeline,
)
from degreeldp.encoding import build_partitions
from degreeldp.mechanisms import PrivacyParams
from degreeldp.projection import ProjectionConfig, Strategy
from degreeldp.release import noise_scale
from degreeldp.synthetic import powerlaw_graph
from degreeldp.theta import ThetaSearchConfig, quantile_oracle
from conftest import FIG_EDGE_LIST


@pytest.fixture
def fig_file(tmp_path):
    path = tmp_path / "fig.txt"
    path.write_text(FIG_EDGE_LIST)
    return str(path)


class TestMetrics:
    def test_mae_mse_spot_values(self):
        assert mae([2, 3, 2, 1], [1, 1, 1, 1]) == pytest.approx(1.0)
        assert mse([2, 3, 2, 1], [1, 1, 1, 1]) == pytest.approx(1.5)

    def test_perfect_estimate_is_zero(self):
        assert mae([1, 2, 3], [1, 2, 3]) == 0.0
        assert mse([1, 2, 3], [1, 2, 3]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mae([1, 2], [1])
        with pytest.raises(ValueError):
            mse([1, 2], [1])

    @pytest.mark.parametrize("metric,name,estimate", [
        (mae, "mae", [1e308, 1e308]),  # each error is finite, their sum is not
        (mse, "mse", [1e155, 0.0]),  # the square overflows
        (mse, "mse", [np.nan, 0.0]),
    ])
    def test_non_finite_mean_refused_naming_the_metric(self, metric, name, estimate):
        with pytest.raises(ValueError, match=rf"^{name} = (inf|nan) is not finite in float64$"):
            metric([0.0, 0.0], estimate)

    def test_largest_finite_means_kept(self):
        assert mae([0.0], [1e308]) == 1e308
        assert mse([0.0], [1e154]) == pytest.approx(1e308)

    def test_mae_dist_is_scaled_l1(self):
        p = [0.5, 0.5, 0.0]
        q = [0.25, 0.5, 0.25]
        assert mae_dist(p, q) == pytest.approx(0.5 / 3)


class TestConfigValidation:
    def test_trials_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="x", trials=0)

    def test_theta_tokens(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="x", theta="auto-bogus")
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="x", theta=0)
        ExperimentConfig(dataset="x", theta="auto-sum")
        ExperimentConfig(dataset="x", theta=5)

    def test_strategy_name_string_rejected(self):
        ## it used to build, then fail with AttributeError in run_pipeline after the dataset loaded
        with pytest.raises(ValueError, match="strategy must be a Strategy, got 'lpea-low'"):
            ExperimentConfig(dataset="x", theta=5, strategy="lpea-low")

    @pytest.mark.parametrize("K", [0, -4])
    def test_K_must_be_positive(self, K):
        with pytest.raises(ValueError, match="K must be at least 1"):
            ExperimentConfig(dataset="x", theta=5, K=K)
        ExperimentConfig(dataset="x", theta=5, K=1)

    @pytest.mark.parametrize("field,value,named", [
        ("p_size", 0, "p_size must be at least 1"),
        ("alpha", 1.5, "alpha must lie in (0, 1)"),
        ("alpha", 0.0, "alpha must lie in (0, 1)"),
        ("epsilon", math.inf, "epsilon must be finite and positive"),
        ("epsilon", -1.0, "epsilon must be finite and positive"),
        ## a bool used to run as epsilon = 1 and write True into the CSV
        ("epsilon", True, "epsilon must be finite and positive, got True"),
        ("epsilon", np.True_, "epsilon must be finite and positive"),
        ("alpha", True, "alpha must lie in (0, 1), got True"),
        ("alpha", False, "alpha must lie in (0, 1)"),
    ])
    def test_bad_run_settings_rejected(self, field, value, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            ExperimentConfig(dataset="x", theta=5, **{field: value})
        ExperimentConfig(dataset="x", theta=5, private=False)


    @pytest.mark.parametrize("name,build", [
        pytest.param("theta", lambda v: ProjectionConfig(theta=v), id="ProjectionConfig.theta"),
        pytest.param("K", lambda v: ThetaSearchConfig(K=v, epsilon=1.0), id="ThetaSearchConfig.K"),
        pytest.param("trials", lambda v: ExperimentConfig(dataset="x", trials=v), id="ExperimentConfig.trials"),
        pytest.param("theta", lambda v: ExperimentConfig(dataset="x", theta=v), id="ExperimentConfig.theta"),
        pytest.param("K", lambda v: ExperimentConfig(dataset="x", K=v), id="ExperimentConfig.K"),
        pytest.param("p_size", lambda v: ExperimentConfig(dataset="x", p_size=v), id="ExperimentConfig.p_size"),
        pytest.param("p_size", lambda v: build_partitions(1, 9, v), id="build_partitions"),
        pytest.param("theta", lambda v: noise_scale(v, PrivacyParams(1.0, 0.1)), id="noise_scale"),
        pytest.param("K", lambda v: quantile_oracle([1, 2, 3], 1.0, v), id="quantile_oracle"),
        pytest.param("attach", lambda v: powerlaw_graph(10, v), id="powerlaw_graph"),
    ])
    def test_counts_are_integers(self, name, build):
        ## theta=2.5 used to project to degree 3, and True to run as 1
        for bad in (True, 2.5, np.float64(3.0), 0, np.int64(0)):
            with pytest.raises(ValueError, match=re.escape(
                f"{name} must be at least 1 and an integer, got {bad!r} ({type(bad).__name__})"
            )):
                build(bad)
        build(np.int64(3))
        build(3)

    def test_seed_is_a_nonnegative_integer(self):
        ## a negative seed used to fail in NumPy, after the dataset loaded, without naming the seed
        for bad in (-1, 1.5, True):
            with pytest.raises(ValueError, match=re.escape(f"seed must be at least 0 and an integer, got {bad!r}")):
                ExperimentConfig(dataset="x", seed=bad)
        ExperimentConfig(dataset="x", seed=np.int64(0))


class TestDatasetResolution:
    def test_synthetic_token(self):
        g, label = load_dataset("synthetic:50:3:9")
        assert g.n == 50
        assert label == "synthetic-50-3-9"

    def test_synthetic_token_defaults(self):
        g, label = load_dataset("synthetic:30")
        assert g.n == 30
        assert label == "synthetic-30-4-0"

    def test_bad_synthetic_token(self):
        with pytest.raises(ValueError):
            load_dataset("synthetic:")

    def test_extra_synthetic_fields_rejected(self):
        with pytest.raises(ValueError, match="synthetic:<n>"):
            load_dataset("synthetic:300:11:1:99")

    def test_env_dir_fallback(self, tmp_path, monkeypatch):
        (tmp_path / "toy.txt").write_text("1 2\n")
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        assert find_dataset("toy.txt") == str(tmp_path / "toy.txt")
        g, label = load_dataset("toy.txt")
        assert g.m == 1 and label == "toy"

    def test_missing_dataset_mentions_env_var(self, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        with pytest.raises(FileNotFoundError, match=DATA_DIR_ENV):
            find_dataset("definitely-not-here.txt")


class TestRunPipeline:
    def test_numpy_K_runs_as_its_int(self):
        ## the deviation search read K.bit_length(), which a NumPy K does not have
        (a,), _ = run_pipeline(ExperimentConfig(dataset="synthetic:40:3:1", K=np.int64(8), trials=1))
        (b,), _ = run_pipeline(ExperimentConfig(dataset="synthetic:40:3:1", K=8, trials=1))
        assert type(a.theta) is int
        assert [getattr(a, c) for c in CSV_COLUMNS if c != "runtime_ms"] == \
            [getattr(b, c) for c in CSV_COLUMNS if c != "runtime_ms"]

    def test_row_count_and_schema(self, fig_file):
        cfg = ExperimentConfig(dataset=fig_file, theta=1, trials=3, seed=5,
                               private=False)
        rows, reports = run_pipeline(cfg)
        assert len(rows) == 3
        assert reports == []
        for row in rows:
            assert row.strategy == "lpea-low"
            assert row.theta == 1

    def test_projection_only_metrics_match_worked_example(self, fig_file):
        cfg = ExperimentConfig(dataset=fig_file, theta=1, trials=1, seed=5,
                               private=False)
        rows, _ = run_pipeline(cfg)
        ## low-first addition at bound 1 keeps B-D and A-C: degrees all 1
        assert rows[0].mae_seq == pytest.approx(1.0)
        assert rows[0].mse_seq == pytest.approx(1.5)
        assert rows[0].edge_ratio == pytest.approx(0.5)

    def test_private_pipeline_emits_reports(self):
        cfg = ExperimentConfig(dataset="synthetic:40:3:1", theta=3, trials=2, seed=0)
        rows, reports = run_pipeline(cfg)
        assert len(rows) == len(reports) == 2
        assert all(len(r.noisy_degrees) == 40 for r in reports)

    def test_determinism_modulo_runtime(self):
        cfg = ExperimentConfig(dataset="synthetic:60:3:2", theta="auto-deviation", trials=3, seed=9)
        rows1, _ = run_pipeline(cfg)
        rows2, _ = run_pipeline(cfg)
        for a, b in zip(rows1, rows2):
            for col in CSV_COLUMNS:
                if col != "runtime_ms":
                    assert getattr(a, col) == getattr(b, col)

    def test_distinct_trial_seeds(self):
        cfg = ExperimentConfig(dataset="synthetic:40:3:1", theta=2, trials=4, seed=1)
        rows, _ = run_pipeline(cfg)
        assert len({r.seed for r in rows}) == 4

    def test_auto_theta_matches_direct_resolution(self):
        from degreeldp.theta import ThetaSearchConfig, quantile_oracle

        g, _ = load_dataset("synthetic:80:3:4")
        degs = degree_sequence(g)
        cfg = ExperimentConfig(dataset="synthetic:80:3:4", theta="auto-deviation",
                               trials=1, seed=0, epsilon=2.0)
        rows, _ = run_pipeline(cfg)
        assert rows[0].theta == quantile_oracle(degs, 2.0, max(degs))

    def test_explicit_graph_skips_loading(self, fig_file):
        g, _ = load_dataset(fig_file)
        cfg = ExperimentConfig(dataset="in-memory", theta=1, trials=1,
                               private=False)
        rows, _ = run_pipeline(cfg, graph=g)
        assert rows[0].dataset == "in-memory"

    def test_strategy_flows_into_rows(self, fig_file):
        cfg = ExperimentConfig(dataset=fig_file, theta=2, trials=1, strategy=Strategy.EDGE_REMOVE,
                               private=False)
        rows, _ = run_pipeline(cfg)
        assert rows[0].strategy == "edge-remove"

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_orders_sampled_only_for_strategies_that_read_them(self, strategy, monkeypatch):
        ## random-add and edge-remove take their turns from proj_rng; order_rng is a separate stream,
        ## so leaving it undrawn moves no draw (RELEASE_GOLDEN pins the outputs)
        calls = []
        original = harness.ndoe_sample
        monkeypatch.setattr(harness, "ndoe_sample", lambda *args: calls.append(1) or original(*args))
        run_pipeline(ExperimentConfig(dataset="synthetic:40:3:1", theta=3, trials=2, seed=0, strategy=strategy))
        assert len(calls) == (0 if strategy.uniform else 2)


## Private run_pipeline outputs at seed 3: per trial, the sha256 of the
## report's to_json() and the row's (mae_seq, mae_dist, edge_ratio) reprs.
## Every order, negotiation answer and Laplace draw reaches these, so a
## reordered, extra or differently rounded draw changes them.
RELEASE_GOLDEN = {
    ('synthetic:300:11:1', 'lpea-low'): [
        ('d5c8fd006b79ba3cc1b6d15cf48ff6c2ac14442147ca65045d97d52c80050367', ('14.866195248876895', '0.004600000000000001', '0.32220160791589364')),
        ('2377365196de43c1373e4ab370395e3f5de4b481120562d4a535a7110c6a97dc', ('15.249743261484495', '0.004977777777777777', '0.3209647495361781')),
        ('e2d648fdc3bc0e56369e956035c7aeab5be0c3e1a971acdfe638fa7efee40253', ('14.854213961353265', '0.004622222222222222', '0.32869511440940014')),
    ],
    ('synthetic:300:11:1', 'lpea-high'): [
        ('b4d455c94f17f75ee9dd42e6334635065a7eb99bfe7abb3f62103eb1cff5d44c', ('14.700852497914408', '0.004666666666666666', '0.3324056895485467')),
        ('d6c586f5e6f4b9a0f2768d0718d47ac77065835ea46ef0de023d48e22efa0ac4', ('14.789452037936336', '0.0047777777777777775', '0.34446505875077305')),
        ('b93bdd63c5553aa26b39241d7b53aba02fabe0c1e802bf853312ce69bc7e5104', ('14.402139184012656', '0.0044666666666666665', '0.35435992578849723')),
    ],
    ('synthetic:300:11:1', 'random-add'): [
        ('78b47e45ceba6646abfa06eaf05aed0987838374cd379eb6cef3b4377d99e478', ('14.36075801037724', '0.004266666666666667', '0.3518862090290662')),
        ('7b73334a0cd4f1af23bd4cc136a10a200f637bd7a63369e31bbe77583421601d', ('15.06669349344541', '0.004933333333333333', '0.32869511440940014')),
        ('8b7a15e88725e866eaa07aa0a524d16303f1b0a93abef0ad0035c8b7b354bdc2', ('14.405283607558246', '0.004533333333333333', '0.3500309214594929')),
    ],
    ('synthetic:300:11:1', 'edge-remove'): [
        ('b0610f582568b78d85e2d797656ebeafd76b87366fb87b853c267b7b9addf9af', ('14.174843970377102', '0.0044666666666666665', '0.37012987012987014')),
        ('f51151bb3d4fab4fd545ae3077f64e2ba7e1791dc40ecefd8f10ae60720bd18e', ('14.25902641416809', '0.004688888888888889', '0.37043908472479903')),
        ('844b7dbfa08642ec33b46385c1ddd1cf0c79b379f7f808f51032ea4aab39386a', ('13.99804704359906', '0.004488888888888889', '0.37291280148423006')),
    ],
    ('synthetic:4000:11:1', 'lpea-low'): [
        ('459e4c706ccdfefb36378716a04d824519f80d4ddde8ae0e2a13ae4052a71c8e', ('14.935270023844424', '0.00029562500000000004', '0.4032412254745755')),
    ],
    ('synthetic:4000:11:1', 'lpea-high'): [
        ('ba1558416700ac234ace94589a2e5b4f8f5d81e72f96cc099d1f4fb82103e63a', ('14.802048415616861', '0.00029487500000000005', '0.41193608594710246')),
    ],
    ('synthetic:4000:11:1', 'random-add'): [
        ('56bef1a06e6db9fa92de71d5cafa1554198f4d368b6d615b87db33425bb7075b', ('14.786477171883327', '0.00028787500000000004', '0.40651886921291025')),
    ],
    ('synthetic:4000:11:1', 'edge-remove'): [
        ('c52769dbaed7d938bd6521eac5dee003c8e49d115f3f6607836bf560b1f9e493', ('13.42529843822875', '0.0002385', '0.5022989028998043')),
    ],
}

RELEASE_GOLDEN_THETA = {"synthetic:300:11:1": (11, 3), "synthetic:4000:11:1": (17, 1)}


@pytest.mark.parametrize("token", sorted(RELEASE_GOLDEN_THETA))
def test_private_release_golden(token):
    graph, _ = load_dataset(token)
    theta, trials = RELEASE_GOLDEN_THETA[token]
    for strategy in Strategy:
        cfg = ExperimentConfig(dataset=token, strategy=strategy, theta=theta, trials=trials, seed=3)
        rows, reports = run_pipeline(cfg, graph=graph)
        got = [
            (hashlib.sha256(rep.to_json().encode()).hexdigest(),
             (repr(row.mae_seq), repr(row.mae_dist), repr(row.edge_ratio)))
            for row, rep in zip(rows, reports)
        ]
        assert got == RELEASE_GOLDEN[token, strategy.value], strategy


## the same digests at p_size 3, where synthetic:300:11:1 has 34 orders
## rather than the default's 3: lpea-low, theta 11, seed 3, two trials
PSIZE3_RELEASE_GOLDEN = [
    ('fae56fb2c5b886c465184aafb9ee9b889f60051bebc6e367582945e51eaab1f5', ('14.530159240346839', '0.004488888888888889', '0.3404452690166976')),
    ('73e391a6090d7e0ebde85f37a51c46f9383e6bd0793da0972fab5ee2c728809e', ('14.786184685903324', '0.004622222222222222', '0.34755720470006185')),
]


def test_private_release_golden_psize3():
    graph, _ = load_dataset("synthetic:300:11:1")
    cfg = ExperimentConfig(dataset="synthetic:300:11:1", theta=11, p_size=3, trials=2, seed=3)
    rows, reports = run_pipeline(cfg, graph=graph)
    got = [
        (hashlib.sha256(rep.to_json().encode()).hexdigest(),
         (repr(row.mae_seq), repr(row.mae_dist), repr(row.edge_ratio)))
        for row, rep in zip(rows, reports)
    ]
    assert got == PSIZE3_RELEASE_GOLDEN


class TestSelectTheta:
    @pytest.mark.parametrize("method", ["deviation", "sum"])
    def test_K_defaults_to_largest_degree_at_least_one(self, method, monkeypatch):
        seen = []

        def spy(name):
            original = getattr(theta_module, name)

            def wrapped(*args, **kwargs):
                seen.append((name, next(a for a in args if isinstance(a, ThetaSearchConfig))))
                return original(*args, **kwargs)

            return wrapped

        for name in ("theta_by_deviation", "theta_by_sum"):
            monkeypatch.setattr(theta_module, name, spy(name))
        g, _ = load_dataset("synthetic:40:3:1")
        ## self-loops only: every degree is 0
        loops = Graph(3, [(0, 0), (2, 2)])
        auto = ExperimentConfig(dataset="x", theta=f"auto-{method}", masked=False)
        assert harness.select_theta(auto, loops, np.random.default_rng(0)) == 1
        harness.select_theta(auto, g, np.random.default_rng(0))
        harness.select_theta(replace(auto, K=3), g, np.random.default_rng(0))
        called = f"theta_by_{method}"
        assert [(name, t.K, t.method) for name, t in seen] == [
            (called, 1, method), (called, max(degree_sequence(g)), method), (called, 3, method)
        ]

    def test_dispatches_by_method(self):
        ## a star: one node of degree 9 and nine of degree 1
        g = Graph(10, [(0, i) for i in range(1, 10)])
        dev = ExperimentConfig(dataset="x", theta="auto-deviation", epsilon=1.0, K=9, masked=False)
        assert harness.select_theta(dev, g, np.random.default_rng(0)) == quantile_oracle(degree_sequence(g), 1.0, 9)
        assert harness.select_theta(replace(dev, theta="auto-sum"), g, np.random.default_rng(0)) == 1


class TestRunGrid:
    def test_loads_once_and_matches_single_runs(self, monkeypatch):
        loads = []
        original = harness.load_dataset

        def counted(token):
            loads.append(token)
            return original(token)

        monkeypatch.setattr(harness, "load_dataset", counted)
        base = ExperimentConfig(dataset="synthetic:40:3:1", trials=2, seed=4, private=False)
        strategies = [Strategy.LPEA_HIGH, Strategy.EDGE_REMOVE]
        rows = run_grid(base, strategies, [{"theta": 2}, {"theta": 5}])
        assert loads == ["synthetic:40:3:1"]
        assert rows[0].dataset == "synthetic-40-3-1"
        assert [(r.strategy, r.theta) for r in rows] == [
            (s.value, t) for s in strategies for t in (2, 5) for _ in range(2)
        ]
        ## each grid point equals its own run_pipeline call, runtime aside
        single, _ = run_pipeline(ExperimentConfig(dataset="synthetic:40:3:1", strategy=Strategy.EDGE_REMOVE,
                                                  theta=5, trials=2, seed=4, private=False))
        for a, b in zip(rows[-2:], single):
            for col in CSV_COLUMNS:
                if col != "runtime_ms":
                    assert getattr(a, col) == getattr(b, col)

    @pytest.mark.parametrize("private", [False, True])
    def test_auto_theta_selected_once_per_grid_point(self, monkeypatch, private):
        calls = []
        original = theta_module.theta_by_deviation

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(theta_module, "theta_by_deviation", counted)
        base = ExperimentConfig(dataset="synthetic:40:3:1", trials=2, seed=4, private=private, masked=False)
        grid = [{"epsilon": 1.0}, {"epsilon": 2.0}]
        rows = run_grid(base, list(Strategy), grid)
        assert len(calls) == len(grid)
        ## every strategy's rows equal its own run_pipeline call, runtime aside
        per_run = len(rows) // (len(Strategy) * len(grid))
        for k, (strategy, point) in enumerate((s, p) for s in Strategy for p in grid):
            single, _ = run_pipeline(replace(base, strategy=strategy, **point))
            for a, b in zip(rows[k * per_run:(k + 1) * per_run], single, strict=True):
                for col in CSV_COLUMNS:
                    if col != "runtime_ms":
                        assert getattr(a, col) == getattr(b, col)


    def test_bad_last_point_runs_nothing(self, monkeypatch):
        calls = []
        original = harness.run_pipeline

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "run_pipeline", counted)
        base = ExperimentConfig(dataset="synthetic:40:3:1", theta=3, trials=1)
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            run_grid(base, [Strategy.LPEA_LOW], [{"epsilon": 1.0}, {"epsilon": -1.0}])
        assert calls == []


class TestResolveGrid:
    def test_points_carry_label_and_their_own_runs_theta(self):
        base = ExperimentConfig(dataset="synthetic:60:3:2", trials=1, seed=9)
        grid = [{"epsilon": 1.0}, {"epsilon": 3.0, "theta": "auto-sum"}, {"epsilon": 1.0, "theta": 4}]
        graph, points = resolve_grid(base, grid)
        assert (graph.n, points[0].dataset) == (60, "synthetic-60-3-2")
        assert [p.dataset for p in points] == ["synthetic-60-3-2"] * 3
        assert points[2].theta == 4
        for point, overrides in zip(points, grid):
            rows, _ = run_pipeline(replace(base, **overrides))
            assert point.theta == rows[0].theta


class TestEmitCsv:
    def _rows(self):
        cfg = ExperimentConfig(dataset="synthetic:40:3:1", theta=2, trials=2, seed=3)
        return run_pipeline(cfg)[0]

    def test_header_exact(self):
        buf = io.StringIO()
        emit_csv(self._rows(), buf)
        header = buf.getvalue().splitlines()[0]
        assert header == "dataset,strategy,epsilon,alpha,theta,trial,seed,mae_seq,mse_seq,mae_dist,edge_ratio,runtime_ms"

    def test_floats_round_trip_exactly(self):
        rows = self._rows()
        buf = io.StringIO()
        emit_csv(rows, buf)
        parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(parsed) == len(rows)
        for row, rec in zip(rows, parsed):
            assert float(rec["mae_seq"]) == row.mae_seq
            assert float(rec["mse_seq"]) == row.mse_seq
            assert float(rec["mae_dist"]) == row.mae_dist
            assert float(rec["edge_ratio"]) == row.edge_ratio
            assert int(rec["seed"]) == row.seed

    def test_path_sink(self, tmp_path):
        out = tmp_path / "rows.csv"
        emit_csv(self._rows(), str(out))
        assert out.read_text().startswith("dataset,")
        assert len(out.read_text().splitlines()) == 3
