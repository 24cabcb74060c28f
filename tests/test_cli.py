import argparse
import csv

import numpy as np
import pytest

from degreeldp import harness
from degreeldp.graph import degree_sequence
from degreeldp.harness import CSV_COLUMNS, load_dataset
from degreeldp.projection import Strategy
from degreeldp.theta import ThetaSearchConfig, quantile_oracle, theta_by_sum
from degreeldp.cli import _parse_list, cli_main
from conftest import FIG_EDGE_LIST


@pytest.fixture
def fig_file(tmp_path):
    path = tmp_path / "fig.txt"
    path.write_text(FIG_EDGE_LIST)
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestStats:
    def test_summary_fields(self, fig_file, capsys):
        assert cli_main(["stats", fig_file]) == 0
        out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert out["nodes"] == "4"
        assert out["edges"] == "4"
        assert out["d_min"] == "1"
        assert out["d_max"] == "3"
        assert float(out["d_avg"]) == pytest.approx(2.0)

    def test_missing_file_fails_cleanly(self, capsys):
        assert cli_main(["stats", "/no/such/file.txt"]) == 1
        assert "error:" in capsys.readouterr().err


class TestProject:
    def test_writes_row_per_trial(self, fig_file, tmp_path):
        out = tmp_path / "rows.csv"
        code = cli_main(["project", fig_file, "--theta", "1", "--strategy", "lpea-low",
                         "--trials", "5", "--out", str(out)])
        assert code == 0
        rows = read_csv(str(out))
        assert len(rows) == 5
        assert all(r["strategy"] == "lpea-low" and r["theta"] == "1" for r in rows)

    def test_stdout_csv_when_no_out(self, fig_file, capsys):
        assert cli_main(["project", fig_file, "--theta", "1", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("dataset,strategy,epsilon")
        assert len(out.strip().splitlines()) == 3

    def test_strategy_all_expands(self, fig_file, tmp_path):
        out = tmp_path / "rows.csv"
        assert cli_main(["project", fig_file, "--theta", "2", "--strategy", "all",
                         "--trials", "2", "--out", str(out)]) == 0
        rows = read_csv(str(out))
        assert len(rows) == 8
        assert {r["strategy"] for r in rows} == {"lpea-low", "lpea-high", "random-add", "edge-remove"}

    def test_bad_theta_is_usage_error(self, fig_file):
        assert cli_main(["project", fig_file, "--theta", "nope"]) == 2


class TestSelectTheta:
    def test_prints_oracle_value(self, capsys):
        assert cli_main(["select-theta", "synthetic:80:3:4", "--epsilon", "2", "--no-mask"]) == 0
        printed = int(capsys.readouterr().out.strip())
        g, _ = load_dataset("synthetic:80:3:4")
        degs = degree_sequence(g)
        assert printed == quantile_oracle(degs, 2.0, max(degs))

    def test_masked_matches_bypassed(self, capsys):
        assert cli_main(["select-theta", "synthetic:40:3:1", "--epsilon", "1.5"]) == 0
        masked = int(capsys.readouterr().out.strip())
        assert cli_main(["select-theta", "synthetic:40:3:1", "--epsilon", "1.5", "--no-mask"]) == 0
        assert masked == int(capsys.readouterr().out.strip())

    def test_sum_method_runs(self, fig_file, capsys):
        assert cli_main(["select-theta", fig_file, "--theta", "auto-sum", "--epsilon", "1"]) == 0
        assert int(capsys.readouterr().out.strip()) >= 1

    @pytest.mark.parametrize("method", ["deviation", "sum"])
    def test_empty_graph_fails_naming_it(self, method, tmp_path, capsys):
        ## K used to be max() of the empty degree list, which failed with max()'s own message
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert cli_main(["select-theta", str(path), "--theta", f"auto-{method}"]) == 1
        err = capsys.readouterr().err
        assert "must be nonempty" in err
        assert "max()" not in err

    def test_epsilon_list_prints_one_theta_each(self, capsys):
        assert cli_main(["select-theta", "synthetic:80:3:4", "--epsilon", "2,1,2", "--no-mask"]) == 0
        printed = [int(line) for line in capsys.readouterr().out.splitlines()]
        g, _ = load_dataset("synthetic:80:3:4")
        degs = degree_sequence(g)
        assert printed == [quantile_oracle(degs, eps, max(degs)) for eps in (2.0, 1.0, 2.0)]

    def test_theta_list_prints_one_line_per_grid_point(self, capsys):
        args = ["select-theta", "synthetic:80:3:4", "--epsilon", "1,3", "--no-mask"]
        assert cli_main(args + ["--theta", "auto-sum,auto-deviation"]) == 0
        printed = [int(line) for line in capsys.readouterr().out.splitlines()]
        g, _ = load_dataset("synthetic:80:3:4")
        degs = degree_sequence(g)
        by_sum = [theta_by_sum(g, degs, ThetaSearchConfig(K=max(degs), epsilon=eps, method="sum"),
                               np.random.default_rng(0), masked=False) for eps in (1.0, 3.0)]
        ## theta first, then epsilon
        assert printed == by_sum + [quantile_oracle(degs, eps, max(degs)) for eps in (1.0, 3.0)]
        ## an integer entry prints itself
        assert cli_main(args + ["--theta", "7"]) == 0
        assert capsys.readouterr().out == "7\n7\n"

    def test_method_flag_is_gone(self, capsys):
        ## --theta auto-<method> names the protocol, as it does for project and release
        assert cli_main(["select-theta", "synthetic:40:3:1", "--method", "sum"]) == 2
        assert capsys.readouterr().out == ""

    def test_lambda_flag_is_gone(self, capsys):
        ## masking runs in its one group, q = 2^61 - 1, so no flag picks a modulus size
        assert cli_main(["select-theta", "synthetic:40:3:1", "--lambda", "61"]) == 2
        assert capsys.readouterr().out == ""

    def test_epsilon_list_on_self_loops_only(self, tmp_path, capsys):
        ## every degree is 0; K used to be 0 here, which the search refused
        path = tmp_path / "loops.txt"
        path.write_text("a a\nb b\n")
        assert cli_main(["select-theta", str(path), "--epsilon", "1,3"]) == 0
        assert capsys.readouterr().out == "1\n1\n"

    def test_bad_epsilon_in_list_prints_nothing(self, capsys):
        assert cli_main(["select-theta", "synthetic:40:3:1", "--epsilon", "1,inf", "--no-mask"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "epsilon must be finite and positive" in err

    @pytest.mark.parametrize("flag", ["--out", "--trials", "--psize", "--alpha"])
    def test_rejects_flags_it_does_not_read(self, flag, tmp_path):
        value = str(tmp_path / "f") if flag == "--out" else "1"
        assert cli_main(["select-theta", "synthetic:40:3:1", flag, value]) == 2
        assert not (tmp_path / "f").exists()


class TestRelease:
    def test_full_pipeline_csv(self, tmp_path):
        out = tmp_path / "rel.csv"
        assert cli_main(["release", "synthetic:60:3:2", "--trials", "3", "--theta", "4",
                         "--out", str(out)]) == 0
        rows = read_csv(str(out))
        assert len(rows) == 3
        assert all(float(r["mae_seq"]) > 0 for r in rows)

    def test_seeded_reruns_identical_but_runtime(self, tmp_path):
        args = ["release", "synthetic:60:3:2", "--trials", "2", "--theta", "4", "--seed", "7"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        rows1, rows2 = read_csv(str(out1)), read_csv(str(out2))
        for a, b in zip(rows1, rows2):
            a.pop("runtime_ms"), b.pop("runtime_ms")
            assert a == b


    def test_large_finite_epsilon_runs(self, tmp_path):
        ## e^(alpha * epsilon / 2) overflows a double here; the response rate saturates at 1 instead
        out = tmp_path / "rel.csv"
        assert cli_main(["release", "synthetic:100:4:1", "--epsilon", "1e4", "--alpha", "0.5", "--theta", "5",
                         "--strategy", "all", "--trials", "1", "--out", str(out)]) == 0
        rows = read_csv(str(out))
        assert len(rows) == 4
        assert all(float(r["epsilon"]) == 1e4 and np.isfinite(float(r["mae_seq"])) for r in rows)

    @pytest.mark.parametrize("flags", [["--epsilon", "1e-15"], ["--alpha", "1e-17"]])
    def test_tiny_negotiation_budget_runs(self, flags, tmp_path):
        ## below alpha * epsilon / 2 ~ 1.1e-16 the debiased count divided by zero
        out = tmp_path / "rel.csv"
        assert cli_main(["release", "synthetic:40:3:1", "--theta", "3", "--trials", "1", "--out", str(out)]
                        + flags) == 0
        assert len(read_csv(str(out))) == 1


class TestSweep:
    def test_theta_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli_main(["project", "synthetic:40:3:1", "--theta", "1,3,5",
                         "--trials", "2", "--out", str(out)]) == 0
        rows = read_csv(str(out))
        assert len(rows) == 6
        assert sorted({r["theta"] for r in rows}) == ["1", "3", "5"]

    def test_range_syntax(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli_main(["project", "synthetic:40:3:1", "--theta", "1:4",
                         "--trials", "1", "--out", str(out)]) == 0
        assert sorted({r["theta"] for r in read_csv(str(out))}) == ["1", "2", "3", "4"]

    def test_epsilon_grid_private(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli_main(["release", "synthetic:40:3:1", "--epsilon", "1,2", "--theta", "3",
                         "--trials", "2", "--out", str(out)]) == 0
        rows = read_csv(str(out))
        assert len(rows) == 4
        assert sorted({r["epsilon"] for r in rows}) == ["1.0", "2.0"]
        assert all(float(r["mae_seq"]) > 0 for r in rows)

    @pytest.mark.parametrize("grid", ["5:1", "5:1,2", "1,5:1", "5:1:-1", "1:5:0", "1:5:-2", "1:2:3:4"])
    def test_bad_range_is_usage_error(self, grid, capsys):
        ## a reversed range or a step below 1 used to vanish from the list or drop its bound
        assert cli_main(["project", "synthetic:40:3:1", "--theta", grid, "--trials", "1"]) == 2
        assert capsys.readouterr().out == ""

    def test_range_step_and_single_point(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli_main(["project", "synthetic:40:3:1", "--theta", "1:7:3,4:4",
                         "--trials", "1", "--out", str(out)]) == 0
        assert [r["theta"] for r in read_csv(str(out))] == ["1", "4", "7", "4"]

    @pytest.mark.parametrize("command,grid", [
        ("project", "--theta"), ("project", "--epsilon"),
        ("release", "--theta"), ("release", "--epsilon"),
        ("select-theta", "--theta"), ("select-theta", "--epsilon"),
    ])
    def test_empty_list_entry_is_usage_error(self, command, grid, capsys):
        ## an empty chunk inside a list used to be skipped by the epsilon list
        for value in (",", "1,,2", "1,"):
            assert cli_main([command, "synthetic:40:3:1", grid, value, "--K", "3"]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert f"argument {grid}: bad entry" in err

    def test_entries_are_stripped(self, capsys):
        ## "auto-sum, auto-deviation" was refused for its " auto-deviation" while "16, 32" parsed
        assert _parse_list("16, auto-sum") == [16, "auto-sum"]
        assert _parse_list(" 1, 3", floats=True) == [1.0, 3.0]
        assert _parse_list(" 1 : 3 ") == [1, 2, 3]
        with pytest.raises(argparse.ArgumentTypeError, match="bad entry ''"):
            _parse_list("16,")
        assert cli_main(["select-theta", "synthetic:100:4:1", "--no-mask", "--theta", "auto-sum, auto-deviation"]) == 0
        assert len(capsys.readouterr().out.split()) == 2

    def test_theta_epsilon_product_in_strategy_theta_epsilon_order(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli_main(["release", "synthetic:40:3:1", "--theta", "2,auto-deviation", "--epsilon", "1,3",
                         "--strategy", "all", "--trials", "2", "--out", str(out)]) == 0
        degs = degree_sequence(load_dataset("synthetic:40:3:1")[0])
        ## an automatic theta is selected once per epsilon
        auto = [str(quantile_oracle(degs, eps, max(degs))) for eps in (1.0, 3.0)]
        cells = [(r["strategy"], r["theta"], r["epsilon"]) for r in read_csv(str(out))]
        assert cells == [(s.value, theta, eps) for s in Strategy for theta, eps in
                         [("2", "1.0"), ("2", "3.0"), (auto[0], "1.0"), (auto[1], "3.0")] for _ in range(2)]

    @pytest.mark.parametrize("command,flag,grid", [
        ("project", "--theta", ["2", "4", "8"]),
        ("release", "--epsilon", ["1.0", "3.0"]),
    ])
    def test_one_csv_per_command(self, command, flag, grid, tmp_path):
        out = tmp_path / "rows.csv"
        argv = [command, "synthetic:60:3", flag, ",".join(grid), "--strategy", "all", "--trials", "1"]
        assert cli_main(argv + ["--out", str(out)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_COLUMNS
        body = rows[1:]
        assert len(body) == len(Strategy) * len(grid) * 1
        assert {r[CSV_COLUMNS.index("dataset")] for r in body} == {"synthetic-60-3-0"}
        ## strategy by strategy, the grid in order within each
        column = CSV_COLUMNS.index(flag.removeprefix("--"))
        strategy = CSV_COLUMNS.index("strategy")
        assert [(r[strategy], r[column]) for r in body] == [(s.value, v) for s in Strategy for v in grid]

    @pytest.mark.parametrize("theta", ["4,4", "auto-deviation,{auto}"])
    def test_summary_line_per_grid_point(self, theta, capsys):
        ## grid points that share (strategy, epsilon, theta) used to merge into one line with their trials added
        degs = degree_sequence(load_dataset("synthetic:40:3:1")[0])
        auto = quantile_oracle(degs, 3.0, max(degs))
        argv = ["project", "synthetic:40:3:1", "--theta", theta.format(auto=auto), "--trials", "2"]
        assert cli_main(argv) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert lines[0] == lines[1]
        assert f" theta={4 if theta == '4,4' else auto} trials=2 " in lines[0]

    def test_sweep_subcommand_is_gone(self, fig_file, capsys):
        ## it needed exactly one of --thetas and --epsilons; project and release now take both lists
        for args in ([], ["--thetas", "1"], ["--epsilons", "1"], ["--thetas", "1", "--epsilons", "1"]):
            assert cli_main(["sweep", fig_file, *args]) == 2
            assert capsys.readouterr().out == ""


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert cli_main(["frobnicate"]) == 2

    def test_unknown_flag(self, fig_file):
        assert cli_main(["project", fig_file, "--bogus"]) == 2

    def test_no_args_shows_usage(self):
        assert cli_main([]) == 2


class TestBadValues:
    @pytest.mark.parametrize("command", ["release", "project", "select-theta"])
    def test_non_finite_epsilon_fails_naming_it(self, command, capsys):
        args = [command, "synthetic:200:4:1", "--epsilon", "inf"]
        if command != "select-theta":
            args += ["--theta", "5", "--trials", "1"]
        assert cli_main(args) == 1
        err = capsys.readouterr().err
        assert "error: epsilon must be finite and positive" in err

    @pytest.mark.parametrize("flags,named", [(["--K", "-4"], "K must be at least 1")])
    @pytest.mark.parametrize("theta", ["5", "auto-deviation"])
    def test_bad_K_or_bits_fails_at_construction(self, flags, named, theta, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        args = ["release", "synthetic:200:4:1", "--theta", theta, "--trials", "1", "--out", str(out)]
        assert cli_main(args + flags) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args,named", [
        (["release", "synthetic:300:11:1", "--theta", "auto-deviation", "--psize", "0"], "p_size must be at least 1"),
        (["release", "synthetic:300:11:1", "--theta", "auto-deviation", "--alpha", "1.5"], "alpha must lie in (0, 1)"),
        (["release", "synthetic:40:3:1", "--epsilon", "1,-1", "--theta", "3"], "epsilon must be finite and positive"),
        (["release", "synthetic:300:11:1", "--theta", "0"], "theta must be at least 1"),
        (["release", "synthetic:300:11:1", "--theta", "auto-bogus"], "theta must be an integer"),
        (["project", "synthetic:40:3:1", "--epsilon", "2,-1,1", "--theta", "3,auto-sum"], "epsilon must be finite"),
        (["release", "synthetic:40:3:1", "--epsilon", "1e-308", "--strategy", "edge-remove", "--theta", "3"],
         "Laplace scale theta / release budget = 3 / 8.999999999999997e-309 is not finite"),
    ])
    def test_bad_run_setting_fails_before_any_row(self, args, named, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        assert cli_main(args + ["--trials", "1", "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,named", [
        (["--epsilon", "1e-305"], "mse = inf is not finite in float64"),
        (["--epsilon", "5e-308", "--strategy", "edge-remove"],
         "Laplace scale theta / release budget = 3 / 4.5e-308 is not finite at its largest draw"),
    ])
    def test_release_beyond_float64_fails_before_any_row(self, flags, named, capsys, tmp_path):
        ## both exited 0, writing mse_seq=inf and mae_seq=inf
        out = tmp_path / "rows.csv"
        args = ["release", "synthetic:40:3:1", "--theta", "3", "--trials", "1", "--out", str(out)]
        assert cli_main(args + flags) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["stats", "select-theta", "release"])
    def test_negative_synthetic_seed_names_it(self, command, capsys):
        ## NumPy's "expected non-negative integer" used to surface, naming no seed
        assert cli_main([command, "synthetic:10:3:-1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: seed must be at least 0 and an integer, got -1 (int)\n"

    @pytest.mark.parametrize("command,flag,value", [
        ("release", "--theta", "2.5"), ("release", "--theta", "True"), ("release", "--trials", "2.5"),
        ("release", "--K", "2.5"), ("release", "--psize", "2.5"), ("release", "--seed", "1.5"),
        ("select-theta", "--theta", "2.5"), ("select-theta", "--K", "True"),
    ])
    def test_non_integer_count_is_usage_error(self, command, flag, value, capsys):
        assert cli_main([command, "synthetic:40:3:1", flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}:" in err

    @pytest.mark.parametrize("command", ["release", "project", "select-theta"])
    def test_negative_seed_fails_naming_it(self, command, capsys, monkeypatch):
        ## NumPy's "expected non-negative integer" used to surface after the dataset loaded
        loads = []
        monkeypatch.setattr(harness, "load_dataset", loads.append)
        assert cli_main([command, "synthetic:40:3:1", "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be at least 0 and an integer, got -1 (int)\n"
        assert loads == []

    @pytest.mark.parametrize("command", ["stats", "select-theta", "project"])
    @pytest.mark.parametrize("token", ["synthetic:abc", "synthetic:50:x", "synthetic:50:3:1.5", "synthetic:50::1"])
    def test_bad_synthetic_token_names_it(self, command, token, capsys):
        ## int()'s own message used to surface, naming only the bad part
        assert cli_main([command, token]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: bad synthetic token {token!r}; expected synthetic:<n>[:<attach>[:<seed>]]\n"

    def test_empty_graph_fails_with_one_message(self, tmp_path, capsys):
        ## each command used to reach a different check with its own message
        path = tmp_path / "empty.txt"
        path.write_text("# comments only\n")
        errs = []
        for args in (["release", str(path), "--theta", "3"],
                     ["select-theta", str(path)],
                     ["project", str(path), "--theta", "auto-sum"],
                     ["stats", str(path)]):
            assert cli_main(args) == 1
            errs.append(capsys.readouterr().err)
        assert errs == [f"error: dataset {str(path)!r} has no nodes; the graph must be nonempty\n"] * 4
