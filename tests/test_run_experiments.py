"""Smoke test of scripts/run_experiments.py on a small synthetic graph."""

import csv
import importlib.util
from pathlib import Path

import pytest

from degreeldp.harness import CSV_COLUMNS
from degreeldp.projection import Strategy

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("run_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_theta_table_on_self_loops_only(script, tmp_path, capsys):
    ## every degree is 0; K used to be 0 here, which the search refused
    path = tmp_path / "loops.txt"
    path.write_text("a a\nb b\n")
    assert script.main(["theta-table", str(path), "--epsilons", "1", "3"]) == 0
    assert capsys.readouterr().out == "loops  eps=1:1  eps=3:1\n"


@pytest.mark.parametrize("mode,grid_flag,grid", [
    ("projection", "--thetas", ["2", "4", "8"]),
    ("release", "--epsilons", ["1.0", "3.0"]),
])
def test_one_csv_per_mode(script, tmp_path, mode, grid_flag, grid):
    argv = [mode, "synthetic:60:3", grid_flag, *grid, "--trials", "1", "--out", str(tmp_path)]
    assert script.main(argv) == 0
    paths = list(tmp_path.iterdir())
    assert [p.name for p in paths] == [f"{mode}_synthetic-60-3-0.csv"]
    with open(paths[0]) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    body = rows[1:]
    assert len(body) == len(Strategy) * len(grid) * 1
    ## strategy by strategy, the grid in order within each
    column = CSV_COLUMNS.index("theta" if mode == "projection" else "epsilon")
    strategy = CSV_COLUMNS.index("strategy")
    assert [(r[strategy], r[column]) for r in body] == [(s.value, v) for s in Strategy for v in grid]
