"""The package's top-level surface: what README code and scripts/ import, the README's CLI lines, results tables and
collusion figures."""

import ast
import csv
import math
import re
import shlex
import types
from pathlib import Path

import numpy as np
import pytest

import degreeldp
from degreeldp.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = {
    "Graph", "degree_sequence", "load_graph",
    "ExperimentConfig", "emit_csv", "load_dataset", "run_grid", "run_pipeline",
    "PrivacyParams",
    "ProjectionConfig", "Strategy", "project",
    "ReleaseReport",
    "agree_keys", "masked_sum_round",
    "ThetaSearchConfig", "theta_by_deviation",
}


def top_level_imports() -> list[tuple[str, str]]:
    """(source, name) for every `from degreeldp import ...` in README code blocks and scripts/*.py."""
    sources = {"README.md": "\n".join(re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S))}
    for path in sorted((ROOT / "scripts").glob("*.py")):
        sources[f"scripts/{path.name}"] = path.read_text()
    found = []
    for source, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module == "degreeldp" and node.level == 0:
                found += [(source, alias.name) for alias in node.names]
    return found


def test_public_names_are_exactly_the_listed_set():
    names = {
        name for name in dir(degreeldp)
        if not name.startswith("_") and not isinstance(getattr(degreeldp, name), types.ModuleType)
    }
    assert names == PUBLIC


def test_readme_and_scripts_imports_resolve():
    found = top_level_imports()
    assert "README.md" in {source for source, _ in found}
    for source, name in found:
        assert hasattr(degreeldp, name), f"{source} imports {name}, which degreeldp does not export"


def readme_cli_lines() -> list[str]:
    """Every `degreeldp ...` command line in the README's sh code blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return [line.strip() for block in blocks for line in block.splitlines() if line.strip().startswith("degreeldp ")]


def test_readme_cli_lines_parse():
    lines = readme_cli_lines()
    assert len(lines) >= 6
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def readme_results_tables() -> list[tuple[list[str], list[str], list[list[str]]]]:
    """(CSVs named before it, header, rows) for each table under the README's "Results on synthetic inputs"."""
    section = (ROOT / "README.md").read_text().split("## Results on synthetic inputs\n", 1)[1].split("\n## ", 1)[0]
    tables, named, block = [], [], []
    for line in section.splitlines() + [""]:
        if line.startswith("|"):
            block.append([cell.strip() for cell in line.strip("|").split("|")])
        elif block:
            ## the second line of a table is its |---| rule
            tables.append((named, block[0], block[2:]))
            named, block = [], []
        else:
            named += re.findall(r"results/[\w.-]+\.csv", line)
    return tables


def test_readme_results_tables_are_the_csv_means():
    ## a column "metric (θ=T, ε=E)" reads the CSV of that run; a bare "metric" the table's one CSV
    tables = readme_results_tables()
    assert len(tables) == 2
    digits = {"edge_ratio": 3, "mae_seq": 2}
    for named, header, rows in tables:
        assert header[0] == "strategy" and rows
        for col, name in enumerate(header[1:], start=1):
            metric, _, run = name.partition(" ")
            if run:
                theta, eps = re.fullmatch(r"\(θ=(\d+), ε=(\d+)\)", run).groups()
                [path] = [p for p in named if f"_theta{theta}_eps{eps}_" in p]
            else:
                [path] = named
            with open(ROOT / path, newline="") as fh:
                records = list(csv.DictReader(fh))
            for row in rows:
                values = [float(r[metric]) for r in records if r["strategy"] == row[0]]
                assert values, (path, row[0])
                assert row[col] == f"{sum(values) / len(values):.{digits[metric]}f}", (path, row[0], metric)


def test_readme_collusion_figures_are_recomputed():
    ## README states k at three sizes and C(c, k)/C(n - 1, k) for two (n, c); each must match the code's ring
    from degreeldp.secure_agg import _ring_peers

    text = " ".join((ROOT / "README.md").read_text().split())
    number = r"(\d{1,3}(?:,\d{3})*)"
    [sizes] = re.findall(rf"peers: {number} at n = {number}, {number} at {number} and {number} at {number}", text)
    degrees = {int(n.replace(",", "")): int(k) for k, n in zip(sizes[::2], sizes[1::2])}
    assert degrees == {300: 18, 4000: 24, 40000: 32}
    for n, k in degrees.items():
        assert _ring_peers(np.arange(n)).shape == (n, k)
    quoted = re.findall(rf"(\d\.\de-\d+) at n = {number} with c = {number}", text)
    assert len(quoted) == 2
    for figure, n, c in quoted:
        n, c = int(n.replace(",", "")), int(c.replace(",", ""))
        k = _ring_peers(np.arange(n)).shape[1]
        assert figure == f"{math.comb(c, k) / math.comb(n - 1, k):.1e}", (n, c)
