#!/usr/bin/env python3
"""Regenerate the benchmark sweeps on the downloaded datasets.

Three modes; the first two write one CSV per dataset under --out:

  projection   non-private strategy comparison over a theta grid
  release      private end-to-end release over an epsilon grid, auto theta
  theta-table  print the selected threshold per epsilon, no CSV

CSV rows come strategy by strategy, the grid in order within each.
Datasets are named as loader tokens: a file path, a bare name resolved via
$LDP_DEGREE_DATA_DIR, or synthetic:<n>[:<attach>[:<seed>]].
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from degreeldp import ExperimentConfig, Strategy, emit_csv, load_dataset, run_grid
from degreeldp.harness import select_theta


def _slug(label: str) -> str:
    return label.replace(":", "-").replace("/", "-")


def sweep(mode, token, args):
    if mode == "projection":
        base = ExperimentConfig(dataset=token, trials=args.trials, seed=args.seed, private=False)
        grid = [{"theta": theta} for theta in args.thetas]
    else:
        base = ExperimentConfig(dataset=token, trials=args.trials, seed=args.seed)
        grid = [{"epsilon": eps} for eps in args.epsilons]
    label, rows = run_grid(base, list(Strategy), grid)
    path = args.out / f"{mode}_{_slug(label)}.csv"
    emit_csv(rows, str(path))
    print(f"{label}: {len(rows)} rows -> {path}")


def theta_table(token, epsilons):
    cfgs = [ExperimentConfig(dataset=token, epsilon=eps) for eps in epsilons]
    g, label = load_dataset(token)
    cells = "  ".join(f"eps={cfg.epsilon:g}:{select_theta(cfg, g, np.random.default_rng(0))}" for cfg in cfgs)
    print(f"{label}  {cells}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=["projection", "release", "theta-table"])
    ap.add_argument("datasets", nargs="+", help="paths, names, or synthetic:<n> tokens")
    ap.add_argument("--thetas", type=int, nargs="*", default=[16, 64, 128])
    ap.add_argument("--epsilons", type=float, nargs="*", default=[1.0, 1.5, 2.0, 2.5, 3.0])
    ap.add_argument("--trials", type=int, default=ExperimentConfig.trials)
    ap.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    ap.add_argument("--out", type=Path, default=Path("results"), help="CSV directory (default %(default)s)")
    args = ap.parse_args(argv)

    if args.mode != "theta-table":
        args.out.mkdir(parents=True, exist_ok=True)
    status = 0
    for token in args.datasets:
        try:
            if args.mode == "theta-table":
                theta_table(token, args.epsilons)
            else:
                sweep(args.mode, token, args)
        except (OSError, ValueError) as exc:
            print(f"{token}: error: {exc}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
