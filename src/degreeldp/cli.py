"""Command-line interface.

Subcommands:
    stats         print node/edge counts and degree summary for a dataset
    project       non-private degree-bounded projection, metrics per trial
    select-theta  run a threshold-selection protocol and print theta
    release       full private pipeline: encode, project, perturb, metrics
    sweep         grid of runs over thresholds or budgets

Datasets are edge-list files (optionally .gz), looked up directly or under
$LDP_DEGREE_DATA_DIR, or synthetic tokens like synthetic:2000:4:7.
"""

from __future__ import annotations

import argparse
import sys
from collections import OrderedDict

import numpy as np

from .graph import stats
from .harness import AUTO_PREFIX, ExperimentConfig, MetricsRow, emit_csv, load_dataset, run_grid, select_theta
from .projection import Strategy
from .theta import METHODS

_STRATEGY_CHOICES = [s.value for s in Strategy] + ["all"]


def _theta_arg(text: str) -> int | str:
    """An integer, or an auto-<method> name left for ExperimentConfig to check."""
    if text.startswith(AUTO_PREFIX):
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"theta must be an integer or {AUTO_PREFIX}<method>, got {text!r}")


def _int_list(text: str) -> list[int]:
    """Parse '1,5,10' or '1:10' or '1:10:3' (inclusive range) into ints."""
    out: list[int] = []
    for chunk in text.split(","):
        if ":" in chunk:
            parts = chunk.split(":")
            if len(parts) not in (2, 3):
                raise argparse.ArgumentTypeError(f"bad range {chunk!r}")
            start, stop = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
            if start > stop or step < 1:
                raise argparse.ArgumentTypeError(f"range {chunk!r} needs start <= stop and step >= 1")
            out.extend(range(start, stop + 1, step))
        else:
            out.append(int(chunk))
    return out


def _float_list(text: str) -> list[float]:
    """Parse '1,1.5,2' into floats; an empty chunk is an error, as in _int_list."""
    try:
        return [float(chunk) for chunk in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degreeldp",
        description="Locally private release of graph degree sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ## a flag that sets a config field defaults to ExperimentConfig's default for it
    def add_selection(p: argparse.ArgumentParser) -> None:
        p.add_argument("dataset", help="edge-list path or synthetic:<n>[:<attach>[:<seed>]]")
        p.add_argument("--epsilon", type=float, default=ExperimentConfig.epsilon,
                       help="total privacy budget (default %(default)s)")
        p.add_argument("--K", type=int, default=ExperimentConfig.K,
                       help="upper bound of the threshold search (default: max degree)")
        p.add_argument("--lambda", dest="bits", type=int, default=ExperimentConfig.bits,
                       help="modulus bit length for masked aggregation (default %(default)s)")
        p.add_argument("--seed", type=int, default=ExperimentConfig.seed, help="master seed (default %(default)s)")
        p.add_argument("--no-mask", action="store_true",
                       help="skip pairwise masking in threshold selection (same result, much faster on large graphs)")

    def add_run(p: argparse.ArgumentParser) -> None:
        add_selection(p)
        p.add_argument("--alpha", type=float, default=ExperimentConfig.alpha,
                       help="budget share for the interactive stages (default %(default)s)")
        p.add_argument("--psize", type=int, default=ExperimentConfig.p_size,
                       help="partition width for degree-order encoding (default %(default)s)")
        p.add_argument("--trials", type=int, default=ExperimentConfig.trials,
                       help="independent trials (default %(default)s)")
        p.add_argument("--out", default=None, help="write the metrics CSV here (default: CSV on stdout)")
        p.add_argument("--strategy", choices=_STRATEGY_CHOICES, default=ExperimentConfig.strategy.value,
                       help="projection strategy (default %(default)s)")
        p.add_argument("--theta", type=_theta_arg, default=ExperimentConfig.theta,
                       help="projection bound, or auto-sum / auto-deviation (default %(default)s)")

    p_stats = sub.add_parser("stats", help="print dataset summary")
    p_stats.add_argument("dataset")

    p_project = sub.add_parser("project", help="non-private projection, metrics vs original degrees")
    add_run(p_project)
    p_project.set_defaults(private=False)

    p_theta = sub.add_parser("select-theta", help="run a threshold-selection protocol and print theta")
    add_selection(p_theta)
    p_theta.add_argument("--method", choices=METHODS, default=ExperimentConfig.theta.removeprefix(AUTO_PREFIX),
                         help="selection protocol (default %(default)s)")

    p_release = sub.add_parser("release", help="full private pipeline with Laplace release")
    add_run(p_release)
    p_release.set_defaults(private=True)

    p_sweep = sub.add_parser("sweep", help="grid of runs over thresholds or budgets")
    add_run(p_sweep)
    p_sweep.add_argument("--thetas", type=_int_list, default=None, help="comma list or a:b[:step] range of bounds")
    p_sweep.add_argument("--epsilons", type=_float_list, default=None,
                         help="comma list of budgets, each run at --theta")
    p_sweep.add_argument("--private", action="store_true",
                         help="run the full private pipeline instead of non-private projection")
    return parser


def _write_rows(rows: list[MetricsRow], out: str | None) -> None:
    if out:
        emit_csv(rows, out)
        _summarize(rows, sys.stdout)
        print(f"wrote {len(rows)} rows to {out}")
    else:
        _summarize(rows, sys.stderr)
        emit_csv(rows, sys.stdout)


def _summarize(rows: list[MetricsRow], stream) -> None:
    groups: "OrderedDict[tuple, list[MetricsRow]]" = OrderedDict()
    for row in rows:
        groups.setdefault((row.strategy, row.epsilon, row.theta), []).append(row)
    for (strategy, epsilon, theta), grp in groups.items():
        mean = lambda attr: sum(getattr(r, attr) for r in grp) / len(grp)
        stream.write(
            f"{strategy} epsilon={epsilon} theta={theta} trials={len(grp)} "
            f"mae_seq={mean('mae_seq'):.4f} mse_seq={mean('mse_seq'):.4f} "
            f"mae_dist={mean('mae_dist'):.6f} edge_ratio={mean('edge_ratio'):.4f}\n"
        )


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "stats":
            graph, label = load_dataset(args.dataset)
            st = stats(graph)
            print(f"dataset={label}")
            print(f"nodes={graph.n}")
            print(f"edges={graph.m}")
            print(f"d_min={st.d_min}")
            print(f"d_max={st.d_max}")
            print(f"d_avg={st.d_avg:.4f}")
            return 0

        if args.command == "select-theta":
            cfg = ExperimentConfig(dataset=args.dataset, epsilon=args.epsilon, theta=AUTO_PREFIX + args.method,
                                   K=args.K, bits=args.bits, seed=args.seed, masked=not args.no_mask)
            graph, _ = load_dataset(cfg.dataset)
            print(select_theta(cfg, graph, np.random.default_rng(cfg.seed)))
            return 0

        ## project, release and sweep
        grid = [{}]
        if args.command == "sweep":
            if (args.thetas is None) == (args.epsilons is None):
                print("usage: degreeldp sweep needs exactly one of --thetas or --epsilons", file=sys.stderr)
                return 2
            grid = [{"theta": v} for v in args.thetas] if args.thetas else [{"epsilon": v} for v in args.epsilons]
        base = ExperimentConfig(
            dataset=args.dataset, epsilon=args.epsilon, alpha=args.alpha, theta=args.theta,
            K=args.K, p_size=args.psize, bits=args.bits, trials=args.trials, seed=args.seed,
            private=args.private, masked=not args.no_mask,
        )
        strategies = list(Strategy) if args.strategy == "all" else [Strategy(args.strategy)]
        _, rows = run_grid(base, strategies, grid)
        _write_rows(rows, args.out)
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
