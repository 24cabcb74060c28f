"""Command-line interface.

Subcommands:
    stats         print node/edge counts and degree summary for a dataset
    project       non-private degree-bounded projection, metrics per trial
    select-theta  run a threshold-selection protocol and print theta
    release       full private pipeline: encode, project, perturb, metrics

--theta and --epsilon take comma lists, and every command covers each
(theta, epsilon) pair: project and release run it, select-theta prints its theta.

Datasets are edge-list files (optionally .gz), looked up directly or under
$LDP_DEGREE_DATA_DIR, or synthetic tokens like synthetic:2000:4:7.
"""

from __future__ import annotations

import argparse
import sys

from .graph import stats
from .harness import AUTO_PREFIX, ExperimentConfig, MetricsRow, emit_csv, load_dataset, resolve_grid, run_grid
from .projection import Strategy

_STRATEGY_CHOICES = [s.value for s in Strategy] + ["all"]


def _parse_list(text: str, floats: bool = False) -> list:
    """Parse a comma list of floats, or of thetas: ints, inclusive a:b[:step] ranges and auto-<method> names.

    Entries are stripped of spaces.  An entry that does not parse, an empty one included, is a usage error;
    ExperimentConfig checks the values.
    """
    out: list = []
    for chunk in map(str.strip, text.split(",")):
        try:
            if floats:
                out.append(float(chunk))
            elif chunk.startswith(AUTO_PREFIX):
                out.append(chunk)
            elif ":" not in chunk:
                out.append(int(chunk))
            else:
                ## a fourth part fails to unpack
                start, stop, step = map(int, chunk.split(":") + ["1"][chunk.count(":") - 1:])
                if start > stop or step < 1:
                    raise ValueError
                out.extend(range(start, stop + 1, step))
        except ValueError:
            expected = "a float" if floats else f"an integer, a:b[:step] (a <= b, step >= 1) or {AUTO_PREFIX}<method>"
            raise argparse.ArgumentTypeError(f"bad entry {chunk!r} in {text!r}; expected {expected}") from None
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degreeldp",
        description="Locally private release of graph degree sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ## a flag that sets a config field defaults to ExperimentConfig's default for it
    def add_selection(p: argparse.ArgumentParser) -> None:
        p.add_argument("dataset", help="edge-list path or synthetic:<n>[:<attach>[:<seed>]]")
        p.add_argument("--epsilon", type=lambda text: _parse_list(text, floats=True),
                       default=str(ExperimentConfig.epsilon),
                       help="total privacy budget, or a comma list of budgets (default %(default)s)")
        p.add_argument("--K", type=int, default=ExperimentConfig.K,
                       help="upper bound of the threshold search (default: max degree)")
        p.add_argument("--lambda", dest="bits", type=int, default=ExperimentConfig.bits,
                       help="modulus bit length for masked aggregation (default %(default)s)")
        p.add_argument("--seed", type=int, default=ExperimentConfig.seed, help="master seed (default %(default)s)")
        p.add_argument("--no-mask", action="store_true",
                       help="skip pairwise masking in threshold selection (same result, much faster on large graphs)")
        p.add_argument("--theta", type=_parse_list, default=ExperimentConfig.theta,
                       help="projection bound, auto-sum or auto-deviation; or a comma list of these "
                            "and a:b[:step] ranges (default %(default)s)")

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

    p_stats = sub.add_parser("stats", help="print dataset summary")
    p_stats.add_argument("dataset")

    p_project = sub.add_parser("project", help="non-private projection, metrics vs original degrees")
    add_run(p_project)
    p_project.set_defaults(private=False)

    p_theta = sub.add_parser("select-theta", help="run a threshold-selection protocol and print theta")
    add_selection(p_theta)

    p_release = sub.add_parser("release", help="full private pipeline with Laplace release")
    add_run(p_release)
    p_release.set_defaults(private=True)
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
    """One line per run: a run's rows are consecutive and the first has trial 0."""
    starts = [i for i, row in enumerate(rows) if row.trial == 0] + [len(rows)]
    for grp in (rows[a:b] for a, b in zip(starts, starts[1:])):
        mean = lambda attr: sum(getattr(r, attr) for r in grp) / len(grp)
        stream.write(
            f"{grp[0].strategy} epsilon={grp[0].epsilon} theta={grp[0].theta} trials={len(grp)} "
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

        run = {} if args.command == "select-theta" else dict(
            alpha=args.alpha, p_size=args.psize, trials=args.trials, private=args.private
        )
        base = ExperimentConfig(
            dataset=args.dataset, K=args.K, bits=args.bits, seed=args.seed, masked=not args.no_mask, **run
        )
        grid = [{"theta": t, "epsilon": e} for t in args.theta for e in args.epsilon]
        if args.command == "select-theta":
            for point in resolve_grid(base, grid)[1]:
                print(point.theta)
            return 0
        strategies = list(Strategy) if args.strategy == "all" else [Strategy(args.strategy)]
        _write_rows(run_grid(base, strategies, grid), args.out)
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
