"""Benchmark for the degreeldp pipeline.

    python3 bench/run.py --workload masked-select-300 --seed 1 --seconds 50 --trace 0

Runs one workload (see workloads.py) in this single-threaded process:
rounds of "select theta, release with every strategy" until the next call
would overrun --seconds, with SETUP_SAMPLES set-up samples (batches of
set-ups) spread evenly over the run. Every output is checked. The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones from
tracing.py, and the spans are written to bench/out/. The line before it,
"record {...}", holds the run record: code version, machine, seed, output
digest and the number of samples behind each metric.

Exits with code 2 and no result when the degreeldp sources are missing.
"""

from __future__ import annotations

import os

# one thread per process, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# Set-up samples per run. An untraced run spreads them over --seconds, because
# the host's speed drifts within a run; a traced run takes them before the rounds.
SETUP_SAMPLES = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--graph", help="synthetic:<n>:<attach> in place of the workload's graph (for tests)")
    return p.parse_args(argv)


def git_sha() -> str:
    """HEAD commit read from .git without starting git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def median(values) -> float:
    return float(statistics.median(values))


def timing(samples):
    samples = list(samples)
    return median(samples), "s", len(samples)


def end_to_end(setups, rounds, peak_rss_mb):
    """Times are medians: setup_s over set-up samples, wall_s over complete rounds,
    select_s over selections; utility comes from round 0."""
    lpea_low = rounds[0].rows["lpea-low"]
    metrics = {
        "setup_s": timing(setups),
        "wall_s": timing(r.wall_s for r in rounds if r.complete),
        "select_s": timing(r.select_s for r in rounds),
    }
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    metrics["mae_seq"] = (median([row.mae_seq for row in lpea_low]), "degree", len(lpea_low))
    metrics["edge_ratio"] = (median([row.edge_ratio for row in lpea_low]), "ratio", len(lpea_low))
    return metrics


def per_layer(setup_snaps, traced, untraced_first):
    """Times are medians over set-up samples or complete traced rounds; counts and ratios come from traced round 0.

    trace.overhead_s is the median traced wall_s minus the untraced wall_s
    of round 0: host noise of 10-20% of wall_s dominates it, and it can be
    negative.
    """
    snaps = [r.layer for r in traced if r.complete]

    def t(name, source=snaps):
        return timing(s["time"][name] for s in source)

    def self_t(name):
        return timing(s["self_time"][name] for s in snaps)

    calls = snaps[0]["calls"]

    def c(name):
        return calls[name], "count", 1

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio", 1

    metrics = {
        "synthetic.powerlaw_graph_s": t("synthetic.powerlaw_graph", setup_snaps),
        "graph.stats_s": t("graph.stats", setup_snaps),
        "graph.degree_sequence_s": t("graph.degree_sequence", setup_snaps),
        "encoding.ndoe_sample_s": t("encoding.ndoe_sample"),
        "encoding.ndoe_sample_calls": c("encoding.ndoe_sample"),
        "mechanisms.wrr_respond_calls": c("mechanisms.wrr_respond"),
        "mechanisms.wrr_yes": c("mechanisms.wrr_yes"),
        "mechanisms.laplace_sample_calls": c("mechanisms.laplace_sample"),
    }
    for strategy, rows in traced[0].rows.items():
        metrics[f"release_s.{strategy}"] = timing(x for r in traced for x in r.release_s.get(strategy, ()))
        metrics[f"projection.project_s.{strategy}"] = t(f"projection.project.{strategy}")
        metrics[f"projection.edge_ratio.{strategy}"] = (median([r.edge_ratio for r in rows]), "ratio", len(rows))
    metrics.update({
        "projection.rr_yes_ratio": ratio(calls["mechanisms.wrr_yes"], calls["mechanisms.wrr_respond"]),
        "projection.lpea_low_s": t("projection.lpea_low"),
        "projection.lpea_low_calls": c("projection.lpea_low"),
        "projection.projection_error_s": t("projection.projection_error"),
        "release.dsr_s": t("release.dsr"),
        "release.degree_distribution_s": t("release.degree_distribution"),
        "secure_agg.masked_sum_round_s": t("secure_agg.masked_sum_round"),
        "secure_agg.rounds": c("secure_agg.masked_rounds"),
        "secure_agg.ka_gen_s": t("secure_agg.ka_gen"),
        "secure_agg.ka_gen_calls": c("secure_agg.ka_gen"),
        "secure_agg.ka_agree_s": t("secure_agg.ka_agree"),
        "secure_agg.ka_agree_calls": c("secure_agg.ka_agree"),
        "secure_agg.compute_mask_s": t("secure_agg.compute_mask"),
        "secure_agg.mask_scalar_calls": c("secure_agg.mask_scalar"),
        "secure_agg.aggregate_s": t("secure_agg.aggregate"),
        "secure_agg.ka_agree_per_round": ratio(calls["secure_agg.ka_agree"], calls["secure_agg.masked_rounds"]),
        "theta.select_s": t("theta.select"),
        "theta.self_s": self_t("theta.select"),
        "harness.run_pipeline_s": t("harness.run_pipeline"),
        "harness.metrics_s": t("harness.metrics"),
        "harness.self_s": self_t("harness.run_pipeline"),
        "trace.overhead_s": (
            median([r.wall_s for r in traced if r.complete]) - untraced_first.wall_s, "s", len(snaps) + 1
        ),
    })
    return metrics


def run(args) -> int:
    if not (SRC / "degreeldp" / "__init__.py").is_file():
        print(f"error: degreeldp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import numpy as np

    import degreeldp
    import workloads as wl
    from tracing import Tracer

    if Path(degreeldp.__file__).resolve().parent != SRC / "degreeldp":
        print(f"error: imported degreeldp from {degreeldp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    token = f"{args.graph or w.graph}:{args.seed}"
    checks = wl.Checks()
    tracer = Tracer() if args.trace else None

    setups = []

    def setup_sample():
        """Time w.setup_batch set-ups; keep seconds per set-up; return the last context.

        A full collection first, so no sample pays for garbage left by the rounds.
        """
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(w.setup_batch):
            built = wl.setup(token)
        setups.append((time.perf_counter() - t0) / w.setup_batch)
        return built

    ctx = setup_sample()
    ctx.edge_codes = wl.edge_codes(ctx.g.n, ctx.g.adj)

    if tracer:
        setup_snaps = []
        for _ in range(SETUP_SAMPLES):
            with tracer:
                setup_sample()
            snap = tracer.snapshot()
            setup_snaps.append({"time": {k: v / w.setup_batch for k, v in snap["time"].items()}})
        # round 0 untraced, then traced rounds from round 0 again: same seeds, same outputs
        start = time.perf_counter()
        untraced_first = wl.run_round(w, ctx, args.seed, 0, checks, wl.Deadline(0.0))
        remaining = args.seconds - (time.perf_counter() - start)
        rounds = wl.run_rounds(w, ctx, args.seed, checks, remaining, tracer)
        checks.record(
            "traced round 0 repeats untraced round 0",
            [] if rounds[0].outputs == untraced_first.outputs else ["outputs differ"],
        )
        metrics = per_layer(setup_snaps, rounds, untraced_first)
    else:
        start = time.perf_counter()

        def before_call():
            """Take every set-up sample now due: sample i is due at i/SETUP_SAMPLES of the run."""
            due = 1 + int(SETUP_SAMPLES * (time.perf_counter() - start) / args.seconds)
            while len(setups) < min(due, SETUP_SAMPLES):
                setup_sample()

        rounds = wl.run_rounds(w, ctx, args.seed, checks, args.seconds, before_call=before_call)
        while len(setups) < SETUP_SAMPLES:
            setup_sample()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(setups, rounds, peak_rss_mb)

    record = {
        "workload": w.name,
        "graph": token,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "rounds": len(rounds),
        "error_rate": checks.failed / checks.attempted,
        "theta": rounds[0].theta,
        # digest of round 0's theta, mae_seq and edge_ratio reprs: equal across --trace 0 and 1
        "outputs_sha256": hashlib.sha256(json.dumps(rounds[0].outputs, sort_keys=True).encode()).hexdigest(),
        "samples": {name: count for name, (_, _, count) in metrics.items()},
    }
    for problem in checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if tracer:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{w.name}-seed{args.seed}.json"
        path.write_text(json.dumps({"record": record, "spans": tracer.spans}))
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
