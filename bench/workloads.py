"""The benchmark's workloads, the round each one repeats, and output checks.

Every workload is one user session on a synthetic graph: pick theta, then
release the degree sequence with each of the four projection strategies
at epsilon=3, alpha=0.1 and the selected theta. The workloads differ in
which stage dominates:

- masked-select-300: theta by masked deviation. Key generation, key
  agreement, mask derivation and aggregation take almost all the time.
  K = min(d_max, K_CAP) fixes the search at 6 rounds on every seed (d_max
  ranges over 85..118, which moves K = d_max between 6 and 7 rounds).
- sum-select-4k: theta by unmasked sum, K non-private low-first
  projections. K = min(d_max, K_CAP) so that a selection fits a run
  several times (K = d_max = 334 takes about 20 s); the selected theta,
  17..21 on the seeds tried, is the same as with K = d_max.

The calls go through module attributes (``theta.theta_by_sum``, not a
local name) so that the tracer's wrappers see them. Times are read from
tracing.clock, which stands still while an output is checked in the
middle of a call.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from degreeldp import graph, harness, theta
from degreeldp.projection import Strategy
from degreeldp.secure_agg import ka_param
from tracing import clock

EPSILON = 3.0
ALPHA = 0.1
K_CAP = 64  # K = min(d_max, K_CAP) in both selection protocols
STRATEGIES = tuple(Strategy)


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str  # synthetic:<n>:<attach>; the workload seed is appended as the graph seed
    select: str  # theta protocol: "deviation" or "sum"
    masked: bool
    trials: int  # release trials per strategy per round
    setup_batch: int  # set-ups per set-up sample, about 0.6 s in all


WORKLOADS = {
    w.name: w
    for w in (
        Workload("masked-select-300", "synthetic:300:11", "deviation", masked=True, trials=24, setup_batch=40),
        Workload("sum-select-4k", "synthetic:4000:11", "sum", masked=False, trials=1, setup_batch=4),
    )
}


@dataclass
class Context:
    g: graph.Graph
    label: str
    stats: graph.GraphStats
    degs: list[int]
    edge_codes: np.ndarray | None = None  # sorted i*n+j over both directions of every edge


def setup(token: str) -> Context:
    """The timed set-up: build the graph, then its stats and degree sequence."""
    g, label = harness.load_dataset(token)
    st = graph.stats(g)
    degs = graph.degree_sequence(g)
    return Context(g, label, st, degs)


def edge_codes(n: int, adj) -> np.ndarray:
    """Codes i*n+j of every (i, j) with j in adj[i], in adjacency order."""
    flat = np.fromiter(itertools.chain.from_iterable(adj), dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), [len(a) for a in adj])
    return rows * n + flat


class Checks:
    """Operations checked against their expected outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def projection_problems(ctx: Context, pg, theta_: int) -> list[str]:
    """The projected graph is a symmetric subset of the original edges, capped at theta."""
    n = ctx.g.n
    if pg.n != n:
        return [f"projected graph has {pg.n} nodes, expected {n}"]
    problems = []
    lens = [len(s) for s in pg.neighbors]
    if list(pg.degrees) != lens:
        problems.append("degrees disagree with neighbour sets")
    if lens and max(lens) > theta_:
        problems.append(f"degree {max(lens)} above theta={theta_}")
    codes = edge_codes(n, pg.neighbors)
    if codes.size:
        rows, cols = np.divmod(codes, n)
        pos = np.searchsorted(ctx.edge_codes, codes)
        pos[pos == ctx.edge_codes.size] = 0
        if not np.array_equal(ctx.edge_codes[pos], codes):
            problems.append("projected edge not in the original graph")
        if not np.array_equal(np.sort(codes), np.sort(cols * n + rows)):
            problems.append("projected graph is not symmetric")
    return problems


def release_problems(report, n: int, theta_: int) -> list[str]:
    noisy = np.asarray(report.noisy_degrees, dtype=float)
    problems = []
    if noisy.shape != (n,):
        problems.append(f"released vector has shape {noisy.shape}, expected ({n},)")
    if not np.all(np.isfinite(noisy)):
        problems.append("released vector has non-finite values")
    if report.theta != theta_:
        problems.append(f"report theta {report.theta} != {theta_}")
    return problems


def deviation_problems(degs, log, masked: bool, K: int, q: int, selected: int) -> list[str]:
    """Replay the binary search from the benchmark's own plaintext sums.

    Each logged round must carry one payload per party whose sum mod q is
    the count of degrees above that round's probe; masked payloads must
    not be the plaintext indicators. theta must equal the linear-scan oracle.
    """
    d = np.asarray(degs)
    n = d.size
    kind = "masked" if masked else "plain"
    problems = []
    lo, hi = 1, K
    for r, (logged_kind, payloads) in enumerate(log):
        if lo > hi:
            problems.append(f"round {r} logged after the search ended")
            break
        probe = (lo + hi) // 2
        indicators = (d > probe).astype(int)
        expected = int(indicators.sum())
        if logged_kind != kind:
            problems.append(f"round {r} is {logged_kind!r}, expected {kind!r}")
        if len(payloads) != n:
            problems.append(f"round {r} has {len(payloads)} payloads for {n} parties")
        elif sum(payloads) % q != expected:
            problems.append(f"round {r} payloads sum to {sum(payloads) % q}, plaintext sum is {expected}")
        if masked and tuple(payloads) == tuple(indicators.tolist()):
            problems.append(f"round {r} payloads are the plaintext indicators")
        if expected * EPSILON < n:
            hi = probe - 1
        else:
            lo = probe + 1
    if lo <= hi:
        problems.append(f"search stopped after {len(log)} rounds with [{lo}, {hi}] open")
    oracle = theta.quantile_oracle(degs, EPSILON, K)
    if selected != oracle:
        problems.append(f"theta {selected} != quantile_oracle {oracle}")
    return problems


def sum_problems(n: int, log, losses, K: int, q: int, selected: int) -> list[str]:
    """Check a sum selection against its trial projections.

    ``losses[k-1]`` is |degree - projected degree| of trial projection k,
    as the benchmark computed it. Round k's payloads must be that vector
    (plain rounds) or sum to its total mod q (masked rounds), and theta
    must be the first minimiser of n*k/epsilon + logged loss over k = 1..K.
    """
    if len(log) != K or len(losses) != K:
        return [f"{len(log)} rounds logged and {len(losses)} trial projections, expected K={K}"]
    if any(len(payloads) != n for _, payloads in log):
        return ["a round's payload count differs from n"]
    problems = []
    for k, ((kind, payloads), loss) in enumerate(zip(log, losses), start=1):
        if kind == "plain" and tuple(payloads) != tuple(loss.tolist()):
            problems.append(f"round {k} payloads are not |degree - projected degree|")
        if kind == "masked" and sum(payloads) % q != int(loss.sum()) % q:
            problems.append(f"round {k} payloads do not sum to the projection loss")
    scores = [n * k / EPSILON + float(sum(payloads)) for k, (_, payloads) in enumerate(log, start=1)]
    best = 1 + min(range(K), key=scores.__getitem__)
    if best != selected:
        problems.append(f"theta {selected} != score argmin {best}")
    return problems


@contextmanager
def observe(module, attr: str, inspect):
    """Hand every result of module.attr to inspect(result, cfg), with the clock paused.

    cfg is the call's third positional argument or its ``cfg`` keyword.
    """
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        with clock.paused():
            inspect(out, args[2] if len(args) > 2 else kwargs.get("cfg"))
        return out

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, original)


def trial_projection_checker(ctx: Context, checks: Checks, losses: list):
    """Check each trial projection of a sum selection as it is made.

    Trial k must be capped at k and be a symmetric subset of the original
    edges; its |degree - projected degree| goes to ``losses`` for
    sum_problems.
    """
    degs = np.asarray(ctx.degs)

    def inspect(pg, cfg):
        k = len(losses) + 1
        problems = projection_problems(ctx, pg, k)
        if cfg.theta != k:
            problems.append(f"trial projection {k} ran at theta={cfg.theta}")
        checks.record(f"trial projection {k}", problems)
        losses.append(np.abs(degs - np.asarray(pg.degrees)))

    return inspect


@dataclass
class RoundResult:
    theta: int = 0
    complete: bool = False  # False when the deadline ended the round early
    select_s: float | None = None  # seconds of the selection call; None if the deadline stopped it
    release_s: dict = field(default_factory=dict)  # strategy -> per-trial MetricsRow.runtime_ms in seconds
    wall_s: float = 0.0  # selection plus release calls; checks and set-up samples excluded
    rows: dict = field(default_factory=dict)  # strategy -> MetricsRow list
    outputs: dict = field(default_factory=dict)  # what a traced rerun must reproduce exactly
    layer: dict | None = None  # tracer counters of this round, when traced


class Deadline:
    """Allows a call only if it would end in time, judged by the last call of its kind."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds
        self.last: dict[str, float] = {}

    def allows(self, kind: str) -> bool:
        return time.perf_counter() + self.last.get(kind, 0.0) <= self.end

    def ran(self, kind: str, seconds: float) -> None:
        self.last[kind] = seconds


def round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, r]).generate_state(1, np.uint64)[0] >> 1)


def run_round(
    w: Workload, ctx: Context, seed: int, r: int, checks: Checks, deadline: Deadline, before_call=None
) -> RoundResult:
    """Select theta, then release with every strategy; check every output.

    Round 0 always completes; a later round stops before the first call
    the deadline does not allow. ``before_call()``, when given, runs before
    each call, outside its timing.
    """
    pseed = round_seed(seed, r)
    n = ctx.g.n
    K = min(ctx.stats.d_max, K_CAP)
    tcfg = theta.ThetaSearchConfig(K=K, epsilon=EPSILON, alpha=ALPHA, method=w.select)
    result = RoundResult()

    def allowed(kind):
        return r == 0 or deadline.allows(kind)

    if not allowed("select"):
        return result
    if before_call:
        before_call()
    rng = np.random.default_rng(pseed)
    log: list = []
    losses: list = []
    real0 = time.perf_counter()
    t0 = clock()
    if w.select == "deviation":
        selected = theta.theta_by_deviation(ctx.degs, tcfg, rng, masked=w.masked, round_log=log)
    else:
        with observe(theta, "lpea_low", trial_projection_checker(ctx, checks, losses)):
            selected = theta.theta_by_sum(ctx.g, ctx.degs, tcfg, rng, masked=w.masked, round_log=log)
    result.select_s = result.wall_s = clock() - t0
    checks.record("select", _select_problems(w, ctx, log, losses, K, tcfg.bits, selected))
    deadline.ran("select", time.perf_counter() - real0)
    result.theta = selected
    result.outputs["theta"] = selected

    for strategy in STRATEGIES:
        if not allowed(strategy.value):
            return result
        if before_call:
            before_call()
        cfg = harness.ExperimentConfig(
            dataset=ctx.label,
            strategy=strategy,
            epsilon=EPSILON,
            alpha=ALPHA,
            theta=selected,
            trials=w.trials,
            seed=pseed,
        )
        projected: list = []
        with observe(harness, "project", lambda pg, _cfg: projected.append(pg)):
            real0 = time.perf_counter()
            t0 = clock()
            rows, reports = harness.run_pipeline(cfg, graph=ctx.g)
            result.wall_s += clock() - t0
        result.rows[strategy.value] = rows
        result.release_s[strategy.value] = [row.runtime_ms / 1000.0 for row in rows]
        result.outputs[strategy.value] = [(repr(row.mae_seq), repr(row.edge_ratio)) for row in rows]
        for row, pg, report in itertools.zip_longest(rows, projected, reports):
            problems = []
            if pg is None or report is None or row is None:
                problems.append("trial is missing its projection or release")
            else:
                if row.theta != selected:
                    problems.append(f"released at theta {row.theta}, selected {selected}")
                problems += projection_problems(ctx, pg, row.theta)
                problems += release_problems(report, n, row.theta)
            checks.record(f"release {strategy.value}", problems)
        deadline.ran(strategy.value, time.perf_counter() - real0)
    result.complete = True
    return result


def run_rounds(
    w: Workload, ctx: Context, seed: int, checks: Checks, seconds: float, tracer=None, before_call=None
) -> list:
    """Rounds 0, 1, ... until the deadline stops one; round 0 always completes.

    With a tracer each round runs traced and keeps its counters in `layer`.
    A round stopped before its first selection is dropped.
    """
    deadline = Deadline(seconds)
    results = []
    for r in itertools.count():
        with tracer or nullcontext():
            result = run_round(w, ctx, seed, r, checks, deadline, before_call)
        if tracer:
            result.layer = tracer.snapshot()
        if result.select_s is not None:
            results.append(result)
        if not result.complete:
            return results


def _select_problems(w: Workload, ctx: Context, log, losses, K: int, bits: int, selected: int) -> list[str]:
    if not 1 <= selected <= K:
        return [f"theta {selected} outside [1, {K}]"]
    q = ka_param(bits).q
    if w.select == "sum":
        return sum_problems(ctx.g.n, log, losses, K, q, selected)
    return deviation_problems(ctx.degs, log, w.masked, K, q, selected)
