"""In-memory spans and counters recorded around calls into degreeldp.

The package's modules bind each other's functions with ``from .x import y``,
so a call is intercepted by replacing the name in the module that makes the
call (``degreeldp.harness.ndoe_sample``, ``degreeldp.theta.lpea_low``, ...).
Nothing under ``src/`` changes. Wrappers only read the clock and bump
counters; they never touch a random generator, so a traced run computes
exactly what an untraced run computes.

Three kinds of wrapper, chosen by how often the call happens:

- span: one record per call (name, start, end, parent, operation id). Used
  for calls made a handful of times per operation.
- timed: inclusive time and a call count, no record. Used for calls made
  thousands of times per operation (one order sample per node, one key
  agreement per ordered pair of parties).
- count: a call count only. Used for the cheapest and most frequent calls
  (one randomized response per edge request), where reading the clock
  would cost more than the call.

Every timed or span call adds its duration to the enclosing span, so a
span's self time is its duration minus the time of the wrapped calls it
made.

All times are read from ``clock``, which stands still while the benchmark
checks an output in the middle of a call (``with clock.paused():``), so
neither the spans nor the benchmark's own timings include the checks.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager


class Clock:
    """time.perf_counter minus the time spent inside ``paused()`` blocks."""

    def __init__(self):
        self.excluded = 0.0

    def __call__(self) -> float:
        return time.perf_counter() - self.excluded

    @contextmanager
    def paused(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - start


# One clock for the process: every user subtracts two readings, so the
# pauses it has gathered before a measurement began cancel out.
clock = Clock()

# (module where the call is made, attribute, metric name)
SPANS = (
    ("harness", "load_dataset", "harness.load_dataset"),
    ("harness", "powerlaw_graph", "synthetic.powerlaw_graph"),
    ("graph", "stats", "graph.stats"),
    ("harness", "stats", "graph.stats"),
    ("graph", "degree_sequence", "graph.degree_sequence"),
    ("harness", "degree_sequence", "graph.degree_sequence"),
    ("theta", "degree_sequence", "graph.degree_sequence"),
    ("harness", "run_pipeline", "harness.run_pipeline"),
    ("harness", "mae", "harness.metrics"),
    ("harness", "mse", "harness.metrics"),
    ("harness", "mae_dist", "harness.metrics"),
    ("harness", "project", "projection.project"),
    ("harness", "dsr", "release.dsr"),
    ("harness", "degree_distribution", "release.degree_distribution"),
    ("release", "degree_distribution", "release.degree_distribution"),
    ("theta", "theta_by_deviation", "theta.select"),
    ("theta", "theta_by_sum", "theta.select"),
    ("theta", "lpea_low", "projection.lpea_low"),
    ("theta", "projection_error", "projection.projection_error"),
    ("theta", "masked_sum_round", "secure_agg.masked_sum_round"),
    ("secure_agg", "aggregate", "secure_agg.aggregate"),
)
TIMED = (
    ("harness", "ndoe_sample", "encoding.ndoe_sample"),
    ("secure_agg", "ka_gen", "secure_agg.ka_gen"),
    ("secure_agg", "ka_agree", "secure_agg.ka_agree"),
    ("secure_agg", "compute_mask", "secure_agg.compute_mask"),
)
COUNTED = (
    ("projection", "wrr_respond", "mechanisms.wrr_respond"),
    ("release", "laplace_sample", "mechanisms.laplace_sample"),
    ("secure_agg", "mask_scalar", "secure_agg.mask_scalar"),
)


def _span_name(name: str, args: tuple, kwargs: dict) -> str:
    """Per-strategy name for projection calls: projection.project.<strategy>."""
    if name == "projection.project":
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        return f"{name}.{cfg.strategy.value}"
    return name


class Tracer:
    """Spans and counters for one benchmark process.

    ``install`` patches the call sites listed above and ``uninstall``
    restores them; the pair can be repeated so that traced and untraced
    rounds alternate in one process. ``snapshot`` hands over the counters
    gathered since the previous snapshot and starts new ones; spans keep
    accumulating until the run writes them out.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._epoch = clock()
        self._stack: list[list] = []  # [span id, child seconds]
        self._depth: Counter = Counter()
        self._next_id = 0
        self._op = -1
        self._patched: list[tuple] = []
        self._reset()

    def _reset(self) -> None:
        self.calls: Counter = Counter()
        self.time: Counter = Counter()
        self.self_time: Counter = Counter()

    def snapshot(self) -> dict:
        snap = {"calls": self.calls, "time": self.time, "self_time": self.self_time}
        self._reset()
        return snap

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for table, make in ((SPANS, self._span), (TIMED, self._timed), (COUNTED, self._counted)):
            for mod_name, attr, name in table:
                module = importlib.import_module(f"degreeldp.{mod_name}")
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, make(name, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _span(self, base: str, fn):
        def wrapper(*args, **kwargs):
            name = _span_name(base, args, kwargs)
            if not self._stack:
                self._op += 1
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            self._depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self._depth[name] -= 1
                duration = end - start
                self.calls[name] += 1
                # nested calls of one name (mae inside mae_dist) count once
                if self._depth[name] == 0:
                    self.time[name] += duration
                self.self_time[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                if name == "secure_agg.masked_sum_round" and kwargs.get("masked", True):
                    self.calls["secure_agg.masked_rounds"] += 1
                self.spans.append({
                    "id": span_id,
                    "op": self._op,
                    "name": name,
                    "parent": parent,
                    "start": start - self._epoch,
                    "end": end - self._epoch,
                })

        return wrapper

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            duration = clock() - start
            self.calls[name] += 1
            self.time[name] += duration
            if self._stack:
                self._stack[-1][1] += duration
            return out

        return wrapper

    def _counted(self, name: str, fn):
        if name == "mechanisms.wrr_respond":
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.calls[name] += 1
                if out:
                    self.calls["mechanisms.wrr_yes"] += 1
                return out
        else:
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                return fn(*args, **kwargs)

        return wrapper
