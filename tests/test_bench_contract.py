"""The call sites that bench/tracing.py patches exist, and calls keep the layout it reads.

The benchmark's tracer replaces degreeldp.<module>.<attr> for every entry
of its SPANS, TIMED and COUNTED tables and counts masked rounds from the
``masked`` keyword of theta.masked_sum_round.  A refactor that renames or
moves one of these names, or passes ``masked`` positionally, breaks
``bench/run.py --trace 1`` without failing any other test.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from degreeldp import Graph, ThetaSearchConfig, degree_sequence, theta

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH_DIR))


def test_every_traced_call_site_exists(tracing):
    sites = tracing.SPANS + tracing.TIMED + tracing.COUNTED
    assert sites
    for mod_name, attr, _ in sites:
        module = importlib.import_module(f"degreeldp.{mod_name}")
        assert callable(getattr(module, attr, None)), f"degreeldp.{mod_name}.{attr}"


@pytest.fixture
def round_calls(monkeypatch):
    calls = []
    original = theta.masked_sum_round

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(theta, "masked_sum_round", spy)
    return calls


@pytest.mark.parametrize("masked", [True, False])
def test_theta_protocols_pass_masked_by_keyword(round_calls, masked):
    g = Graph.from_edges(6, [(0, i) for i in range(1, 6)] + [(1, 2)])
    degs = degree_sequence(g)
    theta.theta_by_deviation(degs, ThetaSearchConfig(K=5, epsilon=1.0), np.random.default_rng(0), masked=masked)
    theta.theta_by_sum(g, degs, ThetaSearchConfig(K=5, epsilon=1.0, method="sum"), np.random.default_rng(0),
                       masked=masked)
    assert len(round_calls) > 5
    for _, kwargs in round_calls:
        assert kwargs["masked"] is masked
