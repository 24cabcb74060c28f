import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from degreeldp.graph import Graph, degree_sequence
from degreeldp.harness import load_dataset
from degreeldp.synthetic import powerlaw_graph
from conftest import edge_set


def test_seed_pins_graph():
    a = powerlaw_graph(200, 3, seed=4)
    b = powerlaw_graph(200, 3, seed=4)
    assert edge_set(a) == edge_set(b)
    assert edge_set(a) != edge_set(powerlaw_graph(200, 3, seed=5))


def test_attachment_degree_floor():
    g = powerlaw_graph(300, 4, seed=1)
    assert g.n == 300
    assert min(degree_sequence(g)) >= 4


def test_heavy_tail():
    g = powerlaw_graph(1000, 3, seed=2)
    degs = np.asarray(degree_sequence(g))
    ## hubs well above the median are the point of preferential attachment
    assert degs.max() > 5 * np.median(degs)


def test_edge_count():
    ## clique core plus `attach` edges per later node
    g = powerlaw_graph(100, 3, seed=0)
    assert g.m == 6 + 96 * 3


def test_validation():
    with pytest.raises(ValueError):
        powerlaw_graph(3, 3)
    with pytest.raises(ValueError):
        powerlaw_graph(10, 0)
    with pytest.raises(ValueError, match=r"^seed must be at least 0 and an integer, got -1 \(int\)$"):
        powerlaw_graph(10, 3, seed=-1)
    with pytest.raises(ValueError, match="seed must be at least 0"):
        powerlaw_graph(10, 3, seed=1.5)


## sha256 of Graph.pairs.tobytes() (int32, lower id first, in order of first
## appearance).  The benchmark's inputs are synthetic:300:11:1 and
## synthetic:4000:11:1; a change to the urn or to NumPy's Generator stream shows here.
PAIRS_SHA256 = {
    "synthetic:300:11:1": "d3e85017105266a76dfd163658165eeb8c4fbff82c338c20edb584852e0b584a",
    "synthetic:4000:11:1": "7c0807c8df3ddfe3f260fd4be9d3372cc4b25bd6b4a004a103672327889ab5b9",
    "synthetic:200:4:1": "a7d6a6cb153e01014ea4a1872128fdfa605c612edf65eced6ab40d9fbdd55342",
}


@pytest.mark.parametrize("token", sorted(PAIRS_SHA256))
def test_pairs_golden(token):
    g, _ = load_dataset(token)
    assert g.pairs.dtype == np.int32
    assert hashlib.sha256(g.pairs.tobytes()).hexdigest() == PAIRS_SHA256[token]


def one_pick_per_call(n: int, attach: int, seed: int) -> Graph:
    """The urn as first written: one rng.integers call per pick."""
    rng = np.random.default_rng(seed)
    edges, urn = [], []
    core = attach + 1
    for i in range(core):
        for j in range(i + 1, core):
            edges.append((i, j))
            urn += [i, j]
    for v in range(core, n):
        targets: set[int] = set()
        while len(targets) < attach:
            targets.add(urn[int(rng.integers(len(urn)))])
        for t in sorted(targets):
            edges.append((t, v))
            urn += [t, v]
    return Graph(n, edges)


@settings(max_examples=60, deadline=None)
@given(attach=st.integers(1, 12), extra=st.integers(0, 120), seed=st.integers(0, 2**32))
@example(attach=1, extra=0, seed=0)
@example(attach=11, extra=300, seed=1)
def test_batched_urn_equals_one_pick_per_call(attach, extra, seed):
    n = attach + 1 + extra
    g, ref = powerlaw_graph(n, attach, seed), one_pick_per_call(n, attach, seed)
    assert np.array_equal(g.pairs, ref.pairs)
    assert g.adj == ref.adj


@settings(max_examples=200, deadline=None)
@given(bound=st.integers(1, 2**31), k=st.integers(1, 16), seed=st.integers(0, 2**64 - 1), before=st.integers(0, 3))
@example(bound=1, k=16, seed=0, before=1)  # a bound of 1 draws nothing
@example(bound=2**31, k=16, seed=0, before=0)
@example(bound=3, k=1, seed=0, before=1)
def test_sized_draw_equals_scalar_draws(bound, k, seed, before):
    ## the batched urn rests on this: for a fixed bound, one sized call is
    ## the same bounded fill over the same 32-bit draws as k scalar calls.
    ## An odd number of earlier draws leaves half a 64-bit output buffered.
    batch, single = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (batch, single):
        rng.integers(7, size=before)
    drawn = batch.integers(bound, size=k).tolist()
    assert drawn == [int(single.integers(bound)) for _ in range(k)]
    assert batch.bit_generator.state == single.bit_generator.state
