import gzip
import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from degreeldp.graph import (
    EdgeListParseError,
    Graph,
    degree_sequence,
    load_edge_list,
    load_graph,
    stats,
    write_edge_list,
)


def test_load_basic_dedupe_and_comments():
    g = load_edge_list(io.StringIO("1 2\n2 1\n2 3\n# comment\n"))
    assert g.n == 3
    assert g.edge_set() == {(0, 1), (1, 2)}
    assert degree_sequence(g) == [1, 2, 1]


def test_load_first_appearance_ids():
    g = load_edge_list(io.StringIO("7 3\n3 9\n"))
    assert g.labels == ["7", "3", "9"]
    assert g.edge_set() == {(0, 1), (1, 2)}


def test_self_loop_registers_node_but_drops_edge():
    g = load_edge_list(io.StringIO("5 5\n"))
    assert g.n == 1
    assert g.m == 0
    assert degree_sequence(g) == [0]


def test_malformed_line_reports_line_number():
    with pytest.raises(EdgeListParseError, match="line 3"):
        load_edge_list(io.StringIO("1 2\n2 3\n4 5 6\n"))


def test_blank_lines_ignored():
    g = load_edge_list(io.StringIO("\n1 2\n\n"))
    assert g.m == 1


def test_empty_stream_gives_empty_graph_and_stats_errors():
    g = load_edge_list(io.StringIO(""))
    assert g.n == 0
    with pytest.raises(ValueError):
        stats(g)


def test_stats_fig(fig_graph):
    s = stats(fig_graph)
    assert (fig_graph.n, fig_graph.m, s.d_min, s.d_max) == (4, 4, 1, 3)
    assert s.d_avg == pytest.approx(2.0)


def test_adjacency_sorted(fig_graph):
    for i in range(fig_graph.n):
        nbrs = fig_graph.adj[i]
        assert nbrs == sorted(nbrs)


def test_constructor_drops_self_loops_and_duplicates():
    g = Graph(4, [(0, 1), (1, 0), (2, 2), (1, 3), (3, 1)])
    assert g.edge_set() == {(0, 1), (1, 3)}
    assert degree_sequence(g) == [1, 2, 0, 1]


def test_constructor_rejects_out_of_range_pairs():
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 1), (3, 3)])
    with pytest.raises(ValueError, match="labels"):
        Graph(2, [(0, 1)], labels=["a"])


def test_edges_by_higher_endpoint_then_lower_descending():
    g = Graph(4, [(1, 3), (0, 1), (3, 2), (0, 3)])
    assert list(g.edges()) == [(0, 1), (2, 3), (1, 3), (0, 3)]
    assert g.edge_set() == set(g.edges())


def test_gz_loading(tmp_path):
    path = tmp_path / "g.txt.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("a b\nb c\n")
    g = load_graph(str(path))
    assert g.n == 3 and g.m == 2


def test_roundtrip_preserves_structure_adversarial_order():
    ## first-appearance ids here are A=0, C=1(!), E=2, B=3 if dumped naively
    g = load_edge_list(io.StringIO("A B\nC E\nB E\n"))
    buf = io.StringIO()
    write_edge_list(g, buf)
    g2 = load_edge_list(io.StringIO(buf.getvalue()))
    assert g2.labels == g.labels
    assert g2.adj == g.adj


edge_lines = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=60,
)


@given(edge_lines)
def test_degree_sum_is_twice_edge_count(pairs):
    text = "".join(f"{a} {b}\n" for a, b in pairs)
    g = load_edge_list(io.StringIO(text))
    assert sum(degree_sequence(g)) == 2 * g.m


@given(edge_lines)
def test_roundtrip_identical_internal_structure(pairs):
    text = "".join(f"{a} {b}\n" for a, b in pairs)
    g = load_edge_list(io.StringIO(text))
    buf = io.StringIO()
    write_edge_list(g, buf)
    g2 = load_edge_list(io.StringIO(buf.getvalue()))
    assert g2.n == g.n
    assert g2.labels == g.labels
    assert g2.adj == g.adj
    assert list(g2.edges()) == list(g.edges())


@given(edge_lines)
def test_reload_is_idempotent(pairs):
    text = "".join(f"{a} {b}\n" for a, b in pairs)
    g = load_edge_list(io.StringIO(text))
    g2 = load_edge_list(io.StringIO(text))
    assert g.adj == g2.adj and g.labels == g2.labels


@given(
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=80),
    st.randoms(use_true_random=False),
)
def test_constructor_matches_set_reference(pairs, shuffler):
    ## append every pair reversed and a few self-loops, so that every case
    ## has duplicates, reversed pairs and self-loops
    pairs = pairs + [(j, i) for i, j in pairs] + [(i, i) for i, _ in pairs[:3]]
    g = Graph(12, pairs)
    nbrs = [set() for _ in range(12)]
    for i, j in pairs:
        if i != j:
            nbrs[i].add(j)
            nbrs[j].add(i)
    assert g.adj == [sorted(s) for s in nbrs]
    assert g.m == len({frozenset(p) for p in pairs if p[0] != p[1]})
    shuffled = list(pairs)
    shuffler.shuffle(shuffled)
    h = Graph(12, shuffled)
    assert (h.adj, h.m, list(h.edges())) == (g.adj, g.m, list(g.edges()))


@given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=80))
def test_pairs_and_degrees_arrays(pairs):
    ## duplicates, reversed pairs and self-loops, as in the reference test above
    pairs = pairs + [(j, i) for i, j in pairs] + [(i, i) for i, _ in pairs[:3]]
    g = Graph(12, pairs)
    rows = [tuple(r) for r in g.pairs.tolist()]
    assert len(rows) == len(set(rows)) == g.m
    assert set(rows) == g.edge_set()
    assert all(i < j for i, j in rows)
    assert g.degrees.tolist() == [len(a) for a in g.adj]
    assert g.pairs.dtype == g.degrees.dtype == np.int32
    with pytest.raises(ValueError):
        g.pairs[...] = 0
    with pytest.raises(ValueError):
        g.degrees[...] = 0


def test_empty_graph_arrays():
    g = Graph(0, [])
    assert g.pairs.shape == (0, 2)
    assert g.degrees.shape == (0,)
