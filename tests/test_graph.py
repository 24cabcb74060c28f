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
)
from conftest import edge_set


def test_load_basic_dedupe_and_comments():
    g = load_edge_list(io.StringIO("1 2\n2 1\n2 3\n# comment\n"))
    assert g.n == 3
    assert edge_set(g) == {(0, 1), (1, 2)}
    assert degree_sequence(g) == [1, 2, 1]


def test_load_first_appearance_ids():
    g = load_edge_list(io.StringIO("7 3\n3 9\n"))
    assert g.labels == ["7", "3", "9"]
    assert edge_set(g) == {(0, 1), (1, 2)}


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
    assert edge_set(g) == {(0, 1), (1, 3)}
    assert degree_sequence(g) == [1, 2, 0, 1]


def test_constructor_rejects_out_of_range_pairs():
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 1), (3, 3)])
    with pytest.raises(ValueError, match="labels"):
        Graph(2, [(0, 1)], labels=["a"])


@pytest.mark.parametrize("n", [-1, 2.5, True])
def test_constructor_checks_the_node_count(n):
    ## n is checked first, so a bad count is named as such and not as a labels or range() error
    with pytest.raises(ValueError, match="n must be"):
        Graph(n, [])


def test_gz_loading(tmp_path):
    path = tmp_path / "g.txt.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("a b\nb c\n")
    g = load_graph(str(path))
    assert g.n == 3 and g.m == 2


def test_ids_out_of_first_appearance_order_reload_relabelled():
    ## a label takes its id on its first line, whatever ids the file's labels spell
    g = load_edge_list(io.StringIO("0 2\n1 2\n"))
    assert g.labels == ["0", "2", "1"]
    assert edge_set(g) == {(0, 1), (1, 2)}
    ## a node whose first line is a self-loop takes its id on its first edge
    g = load_edge_list(io.StringIO("7 7\n8 4\n4 7\n"))
    assert g.labels == ["8", "4", "7"]
    assert edge_set(g) == {(0, 1), (1, 2)}


def test_labels_only_on_self_loops_take_the_last_ids():
    g = load_edge_list(io.StringIO("5 5\n1 2\n9 9\n2 5\n5 5\n"))
    assert g.labels == ["1", "2", "5", "9"]
    assert degree_sequence(g) == [1, 2, 1, 0]


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


@st.composite
def edge_lines_with_loops(draw):
    """1-12 lines over labels 0-8, self-loops anywhere, each on a label that also has an edge."""
    edges = draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda e: e[0] != e[1]),
                          min_size=1, max_size=8))
    loops = draw(st.lists(st.sampled_from(sorted({a for e in edges for a in e})), max_size=12 - len(edges)))
    return draw(st.permutations(edges + [(a, a) for a in loops]))


@given(edge_lines_with_loops())
def test_self_loops_do_not_move_ids(pairs):
    ## every label also has an edge, so its id is its rank among the labels of the non-self-loop lines
    g = load_edge_list(io.StringIO("".join(f"{a} {b}\n" for a, b in pairs)))
    edges = [(str(a), str(b)) for a, b in pairs if a != b]
    assert g.labels == list(dict.fromkeys(label for edge in edges for label in edge))
    ids = {label: i for i, label in enumerate(g.labels)}
    assert edge_set(g) == {tuple(sorted((ids[a], ids[b]))) for a, b in edges}


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
    ## pairs keep first-appearance order, so the shuffled input lists the same rows in another order
    assert (h.adj, h.m, sorted(h.pairs.tolist())) == (g.adj, g.m, sorted(g.pairs.tolist()))


@given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=80))
def test_pairs_and_degrees_arrays(pairs):
    ## duplicates, reversed pairs and self-loops, as in the reference test above
    pairs = pairs + [(j, i) for i, j in pairs] + [(i, i) for i, _ in pairs[:3]]
    g = Graph(12, pairs)
    rows = [tuple(r) for r in g.pairs.tolist()]
    assert len(rows) == len(set(rows)) == g.m
    assert set(rows) == edge_set(g)
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
