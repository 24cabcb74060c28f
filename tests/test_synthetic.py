import numpy as np
import pytest

from degreeldp.graph import degree_sequence
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
