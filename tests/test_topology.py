import numpy as np
import pytest

import critflow as cf
from conftest import ABILENE
from oracles import floyd_warshall_dist

DIAMOND_TEXT = """\
nodes 4
# two equal-cost routes 0->3
link 0 1 1 1
link 1 0 1 1
link 0 2 1 1
link 2 0 1 1
link 1 3 1 1
link 3 1 1 1
link 2 3 1 1
link 3 2 1 1
"""


def test_parse_diamond_counts():
    topo = cf.parse_topology(DIAMOND_TEXT)
    assert topo.node_count == 4
    assert topo.link_count == 8


def test_abilene_counts():
    topo = cf.load_topology(ABILENE)
    assert topo.node_count == 12
    assert topo.link_count == 30
    assert topo.flow_count == 132


def test_zero_capacity_rejected():
    bad = DIAMOND_TEXT.replace("link 0 1 1 1", "link 0 1 0 1")
    with pytest.raises(cf.TopologyValidationError, match="capacity"):
        cf.parse_topology(bad)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(cf.TopologyParseError, match="line 2"):
        cf.parse_topology("nodes 4\nlink 0 1 1\n")
    with pytest.raises(cf.TopologyParseError, match="line 1"):
        cf.parse_topology("link 0 1 1 1\n")
    with pytest.raises(cf.TopologyParseError, match="line 3"):
        cf.parse_topology("nodes 2\nlink 0 1 1 1\nfrobnicate\n")


def test_not_strongly_connected_named():
    texts = [
        # node 2 has no out-links
        "nodes 3\nlink 0 1 1 1\nlink 1 0 1 1\nlink 0 2 1 1\n",
        # node 2 has no in-links
        "nodes 3\nlink 0 1 1 1\nlink 1 0 1 1\nlink 2 0 1 1\n",
        # two strongly connected parts joined one way, 1 -> 2
        "nodes 4\nlink 0 1 1 1\nlink 1 0 1 1\nlink 2 3 1 1\nlink 3 2 1 1\n"
        "link 1 2 1 1\n",
    ]
    for text in texts:
        with pytest.raises(cf.TopologyValidationError, match="not strongly connected"):
            cf.parse_topology(text)


def test_self_loop_and_duplicate_rejected():
    with pytest.raises(cf.TopologyValidationError, match="self-loop"):
        cf.parse_topology("nodes 2\nlink 0 0 1 1\nlink 0 1 1 1\nlink 1 0 1 1\n")
    with pytest.raises(cf.TopologyValidationError, match="duplicate"):
        cf.parse_topology("nodes 2\nlink 0 1 1 1\nlink 0 1 2 1\nlink 1 0 1 1\n")


def test_capacity_inference_values():
    topo = cf.parse_topology(
        "nodes 3\nlink 0 1 5 1\nlink 1 0 5 2\nlink 1 2 5 4\n"
        "link 2 1 5 1\nlink 0 2 5 1\nlink 2 0 5 1\n")
    inferred = cf.infer_capacities_from_costs(topo, 1000.0)
    assert inferred.links[0].capacity == 1000.0
    assert inferred.links[1].capacity == 500.0
    assert inferred.links[2].capacity == 250.0
    # costs untouched
    assert [lk.cost for lk in inferred.links] == [lk.cost for lk in topo.links]


def test_capacity_inference_reverses_cost_order():
    topo = cf.parse_topology(
        "nodes 3\nlink 0 1 9 1\nlink 1 0 9 2\nlink 1 2 9 4\n"
        "link 2 1 9 4\nlink 0 2 9 2\nlink 2 0 9 1\n")
    inferred = cf.infer_capacities_from_costs(topo, 4.0)
    caps = inferred.capacity
    costs = inferred.cost
    order_by_cost = np.argsort(costs, kind="stable")
    assert np.all(np.diff(caps[order_by_cost]) <= 1e-12)


def test_capacity_inference_scale_property():
    topo = cf.random_topology(6, 3, seed=0)
    a = cf.infer_capacities_from_costs(topo, 1000.0)
    # rescaling all costs by constant rescales capacities by its inverse
    scaled_links = [cf.Link(lk.src, lk.dst, lk.capacity, lk.cost * 5.0)
                    for lk in topo.links]
    b = cf.infer_capacities_from_costs(
        cf.Topology(topo.node_count, tuple(scaled_links)), 1000.0)
    assert np.allclose(b.capacity * 5.0, a.capacity, rtol=1e-15, atol=0)


def test_inference_rejects_bad_scale():
    topo = cf.triangle3()
    with pytest.raises(ValueError):
        cf.infer_capacities_from_costs(topo, 0.0)


def test_dash_capacity_in_file_infers():
    topo = cf.parse_topology("nodes 2\nlink 0 1 - 2\nlink 1 0 - 4\n")
    assert topo.links[0].capacity == 500.0
    assert topo.links[1].capacity == 250.0


def test_flow_index_examples():
    assert cf.flow_index(0, 1, 4) == 0
    assert cf.flow_index(0, 3, 4) == 2
    assert cf.flow_index(1, 0, 4) == 3
    assert cf.flow_of_index(11, 4) == (3, 2)


def test_flow_index_bijection_exhaustive():
    for n in range(2, 65):
        seen = set()
        for s in range(n):
            for d in range(n):
                if s == d:
                    continue
                a = cf.flow_index(s, d, n)
                assert 0 <= a < n * (n - 1)
                assert a not in seen
                seen.add(a)
                assert cf.flow_of_index(a, n) == (s, d)
        assert len(seen) == n * (n - 1)


def test_flow_index_domain_errors():
    with pytest.raises(ValueError):
        cf.flow_index(1, 1, 4)
    with pytest.raises(ValueError):
        cf.flow_index(0, 4, 4)
    with pytest.raises(ValueError):
        cf.flow_of_index(12, 4)
    with pytest.raises(ValueError):
        cf.flow_of_index(-1, 4)


def test_serialize_round_trip(tmp_path):
    topo = cf.random_topology(7, 4, seed=2)
    path = tmp_path / "t.topo"
    cf.save_topology(topo, path)
    back = cf.load_topology(path)
    assert back.node_count == topo.node_count
    assert back.links == topo.links


def test_undirected_expansion():
    topo = cf.from_undirected_edges(3, [(0, 1, 2.0, 3.0), (1, 2, 1.0, 1.0),
                                        (0, 2, 1.0, 1.0)])
    assert topo.link_count == 6
    assert topo.link_index[(0, 1)] is not None
    assert topo.links[topo.link_index[(1, 0)]].cost == 3.0


def test_derived_link_arrays():
    topo = cf.load_topology(ABILENE)
    assert topo.link_src.tolist() == [lk.src for lk in topo.links]
    assert topo.link_dst.tolist() == [lk.dst for lk in topo.links]
    table = topo.in_link_table
    assert table.shape == (topo.node_count, max(map(len, topo.in_links)))
    for i, links in enumerate(topo.in_links):
        # in link order, padded by repeating the first link
        pad = [links[0]] * (table.shape[1] - len(links))
        assert table[i].tolist() == list(links) + pad


def test_min_cost_trees_kept_read_only():
    topo = cf.load_topology(ABILENE)
    n = topo.node_count
    assert topo.cost_dist.shape == topo.cost_pred.shape == (n, n)
    assert not topo.cost_dist.flags.writeable and not topo.cost_pred.flags.writeable
    assert np.allclose(topo.cost_dist, floyd_warshall_dist(topo), rtol=1e-15, atol=0.0)
