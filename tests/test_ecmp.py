import numpy as np
import pytest

import critflow as cf
from conftest import ABILENE, tm_with
from oracles import ecmp_fractions_oracle


def link(topo, s, d):
    return topo.link_index[(s, d)]


def test_diamond_symmetric_split(diamond):
    fr = cf.compute_ecmp_fractions(diamond)
    f = fr.for_flow(0, 3)
    for pair in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        assert f[link(diamond, *pair)] == 0.5
    for pair in [(1, 0), (2, 0), (3, 1), (3, 2)]:
        assert f[link(diamond, *pair)] == 0.0


def test_triangle_unique_path(triangle):
    fr = cf.compute_ecmp_fractions(triangle)
    f = fr.for_flow(0, 2)
    assert f[link(triangle, 0, 2)] == 1.0
    assert np.count_nonzero(f) == 1


def test_diamond_asymmetric_cost_uses_single_path():
    links = []
    for u, v in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        cost = 2.0 if (u, v) == (0, 1) else 1.0
        links.append(cf.Link(u, v, 1.0, cost))
        links.append(cf.Link(v, u, 1.0, cost))
    topo = cf.Topology(4, tuple(links))
    fr = cf.compute_ecmp_fractions(topo)
    f = fr.for_flow(0, 3)
    # 0->1->3 costs 3 > 0->2->3 costs 2: all traffic on the cheap route
    assert f[link(topo, 0, 2)] == 1.0
    assert f[link(topo, 2, 3)] == 1.0
    assert f[link(topo, 0, 1)] == 0.0


def test_diamond_loads(diamond):
    fr = cf.compute_ecmp_fractions(diamond)
    tm = tm_with(4, {(0, 3): 0.8})
    loads = cf.ecmp_link_loads(diamond, tm, fr)
    used = [link(diamond, *p) for p in [(0, 1), (0, 2), (1, 3), (2, 3)]]
    assert np.allclose(loads.load[used], 0.4)
    assert loads.max_utilization == pytest.approx(0.4, abs=1e-12)

    excluded = cf.ecmp_link_loads(diamond, tm, fr, exclude={(0, 3)})
    assert np.all(excluded.load == 0)
    assert excluded.max_utilization == 0.0


def test_triangle_load(triangle):
    fr = cf.compute_ecmp_fractions(triangle)
    tm = tm_with(3, {(0, 2): 0.9})
    loads = cf.ecmp_link_loads(triangle, tm, fr)
    assert loads.load[link(triangle, 0, 2)] == pytest.approx(0.9)
    assert loads.max_utilization == pytest.approx(0.9)


def test_load_linearity_exact(ring5):
    fr = cf.compute_ecmp_fractions(ring5)
    tm = cf.generate_tms(ring5, "uniform", 1, 0.9, seed=1)[0]
    a = cf.ecmp_link_loads(ring5, tm, fr).load
    b = cf.ecmp_link_loads(ring5, tm.scaled(2.0), fr).load
    assert np.array_equal(b, 2.0 * a)


def test_load_additivity(ring5):
    fr = cf.compute_ecmp_fractions(ring5)
    tm = cf.generate_tms(ring5, "exponential", 1, 0.9, seed=2)[0]
    subset = {(0, 3), (2, 4), (1, 0)}
    rest = cf.ecmp_link_loads(ring5, tm, fr, exclude=subset).load
    flows = [(s, d) for s in range(5) for d in range(5) if s != d]
    only = cf.ecmp_link_loads(ring5, tm, fr,
                              exclude=[f for f in flows if f not in subset]).load
    full = cf.ecmp_link_loads(ring5, tm, fr).load
    assert np.max(np.abs(rest + only - full)) <= 1e-9


def test_fraction_conservation_sums(ring5):
    fr = cf.compute_ecmp_fractions(ring5)
    for s in range(5):
        for d in range(5):
            if s == d:
                continue
            f = fr.for_flow(s, d)
            out_s = sum(f[e] for e in ring5.out_links[s])
            in_d = sum(f[e] for e in ring5.in_links[d])
            assert out_s == pytest.approx(1.0, abs=1e-9)
            assert in_d == pytest.approx(1.0, abs=1e-9)


def test_flow_conservation_at_transit_nodes(ring5):
    fr = cf.compute_ecmp_fractions(ring5)
    for s in range(5):
        for d in range(5):
            if s == d:
                continue
            f = fr.for_flow(s, d)
            for i in range(5):
                net = (sum(f[e] for e in ring5.out_links[i])
                       - sum(f[e] for e in ring5.in_links[i]))
                want = 1.0 if i == s else (-1.0 if i == d else 0.0)
                assert net == pytest.approx(want, abs=1e-9)


def test_fractions_match_recursive_oracle_random_graphs():
    topos = [cf.random_topology(4 + seed % 3, 2 + seed % 3, seed=seed)  # 4..6 nodes
             for seed in range(10)]
    topos += [cf.load_topology(ABILENE),
              cf.random_topology(8, 6, seed=3),
              cf.random_topology(23, 14, seed=3),  # EBone-sized: 74 links
              # all costs equal: ties come from the structure alone
              cf.random_topology(23, 14, seed=4, cost_range=(1.0, 1.0))]
    for topo in topos:
        fr = cf.compute_ecmp_fractions(topo)
        oracle = ecmp_fractions_oracle(topo)
        assert np.max(np.abs(fr.frac - oracle)) <= 1e-9, topo.name

