import numpy as np
import pytest

import critflow as cf
from conftest import ABILENE, tm_with
from oracles import top_k_critical_walk


def test_top_k_picks_largest():
    tm = tm_with(3, {(0, 1): 5.0, (0, 2): 3.0, (1, 2): 1.0})
    sel = cf.top_k(tm, 2)
    assert set(sel.flows) == {(0, 1), (0, 2)}
    assert sel.method == "top_k"


def test_top_k_tie_break_by_flow_id():
    d = np.ones((3, 3))
    np.fill_diagonal(d, 0)
    sel = cf.top_k(cf.TrafficMatrix(3, d), 2)
    # flow ids 0 and 1 are (0,1), (0,2)
    assert sel.flows == ((0, 1), (0, 2))


def test_top_k_matches_a_sort_by_demand_then_flow_id_on_ties():
    """top_k's one lexsort against a Python sort by (-demand, flow id),
    on matrices of small integer demands, full of ties."""
    rng = np.random.default_rng(31)
    for n in (3, 5, 8, 12):
        flows = [(s, d) for s in range(n) for d in range(n) if s != d]
        for _ in range(10):
            demand = rng.integers(0, 3, (n, n)).astype(float)
            np.fill_diagonal(demand, 0.0)
            ranked = sorted(flows, key=lambda f: (-demand[f], cf.flow_index(*f, n)))
            for k in (0, 1, n, len(flows)):
                assert cf.top_k(cf.TrafficMatrix(n, demand), k).flows == tuple(ranked[:k])


def test_top_k_all_flows():
    tm = tm_with(3, {(0, 1): 1.0})
    sel = cf.top_k(tm, 6)
    assert len(sel.flows) == 6


def test_top_k_critical_single_flow(triangle):
    tm = tm_with(3, {(0, 2): 0.9})
    sel = cf.top_k_critical(triangle, tm, 1)
    assert sel.flows == ((0, 2),)


def test_top_k_critical_prefers_larger_on_hot_link():
    # line 0-1-2: flows (0,2) and (1,2) share the hottest link 1->2
    line = cf.from_undirected_edges(3, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0)])
    tm = tm_with(3, {(0, 2): 2.0, (1, 2): 1.0})
    sel = cf.top_k_critical(line, tm, 1)
    assert sel.flows == ((0, 2),)  # demand 2 beats demand 1 on link 1->2


def test_top_k_critical_spills_to_next_link(diamond):
    # flow (0,3) splits over both routes; (0,1) pushes link 0->1 hottest.
    tm = tm_with(4, {(0, 3): 1.0, (0, 1): 0.6, (2, 3): 0.1})
    fr = cf.compute_ecmp_fractions(diamond)
    util = cf.ecmp_link_loads(diamond, tm, fr).load / diamond.capacity
    hottest = int(np.argmax(util))
    assert diamond.links[hottest].src == 0 and diamond.links[hottest].dst == 1
    sel = cf.top_k_critical(diamond, tm, 3)
    # hottest link 0->1 carries (0,3) [0.5] and (0,1) [0.6] plus zero-demand
    # passengers; demand order puts (0,3) then (0,1) first, and the walk
    # then continues to further links for the third slot
    assert sel.flows[0] == (0, 3)
    assert sel.flows[1] == (0, 1)
    assert len(sel.flows) == 3


def _walk_cases():
    """(topology, matrices) pairs: random 4-8 node nets, Abilene and an
    EBone-sized stand-in (23 nodes, 74 links); three exponential matrices,
    one with every demand equal and one with a single nonzero demand."""
    topos = [cf.random_topology(n, n - 2, seed=s) for n in range(4, 9) for s in (0, 1)]
    topos += [cf.load_topology(ABILENE),
              cf.infer_capacities_from_costs(cf.random_topology(23, 14, seed=3), 1000.0)]
    for topo in topos:
        n = topo.node_count
        mats = cf.generate_tms(topo, "exponential", 3, 0.9, seed=3)
        equal = np.ones((n, n))
        np.fill_diagonal(equal, 0.0)
        mats += [cf.TrafficMatrix(n, equal), tm_with(n, {(n - 1, 1): 2.0})]
        yield topo, mats


def test_top_k_critical_matches_link_walk():
    for topo, mats in _walk_cases():
        fr = cf.compute_ecmp_fractions(topo)
        n_flows = topo.flow_count
        for tm in mats:
            for k in sorted({1, 2, max(1, n_flows // 10), n_flows}):
                sel = cf.top_k_critical(topo, tm, k, fractions=fr)
                assert list(sel.flows) == top_k_critical_walk(topo, tm, k, fr.frac), \
                    (topo.name, tm.id, k)


def test_every_flow_crosses_a_link():
    # the link walk never runs out of flows: each flow's fractions on its
    # source's out-links sum to 1, so one of them is >= 1 / out-degree
    for topo, _ in _walk_cases():
        frac = cf.compute_ecmp_fractions(topo).frac
        crosses = (frac > cf.selectors.TRAVERSAL_EPS).any(axis=2)
        np.fill_diagonal(crosses, True)
        assert crosses.all(), topo.name


def test_random_k_properties():
    sel = cf.random_k(4, 12, seed=0)
    assert len(sel.flows) == 12
    a = cf.random_k(4, 3, seed=5)
    b = cf.random_k(4, 3, seed=5)
    assert a.flows == b.flows


def test_random_k_inclusion_frequency():
    counts = np.zeros(12)
    k, draws = 3, 10_000
    for seed in range(draws):
        for s, d in cf.random_k(4, k, seed=seed).flows:
            counts[cf.flow_index(s, d, 4)] += 1
    freqs = counts / draws
    expected = k / 12
    sigma = np.sqrt(expected * (1 - expected) / draws)
    assert np.all(np.abs(freqs - expected) <= 4 * sigma)


def test_brute_force_k0_is_ecmp(diamond):
    tm = tm_with(4, {(0, 3): 0.8})
    sel, u = cf.brute_force_best(diamond, tm, 0)
    assert sel.flows == ()
    assert u == pytest.approx(cf.ecmp_max_utilization(diamond, tm), abs=1e-12)


def test_brute_force_full_freedom_is_optimal(triangle):
    tm = tm_with(3, {(0, 2): 0.9, (1, 0): 0.3})
    sel, u = cf.brute_force_best(triangle, tm, 6)
    u_opt, _ = cf.solve_optimal_all_flows(triangle, tm)
    assert u == pytest.approx(u_opt, abs=1e-9)


def test_brute_force_k1_dominates_all_singles(diamond):
    tm = cf.generate_tms(diamond, "exponential", 1, 0.9, seed=5)[0]
    fr = cf.compute_ecmp_fractions(diamond)
    sel, u_best = cf.brute_force_best(diamond, tm, 1, fractions=fr)
    for a in range(12):
        flow = cf.flow_of_index(a, 4)
        bg = cf.ecmp_link_loads(diamond, tm, fr, exclude=[flow])
        u = cf.solve_rerouting(diamond, tm, [flow], bg).u
        assert u_best <= u + 1e-9


def test_brute_force_non_increasing_in_k(diamond):
    tm = cf.generate_tms(diamond, "uniform", 1, 0.9, seed=6)[0]
    fr = cf.compute_ecmp_fractions(diamond)
    prev = np.inf
    for k in range(4):
        _, u = cf.brute_force_best(diamond, tm, k, fractions=fr)
        assert u <= prev + 1e-9
        prev = u


def test_brute_force_cap(ring5):
    tm = cf.generate_tms(ring5, "uniform", 1, 0.9, seed=1)[0]
    with pytest.raises(cf.SelectionError, match="C\\(20,5\\) = 15504 exceeds cap 10000"):
        cf.brute_force_best(ring5, tm, 5)


def test_selectors_dominance(ring5):
    fr = cf.compute_ecmp_fractions(ring5)
    for seed in range(3):
        tm = cf.generate_tms(ring5, "exponential", 1, 0.9, seed=30 + seed)[0]
        _, u_bf = cf.brute_force_best(ring5, tm, 2, fractions=fr)
        for sel in (cf.top_k(tm, 2),
                    cf.top_k_critical(ring5, tm, 2, fractions=fr),
                    cf.random_k(5, 2, seed=seed)):
            bg = cf.ecmp_link_loads(ring5, tm, fr, exclude=sel.flows)
            u = cf.solve_rerouting(ring5, tm, sel.flows, bg).u
            assert u_bf <= u + 1e-9


def test_all_selectors_return_k_distinct_flows(ring5):
    tm = cf.generate_tms(ring5, "uniform", 1, 0.9, seed=0)[0]
    for k in (1, 3, 5):
        for sel in (cf.top_k(tm, k), cf.top_k_critical(ring5, tm, k),
                    cf.random_k(5, k, seed=1)):
            assert len(sel.flows) == k
            assert len(set(sel.flows)) == k
            assert all(s != d for s, d in sel.flows)


def test_invalid_k_rejected(ring5):
    tm = cf.generate_tms(ring5, "uniform", 1, 0.9, seed=0)[0]
    with pytest.raises(cf.SelectionError):
        cf.top_k(tm, 21)
    with pytest.raises(cf.SelectionError):
        cf.random_k(5, 21, seed=0)


def test_negative_k_rejected(ring5):
    tm = cf.generate_tms(ring5, "uniform", 1, 0.9, seed=0)[0]
    params = cf.zero_params(5, width=8)
    for select in (lambda: cf.top_k(tm, -1),
                   lambda: cf.top_k_critical(ring5, tm, -1),
                   lambda: cf.random_k(5, -1, seed=0),
                   lambda: cf.policy_selection(params, tm, -1),
                   lambda: cf.brute_force_best(ring5, tm, -1)):
        with pytest.raises(cf.SelectionError, match="k=-1 is negative"):
            select()
    with pytest.raises(cf.SelectionError, match="k=21 exceeds flow count 20"):
        cf.policy_selection(params, tm, 21)
