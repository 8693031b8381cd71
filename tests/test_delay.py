import numpy as np
import pytest

import critflow as cf
import critflow.rerouting
from conftest import ABILENE, tm_with
from oracles import (all_or_nothing_oracle, bisection_line_search, delay_slope,
                     floyd_warshall_dist, frank_wolfe_oracle, next_links_oracle)


def test_evaluate_delay_half_loaded_link(triangle):
    loads = np.zeros(6)
    loads[triangle.link_index[(0, 1)]] = 0.5
    assert cf.evaluate_delay(triangle, loads) == 1.0


def test_evaluate_delay_zero_loads(triangle):
    assert cf.evaluate_delay(triangle, np.zeros(6)) == 0.0


def test_evaluate_delay_saturated_is_inf(triangle):
    loads = np.zeros(6)
    loads[0] = 1.0  # equals capacity
    assert cf.evaluate_delay(triangle, loads) == float("inf")


def test_frank_wolfe_matches_grid_search(triangle):
    tm = tm_with(3, {(0, 2): 0.9})
    omega, loads = cf.solve_delay_optimal(triangle, tm)
    # split x on the direct link, 0.9-x on the 2-hop detour
    xs = np.linspace(0.0, 0.9, 900001)[:-1]
    grid = xs / (1 - xs) + 2 * (0.9 - xs) / (1 - (0.9 - xs))
    assert omega == pytest.approx(grid.min(), abs=1e-4)


def test_zero_tm_zero_delay(triangle):
    omega, loads = cf.solve_delay_optimal(triangle, cf.TrafficMatrix(3, np.zeros((3, 3))))
    assert omega == 0.0
    assert np.all(loads.load == 0)


def test_delay_optimum_no_worse_than_ecmp(ring5):
    fr = cf.compute_ecmp_fractions(ring5)
    for seed in range(4):
        tm = cf.generate_tms(ring5, "exponential", 1, 0.9, seed=seed)[0]
        omega, _ = cf.solve_delay_optimal(ring5, tm)
        ecmp_omega = cf.evaluate_delay(ring5, cf.ecmp_link_loads(ring5, tm, fr))
        assert omega <= ecmp_omega + 1e-9


def test_overloaded_instance_rejected(triangle):
    tm = tm_with(3, {(0, 2): 3.0})  # best possible max utilization 1.5
    with pytest.raises(cf.OverloadedInstanceError, match="overloaded"):
        cf.solve_delay_optimal(triangle, tm)


def test_delay_loads_stay_strictly_interior(ring5):
    tm = cf.generate_tms(ring5, "uniform", 1, 0.9, seed=6)[0]
    omega, loads = cf.solve_delay_optimal(ring5, tm)
    assert np.all(loads.load < ring5.capacity)
    assert omega == pytest.approx(cf.evaluate_delay(ring5, loads), rel=1e-12)


def test_given_start_skips_the_optimum(ring5, monkeypatch):
    tm = cf.generate_tms(ring5, "exponential", 1, 0.9, seed=7)[0]
    _, start = cf.solve_optimal_all_flows(ring5, tm)
    own = cf.solve_delay_optimal(ring5, tm)

    def unexpected(*args, **kwargs):
        raise AssertionError("optimum solved again")

    monkeypatch.setattr(critflow.rerouting, "solve_optimal_all_flows", unexpected)
    given = cf.solve_delay_optimal(ring5, tm, start=start)
    assert given[0] == own[0]
    assert np.array_equal(given[1].load, own[1].load)


def test_overloaded_start_rejected(triangle):
    tm = tm_with(3, {(0, 2): 3.0})
    _, start = cf.solve_optimal_all_flows(triangle, tm)
    assert start.max_utilization == pytest.approx(1.5)
    with pytest.raises(cf.OverloadedInstanceError, match="overloaded"):
        cf.solve_delay_optimal(triangle, tm, start=start)


# The vectorized all-or-nothing step and Newton line search against the
# loop and bisection oracles in tests/oracles.py.

def _interior_cases():
    """(topology, link weights, demand): random 4-8 node nets and Abilene,
    with marginal-delay weights c/(c-l)^2 under random interior loads."""
    rng = np.random.default_rng(9)
    topos = [cf.random_topology(int(rng.integers(4, 9)), int(rng.integers(0, 7)),
                                seed=int(rng.integers(1000))) for _ in range(12)]
    topos.append(cf.load_topology(ABILENE))
    for topo in topos:
        n, cap = topo.node_count, topo.capacity
        load = rng.uniform(0.0, 0.95, topo.link_count) * cap
        demand = rng.exponential(1.0, (n, n)) * (rng.random((n, n)) < 0.7)
        np.fill_diagonal(demand, 0.0)
        yield topo, cap / (cap - load) ** 2, demand


def _assert_step_matches_oracle(topo, weights, demand):
    next_link = critflow.rerouting._next_links(topo, weights)
    for d in range(topo.node_count):
        want, _ = next_links_oracle(topo, weights, d)
        assert np.array_equal(next_link[:, d], want), f"next links toward {d}"
    np.testing.assert_allclose(critflow.rerouting._all_or_nothing(topo, demand, weights),
                               all_or_nothing_oracle(topo, demand, weights),
                               rtol=1e-12, atol=0)


def test_all_or_nothing_matches_loop_oracle_under_interior_loads():
    for topo, weights, demand in _interior_cases():
        _assert_step_matches_oracle(topo, weights, demand)


def test_all_or_nothing_structural_ties_go_to_the_first_out_link(ring5):
    # every capacity and cost is 1: ties everywhere, and exact sums
    demand = np.ones((5, 5)) - np.eye(5)
    dist = floyd_warshall_dist(ring5)
    zero_load = ring5.capacity / ring5.capacity ** 2
    for weights in (zero_load, ring5.cost):
        assert np.all(weights == 1.0)
        _assert_step_matches_oracle(ring5, weights, demand)
        next_link = critflow.rerouting._next_links(ring5, weights)
        for i in range(5):
            for d in range(5):
                if i != d:
                    first = next(e for e in ring5.out_links[i]
                                 if 1.0 + dist[ring5.links[e].dst, d] == dist[i, d])
                    assert next_link[i, d] == first


def test_all_or_nothing_routes_an_n_minus_1_hop_path():
    # the direct 1 -> 0 link costs 100; the way round the ring is 5 hops
    n = 6
    edges = [(u, (u + 1) % n, 1.0, 100.0 if u == 0 else 1.0) for u in range(n)]
    topo = cf.from_undirected_edges(n, edges)
    demand = np.zeros((n, n))
    demand[1, 0] = 0.5
    loads = critflow.rerouting._all_or_nothing(topo, demand, topo.cost)
    ring = [topo.link_index[(u, u + 1)] for u in range(1, n - 1)] + [topo.link_index[(n - 1, 0)]]
    assert np.flatnonzero(loads).tolist() == sorted(ring)
    assert np.all(loads[ring] == 0.5)
    _assert_step_matches_oracle(topo, topo.cost, demand)


def _recorded_line_searches(monkeypatch, topo, matrices):
    """Every (load, step_dir, cap, t_ub) that solve_delay_optimal
    line-searches on the given matrices."""
    seen = []
    search = critflow.rerouting._line_search

    def recording(load, step_dir, cap, t_ub):
        seen.append((load.copy(), step_dir.copy(), cap, t_ub))
        return search(load, step_dir, cap, t_ub)

    monkeypatch.setattr(critflow.rerouting, "_line_search", recording)
    for tm in matrices:
        cf.solve_delay_optimal(topo, tm)
    monkeypatch.undo()
    return seen


def test_line_search_brackets_the_slope_root_to_adjacent_floats(monkeypatch, ring5):
    topo = cf.random_topology(8, 6, seed=3)
    cases = _recorded_line_searches(
        monkeypatch, topo, cf.generate_tms(topo, "exponential", 2, 0.9, seed=4))
    cases += _recorded_line_searches(
        monkeypatch, ring5, cf.generate_tms(ring5, "uniform", 2, 0.9, seed=4))
    assert len(cases) > 50
    # a step whose slope stays negative up to t_ub: a loaded link unloads
    # onto a wide one
    cases.append((np.array([0.9, 0.1, 0.0]), np.array([-0.5, 0.0, 0.5]),
                  np.array([1.0, 1.0, 10.0]), 1.0))
    at_ub = 0
    for load, step_dir, cap, t_ub in cases:
        t = critflow.rerouting._line_search(load, step_dir, cap, t_ub)
        assert 0.0 <= t <= t_ub
        if t == t_ub:
            at_ub += 1
            assert delay_slope(load, step_dir, cap, t_ub) <= 0
        else:
            assert delay_slope(load, step_dir, cap, t) <= 0
            assert delay_slope(load, step_dir, cap, np.nextafter(t, np.inf)) > 0
        want = bisection_line_search(load, step_dir, cap, t_ub)
        assert abs(t - want) <= 1e-12 * want
    assert at_ub >= 1


def test_frank_wolfe_takes_the_oracle_steps(monkeypatch):
    topo = cf.random_topology(8, 6, seed=3)
    steps = [0]
    step = critflow.rerouting._all_or_nothing

    def counting(*args):
        steps[0] += 1
        return step(*args)

    monkeypatch.setattr(critflow.rerouting, "_all_or_nothing", counting)
    for tm in cf.generate_tms(topo, "exponential", 6, 0.9, seed=3):
        _, start = cf.solve_optimal_all_flows(topo, tm)
        steps[0] = 0
        omega, loads = cf.solve_delay_optimal(topo, tm, start=start)
        want_omega, want_load, want_steps = frank_wolfe_oracle(topo, tm, start)
        assert steps[0] == want_steps, tm.id
        assert omega == pytest.approx(want_omega, rel=1e-12, abs=0)
        np.testing.assert_allclose(loads.load, want_load, rtol=1e-9, atol=1e-12)
