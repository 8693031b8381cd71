import numpy as np
import pytest

import critflow as cf
from conftest import tm_with
from oracles import simple_paths


def background_for(topo, tm, critical):
    fr = cf.compute_ecmp_fractions(topo)
    return cf.ecmp_link_loads(topo, tm, fr, exclude=critical)


def test_empty_critical_set_is_background_max(ring5):
    tm = cf.generate_tms(ring5, "uniform", 1, 0.9, seed=0)[0]
    bg = background_for(ring5, tm, [])
    sol = cf.solve_rerouting(ring5, tm, [], bg)
    assert sol.sigma == {}
    assert sol.u == pytest.approx(bg.max_utilization, abs=1e-12)


def test_triangle_single_flow_split(triangle):
    tm = tm_with(3, {(0, 2): 0.9})
    sol = cf.solve_rerouting(triangle, tm, [(0, 2)], np.zeros(6))
    assert sol.u == pytest.approx(0.45, abs=1e-9)
    cf.check_rerouting_feasibility(triangle, tm, sol, np.zeros(6))
    # exactly two simple paths exist; optimum loads both links on each at 0.45
    assert len(simple_paths(triangle, 0, 2)) == 2


def test_diamond_single_flow_matches_ecmp(diamond):
    tm = tm_with(4, {(0, 3): 0.8})
    bg = background_for(diamond, tm, [(0, 3)])
    sol = cf.solve_rerouting(diamond, tm, [(0, 3)], bg)
    assert sol.u == pytest.approx(0.4, abs=1e-9)


def test_all_flows_equals_optimal(ring5):
    tm = cf.generate_tms(ring5, "exponential", 1, 0.9, seed=3)[0]
    u_opt, _ = cf.solve_optimal_all_flows(ring5, tm)
    direct = cf.solve_rerouting(ring5, tm, ring5.flows(),
                                np.zeros(ring5.link_count))
    assert abs(direct.u - u_opt) <= 1e-7


def test_optimal_bounded_by_ecmp(ring5):
    for seed in range(5):
        tm = cf.generate_tms(ring5, "uniform", 1, 0.9, seed=seed)[0]
        u_opt, _ = cf.solve_optimal_all_flows(ring5, tm)
        u_ecmp = cf.ecmp_max_utilization(ring5, tm)
        assert u_opt <= u_ecmp + 1e-7


def test_zero_tm_optimal_zero(ring5):
    tm = cf.TrafficMatrix(5, np.zeros((5, 5)))
    u_opt, loads = cf.solve_optimal_all_flows(ring5, tm)
    assert u_opt == 0.0
    assert loads.max_utilization == 0.0
    assert np.all(loads.load == 0)


def assert_optimum_matches_per_flow_lp(topo, tm):
    """The per-destination optimum against the per-flow LP it replaced
    (every flow rerouted over zero background), and its loads against U."""
    u, loads = cf.solve_optimal_all_flows(topo, tm)
    per_flow = cf.solve_rerouting(topo, tm, topo.flows(), np.zeros(topo.link_count))
    assert u == pytest.approx(per_flow.u, rel=1e-9, abs=0.0)
    assert loads.max_utilization == u
    assert np.all(loads.load >= -1e-9)
    assert np.all(loads.load <= topo.capacity * u + 1e-9)


@pytest.mark.parametrize("model", ["uniform", "exponential"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_destination_form_matches_per_flow_lp(n, model):
    for seed in range(3):
        topo = cf.random_topology(n, 2, seed=seed)
        tm = cf.generate_tms(topo, model, 1, 0.9, seed=seed)[0]
        assert_optimum_matches_per_flow_lp(topo, tm)


def test_destination_form_with_zero_demand_destination():
    topo = cf.random_topology(5, 2, seed=4)
    demand = cf.generate_tms(topo, "exponential", 1, 0.9, seed=4)[0].demand.copy()
    demand[:, 2] = 0.0
    demand[3, 1] = 0.0  # a zero entry in a destination that keeps demand
    assert_optimum_matches_per_flow_lp(topo, cf.TrafficMatrix(5, demand))


def test_optimum_lp_shapes():
    from critflow.rerouting import build_optimum_lp
    topo = cf.random_topology(8, 6, seed=3)  # 8 nodes, 28 links
    tm = cf.generate_tms(topo, "exponential", 1, 0.9, seed=0)[0]
    problem = build_optimum_lp(topo, tm)
    # 1 U + 8 destinations x 28 links; 28 capacity rows + 8 x 7 conservation
    assert (problem.n_rows, problem.n_vars) == (84, 225)
    demand = tm.demand.copy()
    demand[:, 5] = 0.0
    problem = build_optimum_lp(topo, cf.TrafficMatrix(8, demand))
    assert (problem.n_rows, problem.n_vars) == (84 - 7, 225 - 28)
    zero = build_optimum_lp(topo, cf.TrafficMatrix(8, np.zeros((8, 8))))
    assert (zero.n_rows, zero.n_vars) == (28, 1)


def test_selection_monotonicity(ring5):
    # growing the critical set can only help: u(B) <= u(A) + tol for A within B
    tm = cf.generate_tms(ring5, "exponential", 1, 0.9, seed=9)[0]
    flows = ring5.flows()
    chain = [flows[:i] for i in (0, 1, 3, 6, 12, 20)]
    prev = np.inf
    for critical in chain:
        bg = background_for(ring5, tm, critical)
        u = cf.solve_rerouting(ring5, tm, critical, bg).u
        assert u <= prev + 1e-7
        prev = u


def test_epsilon_does_not_move_u(ring5):
    tm = cf.generate_tms(ring5, "uniform", 1, 0.9, seed=13)[0]
    critical = [(0, 3), (2, 1), (4, 0)]
    bg = background_for(ring5, tm, critical)
    with_eps = cf.solve_rerouting(ring5, tm, critical, bg)
    no_eps = cf.solve_rerouting(ring5, tm, critical, bg, epsilon=0.0)
    assert abs(with_eps.u - no_eps.u) < 1e-7


def test_epsilon_discourages_long_paths(triangle):
    # U is pinned by an unrelated bottleneck, so any route is U-optimal;
    # the tie-break term must then pick the direct link, not a detour
    tm = tm_with(3, {(0, 1): 0.01})
    bg = np.zeros(6)
    bg[triangle.link_index[(1, 2)]] = 0.9
    sol = cf.solve_rerouting(triangle, tm, [(0, 1)], bg)
    ratios = sol.sigma[(0, 1)]
    assert sol.u == pytest.approx(0.9, abs=1e-9)
    assert ratios.sum() == pytest.approx(1.0, abs=1e-9)
    assert ratios[triangle.link_index[(0, 1)]] == pytest.approx(1.0, abs=1e-9)


def test_every_solution_passes_independent_checker(ring5):
    rng = np.random.default_rng(17)
    flows = ring5.flows()
    for trial in range(8):
        tm = cf.generate_tms(ring5, "exponential", 1, 0.9, seed=50 + trial)[0]
        k = int(rng.integers(1, 5))
        picks = [flows[i] for i in rng.choice(len(flows), size=k, replace=False)]
        bg = background_for(ring5, tm, picks)
        sol = cf.solve_rerouting(ring5, tm, picks, bg)
        cf.check_rerouting_feasibility(ring5, tm, sol, bg)
        assert sol.u <= cf.ecmp_max_utilization(ring5, tm) + 1e-7


def test_rerouting_deterministic(ring5):
    tm = cf.generate_tms(ring5, "uniform", 1, 0.9, seed=2)[0]
    critical = [(0, 2), (3, 1)]
    bg = background_for(ring5, tm, critical)
    a = cf.solve_rerouting(ring5, tm, critical, bg)
    b = cf.solve_rerouting(ring5, tm, critical, bg)
    assert a.u == b.u
    for key in a.sigma:
        assert np.array_equal(a.sigma[key], b.sigma[key])


def test_build_lp_shapes(triangle):
    from critflow.rerouting import build_rerouting_lp
    tm = tm_with(3, {(0, 2): 0.9})
    problem = build_rerouting_lp(triangle, tm, [(0, 2)], np.zeros(6), 1e-5)
    # 1 U + 6 ratios; 6 capacity rows + 3 conservation rows
    assert problem.n_vars == 7
    assert problem.n_rows == 9
    assert problem.var_names[0] == "U"
