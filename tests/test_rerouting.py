from dataclasses import replace

import numpy as np
import pytest

import critflow as cf
from critflow import rerouting, simplex
from critflow.rerouting import build_path_lp
from critflow.simplex import solve_lp
from critflow.topology import shortest_path_trees, tree_path
from conftest import ABILENE, tm_with
from oracles import (build_optimum_lp, build_rerouting_lp, check_dual_certificate,
                     destination_form_u, dijkstra_path, edge_form_u, highs_min,
                     positive_cycle, simple_paths)


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
    assert u_opt == pytest.approx(destination_form_u(ring5, tm), rel=1e-9, abs=0.0)


def test_optimal_bounded_by_ecmp(ring5):
    for seed in range(5):
        tm = cf.generate_tms(ring5, "uniform", 1, 0.9, seed=seed)[0]
        u_opt, _ = cf.solve_optimal_all_flows(ring5, tm)
        u_ecmp = cf.ecmp_max_utilization(ring5, tm)
        assert u_opt <= u_ecmp + 1e-7


def test_zero_tm_optimal_zero(ring5):
    tm = cf.TrafficMatrix(5, np.zeros((5, 5)))
    u_opt, optimum = cf.solve_optimal_all_flows(ring5, tm)
    assert u_opt == 0.0
    assert optimum.link_loads.max_utilization == 0.0
    assert np.all(optimum.link_loads.load == 0)


def assert_optimum_matches_destination_form(topo, tm):
    """The optimum (the path LP over every flow with zero background)
    against the destination-form oracle, and its loads against U."""
    u, optimum = cf.solve_optimal_all_flows(topo, tm)
    loads = optimum.link_loads
    assert u == pytest.approx(destination_form_u(topo, tm), rel=1e-9, abs=0.0)
    assert loads.max_utilization == u
    assert np.all(loads.load >= -1e-9)
    assert np.all(loads.load <= topo.capacity * u + 1e-9)


@pytest.mark.parametrize("model", ["uniform", "exponential"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_destination_form_matches_per_flow_lp(n, model):
    for seed in range(3):
        topo = cf.random_topology(n, 2, seed=seed)
        tm = cf.generate_tms(topo, model, 1, 0.9, seed=seed)[0]
        assert_optimum_matches_destination_form(topo, tm)


def test_destination_form_with_zero_demand_destination():
    topo = cf.random_topology(5, 2, seed=4)
    demand = cf.generate_tms(topo, "exponential", 1, 0.9, seed=4)[0].demand.copy()
    demand[:, 2] = 0.0
    demand[3, 1] = 0.0  # a zero entry in a destination that keeps demand
    assert_optimum_matches_destination_form(topo, cf.TrafficMatrix(5, demand))


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


def test_independent_checker_rejects_a_broken_flow(ring5):
    tm = cf.generate_tms(ring5, "exponential", 1, 0.9, seed=50)[0]
    flow = (0, 3)
    bg = background_for(ring5, tm, [flow])
    sol = cf.solve_rerouting(ring5, tm, [flow], bg)
    broken = sol.sigma[flow].copy()
    broken[int(np.argmax(broken))] = 0.0   # the flow vanishes inside the net
    with pytest.raises(AssertionError, match="conservation"):
        cf.check_rerouting_feasibility(ring5, tm, replace(sol, sigma={flow: broken}), bg)


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
    tm = tm_with(3, {(0, 2): 0.9})
    problem = build_rerouting_lp(triangle, tm, [(0, 2)], np.zeros(6), 1e-5)
    # 1 U + 6 ratios; 6 capacity rows + 3 conservation rows
    assert problem.n_vars == 7
    assert problem.n_rows == 9
    assert problem.var_names[0] == "U"


def test_path_lp_shapes(triangle):
    tm = tm_with(3, {(0, 2): 0.9, (1, 0): 0.2})
    flows = [(0, 2), (1, 0)]
    link = triangle.link_index
    columns = [(flows[0], (link[(0, 2)],)), (flows[1], (link[(1, 0)],)),
               (flows[0], (link[(0, 1)], link[(1, 2)]))]
    problem = build_path_lp(triangle, tm, np.zeros(6), columns, 1e-5)
    # 1 U + 3 paths, in the given order; 6 capacity rows + 2 convexity
    # rows, flows in order of first appearance
    assert (problem.n_rows, problem.n_vars) == (8, 4)
    assert problem.var_names == ["U", "x0_2__0_2", "x1_0__1_0", "x0_2__0_1_2"]
    assert problem.c == pytest.approx([1.0, 1e-5, 1e-5, 2e-5])
    assert problem.a[link[(0, 1)], 3] == 0.9 and problem.a[link[(0, 1)], 1] == 0.0
    assert problem.a[6:, 1:].tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    assert problem.rel == ["<="] * 6 + ["="] * 2


def test_solution_pools_rebuild_the_last_lp(ring5, monkeypatch):
    solved = _record_solves(monkeypatch)
    tm = cf.generate_tms(ring5, "exponential", 1, 0.9, seed=4)[0]
    flows = cf.top_k_critical(ring5, tm, 4).flows
    sol = _solve_batch(ring5, [(tm, flows)])[0]
    (_, _, problem, final), = _final_rounds(solved, ring5, [(tm, flows)], [sol])
    assert sorted(sol.paths) == sorted(flows)
    assert problem.n_rows == ring5.link_count + len(flows)
    # each flow's columns, in order, are its pool
    assert {f: [p for g, p in sol.columns if g == f] for f in flows} == sol.paths
    # the LP built from the columns is optimal at the last round's basis
    again = cf.solve_lp(problem, basis=final.basis, binv=final.binv)
    assert again.iterations == 0 and not again.inverted
    assert again.objective == pytest.approx(sol.objective, rel=1e-12)
    for f, pool in sol.paths.items():
        assert len(set(pool)) == len(pool)
        assert all(p in simple_paths(ring5, *f) for p in pool)
        # the shares sum the flow's ratios on every link
        assert len(sol.shares[f]) == len(pool)
        assert sum(sol.shares[f]) == pytest.approx(1.0, abs=1e-9)
        ratios = np.zeros(ring5.link_count)
        for p, share in zip(pool, sol.shares[f]):
            ratios[list(p)] += share
        np.testing.assert_allclose(ratios, sol.sigma[f], rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 3, "all"])
@pytest.mark.parametrize("model", ["uniform", "exponential"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_path_form_matches_edge_form(n, model, k):
    for seed in range(3):
        topo = cf.random_topology(n, 2, seed=seed)
        tm = cf.generate_tms(topo, model, 1, 0.9, seed=seed)[0]
        flows = topo.flows() if k == "all" else cf.top_k_critical(topo, tm, k).flows
        bg = background_for(topo, tm, flows)
        sol = cf.solve_rerouting(topo, tm, flows, bg)
        eps = cf.default_epsilon(topo, len(flows))
        assert sol.u == pytest.approx(edge_form_u(topo, tm, flows, bg.load, eps),
                                      rel=1e-9, abs=0.0)
        cf.check_rerouting_feasibility(topo, tm, sol, bg)
        for f, ratios in sol.sigma.items():
            assert positive_cycle(topo, ratios) is None, f"flow {f} circulates"


def test_positive_cycle_found(ring5):
    ratios = np.zeros(ring5.link_count)
    for pair in [(0, 1), (1, 2), (2, 0), (3, 4)]:
        ratios[ring5.link_index[pair]] = 0.5
    cycle = positive_cycle(ring5, ratios)
    assert sorted(ring5.links[e].src for e in cycle) == [0, 1, 2]
    ratios[ring5.link_index[(2, 0)]] = 1e-12
    assert positive_cycle(ring5, ratios) is None


def _abilene_case(k, seed=0):
    topo = cf.load_topology(ABILENE)
    tm = cf.generate_tms(topo, "exponential", 1, 0.9, seed=seed)[0]
    flows = cf.top_k_critical(topo, tm, k).flows
    return topo, tm, flows, background_for(topo, tm, flows)


def test_zero_epsilon_terminates():
    # with eps = 0 every link with a slack capacity row weighs 0 in pricing
    topo, tm, flows, bg = _abilene_case(13)
    no_eps = cf.solve_rerouting(topo, tm, flows, bg, epsilon=0.0)
    with_eps = cf.solve_rerouting(topo, tm, flows, bg)
    assert no_eps.u == pytest.approx(with_eps.u, rel=1e-9, abs=0.0)
    assert no_eps.objective == pytest.approx(no_eps.u, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("epsilon", [None, 0.0])
def test_zero_demand_flow_terminates(ring5, epsilon):
    tm = cf.generate_tms(ring5, "uniform", 1, 0.9, seed=6)[0]
    tm.demand[0, 3] = 0.0
    flows = [(0, 3), (2, 4), (1, 0)]
    bg = background_for(ring5, tm, flows)
    sol = cf.solve_rerouting(ring5, tm, flows, bg, epsilon=epsilon)
    cf.check_rerouting_feasibility(ring5, tm, sol, bg)
    if epsilon is None:  # the tie-break alone routes it, on a fewest-hop path
        fewest_hops = min(len(p) for p in simple_paths(ring5, 0, 3))
        assert sol.sigma[(0, 3)].sum() == pytest.approx(fewest_hops, abs=1e-9)
    want = edge_form_u(ring5, tm, flows, bg.load, 0.0)
    assert sol.u == pytest.approx(want, rel=1e-9, abs=0.0)


def test_every_flow_over_zero_background_equals_optimum():
    topo = cf.load_topology(ABILENE)
    tm = cf.generate_tms(topo, "uniform", 1, 0.9, seed=1)[0]
    assert_optimum_matches_destination_form(topo, tm)


def _ebone_sized():
    return cf.infer_capacities_from_costs(cf.random_topology(23, 14, seed=3), 1000.0)


def test_ebone_sized_reward_matches_highs():
    pytest.importorskip("scipy")
    topo = _ebone_sized()
    fractions = cf.compute_ecmp_fractions(topo)
    cases = []
    tm = cf.generate_tms(topo, "exponential", 1, 0.9, seed=0)[0]
    cases.append((tm, cf.top_k_critical(topo, tm, 51, fractions=fractions).flows))
    for seed, tm in enumerate(cf.generate_tms(topo, "exponential", 3, 0.9, seed=1)):
        cases.append((tm, cf.random_k(len(topo.flows()), 51, seed, n=topo.node_count).flows))
    rewards = cf.compute_reward(topo, [tm for tm, _ in cases],
                                [[cf.flow_index(s, d, topo.node_count) for s, d in flows]
                                 for _, flows in cases], fractions=fractions)
    for (tm, flows), reward in zip(cases, rewards):
        bg = cf.ecmp_link_loads(topo, tm, fractions, exclude=flows)
        u_highs, _ = highs_min(build_rerouting_lp(topo, tm, flows, bg.load, 0.0))
        assert reward == pytest.approx(1.0 / u_highs, rel=1e-7, abs=0.0)


def test_ebone_sized_optimum_matches_highs():
    pytest.importorskip("scipy")
    topo = _ebone_sized()
    for tm in cf.generate_tms(topo, "exponential", 2, 0.9, seed=3):
        u_opt, _ = cf.solve_optimal_all_flows(topo, tm)
        u_highs, _ = highs_min(build_optimum_lp(topo, tm))
        assert u_opt == pytest.approx(u_highs, rel=1e-7, abs=0.0)


def test_tie_break_honoured_at_abilene_scale():
    # Abilene's capacities are 9920: with capacity rows in demand units, a
    # reduced cost within the solver's 1e-9 tolerance times a slack near
    # 1e4 outweighed the eps term: the routes took up to 4.9 extra hops
    pytest.importorskip("scipy")
    for seed in range(3):
        topo, tm, flows, bg = _abilene_case(13, seed)
        sol = cf.solve_rerouting(topo, tm, flows, bg)
        eps = cf.default_epsilon(topo, len(flows))
        objective, x = highs_min(build_rerouting_lp(topo, tm, flows, bg.load, eps))
        assert sol.objective == pytest.approx(objective, rel=1e-9, abs=0.0)
        hops = sum(ratios.sum() for ratios in sol.sigma.values())
        assert hops == pytest.approx(x[1:].sum(), abs=1e-3)


def _optimum_instances():
    for n in (4, 5, 6, 8):
        topo = cf.random_topology(n, n - 2, seed=n)
        for model in ("uniform", "exponential"):
            yield topo, cf.generate_tms(topo, model, 1, 0.9, seed=n)[0]
    abilene = cf.load_topology(ABILENE)  # capacities of 9920
    yield abilene, cf.generate_tms(abilene, "exponential", 1, 0.9, seed=0)[0]


def _optimum_final_round(solved, topo, tm):
    """(the optimum's path LP over its final columns, the LpSolution of its
    last round): every flow with demand over zero background."""
    solved.clear()
    case = (tm, [f for f in topo.flows() if tm.demand[f] > 0])
    sol = _solve_batch(topo, [case])[0]
    (_, _, problem, final), = _final_rounds(solved, topo, [case], [sol])
    return problem, final


def test_optimum_lp_duals_certify_optimality(monkeypatch):
    solved = _record_solves(monkeypatch)
    for topo, tm in _optimum_instances():
        check_dual_certificate(*_optimum_final_round(solved, topo, tm))


def test_path_lp_duals_certify_optimality(ring5, monkeypatch):
    solved = _record_solves(monkeypatch)
    topo, tm, flows, _ = _abilene_case(13)
    groups = [(topo, [(tm, flows)])]
    for topo in (cf.load_topology(ABILENE), cf.random_topology(8, 6, seed=3)):
        tm = cf.generate_tms(topo, "exponential", 1, 0.9, seed=1)[0]
        groups.append((topo, [(tm, topo.flows())]))  # the optimum's LP: every flow
    for seed in range(4):
        tm = cf.generate_tms(ring5, "exponential", 1, 0.9, seed=seed)[0]
        groups.append((ring5, [(tm, cf.top_k_critical(ring5, tm, 2 + seed).flows)]))
    for topo, cases in groups:
        solved.clear()
        for _, _, problem, final in _final_rounds(solved, topo, cases,
                                                  _solve_batch(topo, cases)):
            check_dual_certificate(problem, final)


def test_dual_certificate_rejects_wrong_duals(monkeypatch):
    problem, good = _optimum_final_round(_record_solves(monkeypatch),
                                         *next(_optimum_instances()))
    wrong = [good.duals * 0.5, -good.duals, np.zeros_like(good.duals)]
    for duals in wrong:
        with pytest.raises(AssertionError):
            check_dual_certificate(problem, cf.LpSolution(x=good.x, objective=good.objective,
                                                          duals=duals))


def _reward_cases():
    topo = cf.load_topology(ABILENE)
    fractions = cf.compute_ecmp_fractions(topo)
    n_flows = len(topo.flows())
    for i, tm in enumerate(cf.generate_tms(topo, "exponential", 20, 0.9, seed=3)):
        yield topo, tm, cf.top_k_critical(topo, tm, 13, fractions=fractions).flows
        yield topo, tm, cf.random_k(n_flows, 13, i, n=topo.node_count).flows
    yield topo, tm, topo.flows()  # the optimum's LP: no flow is left for the background
    topo = _ebone_sized()
    fractions = cf.compute_ecmp_fractions(topo)
    for tm in cf.generate_tms(topo, "exponential", 3, 0.9, seed=3):
        yield topo, tm, cf.top_k_critical(topo, tm, 51, fractions=fractions).flows


def _reward_groups():
    """_reward_cases as batches: (topology, [(tm, flows)]) per topology and K."""
    groups = {}
    for topo, tm, flows in _reward_cases():
        groups.setdefault((id(topo), len(flows)), (topo, []))[1].append((tm, flows))
    return list(groups.values())


def _solve_batch(topo, cases):
    return cf.solve_rerouting_batch(topo, [tm for tm, _ in cases], [f for _, f in cases],
                                    [background_for(topo, tm, f) for tm, f in cases])


def _stack_position(sols, i, r):
    """Where batch LP i sits in round r's stack: the LPs still pricing
    keep their batch order."""
    return sum(len(other.round_pivots) > r for other in sols[:i])


def test_no_phase_one_in_any_round(monkeypatch):
    """Every round starts from a feasible basis (solve_lp takes no other
    start), and round_pivots holds each round's pivots."""
    solved = _record_solves(monkeypatch)
    rounds = 0
    for topo, cases in _reward_groups():
        solved.clear()
        sols = _solve_batch(topo, cases)
        for r, (_, s) in enumerate(solved):  # round r's stack holds the LPs with a round r
            assert [sol.round_pivots[r] for sol in sols if len(sol.round_pivots) > r] \
                == s.pivots.tolist()
            assert s.iterations == s.pivots.sum()
        rounds += sum(len(sol.round_pivots) for sol in sols)
    assert rounds > 2 * 43  # column generation ran past its first round


def test_crash_basis_starts_the_seed_path_lp():
    topo, tm, flows, bg = _abilene_case(13)
    flows = sorted(flows)
    n, m = topo.node_count, topo.link_count
    _, pred = shortest_path_trees(topo, np.arange(n), np.broadcast_to(topo.cost, (n, m)))
    columns = [(f, tree_path(topo, pred[f[0]], *f)) for f in flows]
    problem = build_path_lp(topo, tm, bg.load, columns, cf.default_epsilon(topo, len(flows)))
    demand = np.array([tm.demand[f] for f in flows])
    basis, binv = rerouting._crash_start(topo, demand[None],
                                         [(fi, p) for fi, (_, p) in enumerate(columns)],
                                         bg.load[None], problem.a[None, :m, 1:].transpose(0, 2, 1))
    warm = solve_lp(problem, basis=basis[0])
    handed = solve_lp(problem, basis=basis[0], binv=binv[0])  # the closed-form B^-1
    assert warm.inverted and not handed.inverted
    # one path per flow leaves U alone to choose: the crash basis is optimal
    assert warm.iterations == handed.iterations == 0
    assert handed.objective == pytest.approx(warm.objective, rel=1e-12)
    b = np.hstack([problem.a, np.eye(len(problem.b))[:, :m]])[:, basis[0]]
    assert np.abs(b @ binv[0] - np.eye(len(problem.b))).max() <= 1e-12
    objective, _ = highs_min(problem)  # the seed paths alone: no column generation
    assert warm.objective == pytest.approx(objective, rel=1e-9)


def test_rerouting_keeps_no_state_between_calls():
    topo = cf.load_topology(ABILENE)
    tms = cf.generate_tms(topo, "exponential", 2, 0.9, seed=3)
    cases = [(tm, cf.top_k_critical(topo, tm, 13).flows) for tm in tms]
    cases.append((tms[0], cf.random_k(len(topo.flows()), 13, 0, n=topo.node_count).flows))

    def solve(tm, flows):
        return cf.solve_rerouting(topo, tm, flows, background_for(topo, tm, flows))
    first = solve(*cases[0])
    for other in cases[1:]:
        solve(*other)
        again = solve(*cases[0])
        assert again.u == first.u and again.objective == first.objective
        assert again.round_pivots == first.round_pivots
        assert again.paths == first.paths
        for f in first.sigma:
            assert np.array_equal(again.sigma[f], first.sigma[f])


def test_flow_listed_twice_or_to_itself_rejected(ring5):
    tm = cf.generate_tms(ring5, "exponential", 1, 0.9, seed=1)[0]
    bg = background_for(ring5, tm, [(0, 1)])
    cf.solve_rerouting(ring5, tm, [(0, 1), (2, 4)], bg)
    with pytest.raises(ValueError, match=r"flow \(0, 1\) is listed twice"):
        cf.solve_rerouting(ring5, tm, [(0, 1), (2, 4), (0, 1)], bg)
    with pytest.raises(ValueError, match=r"flow \(1, 1\)"):
        cf.solve_rerouting(ring5, tm, [(0, 1), (1, 1)], bg)


def _kernel_cases():
    """(topology, sources, link weights per source, the (row, destination)
    pairs to check). Per flow, each flow under its own weights: uniform
    weights, pricing-like weights max(eps - y d / c, 0) with eps 1e-6 and
    with eps 0 (mostly zero weights), and small integer weights (exact
    ties). From every node under one weight vector, as validation, ECMP
    and the delay optimum's gap call it: the link costs and uniform
    weights, also on a 49-node stand-in."""
    rng = np.random.default_rng(23)
    topos = [cf.random_topology(n, int(rng.integers(0, n)), seed=int(rng.integers(100)))
             for n in (4, 5, 6, 7, 8, 8)]
    topos += [cf.load_topology(ABILENE), _ebone_sized()]
    for topo in topos:
        k, m = topo.flow_count, topo.link_count
        sources = np.array([s for s, _ in topo.flows()])
        checks = [(fi, d) for fi, (_, d) in enumerate(topo.flows())]
        demand = rng.uniform(0.1, 1.0, k)
        y = np.where(rng.uniform(size=m) < 0.2, -rng.uniform(0.0, 1.0, m), 0.0)
        yield topo, sources, rng.uniform(0.0, 1.0, (k, m)), checks
        for eps in (1e-6, 0.0):
            yield topo, sources, np.maximum(eps - np.outer(demand, y / topo.capacity), 0.0), checks
        yield topo, sources, rng.integers(0, 3, (k, m)).astype(float), checks
    tiscali_sized = cf.infer_capacities_from_costs(cf.random_topology(49, 37, seed=3), 1000.0)
    for topo in topos + [tiscali_sized]:
        n, m = topo.node_count, topo.link_count
        for w in (topo.cost, rng.uniform(0.0, 1.0, m)):
            yield topo, np.arange(n), np.broadcast_to(w, (n, m)), topo.flows()


def test_batched_pricing_kernel_matches_dijkstra():
    for topo, sources, weights, checks in _kernel_cases():
        dist, pred = shortest_path_trees(topo, sources, weights)
        for fi, d in checks:
            s = sources[fi]
            _, want = dijkstra_path(topo, s, d, weights[fi])
            assert dist[fi, d] == pytest.approx(want, rel=1e-15, abs=0.0)
            path = tree_path(topo, pred[fi], s, d)
            nodes = [s] + [topo.links[e].dst for e in path]
            assert nodes[-1] == d and len(set(nodes)) == len(nodes)
            assert all(topo.links[e].src == u for e, u in zip(path, nodes))
            weight = 0.0
            for e in path:
                weight += weights[fi, e]
            assert weight == pytest.approx(want, rel=1e-15, abs=0.0)


def _record_solves(monkeypatch):
    """Every (problem, solution) that solve_rerouting's rounds make."""
    solved = []

    def record(problem, **kwargs):
        solved.append((problem, solve_lp(problem, **kwargs)))
        return solved[-1][1]
    monkeypatch.setattr(rerouting, "solve_lp", record)
    return solved


def test_b_never_inverted(monkeypatch):
    """The first round takes the crash basis's closed-form B^-1 and each
    later round the last one's: no round of a reward or an optimum
    inverts B but for the periodic refresh."""
    solved = _record_solves(monkeypatch)
    topo = _ebone_sized()
    tm = cf.generate_tms(topo, "exponential", 1, 0.9, seed=3)[0]
    groups = _reward_groups() + [(topo, [(tm, [f for f in topo.flows() if tm.demand[f] > 0])])]
    lps = handed_over = 0
    for topo, cases in groups:
        solved.clear()
        sols = _solve_batch(topo, cases)
        for _, s in solved:
            assert not s.inverted.any()
            assert np.all(s.refreshes <= s.pivots // simplex.REFRESH_EVERY)
        for (_, flows), sol in zip(cases, sols):
            assert len(sol.round_columns) == len(sol.round_pivots)
            assert sol.round_columns[0] == len(flows) and 0 not in sol.round_columns
            assert sum(sol.round_columns) == sum(map(len, sol.paths.values()))
            handed_over += len(sol.round_pivots) - 1
        lps += len(cases)
    assert handed_over > lps  # more later rounds than LPs


def test_later_rounds_start_from_the_last_basis_with_slacks_shifted(monkeypatch):
    """Each round appends its new columns after each LP's last one, so the
    next round starts from the last round's final basis with every
    structural index kept and every slack index moved by exactly the
    change in stack width."""
    # (stack width, start basis, final basis) of each solve_lp call; the
    # stack narrows when its widest LP leaves it
    rounds = []

    def record(problem, **kwargs):
        got = solve_lp(problem, **kwargs)
        rounds.append((problem.n_vars, kwargs["basis"].copy(), got.basis.copy()))
        return got
    monkeypatch.setattr(rerouting, "solve_lp", record)
    topo = _ebone_sized()
    tm = cf.generate_tms(topo, "exponential", 1, 0.9, seed=3)[0]
    groups = _reward_groups() + [(topo, [(tm, [f for f in topo.flows() if tm.demand[f] > 0])])]
    kept = shifted = 0
    for topo, cases in groups:
        rounds.clear()
        sols = _solve_batch(topo, cases)
        for r in range(1, len(rounds)):
            (width, _, final), (next_width, start, _) = rounds[r - 1], rounds[r]
            # the LPs still pricing keep their batch order
            stay = [_stack_position(sols, i, r - 1) for i, sol in enumerate(sols)
                    if len(sol.round_pivots) > r]
            assert start.shape == (len(stay), final.shape[1])
            last = final[stay]
            structural = last < width
            assert np.array_equal(start[structural], last[structural])
            assert np.array_equal(start[~structural], last[~structural] + next_width - width)
            kept += structural.sum()
            shifted += (~structural).sum()
    assert kept > 0 and shifted > 0


def _final_rounds(solved, topo, cases, sols):
    """(stack, position in it, build_path_lp over the final columns, the
    LpSolution the stack's solve gave the LP) of each case's last round,
    recorded in `solved` as by _record_solves. The LpSolution is cut to
    the built LP's columns and numbered as it (a stack's slacks follow
    its widest LP)."""
    out = []
    for i, ((tm, flows), sol) in enumerate(zip(cases, sols)):
        last = len(sol.round_pivots) - 1
        (stack, got), at = solved[last], _stack_position(sols, i, last)
        built = build_path_lp(topo, tm, background_for(topo, tm, flows).load, sol.columns,
                              cf.default_epsilon(topo, len(flows)))
        n, width = built.n_vars, stack.n_vars
        basis = got.basis[at]
        final = cf.LpSolution(x=got.x[at, :n], objective=float(got.objective[at]),
                              pivots=int(got.pivots[at]), duals=got.duals[at],
                              basis=np.where(basis >= width, basis - width + n, basis),
                              binv=got.binv[at])
        out.append((stack, at, built, final))
    return out


def test_appended_lp_equals_built_lp(monkeypatch):
    """Each LP's last round, in its place in the stack, is build_path_lp
    over its final columns, padded with zero columns of zero cost."""
    solved = _record_solves(monkeypatch)
    for topo, cases in _reward_groups():
        solved.clear()
        sols = _solve_batch(topo, cases)
        for sol, (stack, at, built, final) in zip(sols, _final_rounds(solved, topo, cases,
                                                                   sols)):
            n = built.n_vars
            assert np.array_equal(stack.c[at, :n], built.c)
            assert np.array_equal(stack.a[at, :, :n], built.a)
            assert np.array_equal(stack.b[at], built.b)
            assert stack.rel == built.rel
            assert not np.concatenate([stack.c[at, n:], stack.a[at, :, n:].ravel()]).any()
            assert final.objective == sol.objective


def _batch_cases():
    """(topology, [(tm, flows)]) of one K each: Abilene at K=13, the
    EBone-sized net at K=51 and eval-mid's net at K=6, critical and random
    selections."""
    for topo, k, count in ((cf.load_topology(ABILENE), 13, 8), (_ebone_sized(), 51, 3),
                           (cf.random_topology(8, 6, seed=3), 6, 8)):
        fractions = cf.compute_ecmp_fractions(topo)
        cases = []
        for i, tm in enumerate(cf.generate_tms(topo, "exponential", count, 0.9, seed=5)):
            cases.append((tm, cf.top_k_critical(topo, tm, k, fractions=fractions).flows))
            cases.append((tm, cf.random_k(len(topo.flows()), k, i, n=topo.node_count).flows))
        yield topo, cases


def test_batch_gives_each_lp_its_bits_alone():
    rng = np.random.default_rng(7)
    for topo, cases in _batch_cases():
        backgrounds = [background_for(topo, tm, flows) for tm, flows in cases]
        alone = [cf.solve_rerouting(topo, tm, flows, bg)
                 for (tm, flows), bg in zip(cases, backgrounds)]
        for _ in range(2):
            order = rng.permutation(len(cases))
            batch = cf.solve_rerouting_batch(topo, [cases[i][0] for i in order],
                                             [cases[i][1] for i in order],
                                             [backgrounds[i] for i in order])
            for i, got in zip(order, batch):
                want = alone[i]
                assert got.u == want.u and got.objective == want.objective
                assert got.round_pivots == want.round_pivots
                assert got.paths == want.paths
                assert all(np.array_equal(got.sigma[f], want.sigma[f]) for f in want.sigma)


def test_batched_rewards_match_highs():
    pytest.importorskip("scipy")
    for topo, cases in _reward_groups():
        for (tm, flows), sol in zip(cases, _solve_batch(topo, cases)):
            bg = background_for(topo, tm, flows)
            u_highs, _ = highs_min(build_rerouting_lp(topo, tm, flows, bg.load, 0.0))
            assert sol.u == pytest.approx(u_highs, rel=1e-12, abs=0.0)


def test_batch_rejects_mixed_sizes(ring5):
    tm = cf.generate_tms(ring5, "exponential", 1, 0.9, seed=1)[0]
    bg = background_for(ring5, tm, [])
    with pytest.raises(ValueError, match="one size"):
        cf.solve_rerouting_batch(ring5, [tm, tm], [[(0, 1)], [(0, 1), (2, 4)]], [bg, bg])
    assert cf.solve_rerouting_batch(ring5, [], [], []) == []
