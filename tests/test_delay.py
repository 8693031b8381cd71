import numpy as np
import pytest

import critflow as cf
import critflow.rerouting
from conftest import tm_with
from oracles import delay_lower_bound_kelley, frank_wolfe_oracle


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
    assert start.u == pytest.approx(1.5)
    with pytest.raises(cf.OverloadedInstanceError, match="overloaded"):
        cf.solve_delay_optimal(triangle, tm, start=start)


# The projected Newton solve against HiGHS's cutting-plane lower bound and
# the Frank-Wolfe loop in tests/oracles.py.

EVAL_MID = cf.random_topology(8, 6, seed=3)


def _assert_within_tol_of_the_minimum(topo, matrices):
    for tm in matrices:
        omega, loads = cf.solve_delay_optimal(topo, tm)
        # tangents at and around the solver's loads save HiGHS rounds; the
        # bound and its stop rest on the cutting-plane LP alone
        lower = delay_lower_bound_kelley(
            topo, tm, tangents=[loads.load * s for s in (0.999, 1.0, 1.001)])
        assert lower * (1 - 1e-9) <= omega <= lower * (1 + 1e-5), tm.id


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_delay_optimum_within_tol_of_the_minimum_on_eval_mids_net(seed):
    pytest.importorskip("scipy")
    _assert_within_tol_of_the_minimum(
        EVAL_MID, cf.generate_tms(EVAL_MID, "exponential", 16, 0.9, seed=seed))


def test_delay_optimum_within_tol_of_the_minimum_on_the_ring(ring5):
    pytest.importorskip("scipy")
    # matrix 1 is where Frank-Wolfe ended 0.72% above, at max_iters or on
    # its small-step rule depending on rounding
    matrices = cf.generate_tms(ring5, "exponential", 30, 0.9, seed=3)
    assert matrices[1].id == "exponential-3-1"
    _assert_within_tol_of_the_minimum(ring5, matrices)


def test_delay_optimum_within_tol_of_the_minimum_at_backbone_scale():
    pytest.importorskip("scipy")
    # a stand-in for EBone: 23 nodes, 74 links, 506 flows
    topo = cf.infer_capacities_from_costs(cf.random_topology(23, 14, seed=3), 1000.0)
    _assert_within_tol_of_the_minimum(
        topo, cf.generate_tms(topo, "exponential", 1, 0.9, seed=3))


def test_delay_optimum_no_worse_than_frank_wolfe():
    for tm in cf.generate_tms(EVAL_MID, "exponential", 6, 0.9, seed=3):
        _, start = cf.solve_optimal_all_flows(EVAL_MID, tm)
        omega, _ = cf.solve_delay_optimal(EVAL_MID, tm, start=start)
        want, _, _ = frank_wolfe_oracle(EVAL_MID, tm, start.link_loads)
        assert omega <= want * (1 + 1e-5), tm.id


def test_running_out_of_max_iters_raises():
    tm = cf.generate_tms(EVAL_MID, "exponential", 1, 0.9, seed=3)[0]
    _, start = cf.solve_optimal_all_flows(EVAL_MID, tm)
    omega, loads, steps, gap, pool = critflow.rerouting._delay_optimum(
        EVAL_MID, tm, start, 5000, 1e-5)
    assert steps > 1 and 0 <= gap <= 1e-5
    assert pool >= sum(map(len, start.paths.values()))
    last = cf.solve_delay_optimal(EVAL_MID, tm, start=start, max_iters=steps)
    assert last[0] == omega and np.array_equal(last[1].load, loads.load)
    with pytest.raises(RuntimeError, match="max_iters"):
        cf.solve_delay_optimal(EVAL_MID, tm, start=start, max_iters=steps - 1)


def test_projected_newton_certifies_eval_mids_matrices_in_few_steps():
    # with one step length shared by every pair's diagonal Newton shift,
    # seed 1003's matrix 5 took 167 steps and the worst of these 48 took 230
    steps = {}
    for seed in (1001, 1002, 1003):
        for i, tm in enumerate(cf.generate_tms(EVAL_MID, "exponential", 16, 0.9, seed=seed)):
            _, _, steps[seed, i], gap, _ = critflow.rerouting._delay_optimum(
                EVAL_MID, tm, None, 5000, 1e-5)
            assert 0 <= gap <= 1e-5
    assert steps[1003, 5] <= 30
    assert max(steps.values()) <= 60


def test_delay_optimum_certifies_where_a_shared_step_stalled():
    # one step length shared by every pair's diagonal Newton shift ended
    # this matrix at a relative gap of 0.016 after 5000 steps
    topo = cf.diamond4()
    tm = cf.generate_tms(topo, "uniform", 4, 0.9, seed=7)[3]
    _, _, steps, gap, _ = critflow.rerouting._delay_optimum(topo, tm, None, 5000, 1e-5)
    assert gap <= 1e-5 and steps <= 60


def test_delay_optimum_reports_its_newton_work(monkeypatch):
    tm = cf.generate_tms(EVAL_MID, "exponential", 16, 0.9, seed=1003)[5]
    _, start = cf.solve_optimal_all_flows(EVAL_MID, tm)
    passes = []
    trees = critflow.rerouting.shortest_path_trees

    def counted(*args):
        passes.append(1)
        return trees(*args)

    monkeypatch.setattr(critflow.rerouting, "shortest_path_trees", counted)
    run = critflow.rerouting._delay_optimum(EVAL_MID, tm, start, 5000, 1e-5)
    assert run.steps > 0 and run.cg_iters > 0 and run.backtracks >= 0
    # one tree pass per step, and one more for the certificate
    assert len(passes) == run.steps + 1
    assert tuple(run) == (run.omega, run.loads, run.steps, run.gap, run.pool)
