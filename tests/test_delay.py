import numpy as np
import pytest

import critflow as cf
import critflow.rerouting
from conftest import tm_with


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
