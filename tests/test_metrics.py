import numpy as np
import pytest

import critflow as cf
import critflow.evaluation
import critflow.rerouting
from conftest import tm_with


@pytest.fixture(scope="module")
def ring5_tms(ring5):
    return cf.generate_tms(ring5, "exponential", 4, 0.9, seed=40)


def test_all_flows_selection_is_optimal(ring5, ring5_tms):
    tm = ring5_tms[0]
    sel = cf.SelectionResult(flows=tuple(ring5.flows()), method="policy")
    rec = cf.eval_one(ring5, tm, sel, include_delay=False)
    assert rec.pr_u == pytest.approx(1.0, abs=1e-6)


def test_empty_selection_is_ecmp(ring5, ring5_tms):
    tm = ring5_tms[0]
    rec = cf.eval_one(ring5, tm, cf.SelectionResult(flows=(), method="ecmp"),
                      include_delay=False)
    assert rec.u_method == pytest.approx(cf.ecmp_max_utilization(ring5, tm))
    assert rec.rd == 0.0


def test_rd_arithmetic(triangle):
    tm = tm_with(3, {(0, 1): 2.0, (0, 2): 1.0, (1, 2): 1.0})
    sel = cf.SelectionResult(flows=((0, 1),), method="top_k")
    rec = cf.eval_one(triangle, tm, sel, include_delay=False)
    assert rec.rd == pytest.approx(0.5)


def test_rd_scale_invariant(ring5, ring5_tms):
    tm = ring5_tms[1]
    sel = cf.top_k(tm, 3)
    a = cf.eval_one(ring5, tm, sel, include_delay=False)
    b = cf.eval_one(ring5, tm.scaled(7.0), sel, include_delay=False)
    assert a.rd == pytest.approx(b.rd, rel=1e-12)


def test_nonempty_selection_never_worse_than_ecmp(ring5, ring5_tms):
    fr = cf.compute_ecmp_fractions(ring5)
    for tm in ring5_tms:
        u_ecmp = cf.ecmp_max_utilization(ring5, tm)
        for method in ("top_k", "top_k_critical", "random"):
            sel = cf.select(method, ring5, tm, 3, fractions=fr, seed=1)
            rec = cf.eval_one(ring5, tm, sel, fractions=fr, include_delay=False)
            assert rec.u_method <= u_ecmp + 1e-7
            assert 0 < rec.pr_u <= 1 + 1e-7


def test_brute_force_has_best_pr_u(diamond):
    tm = cf.generate_tms(diamond, "exponential", 1, 0.9, seed=8)[0]
    fr = cf.compute_ecmp_fractions(diamond)
    sel_bf, _ = cf.brute_force_best(diamond, tm, 2, fractions=fr)
    rec_bf = cf.eval_one(diamond, tm, sel_bf, fractions=fr, include_delay=False)
    for method in ("ecmp", "top_k", "top_k_critical", "random"):
        sel = cf.select(method, diamond, tm, 2, fractions=fr, seed=2)
        rec = cf.eval_one(diamond, tm, sel, fractions=fr, include_delay=False)
        assert rec_bf.pr_u >= rec.pr_u - 1e-9


def test_delay_metrics_present_and_bounded(ring5, ring5_tms):
    tm = ring5_tms[2]
    rec = cf.eval_one(ring5, tm, cf.top_k(tm, 3))
    assert rec.omega_method is not None
    assert rec.omega_optimal is not None
    assert 0 < rec.pr_omega <= 1 + 1e-7


def test_policy_selection_greedy_deterministic(ring5, ring5_tms):
    params = cf.zero_params(5, width=8)
    sel = cf.policy_selection(params, ring5_tms[0], 4)
    # uniform probabilities: ties resolve to the lowest action ids
    assert sel.flows == tuple(cf.flow_of_index(a, 5) for a in range(4))
    assert sel.method == "policy"


def test_eval_suite_aggregates_and_records(ring5, ring5_tms):
    records, agg = cf.eval_suite(ring5, ring5_tms, ["ecmp", "top_k"], 3,
                                 include_delay=False)
    assert len(records) == len(ring5_tms) * 2
    mean_ecmp = agg[("ecmp", "pr_u")][0]
    manual = np.mean([r.pr_u for r in records if r.method == "ecmp"])
    assert mean_ecmp == pytest.approx(manual)
    # ECMP mean pr_u equals mean of per-TM u_opt / u_ecmp by definition
    manual2 = np.mean([r.u_optimal / r.u_method for r in records
                       if r.method == "ecmp"])
    assert mean_ecmp == pytest.approx(manual2)


def test_eval_suite_policy_requires_params(ring5, ring5_tms):
    with pytest.raises(cf.EvaluationError):
        cf.eval_suite(ring5, ring5_tms, ["policy"], 2)


def test_cdf_non_decreasing_zero_to_one(ring5, ring5_tms):
    records, _ = cf.eval_suite(ring5, ring5_tms, ["top_k"], 3,
                               include_delay=False)
    xs, fs = cf.empirical_cdf(records, "top_k", "pr_u")
    assert np.all(np.diff(xs) >= 0)
    assert np.all(np.diff(fs) > 0)
    assert fs[0] > 0 and fs[-1] == pytest.approx(1.0)


def test_csv_outputs(ring5, ring5_tms, tmp_path):
    records, _ = cf.eval_suite(ring5, ring5_tms[:2], ["ecmp", "top_k"], 2,
                               include_delay=False)
    rpath = tmp_path / "results.csv"
    cf.write_results_csv(records, rpath)
    lines = rpath.read_text().strip().splitlines()
    assert lines[0] == ("tm_id,method,u_method,u_optimal,pr_u,"
                        "omega_method,omega_optimal,pr_omega,rd")
    assert len(lines) == 5
    cpath = tmp_path / "cdf.csv"
    cf.write_cdf_csv(records, cpath)
    assert cpath.read_text().splitlines()[0] == "method,metric,x,cdf"


def test_eval_suite_times_oracles_apart_from_methods(ring5, ring5_tms, tmp_path):
    timings = []
    records, _ = cf.eval_suite(ring5, ring5_tms[:2], ["ecmp", "top_k"], 2,
                               include_delay=False, timings=timings)
    # without delay there is no delay oracle to time
    assert [(t.tm_id, t.part) for t in timings] == [
        (tm.id, part) for tm in ring5_tms[:2]
        for part in ("optimum", "ecmp", "top_k", "rerouting")]
    assert all(t.ms >= 0 for t in timings)
    path = tmp_path / "timings.csv"
    cf.write_timings_csv(timings, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tm_id,part,ms"
    assert [line.split(",")[:2] for line in lines[1:]] == \
        [[t.tm_id, t.part] for t in timings]


def test_rd_direction_matches_reported_ordering():
    """Elephant-heavy traffic: plain top-k reroutes more volume than the
    congestion-aware variant (directional check only)."""
    topo = cf.infer_capacities_from_costs(cf.random_topology(23, 14, seed=3),
                                          1000.0)
    tms = cf.generate_tms(topo, "exponential", 50, 0.9, seed=7)
    k = 51  # 10% of 506 flows
    fr = cf.compute_ecmp_fractions(topo)
    rd_top, rd_crit = [], []
    for tm in tms:
        total = tm.total_demand()
        rd_top.append(sum(tm.demand[s, d]
                          for s, d in cf.top_k(tm, k).flows) / total)
        rd_crit.append(sum(tm.demand[s, d]
                           for s, d in cf.top_k_critical(topo, tm, k,
                                                         fractions=fr).flows) / total)
    assert np.mean(rd_top) > np.mean(rd_crit)


def count_optimum_calls(monkeypatch):
    """Count every all-flows optimum solved, from evaluation or the delay
    oracle; the list gets one matrix id per call."""
    calls = []
    original = critflow.rerouting.solve_optimal_all_flows

    def counted(topo, tm):
        calls.append(tm.id)
        return original(topo, tm)

    monkeypatch.setattr(critflow.rerouting, "solve_optimal_all_flows", counted)
    monkeypatch.setattr(critflow.evaluation, "solve_optimal_all_flows", counted)
    return calls


def test_eval_one_solves_optimum_once(ring5, ring5_tms, monkeypatch):
    tm = ring5_tms[2]
    u_opt, optimum = cf.solve_optimal_all_flows(ring5, tm)
    omega_opt, _ = cf.solve_delay_optimal(ring5, tm, start=optimum)
    calls = count_optimum_calls(monkeypatch)
    rec = cf.eval_one(ring5, tm, cf.top_k(tm, 3), include_delay=True)
    assert calls == [tm.id]
    assert rec.u_optimal == u_opt
    assert rec.omega_optimal == omega_opt


def test_eval_suite_solves_optimum_once_per_matrix(ring5, ring5_tms, monkeypatch):
    calls = count_optimum_calls(monkeypatch)
    cf.eval_suite(ring5, ring5_tms[:3], ["ecmp", "top_k", "random"], 2,
                  include_delay=True)
    assert calls == [tm.id for tm in ring5_tms[:3]]


def test_eval_suite_rejects_unknown_method_before_solving(ring5, ring5_tms,
                                                          monkeypatch):
    calls = count_optimum_calls(monkeypatch)
    with pytest.raises(cf.EvaluationError, match="unknown method 'bogus'"):
        cf.eval_suite(ring5, ring5_tms[:2], ["ecmp", "bogus"], 2)
    assert calls == []


def record_bits(record):
    """Every field of an EvalRecord, its floats as float.hex."""
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in vars(record).values())


@pytest.mark.parametrize("topo, k", [(cf.ring_with_chords(), 3),
                                     (cf.random_topology(8, 6, seed=3), 6)],
                         ids=["ring5", "random8"])
def test_eval_suite_records_equal_eval_one_bit_for_bit(topo, k):
    """The methods of one matrix share one rerouting stack, and each record
    keeps the bits of that method evaluated alone."""
    tms = cf.generate_tms(topo, "exponential", 3, 0.9, seed=17)
    params = cf.init_params(topo.node_count, width=16, seed=4)
    fr = cf.compute_ecmp_fractions(topo)
    records, _ = cf.eval_suite(topo, tms, critflow.evaluation.METHODS, k, params=params,
                               include_delay=True, seed=9)
    alone = []
    for tm in tms:
        u_opt, optimum = cf.solve_optimal_all_flows(topo, tm)
        omega_opt, _ = cf.solve_delay_optimal(topo, tm, start=optimum)
        for method in critflow.evaluation.METHODS:
            sel = cf.select(method, topo, tm, k, params=params, fractions=fr, seed=9)
            alone.append(cf.eval_one(topo, tm, sel, fractions=fr, include_delay=True,
                                     u_optimal=u_opt, delay_optimal=omega_opt))
    assert [record_bits(r) for r in records] == [record_bits(r) for r in alone]
    assert all(r.omega_method is not None for r in records)


def test_eval_suite_stacks_each_matrix_methods_once(ring5, ring5_tms, monkeypatch):
    stacks = []
    original = critflow.evaluation.solve_rerouting_batch

    def counted(topo, tms, criticals, backgrounds):
        stacks.append(([tm.id for tm in tms], [len(c) for c in criticals]))
        return original(topo, tms, criticals, backgrounds)

    monkeypatch.setattr(critflow.evaluation, "solve_rerouting_batch", counted)
    params = cf.init_params(5, width=8, seed=0)
    cf.eval_suite(ring5, ring5_tms[:3], critflow.evaluation.METHODS, 2, params=params,
                  include_delay=False)
    rerouted = [s for s in stacks if s[1] != [0]]
    assert rerouted == [([tm.id] * 4, [2] * 4) for tm in ring5_tms[:3]]
