"""Per-matrix metrics for any selector, plus suite aggregates and CSV export.

Three metrics per (traffic matrix, method):
  pr_u     — optimal max-utilization / achieved max-utilization (<= 1)
  pr_omega — optimal delay proxy / achieved delay proxy (<= 1)
  rd       — share of total demand belonging to the rerouted flows

ECMP is modeled as the empty selection so every method flows through the
same rerouting path. Policy selection at evaluation time is greedy: the K
highest-probability actions. eval_suite reroutes every method of one
matrix together: one solve_rerouting_batch stack per selection size, in
which each LP keeps the bits it has when solved alone, so each record
equals that method's eval_one.

eval_suite can also time each matrix: one EvalTiming per oracle (the
all-flows optimum, and the delay optimum when delay is on), one per
method (its selection alone), then one "rerouting" (the shared stack and
every method's metrics), for `timings.csv`.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .ecmp import compute_ecmp_fractions, ecmp_link_loads
from .policy import forward
from .rerouting import solve_delay_optimal, solve_optimal_all_flows, \
    solve_rerouting_batch, evaluate_delay
# No longer called here, but kept as a name of this module: the
# benchmark's tracer (bench/tracing.py) wraps it here.
from .rerouting import solve_rerouting  # noqa: F401
from .selectors import SelectionResult, check_k, random_k, top_k, top_k_critical
from .topology import flow_of_index

METHODS = ("ecmp", "policy", "top_k", "top_k_critical", "random")
RESULT_FIELDS = ("tm_id", "method", "u_method", "u_optimal", "pr_u",
                 "omega_method", "omega_optimal", "pr_omega", "rd")
TIMING_FIELDS = ("tm_id", "part", "ms")


class EvaluationError(Exception):
    pass


@dataclass
class EvalRecord:
    tm_id: str
    method: str
    u_method: float
    u_optimal: float
    pr_u: float
    omega_method: float = None
    omega_optimal: float = None
    pr_omega: float = None
    rd: float = 0.0


@dataclass
class EvalTiming:
    tm_id: str
    part: str      # "optimum", "delay_optimum", a method name or "rerouting"
    ms: float


def _ratio(optimal, achieved):
    if achieved == 0:
        return 1.0  # degenerate zero-traffic state: method trivially optimal
    if not np.isfinite(achieved):
        return 0.0
    return optimal / achieved


def policy_selection(params, tm, k):
    """Greedy evaluation-time selection: top-k probabilities, ties by id."""
    check_k(k, tm.n * (tm.n - 1))
    dist = forward(params, tm)
    order = np.lexsort((np.arange(dist.probs.shape[0]), -dist.probs))
    flows = tuple(flow_of_index(int(a), tm.n) for a in order[:k])
    return SelectionResult(flows=flows, method="policy")


def _records(topo, tm, selections, fractions, include_delay, u_optimal,
             delay_optimal):
    """One EvalRecord per selection on one matrix, in selection order.

    Every selection's rerouting LP goes into one solve_rerouting_batch
    call per selection size; ECMP's empty selection needs no LP. The
    rerouting solution minimizes max utilization; the delay proxy is
    evaluated on the loads it produces. The oracle values are given.
    """
    by_size = {}
    for i, sel in enumerate(selections):
        by_size.setdefault(len(sel.flows), []).append(i)
    sols = [None] * len(selections)
    for idx in by_size.values():
        flows = [selections[i].flows for i in idx]
        backgrounds = [ecmp_link_loads(topo, tm, fractions, exclude=f) for f in flows]
        for i, sol in zip(idx, solve_rerouting_batch(topo, [tm] * len(idx), flows,
                                                     backgrounds)):
            sols[i] = sol
    total = tm.total_demand()
    records = []
    for selection, sol in zip(selections, sols):
        rerouted = sum(tm.demand[s, d] for s, d in selection.flows)
        record = EvalRecord(
            tm_id=tm.id, method=selection.method,
            u_method=sol.u, u_optimal=u_optimal,
            pr_u=_ratio(u_optimal, sol.u),
            rd=(rerouted / total) if total > 0 else 0.0)
        if include_delay:
            record.omega_method = evaluate_delay(topo, sol.link_loads)
            record.omega_optimal = delay_optimal
            record.pr_omega = _ratio(delay_optimal, record.omega_method)
        records.append(record)
    return records


def eval_one(topo, tm, selection, fractions=None, include_delay=True,
             u_optimal=None, delay_optimal=None):
    """Metrics for one selection on one matrix: eval_suite's records for
    a single method.

    Precomputed oracle values can be passed to avoid re-solving across
    methods; the all-flows optimum is solved at most once either way.
    """
    if fractions is None:
        fractions = compute_ecmp_fractions(topo)
    start = None
    if u_optimal is None:
        u_optimal, start = solve_optimal_all_flows(topo, tm)
    if include_delay and delay_optimal is None:
        delay_optimal, _ = solve_delay_optimal(topo, tm, start=start)
    return _records(topo, tm, [selection], fractions, include_delay,
                    u_optimal, delay_optimal)[0]


def select(method, topo, tm, k, params=None, fractions=None, seed=0):
    """Dispatch a method name to its selector."""
    if method == "ecmp":
        return SelectionResult(flows=(), method="ecmp")
    if method == "policy":
        if params is None:
            raise EvaluationError("policy method requires trained parameters")
        return policy_selection(params, tm, k)
    if method == "top_k":
        return top_k(tm, k)
    if method == "top_k_critical":
        return top_k_critical(topo, tm, k, fractions=fractions)
    if method == "random":
        return random_k(tm.n, k, seed)
    raise EvaluationError(f"unknown method {method!r}")


def eval_suite(topo, matrices, methods, k, params=None, include_delay=True,
               seed=0, timings=None):
    """Evaluate every method on every matrix.

    Returns (records, aggregates) where aggregates maps
    (method, metric) -> (mean, std). When `timings` is a list, one
    EvalTiming per oracle, per method and for the rerouting of each matrix
    is appended to it. An unknown method raises before anything is solved.
    """
    for method in methods:
        if method not in METHODS:
            raise EvaluationError(f"unknown method {method!r}")
    if "policy" in methods and params is None:
        raise EvaluationError("policy method requires trained parameters")
    fractions = compute_ecmp_fractions(topo)
    records = []

    def timed(tm, part, began):
        if timings is not None:
            timings.append(EvalTiming(tm.id, part, (time.perf_counter() - began) * 1e3))

    for tm in matrices:
        began = time.perf_counter()
        u_opt, optimum = solve_optimal_all_flows(topo, tm)
        timed(tm, "optimum", began)
        d_opt = None
        if include_delay:
            began = time.perf_counter()
            d_opt = solve_delay_optimal(topo, tm, start=optimum)[0]
            timed(tm, "delay_optimum", began)
        selections = []
        for method in methods:
            began = time.perf_counter()
            selections.append(select(method, topo, tm, k, params=params,
                                     fractions=fractions, seed=seed))
            timed(tm, method, began)
        began = time.perf_counter()
        records += _records(topo, tm, selections, fractions, include_delay,
                            u_opt, d_opt)
        timed(tm, "rerouting", began)
    return records, aggregate(records)


def aggregate(records):
    """(method, metric) -> (mean, std) over the available records."""
    out = {}
    for metric in ("pr_u", "pr_omega", "rd"):
        by_method = {}
        for r in records:
            val = getattr(r, metric)
            if val is not None:
                by_method.setdefault(r.method, []).append(val)
        for method, vals in by_method.items():
            arr = np.array(vals)
            out[(method, metric)] = (float(arr.mean()), float(arr.std()))
    return out


def empirical_cdf(records, method, metric):
    """Sorted sample values and cumulative fractions for one method/metric."""
    vals = sorted(getattr(r, metric) for r in records
                  if r.method == method and getattr(r, metric) is not None)
    if not vals:
        return np.array([]), np.array([])
    n = len(vals)
    return np.array(vals), np.arange(1, n + 1) / n


def write_results_csv(records, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(RESULT_FIELDS)
        for r in records:
            w.writerow(["" if getattr(r, f) is None else
                        (getattr(r, f) if f in ("tm_id", "method")
                         else repr(float(getattr(r, f))))
                        for f in RESULT_FIELDS])


def write_cdf_csv(records, path, metrics=("pr_u", "pr_omega", "rd")):
    methods = sorted({r.method for r in records})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "metric", "x", "cdf"])
        for method in methods:
            for metric in metrics:
                xs, fs = empirical_cdf(records, method, metric)
                for x, f in zip(xs, fs):
                    w.writerow([method, metric, repr(float(x)), repr(float(f))])


def write_timings_csv(timings, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(TIMING_FIELDS)
        for t in timings:
            w.writerow([t.tm_id, t.part, repr(float(t.ms))])
