"""Explicit rerouting of selected flows to minimize maximum link utilization.

The selected flows get split ratios over simple paths from an LP; everything
else contributes a fixed background load (normally its ECMP share). The LP
has one column per (selected flow f, path p), x_p being the share of f's
demand d_f sent down p:

    minimize    U + eps * sum_p len(p) * x_p
    subject to  (sum_p d_f * x_p * [e in p] + background_e) / capacity_e <= U
                sum over f's paths of x_p = 1        for every selected f
                x >= 0,  U >= 0

The eps term keeps optimal routes from wandering onto needlessly long
paths while staying far too small to perturb U. The capacity rows are in
utilization units, so their slacks and duals are of order one whatever
the capacities. Two paths of one flow that cost the same under the duals
differ in reduced cost by eps times their difference in hops, so the
simplex and the pricing see the tie-break only where eps exceeds the
absolute reduced-cost tolerance REDUCED_COST_TOL = 1e-9.
default_epsilon, 1e-4 / (M K), does so only while M K < 1e5: eps / tol
is 256 on Abilene at K = 13, 26.5 on a 23-node 74-link net at K = 51,
2.47 on a 49-node 172-link net at K = 235 and 0.25 for that net's
all-flows optimum, where the LP can end on a longer path of equal
utilization. U is optimal to the tolerance either way. The paths are not
enumerated: the LP is solved by column generation (Ford & Fulkerson
1958). It starts from each flow's min-cost path; after every solve, one
batched Bellman-Ford pass (topology.shortest_path_trees) finds, for all
flows at once, the path of least reduced cost under each flow's link
weights eps - y_e * d_f / capacity_e (y_e <= 0 the capacity row duals),
and a path that prices below zero joins the LP. No such path left means
the LP over the paths in hand is optimal over all paths. A flow's split
ratio on a link (`sigma`) is the sum of its paths' shares through that
link, so it carries no cycle.

One LP per call, re-optimized from its last basis as columns arrive
(Lübbecke & Desrosiers 2005). The first round starts from a crash basis
(Bixby 1992): every flow on its seed path, U at the seed routing's max
utilization, basic in that link's capacity row, and the slacks of the
other capacity rows; it is the only round that inverts B. Each later
round inserts its new path columns after their flows' pools, in the
order build_path_lp gives them, and starts from the previous round's
optimal basis, renumbered around them, and its B^-1: the new paths enter
nonbasic at 0, so the basis stays primal feasible and B stays the same
matrix. No round needs a phase 1. Nothing is kept from one call to the
next.

Also here: the all-flows optimum, the network delay proxy sum(load /
(capacity - load)), and its minimizer over all routings by path-based
gradient projection (Bertsekas & Gallager, Data Networks, 2nd ed. 1992,
5.7; Gallager 1977). The optimum is this same path LP over every flow
with demand, over zero background, and the delay minimizer starts from
its path pools and shares. Each step updates every pair at once under
the marginal delays w = c/(c-l)^2: a pair whose pool lacks a path as
short as its distance (topology.shortest_distances) gains its
shortest-path tree's path, and each other path p of the pair hands
min(x_p, alpha (d_p - d_best) / H_p) to the pair's first cheapest path,
d being path lengths under w and H_p the sum of 2c/(c-l)^3 over the
links on exactly one of the two paths (a Newton step). alpha halves
until the loads stay under capacity and the delay does not rise, and
doubles back toward 1 after each step. The loop stops only on the
Frank-Wolfe duality gap w.l - sum r dist, which certifies the delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .ecmp import LinkLoads
from .simplex import REDUCED_COST_TOL, LpProblem, solve_lp
from .topology import shortest_distances, shortest_path_trees, tree_path

CONSERVATION_TOL = 1e-7


class OverloadedInstanceError(Exception):
    pass


@dataclass
class ReroutingSolution:
    sigma: dict            # (s, d) -> (M,) split-ratio vector
    u: float               # max link utilization achieved
    objective: float       # LP objective (U + eps * sum sigma)
    link_loads: LinkLoads
    paths: dict = field(default_factory=dict)  # (s, d) -> final path pool, link tuples
    # (s, d) -> the final LP's share of each path in paths[(s, d)]
    shares: dict = field(default_factory=dict)
    # (phase-1, phase-2) pivots of each column-generation round's LP
    round_pivots: list = field(default_factory=list)
    # path columns each round's LP added to the last one (round 0: the seeds)
    round_columns: list = field(default_factory=list)


def default_epsilon(topo, k):
    """Small enough that the path-length tie-break never moves U."""
    return 1e-4 / (topo.link_count * max(k, 1))


def _flat_paths(cols):
    """(flow position, hops) of each (flow position, path) pair in cols,
    and all their links, path after path."""
    fis = np.array([fi for fi, _ in cols], dtype=int)
    hops = np.array([len(p) for _, p in cols], dtype=int)
    links = np.fromiter(chain.from_iterable(p for _, p in cols), dtype=int,
                        count=int(hops.sum()))
    return fis, hops, links


def _path_columns(topo, demand, cols, epsilon):
    """The path LP's columns for the (flow position, path) pairs in cols,
    as (A block, costs): the flow's demand (demand[flow position]) over
    capacity on the path's capacity rows, 1 on its convexity row, cost
    eps per hop."""
    m = topo.link_count
    fis, hops, links = _flat_paths(cols)
    j = np.arange(len(cols))
    a = np.zeros((m + len(demand), len(cols)))
    a[links, np.repeat(j, hops)] = np.repeat(demand[fis], hops) / topo.capacity[links]
    a[m + fis, j] = 1.0
    return a, epsilon * hops


def _path_lp(topo, flows, background_load, a_paths, c_paths, names=None):
    """The path LP: U, then the given path columns."""
    m, k = topo.link_count, len(flows)
    u_col = np.zeros((m + k, 1))
    u_col[:m] = -1.0
    b = np.concatenate([-np.asarray(background_load, dtype=float) / topo.capacity,
                        np.ones(k)])
    return LpProblem(c=np.concatenate([[1.0], c_paths]), a=np.hstack([u_col, a_paths]),
                     rel=["<="] * m + ["="] * k, b=b, var_names=names)


def build_path_lp(topo, tm, flows, background_load, paths, epsilon):
    """Assemble the path LP over the given pools; variable 0 is U, then one
    column per path in paths[f] (a tuple of link indices), flows in the
    given order. Rows: one capacity row per link, in utilization units,
    then one convexity row per flow."""
    cols = [(fi, p) for fi, f in enumerate(flows) for p in paths[f]]
    names = ["U"]
    for fi, p in cols:
        s, d = flows[fi]
        hops = "_".join(str(topo.links[e].src) for e in p)
        names.append(f"x{s}_{d}__{hops}_{d}")
    demand = np.array([tm.demand[f] for f in flows])
    return _path_lp(topo, flows, background_load,
                    *_path_columns(topo, demand, cols, epsilon), names=names)


def _check_flows(flows):
    """Raise ValueError on a self-pair or a flow listed twice (flows sorted)."""
    for i, (s, d) in enumerate(flows):
        if s == d:
            raise ValueError(f"flow ({s}, {d}) has its source as destination")
        if i and flows[i - 1] == flows[i]:
            raise ValueError(f"flow ({s}, {d}) is listed twice")


def solve_rerouting(topo, tm, critical, background, epsilon=None):
    """Optimal split ratios for the flows in `critical` given fixed
    background loads (from ECMP with those flows excluded).

    Column generation over simple paths (see the module docstring); the
    returned `paths` hold each flow's final pool, so
    build_path_lp(topo, tm, sorted(critical), background, paths, epsilon)
    is the last LP solved. A flow listed twice, or from a node to itself,
    raises ValueError.
    """
    bg = np.asarray(background.load if isinstance(background, LinkLoads)
                    else background, dtype=float)
    flows = sorted(critical)
    _check_flows(flows)
    if not flows:
        loads = LinkLoads.from_load(bg, topo.capacity)
        return ReroutingSolution(sigma={}, u=loads.max_utilization,
                                 objective=loads.max_utilization,
                                 link_loads=loads)
    if epsilon is None:
        epsilon = default_epsilon(topo, len(flows))
    m, k = topo.link_count, len(flows)
    src, dst = np.array(flows).T
    demand = tm.demand[src, dst]
    inv_cap = 1.0 / topo.capacity
    # seeds: each flow's path in the min-cost tree from its source
    pred = topo.cost_tree_preds
    paths = {f: [tree_path(topo, pred[f[0]], *f)] for f in flows}
    problem = _path_lp(topo, flows, bg, *_path_columns(
        topo, demand, [(fi, paths[f][0]) for fi, f in enumerate(flows)], epsilon))
    basis, binv = _crash_basis(topo, flows, paths, demand, bg), None
    ends = np.arange(2, k + 2)  # one past each flow's last column
    round_pivots, round_columns = [], [k]
    while True:
        sol = solve_lp(problem, basis=basis, binv=binv)
        round_pivots.append((sol.phase1_iterations, sol.phase2_iterations))
        y, mu = sol.duals[:m], sol.duals[m:]
        # y <= 0 on the capacity rows, up to the solver's tolerance
        weights = np.maximum(epsilon - np.outer(demand, y * inv_cap), 0.0)
        dist, pred = shortest_path_trees(topo, src, weights)
        new = []
        for fi in np.flatnonzero(dist[np.arange(k), dst] - mu < -REDUCED_COST_TOL):
            f = flows[fi]
            path = tree_path(topo, pred[fi], *f)
            # a path already in the pool prices >= -tol in the LP just
            # solved, whatever this sum rounds to: never add it twice
            if path not in paths[f]:
                paths[f].append(path)
                new.append((fi, path))
        if not new:
            break
        round_columns.append(len(new))
        # each new path goes after its flow's pool, as build_path_lp has it
        grown = np.array([fi for fi, _ in new])
        at = ends[grown]
        ends += np.cumsum(np.bincount(grown, minlength=k))
        a_new, c_new = _path_columns(topo, demand, new, epsilon)
        problem = LpProblem(c=np.insert(problem.c, at, c_new),
                            a=np.insert(problem.a, at, a_new, axis=1),
                            rel=problem.rel, b=problem.b)
        # the new columns enter nonbasic at 0: the optimal basis stays
        # feasible, and B, so B^-1, is unchanged; later columns and the
        # slacks (numbered after the columns) shift up
        basis = sol.basis + np.searchsorted(at, sol.basis, side="right")
        binv = sol.binv
    # each flow's ratios: the sum of its paths' shares, in pool order
    fis, hops, links = _flat_paths([(fi, p) for fi, f in enumerate(flows)
                                    for p in paths[f]])
    ratios = np.zeros((k, m))
    np.add.at(ratios, (np.repeat(fis, hops), links), np.repeat(sol.x[1:], hops))
    load = bg + demand @ ratios
    sigma = dict(zip(flows, ratios))
    shares = dict(zip(flows, np.split(sol.x[1:], ends[:-1] - 1)))
    loads = LinkLoads.from_load(load, topo.capacity)
    return ReroutingSolution(sigma=sigma, u=loads.max_utilization,
                             objective=sol.objective, link_loads=loads,
                             paths=paths, shares=shares, round_pivots=round_pivots,
                             round_columns=round_columns)


def _crash_basis(topo, flows, paths, demand, bg):
    """A feasible starting basis of the first path LP (one seed path per
    flow): every flow on its seed path, U basic in the capacity row of the
    most utilized link (the lowest row on ties) and the slacks of every
    other capacity row, which hold U minus their link's utilization."""
    m, k = topo.link_count, len(flows)
    _, hops, links = _flat_paths([(fi, paths[f][0]) for fi, f in enumerate(flows)])
    load = bg.copy()
    np.add.at(load, links, np.repeat(demand, hops))
    # slack of capacity row i is column 1 + k + i; flow fi's seed path is 1 + fi
    basis = np.concatenate([1 + k + np.arange(m), 1 + np.arange(k)])
    basis[int(np.argmax(load / topo.capacity))] = 0
    return basis


def solve_optimal_all_flows(topo, tm):
    """Explicit-routing optimum over all flows with zero background: the
    path LP of solve_rerouting over every flow with demand, so it starts
    from a crash basis and runs no phase 1.

    Returns (u_opt, ReroutingSolution); u_opt is its loads' max
    utilization, and its path pools and shares start solve_delay_optimal.
    """
    flows = [f for f in topo.flows() if tm.demand[f] > 0]
    sol = solve_rerouting(topo, tm, flows, np.zeros(topo.link_count))
    return sol.u, sol


def check_rerouting_feasibility(topo, tm, solution, background, tol=CONSERVATION_TOL):
    """Independent constraint check of a ReroutingSolution (not the solver's
    own residuals). Raises AssertionError naming the violated family."""
    bg = np.asarray(background.load if isinstance(background, LinkLoads)
                    else background, dtype=float)
    load = bg.copy()
    for (s, d), ratios in solution.sigma.items():
        assert np.all(ratios >= -tol) and np.all(ratios <= 1 + tol), \
            f"ratio bounds violated for flow ({s},{d})"
        net = np.zeros(topo.node_count)
        np.add.at(net, topo.link_dst, ratios)
        np.add.at(net, topo.link_src, -ratios)
        want = np.zeros(topo.node_count)
        want[s], want[d] = -1.0, 1.0
        assert np.max(np.abs(net - want)) <= tol, \
            f"conservation violated for flow ({s},{d})"
        load = load + ratios * tm.demand[s, d]
    assert np.max(np.abs(load - solution.link_loads.load)) <= tol, \
        "link-load accounting mismatch"
    assert np.all(load <= topo.capacity * solution.u + tol), \
        "capacity-utilization constraint violated"


def evaluate_delay(topo, loads):
    """Network delay proxy: sum over links of l/(c-l); +inf if any l >= c."""
    load = np.asarray(loads.load if isinstance(loads, LinkLoads) else loads,
                      dtype=float)
    cap = topo.capacity
    if np.any(load >= cap):
        return float("inf")
    return float(np.sum(load / (cap - load)))


def _place(inc, pad, cols, slots):
    """Write the (flow position, path) pairs in cols into the padded
    incidence inc (K, W, M) at the given slots, and mark those live in pad."""
    fis, hops, links = _flat_paths(cols)
    inc[np.repeat(fis, hops), np.repeat(slots, hops), links] = 1.0
    pad[fis, slots] = 0.0


def _delay_optimum(topo, tm, start, max_iters, tol):
    """solve_delay_optimal's work; returns (omega, LinkLoads, steps taken,
    final relative duality gap, paths in the pools at the end).

    Each flow's pool is a row of slots: inc[f, j] is the 0/1 link vector
    of its j-th path (pool order, zero past the pool's end), x[f, j] that
    path's flow and pad[f, j] 0 on a path, inf past the end, so that
    inc @ w + pad is every path's length with padding never the cheapest.
    """
    cap, m = topo.capacity, topo.link_count
    if tm.total_demand() == 0:
        return 0.0, LinkLoads.from_load(np.zeros(m), cap), 0, 0.0, 0
    if start is None:
        _, start = solve_optimal_all_flows(topo, tm)
    if start.u >= 1.0 - 1e-12:
        raise OverloadedInstanceError(
            f"overloaded instance: best max utilization {start.u:.6f} >= 1")
    flows = sorted(start.paths)
    k, rows = len(flows), np.arange(len(flows))
    src, dst = np.array(flows).T
    demand = tm.demand[src, dst]
    pools = [list(start.paths[f]) for f in flows]
    width = max(map(len, pools))
    inc, pad, x = np.zeros((k, width, m)), np.full((k, width), np.inf), np.zeros((k, width))
    _place(inc, pad, [(fi, p) for fi, pool in enumerate(pools) for p in pool],
           [j for pool in pools for j in range(len(pool))])
    for fi, f in enumerate(flows):
        # the LP's shares, clipped at 0 and scaled to carry the whole demand
        share = np.maximum(start.shares[f], 0.0)
        x[fi, :len(share)] = demand[fi] * share / share.sum()
    load = x.reshape(-1) @ inc.reshape(-1, m)
    omega, alpha = float(np.sum(load / (cap - load))), 1.0
    for steps in range(max_iters + 1):
        room = cap - load
        w = cap / room ** 2
        dist = shortest_distances(topo, w)[src, dst]
        gap = float(w @ load - demand @ dist)  # Omega - Omega* <= gap
        if gap <= tol * omega:
            return (omega, LinkLoads.from_load(load, cap), steps, gap / omega,
                    sum(map(len, pools)))
        if steps == max_iters:
            break
        d = inc @ w + pad
        # a pool path within rounding of the distance is a shortest one
        short = np.flatnonzero(d.min(axis=1) > dist * (1 + 1e-12))
        if short.size:
            _, pred = shortest_path_trees(topo, src[short],
                                          np.broadcast_to(w, (short.size, m)))
            new, slots = [], []
            for i, fi in enumerate(short):
                path = tree_path(topo, pred[i], src[fi], dst[fi])
                if path not in pools[fi]:
                    slots.append(len(pools[fi]))
                    pools[fi].append(path)
                    new.append((fi, path))
            if new:
                grow = max(map(len, pools)) - width
                if grow:
                    width += grow
                    inc = np.pad(inc, ((0, 0), (0, grow), (0, 0)))
                    pad = np.pad(pad, ((0, 0), (0, grow)), constant_values=np.inf)
                    x = np.pad(x, ((0, 0), (0, grow)))
                _place(inc, pad, new, slots)
                d = inc @ w + pad
        best = d.argmin(axis=1)  # each flow's first cheapest path
        # the delay's second derivative along a shift onto the best path:
        # h = 2c/(c-l)^3 summed over the links on exactly one of the two
        hess = np.abs(inc - inc[rows, best][:, None]) @ (2.0 * w / room)
        hess[rows, best] = np.inf
        newton = (d - d[rows, best][:, None]) / hess
        while True:
            shift = np.minimum(x, alpha * newton)
            trial = x - shift
            trial[rows, best] += shift.sum(axis=1)
            trial_load = trial.reshape(-1) @ inc.reshape(-1, m)
            if np.all(trial_load < cap):
                trial_omega = float(np.sum(trial_load / (cap - trial_load)))
                if trial_omega <= omega:
                    break
            alpha *= 0.5
        x, load, omega = trial, trial_load, trial_omega
        alpha = min(1.0, 2.0 * alpha)
    raise RuntimeError(f"delay optimum not certified after max_iters={max_iters} "
                       f"steps: relative duality gap {gap / omega:.3g} > tol={tol}")


def solve_delay_optimal(topo, tm, start=None, max_iters=5000, tol=1e-5):
    """Minimize the delay proxy over all feasible routings by path-based
    gradient projection.

    Starts from `start`, the all-flows optimum's ReroutingSolution (solved
    here when not given): its path pools and shares. Its max utilization
    must lie strictly under 1, else the instance is overloaded. Each step
    moves flow in every pair at once (see the module docstring). The loop
    stops only when the Frank-Wolfe duality gap w.l - sum r dist is within
    relative `tol` of the delay, which then lies within `tol` of the
    minimum (and, as the delay of a feasible routing, never below it).
    After `max_iters` steps without that certificate it raises
    RuntimeError; on 480 matrices of an 8-node, 28-link net at ECMP
    utilization 0.9 it took at most 362 steps.

    Returns (omega, LinkLoads).
    """
    omega, loads, *_ = _delay_optimum(topo, tm, start, max_iters, tol)
    return omega, loads
