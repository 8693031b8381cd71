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
(capacity - load)), and its minimizer over all routings via Frank-Wolfe
(the flow deviation method of Fratta, Gerla & Kleinrock 1973). The
optimum is this same path LP over every flow with demand, over zero
background. Frank-Wolfe starts from its loads. Each step is vectorized:
the all-or-nothing direction takes every node's next link toward every
destination from the all-pairs distances of topology.shortest_distances
(ties to the earlier out-link) and pushes all demands down those links
hop by hop with bincount; the line search takes bracketed Newton steps
on the delay's slope until the bracket is two adjacent floats. It stops
either on a small duality gap, which certifies the delay, or on a step
that gains little, which does not (see solve_delay_optimal).
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
    m, n, k = topo.link_count, topo.node_count, len(flows)
    src, dst = np.array(flows).T
    demand = tm.demand[src, dst]
    inv_cap = 1.0 / topo.capacity
    # seeds: one min-cost tree from every node
    _, pred = shortest_path_trees(topo, np.arange(n),
                                  np.broadcast_to(topo.cost, (n, m)))
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
    loads = LinkLoads.from_load(load, topo.capacity)
    return ReroutingSolution(sigma=sigma, u=loads.max_utilization,
                             objective=sol.objective, link_loads=loads,
                             paths=paths, round_pivots=round_pivots,
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

    Returns (u_opt, LinkLoads); u_opt is the loads' max utilization.
    """
    flows = [f for f in topo.flows() if tm.demand[f] > 0]
    loads = solve_rerouting(topo, tm, flows, np.zeros(topo.link_count)).link_loads
    return loads.max_utilization, loads


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


TIE_TOL = 1e-15


def _next_links(topo, weights):
    """next_link[i, d]: the out-link of node i on its min-weight path to d
    (-1 where i == d).

    The distances to every destination come from `shortest_distances`.
    Node i then takes the out-link e that attains the least
    weights[e] + dist[dst_e, d], column by column over
    `topo.out_link_table`: the earlier out-link wins unless a later one is
    lower by more than TIE_TOL. The table's padding repeats a node's first
    out-link, so it never wins. The sums can round differently from a
    Dijkstra's, which matters only where two out-links tie to within
    rounding.
    """
    n = topo.node_count
    table = topo.out_link_table
    dist = shortest_distances(topo, weights)
    via = weights[table][:, :, None] + dist[topo.link_dst[table]]
    best, next_link = via[:, 0].copy(), np.repeat(table[:, :1], n, axis=1)
    for j in range(1, table.shape[1]):
        better = via[:, j] < best - TIE_TOL
        np.copyto(best, via[:, j], where=better)
        np.copyto(next_link, table[:, j:j + 1], where=better)
    np.fill_diagonal(next_link, -1)
    return next_link


def _all_or_nothing(topo, demand, weights):
    """Route every demand on a single min-weight path; aggregate link loads.

    All demands move together hop by hop down the next links of
    _next_links, one pair of bincounts per hop, at most N - 1 hops. The
    mass is an N x N array, flattened: cell i*N + d holds what sits at
    node i bound for d, and moves to cell dst*N + d, or to the sink cell
    N*N once dst is d.
    """
    n, m = topo.node_count, topo.link_count
    next_link = _next_links(topo, weights).reshape(-1)
    dest = np.tile(np.arange(n), n)
    head = topo.link_dst[next_link]
    to_cell = np.where(head == dest, n * n, head * n + dest)
    mass = np.array(demand, dtype=float).reshape(-1)
    mass[::n + 1] = 0.0
    loads = np.zeros(m)
    for _ in range(n - 1):
        live = np.flatnonzero(mass > 0)
        if live.size == 0:
            break
        amount = mass[live]
        loads += np.bincount(next_link[live], weights=amount, minlength=m)
        mass = np.bincount(to_cell[live], weights=amount, minlength=n * n + 1)[:-1]
    return loads


def _line_search(load, step_dir, cap, t_ub):
    """Frank-Wolfe's step length along step_dir (s) from load (l): t_ub
    when the delay still falls there, else the largest float t in
    [0, t_ub) with dphi(t) <= 0 < dphi(the next float after t), where

        dphi(t)  = sum s c / (c - l - t s)^2
        dphi'(t) = sum 2 s^2 c / (c - l - t s)^3

    is the delay's slope along the step; it rises with t (0 if dphi(0) > 0
    already). The search keeps a bracket lo < hi with
    dphi(lo) <= 0 < dphi(hi), from [0, t_ub], and ends when lo and hi are
    adjacent floats. Each point is a Newton step from the last one, scaled
    by `reach`: Newton tends to close in on the root from one side, so
    reach doubles each time a point lands on the same side as the last,
    until one lands across. A step shorter than reach float spacings is
    lengthened to that, and a point outside the bracket is replaced by its
    midpoint.
    """
    sc, s2 = step_dir * cap, 2.0 * step_dir

    def slope(t):
        gap = cap - (load + t * step_dir)
        g = sc / gap ** 2
        return float(g.sum()), float(g @ (s2 / gap))

    f, df = slope(t_ub)
    if f <= 0:
        return t_ub
    t, above, reach = 0.0, False, 1.0
    f, df = slope(t)
    if f > 0:
        return 0.0    # no step lowers the delay
    lo, hi = 0.0, t_ub
    while np.nextafter(lo, hi) < hi:
        step = -reach * f / df
        shortest = reach * float(np.spacing(t))
        if abs(step) < shortest:
            step = shortest if f <= 0 else -shortest
        x = t + step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        f, df = slope(x)
        reach = 2.0 * reach if (f > 0) == above else 1.0
        above = f > 0
        if above:
            hi = x
        else:
            lo = x
        t = x
    return lo


def solve_delay_optimal(topo, tm, start=None, max_iters=500, tol=1e-5):
    """Minimize the delay proxy over all feasible routings via Frank-Wolfe.

    Starts from `start`, the LinkLoads of the min-max-utilization optimum
    (solved here when not given), which must leave every link strictly
    under capacity, else the instance is overloaded. Each step routes
    everything on shortest paths under the marginal-delay weights
    c/(c-l)^2 and line-searches toward that corner. Both are a few numpy
    operations: _all_or_nothing finds every node's next link toward every
    destination at once (ties go to the earlier out-link) and pushes all
    demands hop by hop; _line_search runs bracketed Newton steps on the
    delay's slope down to adjacent floats.

    The loop stops at the first of: a duality gap within relative `tol`
    (the gap then certifies the value to within `tol` of the minimum), a
    step that lowers the delay by less than relative `tol`, or `max_iters`
    steps. Only the first is a certificate: after the other two the value
    can lie well above the minimum (from the optimum's loads, up to about
    0.55% on 8-node random nets and 0.95% on the 5-node ring with chords
    at ECMP utilization 0.9, over 100 matrices each). It is always the
    delay of a feasible routing, so never below the minimum.

    Returns (omega, LinkLoads).
    """
    cap = topo.capacity
    if tm.total_demand() == 0:
        zeros = LinkLoads.from_load(np.zeros(topo.link_count), cap)
        return 0.0, zeros
    if start is None:
        _, start = solve_optimal_all_flows(topo, tm)
    if start.max_utilization >= 1.0 - 1e-12:
        raise OverloadedInstanceError(
            f"overloaded instance: best max utilization {start.max_utilization:.6f} >= 1")
    load = start.load.copy()
    omega = float(np.sum(load / (cap - load)))
    for _ in range(max_iters):
        w = cap / (cap - load) ** 2
        target = _all_or_nothing(topo, tm.demand, w)
        step_dir = target - load
        gap = float(-w @ step_dir)  # Omega(load) - Omega* <= gap
        if gap <= tol * max(omega, 1e-12):
            break
        # largest step keeping strictly below capacity
        rising = step_dir > 0
        if np.any(rising):
            t_ub = min(1.0, float(np.min(
                (cap[rising] - load[rising]) / step_dir[rising])) * (1 - 1e-9))
        else:
            t_ub = 1.0

        t = _line_search(load, step_dir, cap, t_ub)
        if t <= 0:
            break
        load = load + t * step_dir
        new_omega = float(np.sum(load / (cap - load)))
        improved = omega - new_omega
        omega = new_omega
        if improved < tol * max(omega, 1e-12):
            break
    return omega, LinkLoads.from_load(load, cap)
