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

Many LPs of one K are solved in lockstep (solve_rerouting_batch; a
single call is its batch of one): one stack of path LPs, each
re-optimized from its last basis as columns arrive (Lübbecke &
Desrosiers 2005). Each round makes one solve_lp call over the LPs still
pricing and one shortest_path_trees pass over all their flows; an LP
leaves the stack once no path prices below zero. The first round starts
from a crash basis (Bixby 1992): every flow on its seed path, U at the
seed routing's max utilization, basic in that link's capacity row, and
the slacks of the other capacity rows, whose B^-1 has a closed form.
Each later round inserts its new path columns into the stack's column
store after their flows' pools, in the order build_path_lp gives them,
and starts from the previous round's optimal basis, renumbered around
them, and its B^-1: the new paths enter nonbasic at 0, so the basis
stays primal feasible and B stays the same matrix. No round needs a
phase 1 or inverts B. An LP narrower than the stack is padded with
zero columns fixed at 0 after its own, and gets the bits it gets alone.
Nothing is kept from one call to the next.

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
    """The path LP's columns for the (flow, path) pairs in cols, one row
    each, and their costs: the flow's demand over capacity on the path's
    capacity rows, 1 on the flow's convexity row, cost eps per hop. For
    a (K,) demand a flow is its position; for a stack's (B, K) demand,
    LP * K + its position in that LP."""
    m, k = topo.link_count, demand.shape[-1]
    fis, hops, links = _flat_paths(cols)
    j = np.arange(len(cols))
    rows = np.zeros((len(cols), m + k))
    rows[np.repeat(j, hops), links] = (np.repeat(demand.reshape(-1)[fis], hops)
                                       / topo.capacity[links])
    rows[j, m + fis % k] = 1.0
    return rows, epsilon * hops


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
    rows, costs = _path_columns(topo, demand, cols, epsilon)
    return _path_lp(topo, flows, background_load, rows.T, costs, names=names)


def _check_flows(flows):
    """Raise ValueError on a self-pair or a flow listed twice (flows sorted)."""
    for i, (s, d) in enumerate(flows):
        if s == d:
            raise ValueError(f"flow ({s}, {d}) has its source as destination")
        if i and flows[i - 1] == flows[i]:
            raise ValueError(f"flow ({s}, {d}) is listed twice")


def _load_vector(background):
    return np.asarray(background.load if isinstance(background, LinkLoads)
                      else background, dtype=float)


def solve_rerouting(topo, tm, critical, background, epsilon=None):
    """Optimal split ratios for the flows in `critical` given fixed
    background loads (from ECMP with those flows excluded).

    Column generation over simple paths (see the module docstring); the
    returned `paths` hold each flow's final pool, so
    build_path_lp(topo, tm, sorted(critical), background, paths, epsilon)
    is the last LP solved. A flow listed twice, or from a node to itself,
    raises ValueError. This is solve_rerouting_batch's batch of one.
    """
    return solve_rerouting_batch(topo, [tm], [critical], [background], epsilon)[0]


def solve_rerouting_batch(topo, tms, criticals, backgrounds, epsilon=None):
    """solve_rerouting for each (matrix, critical flows, background)
    triple, as one stack of path LPs; every critical set has the same
    size K, else ValueError.

    Each round solves the LPs still pricing in one solve_lp call, each
    from its own basis and B^-1, and prices all their flows in one
    shortest_path_trees pass; an LP leaves the stack once no path prices
    below zero. The new columns go into the stack's column store in
    place, each after its flow's pool. Every solution has the bits it has
    when solved alone. Returns one ReroutingSolution per triple.
    """
    bgs = [_load_vector(bg) for bg in backgrounds]
    flows = [sorted(c) for c in criticals]
    if not len(tms) == len(flows) == len(bgs):
        raise ValueError("one matrix, critical set and background per LP")
    for f in flows:
        _check_flows(f)
    k = len(flows[0]) if flows else 0
    if any(len(f) != k for f in flows):
        raise ValueError("the critical sets of one batch must have one size")
    if k == 0:
        return [_background_only(topo, bg) for bg in bgs]
    if epsilon is None:
        epsilon = default_epsilon(topo, k)
    m, size = topo.link_count, len(flows)
    inv_cap = 1.0 / topo.capacity
    src, dst = np.array(flows).transpose(2, 0, 1)  # (B, K) each
    demand = np.array([tm.demand[s, d] for tm, s, d in zip(tms, src, dst)])
    # seeds: each flow's path in the min-cost tree from its source
    pred = topo.cost_tree_preds
    pools = [[[tree_path(topo, pred[s], s, d)] for s, d in f] for f in flows]
    seeds = [(lp * k + fi, pool[0]) for lp in range(size)
             for fi, pool in enumerate(pools[lp])]
    # the column store: column j of stack LP i is store[i, j], U first;
    # past an LP's width, zero columns fixed at 0 pad it to the stack's
    store = np.zeros((size, 1 + 2 * k, m + k))
    cost = np.zeros(store.shape[:2])
    upper = np.zeros(store.shape[:2])
    store[:, 0, :m], cost[:, 0], upper[:, :1 + k] = -1.0, 1.0, np.inf
    seed_cols, seed_cost = _path_columns(topo, demand, seeds, epsilon)
    store[:, 1:k + 1] = seed_cols.reshape(size, k, m + k)
    cost[:, 1:k + 1] = seed_cost.reshape(size, k)
    bg = np.array(bgs)
    basis, binv = _crash_start(topo, demand, seeds, bg, store[:, 1:k + 1, :m])
    rhs = np.concatenate([-bg / topo.capacity, np.ones((size, k))], axis=1)
    rel = ["<="] * m + ["="] * k
    width = np.full(size, 1 + k)
    ends = np.tile(np.arange(2, k + 2), (size, 1))  # one past each flow's last column
    lp_of = np.arange(size)  # the batch position of each LP in the stack
    stack_demand = demand
    done = [None] * size
    round_pivots = [[] for _ in flows]
    round_columns = [[k] for _ in flows]
    n = 1 + k
    while True:
        # views of the column store: the next round's insertions write to it
        problem = LpProblem(c=cost[:, :n], a=store[:, :n].transpose(0, 2, 1), rel=rel,
                            b=rhs, upper=upper[:, :n])
        sol = solve_lp(problem, basis=basis, binv=binv)
        for lp, pivots in zip(lp_of.tolist(), zip(sol.phase1_iterations.tolist(),
                                                   sol.phase2_iterations.tolist())):
            round_pivots[lp].append(pivots)
        y, mu = sol.duals[:, :m], sol.duals[:, m:]
        # y <= 0 on the capacity rows, up to the solver's tolerance
        weights = np.maximum(epsilon - stack_demand[:, :, None] * (y * inv_cap)[:, None, :],
                             0.0)
        dist, tree = shortest_path_trees(topo, src.reshape(-1), weights.reshape(-1, m))
        cheap = dist[np.arange(src.size), dst.reshape(-1)].reshape(src.shape) - mu
        new = []  # (stack position * K + flow position, path)
        for i, fi in zip(*np.nonzero(cheap < -REDUCED_COST_TOL)):
            g = i * k + fi
            path = tree_path(topo, tree[g], src[i, fi], dst[i, fi])
            pool = pools[lp_of[i]][fi]
            # a path already in the pool prices >= -tol in the LP just
            # solved, whatever this sum rounds to: never add it twice
            if path not in pool:
                pool.append(path)
                new.append((g, path))
        owner, fis = np.divmod(np.array([g for g, _ in new], dtype=int), k)
        added = np.bincount(owner, minlength=lp_of.size)
        for i in (np.flatnonzero(added == 0) if new else range(lp_of.size)):
            done[lp_of[i]] = (sol.x[i, :width[i]], float(sol.objective[i]))
        if not new:
            break
        basis, binv = sol.basis, sol.binv
        if not added.all():  # the finished LPs leave the stack
            keep = np.flatnonzero(added)
            (store, cost, upper, rhs, stack_demand, src, dst, width, ends, lp_of, basis,
             binv, added) = (v[keep] for v in (store, cost, upper, rhs, stack_demand, src,
                                                dst, width, ends, lp_of, basis, binv, added))
            owner = np.searchsorted(keep, owner)
        cols, costs = _path_columns(topo, stack_demand,
                                    list(zip((owner * k + fis).tolist(),
                                             (path for _, path in new))), epsilon)
        n_next = int((width + added).max())
        if n_next > store.shape[1]:  # the column store at least doubles
            extra = max(n_next, 2 * store.shape[1]) - store.shape[1]
            store, cost, upper = (
                np.concatenate([v, np.zeros((v.shape[0], extra, *v.shape[2:]))], axis=1)
                for v in (store, cost, upper))
        # each new path goes after its flow's pool, as build_path_lp has it:
        # inserted before column `at`, the q-th of an LP's new paths lands
        # at at + q, and its column j at j + (its new paths with at <= j)
        at = ends[owner, fis]
        rank = np.arange(len(new)) - np.searchsorted(owner, owner)
        shift = np.zeros((lp_of.size, n + 1), dtype=int)
        np.add.at(shift, (owner, at), 1)
        dest = np.arange(n) + np.cumsum(shift, axis=1)[:, :n]
        moved, col = np.nonzero(np.arange(n) < width[:, None])
        store[moved, dest[moved, col]] = store[moved, col]
        cost[moved, dest[moved, col]] = cost[moved, col]
        store[owner, at + rank], cost[owner, at + rank] = cols, costs
        width = width + added
        upper[:, :n_next][np.arange(n_next) < width[:, None]] = np.inf
        ends += np.cumsum(np.bincount(owner * k + fis, minlength=ends.size).reshape(ends.shape),
                          axis=1)
        # the new columns enter nonbasic at 0: each optimal basis stays
        # feasible, and B, so B^-1, is unchanged; the slacks, numbered
        # after the stack's columns, shift with its width
        structural = basis < n
        basis = np.where(structural, dest[np.arange(lp_of.size)[:, None],
                                          np.where(structural, basis, 0)],
                         basis - n + n_next)
        for lp, count in zip(lp_of.tolist(), added.tolist()):
            round_columns[lp].append(count)
        n = n_next
    return [_solution(topo, flows[lp], pools[lp], demand[lp], bgs[lp], *done[lp],
                      round_pivots[lp], round_columns[lp]) for lp in range(size)]


def _background_only(topo, bg):
    loads = LinkLoads.from_load(bg, topo.capacity)
    return ReroutingSolution(sigma={}, u=loads.max_utilization,
                             objective=loads.max_utilization, link_loads=loads)


def _solution(topo, flows, pools, demand, bg, x, objective, round_pivots, round_columns):
    """One LP's ReroutingSolution from its final shares x (U first)."""
    k, m = len(flows), topo.link_count
    # each flow's ratios: the sum of its paths' shares, in pool order
    fis, hops, links = _flat_paths([(fi, p) for fi, pool in enumerate(pools) for p in pool])
    ratios = np.zeros((k, m))
    np.add.at(ratios, (np.repeat(fis, hops), links), np.repeat(x[1:], hops))
    load = bg + demand @ ratios
    bounds = np.cumsum([1] + [len(pool) for pool in pools]).tolist()
    shares = [x[a:b] for a, b in zip(bounds, bounds[1:])]
    loads = LinkLoads.from_load(load, topo.capacity)
    return ReroutingSolution(sigma=dict(zip(flows, ratios)), u=loads.max_utilization,
                             objective=objective, link_loads=loads,
                             paths=dict(zip(flows, pools)), shares=dict(zip(flows, shares)),
                             round_pivots=round_pivots, round_columns=round_columns)


def _crash_start(topo, demand, seeds, bg, seed_rows):
    """The first round's basis and B^-1 for every LP of a stack whose
    columns are U, then one seed path per flow (Bixby's crash basis):
    every flow on its seed path, U basic in the capacity row of the most
    utilized link (the lowest row on ties) and the slacks of every other
    capacity row, which hold U minus their link's utilization. seeds are
    (LP * K + flow position, path) pairs, as for _path_columns, and
    seed_rows[i, f] the capacity rows of LP i's flow f's seed column.

    B^-1 has a closed form, built in O(m (m + K)): with Q the seed paths'
    capacity rows and r the row of U, B = [[P, Q], [0, I]], where P is
    the identity with column r all -1, its own inverse. So B^-1 =
    [[P, -P Q], [0, I]], and -P Q is Q[r] - Q on every row but r, Q[r]
    on row r."""
    size, k = demand.shape
    m = topo.link_count
    fis, hops, links = _flat_paths(seeds)
    load = np.array(bg, dtype=float)
    np.add.at(load, (np.repeat(fis // k, hops), links), np.repeat(demand.reshape(-1)[fis], hops))
    top = np.argmax(load / topo.capacity, axis=1)
    lps = np.arange(size)
    # slack of capacity row i is column 1 + k + i; flow fi's seed path is 1 + fi
    basis = np.tile(np.concatenate([1 + k + np.arange(m), 1 + np.arange(k)]), (size, 1))
    basis[lps, top] = 0
    q_top = seed_rows[lps, :, top]
    binv = np.zeros((size, m + k, m + k))
    binv.reshape(size, -1)[:, ::m + k + 1] = 1.0
    binv[lps[:, None], np.arange(m), top[:, None]] = -1.0
    binv[:, :m, m:] = q_top[:, None, :] - seed_rows.transpose(0, 2, 1)
    binv[lps, top, m:] = q_top
    return basis, binv


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
