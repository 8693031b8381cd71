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
Each later round appends its new path columns after each LP's last
column, in flow order, as column generation's restricted master takes
them, and starts from the previous round's optimal basis and its B^-1,
the slacks, numbered after the stack's columns, shifted by the change in
its width: the new paths enter nonbasic at 0, so the basis stays primal
feasible and B stays the same matrix. Every round thus starts from a
feasible basis, the only start solve_lp takes, and none inverts B. The
solution records its last LP's columns in order, and build_path_lp over
them rebuilds that LP. An LP narrower than the stack is padded after its
own columns with zero columns of zero cost, which price at exactly 0 and
never enter, and gets the bits it gets alone. Nothing is kept from one
call to the next.

Also here: the all-flows optimum, the network delay proxy sum(load /
(capacity - load)), and its minimizer over all routings by projected
Newton steps over path flows (Bertsekas & Gafni 1983; Bertsekas &
Gallager, Data Networks, 2nd ed. 1992, 5.7). The optimum is this same
path LP over every flow with demand, over zero background, and the delay
minimizer starts from its path pools and shares. The pools are sparse:
each path is its link ids plus its pair, so path lengths are an
np.add.reduceat over hops and loads an np.bincount. Each step works
under the marginal delays w = c/(c-l)^2 and the curvatures h =
2c/(c-l)^3. One shortest_path_trees pass per step, from the pairs'
distinct sources under w, gives every pair's distance, for the duality
gap, and its shortest-path tree; a pair whose pool lacks a path as
short as its distance gains its tree's path. Each
pair's largest-flow path is its reference and carries the rest of its
demand; the other paths' flows are the variables. The paths that a
diagonal Newton step would empty are the epsilon-binding set (Bertsekas
1982) and take that step; the others take a few Jacobi-preconditioned
conjugate-gradient iterations on the reduced Hessian
sum_e h_e (a_p - a_ref)(a_q - a_ref)^T, which couples the pairs through
their shared links, so shifts of many pairs onto one link are sized
together. The step follows the projection arc max(0, x + t v), and t
halves from 1 until the references stay >= 0, the loads under capacity
and the delay does not rise. The loop stops only on the Frank-Wolfe
duality gap w.l - sum r dist, which certifies the delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .ecmp import LinkLoads
from .simplex import REDUCED_COST_TOL, LpProblem, solve_lp
from .topology import shortest_path_trees, tree_path

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
    # the final LP's path columns in order, one ((s, d), path) each
    columns: list = field(default_factory=list)
    # pivots of each column-generation round's LP
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


def build_path_lp(topo, tm, background_load, columns, epsilon):
    """Assemble the path LP over the given columns, one ((s, d), path)
    each, a path being a tuple of link indices: variable 0 is U, then one
    variable per column, in order. Rows: one capacity row per link, in
    utilization units, then one convexity row per flow, flows in order of
    first appearance."""
    flows = list(dict.fromkeys(f for f, _ in columns))
    position = {f: fi for fi, f in enumerate(flows)}
    cols = [(position[f], p) for f, p in columns]
    names = ["U"]
    for (s, d), p in columns:
        hops = "_".join(str(topo.links[e].src) for e in p)
        names.append(f"x{s}_{d}__{hops}_{d}")
    m, k = topo.link_count, len(flows)
    rows, costs = _path_columns(topo, np.array([tm.demand[f] for f in flows]), cols, epsilon)
    u_col = np.zeros((m + k, 1))
    u_col[:m] = -1.0
    b = np.concatenate([-np.asarray(background_load, dtype=float) / topo.capacity,
                        np.ones(k)])
    return LpProblem(c=np.concatenate([[1.0], costs]), a=np.hstack([u_col, rows.T]),
                     rel=["<="] * m + ["="] * k, b=b, var_names=names)


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
    returned `paths` hold each flow's final pool and `columns` the last
    LP's columns in order, so
    build_path_lp(topo, tm, background, columns, epsilon) is the last LP
    solved. A flow listed twice, or from a node to itself, raises
    ValueError. This is solve_rerouting_batch's batch of one.
    """
    return solve_rerouting_batch(topo, [tm], [critical], [background], epsilon)[0]


def solve_rerouting_batch(topo, tms, criticals, backgrounds, epsilon=None):
    """solve_rerouting for each (matrix, critical flows, background)
    triple, as one stack of path LPs; every critical set has the same
    size K, else ValueError.

    Each round solves the LPs still pricing in one solve_lp call, each
    from its own basis and B^-1, and prices all their flows in one
    shortest_path_trees pass; an LP leaves the stack once no path prices
    below zero. Each LP's new columns are appended after its last one in
    the stack's column store, so the structural part of its basis carries
    over as it is. Every solution has the bits it has when solved alone.
    Returns one ReroutingSolution per triple.
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
    pred = topo.cost_pred
    pools = [[[tree_path(topo, pred[s], s, d)] for s, d in f] for f in flows]
    seeds = [(lp * k + fi, pool[0]) for lp in range(size)
             for fi, pool in enumerate(pools[lp])]
    # the column store: column j of stack LP i is store[i, j], U first;
    # past an LP's width, zero columns of zero cost pad it to the stack's
    store = np.zeros((size, 1 + 2 * k, m + k))
    cost = np.zeros(store.shape[:2])
    store[:, 0, :m], cost[:, 0] = -1.0, 1.0
    seed_cols, seed_cost = _path_columns(topo, demand, seeds, epsilon)
    store[:, 1:k + 1] = seed_cols.reshape(size, k, m + k)
    cost[:, 1:k + 1] = seed_cost.reshape(size, k)
    bg = np.array(bgs)
    basis, binv = _crash_start(topo, demand, seeds, bg, store[:, 1:k + 1, :m])
    rhs = np.concatenate([-bg / topo.capacity, np.ones((size, k))], axis=1)
    rel = ["<="] * m + ["="] * k
    width = np.full(size, 1 + k)
    lp_of = np.arange(size)  # the batch position of each LP in the stack
    stack_demand = demand
    done = [None] * size
    round_pivots = [[] for _ in flows]
    round_columns = [[k] for _ in flows]
    columns = [[(f, pool[0]) for f, pool in zip(fl, pl)] for fl, pl in zip(flows, pools)]
    n = 1 + k
    while True:
        # views of the column store: the next round's columns write to it
        problem = LpProblem(c=cost[:, :n], a=store[:, :n].transpose(0, 2, 1), rel=rel,
                            b=rhs)
        sol = solve_lp(problem, basis=basis, binv=binv)
        for lp, pivots in zip(lp_of.tolist(), sol.pivots.tolist()):
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
            lp = lp_of[i]
            pool = pools[lp][fi]
            # a path already in the pool prices >= -tol in the LP just
            # solved, whatever this sum rounds to: never add it twice
            if path not in pool:
                pool.append(path)
                columns[lp].append((flows[lp][fi], path))
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
            (store, cost, rhs, stack_demand, src, dst, width, lp_of, basis, binv,
             added) = (v[keep] for v in (store, cost, rhs, stack_demand, src, dst, width,
                                         lp_of, basis, binv, added))
            owner = np.searchsorted(keep, owner)
        cols, costs = _path_columns(topo, stack_demand,
                                    list(zip((owner * k + fis).tolist(),
                                             (path for _, path in new))), epsilon)
        n_next = int((width + added).max())
        if n_next > store.shape[1]:  # the column store at least doubles
            extra = max(n_next, 2 * store.shape[1]) - store.shape[1]
            store, cost = (
                np.concatenate([v, np.zeros((v.shape[0], extra, *v.shape[2:]))], axis=1)
                for v in (store, cost))
        # each LP's new paths go after its last column, in flow order
        at = width[owner] + np.arange(len(new)) - np.searchsorted(owner, owner)
        store[owner, at], cost[owner, at] = cols, costs
        width = width + added
        # the new columns enter nonbasic at 0: each optimal basis stays
        # feasible, and B, so B^-1, is unchanged; the slacks, numbered
        # after the stack's columns, shift with its width
        basis = np.where(basis < n, basis, basis - n + n_next)
        for lp, count in zip(lp_of.tolist(), added.tolist()):
            round_columns[lp].append(count)
        n = n_next
    return [_solution(topo, flows[lp], pools[lp], columns[lp], demand[lp], bgs[lp], *done[lp],
                      round_pivots[lp], round_columns[lp]) for lp in range(size)]


def _background_only(topo, bg):
    loads = LinkLoads.from_load(bg, topo.capacity)
    return ReroutingSolution(sigma={}, u=loads.max_utilization,
                             objective=loads.max_utilization, link_loads=loads)


def _solution(topo, flows, pools, columns, demand, bg, x, objective, round_pivots,
              round_columns):
    """One LP's ReroutingSolution from its final shares x (U first, then
    one per column)."""
    k, m = len(flows), topo.link_count
    position = {f: fi for fi, f in enumerate(flows)}
    # each flow's ratios: the sum of its paths' shares, in pool order
    fis, hops, links = _flat_paths([(position[f], p) for f, p in columns])
    ratios = np.zeros((k, m))
    np.add.at(ratios, (np.repeat(fis, hops), links), np.repeat(x[1:], hops))
    load = bg + demand @ ratios
    # a flow's columns, in column order, are its pool
    by_flow = x[1:][np.argsort(fis, kind="stable")]
    bounds = np.cumsum([0] + [len(pool) for pool in pools]).tolist()
    shares = [by_flow[a:b] for a, b in zip(bounds, bounds[1:])]
    loads = LinkLoads.from_load(load, topo.capacity)
    return ReroutingSolution(sigma=dict(zip(flows, ratios)), u=loads.max_utilization,
                             objective=objective, link_loads=loads,
                             paths=dict(zip(flows, pools)), shares=dict(zip(flows, shares)),
                             columns=columns, round_pivots=round_pivots,
                             round_columns=round_columns)


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
    from a crash basis and never inverts B.

    Returns (u_opt, ReroutingSolution); u_opt is its loads' max
    utilization, and its path pools and shares start solve_delay_optimal.
    """
    flows = [f for f in topo.flows() if tm.demand[f] > 0]
    sol = solve_rerouting(topo, tm, flows, np.zeros(topo.link_count))
    return sol.u, sol


def check_rerouting_feasibility(topo, tm, solution, background, tol=CONSERVATION_TOL):
    """Independent constraint check of a ReroutingSolution (not the solver's
    own residuals). Raises AssertionError naming the violated family."""
    load = _load_vector(background)
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
    load = _load_vector(loads)
    cap = topo.capacity
    if np.any(load >= cap):
        return float("inf")
    return float(np.sum(load / (cap - load)))


# conjugate-gradient iterations per projected Newton step
_CG_ITERS = 6
# the delay optimum stops once its Frank-Wolfe duality gap is within this
# share of the delay
DELAY_GAP_TOL = 1e-5


@dataclass
class _DelayRun:
    """What _delay_optimum did."""
    omega: float
    loads: LinkLoads
    steps: int       # projected Newton steps
    gap: float       # the final relative duality gap
    pool: int        # paths in the pools at the end
    cg_iters: int    # conjugate-gradient iterations, all steps together
    backtracks: int  # halvings of t along the steps' arcs, all together


def _path_loads(links, hops, flow, m):
    """The link loads of the given flow on each path of a sparse pool."""
    return np.bincount(links, np.repeat(flow, hops), m)


def _newton_step(links, hops, owner, x, lengths, h):
    """The projected Newton step of _delay_optimum from the flows x (see
    the module docstring): (each pair's reference path, the step of
    every path, CG iterations). The reference is the pair's largest-flow
    path, the first on ties; h = 2c/(c-l)^3 per link.
    """
    n, k, m = len(x), owner[-1] + 1, len(h)
    starts = np.cumsum(hops) - hops
    first = np.searchsorted(owner, np.arange(k))
    top = np.maximum.reduceat(x, first)[owner]
    ref = np.minimum.reduceat(np.where(x == top, np.arange(n), n), first)
    ref_of = ref[owner]
    moving = np.ones(n, dtype=bool)
    moving[ref] = False
    grad = lengths - lengths[ref_of]
    # H_pp: h summed over the links on exactly one of p and its reference
    hop_path = np.repeat(np.arange(n), hops)
    hop_owner = owner[hop_path]
    on_ref = np.zeros((k, m), dtype=bool)
    at_ref = ~moving[hop_path]
    on_ref[hop_owner[at_ref], links[at_ref]] = True
    h_hops = h[links]
    h_path = np.add.reduceat(h_hops, starts)
    shared = np.add.reduceat(np.where(on_ref[hop_owner, links], h_hops, 0.0), starts)
    diag = h_path + h_path[ref_of] - 2.0 * shared
    diag[ref] = 1.0  # no variable; keeps the divisions below finite
    # the epsilon-binding paths (Bertsekas 1982), which a diagonal Newton
    # step would empty, take that step and stay out of the solve
    binding = moving & (grad > 0) & (x <= grad / diag)
    free = moving & ~binding
    step = np.where(binding, -grad / diag, 0.0)

    # the free paths: Jacobi-preconditioned conjugate gradients on
    # H v = -grad, H = sum_e h_e (a_p - a_ref)(a_q - a_ref)^T
    def hess_times(v):
        shift = v.copy()
        shift[ref] = -np.bincount(owner, v, k)
        lens = np.add.reduceat((h * _path_loads(links, hops, shift, m))[links], starts)
        return np.where(free, lens - lens[ref_of], 0.0)

    resid = np.where(free, -grad, 0.0)
    pre = resid / diag
    direction, rz = pre, float(resid @ pre)
    iters = 0
    while iters < _CG_ITERS and rz > 0.0:
        h_dir = hess_times(direction)
        curv = float(direction @ h_dir)
        if curv <= 0.0:
            break
        iters += 1
        a = rz / curv
        step += a * direction
        resid -= a * h_dir
        pre = resid / diag
        rz, rz_last = float(resid @ pre), rz
        direction = pre + (rz / rz_last) * direction
    return ref, step, iters


def _delay_optimum(topo, tm, start, max_iters):
    """solve_delay_optimal's work, as a _DelayRun.

    The pools are sparse and pair after pair: links holds every path's
    link ids, path after path, hops each path's number of links, owner
    its pair and x its flow. A path's length is then an np.add.reduceat
    over its hops, and the loads one np.bincount.
    """
    cap, m = topo.capacity, topo.link_count
    if tm.total_demand() == 0:
        return _DelayRun(0.0, LinkLoads.from_load(np.zeros(m), cap), 0, 0.0, 0, 0, 0)
    if start is None:
        _, start = solve_optimal_all_flows(topo, tm)
    if start.u >= 1.0 - 1e-12:
        raise OverloadedInstanceError(
            f"overloaded instance: best max utilization {start.u:.6f} >= 1")
    flows = sorted(start.paths)
    k = len(flows)
    src, dst = np.array(flows).T
    demand = tm.demand[src, dst]
    pools = [list(start.paths[f]) for f in flows]
    owner, hops, links = _flat_paths([(fi, p) for fi, pool in enumerate(pools) for p in pool])
    # the LP's shares, clipped at 0 and scaled to carry the whole demand
    x = np.concatenate([np.maximum(start.shares[f], 0.0) for f in flows])
    x = demand[owner] * x / np.bincount(owner, x, k)[owner]
    load = _path_loads(links, hops, x, m)
    omega = float(np.sum(load / (cap - load)))
    cg_iters = backtracks = 0
    # each pair's tree: the one from its source
    sources, tree = np.unique(src, return_inverse=True)
    for steps in range(max_iters + 1):
        room = cap - load
        w = cap / room ** 2
        dists, pred = shortest_path_trees(topo, sources, np.broadcast_to(w, (sources.size, m)))
        dist = dists[tree, dst]
        gap = float(w @ load - demand @ dist)  # Omega - Omega* <= gap
        if gap <= DELAY_GAP_TOL * omega:
            return _DelayRun(omega, LinkLoads.from_load(load, cap), steps, gap / omega,
                             len(x), cg_iters, backtracks)
        if steps == max_iters:
            break
        lengths = np.add.reduceat(w[links], np.cumsum(hops) - hops)
        first = np.searchsorted(owner, np.arange(k))  # each pool's first path
        # a pool path within rounding of the distance is a shortest one;
        # a pair without one gains its path in the shortest-path tree
        # from its source, after the pool's end, with no flow
        short = np.flatnonzero(np.minimum.reduceat(lengths, first) > dist * (1 + 1e-12))
        if short.size:
            new = []
            for fi in short.tolist():
                path = tree_path(topo, pred[tree[fi]], src[fi], dst[fi])
                if path not in pools[fi]:
                    pools[fi].append(path)
                    new.append((fi, path))
            if new:
                fis, new_hops, new_links = _flat_paths(new)
                end = np.append(first[1:], len(x))[fis]  # one past the pool's last path
                links = np.insert(links, np.repeat(np.cumsum(hops)[end - 1], new_hops),
                                  new_links)
                owner, hops, x = (np.insert(v, end, a) for v, a in
                                  ((owner, fis), (hops, new_hops), (x, 0.0)))
                lengths = np.add.reduceat(w[links], np.cumsum(hops) - hops)
        ref, step, iters = _newton_step(links, hops, owner, x, lengths, 2.0 * w / room)
        cg_iters += iters
        # along the projection arc max(0, x + t step), each reference
        # taking the rest of its pair's demand, t halving until the
        # references stay >= 0, the loads under capacity and the delay
        # does not rise
        t = 1.0
        while True:
            trial = np.maximum(x + t * step, 0.0)
            trial[ref] = x[ref]
            rest = x[ref] - np.bincount(owner, trial - x, k)
            if np.all(rest >= 0.0):
                trial[ref] = rest
                trial_load = _path_loads(links, hops, trial, m)
                if np.all(trial_load < cap):
                    trial_omega = float(np.sum(trial_load / (cap - trial_load)))
                    if trial_omega <= omega:
                        break
            t *= 0.5
            backtracks += 1
        x, load, omega = trial, trial_load, trial_omega
    raise RuntimeError(f"delay optimum not certified after max_iters={max_iters} "
                       f"steps: relative duality gap {gap / omega:.3g} > {DELAY_GAP_TOL}")


def solve_delay_optimal(topo, tm, start=None, max_iters=5000):
    """Minimize the delay proxy over all feasible routings by projected
    Newton steps over path flows.

    Starts from `start`, the all-flows optimum's ReroutingSolution (solved
    here when not given): its path pools and shares. Its max utilization
    must lie strictly under 1, else the instance is overloaded. Each step
    moves flow in every pair at once (see the module docstring). The loop
    stops only when the Frank-Wolfe duality gap w.l - sum r dist is within
    relative DELAY_GAP_TOL = 1e-5 of the delay, which then lies within
    that share of the minimum (and, as the delay of a feasible routing,
    never below it).
    After `max_iters` steps without that certificate it raises
    RuntimeError; on 48 matrices of an 8-node, 28-link net at ECMP
    utilization 0.9 it took at most 22 steps, and on three of a 49-node,
    172-link net at most 126.

    Returns (omega, LinkLoads).
    """
    run = _delay_optimum(topo, tm, start, max_iters)
    return run.omega, run.loads
