"""Independent oracles the tests check the library against.

These deliberately re-derive results through different algorithms than the
implementation: Floyd-Warshall + recursive splitting instead of the kept
Bellman-Ford min-cost trees + one stacked matrix inverse for ECMP; top-k-critical as a walk
over the links, hottest first, instead of one sort over the flows; bisection over max-flow feasibility instead of the
simplex for single-flow min-max routing; exhaustive vertex enumeration for
small LPs; the edge form of the rerouting LP (one split ratio per flow and
link, with conservation rows) instead of column generation over paths,
and the destination form of the all-flows optimum (one commodity per
destination, in link flows) instead of the path LP over every flow, both
solved by scipy's HiGHS rather than critflow's own simplex; a
dual certificate checked from the LP's own data instead of the solver's
word; Frank-Wolfe (all-or-nothing steps by Floyd-Warshall and one loop
over the nodes per destination, line search by plain bisection) as an
upper reference for the projected Newton delay optimum, and Kelley's
cutting planes solved by HiGHS as a lower bound on it; one heap Dijkstra
per flow instead of the batched Bellman-Ford that finds the seed paths
and prices every flow at once. The oracles that need scipy import it
when called, so this module loads without it.
"""

import heapq
from collections import deque
from itertools import combinations

import numpy as np

from critflow.ecmp import LinkLoads
from critflow.simplex import LpProblem


def floyd_warshall_dist(topo, weights=None):
    """All-pairs distances under `weights` (the link costs by default)."""
    w = topo.cost if weights is None else weights
    n = topo.node_count
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for e, lk in enumerate(topo.links):
        dist[lk.src, lk.dst] = min(dist[lk.src, lk.dst], w[e])
    for k in range(n):
        dist = np.minimum(dist, dist[:, k: k + 1] + dist[k: k + 1, :])
    return dist


def ecmp_fractions_oracle(topo, tie_tol=1e-12):
    """Per-hop equal splitting simulated by direct recursion."""
    n, m = topo.node_count, topo.link_count
    dist = floyd_warshall_dist(topo)
    frac = np.zeros((n, n, m))
    for s in range(n):
        for d in range(n):
            if s == d:
                continue

            def walk(node, mass):
                if node == d:
                    return
                hops = [e for e in topo.out_links[node]
                        if abs(dist[node, d] -
                               (topo.links[e].cost + dist[topo.links[e].dst, d])) <= tie_tol]
                share = mass / len(hops)
                for e in hops:
                    frac[s, d, e] += share
                    walk(topo.links[e].dst, share)

            walk(s, 1.0)
    return frac


def max_flow(n, arcs, s, t):
    """Edmonds-Karp. arcs: list of (u, v, capacity)."""
    cap = {}
    adj = [[] for _ in range(n)]
    for u, v, c in arcs:
        if c <= 0:
            continue
        if (u, v) not in cap:
            adj[u].append(v)
            adj[v].append(u)
            cap[(u, v)] = 0.0
            cap.setdefault((v, u), 0.0)
        cap[(u, v)] += c
    flow = 0.0
    while True:
        parent = {s: None}
        q = deque([s])
        while q and t not in parent:
            u = q.popleft()
            for v in adj[u]:
                if v not in parent and cap.get((u, v), 0.0) > 1e-12:
                    parent[v] = u
                    q.append(v)
        if t not in parent:
            return flow
        bottleneck = np.inf
        v = t
        while parent[v] is not None:
            u = parent[v]
            bottleneck = min(bottleneck, cap[(u, v)])
            v = u
        v = t
        while parent[v] is not None:
            u = parent[v]
            cap[(u, v)] -= bottleneck
            cap[(v, u)] += bottleneck
            v = u
        flow += bottleneck


def minmax_single_flow_oracle(topo, background, s, d, demand, iters=70):
    """Smallest U such that `demand` routes s->d within c*U - background.

    Feasibility at a given U is a max-flow question, which implicitly
    searches every path; bisection pins U far below the 1e-6 comparison
    tolerance.
    """
    background = np.asarray(background, dtype=float)
    if demand <= 0:
        return float(np.max(background / topo.capacity))
    lo = float(np.max(background / topo.capacity))
    hi = max(lo, 1.0)
    while not _routable(topo, background, s, d, demand, hi):
        hi *= 2.0
        if hi > 1e9:
            raise RuntimeError("oracle failed to bracket U")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if _routable(topo, background, s, d, demand, mid):
            hi = mid
        else:
            lo = mid
    return hi


def _routable(topo, background, s, d, demand, u):
    arcs = [(lk.src, lk.dst, topo.capacity[e] * u - background[e])
            for e, lk in enumerate(topo.links)]
    return max_flow(topo.node_count, arcs, s, d) >= demand - 1e-11


def dijkstra_path(topo, s, d, weights):
    """(links of a min-weight s->d path, its weight), weights >= 0.

    The path is read from Dijkstra's predecessor tree, which is acyclic
    even where weights are zero and distances tie.
    """
    w = weights.tolist()
    dist = [np.inf] * topo.node_count
    pred = [-1] * topo.node_count
    dist[s] = 0.0
    heap = [(0.0, s)]
    while heap:
        du, u = heapq.heappop(heap)
        if u == d:
            break
        if du > dist[u]:
            continue
        for e in topo.out_links[u]:
            v = topo.links[e].dst
            if du + w[e] < dist[v]:
                dist[v] = du + w[e]
                pred[v] = e
                heapq.heappush(heap, (dist[v], v))
    path = []
    node = d
    while node != s:
        path.append(pred[node])
        node = topo.links[pred[node]].src
    return tuple(reversed(path)), dist[d]


def simple_paths(topo, s, d, limit=10_000):
    """All simple paths s->d as link-index tuples (DFS)."""
    paths = []

    def dfs(node, visited, acc):
        if node == d:
            paths.append(tuple(acc))
            if len(paths) > limit:
                raise RuntimeError("too many simple paths")
            return
        for e in topo.out_links[node]:
            nxt = topo.links[e].dst
            if nxt not in visited:
                dfs(nxt, visited | {nxt}, acc + [e])

    dfs(s, {s}, [])
    return paths


def lp_vertex_enumeration_oracle(problem, tol=1e-9):
    """Minimum objective over all vertices of the (bounded) feasible region.

    Enumerates every n-subset of {rows as equalities} U {x_j = 0},
    solves, and keeps feasible points. Only for small problems.
    """
    n, k = problem.n_vars, problem.n_inequalities
    hyperplanes = []
    for i in range(problem.n_rows):
        hyperplanes.append((problem.a[i], problem.b[i]))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        hyperplanes.append((e, 0.0))
    best = np.inf
    found = False
    for combo in combinations(range(len(hyperplanes)), n):
        a_sq = np.array([hyperplanes[i][0] for i in combo])
        b_sq = np.array([hyperplanes[i][1] for i in combo])
        try:
            x = np.linalg.solve(a_sq, b_sq)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -tol):
            continue
        r = problem.a @ x - problem.b
        if np.all(r[:k] <= tol) and np.all(np.abs(r[k:]) <= tol):
            found = True
            best = min(best, float(problem.c @ x))
    if not found:
        raise RuntimeError("oracle found no feasible vertex")
    return best


def build_rerouting_lp(topo, tm, critical, background_load):
    """Edge form of the rerouting LP; variable 0 is U, then one ratio per
    (flow, link). Its size is 1 + K*M columns and M + K*N rows. The
    ratios have no bound of 1: one above 1 needs a cycle, which only adds
    load."""
    flows = sorted(critical)
    n, m = topo.node_count, topo.link_count
    k = len(flows)
    nv = 1 + k * m

    c = np.zeros(nv)
    c[0] = 1.0

    rows = []
    rhs = []
    names = ["U"]
    for fi, (s, d) in enumerate(flows):
        for e in range(m):
            lk = topo.links[e]
            names.append(f"r{s}_{d}__{lk.src}_{lk.dst}")

    def var(fi, e):
        return 1 + fi * m + e

    for e in range(m):
        row = np.zeros(nv)
        for fi, (s, d) in enumerate(flows):
            row[var(fi, e)] = tm.demand[s, d]
        row[0] = -topo.capacity[e]
        rows.append(row)
        rhs.append(-background_load[e])

    for fi, (s, d) in enumerate(flows):
        for i in range(n):
            row = np.zeros(nv)
            for e in topo.in_links[i]:
                row[var(fi, e)] += 1.0
            for e in topo.out_links[i]:
                row[var(fi, e)] -= 1.0
            rows.append(row)
            rhs.append(-1.0 if i == s else (1.0 if i == d else 0.0))

    return LpProblem(c=c, a=np.array(rows), b=np.array(rhs), n_inequalities=m,
                     var_names=names)


def edge_form_u(topo, tm, critical, background_load):
    """Max utilization of the edge-form optimum by HiGHS, read from its
    link loads."""
    _, x = highs_min(build_rerouting_lp(topo, tm, critical, background_load))
    load = np.array(background_load, dtype=float)
    for fi, (s, d) in enumerate(sorted(critical)):
        load += x[1 + fi * topo.link_count: 1 + (fi + 1) * topo.link_count] * tm.demand[s, d]
    return LinkLoads.from_load(load, topo.capacity).max_utilization


def build_optimum_lp(topo, tm):
    """Assemble the all-flows optimum; variable 0 is U, then one link flow
    (in demand units) per (destination with demand, link), destinations in
    increasing order. The conservation row at the destination itself is
    implied by the others and left out."""
    n, m = topo.node_count, topo.link_count
    dests = [d for d in range(n) if np.any(tm.demand[:, d] > 0)]
    inc = np.zeros((n, m))  # +1 where the link leaves the node, -1 where it enters
    for e, lk in enumerate(topo.links):
        inc[lk.src, e] = 1.0
        inc[lk.dst, e] = -1.0
    nv = 1 + len(dests) * m
    a = np.zeros((m + len(dests) * (n - 1), nv))
    a[:m, 0] = -topo.capacity
    rhs = [np.zeros(m)]
    for j, d in enumerate(dests):
        cols = 1 + j * m + np.arange(m)
        a[np.arange(m), cols] = 1.0
        others = [i for i in range(n) if i != d]
        a[m + j * (n - 1): m + (j + 1) * (n - 1), cols] = inc[others]
        rhs.append(tm.demand[others, d])
    c = np.zeros(nv)
    c[0] = 1.0
    return LpProblem(c=c, a=a, b=np.concatenate(rhs), n_inequalities=m)


def destination_form_u(topo, tm):
    """Max utilization of the destination-form optimum by HiGHS, read
    from its link loads."""
    _, x = highs_min(build_optimum_lp(topo, tm))
    load = x[1:].reshape(-1, topo.link_count).sum(axis=0)
    return LinkLoads.from_load(load, topo.capacity).max_utilization


def highs_min(problem):
    """(objective, x) of an LpProblem, x >= 0, solved by scipy's HiGHS
    simplex; the calling test is skipped where scipy is missing."""
    import pytest
    linprog = pytest.importorskip("scipy.optimize").linprog
    k = problem.n_inequalities
    res = linprog(problem.c, A_ub=problem.a[:k], b_ub=problem.b[:k],
                  A_eq=problem.a[k:], b_eq=problem.b[k:], bounds=(0, None),
                  method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
    return float(res.fun), res.x


def positive_cycle(topo, ratios, tol=1e-9):
    """A directed cycle of links that all carry more than `tol`, as a list of
    link indices, or None."""
    state = [0] * topo.node_count  # 0 unseen, 1 on the DFS stack, 2 finished
    stack_links = []

    def visit(u):
        state[u] = 1
        for e in topo.out_links[u]:
            if ratios[e] <= tol:
                continue
            v = topo.links[e].dst
            stack_links.append(e)
            if state[v] == 1:
                start = next(i for i, f in enumerate(stack_links)
                             if topo.links[f].src == v)
                return stack_links[start:]
            if state[v] == 0:
                found = visit(v)
                if found:
                    return found
            stack_links.pop()
        state[u] = 2
        return None

    for u in range(topo.node_count):
        if state[u] == 0:
            found = visit(u)
            if found:
                return found
    return None


def check_dual_certificate(problem, solution, tol=1e-9):
    """Check from the LP's own data that `solution.duals` prove `solution.x`
    optimal.

    Row signs: y <= tol on '<=' rows. Dual feasibility: every reduced
    cost c - y A >= -tol (tol scaled by the column's size). Strong
    duality: y b equals c x within 1e-9 relative. Raises AssertionError
    naming the failed condition.
    """
    y = np.asarray(solution.duals, dtype=float)
    assert y.shape == (problem.n_rows,), "one dual per row"
    assert np.all(y[:problem.n_inequalities] <= tol), "dual sign on a '<=' row"
    scale = 1.0 + np.abs(problem.c) + np.abs(y) @ np.abs(problem.a)
    reduced = problem.c - y @ problem.a
    worst = int(np.argmin(reduced / scale))
    assert reduced[worst] >= -tol * scale[worst], \
        f"reduced cost {reduced[worst]:.3e} of column {worst}"
    primal, dual = float(problem.c @ solution.x), float(y @ problem.b)
    assert abs(primal - dual) <= 1e-9 * max(abs(primal), abs(dual), 1e-300), \
        f"duality gap: c x = {primal!r}, y b = {dual!r}"


def next_links_oracle(topo, weights, d):
    """Each node's next link toward d under `weights`: the first out-link,
    in link order, that attains the Floyd-Warshall distance, a later one
    winning only when lower by more than 1e-15. -1 at d itself."""
    n = topo.node_count
    dist = floyd_warshall_dist(topo, weights)[:, d]
    next_link = np.full(n, -1, dtype=int)
    for i in range(n):
        if i == d:
            continue
        best_e, best_v = -1, np.inf
        for e in topo.out_links[i]:
            v = weights[e] + dist[topo.links[e].dst]
            if v < best_v - 1e-15:
                best_v, best_e = v, e
        next_link[i] = best_e
    return next_link, dist


def all_or_nothing_oracle(topo, demand, weights):
    """Every demand on its next-link path toward its destination, pushed
    node by node from the farthest; the aggregated link loads."""
    n, m = topo.node_count, topo.link_count
    loads = np.zeros(m)
    for d in range(n):
        col = demand[:, d]
        if not np.any(col > 0):
            continue
        next_link, dist = next_links_oracle(topo, weights, d)
        acc = col.copy()
        for i in np.argsort(-dist, kind="stable"):
            if i == d or acc[i] <= 0:
                continue
            e = next_link[i]
            loads[e] += acc[i]
            acc[topo.links[e].dst] += acc[i]
    return loads


def delay_slope(load, step_dir, cap, t):
    """Slope of the delay sum l/(c-l) at load + t * step_dir along step_dir."""
    lt = load + t * step_dir
    return float(np.sum(step_dir * cap / (cap - lt) ** 2))


def bisection_line_search(load, step_dir, cap, t_ub, halvings=80):
    """Frank-Wolfe's step length by bisection on the delay's slope: t_ub
    when the slope there is <= 0, else the lower end of the bracket after
    `halvings` halvings of [0, t_ub]."""
    if delay_slope(load, step_dir, cap, t_ub) <= 0:
        return t_ub
    lo, hi = 0.0, t_ub
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        if delay_slope(load, step_dir, cap, mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


def frank_wolfe_oracle(topo, tm, start, max_iters=500, tol=1e-5):
    """Frank-Wolfe (the flow deviation method of Fratta, Gerla & Kleinrock
    1973) from the loads of `start`, over all_or_nothing_oracle and
    bisection_line_search. It stops at the first of a duality gap within
    relative `tol`, a step that gains less than that, or `max_iters`
    steps, so its delay is feasible but can lie above the minimum.
    Returns (omega, load, steps), steps counting the all-or-nothing
    directions computed."""
    cap = topo.capacity
    load = start.load.copy()
    omega = float(np.sum(load / (cap - load)))
    steps = 0
    for _ in range(max_iters):
        w = cap / (cap - load) ** 2
        step_dir = all_or_nothing_oracle(topo, tm.demand, w) - load
        steps += 1
        if float(-w @ step_dir) <= tol * max(omega, 1e-12):
            break
        rising = step_dir > 0
        t_ub = 1.0
        if np.any(rising):
            t_ub = min(1.0, float(np.min(
                (cap[rising] - load[rising]) / step_dir[rising])) * (1 - 1e-9))
        t = bisection_line_search(load, step_dir, cap, t_ub)
        if t <= 0:
            break
        load = load + t * step_dir
        new_omega = float(np.sum(load / (cap - load)))
        improved = omega - new_omega
        omega = new_omega
        if improved < tol * max(omega, 1e-12):
            break
    return omega, load, steps


def delay_lower_bound_kelley(topo, tm, rtol=1e-6, max_rounds=100, tangents=()):
    """A lower bound on the minimum over all routings of the delay
    sum_e f_e(l_e), f_e(l) = l / (c_e - l), certified within relative rtol
    of that minimum, from scipy's HiGHS.

    Kelley's cutting planes over link flows, one commodity per source: f_e
    is convex, so each tangent z_e >= f_e(a) + f_e'(a) (l_e - a) lies below
    it, and min sum_e z_e over every routing subject to any set of tangents
    is a lower bound. The first tangents sit at fixed shares of capacity
    and at each (M,) load vector in `tangents`; each round adds those at
    the LP's own loads, whose delay, when they lie under capacity, is an
    upper bound. It returns once the two meet, so loads given in
    `tangents` can only save rounds: the bound and its stop rest on the
    LP alone, wherever the points come from.
    """
    from scipy import sparse
    from scipy.optimize import linprog
    n, m, cap = topo.node_count, topo.link_count, topo.capacity
    sources = [s for s in range(n) if np.any(tm.demand[s] > 0)]
    if not sources:
        return 0.0
    k = len(sources)
    inc = np.zeros((n, m))  # +1 where the link leaves the node, -1 where it enters
    inc[topo.link_src, np.arange(m)] = 1.0
    inc[topo.link_dst, np.arange(m)] = -1.0
    a_eq = sparse.hstack([sparse.block_diag([sparse.csr_matrix(inc)] * k),
                          sparse.csr_matrix((k * n, m))]).tocsr()
    b_eq = []
    for s in sources:
        out = -tm.demand[s].astype(float)
        out[s] = tm.demand[s].sum()
        b_eq.append(out)
    b_eq = np.concatenate(b_eq)
    c = np.concatenate([np.zeros(k * m), np.ones(m)])
    link = np.tile(np.arange(m), 6 + len(tangents))
    at = np.concatenate([share * cap for share in (0.0, 0.5, 0.8, 0.9, 0.95, 0.99)]
                        + [np.minimum(a, 0.999 * cap) for a in tangents])
    upper = np.inf
    for _ in range(max_rounds):
        ce = cap[link]
        slope = ce / (ce - at) ** 2
        rows = np.arange(len(link))
        # slope * sum over sources of x[s, e] - z_e <= slope * a - f(a)
        a_ub = sparse.csr_matrix(
            (np.concatenate([np.repeat(slope, k), -np.ones(len(link))]),
             (np.concatenate([np.repeat(rows, k), rows]),
              np.concatenate([(link[:, None] + m * np.arange(k)).ravel(), k * m + link]))),
            shape=(len(link), (k + 1) * m))
        res = linprog(c, A_ub=a_ub, b_ub=slope * at - at / (ce - at), A_eq=a_eq,
                      b_eq=b_eq, bounds=(0, None), method="highs-ds",
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10})
        if res.status != 0:
            raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
        lower = float(res.fun)
        load = res.x[:k * m].reshape(k, m).sum(axis=0)
        if np.all(load < cap):
            upper = min(upper, float(np.sum(load / (cap - load))))
        if upper - lower <= rtol * lower:
            return lower
        link = np.concatenate([link, np.arange(m)])
        at = np.concatenate([at, np.minimum(load, 0.999 * cap)])
    raise RuntimeError(f"delay bounds {lower!r}, {upper!r} after {max_rounds} rounds")


def top_k_critical_walk(topo, tm, k, frac, traversal_eps=1e-12):
    """The k flows of the Top-K Critical heuristic by walking the links in
    descending ECMP utilization (link id ascending on ties): each link adds
    the flows with frac[s, d, e] > traversal_eps not yet taken, by
    descending demand, then flow id. Remaining slots fill from the global
    demand ranking. Returns (s, d) pairs in selection order."""
    flows = topo.flows()  # flow-id order
    flow_id = {f: a for a, f in enumerate(flows)}

    def by_demand(f):
        return (-tm.demand[f], flow_id[f])

    util = (np.tensordot(tm.demand, frac, axes=([0, 1], [0, 1]))
            / topo.capacity)
    chosen, seen = [], set()
    for e in sorted(range(topo.link_count), key=lambda e: (-util[e], e)):
        if len(chosen) >= k:
            break
        on_link = [f for f in flows if frac[f][e] > traversal_eps]
        for f in sorted(on_link, key=by_demand):
            if f not in seen:
                seen.add(f)
                chosen.append(f)
    for f in sorted(flows, key=by_demand):
        if f not in seen:
            seen.add(f)
            chosen.append(f)
    return chosen[:k]
