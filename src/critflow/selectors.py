"""Critical-flow selectors: demand heuristics, random control, brute force.

All selectors return exactly k distinct flows with deterministic
tie-breaking (ascending flow id), so runs are reproducible; a k below 0
or above the flow count raises SelectionError. The demand
heuristics are sorts: top_k by demand, top_k_critical by the most
congested ECMP link each flow crosses, then by demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

import numpy as np

from .ecmp import compute_ecmp_fractions, ecmp_link_loads
# No longer called here, but kept as a name of this module: the
# benchmark's tracer (bench/tracing.py) wraps it here.
from .rerouting import solve_rerouting  # noqa: F401
from .rerouting import solve_rerouting_batch
from .topology import flow_index, flow_of_index

TRAVERSAL_EPS = 1e-12
COMBINATION_CAP = 10_000
BRUTE_FORCE_CHUNK = 64  # subsets whose rerouting LPs brute_force_best stacks


class SelectionError(Exception):
    pass


@dataclass
class SelectionResult:
    flows: tuple           # (s, d) pairs
    method: str            # policy | top_k | top_k_critical | random | brute_force

    def __post_init__(self):
        flows = tuple((int(s), int(d)) for s, d in self.flows)
        if len(set(flows)) != len(flows):
            raise SelectionError("selected flows must be distinct")
        if any(s == d for s, d in flows):
            raise SelectionError("flows require s != d")
        self.flows = flows

    def action_ids(self, n):
        return tuple(flow_index(s, d, n) for s, d in self.flows)


def check_k(k, n_flows):
    """SelectionError unless 0 <= k <= n_flows."""
    if k < 0:
        raise SelectionError(f"k={k} is negative")
    if k > n_flows:
        raise SelectionError(f"k={k} exceeds flow count {n_flows}")


def _ranked_by_demand(tm):
    """All flows ordered by descending demand, flow-id ascending on ties."""
    n = tm.n
    flows = [(s, d) for s in range(n) for d in range(n) if s != d]
    return sorted(flows, key=lambda f: (-tm.demand[f[0], f[1]],
                                        flow_index(f[0], f[1], n)))


def top_k(tm, k):
    """The k largest flows by demand volume."""
    check_k(k, tm.n * (tm.n - 1))
    ranked = _ranked_by_demand(tm)
    return SelectionResult(flows=tuple(ranked[:k]), method="top_k")


def top_k_critical(topo, tm, k, fractions=None):
    """The k largest flows drawn from the most congested links.

    Links are walked in descending ECMP utilization (link id ascending on
    ties); each link contributes its traversing flows (ECMP fraction >
    TRAVERSAL_EPS) not yet taken, in descending demand order. As one sort:
    each flow is ranked by the best place among the links it crosses,
    then by descending demand, then by flow id, and the first k are taken.
    Every flow crosses some link (its out-link fractions at its source sum
    to 1), so the walk never runs out of flows.
    """
    n = tm.n
    check_k(k, n * (n - 1))
    if fractions is None:
        fractions = compute_ecmp_fractions(topo)
    util = ecmp_link_loads(topo, tm, fractions).load / topo.capacity
    m = topo.link_count
    place = np.empty(m, dtype=int)
    place[np.lexsort((np.arange(m), -util))] = np.arange(m)
    first = np.where(fractions.frac > TRAVERSAL_EPS, place, m).min(axis=2)
    off_diag = ~np.eye(n, dtype=bool)  # row-major: flow-id order
    order = np.lexsort((np.arange(n * (n - 1)), -tm.demand[off_diag],
                        first[off_diag]))
    flows = [flow_of_index(int(a), n) for a in order[:k]]
    return SelectionResult(flows=tuple(flows), method="top_k_critical")


def random_k(n, k, seed):
    """Uniform without-replacement sample of k flow ids of an n-node net."""
    n_flows = n * (n - 1)
    check_k(k, n_flows)
    rng = np.random.default_rng(seed)
    ids = rng.choice(n_flows, size=k, replace=False)
    flows = tuple(flow_of_index(int(a), n) for a in sorted(ids))
    return SelectionResult(flows=flows, method="random")


def brute_force_best(topo, tm, k, fractions=None):
    """Exhaustively best k-subset by rerouting-LP utilization.

    The subsets go through solve_rerouting_batch in chunks of
    BRUTE_FORCE_CHUNK, in combination order; a subset wins only by a
    utilization lower by more than 1e-12, so ties resolve to the
    lexicographically smallest flow-id subset. Returns (SelectionResult,
    u_best).
    """
    n = tm.n
    n_flows = n * (n - 1)
    check_k(k, n_flows)
    total = comb(n_flows, k)
    if total > COMBINATION_CAP:
        raise SelectionError(
            f"C({n_flows},{k}) = {total} exceeds cap {COMBINATION_CAP}")
    if fractions is None:
        fractions = compute_ecmp_fractions(topo)
    best_u, best_sel = np.inf, None
    subsets = combinations(range(n_flows), k)
    while chunk := list(islice(subsets, BRUTE_FORCE_CHUNK)):
        flows = [[flow_of_index(a, n) for a in subset] for subset in chunk]
        backgrounds = [ecmp_link_loads(topo, tm, fractions, exclude=f) for f in flows]
        for f, sol in zip(flows, solve_rerouting_batch(topo, [tm] * len(flows), flows,
                                                       backgrounds)):
            if sol.u < best_u - 1e-12:
                best_u, best_sel = sol.u, f
    return SelectionResult(flows=tuple(best_sel), method="brute_force"), float(best_u)
