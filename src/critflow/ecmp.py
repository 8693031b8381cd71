"""ECMP shortest-path routing: per-flow split fractions and link loads.

Splitting follows deployed-router (OSPF) semantics: at every node, traffic
toward a destination divides equally across all next hops that lie on a
minimum-cost path, independently at each hop. The per-flow fraction on a
link is the absorption fraction that results from this per-hop process.
All destinations are solved at once, from the topology's min-cost
distances (`Topology.cost_dist`, kept at construction) and one stacked
matrix inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Two summed costs are "equal" within this tolerance; exact for integral costs.
COST_TIE_TOL = 1e-12


@dataclass
class EcmpFractions:
    """frac[s, d, e] = share of demand (s, d) carried on link e under ECMP."""

    frac: np.ndarray  # (N, N, M)

    def for_flow(self, s, d):
        return self.frac[s, d]


@dataclass
class LinkLoads:
    load: np.ndarray  # (M,)
    max_utilization: float

    @classmethod
    def from_load(cls, load, capacity):
        load = np.asarray(load, dtype=float)
        return cls(load=load, max_utilization=float(np.max(load / capacity)))


def compute_ecmp_fractions(topo):
    """Per-flow per-link ECMP split fractions for all N*(N-1) flows.

    Link e lies on a shortest path to d when dist[src_e, d] equals
    cost_e + dist[dst_e, d] within COST_TIE_TOL; it then takes the share
    1 / deg[src_e, d] of what sits at src_e bound for d, deg counting such
    links. For each destination d these shares make an acyclic transition
    matrix P[d] (every step strictly lowers the distance), and the
    expected visits (I - P[d])^-1 turn them into absorption fractions for
    every source at once: frac[s, d, e] = visits[d, s, src_e] * share[e, d].
    All N inverses are one stacked call.
    """
    n, m = topo.node_count, topo.link_count
    src, dst = topo.link_src, topo.link_dst
    dist = topo.cost_dist
    # on[e, d]: link e is a next hop toward d; nothing leaves d itself
    on = np.abs(dist[src] - (topo.cost[:, None] + dist[dst])) <= COST_TIE_TOL
    on[np.arange(m), src] = False
    deg = np.zeros((n, n))
    np.add.at(deg, src, on)
    share = on / np.maximum(deg[src], 1.0)  # (M, N)
    p = np.zeros((n, n, n))
    p[:, src, dst] = share.T
    visits = np.linalg.inv(np.eye(n) - p)  # visits[d, s, i]
    frac = np.ascontiguousarray(
        (visits[:, :, src] * share.T[:, None, :]).transpose(1, 0, 2))
    frac[np.arange(n), np.arange(n)] = 0.0
    return EcmpFractions(frac=frac)


def ecmp_link_loads(topo, tm, fractions, exclude=()):
    """Aggregate per-link loads when flows in `exclude` are lifted off ECMP.

    exclude is an iterable of (s, d) pairs; with exclude empty this is the
    full ECMP load vector.
    """
    demand = np.array(tm.demand, dtype=float, copy=True)
    for s, d in exclude:
        demand[s, d] = 0.0
    load = np.tensordot(demand, fractions.frac, axes=([0, 1], [0, 1]))
    return LinkLoads.from_load(load, topo.capacity)


def ecmp_max_utilization(topo, tm, fractions=None):
    if fractions is None:
        fractions = compute_ecmp_fractions(topo)
    return ecmp_link_loads(topo, tm, fractions).max_utilization
