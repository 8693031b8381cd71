"""Directed network topologies with per-link capacity and cost.

A topology is a strongly connected directed graph on nodes 0..N-1. Links
carry a positive capacity (traffic units) and a positive routing cost.
Flows are ordered (source, destination) pairs; `flow_index` maps them onto
the contiguous id range 0..N*(N-1)-1 used by selectors and the policy net.

One shortest-path kernel. `shortest_path_trees` grows, under each of G
rows of link weights, the tree from every node, all at once, by a
batched Bellman-Ford over the in-link table. Every topology grows its
min-cost trees (one row: the link costs) once, at construction, and
keeps their distances (`cost_dist`) and preds (`cost_pred`): the
strong-connectivity check (every distance finite), ECMP and the
rerouting LP's seed paths read them. The rerouting LP's pricing (a row
per LP) and the delay optimum's steps (one row) call it too.

Text format (UTF-8, line oriented, `#` starts a comment):

    nodes <N>
    link <src> <dst> <capacity> <cost>

The capacity field may be `-` to request capacity inference as
`scale / cost` (Cisco-style inverse-cost capacities for cost-only feeds).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

DEFAULT_CAPACITY_SCALE = 1000.0


class TopologyError(Exception):
    """Base error for topology parsing/validation."""


class TopologyParseError(TopologyError):
    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class TopologyValidationError(TopologyError):
    pass


class Link(NamedTuple):
    src: int
    dst: int
    capacity: float
    cost: float


@dataclass
class Topology:
    """Immutable-by-convention directed graph. Do not mutate after init."""

    node_count: int
    links: tuple[Link, ...]
    name: str = ""

    # derived, filled in __post_init__
    capacity: np.ndarray = field(init=False, repr=False)
    cost: np.ndarray = field(init=False, repr=False)
    link_src: np.ndarray = field(init=False, repr=False)
    link_dst: np.ndarray = field(init=False, repr=False)
    link_index: dict[tuple[int, int], int] = field(init=False, repr=False)
    out_links: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    in_links: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    # (N, max in-degree): row i holds in_links[i], padded by repeating its
    # first link
    in_link_table: np.ndarray = field(init=False, repr=False)
    # (N, N), read-only: shortest_path_trees' dist and pred under the one
    # weight row of the link costs (row s: the min-cost tree from s)
    cost_dist: np.ndarray = field(init=False, repr=False)
    cost_pred: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.links = tuple(Link(*lk) for lk in self.links)
        _validate(self.node_count, self.links)
        self.capacity = np.array([lk.capacity for lk in self.links], dtype=float)
        self.cost = np.array([lk.cost for lk in self.links], dtype=float)
        self.link_src = np.array([lk.src for lk in self.links], dtype=int)
        self.link_dst = np.array([lk.dst for lk in self.links], dtype=int)
        self.link_index = {(lk.src, lk.dst): i for i, lk in enumerate(self.links)}
        out = [[] for _ in range(self.node_count)]
        inc = [[] for _ in range(self.node_count)]
        for i, lk in enumerate(self.links):
            out[lk.src].append(i)
            inc[lk.dst].append(i)
        self.out_links = tuple(tuple(v) for v in out)
        self.in_links = tuple(tuple(v) for v in inc)
        # a node without in-links has no first link to pad its row with
        if not all(inc):
            raise TopologyValidationError("not strongly connected")
        width = max(len(v) for v in inc)
        self.in_link_table = np.array([v + v[:1] * (width - len(v)) for v in inc])
        dist, pred = shortest_path_trees(self, self.cost[None])
        self.cost_dist, self.cost_pred = dist[0], pred[0]
        if not np.isfinite(self.cost_dist).all():
            raise TopologyValidationError("not strongly connected")
        self.cost_dist.flags.writeable = False
        self.cost_pred.flags.writeable = False

    @property
    def link_count(self):
        return len(self.links)

    @property
    def flow_count(self):
        return self.node_count * (self.node_count - 1)

    def flows(self):
        """All (s, d) pairs in flow-index order."""
        n = self.node_count
        return [(s, d) for s in range(n) for d in range(n) if s != d]


def _validate(n, links):
    if n < 2:
        raise TopologyValidationError(f"need at least 2 nodes, got {n}")
    seen = set()
    for lk in links:
        if not (0 <= lk.src < n and 0 <= lk.dst < n):
            raise TopologyValidationError(
                f"link ({lk.src},{lk.dst}) has node id outside [0,{n})")
        if lk.src == lk.dst:
            raise TopologyValidationError(f"self-loop link at node {lk.src}")
        if (lk.src, lk.dst) in seen:
            raise TopologyValidationError(
                f"duplicate link ({lk.src},{lk.dst})")
        seen.add((lk.src, lk.dst))
        if not (lk.capacity > 0 and np.isfinite(lk.capacity)):
            raise TopologyValidationError(
                f"link ({lk.src},{lk.dst}) capacity must be positive, got {lk.capacity}")
        if not (lk.cost > 0 and np.isfinite(lk.cost)):
            raise TopologyValidationError(
                f"link ({lk.src},{lk.dst}) cost must be positive, got {lk.cost}")


def shortest_path_trees(topo, weights):
    """(dist, pred), each (G, N, N): the shortest-path tree from every
    node under each row of the link weights `weights` (shape (G, M), all
    >= 0). dist[i, s, v] is the least weight of an s-to-v path under
    weights[i] and pred[i, s, v] the last link of one such path (-1 at
    v = s), so pred[i, s] is the tree from s.

    A batched Bellman-Ford (Bellman 1958): every round, each node takes
    the best of its in-links, over `topo.in_link_table`, applied to the
    last round's distances, and changes its pred only where that is
    strictly lower, so the preds form a tree even where weights are zero.
    A node's pred is thus the last link of the first min-weight path
    found, one of the fewest hops, and the lower in-link among those. A
    path's weight is its left-to-right sum, as in Dijkstra's algorithm,
    so the distances are the same floats.
    """
    g, n = len(weights), topo.node_count
    table = topo.in_link_table.T  # row j: each node's j-th in-link
    # tree t = i * N + s grows from s under weights[i]: at[j, t, v] is the
    # place in the flat dist of the tail of v's j-th in-link in tree t, and
    # w_in[j, t, v] that link's weight
    w_in = np.repeat(weights[:, table].transpose(1, 0, 2), n, axis=1)
    at = topo.link_src[table][:, None, :] + n * np.arange(g * n)[:, None]
    dist = np.full((g * n, n), np.inf)
    dist[np.arange(g * n), np.arange(g * n) % n] = 0.0
    pred = np.full((g * n, n), -1)
    for _ in range(n - 1):
        via = np.take(dist, at) + w_in
        best = via.min(axis=0)
        better = best < dist
        if not better.any():
            break
        t, v = np.nonzero(better)
        dist[t, v] = best[t, v]
        pred[t, v] = table[via[:, t, v].argmin(axis=0), v]
    return dist.reshape(g, n, n), pred.reshape(g, n, n)


def tree_path(topo, pred, s, d):
    """The links of the s -> d path in one shortest-path tree (the tree
    from s, pred[i, s] of shortest_path_trees' pred), in order. A pred row
    that does not lead back to s within N - 1 links raises ValueError."""
    path = []
    while d != s:
        if len(path) == topo.node_count - 1 or pred[d] < 0:
            raise ValueError(f"no tree path from {s} to {d}")
        path.append(int(pred[d]))
        d = topo.link_src[path[-1]]
    return tuple(reversed(path))


def flow_index(s, d, n):
    """Map ordered pair (s, d), s != d, to an id in [0, n*(n-1))."""
    if not (0 <= s < n and 0 <= d < n):
        raise ValueError(f"node out of range: ({s},{d}) for n={n}")
    if s == d:
        raise ValueError(f"flow requires s != d, got ({s},{d})")
    return s * (n - 1) + (d if d < s else d - 1)


def flow_of_index(a, n):
    """Inverse of `flow_index`."""
    if not (0 <= a < n * (n - 1)):
        raise ValueError(f"flow id {a} out of range for n={n}")
    s, r = divmod(a, n - 1)
    return s, (r if r < s else r + 1)


def load_topology(path):
    """Parse the topology text format. `-` capacities become
    DEFAULT_CAPACITY_SCALE / cost."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_topology(fh.read(), name=str(path))


def parse_topology(text, name=""):
    n = None
    links = []
    for line_no, raw in enumerate(io.StringIO(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "nodes":
            if n is not None:
                raise TopologyParseError("duplicate 'nodes' header", line_no)
            if len(parts) != 2:
                raise TopologyParseError("expected 'nodes <N>'", line_no)
            try:
                n = int(parts[1])
            except ValueError:
                raise TopologyParseError(f"bad node count {parts[1]!r}", line_no) from None
        elif parts[0] == "link":
            if n is None:
                raise TopologyParseError("'link' before 'nodes' header", line_no)
            if len(parts) != 5:
                raise TopologyParseError(
                    "expected 'link <src> <dst> <capacity> <cost>'", line_no)
            try:
                src, dst = int(parts[1]), int(parts[2])
                cost = float(parts[4])
                if parts[3] == "-":
                    if cost <= 0:
                        raise TopologyParseError(
                            "cannot infer capacity from non-positive cost", line_no)
                    cap = DEFAULT_CAPACITY_SCALE / cost
                else:
                    cap = float(parts[3])
            except ValueError:
                raise TopologyParseError(f"bad link fields {parts[1:]!r}", line_no) from None
            links.append(Link(src, dst, cap, cost))
        else:
            raise TopologyParseError(f"unknown directive {parts[0]!r}", line_no)
    if n is None:
        raise TopologyParseError("missing 'nodes' header")
    return Topology(node_count=n, links=tuple(links), name=name)


def serialize_topology(topo):
    out = [f"nodes {topo.node_count}"]
    for lk in topo.links:
        out.append(f"link {lk.src} {lk.dst} {lk.capacity!r} {lk.cost!r}")
    return "\n".join(out) + "\n"


def save_topology(topo, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_topology(topo))


def infer_capacities_from_costs(topo, scale):
    """Return a copy with capacity = scale / cost on every link."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    links = tuple(Link(lk.src, lk.dst, scale / lk.cost, lk.cost) for lk in topo.links)
    return Topology(node_count=topo.node_count, links=links, name=topo.name)


def from_undirected_edges(n, edges, name=""):
    """Build a topology from undirected (u, v, capacity, cost) edges.

    Each edge expands to the two directed links with equal capacity and cost.
    """
    links = []
    for u, v, cap, cost in edges:
        links.append(Link(u, v, cap, cost))
        links.append(Link(v, u, cap, cost))
    return Topology(node_count=n, links=tuple(links), name=name)


def triangle3(capacity=1.0, cost=1.0):
    """3-node full mesh; every pair has a direct link and a 2-hop detour."""
    edges = [(0, 1, capacity, cost), (1, 2, capacity, cost), (0, 2, capacity, cost)]
    return from_undirected_edges(3, edges, name="triangle3")


def diamond4(capacity=1.0, cost=1.0):
    """4-node diamond: 0-1, 0-2, 1-3, 2-3. Two equal-cost paths 0 -> 3."""
    edges = [(0, 1, capacity, cost), (0, 2, capacity, cost),
             (1, 3, capacity, cost), (2, 3, capacity, cost)]
    return from_undirected_edges(4, edges, name="diamond4")


def ring_with_chords(capacity=1.0, cost=1.0):
    """5-node ring plus two chords; the workbench's desk-scale test net."""
    edges = [(0, 1, capacity, cost), (1, 2, capacity, cost), (2, 3, capacity, cost),
             (3, 4, capacity, cost), (4, 0, capacity, cost),
             (0, 2, capacity, cost), (1, 3, capacity, cost)]
    return from_undirected_edges(5, edges, name="ring5")


def random_topology(n, extra_edges, seed, capacity=1.0, cost_range=(1.0, 3.0)):
    """Random strongly connected topology: an undirected ring plus chords.

    Costs are drawn uniformly from `cost_range` per undirected edge;
    capacities are uniform. Deterministic given seed.
    """
    rng = np.random.default_rng(seed)
    edges = set()
    for u in range(n):
        edges.add((min(u, (u + 1) % n), max(u, (u + 1) % n)))
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if (u, v) not in edges]
    rng.shuffle(candidates)
    for u, v in candidates[:extra_edges]:
        edges.add((u, v))
    lo, hi = cost_range
    out = []
    for u, v in sorted(edges):
        c = float(rng.uniform(lo, hi))
        out.append((u, v, capacity, c))
    return from_undirected_edges(n, out, name=f"random{n}-{seed}")
