"""Independent output checks: ECMP loads, min-max LPs solved by HiGHS, and
a lower bound on the minimum delay from cutting-plane LPs.

Nothing here goes through critflow's build_rerouting_lp, its simplex or its
Frank-Wolfe. ECMP fractions come from the recursive per-hop oracle that the
test suite checks critflow against (tests/oracles.py, only read here). The
LPs are written in flow form (link flows in demand units, not split ratios),
and the all-flows optimum uses one commodity per destination, so a defect
in the program's formulation or solver does not repeat itself here. scipy
is imported lazily; without it, `load_highs()` returns None and callers
report the checks as skipped.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

# HiGHS stops at these; U is then exact far below the 1e-7 check tolerance.
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}
# The delay lower bound is certified to within this share of the minimum.
DELAY_GAP_RTOL = 1e-6
DELAY_MAX_ROUNDS = 200
# Utilizations of the first tangents on each link, and of the steepest one.
TANGENT_SHARES = (0.0, 0.25, 0.5, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99)
TANGENT_MAX_SHARE = 0.999

TEST_ORACLES = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"


class OracleError(Exception):
    pass


def load_highs():
    """scipy's linprog and sparse module, or None when scipy is missing."""
    try:
        from scipy import sparse
        from scipy.optimize import linprog
    except ImportError:
        return None
    return linprog, sparse


def _test_oracles():
    spec = importlib.util.spec_from_file_location("critflow_test_oracles", TEST_ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Oracle:
    """Reference answers for one topology."""

    def __init__(self, topo, highs):
        self.linprog, self.sparse = highs
        self.n, self.m = topo.node_count, topo.link_count
        self.src = np.array([lk.src for lk in topo.links])
        self.dst = np.array([lk.dst for lk in topo.links])
        self.cap = np.array([lk.capacity for lk in topo.links], dtype=float)
        # inc[i, e] = +1 if link e enters node i, -1 if it leaves node i
        inc = np.zeros((self.n, self.m))
        inc[self.dst, np.arange(self.m)] = 1.0
        inc[self.src, np.arange(self.m)] = -1.0
        self.inc = self.sparse.csr_matrix(inc)
        # frac[s, d, e]: share of flow (s, d) on link e under ECMP
        self.frac = _test_oracles().ecmp_fractions_oracle(topo)

    def _min_u(self, rhs, background):
        """min U s.t. sum of commodity flows on e + background_e <= cap_e U,
        with one conservation block (inc @ x = rhs[c]) per commodity c.
        Returns U."""
        sp = self.sparse
        k = len(rhs)
        a_ub = sp.hstack([sp.csr_matrix(-self.cap[:, None]),
                          sp.hstack([sp.identity(self.m)] * k)]).tocsr()
        a_eq = sp.hstack([sp.csr_matrix((k * self.n, 1)),
                          sp.block_diag([self.inc] * k)]).tocsr()
        c = np.zeros(1 + k * self.m)
        c[0] = 1.0
        res = self.linprog(c, A_ub=a_ub, b_ub=-np.asarray(background, float),
                           A_eq=a_eq, b_eq=np.concatenate(rhs),
                           bounds=(0, None), method="highs-ds",
                           options=HIGHS_OPTIONS)
        if res.status != 0:
            raise OracleError(f"HiGHS status {res.status}: {res.message}")
        return float(res.x[0])

    def rerouted_u(self, demand, flows):
        """Min max-utilization when `flows` leave ECMP and are routed freely
        over the ECMP load of everything else."""
        demand = np.array(demand, dtype=float)
        background_demand = demand.copy()
        for s, d in flows:
            background_demand[s, d] = 0.0
        background = np.einsum("sd,sde->e", background_demand, self.frac)
        if not flows:
            return float(np.max(background / self.cap))
        rhs = []
        for s, d in flows:
            r = np.zeros(self.n)
            r[s], r[d] = -demand[s, d], demand[s, d]
            rhs.append(r)
        return self._min_u(rhs, background)

    def _destination_rhs(self, demand):
        """One commodity per destination: every source's demand enters at
        its node and leaves at the destination."""
        rhs = []
        for t in range(self.n):
            col = demand[:, t].copy()
            col[t] = 0.0
            if not np.any(col > 0):
                continue
            r = -col
            r[t] = col.sum()
            rhs.append(r)
        return rhs

    def optimal_u(self, demand):
        """Min max-utilization over all routings."""
        rhs = self._destination_rhs(np.asarray(demand, dtype=float))
        return self._min_u(rhs, np.zeros(self.m)) if rhs else 0.0

    def delay_lower_bound(self, demand):
        """A lower bound on the minimum over all routings of the delay
        sum_e f_e(l_e), f_e(l) = l / (c_e - l), within DELAY_GAP_RTOL of it.

        Kelley's cutting planes: f_e is convex, so every tangent
        z_e >= f_e(a) + f_e'(a) (l_e - a) lies below it, and min sum_e z_e
        over all routings (one commodity per destination), subject to any
        set of tangents, is an LP whose optimum bounds the minimum from
        below. Each round adds the tangents at the LP's own loads; the delay
        of those loads, when they are under capacity, is attained, so it
        bounds the minimum from above. The lower bound is returned once the
        two are within DELAY_GAP_RTOL.
        """
        sp = self.sparse
        demand = np.asarray(demand, dtype=float)
        rhs = self._destination_rhs(demand)
        if not rhs:
            return 0.0
        k, m = len(rhs), self.m
        a_eq = sp.hstack([sp.block_diag([self.inc] * k), sp.csr_matrix((k * self.n, m))])
        b_eq = np.concatenate(rhs)
        c = np.concatenate([np.zeros(k * m), np.ones(m)])
        link = np.tile(np.arange(m), len(TANGENT_SHARES))
        at = np.concatenate([share * self.cap for share in TANGENT_SHARES])
        upper = np.inf
        for _ in range(DELAY_MAX_ROUNDS):
            cap = self.cap[link]
            slope = cap / (cap - at) ** 2
            rows = np.arange(len(link))
            # slope * sum_c x[c, e] - z_e <= slope * a - f(a)
            a_ub = sp.csr_matrix(
                (np.concatenate([np.repeat(slope, k), -np.ones(len(link))]),
                 (np.concatenate([np.repeat(rows, k), rows]),
                  np.concatenate([(np.arange(k) * m + link[:, None]).ravel(),
                                  k * m + link]))),
                shape=(len(link), (k + 1) * m))
            res = self.linprog(c, A_ub=a_ub, b_ub=slope * at - at / (cap - at),
                               A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                               method="highs-ds", options=HIGHS_OPTIONS)
            if res.status != 0:
                raise OracleError(f"HiGHS status {res.status}: {res.message}")
            lower = float(res.fun)
            load = res.x[:k * m].reshape(k, m).sum(axis=0)
            if np.all(load < self.cap):
                upper = min(upper, float(np.sum(load / (self.cap - load))))
            if upper - lower <= DELAY_GAP_RTOL * lower:
                return lower
            link = np.concatenate([link, np.arange(m)])
            at = np.concatenate([at, np.minimum(load, TANGENT_MAX_SHARE * self.cap)])
        raise OracleError(f"delay bounds {lower!r}, {upper!r} after "
                          f"{DELAY_MAX_ROUNDS} rounds")
