"""Dense revised simplex for small/medium LPs, one LP or a stack of them.

Handles general variable bounds without extra rows (bounded-variable
simplex: nonbasic variables sit at either bound, and the ratio test also
permits bound flips). Pricing is Dantzig's rule; after a run of degenerate
pivots the solver permanently falls back to Bland's rule, which cannot
cycle. Everything is deterministic: ties break toward the smallest
variable index.

The problem form is

    minimize    c @ x
    subject to  A x (<= | >= | =) b   row-wise
                lower <= x <= upper   (upper may be +inf)

A problem may carry a leading stack axis: B LPs of one shape and one set
of row relations, with c (B, n), A (B, m, n), b (B, m) and bounds (B, n).
One pivot loop pivots every LP of a stack at once, each by its own
rules, and an LP leaves the loop once it is optimal; a single LP is a
stack of one. LPs with fewer columns are padded with zero columns fixed
at 0 after their real columns, which never enter a basis, and an LP
gets the same bits alone or inside any stack: each product with B^-1 is
the LP's own (np.matvec, np.vecmat), each column's reduced cost one dot
product over its m rows (np.vecdot), whatever the width, and the
objective is summed left to right.

A solve may start from a given basis: when it is nonsingular and primal
feasible with every nonbasic variable at its lower bound, phase 2 starts
from it with no artificials (a warm start, as between rounds of column
generation). The basis may come with its B^-1, as the last solve
returned it or as the caller built it: that inverse is taken after an
O(m^2) check of B x_B against b instead of inverting B. An LP with no
usable basis is solved on its own by two phases, phase 1 first driving
the artificials of the slack/artificial basis to zero. Each solution
counts its pivots per phase, its degenerate pivots and refreshes of
B^-1, says whether it inverted B or took the given inverse and whether
Bland's rule fired, and reports its largest row residual.

The slack and artificial columns are never stored: they are unit
columns, kept as their row and sign. Desk-scale only: the basis inverse
is kept as a dense matrix, refreshed periodically to bound drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REDUCED_COST_TOL = 1e-9
PIVOT_TOL = 1e-9
DEGENERATE_STEP_TOL = 1e-9
FEASIBILITY_TOL = 1e-7
BLAND_AFTER_DEGENERATE = 1000
REFRESH_EVERY = 500
# a starting basis whose B @ B^-1 misses the identity by more is singular;
# a given B^-1 whose B x_B misses b by more than this times (1 + max|b|)
# is not taken
SINGULAR_TOL = 1e-9
_SIGN = {"<=": 1.0, ">=": -1.0, "=": 0.0}  # a row's slack column, times its row


class LpError(Exception):
    pass


class LpInfeasibleError(LpError):
    pass


class LpUnboundedError(LpError):
    pass


class LpIterationLimitError(LpError):
    def __init__(self, message, basis=None, x=None):
        super().__init__(message)
        self.basis = basis  # last basis, for post-mortem
        self.x = x


@dataclass
class LpProblem:
    c: np.ndarray                 # (n,) objective, minimized; (B, n) in a stack
    a: np.ndarray                 # (m, n); (B, m, n) in a stack
    rel: list[str]                # per row: '<=', '>=', '='; shared by a stack
    b: np.ndarray                 # (m,); (B, m) in a stack
    lower: np.ndarray = None      # default zeros
    upper: np.ndarray = None      # default +inf
    var_names: list[str] = None   # optional, for text dumps

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        if self.a.ndim < 2:
            self.a = np.atleast_2d(self.a)
        if self.a.ndim > 3 or (self.a.ndim == 3 and not self.a.shape[0]):
            raise ValueError(f"A of shape {self.a.shape}: a stack holds at least one "
                             f"(m, n) LP")
        lead = self.a.shape[:-2]
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float))
        self.b = np.atleast_1d(np.asarray(self.b, dtype=float))
        n, m = self.c.shape[-1], self.b.shape[-1]
        if self.a.shape != (*lead, m, n):
            raise ValueError(f"A shape {self.a.shape} != {(*lead, m, n)}")
        if self.c.shape != (*lead, n) or self.b.shape != (*lead, m):
            raise ValueError(f"c {self.c.shape} or b {self.b.shape} does not match A "
                             f"{self.a.shape}")
        if len(self.rel) != m:
            raise ValueError("one relation per row required")
        bad = set(self.rel) - set(_SIGN)
        if bad:
            raise ValueError(f"bad relation {bad.pop()!r}")
        self.lower = _bound(self.lower, 0.0, (*lead, n))
        self.upper = _bound(self.upper, np.inf, (*lead, n))
        if (self.lower > self.upper).any():
            raise ValueError("lower bound exceeds upper bound")

    @property
    def n_vars(self):
        return self.c.shape[-1]

    @property
    def n_rows(self):
        return self.b.shape[-1]

    @property
    def stack(self):
        """The number of LPs in a stack; None for a single LP."""
        return self.a.shape[0] if self.a.ndim == 3 else None


def _bound(given, default, shape):
    if given is None:
        return np.full(shape, default)
    given = np.asarray(given, dtype=float)
    return given if given.shape == shape else np.broadcast_to(given, shape)


@dataclass
class LpSolution:
    # For a stack, every field but `iterations` gains a leading stack axis:
    # x (B, n), objective (B,), basis (B, m), and so on.
    x: np.ndarray
    objective: float
    iterations: int = 0           # pivots of the whole call, all LPs and phases
    duals: np.ndarray = None  # (m,) row duals c_B B^-1 of the final basis
    # (m,) final basis, one column per row: j < n is structural column j
    # and n + i the slack of row i; None while an artificial stays basic
    # (a redundant '=' row), or -1 throughout for such an LP of a stack
    basis: np.ndarray = None
    phase1_iterations: int = 0
    phase2_iterations: int = 0
    degenerate_pivots: int = 0    # pivots and bound flips with step <= DEGENERATE_STEP_TOL
    used_bland: bool = False      # the anti-cycling fallback fired
    refreshes: int = 0            # rebuilds of B^-1 from scratch after the start
    max_residual: float = 0.0     # largest row violation of the returned x
    # the start inverted B (True) or took the B^-1 given with the basis
    inverted: bool = True
    # (m, m) B^-1 of the final basis, rows in basis order, where basis is set
    binv: np.ndarray = None


def solve_lp(problem, max_iters=None, tol=REDUCED_COST_TOL, basis=None,
             binv=None):
    """Solve to an optimal basic feasible solution; for a stack, every
    LP of it, in one pivot loop.

    With `basis` (one column per row, numbered as in LpSolution.basis;
    (B, m) for a stack) and every nonbasic variable at its lower bound,
    B is inverted once and B B^-1 checked against the identity; if B is
    nonsingular and its basic values lie within their bounds to the
    scaled feasibility tolerance, phase 2 starts there, with no
    artificials. With `binv` as well, B^-1 of that basis ((B, m, m) for
    a stack: LpSolution.binv of a solve whose basis this is, after
    columns were added, or one the caller built), a copy of it is taken
    without inverting when B x_B = b holds to SINGULAR_TOL, and B is
    inverted as above when it does not. An LP with a singular or
    infeasible basis, or none, is solved on its own by two phases from
    the slack/artificial basis. A basis of the wrong shape, with an index
    out of range or with the slack of an '=' row, or a binv without a
    basis or of the wrong shape, raises ValueError.

    The row duals y = c_B B^-1 of the final basis come back as `duals`:
    y <= 0 on '<=' rows and y >= 0 on '>=' rows (within `tol`), and every
    column's reduced cost c_j - y @ A[:, j] is >= -tol unless the column
    sits at a finite upper bound. The solution also counts the pivots of
    each phase, the degenerate ones, whether Bland's rule took over and
    the refreshes of B^-1, and reports the largest row residual.
    `max_iters` bounds the pivots of each LP.

    Raises LpInfeasibleError / LpUnboundedError / LpIterationLimitError
    when any LP of the call does.
    """
    stacked = problem.stack is not None
    n, m = problem.n_vars, problem.n_rows
    c, a, b, lower, upper = (problem.c, problem.a, problem.b, problem.lower,
                             problem.upper)
    if not stacked:
        c, a, b, lower, upper = (v[None] for v in (c, a, b, lower, upper))
    size = c.shape[0]
    if not np.isfinite(lower).all():
        raise ValueError("free (lower=-inf) variables are not supported")
    sign = np.array([_SIGN[r] for r in problem.rel])
    slack_rows = np.flatnonzero(sign)
    lead = (size,) if stacked else ()
    if binv is not None and (basis is None or np.shape(binv) != (*lead, m, m)):
        raise ValueError(f"binv needs a basis and shape {(*lead, m, m)}")
    if basis is not None:
        basis = _internal_basis(basis, n, m, slack_rows, lead)
        if binv is not None and not stacked:
            binv = np.asarray(binv)[None]

    # the columns as rows, each contiguous for vecdot
    at = a.transpose(0, 2, 1)
    if at.strides[-1] != at.itemsize:
        at = np.ascontiguousarray(at)
    # shift lower bounds to 0: x = lower + y, 0 <= y <= u
    shifted = lower.any()
    b1 = b - _sequential_sums(a * lower[:, None, :]) if shifted else b
    u_real = np.concatenate([upper - lower if shifted else upper,
                             np.full((size, slack_rows.size), np.inf)], axis=1)
    scale = 1.0 + np.abs(b1).max(axis=1, initial=0.0)  # of the row tolerances
    feas_tol = FEASIBILITY_TOL * scale

    parts = []  # (LPs, results) of each stack solved
    cold = range(size)
    if basis is not None:
        st = _Stack(at, b1, u_real, slack_rows, sign[slack_rows], basis)
        ok = _warm_start(st, binv, scale)
        cold = () if ok.all() else np.flatnonzero(~ok)
        if len(cold) < size:
            if len(cold):
                st = st.take(ok)
            ids = np.flatnonzero(ok)
            iters = max_iters if max_iters is not None else max(5000, 60 * (m + st.n_total))
            c2 = np.concatenate([c[ids] if len(cold) else c,
                                 np.zeros((ids.size, slack_rows.size))], axis=1)
            _run(st, c2, st.n_total, iters, tol, phase=2)
            parts.append((ids, _results(st, c2, slack_rows, 0)))
    for i in cold:
        st, c2, phase1 = _two_phase(at[i], b1[i], u_real[i], c[i], sign, slack_rows,
                                    feas_tol[i], max_iters, tol)
        parts.append(([i], _results(st, c2, slack_rows, phase1)))
    if len(parts) == 1:
        res = parts[0][1]
    else:  # back in stack order
        order = np.argsort(np.concatenate([ids for ids, _ in parts]))
        res = {key: np.concatenate([r[key] for _, r in parts])[order] for key in parts[0][1]}

    x = np.clip(lower + res["y"], lower, upper)  # shave solver-tolerance dust off the bounds
    resid = (x[:, None, :] @ at)[:, 0] - b
    violation = np.where(sign == 0, np.abs(resid), resid * sign)
    if (violation > feas_tol[:, None]).any():
        lp, row = np.argwhere(violation > feas_tol[:, None])[0]
        raise LpError(f"solution violates row {row} by {resid[lp, row]:.3e}"
                      + (f" in LP {lp} of the stack" if stacked else ""))
    iterations = res["iterations"]
    sol = LpSolution(x=x, objective=_sequential_sums(c * x),
                     iterations=int(iterations.sum()), duals=res["duals"],
                     basis=res["basis"], phase1_iterations=res["phase1"],
                     phase2_iterations=iterations - res["phase1"],
                     degenerate_pivots=res["degenerate"], used_bland=res["bland"],
                     refreshes=res["refreshes"],
                     max_residual=np.maximum(violation.max(axis=1, initial=0.0), 0.0),
                     inverted=res["inverted"], binv=res["binv"])
    return sol if stacked else _single(sol)


def _results(st, c2, slack_rows, phase1):
    """The per-LP results of a solved stack: structural values y, duals,
    final basis in the caller's numbering (-1 throughout where an
    artificial stays basic), B^-1 and counters."""
    n, n_slack = st.n, slack_rows.size
    basis = st.basis
    if n_slack and slack_rows[-1] != n_slack - 1:  # else slack k is row k's
        basis = basis.copy()
        slack = (basis >= n) & (basis < n + n_slack)
        basis[slack] = n + slack_rows[basis[slack] - n]
    if st.n_total > n + n_slack:
        basis = basis.copy()
        basis[(st.basis >= n + n_slack).any(axis=1)] = -1
    return dict(y=st.values()[:, :n], duals=np.vecmat(c2[st.lp, st.basis], st.binv), basis=basis,
                binv=st.binv, iterations=st.iterations,
                phase1=np.full(st.lp.size, phase1), degenerate=st.degenerate_pivots,
                refreshes=st.refreshes, bland=st.bland, inverted=st.inverted)


def _single(sol):
    """The LpSolution of a stack of one as that of a single LP."""
    basis = sol.basis[0] if sol.basis[0].min(initial=0) >= 0 else None
    return LpSolution(x=sol.x[0], objective=float(sol.objective[0]),
                      iterations=sol.iterations, duals=sol.duals[0], basis=basis,
                      phase1_iterations=int(sol.phase1_iterations[0]),
                      phase2_iterations=int(sol.phase2_iterations[0]),
                      degenerate_pivots=int(sol.degenerate_pivots[0]),
                      used_bland=bool(sol.used_bland[0]),
                      refreshes=int(sol.refreshes[0]),
                      max_residual=float(sol.max_residual[0]),
                      inverted=bool(sol.inverted[0]),
                      binv=sol.binv[0] if basis is not None else None)


def _sequential_sums(terms):
    """Sums over the last axis, left to right: trailing zeros (a stack's
    padding columns) leave every bit as it was."""
    if terms.shape[-1] == 0:
        return np.zeros(terms.shape[:-1])
    return np.cumsum(terms, axis=-1)[..., -1]


def _internal_basis(basis, n, m, slack_rows, lead):
    """A caller's basis (slack of row i numbered n + i) in the solver's
    column numbering (slacks of the inequality rows only, in row order),
    with a stack axis."""
    basis = np.asarray(basis)
    if basis.shape != (*lead, m) or (m and basis.dtype.kind not in "iu"):
        raise ValueError(f"a basis needs one integer column index per row, "
                         f"shape {(*lead, m)}")
    if not m:
        return basis.reshape(-1, 0).astype(int)
    low, high = basis.min(), basis.max()
    if low < 0 or high >= n + m:
        raise ValueError(f"basis index out of range [0, {n + m})")
    internal = basis.reshape(-1, m).astype(int)
    n_slack = slack_rows.size
    if n_slack and slack_rows[-1] == n_slack - 1:
        ok = high < n + n_slack  # slack k is row k's; the '=' rows come last
    elif high >= n:
        slack_col = np.full(m, -1)  # internal column of each row's slack
        slack_col[slack_rows] = n + np.arange(n_slack)
        slack = internal >= n
        internal[slack] = slack_col[internal[slack] - n]
        ok = internal.min() >= 0
    else:
        ok = True
    if not ok:
        raise ValueError("an '=' row has no slack to make basic")
    return internal


class _Stack:
    """Simplex state of a stack of LPs over the columns [A | unit columns]:
    the structural columns as the rows of `at`, and the slack and
    artificial columns, shared by the stack, as (row, sign) pairs. Numbers
    columns internally: structurals, then the unit columns."""

    _MUTABLE = ("basis", "binv", "xb", "at_upper", "in_basis", "iterations",
                "since_refresh", "refreshes", "bland", "degenerate_run",
                "degenerate_pivots", "inverted")

    def __init__(self, at, b, u, unit_row, unit_sign, basis, **state):
        self.at, self.b, self.u = at, b, u  # (B, n, m), (B, m), (B, n_total)
        self.unit_row, self.unit_sign = unit_row, unit_sign
        self.neg_sign = -unit_sign
        self.bounded = bool((np.isfinite(u) & (u > 0)).any())
        # unit column k on row k, as the slacks of leading inequality rows are
        n_unit = unit_row.size
        self.unit_rows = (slice(0, n_unit) if not n_unit or (
            unit_row[-1] == n_unit - 1 and (unit_row[1:] > unit_row[:-1]).all())
            else unit_row)
        self.basis = basis  # (B, m)
        size = basis.shape[0]
        self.lp = np.arange(size)[:, None]
        if state:
            self.__dict__.update(state)
            return
        self.binv = self.xb = None  # (B, m, m), (B, m)
        self.at_upper = np.zeros(u.shape, dtype=bool)
        self.in_basis = np.zeros(u.shape, dtype=bool)
        self.in_basis[self.lp, basis] = True
        counters = np.zeros((5, size), dtype=int)
        (self.iterations, self.since_refresh, self.refreshes, self.degenerate_run,
         self.degenerate_pivots) = counters
        flags = np.zeros((2, size), dtype=bool)
        self.bland, self.inverted = flags

    @property
    def n(self):
        return self.at.shape[1]

    @property
    def n_total(self):
        return self.u.shape[1]

    def take(self, keep):
        """The LPs of `keep` (a mask or indices) as a stack of their own."""
        return _Stack(self.at[keep], self.b[keep], self.u[keep], self.unit_row,
                      self.unit_sign, self.basis[keep],
                      **{name: getattr(self, name)[keep] for name in self._MUTABLE[1:]})

    def put(self, ids, part, which):
        """Write the state of part's LPs `which` back to this stack's `ids`."""
        for name in self._MUTABLE:
            getattr(self, name)[ids] = getattr(part, name)[which]

    def columns(self, lps, cols):
        """(len(cols), m): column cols[i] of LP lps[i], unit columns built."""
        n = self.n
        if cols.max(initial=0) < n:
            return self.at[lps, cols]
        out = (self.at[lps, np.minimum(cols, n - 1)] if n
               else np.zeros((len(cols), self.b.shape[1])))
        k = np.flatnonzero(cols >= n)
        out[k] = 0.0
        out[k, self.unit_row[cols[k] - n]] = self.unit_sign[cols[k] - n]
        return out

    def basis_matrix(self, lps):
        """(len(lps), m, m): B of each LP in lps."""
        m = self.basis.shape[1]
        cols = self.columns(np.repeat(lps, m), self.basis[lps].reshape(-1))
        return cols.reshape(len(lps), m, m).transpose(0, 2, 1)

    def basis_times(self, v):
        """(B, m): B v for every LP, v in basis order, with no two unit
        columns on one row."""
        n = self.n
        w = np.zeros(self.u.shape)
        w[self.lp, self.basis] = v
        out = (w[:, None, :n] @ self.at)[:, 0]
        out[:, self.unit_row] += w[:, n:] * self.unit_sign
        return out

    def rhs(self, lps):
        """b less the columns nonbasic at their upper bound, for LPs lps."""
        rhs = self.b[lps].copy()
        up = self.at_upper[lps] & ~self.in_basis[lps]
        for i in np.flatnonzero(up.any(axis=1)):
            cols = np.flatnonzero(up[i])
            lp = np.full(cols.size, lps[i])
            rhs[i] -= self.u[lps[i], cols] @ self.columns(lp, cols)
        return rhs

    def refresh(self, lps):
        """Recompute B^-1 and the basic values of LPs lps from scratch."""
        self.binv[lps] = np.linalg.inv(self.basis_matrix(lps))
        self.xb[lps] = (self.binv[lps] @ self.rhs(lps)[:, :, None])[:, :, 0]
        self.since_refresh[lps] = 0

    def values(self):
        """(B, n_total): every variable's value."""
        y = np.zeros(self.u.shape)
        if self.at_upper.any():
            up = self.at_upper & ~self.in_basis
            y[up] = self.u[up]
        y[self.lp, self.basis] = self.xb
        return y


def _warm_start(st, binv, scale):
    """Set up B^-1 and the basic values of every LP of st at its basis
    with every nonbasic variable at 0; returns the mask of the LPs whose B
    is nonsingular and whose basic values lie within their bounds, to
    FEASIBILITY_TOL times `scale`. A given B^-1 is taken where B x_B
    matches b to SINGULAR_TOL times `scale`, an O(m^2) check; elsewhere B
    is inverted and B B^-1 checked against the identity, which is O(m^3)."""
    size, m = st.basis.shape
    if binv is not None:
        st.binv = np.array(binv, dtype=float)
        st.xb = np.matvec(st.binv, st.b)
        miss = np.abs(st.basis_times(st.xb) - st.b).max(axis=1, initial=0.0)
        st.inverted = ~(miss <= SINGULAR_TOL * scale)  # also on nan
    else:
        st.binv, st.xb = np.empty((size, m, m)), np.empty((size, m))
        st.inverted[:] = True
    ok = np.ones(size, dtype=bool)
    if st.inverted.any():
        redo = np.flatnonzero(st.inverted)
        for i, bmat in zip(redo, st.basis_matrix(redo)):
            try:
                st.binv[i] = np.linalg.inv(bmat)
            except np.linalg.LinAlgError:
                ok[i] = False
                continue
            off = bmat @ st.binv[i] - np.eye(m)
            ok[i] = np.all(np.abs(off) <= SINGULAR_TOL)  # also catches nan
            st.xb[i] = st.binv[i] @ st.b[i]
    feas_tol = (FEASIBILITY_TOL * scale)[:, None]
    ub = st.u[st.lp, st.basis]
    return ok & ((st.xb >= -feas_tol) & (st.xb <= ub + feas_tol)).all(axis=1)


def _two_phase(at, b, u_real, c, sign, slack_rows, feas_tol, max_iters, tol):
    """One LP from its slack/artificial basis: phase 1 drives the
    artificials to zero, then phase 2. Returns (stack of one, its phase-2
    costs, its phase-1 pivots)."""
    n, m = at.shape
    n_real = n + slack_rows.size
    # the slack starts basic where it is feasible, else an artificial
    slack_ok = ((sign > 0) & (b >= 0)) | ((sign < 0) & (b <= 0))
    art_rows = np.flatnonzero(~slack_ok)
    start = np.full(m, -1)
    start[slack_rows] = n + np.arange(slack_rows.size)
    start[art_rows] = n_real + np.arange(art_rows.size)
    u = np.concatenate([u_real, np.full(art_rows.size, np.inf)])
    st = _Stack(at[None], b[None], u[None], np.concatenate([slack_rows, art_rows]),
                np.concatenate([sign[slack_rows], np.where(b[art_rows] >= 0, 1.0, -1.0)]),
                start[None])
    st.binv, st.xb = np.empty((1, m, m)), np.empty((1, m))
    st.refresh([0])
    st.inverted[0] = True
    n_total = st.n_total
    if max_iters is None:
        max_iters = max(5000, 60 * (m + n_total))
    if art_rows.size:
        c1 = np.zeros((1, n_total))
        c1[0, n_real:] = 1.0
        _run(st, c1, n_total, max_iters, tol, phase=1)
        residual = float(st.values()[0, n_real:].sum())
        if residual > feas_tol:
            raise LpInfeasibleError(f"infeasible (phase-1 residual {residual:.3e})")
        _drive_out_artificials(st, n_real)
        st.u[0, n_real:] = 0.0  # artificials are fixed at zero from here on
    phase1 = int(st.iterations[0])
    c2 = np.concatenate([c, np.zeros(n_total - n)])[None]
    _run(st, c2, n_real, max_iters, tol, phase=2)
    return st, c2, phase1


def _run(full, c, allowed_up_to, max_iters, tol, phase):
    """Pivot every LP of the stack until optimal for its costs c (B,
    n_total). Mutates the stack in place. An LP with nothing left to enter
    leaves the loop: its state goes back to the stack, and the others go
    on as a stack of their own."""
    st, ids = full, None  # ids: the LPs of full that st holds, once it is a copy
    n, n_total = full.n, full.n_total
    movable = st.u > 0
    if allowed_up_to < n_total:
        movable[:, allowed_up_to:] = False
    # bounds take part only where a column that may enter has a finite one;
    # else every candidate has d < 0, and the largest |d| is the least d
    bounded = st.bounded
    unit_cost = c[:, n:] if phase == 1 else None  # phase 2 prices units at 0
    neg_sign, unit_rows = st.neg_sign, st.unit_rows
    bland = bool(st.bland.any())
    # every live LP pivots or flips once per step, so their iteration
    # counts, and while all of them pivot their refresh counts, catch up
    # `steps` at a time
    steps = refresh_steps = 0
    size = st.basis.shape[0]
    rows = np.arange(size)
    lp = rows[:, None]
    d = np.empty((size, n_total))
    pivots_left = max_iters - int(st.iterations.max())
    refresh_in = REFRESH_EVERY - int(st.since_refresh.max())
    while True:
        if pivots_left <= 0:
            st.iterations += steps
            i = int(np.argmax(st.iterations >= max_iters))
            raise LpIterationLimitError(
                f"iteration limit {max_iters} exceeded in phase {phase}",
                basis=st.basis[i].copy(), x=st.values()[i])
        dual = np.vecmat(c[lp, st.basis], st.binv)
        np.subtract(c[:, :n], np.vecdot(st.at, dual[:, None, :]), out=d[:, :n])
        np.multiply(dual[:, unit_rows], neg_sign, out=d[:, n:])
        if unit_cost is not None:
            d[:, n:] += unit_cost
        cand = movable & ~st.in_basis
        cand &= np.where(st.at_upper, d > tol, d < -tol) if bounded else d < -tol
        live = cand.any(axis=1)
        if not live.all():
            st.iterations += steps
            st.since_refresh += refresh_steps
            steps = refresh_steps = 0
            if ids is None:
                ids = rows
            else:
                full.put(ids[~live], st, ~live)
            if not live.any():
                return
            ids, st, c, d, cand = ids[live], st.take(live), c[live], d[live], cand[live]
            movable = movable[live]
            if unit_cost is not None:
                unit_cost = unit_cost[live]
            size = ids.size
            rows = np.arange(size)
            lp = rows[:, None]
            pivots_left = max_iters - int(st.iterations.max())
            refresh_in = REFRESH_EVERY - int(st.since_refresh.max())
        if bounded or bland:
            j = np.where(cand, np.abs(d), -1.0).argmax(axis=1)
            if bland:
                j = np.where(st.bland, cand.argmax(axis=1), j)
        else:  # Dantzig: the largest |d|, the first of equals
            j = np.where(cand, d, np.inf).argmin(axis=1)
        alpha = np.matvec(st.binv, st.columns(rows, j))

        # ratio test: keep basics in [0, u_B], entering within [0, u_j];
        # the minimum ratio leaves, and among the rows within PIVOT_TOL of
        # it the one with the smallest basic index. Basics move by
        # -t * delta: one falling to 0 (delta > 0) bounds t by x_B / delta,
        # one rising to its bound (delta < 0) by (u_B - x_B) / -delta
        if bounded:
            delta = np.where(st.at_upper[rows, j][:, None], -alpha, alpha)
            ub = st.u[lp, st.basis]
            up = (delta < -PIVOT_TOL) & np.isfinite(ub)
            room = np.where(delta > PIVOT_TOL, st.xb, np.where(up, ub - st.xb, np.inf))
        else:
            delta = alpha
            room = np.where(delta > PIVOT_TOL, st.xb, np.inf)
        ratio = room / np.abs(delta)
        ratio[ratio < -1e-12] = 0.0
        t_min = ratio.min(axis=1, initial=np.inf)
        # unbounded columns enter up to the first basic to leave, if any
        leaves = (t_min < st.u[rows, j] - PIVOT_TOL) if bounded else np.isfinite(t_min)
        leave_row = np.where(ratio < (t_min + PIVOT_TOL)[:, None], st.basis,
                             n_total).argmin(axis=1)
        every = leaves.all()
        if every:
            t = ratio[rows, leave_row]
        else:
            t = np.where(leaves, ratio[rows, leave_row], st.u[rows, j])
            if not np.isfinite(t).all():
                raise LpUnboundedError(f"unbounded in phase {phase}")
        t = np.maximum(t, 0.0)
        steps += 1
        pivots_left -= 1
        degenerate = t <= DEGENERATE_STEP_TOL
        if degenerate.any():
            st.degenerate_pivots += degenerate
            st.degenerate_run = np.where(degenerate, st.degenerate_run + 1, 0)
            if st.degenerate_run.max() >= BLAND_AFTER_DEGENERATE:
                st.bland |= st.degenerate_run >= BLAND_AFTER_DEGENERATE
                bland = True
        elif st.degenerate_run.any():
            st.degenerate_run[:] = 0
        st.xb -= t[:, None] * delta
        if every:
            p, sel = rows, slice(None)
            refresh_steps += 1
            refresh_in -= 1
        else:
            # entering variables flip to their opposite bound; bases unchanged
            flip = np.flatnonzero(~leaves)
            st.at_upper[flip, j[flip]] ^= True
            st.since_refresh += refresh_steps
            refresh_steps = 0
            if flip.size == size:
                continue
            p = sel = np.flatnonzero(leaves)
            st.since_refresh[p] += 1
            refresh_in = REFRESH_EVERY - int(st.since_refresh.max())
        jp, r, tp, a_p, binv = j[sel], leave_row[sel], t[sel], alpha[sel], st.binv[sel]
        leaving = st.basis[p, r]
        if bounded:
            st.xb[p, r] = np.where(st.at_upper[p, jp], st.u[p, jp] - tp, tp)
            st.at_upper[p, leaving] = up[p, r]
        else:
            st.xb[p, r] = tp
        st.in_basis[p, leaving] = False
        st.basis[p, r] = jp
        st.in_basis[p, jp] = True

        at_p = rows if every else np.arange(p.size)
        new_row = binv[at_p, r] / a_p[at_p, r][:, None]
        binv -= a_p[:, :, None] * new_row[:, None, :]
        binv[at_p, r] = new_row
        if not every:
            st.binv[p] = binv
        if refresh_in <= 0:
            st.since_refresh += refresh_steps
            refresh_steps = 0
            due = np.flatnonzero(st.since_refresh >= REFRESH_EVERY)
            st.refresh(due)
            st.refreshes[due] += 1
            refresh_in = REFRESH_EVERY - int(st.since_refresh.max())


def _drive_out_artificials(st, n_real):
    """Pivot basic artificials (value 0) of a stack of one out where a
    real column can replace them; rows with no real pivot are redundant
    and keep a fixed artificial. The pivots do not move any variable, so
    the final refresh restores exact basic values for the unchanged
    solution."""
    n, n_slack = st.n, n_real - st.n
    changed = False
    for row in range(st.basis.shape[1]):
        if st.basis[0, row] < n_real:
            continue
        brow = st.binv[0, row]
        alpha_row = np.concatenate([np.vecdot(st.at[0], brow),
                                    brow[st.unit_row[:n_slack]] * st.unit_sign[:n_slack]])
        alpha_row[st.in_basis[0, :n_real]] = 0.0
        cands = np.flatnonzero(np.abs(alpha_row) > 1e-7)
        if cands.size == 0:
            continue
        j = int(cands[0])
        alpha = st.binv[0] @ st.columns(np.zeros(1, dtype=int), np.array([j]))[0]
        leaving = st.basis[0, row]
        st.in_basis[0, leaving] = False
        st.at_upper[0, leaving] = False
        st.basis[0, row] = j
        st.in_basis[0, j] = True
        st.at_upper[0, j] = False
        new_row = st.binv[0, row] / alpha[row]
        st.binv[0] -= alpha[:, None] * new_row
        st.binv[0, row] = new_row
        changed = True
    if changed:
        st.refresh(np.zeros(1, dtype=int))
        st.refreshes[0] += 1


def lp_to_text(problem, name="lp"):
    """Render in LP interchange text format (readable by external solvers)."""
    names = problem.var_names or [f"x{i}" for i in range(problem.n_vars)]

    def term(coef, var, lead):
        if coef == 0:
            return ""
        sign = "-" if coef < 0 else ("" if lead else "+")
        mag = abs(coef)
        return f" {sign} {mag!r} {var}" if not lead else f" {sign}{mag!r} {var}"

    lines = [f"\\ {name}", "Minimize", " obj:"]
    parts, lead = [], True
    for j, cj in enumerate(problem.c):
        t = term(float(cj), names[j], lead)
        if t:
            parts.append(t)
            lead = False
    lines[-1] += "".join(parts) if parts else " 0 " + names[0]
    lines.append("Subject To")
    rel_map = {"<=": "<=", ">=": ">=", "=": "="}
    for i in range(problem.n_rows):
        row, lead = [], True
        for j in np.flatnonzero(problem.a[i]):
            row.append(term(float(problem.a[i, j]), names[j], lead))
            lead = False
        body = "".join(row) if row else " 0 " + names[0]
        lines.append(f" c{i}:{body} {rel_map[problem.rel[i]]} {float(problem.b[i])!r}")
    lines.append("Bounds")
    for j, nm in enumerate(names):
        lo, hi = float(problem.lower[j]), float(problem.upper[j])
        if np.isinf(hi):
            if lo != 0.0:
                lines.append(f" {nm} >= {lo!r}")
        else:
            lines.append(f" {lo!r} <= {nm} <= {hi!r}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def dump_lp(problem, path, name="lp"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(lp_to_text(problem, name=name))
