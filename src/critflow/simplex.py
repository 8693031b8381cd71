"""Dense two-phase revised simplex for small/medium LPs.

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

A solve may start from a given basis: when it is nonsingular and
primal feasible with every nonbasic variable at its lower bound, phase 2
starts from it with no artificials (a warm start, as between rounds of
column generation); otherwise phase 1 first drives the artificials of the
slack/artificial basis to zero. The basis may come with its B^-1, as the
last solve returned it: columns appended since then leave B unchanged,
so the next round of column generation takes that inverse after an
O(m^2) check instead of inverting B again. Each solution counts its
pivots per phase, its degenerate pivots and refreshes of B^-1, says
whether it inverted B or took the given inverse and whether Bland's rule
fired, and reports its largest row residual.

Desk-scale only: the basis inverse is kept as a dense matrix, refreshed
periodically to bound drift.
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
    c: np.ndarray                 # (n,) objective, minimized
    a: np.ndarray                 # (m, n)
    rel: list[str]                # per row: '<=', '>=', '='
    b: np.ndarray                 # (m,)
    lower: np.ndarray = None      # default zeros
    upper: np.ndarray = None      # default +inf
    var_names: list[str] = None   # optional, for text dumps

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        n = self.c.shape[0]
        m = self.b.shape[0]
        if self.a.shape != (m, n):
            raise ValueError(f"A shape {self.a.shape} != ({m},{n})")
        if len(self.rel) != m:
            raise ValueError("one relation per row required")
        for r in self.rel:
            if r not in ("<=", ">=", "="):
                raise ValueError(f"bad relation {r!r}")
        self.lower = (np.zeros(n) if self.lower is None
                      else np.asarray(self.lower, dtype=float))
        self.upper = (np.full(n, np.inf) if self.upper is None
                      else np.asarray(self.upper, dtype=float))
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def n_vars(self):
        return self.c.shape[0]

    @property
    def n_rows(self):
        return self.b.shape[0]


@dataclass
class LpSolution:
    x: np.ndarray
    objective: float
    iterations: int = 0
    duals: np.ndarray = None  # (m,) row duals c_B B^-1 of the final basis
    # (m,) final basis, one column per row: j < n is structural column j
    # and n + i the slack of row i; None while an artificial stays basic
    # (a redundant '=' row)
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
    """Solve to an optimal basic feasible solution.

    With `basis` (one column per row, numbered as in LpSolution.basis)
    and every nonbasic variable at its lower bound, B is inverted once and
    B B^-1 checked against the identity; if B is nonsingular and its
    basic values lie within their bounds to the scaled feasibility
    tolerance, phase 2 starts there, with no artificials. With `binv` as
    well, B^-1 of that basis (LpSolution.binv of a solve whose basis this
    is, after columns were added), a copy of it is taken without
    inverting when B x_B = b holds to SINGULAR_TOL, and B is inverted as
    above when it does not. A singular or infeasible basis, or none,
    takes the two-phase path from the slack/artificial basis. A basis of
    the wrong length, with an index out of range or with the slack of an
    '=' row, or a binv without a basis or of the wrong shape, raises
    ValueError.

    The row duals y = c_B B^-1 of the final basis come back as `duals`:
    y <= 0 on '<=' rows and y >= 0 on '>=' rows (within `tol`), and every
    column's reduced cost c_j - y @ A[:, j] is >= -tol unless the column
    sits at a finite upper bound. The solution also counts the pivots of
    each phase, the degenerate ones, whether Bland's rule took over and
    the refreshes of B^-1, and reports the largest row residual.

    Raises LpInfeasibleError / LpUnboundedError / LpIterationLimitError.
    """
    n, m = problem.n_vars, problem.n_rows
    lower, upper = problem.lower, problem.upper

    # shift lower bounds to 0: x = lower + y, 0 <= y <= u
    if np.any(~np.isfinite(lower)):
        raise ValueError("free (lower=-inf) variables are not supported")
    b1 = problem.b - problem.a @ lower
    rel = np.array(problem.rel)
    sign = np.where(rel == "<=", 1.0, np.where(rel == ">=", -1.0, 0.0))
    slack_rows = np.flatnonzero(sign)
    n_real = n + slack_rows.size
    slack_col = np.full(m, -1)  # internal column of each row's slack
    slack_col[slack_rows] = n + np.arange(slack_rows.size)
    u_real = np.concatenate([upper - lower, np.full(slack_rows.size, np.inf)])
    feas_tol = FEASIBILITY_TOL * (1.0 + float(np.max(np.abs(b1), initial=0.0)))

    state = None
    if binv is not None and (basis is None or np.shape(binv) != (m, m)):
        raise ValueError(f"binv needs a basis and shape ({m}, {m})")
    if basis is not None:
        warm = _internal_basis(basis, n, m, slack_col)
        state = _warm_state(_with_unit_columns(problem.a, slack_rows, sign),
                            b1, u_real, warm, feas_tol, binv)
    if state is None:
        # the slack starts basic where it is feasible, else an artificial
        slack_ok = ((sign > 0) & (b1 >= 0)) | ((sign < 0) & (b1 <= 0))
        art_rows = np.flatnonzero(~slack_ok)
        a2 = _with_unit_columns(problem.a, slack_rows, sign, art_rows,
                                np.where(b1[art_rows] >= 0, 1.0, -1.0))
        start = slack_col.copy()
        start[art_rows] = n_real + np.arange(art_rows.size)
        u = np.concatenate([u_real, np.full(art_rows.size, np.inf)])
        state = _SimplexState(a2=a2, b=b1, u=u, basis=start,
                              n_total=a2.shape[1], m=m)
        state.refresh()
    inverted = state.refreshes == 1  # else the given B^-1 was taken
    n_total = state.n_total
    if max_iters is None:
        max_iters = max(5000, 60 * (m + n_total))

    if n_total > n_real:
        c1 = np.zeros(n_total)
        c1[n_real:] = 1.0
        _run(state, c1, allowed_up_to=n_total, max_iters=max_iters, tol=tol,
             phase=1)
        if state.objective(c1) > feas_tol:
            raise LpInfeasibleError(
                f"infeasible (phase-1 residual {state.objective(c1):.3e})")
        _drive_out_artificials(state, n_real)
        state.u[n_real:] = 0.0  # artificials are fixed at zero from here on
    phase1_iterations = state.iterations

    c2 = np.concatenate([problem.c, np.zeros(n_total - n)])
    _run(state, c2, allowed_up_to=n_real, max_iters=max_iters, tol=tol, phase=2)

    y = state.values()
    x = lower + y[:n]
    x = np.clip(x, lower, upper)  # shave solver-tolerance dust off the bounds
    resid = problem.a @ x - problem.b
    violation = np.where(sign > 0, resid, np.where(sign < 0, -resid, np.abs(resid)))
    bad = np.flatnonzero(violation > feas_tol)
    if bad.size:
        raise LpError(f"solution violates row {bad[0]} by {resid[bad[0]]:.3e}")
    final = final_binv = None
    if np.all(state.basis < n_real):
        final, final_binv = state.basis.copy(), state.binv
        slack = final >= n
        final[slack] = n + slack_rows[final[slack] - n]
    return LpSolution(x=x, objective=float(problem.c @ x),
                      iterations=state.iterations,
                      duals=c2[state.basis] @ state.binv,
                      basis=final,
                      phase1_iterations=phase1_iterations,
                      phase2_iterations=state.iterations - phase1_iterations,
                      degenerate_pivots=state.degenerate_pivots,
                      used_bland=state.bland,
                      refreshes=state.refreshes - inverted,
                      max_residual=max(float(np.max(violation, initial=0.0)), 0.0),
                      inverted=inverted, binv=final_binv)


def _with_unit_columns(a, slack_rows, sign, art_rows=(), art_sign=()):
    """[A | slack/surplus columns | artificial columns], built in one array."""
    m, n = a.shape
    n_slack, n_art = len(slack_rows), len(art_rows)
    a2 = np.zeros((m, n + n_slack + n_art))
    a2[:, :n] = a
    a2[slack_rows, n + np.arange(n_slack)] = sign[slack_rows]
    a2[art_rows, n + n_slack + np.arange(n_art)] = art_sign
    return a2


def _internal_basis(basis, n, m, slack_col):
    """A caller's basis (slack of row i numbered n + i) in the solver's
    column numbering (slacks of the inequality rows only, in row order)."""
    basis = np.asarray(basis)
    if basis.shape != (m,) or (m and not np.issubdtype(basis.dtype, np.integer)):
        raise ValueError(f"a basis needs one integer column index per row ({m})")
    if np.any((basis < 0) | (basis >= n + m)):
        raise ValueError(f"basis index out of range [0, {n + m})")
    internal = basis.astype(int)
    slack = internal >= n
    internal[slack] = slack_col[internal[slack] - n]
    if np.any(internal < 0):
        raise ValueError("an '=' row has no slack to make basic")
    return internal


def _warm_state(a2, b, u, basis, feas_tol, binv=None):
    """The simplex state at `basis` with every nonbasic variable at 0, or
    None if B is singular or a basic value leaves its bounds. A given
    B^-1 is taken when B x_B matches b, an O(m^2) check; otherwise B is
    inverted and B B^-1 checked against the identity, which is O(m^3)."""
    state = _SimplexState(a2=a2, b=b, u=u, basis=basis, n_total=a2.shape[1],
                          m=basis.size)
    if binv is not None:
        state.refresh(binv)
        miss = np.abs(a2[:, basis] @ state.xb - b)
        if not np.all(miss <= SINGULAR_TOL * (1.0 + np.max(np.abs(b)))):
            binv = None  # also on nan
    if binv is None:
        try:
            state.refresh()
        except np.linalg.LinAlgError:
            return None
        off = a2[:, basis] @ state.binv - np.eye(basis.size)
        if not np.all(np.abs(off) <= SINGULAR_TOL):  # also catches nan
            return None
    if np.any(state.xb < -feas_tol) or np.any(state.xb > u[basis] + feas_tol):
        return None
    return state


@dataclass
class _SimplexState:
    a2: np.ndarray
    b: np.ndarray
    u: np.ndarray
    basis: np.ndarray
    n_total: int
    m: int
    binv: np.ndarray = None
    xb: np.ndarray = None
    at_upper: np.ndarray = None
    in_basis: np.ndarray = None
    iterations: int = 0
    pivots_since_refresh: int = 0
    refreshes: int = 0
    bland: bool = False
    degenerate_run: int = 0
    degenerate_pivots: int = 0

    def refresh(self, binv=None):
        """(Re)compute the basis inverse, or take a copy of the given one,
        and the basic values from scratch."""
        if self.at_upper is None:
            self.at_upper = np.zeros(self.n_total, dtype=bool)
        self.in_basis = np.zeros(self.n_total, dtype=bool)
        self.in_basis[self.basis] = True
        if binv is None:
            self.binv = np.linalg.inv(self.a2[:, self.basis])
            self.refreshes += 1
        else:
            self.binv = np.array(binv, dtype=float)
        self.xb = self.binv @ self._rhs_effective()
        self.pivots_since_refresh = 0

    def _rhs_effective(self):
        nb_up = self.at_upper & ~self.in_basis
        if np.any(nb_up):
            return self.b - self.a2[:, nb_up] @ self.u[nb_up]
        return self.b.copy()

    def values(self):
        y = np.zeros(self.n_total)
        nb_up = self.at_upper & ~self.in_basis
        y[nb_up] = self.u[nb_up]
        y[self.basis] = self.xb
        return y

    def objective(self, c):
        return float(c @ self.values())


def _run(state, c, allowed_up_to, max_iters, tol, phase):
    """Pivot until optimal for cost vector c. Mutates state in place."""
    a2, u = state.a2, state.u
    while True:
        if state.iterations >= max_iters:
            raise LpIterationLimitError(
                f"iteration limit {max_iters} exceeded in phase {phase}",
                basis=state.basis.copy(), x=state.values())
        dual = c[state.basis] @ state.binv
        d = c - dual @ a2
        movable = ~state.in_basis & (u > 0)
        movable[allowed_up_to:] = False
        cand = movable & ((~state.at_upper & (d < -tol)) | (state.at_upper & (d > tol)))
        if not np.any(cand):
            return
        idxs = np.flatnonzero(cand)
        if state.bland:
            j = int(idxs[0])
        else:
            j = int(idxs[np.argmax(np.abs(d[idxs]))])
        sigma = -1.0 if state.at_upper[j] else 1.0
        alpha = state.binv @ a2[:, j]
        delta = sigma * alpha  # basic values move by -t * delta

        # ratio test: keep basics in [0, u_B], entering within [0, u_j];
        # the minimum ratio leaves, and among the rows within PIVOT_TOL of
        # it the one with the smallest basic index
        ub = u[state.basis]
        down = delta > PIVOT_TOL
        up = (delta < -PIVOT_TOL) & np.isfinite(ub)
        ratio = np.full(state.m, np.inf)
        ratio[down] = state.xb[down] / delta[down]
        ratio[up] = (ub[up] - state.xb[up]) / -delta[up]
        ratio[ratio < -1e-12] = 0.0
        t_best = u[j] if np.isfinite(u[j]) else np.inf
        leave_row = -1
        leave_to_upper = False
        t_min = ratio.min(initial=np.inf)
        if t_min < t_best - PIVOT_TOL:
            ties = np.flatnonzero(ratio < t_min + PIVOT_TOL)
            leave_row = int(ties[np.argmin(state.basis[ties])])
            t_best = ratio[leave_row]
            leave_to_upper = bool(up[leave_row])
        if not np.isfinite(t_best):
            raise LpUnboundedError(f"unbounded in phase {phase}")

        t = max(t_best, 0.0)
        state.iterations += 1
        if t <= DEGENERATE_STEP_TOL:
            state.degenerate_pivots += 1
            state.degenerate_run += 1
            if state.degenerate_run >= BLAND_AFTER_DEGENERATE:
                state.bland = True
        else:
            state.degenerate_run = 0

        if leave_row < 0:
            # entering variable flips to its opposite bound; basis unchanged
            state.xb -= t * delta
            state.at_upper[j] = ~state.at_upper[j]
            continue

        state.xb -= t * delta
        enter_val = (u[j] - t) if state.at_upper[j] else t
        leaving = state.basis[leave_row]
        state.in_basis[leaving] = False
        state.at_upper[leaving] = leave_to_upper
        state.basis[leave_row] = j
        state.in_basis[j] = True
        state.xb[leave_row] = enter_val

        piv = alpha[leave_row]
        new_row = state.binv[leave_row] / piv
        state.binv -= alpha[:, None] * new_row
        state.binv[leave_row] = new_row
        state.pivots_since_refresh += 1
        if state.pivots_since_refresh >= REFRESH_EVERY:
            state.refresh()


def _drive_out_artificials(state, n_real):
    """Pivot basic artificials (value 0) out where a real column can replace
    them; rows with no real pivot are redundant and keep a fixed artificial.
    The pivots do not move any variable, so the final refresh restores
    exact basic values for the unchanged solution."""
    changed = False
    for row in range(state.m):
        if state.basis[row] < n_real:
            continue
        alpha_row = state.binv[row] @ state.a2[:, :n_real]
        alpha_row[state.in_basis[:n_real]] = 0.0
        cands = np.flatnonzero(np.abs(alpha_row) > 1e-7)
        if cands.size == 0:
            continue
        j = int(cands[0])
        alpha = state.binv @ state.a2[:, j]
        leaving = state.basis[row]
        state.in_basis[leaving] = False
        state.at_upper[leaving] = False
        state.basis[row] = j
        state.in_basis[j] = True
        state.at_upper[j] = False
        piv = alpha[row]
        new_row = state.binv[row] / piv
        state.binv -= alpha[:, None] * new_row
        state.binv[row] = new_row
        changed = True
    if changed:
        state.refresh()


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
