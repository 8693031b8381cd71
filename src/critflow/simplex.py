"""Dense revised simplex for small/medium LPs, one LP or a stack of them.

The problem form is the one the path LP has, and the only one LpProblem
holds:

    minimize    c @ x
    subject to  A x <= b   on the first n_inequalities rows
                A x  = b   on the rows after them
                x >= 0

with at least one row and one column.

Every solve starts from a primal feasible basis the caller gives (a
crash basis, or the last solve's basis after columns were added, as
between rounds of column generation), so there is no phase 1. The basis
may come with its B^-1, as the last solve returned it or as the caller
built it: that inverse is taken after an O(m^2) check of B x_B against b
instead of inverting B. Pricing is Dantzig's rule; after a run of
degenerate pivots the solver permanently falls back to Bland's rule,
which cannot cycle. Everything is deterministic: ties break toward the
smallest variable index.

A problem may carry a leading stack axis: B LPs of one shape and one
count of '<=' rows, with c (B, n), A (B, m, n) and b (B, m). One pivot
loop pivots every LP of a stack at once, each by its own rules, and an
LP leaves the loop once it is optimal; a single LP is a stack of one.
LPs with fewer columns are padded after their real columns with zero
columns of zero cost, which price at exactly 0 and so never enter a
basis, and an LP gets the same bits alone or inside any stack: each
product with B^-1 is the LP's own (np.matvec, np.vecmat), each column's
reduced cost one dot product over its m rows (np.vecdot), whatever the
width, and the objective is summed left to right. Every LP of a call
starts at 0 pivots and every live LP pivots once per step, so one step
count gives each LP its pivots (the step it leaves at) and its refreshes
of B^-1 (one each REFRESH_EVERY steps); the basic columns are masked out
of pricing through the basis itself.

The slack of '<=' row k is column n + k, a unit column on row k that is
never stored. Each solution counts its pivots, its degenerate pivots and
refreshes of B^-1, says whether it inverted B or took the given inverse
and whether Bland's rule fired, and reports its largest row residual.
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


class LpUnboundedError(LpError):
    pass


class LpIterationLimitError(LpError):
    def __init__(self, message, basis=None, x=None):
        super().__init__(message)
        self.basis = basis  # last basis, for post-mortem
        self.x = x


@dataclass
class LpProblem:
    """min c @ x over A x <= b on the first n_inequalities rows, A x = b
    on the rest, x >= 0: the one form solve_lp solves. A stack of B LPs
    has c (B, n), A (B, m, n) and b (B, m) and one n_inequalities for all.
    Raises ValueError for an A that is neither 2-D nor 3-D, an LP (or a
    stack) with no rows, columns or LPs, c or b not matching A, or a
    count outside [0, m]."""

    c: np.ndarray                 # (n,) objective, minimized; (B, n) in a stack
    a: np.ndarray                 # (m, n); (B, m, n) in a stack
    b: np.ndarray                 # (m,); (B, m) in a stack
    n_inequalities: int           # the leading '<=' rows; the rest are '='
    var_names: list[str] = None   # optional, for text dumps

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        if self.a.ndim not in (2, 3) or not all(self.a.shape):
            raise ValueError(f"A of shape {self.a.shape}: an LP has rows and columns, "
                             f"and a stack at least one (m, n) LP")
        lead, (m, n) = self.a.shape[:-2], self.a.shape[-2:]
        self.c = np.asarray(self.c, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.c.shape != (*lead, n) or self.b.shape != (*lead, m):
            raise ValueError(f"c {self.c.shape} or b {self.b.shape} does not match A "
                             f"{self.a.shape}")
        if not 0 <= self.n_inequalities <= m:
            raise ValueError(f"{self.n_inequalities} '<=' rows of {m}")

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


@dataclass
class LpSolution:
    # For a stack, every field but `iterations` gains a leading stack axis:
    # x (B, n), objective (B,), basis (B, m), and so on.
    x: np.ndarray
    objective: float
    iterations: int = 0           # pivots of the whole call, all LPs
    pivots: int = 0               # pivots of this LP
    duals: np.ndarray = None      # (m,) row duals c_B B^-1 of the final basis
    # (m,) final basis, one column per row: j < n is structural column j
    # and n + k the slack of '<=' row k
    basis: np.ndarray = None
    degenerate_pivots: int = 0    # pivots with step <= DEGENERATE_STEP_TOL
    used_bland: bool = False      # the anti-cycling fallback fired
    refreshes: int = 0            # rebuilds of B^-1 from scratch after the start
    max_residual: float = 0.0     # largest row violation of the returned x
    # the start inverted B (True) or took the B^-1 given with the basis
    inverted: bool = True
    binv: np.ndarray = None       # (m, m) B^-1 of the final basis, rows in basis order


def solve_lp(problem, basis, binv=None, max_iters=None):
    """Solve to an optimal basic feasible solution from `basis`; for a
    stack, every LP of it, in one pivot loop.

    `basis` holds one column per row, numbered as in LpSolution.basis
    ((B, m) for a stack), every other variable at 0. Without `binv`, B
    is inverted once and B B^-1 checked against the identity. With
    `binv` ((B, m, m) for a stack: LpSolution.binv of a solve whose basis
    this is, after columns were added, or one the caller built), a copy
    of it is taken without inverting when B x_B = b holds to
    SINGULAR_TOL, and B is inverted as above when it does not. A basis
    that is singular, or whose basic values fall below 0 by more than
    the scaled feasibility tolerance, raises LpError naming its LP of
    the stack. A basis of the wrong shape, with an index out of range or
    with the slack of an '=' row, or a binv of the wrong shape, raises
    ValueError.

    The row duals y = c_B B^-1 of the final basis come back as `duals`:
    y <= 0 on the '<=' rows (within REDUCED_COST_TOL), and every column's
    reduced cost c_j - y @ A[:, j] is >= -REDUCED_COST_TOL. The solution
    also counts each LP's pivots, the degenerate ones, whether Bland's
    rule took over and the refreshes of B^-1, and reports the largest row
    residual.
    `max_iters` bounds the pivots of each LP.

    Raises LpUnboundedError / LpIterationLimitError when any LP of the
    call does. The LpIterationLimitError's basis and x are those of the
    first LP of the stack still pivoting at the limit, as that LP alone
    would report them.
    """
    stacked = problem.stack is not None
    n, m, n_slack = problem.n_vars, problem.n_rows, problem.n_inequalities
    c, a, b = problem.c, problem.a, problem.b
    if not stacked:
        c, a, b = c[None], a[None], b[None]
    size = c.shape[0]
    lead = (size,) if stacked else ()
    basis = _checked_basis(basis, n, m, n_slack, lead)
    if binv is not None:
        if np.shape(binv) != (*lead, m, m):
            raise ValueError(f"binv needs shape {(*lead, m, m)}")
        binv = np.asarray(binv).reshape(size, m, m)

    # the columns as rows, each contiguous for vecdot
    at = a.transpose(0, 2, 1)
    if at.strides[-1] != at.itemsize:
        at = np.ascontiguousarray(at)
    scale = 1.0 + np.abs(b).max(axis=1, initial=0.0)  # of the row tolerances
    feas_tol = FEASIBILITY_TOL * scale

    st = _Stack(at, b, n_slack, basis)
    _warm_start(st, binv, scale, stacked)
    if max_iters is None:
        max_iters = max(5000, 60 * (m + st.n_total))
    c2 = np.concatenate([c, np.zeros((size, n_slack))], axis=1)
    pivots = _run(st, c2, max_iters)

    x = np.maximum(st.values()[:, :n], 0.0)  # shave solver-tolerance dust off 0
    resid = (x[:, None, :] @ at)[:, 0] - b
    violation = np.concatenate([resid[:, :n_slack], np.abs(resid[:, n_slack:])], axis=1)
    if (violation > feas_tol[:, None]).any():
        lp, row = np.argwhere(violation > feas_tol[:, None])[0]
        raise LpError(f"solution violates row {row} by {resid[lp, row]:.3e}"
                      + (f" in LP {lp} of the stack" if stacked else ""))
    # summed left to right: a stack's zero padding columns leave every bit
    sol = LpSolution(x=x, objective=np.cumsum(c * x, axis=1)[:, -1],
                     iterations=int(pivots.sum()), pivots=pivots,
                     duals=np.vecmat(c2[st.lp, st.basis], st.binv), basis=st.basis,
                     degenerate_pivots=st.degenerate_pivots, used_bland=st.bland,
                     refreshes=pivots // REFRESH_EVERY,
                     max_residual=np.maximum(violation.max(axis=1, initial=0.0), 0.0),
                     inverted=st.inverted, binv=st.binv)
    return sol if stacked else _single(sol)


def _single(sol):
    """The LpSolution of a stack of one as that of a single LP."""
    return LpSolution(x=sol.x[0], objective=float(sol.objective[0]),
                      iterations=sol.iterations, pivots=int(sol.pivots[0]),
                      duals=sol.duals[0], basis=sol.basis[0],
                      degenerate_pivots=int(sol.degenerate_pivots[0]),
                      used_bland=bool(sol.used_bland[0]),
                      refreshes=int(sol.refreshes[0]),
                      max_residual=float(sol.max_residual[0]),
                      inverted=bool(sol.inverted[0]), binv=sol.binv[0])


def _checked_basis(basis, n, m, n_slack, lead):
    """A copy of the caller's basis, with a stack axis, once its shape
    and column indices are checked."""
    basis = np.asarray(basis)
    if basis.shape != (*lead, m) or basis.dtype.kind not in "iu":
        raise ValueError(f"a basis needs one integer column index per row, "
                         f"shape {(*lead, m)}")
    if basis.min() < 0 or basis.max() >= n + m:
        raise ValueError(f"basis index out of range [0, {n + m})")
    if basis.max() >= n + n_slack:
        raise ValueError("an '=' row has no slack to make basic")
    return basis.reshape(*(lead or (1,)), m).astype(int)


class _Stack:
    """Simplex state of a stack of LPs over the columns [A | I]: the
    structural columns as the rows of `at`, then the slack of each '<='
    row k, column n + k, a unit column on row k that is never stored.

    It holds only what differs between the LPs and cannot be derived:
    the basis (which also says which columns are basic), B^-1, the basic
    values and the degenerate-pivot state. Pivots and refreshes are
    _run's one step count; `inverted` is _warm_start's and stays with
    the full stack."""

    _MUTABLE = ("basis", "binv", "xb", "bland", "degenerate_run", "degenerate_pivots")

    def __init__(self, at, b, n_slack, basis, **state):
        self.at, self.b, self.n_slack = at, b, n_slack  # (B, n, m), (B, m)
        self.basis = basis  # (B, m)
        size = basis.shape[0]
        self.lp = np.arange(size)[:, None]
        if state:
            self.__dict__.update(state)
            return
        self.binv = self.xb = None  # (B, m, m), (B, m)
        self.degenerate_run, self.degenerate_pivots = np.zeros((2, size), dtype=int)
        self.bland = np.zeros(size, dtype=bool)

    @property
    def n(self):
        return self.at.shape[1]

    @property
    def n_total(self):
        return self.at.shape[1] + self.n_slack

    def take(self, keep):
        """The LPs of `keep` (a mask or indices) as a stack of their own."""
        return _Stack(self.at[keep], self.b[keep], self.n_slack, self.basis[keep],
                      **{name: getattr(self, name)[keep] for name in self._MUTABLE[1:]})

    def put(self, ids, part, which):
        """Write the state of part's LPs `which` back to this stack's `ids`."""
        for name in self._MUTABLE:
            getattr(self, name)[ids] = getattr(part, name)[which]

    def columns(self, lps, cols):
        """(len(cols), m): column cols[i] of LP lps[i], slack columns built."""
        n = self.n
        if cols.max(initial=0) < n:
            return self.at[lps, cols]
        out = self.at[lps, np.minimum(cols, n - 1)]
        k = np.flatnonzero(cols >= n)
        out[k] = 0.0
        out[k, cols[k] - n] = 1.0
        return out

    def basis_matrix(self, lps):
        """(len(lps), m, m): B of each LP in lps."""
        m = self.basis.shape[1]
        cols = self.columns(np.repeat(lps, m), self.basis[lps].reshape(-1))
        return cols.reshape(len(lps), m, m).transpose(0, 2, 1)

    def basis_times(self, v):
        """(B, m): B v for every LP, v in basis order."""
        n = self.n
        w = np.zeros((self.basis.shape[0], self.n_total))
        w[self.lp, self.basis] = v
        out = (w[:, None, :n] @ self.at)[:, 0]
        out[:, :self.n_slack] += w[:, n:]
        return out

    def refresh(self):
        """Recompute B^-1 and the basic values of every LP from scratch."""
        self.binv = np.linalg.inv(self.basis_matrix(np.arange(self.basis.shape[0])))
        self.xb = (self.binv @ self.b[:, :, None])[:, :, 0]

    def values(self):
        """(B, n_total): every variable's value."""
        y = np.zeros((self.basis.shape[0], self.n_total))
        y[self.lp, self.basis] = self.xb
        return y


def _warm_start(st, binv, scale, stacked):
    """Set up B^-1 and the basic values of every LP of st at its basis.
    A given B^-1 is taken where B x_B matches b to SINGULAR_TOL times
    `scale`, an O(m^2) check; elsewhere B is inverted and B B^-1 checked
    against the identity, which is O(m^3). Raises LpError for the first
    LP whose B is singular or whose basic values fall below 0 by more
    than FEASIBILITY_TOL times `scale`."""
    size, m = st.basis.shape
    if binv is not None:
        st.binv = np.array(binv, dtype=float)
        st.xb = np.matvec(st.binv, st.b)
        miss = np.abs(st.basis_times(st.xb) - st.b).max(axis=1, initial=0.0)
        st.inverted = ~(miss <= SINGULAR_TOL * scale)  # also on nan
    else:
        st.binv, st.xb = np.empty((size, m, m)), np.empty((size, m))
        st.inverted = np.ones(size, dtype=bool)
    singular = np.zeros(size, dtype=bool)
    redo = np.flatnonzero(st.inverted)
    for i, bmat in zip(redo, st.basis_matrix(redo)):
        try:
            st.binv[i] = np.linalg.inv(bmat)
        except np.linalg.LinAlgError:
            singular[i] = True
            continue
        singular[i] = not np.all(np.abs(bmat @ st.binv[i] - np.eye(m)) <= SINGULAR_TOL)
        st.xb[i] = st.binv[i] @ st.b[i]
    infeasible = ~(st.xb >= -(FEASIBILITY_TOL * scale)[:, None]).all(axis=1)  # also on nan
    for i in np.flatnonzero(singular | infeasible)[:1]:
        where = f" of LP {i} of the stack" if stacked else ""
        raise LpError(f"the start basis{where} is singular" if singular[i] else
                      f"the start basis{where} is infeasible: a basic value of "
                      f"{st.xb[i].min():.3e}")


def _run(full, c, max_iters):
    """Pivot every LP of the stack until optimal for its costs c (B,
    n_total), and return each LP's pivots (B,). Mutates the stack in
    place. Every live LP pivots once per step, so one step count serves
    them all: an LP's pivots are the step at which it leaves the loop,
    the limit is the step reaching max_iters, and B^-1 is rebuilt for
    every live LP each REFRESH_EVERY steps. An LP with nothing left to
    enter leaves the loop: its state goes back to the stack, and the
    others go on as a stack of their own. At the limit, the error names
    the first LP still live."""
    st, ids = full, None  # ids: the LPs of full that st holds, once it is a copy
    n, n_slack, n_total = full.n, full.n_slack, full.n_total
    bland = False  # some LP has turned to Bland's rule
    size = st.basis.shape[0]
    rows = np.arange(size)
    lp = rows[:, None]
    d = np.empty((size, n_total))
    pivots = np.zeros(size, dtype=int)
    step = 0
    while True:
        if step >= max_iters:
            raise LpIterationLimitError(f"iteration limit {max_iters} exceeded",
                                        basis=st.basis[0].copy(), x=st.values()[0])
        dual = np.vecmat(c[lp, st.basis], st.binv)
        np.subtract(c[:, :n], np.vecdot(st.at, dual[:, None, :]), out=d[:, :n])
        np.negative(dual[:, :n_slack], out=d[:, n:])
        d[lp, st.basis] = 0.0  # a basic column never enters
        cand = d < -REDUCED_COST_TOL
        live = cand.any(axis=1)
        if not live.all():
            if ids is None:
                ids = rows
            else:
                full.put(ids[~live], st, ~live)
            pivots[ids[~live]] = step
            if not live.any():
                return pivots
            ids, st, c, d, cand = ids[live], st.take(live), c[live], d[live], cand[live]
            size = ids.size
            rows = np.arange(size)
            lp = rows[:, None]
        # Dantzig: the least d, the first of equals; Bland: the first candidate
        j = np.where(cand, d, np.inf).argmin(axis=1)
        if bland:
            j = np.where(st.bland, cand.argmax(axis=1), j)
        alpha = np.matvec(st.binv, st.columns(rows, j))

        # ratio test: basics move by -t * alpha, and one with alpha > 0
        # falls to 0 at t = x_B / alpha. The minimum ratio leaves, and
        # among the rows within PIVOT_TOL of it the one with the smallest
        # basic index
        ratio = np.where(alpha > PIVOT_TOL, st.xb, np.inf) / np.abs(alpha)
        ratio[ratio < -1e-12] = 0.0
        t_min = ratio.min(axis=1, initial=np.inf)
        if not np.isfinite(t_min).all():
            raise LpUnboundedError("unbounded")
        leave_row = np.where(ratio < (t_min + PIVOT_TOL)[:, None], st.basis,
                             n_total).argmin(axis=1)
        t = np.maximum(ratio[rows, leave_row], 0.0)
        step += 1
        degenerate = t <= DEGENERATE_STEP_TOL
        if degenerate.any():
            st.degenerate_pivots += degenerate
            st.degenerate_run = np.where(degenerate, st.degenerate_run + 1, 0)
            if st.degenerate_run.max() >= BLAND_AFTER_DEGENERATE:
                st.bland |= st.degenerate_run >= BLAND_AFTER_DEGENERATE
                bland = True
        elif st.degenerate_run.any():
            st.degenerate_run[:] = 0
        st.xb -= t[:, None] * alpha
        st.xb[rows, leave_row] = t
        st.basis[rows, leave_row] = j

        binv = st.binv
        new_row = binv[rows, leave_row] / alpha[rows, leave_row][:, None]
        binv -= alpha[:, :, None] * new_row[:, None, :]
        binv[rows, leave_row] = new_row
        if step % REFRESH_EVERY == 0:
            st.refresh()


def lp_to_text(problem, name="lp"):
    """Render one LP in LP interchange text format (readable by external
    solvers); x >= 0 is the format's default, so there is no Bounds
    section. A stack raises ValueError."""
    if problem.stack is not None:
        raise ValueError(f"the LP text format holds one LP, not a stack of "
                         f"{problem.stack}")
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
    for i in range(problem.n_rows):
        row, lead = [], True
        for j in np.flatnonzero(problem.a[i]):
            row.append(term(float(problem.a[i, j]), names[j], lead))
            lead = False
        body = "".join(row) if row else " 0 " + names[0]
        sense = "<=" if i < problem.n_inequalities else "="
        lines.append(f" c{i}:{body} {sense} {float(problem.b[i])!r}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def dump_lp(problem, path, name="lp"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(lp_to_text(problem, name=name))
