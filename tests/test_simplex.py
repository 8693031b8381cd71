import numpy as np
import pytest

import critflow as cf
from critflow import simplex
from oracles import lp_vertex_enumeration_oracle


def test_single_variable_max():
    # max x s.t. x <= 3 as min -x, from the slack basis
    p = cf.LpProblem(c=[-1.0], a=[[1.0]], b=[3.0], n_inequalities=1)
    s = cf.solve_lp(p, basis=[1])
    assert s.x[0] == pytest.approx(3.0, abs=1e-9)
    assert s.objective == pytest.approx(-3.0, abs=1e-9)


def test_degenerate_optimum_face():
    # min -x-y s.t. x+y <= 2, x <= 2, y <= 2: any optimal vertex gives -2
    p = cf.LpProblem(c=[-1.0, -1.0], a=[[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
                     b=[2.0, 2.0, 2.0], n_inequalities=3)
    s = cf.solve_lp(p, basis=[2, 3, 4])
    assert s.objective == pytest.approx(-2.0, abs=1e-9)
    assert s.x.sum() == pytest.approx(2.0, abs=1e-9)


def _planted_lp(rng, n, n_le, n_eq):
    """min c x over n_le '<=' rows, then n_eq '=' rows, x >= 0, and a
    planted feasible basis: m columns of [A | I] (the structurals and the
    slacks of the '<=' rows) at random positive values, b = A[:, B] x_B.
    Row 0 is positive, so the feasible region is bounded. Returns
    (problem, basis)."""
    m = n_le + n_eq
    a = rng.uniform(-1, 1, (m, n))
    a[0] = rng.uniform(0.1, 1.0, n)
    full = np.hstack([a, np.eye(m)[:, :n_le]])
    while True:
        basis = np.sort(rng.choice(n + n_le, m, replace=False))
        if abs(np.linalg.det(full[:, basis])) > 1e-2:
            break
    b = full[:, basis] @ rng.uniform(0.1, 1.0, m)
    return cf.LpProblem(c=rng.uniform(-1, 1, n), a=a, b=b, n_inequalities=n_le), basis


def _random_planted_lp(rng):
    n, n_le = int(rng.integers(3, 7)), int(rng.integers(1, 4))
    return _planted_lp(rng, n, n_le, int(rng.integers(n_le == 1, min(3, n - 1))))


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(2024)
    equality_rows = 0
    for trial in range(20):
        p, basis = _random_planted_lp(rng)
        got = cf.solve_lp(p, basis=basis).objective
        want = lp_vertex_enumeration_oracle(p)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-8), f"trial {trial}"
        equality_rows += p.n_rows - p.n_inequalities
    assert equality_rows >= 10


def test_unbounded_detected():
    p = cf.LpProblem(c=[-1.0, 0.0], a=[[0.0, 1.0]], b=[1.0], n_inequalities=1)
    with pytest.raises(cf.LpUnboundedError):
        cf.solve_lp(p, basis=[2])


def test_iteration_limit_reports_basis():
    p = cf.LpProblem(c=[-1.0, -1.0], a=[[1.0, 2.0], [2.0, 1.0]],
                     b=[4.0, 4.0], n_inequalities=2)
    with pytest.raises(cf.LpIterationLimitError) as exc:
        cf.solve_lp(p, basis=[2, 3], max_iters=1)
    assert exc.value.basis is not None


def test_equality_rows():
    # min x+2y s.t. x <= 4, x+y = 5 -> x=4, y=1, from y basic at 5
    p = cf.LpProblem(c=[1.0, 2.0], a=[[1.0, 0.0], [1.0, 1.0]], b=[4.0, 5.0],
                     n_inequalities=1)
    s = cf.solve_lp(p, basis=[2, 1])
    assert s.x == pytest.approx([4.0, 1.0], abs=1e-9)
    assert s.objective == pytest.approx(6.0, abs=1e-9)


def test_solver_deterministic():
    p, basis = _planted_lp(np.random.default_rng(5), 5, 2, 2)
    a = cf.solve_lp(p, basis=basis)
    b = cf.solve_lp(p, basis=basis)
    assert np.array_equal(a.x, b.x)


def test_bad_problem_shapes_rejected():
    with pytest.raises(ValueError, match="does not match A"):
        cf.LpProblem(c=[1.0, 1.0], a=[[1.0]], b=[1.0], n_inequalities=1)
    with pytest.raises(ValueError, match="does not match A"):
        cf.LpProblem(c=[1.0], a=[[1.0]], b=[1.0, 2.0], n_inequalities=1)
    for count in (-1, 2):  # the '<=' rows of an LP of one row
        with pytest.raises(ValueError, match=f"{count} '<=' rows of 1"):
            cf.LpProblem(c=[1.0], a=[[1.0]], b=[1.0], n_inequalities=count)
    # A is (m, n) or a stack (B, m, n), never promoted from 1-D
    for a in ([1.0], 1.0, [[[[1.0]]]]):
        with pytest.raises(ValueError, match="an LP has rows and columns"):
            cf.LpProblem(c=[1.0], a=a, b=[1.0], n_inequalities=1)
    # no rows, no columns, a stack of no LPs
    for c, a, b in (([1.0], np.zeros((0, 1)), []), ([], np.zeros((1, 0)), [1.0]),
                    (np.zeros((0, 1)), np.zeros((0, 1, 1)), np.zeros((0, 1)))):
        with pytest.raises(ValueError, match="an LP has rows and columns"):
            cf.LpProblem(c=c, a=a, b=b, n_inequalities=0)


def test_lp_text_dump(tmp_path):
    p = cf.LpProblem(c=[1.0, 0.5], a=[[1.0, 1.0]], b=[2.0], n_inequalities=1,
                     var_names=["U", "r0"])
    text = cf.lp_to_text(p, name="demo")
    for token in ["Minimize", "Subject To", "End", "U", "r0"]:
        assert token in text
    assert "Bounds" not in text  # x >= 0 is the format's default
    path = tmp_path / "p.lp"
    cf.dump_lp(p, path)
    assert path.read_text().startswith("\\ lp")


def test_lp_text_dump_rejects_a_stack(tmp_path):
    stack = cf.LpProblem(c=[[1.0], [2.0]], a=[[[1.0]], [[1.0]]], b=[[1.0], [2.0]],
                         n_inequalities=1)
    with pytest.raises(ValueError, match="one LP, not a stack of 2"):
        cf.lp_to_text(stack)
    with pytest.raises(ValueError, match="one LP"):
        cf.dump_lp(stack, tmp_path / "stack.lp")


def _solved_cases(seed, count):
    """(problem, solution from its planted basis) for random planted LPs."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        p, basis = _random_planted_lp(rng)
        cases.append((p, cf.solve_lp(p, basis=basis)))
    return cases


def test_solution_counters():
    rng = np.random.default_rng(31)
    pivots = 0
    for _ in range(20):
        p, basis = _random_planted_lp(rng)
        s = cf.solve_lp(p, basis=basis)
        assert s.pivots == s.iterations
        assert 0 <= s.degenerate_pivots <= s.iterations
        assert not s.used_bland and s.refreshes == 0
        assert 0.0 <= s.max_residual <= 1e-7 * (1 + np.abs(p.b).max())
        pivots += s.iterations
    assert pivots > 20


def test_refresh_and_bland_counters(monkeypatch):
    p, basis = _planted_lp(np.random.default_rng(8), 6, 3, 2)
    tie = _tie_lp()
    plain, plain_tie = cf.solve_lp(p, basis=basis), cf.solve_lp(tie, basis=[2, 3, 4])
    monkeypatch.setattr(simplex, "REFRESH_EVERY", 1)
    monkeypatch.setattr(simplex, "BLAND_AFTER_DEGENERATE", 1)
    s, s_tie = cf.solve_lp(p, basis=basis), cf.solve_lp(tie, basis=[2, 3, 4])
    assert s.refreshes > 0 and s_tie.used_bland and not plain_tie.used_bland
    assert s.objective == pytest.approx(plain.objective, abs=1e-12)
    assert s_tie.objective == pytest.approx(plain_tie.objective, abs=1e-12)


def test_resolve_from_final_basis_takes_no_pivots():
    for p, cold in _solved_cases(7, 12):
        warm = cf.solve_lp(p, basis=cold.basis)
        assert warm.iterations == 0
        assert np.array_equal(warm.basis, cold.basis)
        assert warm.x == pytest.approx(cold.x, abs=1e-12)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)


def test_singular_basis_raises():
    for p, cold in _solved_cases(11, 8):
        basis = cold.basis.copy()
        basis[-1] = basis[0]
        with pytest.raises(cf.LpError, match="the start basis is singular"):
            cf.solve_lp(p, basis=basis)
        with pytest.raises(cf.LpError, match="the start basis is singular"):
            cf.solve_lp(p, basis=basis, binv=cold.binv)
    # columns 0 and 1 are parallel in exact arithmetic but not in floating
    # point (0.1 * 3 != 0.3), so B may invert to garbage without an error
    p = cf.LpProblem(c=[-1.0, -2.0, -1.0], a=[[0.1, 0.3, 1.0], [0.3, 0.9, 0.0]],
                     b=[1.0, 3.0], n_inequalities=2)
    assert cf.solve_lp(p, basis=[3, 4]).objective == pytest.approx(-10.0, abs=1e-12)
    with pytest.raises(cf.LpError, match="the start basis is singular"):
        cf.solve_lp(p, basis=[0, 1])


def test_infeasible_basis_raises():
    import itertools
    tried = 0
    for p, _ in _solved_cases(12, 8):
        n, m = p.n_vars, p.n_rows
        # every column a basis may hold: structurals, then the '<=' slacks
        a2 = np.hstack([p.a, np.eye(m)[:, :p.n_inequalities]])
        for basis in itertools.combinations(range(a2.shape[1]), m):
            b = a2[:, basis]
            if abs(np.linalg.det(b)) < 1e-3:
                continue
            if np.all(np.linalg.solve(b, p.b) >= 0):
                continue
            with pytest.raises(cf.LpError, match="the start basis is infeasible"):
                cf.solve_lp(p, basis=list(basis))
            tried += 1
            break
    assert tried == 8


def test_malformed_basis_rejected():
    p = cf.LpProblem(c=[1.0, 1.0], a=[[1.0, 1.0], [1.0, -1.0]], b=[4.0, 0.0],
                     n_inequalities=1)
    for basis in (None, [0], [0, 1, 2], [0, -1], [0, 4], [2, 3], [0, 3], [0.0, 1.0]):
        with pytest.raises(ValueError):
            cf.solve_lp(p, basis=basis)
    assert cf.solve_lp(p, basis=[2, 0]).objective == 0.0  # slack of the '<=' row


def _tie_lp():
    # min -x - y s.t. x <= 0, 2x <= 0, y <= 1: x enters first with a
    # degenerate tie between the slacks of rows 0 (index 2) and 1 (index 3)
    return cf.LpProblem(c=[-1.0, -1.0], a=[[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]],
                        b=[0.0, 0.0, 1.0], n_inequalities=3)


def test_ratio_tie_leaves_smallest_basic_index():
    p = _tie_lp()
    slack = cf.solve_lp(p, basis=[2, 3, 4])
    assert list(slack.basis) == [0, 3, 1]
    # basis positions in another order: the tie still goes by index, not row
    other = cf.solve_lp(p, basis=[3, 2, 4])
    assert list(other.basis) == [3, 0, 1]
    for s in (slack, other):
        assert s.objective == pytest.approx(-1.0, abs=1e-12)
        assert (s.pivots, s.degenerate_pivots) == (2, 1)


def test_resolve_from_final_basis_and_inverse_takes_no_inversion():
    for p, cold in _solved_cases(7, 12):
        assert cold.inverted and cold.binv.shape == (p.n_rows, p.n_rows)
        warm = cf.solve_lp(p, basis=cold.basis, binv=cold.binv)
        assert warm.iterations == 0 and not warm.inverted and warm.refreshes == 0
        assert np.array_equal(warm.basis, cold.basis)
        assert warm.x == pytest.approx(cold.x, abs=1e-12)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)


def test_corrupted_inverse_is_inverted_again():
    for p, cold in _solved_cases(13, 8):
        binv = cold.binv
        for bad in (binv * (1 + 1e-6), binv + 1e-3, binv[::-1],
                    np.full_like(binv, np.nan)):
            kept = bad.copy()
            got = cf.solve_lp(p, basis=cold.basis, binv=bad)
            assert got.inverted and got.iterations == 0
            assert got.x == pytest.approx(cold.x, abs=1e-12)
            assert np.array_equal(bad, kept, equal_nan=True)  # the caller's copy
    p, cold = _solved_cases(13, 1)[0]
    m = p.n_rows
    for basis, binv in ((None, cold.binv), (cold.basis, np.eye(m + 1))):
        with pytest.raises(ValueError):
            cf.solve_lp(p, basis=basis, binv=binv)


def _column_chain(seed, m=6, n=24, rounds=4):
    """A max-type LP (A > 0, b > 0, c < 0) whose columns arrive in rounds,
    as in column generation: (LP over the first columns) per round."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 1.0, (m, n))
    b = rng.uniform(1.0, 2.0, m)
    c = rng.uniform(-1.0, 0.0, n)
    sizes = np.linspace(n // rounds, n, rounds).astype(int)
    return [cf.LpProblem(c=c[:j], a=a[:, :j], b=b, n_inequalities=m) for j in sizes]


@pytest.mark.parametrize("refresh_every", [1, simplex.REFRESH_EVERY])
def test_handed_over_inverse_stays_accurate(monkeypatch, refresh_every):
    monkeypatch.setattr(simplex, "REFRESH_EVERY", refresh_every)
    pivots = 0
    for seed in range(6):
        chain = _column_chain(seed)
        basis, binv = chain[0].n_vars + np.arange(chain[0].n_rows), None  # the slacks
        for i, p in enumerate(chain):
            s = cf.solve_lp(p, basis=basis, binv=binv)
            assert s.inverted == (i == 0)
            assert s.refreshes == (s.iterations if refresh_every == 1 else 0)
            a2 = np.hstack([p.a, np.eye(p.n_rows)])
            drift = a2[:, s.basis] @ s.binv - np.eye(p.n_rows)
            assert np.abs(drift).max() <= simplex.SINGULAR_TOL
            # the appended columns shift only the slacks
            added = chain[i + 1].n_vars - p.n_vars if i + 1 < len(chain) else 0
            basis, binv = np.where(s.basis >= p.n_vars, s.basis + added, s.basis), s.binv
            pivots += s.iterations
        last = chain[-1]
        again = cf.solve_lp(last, basis=last.n_vars + np.arange(last.n_rows))
        assert s.objective == pytest.approx(again.objective, rel=1e-12, abs=1e-12)
    assert pivots > 6 * len(chain)


def _slack_feasible_lp(rng, n, m, b_low=0.1):
    """min c x over A x <= b, x >= 0, row 0 of A positive so that the
    region is bounded: with b >= 0 the slack basis is feasible."""
    a = rng.uniform(-1, 1, (m, n))
    a[0] = rng.uniform(0.1, 1.0, n)
    return cf.LpProblem(c=rng.uniform(-1, 1, n), a=a, b=rng.uniform(b_low, 1.0, m),
                        n_inequalities=m)


def _stacked(problems):
    """Problems of one shape of rows as one stack, each padded after its
    columns with zero columns of zero cost."""
    n = max(p.n_vars for p in problems)

    def pad(v):
        return np.concatenate([v, np.zeros(n - v.size)])
    return cf.LpProblem(c=[pad(p.c) for p in problems],
                        a=[np.hstack([p.a, np.zeros((p.n_rows, n - p.n_vars))])
                           for p in problems],
                        b=[p.b for p in problems],
                        n_inequalities=problems[0].n_inequalities)


def _in_stack(p, basis, n):
    """A basis of p numbered for a stack n columns wide (slacks shift)."""
    basis = np.asarray(basis)
    return np.where(basis >= p.n_vars, basis - p.n_vars + n, basis)


def _assert_stack_gives_bits_alone(problems, bases, seed=0, **kwargs):
    alone = [cf.solve_lp(p, basis=b, **kwargs) for p, b in zip(problems, bases)]
    rng = np.random.default_rng(seed)
    for order in (np.arange(len(problems)), rng.permutation(len(problems))):
        stack = _stacked([problems[i] for i in order])
        n = stack.n_vars
        got = cf.solve_lp(stack, basis=[_in_stack(problems[i], bases[i], n) for i in order],
                          **kwargs)
        assert got.iterations == sum(s.iterations for s in alone)
        for row, i in enumerate(order):
            want, k = alone[i], problems[i].n_vars
            assert np.array_equal(got.x[row, :k], want.x) and not got.x[row, k:].any()
            assert got.objective[row] == want.objective
            assert np.array_equal(got.duals[row], want.duals)
            assert np.array_equal(got.basis[row], _in_stack(problems[i], want.basis, n))
            assert np.array_equal(got.binv[row], want.binv)
            for name in ("pivots", "degenerate_pivots", "used_bland", "refreshes",
                         "inverted"):
                assert getattr(got, name)[row] == getattr(want, name), name
    return alone


def _stack_cases(seed, m, count):
    rng = np.random.default_rng(seed)
    problems = [_slack_feasible_lp(rng, int(rng.integers(2, 7)), m) for _ in range(count)]
    return problems, [p.n_vars + np.arange(m) for p in problems]


def test_stack_gives_each_lp_its_bits_alone():
    problems, bases = _stack_cases(41, 3, 6)
    tie = _tie_lp()  # the ratio-test tie, from the slack basis and from another order
    problems += [tie, tie]
    bases += [[2, 3, 4], [3, 2, 4]]
    alone = _assert_stack_gives_bits_alone(problems, bases)
    assert list(alone[-1].basis) == [3, 0, 1]
    assert len({s.iterations for s in alone}) >= 3  # LPs leave the loop at three steps
    # '<=' and '=' rows, each LP from its planted basis
    rng = np.random.default_rng(42)
    planted = [_planted_lp(rng, int(rng.integers(3, 8)), 2, 2) for _ in range(6)]
    alone = _assert_stack_gives_bits_alone(*map(list, zip(*planted)), seed=2)
    assert len({s.iterations for s in alone}) >= 3


def test_stack_keeps_bland_and_refresh_per_lp(monkeypatch):
    rng = np.random.default_rng(43)
    problems = [_slack_feasible_lp(rng, int(rng.integers(8, 13)), 4) for _ in range(6)]
    bases = [p.n_vars + np.arange(4) for p in problems]
    # the ratio-test tie with a fourth row: its degenerate first pivot
    # turns Bland's rule on for this LP alone
    problems.append(cf.LpProblem(c=[-1.0, -1.0], a=[[1.0, 0.0], [2.0, 0.0], [0.0, 1.0],
                                                    [0.0, 0.0]],
                                 b=[0.0, 0.0, 1.0, 1.0], n_inequalities=4))
    bases.append([2, 3, 4, 5])
    monkeypatch.setattr(simplex, "REFRESH_EVERY", 2)
    monkeypatch.setattr(simplex, "BLAND_AFTER_DEGENERATE", 1)
    alone = _assert_stack_gives_bits_alone(problems, bases, seed=1)
    assert alone[-1].used_bland and any(s.refreshes for s in alone)
    assert sum(not s.used_bland and s.iterations >= 3 for s in alone) >= 2


def test_stack_iteration_limit_raises():
    problems, bases = _stack_cases(47, 3, 4)
    alone = [cf.solve_lp(p, basis=b) for p, b in zip(problems, bases)]
    most = max(s.iterations for s in alone)
    assert most > 0
    stack = _stacked(problems)
    basis = [_in_stack(p, b, stack.n_vars) for p, b in zip(problems, bases)]
    # as alone: the LP of the most pivots needs one more step to see it is optimal
    with pytest.raises(cf.LpIterationLimitError) as exc:
        cf.solve_lp(stack, basis=basis, max_iters=most)
    assert exc.value.basis.shape == (3,)
    got = cf.solve_lp(stack, basis=basis, max_iters=most + 1)
    assert got.iterations == sum(s.iterations for s in alone)


def test_stack_iteration_limit_reports_the_first_live_lp():
    problems, bases = _stack_cases(47, 4, 6)
    pivots = [cf.solve_lp(p, basis=b).iterations for p, b in zip(problems, bases)]
    limit = 2
    live = [i for i, p in enumerate(pivots) if p >= limit]
    # LP 0 leaves the loop before the limit, and more than one LP is live at it
    assert pivots[0] < limit and len(live) >= 2 and min(pivots) < limit
    first = live[0]
    with pytest.raises(cf.LpIterationLimitError) as alone:
        cf.solve_lp(problems[first], basis=bases[first], max_iters=limit)
    stack = _stacked(problems)
    n, k = stack.n_vars, problems[first].n_vars
    with pytest.raises(cf.LpIterationLimitError) as exc:
        cf.solve_lp(stack, basis=[_in_stack(p, b, n) for p, b in zip(problems, bases)],
                    max_iters=limit)
    assert np.array_equal(exc.value.basis,
                          _in_stack(problems[first], alone.value.basis, n))
    # the stack's x: the LP's columns, its padding at 0, then the slacks
    x = exc.value.x
    assert np.array_equal(x[:k], alone.value.x[:k]) and not x[k:n].any()
    assert np.array_equal(x[n:], alone.value.x[k:])


def test_stack_names_the_lp_whose_start_basis_fails():
    rng = np.random.default_rng(53)
    problems = [_slack_feasible_lp(rng, 4, 3) for _ in range(3)]
    stack = _stacked(problems)
    basis = np.tile(stack.n_vars + np.arange(3), (3, 1))
    assert cf.solve_lp(stack, basis=basis).iterations > 0
    stack.b[1, 0] = -0.2  # LP 1's slack basis is infeasible
    with pytest.raises(cf.LpError, match="start basis of LP 1 of the stack is infeasible"):
        cf.solve_lp(stack, basis=basis)
    stack.b[1, 0] = 0.2
    basis[2, 1] = basis[2, 0]  # LP 2's is singular
    with pytest.raises(cf.LpError, match="start basis of LP 2 of the stack is singular"):
        cf.solve_lp(stack, basis=basis)
