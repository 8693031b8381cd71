import numpy as np
import pytest

import critflow as cf
from critflow import simplex
from oracles import lp_vertex_enumeration_oracle


def test_single_variable_max():
    # max x s.t. x <= 3 as min -x
    p = cf.LpProblem(c=[-1.0], a=[[1.0]], rel=["<="], b=[3.0])
    s = cf.solve_lp(p)
    assert s.x[0] == pytest.approx(3.0, abs=1e-9)
    assert s.objective == pytest.approx(-3.0, abs=1e-9)


def test_degenerate_optimum_face():
    # min x+y s.t. x+y >= 2, x,y in [0,2]: any optimal vertex gives 2
    p = cf.LpProblem(c=[1.0, 1.0], a=[[1.0, 1.0]], rel=[">="], b=[2.0],
                     upper=[2.0, 2.0])
    s = cf.solve_lp(p)
    assert s.objective == pytest.approx(2.0, abs=1e-9)
    assert s.x.sum() == pytest.approx(2.0, abs=1e-9)


def _random_feasible_lp(rng, n, m):
    a = rng.uniform(-1, 1, (m, n))
    x0 = rng.uniform(0, 1, n)
    rels = [rng.choice(["<=", ">=", "="]) for _ in range(m)]
    b = a @ x0
    for i, r in enumerate(rels):
        slackness = rng.uniform(0, 0.5)
        if r == "<=":
            b[i] += slackness
        elif r == ">=":
            b[i] -= slackness
    c = rng.uniform(-1, 1, n)
    return cf.LpProblem(c=c, a=a, rel=rels, b=b, upper=np.full(n, 2.0))


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(2024)
    for trial in range(10):
        n = int(rng.integers(3, 6))
        m = int(rng.integers(2, 6))
        p = _random_feasible_lp(rng, n, m)
        got = cf.solve_lp(p).objective
        want = lp_vertex_enumeration_oracle(p)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-8), f"trial {trial}"


def test_infeasible_detected():
    p = cf.LpProblem(c=[1.0], a=[[1.0]], rel=["<="], b=[-1.0])
    with pytest.raises(cf.LpInfeasibleError):
        cf.solve_lp(p)
    p = cf.LpProblem(c=[1.0, 1.0], a=[[1.0, 1.0], [1.0, 1.0]],
                     rel=["=", "="], b=[3.0, 4.0], upper=[9.0, 9.0])
    with pytest.raises(cf.LpInfeasibleError):
        cf.solve_lp(p)


def test_unbounded_detected():
    p = cf.LpProblem(c=[-1.0, 0.0], a=[[0.0, 1.0]], rel=["<="], b=[1.0])
    with pytest.raises(cf.LpUnboundedError):
        cf.solve_lp(p)


def test_iteration_limit_reports_basis():
    p = cf.LpProblem(c=[-1.0, -1.0], a=[[1.0, 2.0], [2.0, 1.0]],
                     rel=["<=", "<="], b=[4.0, 4.0])
    with pytest.raises(cf.LpIterationLimitError) as exc:
        cf.solve_lp(p, max_iters=1)
    assert exc.value.basis is not None


def test_equality_rows_and_shifted_bounds():
    # min x+2y s.t. x+y = 5, 1 <= x <= 4, 0 <= y <= 10 -> x=4, y=1
    p = cf.LpProblem(c=[1.0, 2.0], a=[[1.0, 1.0]], rel=["="], b=[5.0],
                     lower=[1.0, 0.0], upper=[4.0, 10.0])
    s = cf.solve_lp(p)
    assert s.x == pytest.approx([4.0, 1.0], abs=1e-9)


def test_solver_deterministic():
    rng = np.random.default_rng(5)
    p = _random_feasible_lp(rng, 5, 4)
    a = cf.solve_lp(p)
    b = cf.solve_lp(p)
    assert np.array_equal(a.x, b.x)


def test_bad_problem_shapes_rejected():
    with pytest.raises(ValueError):
        cf.LpProblem(c=[1.0, 1.0], a=[[1.0]], rel=["<="], b=[1.0])
    with pytest.raises(ValueError):
        cf.LpProblem(c=[1.0], a=[[1.0]], rel=["<>"], b=[1.0])
    with pytest.raises(ValueError):
        cf.LpProblem(c=[1.0], a=[[1.0]], rel=["<="], b=[1.0],
                     lower=[2.0], upper=[1.0])


def test_lp_text_dump(tmp_path):
    p = cf.LpProblem(c=[1.0, 0.5], a=[[1.0, 1.0]], rel=["<="], b=[2.0],
                     upper=[1.0, np.inf], var_names=["U", "r0"])
    text = cf.lp_to_text(p, name="demo")
    for token in ["Minimize", "Subject To", "Bounds", "End", "U", "r0"]:
        assert token in text
    path = tmp_path / "p.lp"
    cf.dump_lp(p, path)
    assert path.read_text().startswith("\\ lp")


def _cold_and_basis_cases(seed, count):
    """(problem, cold solution) for random feasible LPs whose cold optimum
    has every nonbasic structural at its lower bound, so that the final
    basis alone fixes the vertex."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        p = _random_feasible_lp(rng, int(rng.integers(3, 7)), int(rng.integers(2, 6)))
        cold = cf.solve_lp(p)
        nonbasic = np.setdiff1d(np.arange(p.n_vars), cold.basis)
        if not np.any(cold.x[nonbasic] == p.upper[nonbasic]):
            cases.append((p, cold))
    return cases


def test_counters_split_iterations_by_phase():
    rng = np.random.default_rng(31)
    phase1 = 0
    for _ in range(20):
        p = _random_feasible_lp(rng, int(rng.integers(3, 7)), int(rng.integers(2, 6)))
        s = cf.solve_lp(p)
        assert s.phase1_iterations + s.phase2_iterations == s.iterations
        assert 0 <= s.degenerate_pivots <= s.iterations
        assert not s.used_bland and s.refreshes == 0
        assert 0.0 <= s.max_residual <= 1e-7 * (1 + np.abs(p.b).max())
        phase1 += s.phase1_iterations
    assert phase1 > 0


def test_refresh_and_bland_counters(monkeypatch):
    p = _random_feasible_lp(np.random.default_rng(8), 6, 5)
    tie = _tie_lp()
    plain, plain_tie = cf.solve_lp(p), cf.solve_lp(tie)
    monkeypatch.setattr(simplex, "REFRESH_EVERY", 1)
    monkeypatch.setattr(simplex, "BLAND_AFTER_DEGENERATE", 1)
    s, s_tie = cf.solve_lp(p), cf.solve_lp(tie)
    assert s.refreshes > 0 and s_tie.used_bland and not plain_tie.used_bland
    assert s.objective == pytest.approx(plain.objective, abs=1e-12)
    assert s_tie.objective == pytest.approx(plain_tie.objective, abs=1e-12)


def test_resolve_from_final_basis_takes_no_pivots():
    for p, cold in _cold_and_basis_cases(7, 12):
        warm = cf.solve_lp(p, basis=cold.basis)
        assert warm.iterations == 0 and warm.phase1_iterations == 0
        assert np.array_equal(warm.basis, cold.basis)
        assert warm.x == pytest.approx(cold.x, abs=1e-12)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)


def _assert_same_as_cold(p, cold, basis):
    got = cf.solve_lp(p, basis=basis)
    assert got.iterations == cold.iterations
    assert got.phase1_iterations == cold.phase1_iterations
    assert np.array_equal(got.x, cold.x) and got.objective == cold.objective


def test_singular_basis_falls_back_to_two_phases():
    for p, cold in _cold_and_basis_cases(11, 8):
        basis = cold.basis.copy()
        basis[-1] = basis[0]
        _assert_same_as_cold(p, cold, basis)
    # columns 0 and 1 are parallel in exact arithmetic but not in floating
    # point (0.1 * 3 != 0.3), so B may invert to garbage without an error
    p = cf.LpProblem(c=[-1.0, -2.0, -1.0], a=[[0.1, 0.3, 1.0], [0.3, 0.9, 0.0]],
                     rel=["<=", "<="], b=[1.0, 3.0])
    cold = cf.solve_lp(p)
    assert cold.objective == pytest.approx(-10.0, abs=1e-12)
    _assert_same_as_cold(p, cold, [0, 1])


def test_infeasible_basis_falls_back_to_two_phases():
    import itertools
    tried = 0
    for p, cold in _cold_and_basis_cases(12, 8):
        n, m = p.n_vars, p.n_rows
        # every column a basis may hold: structurals, then the slacks
        a2 = np.hstack([p.a, np.diag([1.0 if r == "<=" else -1.0 for r in p.rel])])
        upper = np.concatenate([p.upper, np.full(m, np.inf)])
        allowed = [j for j in range(n + m) if j < n or p.rel[j - n] != "="]
        for basis in itertools.combinations(allowed, m):
            b = a2[:, basis]
            if abs(np.linalg.det(b)) < 1e-3:
                continue
            xb = np.linalg.solve(b, p.b)
            if np.all(xb >= 0) and np.all(xb <= upper[list(basis)]):
                continue
            _assert_same_as_cold(p, cold, list(basis))
            tried += 1
            break
    assert tried == 8


def test_malformed_basis_rejected():
    p = cf.LpProblem(c=[1.0, 1.0], a=[[1.0, 1.0], [1.0, -1.0]], rel=["<=", "="],
                     b=[4.0, 0.0])
    for basis in ([0], [0, 1, 2], [0, -1], [0, 4], [2, 3], [0, 3], [0.0, 1.0]):
        with pytest.raises(ValueError):
            cf.solve_lp(p, basis=basis)
    assert cf.solve_lp(p, basis=[2, 0]).phase1_iterations == 0  # slack of the '<=' row


def _tie_lp():
    # min -x - y s.t. x <= 0, 2x <= 0, y <= 1: x enters first with a
    # degenerate tie between the slacks of rows 0 (index 2) and 1 (index 3)
    return cf.LpProblem(c=[-1.0, -1.0], a=[[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]],
                        rel=["<=", "<=", "<="], b=[0.0, 0.0, 1.0])


def test_ratio_tie_leaves_smallest_basic_index():
    p = _tie_lp()
    cold = cf.solve_lp(p)
    assert list(cold.basis) == [0, 3, 1]
    # basis positions in another order: the tie still goes by index, not row
    warm = cf.solve_lp(p, basis=[3, 2, 4])
    assert list(warm.basis) == [3, 0, 1]
    for s in (cold, warm):
        assert s.objective == pytest.approx(-1.0, abs=1e-12)
        assert (s.phase1_iterations, s.phase2_iterations, s.degenerate_pivots) == (0, 2, 1)


def test_resolve_from_final_basis_and_inverse_takes_no_inversion():
    for p, cold in _cold_and_basis_cases(7, 12):
        assert cold.inverted and cold.binv.shape == (p.n_rows, p.n_rows)
        warm = cf.solve_lp(p, basis=cold.basis, binv=cold.binv)
        assert warm.iterations == 0 and not warm.inverted and warm.refreshes == 0
        assert np.array_equal(warm.basis, cold.basis)
        assert warm.x == pytest.approx(cold.x, abs=1e-12)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)


def test_corrupted_inverse_is_inverted_again():
    for p, cold in _cold_and_basis_cases(13, 8):
        binv = cold.binv
        for bad in (binv * (1 + 1e-6), binv + 1e-3, binv[::-1],
                    np.full_like(binv, np.nan)):
            kept = bad.copy()
            got = cf.solve_lp(p, basis=cold.basis, binv=bad)
            assert got.inverted and got.iterations == 0
            assert got.x == pytest.approx(cold.x, abs=1e-12)
            assert np.array_equal(bad, kept, equal_nan=True)  # the caller's copy
    p, cold = _cold_and_basis_cases(13, 1)[0]
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
    return [cf.LpProblem(c=c[:j], a=a[:, :j], rel=["<="] * m, b=b) for j in sizes]


@pytest.mark.parametrize("refresh_every", [1, simplex.REFRESH_EVERY])
def test_handed_over_inverse_stays_accurate(monkeypatch, refresh_every):
    monkeypatch.setattr(simplex, "REFRESH_EVERY", refresh_every)
    pivots = 0
    for seed in range(6):
        chain = _column_chain(seed)
        basis = binv = None
        for i, p in enumerate(chain):
            s = cf.solve_lp(p, basis=basis, binv=binv)
            assert s.inverted == (i == 0) and s.phase1_iterations == 0
            assert s.refreshes == (s.iterations if refresh_every == 1 else 0)
            a2 = np.hstack([p.a, np.eye(p.n_rows)])
            drift = a2[:, s.basis] @ s.binv - np.eye(p.n_rows)
            assert np.abs(drift).max() <= simplex.SINGULAR_TOL
            # the appended columns shift only the slacks
            added = chain[i + 1].n_vars - p.n_vars if i + 1 < len(chain) else 0
            basis, binv = np.where(s.basis >= p.n_vars, s.basis + added, s.basis), s.binv
            pivots += s.iterations
        assert s.objective == pytest.approx(cf.solve_lp(chain[-1]).objective,
                                            rel=1e-12, abs=1e-12)
    assert pivots > 6 * len(chain)


def _slack_feasible_lp(rng, n, m, b_low=0.1):
    """min c x over A x <= b, 0 <= x <= 2: with b >= 0 the slack basis
    is feasible."""
    return cf.LpProblem(c=rng.uniform(-1, 1, n), a=rng.uniform(-1, 1, (m, n)),
                        rel=["<="] * m, b=rng.uniform(b_low, 1.0, m), upper=np.full(n, 2.0))


def _flip_lp():
    # min -x - y s.t. x + y <= 10, x, y <= 1: each enters and flips to its bound
    return cf.LpProblem(c=[-1.0, -1.0], a=[[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
                        rel=["<=", "<=", "<="], b=[10.0, 5.0, 5.0], upper=[1.0, 1.0])


def _stacked(problems):
    """Problems of one shape of rows as one stack, each padded after its
    columns with zero columns fixed at 0."""
    n = max(p.n_vars for p in problems)

    def pad(v):
        return np.concatenate([v, np.zeros(n - v.size)])
    return cf.LpProblem(c=[pad(p.c) for p in problems],
                        a=[np.hstack([p.a, np.zeros((p.n_rows, n - p.n_vars))])
                           for p in problems],
                        rel=problems[0].rel, b=[p.b for p in problems],
                        lower=[pad(p.lower) for p in problems],
                        upper=[pad(p.upper) for p in problems])


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
            for name in ("phase1_iterations", "phase2_iterations", "degenerate_pivots",
                         "used_bland", "refreshes", "inverted"):
                assert getattr(got, name)[row] == getattr(want, name), name
    return alone


def _stack_cases(seed, m, count):
    rng = np.random.default_rng(seed)
    problems = [_slack_feasible_lp(rng, int(rng.integers(2, 7)), m) for _ in range(count)]
    return problems, [p.n_vars + np.arange(m) for p in problems]


def test_stack_gives_each_lp_its_bits_alone():
    problems, bases = _stack_cases(41, 3, 6)
    tie = _tie_lp()  # the ratio-test tie, from the slack basis and from another order
    problems += [tie, tie, _flip_lp()]
    bases += [[2, 3, 4], [3, 2, 4], [2, 3, 4]]
    alone = _assert_stack_gives_bits_alone(problems, bases)
    assert list(alone[-2].basis) == [3, 0, 1]
    assert alone[-1].degenerate_pivots == 0 and np.array_equal(alone[-1].x, [1.0, 1.0])
    flipped = [s for p, s in zip(problems, alone)
               if np.any((s.x == p.upper) & ~np.isin(np.arange(p.n_vars), s.basis))]
    assert len(flipped) >= 2  # bound flips, not only pivots


def test_stack_keeps_bland_and_refresh_per_lp(monkeypatch):
    rng = np.random.default_rng(43)
    problems = [_slack_feasible_lp(rng, int(rng.integers(8, 13)), 4) for _ in range(6)]
    bases = [p.n_vars + np.arange(4) for p in problems]
    # the ratio-test tie with a fourth row: its degenerate first pivot
    # turns Bland's rule on for this LP alone
    problems.append(cf.LpProblem(c=[-1.0, -1.0], a=[[1.0, 0.0], [2.0, 0.0], [0.0, 1.0],
                                                    [0.0, 0.0]],
                                 rel=["<="] * 4, b=[0.0, 0.0, 1.0, 1.0]))
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


def test_stack_solves_an_lp_with_an_infeasible_basis_by_two_phases():
    rng = np.random.default_rng(53)
    problems = [_slack_feasible_lp(rng, 4, 3) for _ in range(3)]
    problems[1] = _slack_feasible_lp(rng, 5, 3, b_low=-0.5)
    problems[1].b[0] = -0.2  # its slack basis is infeasible
    bases = [p.n_vars + np.arange(3) for p in problems]
    alone = _assert_stack_gives_bits_alone(problems, bases)
    assert [s.phase1_iterations > 0 for s in alone] == [False, True, False]
