"""Rerouting selected flows with the min-max-utilization LP.

A single hot flow on the triangle gets split across its two paths,
halving the worst link load; freeing every flow reaches the same point
here. The LP is over paths: it starts from the flow's shortest path and
adds the detour once the link duals price it below zero. The LP is built
once; each round appends its new path columns and starts from a feasible
basis (a crash basis, then the last round's, with its B^-1), the only
start the simplex takes, so no round inverts B. Also dumps that final LP
in interchange format for external solvers and solves it from a crash
basis of its own.
"""

import numpy as np

import critflow as cf
from critflow.rerouting import build_path_lp

triangle = cf.triangle3()
tm = cf.TrafficMatrix(3, np.zeros((3, 3)))
tm.demand[0, 2] = 0.9

print("=== ECMP sends everything down the direct link ===")
fractions = cf.compute_ecmp_fractions(triangle)
print(f"ECMP max utilization: "
      f"{cf.ecmp_link_loads(triangle, tm, fractions).max_utilization:.2f}")

print("\n=== Rerouting the one critical flow ===")
background = cf.ecmp_link_loads(triangle, tm, fractions, exclude=[(0, 2)])
sol = cf.solve_rerouting(triangle, tm, [(0, 2)], background)
print(f"max utilization after rerouting: {sol.u:.2f}")
for e, ratio in enumerate(sol.sigma[(0, 2)]):
    if ratio > 1e-9:
        lk = triangle.links[e]
        print(f"  {ratio:.0%} of the demand on link {lk.src}->{lk.dst}")
for i, (pivots, added) in enumerate(zip(sol.round_pivots, sol.round_columns)):
    print(f"  LP round {i}: {added} new path column(s), {pivots} pivots")
print("paths the LP ended with (node sequences):")
for path in sol.paths[(0, 2)]:
    print("  " + "->".join(str(triangle.links[e].src) for e in path) + "->2")

print("\n=== All-flows optimum (the pr_u denominator oracle) ===")
u_opt, _ = cf.solve_optimal_all_flows(triangle, tm)
print(f"u_optimal = {u_opt:.2f}")

print("\n=== The final path LP, in interchange format ===")
problem = build_path_lp(triangle, tm, background.load, sol.columns,
                        cf.default_epsilon(triangle, 1))
print(cf.lp_to_text(problem, name="triangle rerouting"))

print("=== Solving it from a crash basis, then handing B^-1 over ===")
# the flow on its first path, U basic in the capacity row of the link that
# path loads most, and the slacks (columns n + row) of the other links
m, n = triangle.link_count, problem.n_vars
top = int(np.argmax(problem.a[:m, 1] - problem.b[:m]))  # utilization on path 0
start = np.concatenate([n + np.arange(m), [1]])
start[top] = 0
first = cf.solve_lp(problem, basis=start)
again = cf.solve_lp(problem, basis=first.basis, binv=first.binv)
for label, s in (("from the crash basis", first), ("from its final basis and B^-1", again)):
    print(f"{label}: U = {s.x[0]:.2f}, {s.iterations} pivots, "
          f"{'inverted B' if s.inverted else 'took the given B^-1'}")
