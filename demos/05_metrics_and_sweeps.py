"""Evaluation metrics and the K sweep.

Scores ECMP and both heuristics on a small synthetic test set (pr_u,
pr_omega, rd), shows how the delay optimum behind pr_omega was reached
on one matrix, then sweeps K with the exhaustive selector to show how
little rerouting buys near-optimal load balancing.
"""

import numpy as np

import critflow as cf
import critflow.rerouting

topo = cf.ring_with_chords()
tms = cf.generate_tms(topo, "exponential", 5, target_ecmp_util=0.9, seed=40)

print("=== method comparison (K=2) ===")
records, aggregates = cf.eval_suite(topo, tms, ["ecmp", "top_k", "top_k_critical"],
                                    k=2, include_delay=True)
for (method, metric), (mean, std) in sorted(aggregates.items()):
    print(f"  {method:16s} {metric:9s} mean {mean:.4f} (std {std:.4f})")

print("\n=== the delay optimum of one matrix ===")
_, optimum = cf.solve_optimal_all_flows(topo, tms[0])
run = critflow.rerouting._delay_optimum(topo, tms[0], optimum, max_iters=5000)
print(f"  omega {run.omega:.6f} after {run.steps} projected Newton steps "
      f"({run.cg_iters} conjugate-gradient iterations, {run.backtracks} step halvings), "
      f"relative duality gap {run.gap:.2e}, {run.pool} paths (the optimum's LP had "
      f"{sum(map(len, optimum.paths.values()))})")

print("\n=== K sweep with the exhaustive selector (diamond, 12 flows) ===")
diamond = cf.diamond4()
dtms = cf.generate_tms(diamond, "uniform", 2, target_ecmp_util=0.9, seed=21)
fractions = cf.compute_ecmp_fractions(diamond)
u_opts = [cf.solve_optimal_all_flows(diamond, tm)[0] for tm in dtms]
for k in range(0, 7):
    prs = []
    for tm, u_opt in zip(dtms, u_opts):
        if k == 0:
            u = cf.ecmp_link_loads(diamond, tm, fractions).max_utilization
        else:
            _, u = cf.brute_force_best(diamond, tm, k, fractions=fractions)
        prs.append(u_opt / u)
    bar = "#" * int(40 * np.mean(prs))
    print(f"  K={k:2d}  mean pr_u {np.mean(prs):.4f}  {bar}")
