"""Training the selector on a desk-scale instance.

Five nodes, twenty flows, three traffic matrices, K=2. A few hundred
REINFORCE iterations take the greedy selection most of the way to the
exhaustive-search optimum; 2000 reach it (see the acceptance suite).
"""

import numpy as np

import critflow as cf

topo = cf.ring_with_chords()
matrices = cf.generate_tms(topo, "exponential", 3, target_ecmp_util=0.9, seed=11)
dataset = cf.Dataset(matrices=matrices, train_indices=[0, 1, 2],
                     test_indices=[], seed=0)

config = cf.TrainerConfig(batch_size=20, k=2, total_iterations=600, width=16,
                          alpha0=0.01, alpha_min=0.001, beta=0.1, seed=5)
print(f"training {config.total_iterations} iterations "
      f"(B={config.batch_size}, K={config.k}, alpha0={config.alpha0}) ...")
params, log = cf.train(topo, dataset, config)
rewards = [r.mean_reward for r in log.records]
print(f"mean sampled reward: first 50 iters {np.mean(rewards[:50]):.3f}, "
      f"last 50 iters {np.mean(rewards[-50:]):.3f}")

print("\n=== greedy selection vs exhaustive search ===")
fractions = cf.compute_ecmp_fractions(topo)
for tm in matrices:
    best_sel, u_best = cf.brute_force_best(topo, tm, 2, fractions=fractions)
    sel = cf.policy_selection(params, tm, 2)
    background = cf.ecmp_link_loads(topo, tm, fractions, exclude=sel.flows)
    u = cf.solve_rerouting(topo, tm, sel.flows, background).u
    print(f"  {tm.id}: policy picks {sel.flows} -> u={u:.4f} "
          f"(best {u_best:.4f}, ratio {u_best / u:.3f})")
