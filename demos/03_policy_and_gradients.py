"""The selection policy network and its analytic gradients.

Shows the traffic-matrix-in, action-distribution-out contract, sampling
without replacement, a quick finite-difference spot check of the
hand-written backward pass, and the batched update that training applies,
rebuilt from logged experiences by `replay_update`: one forward and one
backward pass over a whole batch, equal to alpha times the sum of the
per-sample gradients.
"""

import numpy as np

import critflow as cf
from critflow.policy import selection_objective

n, width = 4, 16
rng = np.random.default_rng(0)
demand = rng.uniform(0, 1, (n, n))
np.fill_diagonal(demand, 0)
tm = cf.TrafficMatrix(n, demand)

print("=== Forward pass ===")
params = cf.init_params(n, width=width, seed=1)
dist = cf.forward(params, tm)
print(f"{len(dist.probs)} actions, probs sum to {dist.probs.sum():.6f}, "
      f"entropy {cf.entropy(dist):.3f} (max {np.log(12):.3f})")

print("\n=== Sampling K=3 without replacement ===")
sol = cf.sample_solution(dist, 3, rng=7)
print(f"sampled actions {sol.actions} -> flows "
      f"{[cf.flow_of_index(a, n) for a in sol.actions]}")
print(f"log pi(solution) = {cf.solution_log_prob(dist, sol):.3f}")

print("\n=== Gradient spot check vs central differences ===")
adv, beta = 1.5, 0.1
grads = cf.gradients(params, tm, sol, adv, beta)
h = 1e-5
worst = 0.0
for name, tensor in params.tensors().items():
    flat = int(np.argmax(np.abs(grads.tensors()[name])))
    idx = np.unravel_index(flat, tensor.shape)
    orig = tensor[idx]
    tensor[idx] = orig + h
    fp = selection_objective(params, tm, sol, adv, beta)
    tensor[idx] = orig - h
    fm = selection_objective(params, tm, sol, adv, beta)
    tensor[idx] = orig
    fd = (fp - fm) / (2 * h)
    err = abs(fd - grads.tensors()[name][idx]) / max(1.0, abs(fd))
    worst = max(worst, err)
    print(f"  {name:7s} largest component: analytic "
          f"{grads.tensors()[name][idx]:+.6f} vs fd {fd:+.6f}")
print(f"worst relative error: {worst:.2e}")

print("\n=== Batched update vs per-sample gradients ===")
tms = [tm, cf.TrafficMatrix(n, demand.T.copy())]
batch = [cf.Experience(0, sol, 1.5, 0.0),   # state 0 twice: a repeated state
         cf.Experience(1, cf.Solution(actions=(0, 4, 9)), -0.7, 0.0),
         cf.Experience(0, cf.Solution(actions=(2, 3, 11)), 0.0, 0.0)]
config = cf.TrainerConfig(alpha0=0.01, beta=beta)
alpha = cf.learning_rate(config, 0)
batched = cf.replay_update(params, batch, tms, config, iteration=0)
for name, t in batched.tensors().items():
    summed = alpha * sum(cf.gradients(params, tms[e.state_id], e.solution,
                                      e.advantage, beta).tensors()[name]
                         for e in batch)
    err = np.max(np.abs(t - summed)) / np.max(np.abs(summed))
    print(f"  {name:7s} batched vs alpha * sum of per-sample: "
          f"max relative difference {err:.1e}")
