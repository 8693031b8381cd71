"""Policy-gradient training of the flow selector.

One iteration samples a batch of traffic-matrix states, draws one
selection per state, scores each by 1/U from the rerouting LP, subtracts
the per-state average-reward baseline, and applies the entropy-regularized
log-probability gradient. One serial learner does all of this, and is
bit-deterministic given the seed.
"""

from __future__ import annotations

import csv
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .ecmp import compute_ecmp_fractions, ecmp_link_loads
from .policy import (forward, gradients, init_params, sample_solution,
                     save_checkpoint, zeros_like_params, entropy)
from .rerouting import solve_rerouting
from .topology import flow_of_index


class TrainingError(Exception):
    pass


class DegenerateStateError(TrainingError):
    """Zero-traffic state: reward 1/U undefined."""


@dataclass
class TrainerConfig:
    batch_size: int = 20
    k: int = 2
    total_iterations: int = 1000
    alpha0: float = 0.001
    decay_every: int = 500
    decay_base: float = 0.96
    alpha_min: float = 0.0001
    beta: float = 0.1
    actor_count: int = 1  # only 1 is accepted; kept for existing callers
    width: int = 128
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "k", "total_iterations", "alpha0",
                     "decay_every", "decay_base", "alpha_min", "beta",
                     "width"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.actor_count != 1:
            raise ValueError("actor_count must be 1: training is serial")
        if self.alpha_min > self.alpha0:
            raise ValueError("alpha_min must not exceed alpha0")


def learning_rate(config, iteration):
    """Stepped exponential decay, floored at alpha_min."""
    return max(config.alpha_min,
               config.alpha0 * config.decay_base ** (iteration // config.decay_every))


@dataclass
class Experience:
    state_id: int
    solution: object       # policy.Solution
    advantage: float
    reward: float


@dataclass
class IterationRecord:
    iteration: int
    mean_reward: float
    mean_entropy: float
    alpha: float
    wall_ms: float
    batch: list = field(default_factory=list, repr=False)


@dataclass
class TrainingLog:
    records: list = field(default_factory=list)

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", "mean_reward", "mean_entropy", "alpha", "wall_ms"])
            for r in self.records:
                w.writerow([r.iteration, repr(r.mean_reward), repr(r.mean_entropy),
                            repr(r.alpha), repr(r.wall_ms)])


def compute_reward(topo, tm, solution, k=None, fractions=None):
    """1 / (max link utilization after rerouting the selected flows)."""
    actions = solution.actions if hasattr(solution, "actions") else tuple(solution)
    if k is not None and len(actions) != k:
        raise TrainingError(f"solution has {len(actions)} actions, expected {k}")
    if fractions is None:
        fractions = compute_ecmp_fractions(topo)
    flows = [flow_of_index(a, tm.n) for a in actions]
    background = ecmp_link_loads(topo, tm, fractions, exclude=flows)
    sol = solve_rerouting(topo, tm, flows, background)
    if sol.u <= 0:
        raise DegenerateStateError(f"zero-traffic state {tm.id!r}")
    return 1.0 / sol.u


class _RewardCache:
    """Memo over (state id, unordered action set); reward is pure in both."""

    def __init__(self, topo, matrices, fractions):
        self.topo = topo
        self.matrices = matrices
        self.fractions = fractions
        self._cache = {}

    def reward(self, state_id, solution):
        key = (state_id, frozenset(solution.actions))
        if key not in self._cache:
            self._cache[key] = compute_reward(self.topo, self.matrices[state_id],
                                              solution, fractions=self.fractions)
        return self._cache[key]


def _usable_train_ids(dataset):
    ids = []
    for i in dataset.train_indices:
        if dataset.matrices[i].total_demand() > 0:
            ids.append(i)
        else:
            warnings.warn(f"dropping all-zero training matrix index {i}",
                          stacklevel=3)
    if not ids:
        raise TrainingError("no usable (nonzero) training matrices")
    return ids


def _accumulate_update(params, matrices, experiences, alpha, beta):
    """alpha * sum over the batch of (grad log pi * advantage + beta grad H)."""
    delta = zeros_like_params(params)
    dt = delta.tensors()
    for exp in experiences:
        g = gradients(params, matrices[exp.state_id], exp.solution,
                      exp.advantage, beta)
        for name, t in g.tensors().items():
            dt[name] += alpha * t
    return delta


def _params_finite(params):
    return all(np.all(np.isfinite(t)) for t in params.tensors().values())


def replay_update(params, experiences, matrices, config, iteration):
    """Recompute one iteration's parameter delta from logged experiences.

    Matches the training-time accumulation order exactly, so
    params + replay_update(...) reproduces the next checkpoint.
    """
    alpha = learning_rate(config, iteration)
    return _accumulate_update(params, matrices, experiences, alpha, config.beta)


def train(topo, dataset, config, init=None, checkpoint_path=None,
          checkpoint_every=500):
    """Serial training. Returns (params, TrainingLog).

    Bit-deterministic given config.seed. Aborts (with a checkpoint of the
    last finite parameters, when a path is given) if an update produces
    non-finite values.
    """
    matrices = dataset.matrices
    train_ids = _usable_train_ids(dataset)
    fractions = compute_ecmp_fractions(topo)
    cache = _RewardCache(topo, matrices, fractions)
    ss = np.random.SeedSequence(config.seed)
    init_seed, sample_seed = ss.spawn(2)
    params = init if init is not None else init_params(
        topo.node_count, width=config.width, seed=init_seed)
    rng = np.random.default_rng(sample_seed)
    v, visits = {}, {}
    log = TrainingLog()

    for it in range(config.total_iterations):
        t0 = time.perf_counter()
        alpha = learning_rate(config, it)
        batch_ids = [int(i) for i in rng.choice(train_ids, size=config.batch_size)]
        experiences = []
        entropies = []
        for sid in batch_ids:
            dist = forward(params, matrices[sid])
            sol = sample_solution(dist, config.k, rng)
            r = cache.reward(sid, sol)
            if visits.get(sid, 0) > 0:
                b = v[sid] / visits[sid]
            else:  # first visit (or repeat within the first batch): baseline 0
                b = 0.0
                v.setdefault(sid, 0.0)
                visits.setdefault(sid, 0)
            experiences.append(Experience(sid, sol, r - b, r))
            entropies.append(entropy(dist))
        delta = _accumulate_update(params, matrices, experiences, alpha, config.beta)
        new_params = params.add_scaled(delta, 1.0)
        for exp in experiences:
            v[exp.state_id] += exp.reward
            visits[exp.state_id] += 1
        if not _params_finite(new_params):
            if checkpoint_path:
                save_checkpoint(checkpoint_path, params, iteration=it,
                                baseline_v=v, baseline_n=visits)
            raise TrainingError(f"non-finite parameters at iteration {it}")
        params = new_params
        wall_ms = (time.perf_counter() - t0) * 1e3
        log.records.append(IterationRecord(
            iteration=it,
            mean_reward=float(np.mean([e.reward for e in experiences])),
            mean_entropy=float(np.mean(entropies)),
            alpha=alpha, wall_ms=wall_ms, batch=experiences))
        if checkpoint_path and (it + 1) % checkpoint_every == 0:
            save_checkpoint(checkpoint_path, params, iteration=it + 1,
                            baseline_v=v, baseline_n=visits)
    if checkpoint_path:
        save_checkpoint(checkpoint_path, params, iteration=config.total_iterations,
                        baseline_v=v, baseline_n=visits)
    return params, log
