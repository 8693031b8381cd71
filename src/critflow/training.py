"""Policy-gradient training of the flow selector.

One iteration samples a batch of traffic-matrix states, runs the policy
once over the whole batch, draws one selection per state, scores each by
1/U from the rerouting LP, subtracts the per-state average-reward
baseline, and applies the entropy-regularized log-probability gradient,
summed over the batch by one backward pass over the sampling forward's
activations. The step is added into the parameters' own arrays, and
fc1_w's gradient, nearly all of the gradient, is never held whole: it is
made one block of rows at a time, once to check that the step is finite
and once to add it, so training holds one copy of the policy. The
batch's rewards not yet cached, one per new (state, action set) key,
are solved together: one compute_reward call per iteration, whose
rerouting LPs go through one stack (rerouting.solve_rerouting_batch),
and each reward has the bits it has alone. One serial learner does all
of this, and is bit-deterministic given the seed. Each iteration logs
the time of its phases (`update_ms` covers the backward pass and the
step), its reward-cache hits and the process's peak RSS so far.
"""

from __future__ import annotations

import csv
import resource
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import ecmp, policy
from .ecmp import compute_ecmp_fractions
from .policy import (PolicyError, PolicyParams, entropy, init_params,
                     sample_solution, save_checkpoint)
# No longer called here, but kept as names of this module: the benchmark's
# tracer (bench/tracing.py) wraps them here, and their spans now read 0;
# tests/test_imports.py checks that every name it wraps resolves.
from .ecmp import ecmp_link_loads  # noqa: F401
from .policy import forward, gradients  # noqa: F401
from .rerouting import solve_rerouting  # noqa: F401
from .rerouting import solve_rerouting_batch
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
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):  # nan > 0 is False
                raise ValueError(f"{name} must be positive and finite")
        if self.actor_count != 1:
            raise ValueError("actor_count must be 1: training is serial")
        if self.alpha_min > self.alpha0:
            raise ValueError("alpha_min must not exceed alpha0")


def learning_rate(config, iteration):
    """Stepped exponential decay, floored at alpha_min."""
    return max(config.alpha_min,
               config.alpha0 * config.decay_base ** (iteration // config.decay_every))


@dataclass(slots=True)  # the log keeps one per sample of the run
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
    forward_ms: float = 0.0   # drawing the batch, and its one forward pass
    sample_ms: float = 0.0    # drawing the selections
    reward_ms: float = 0.0    # rewards, through the cache
    update_ms: float = 0.0    # the backward pass, and the step it takes
    cache_hits: int = 0       # samples whose reward was already cached
    max_rss_mb: float = 0.0   # the process's peak RSS at the iteration's end
    batch: list = field(default_factory=list, repr=False)


_CSV_COLUMNS = ("iteration", "mean_reward", "mean_entropy", "alpha", "wall_ms",
                "forward_ms", "sample_ms", "reward_ms", "update_ms", "cache_hits",
                "max_rss_mb")


def _max_rss_mb():
    """The process's peak resident set size so far, in MiB; ru_maxrss is
    in KiB on Linux and in bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


@dataclass
class TrainingLog:
    records: list = field(default_factory=list)

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(_CSV_COLUMNS)
            for r in self.records:
                w.writerow([repr(getattr(r, name)) for name in _CSV_COLUMNS])


def compute_reward(topo, tms, solutions, k=None, fractions=None):
    """1 / (max link utilization after rerouting the selected flows), for
    each (matrix, solution) pair, as an array.

    Each solution's flows are rerouted over the ECMP loads of the others,
    all the pairs' LPs as one stack, so the solutions have one size; each
    reward has the bits it has when computed alone. A solution of another
    size than `k`, when given, raises TrainingError, a zero-traffic
    matrix DegenerateStateError.
    """
    if len(tms) != len(solutions):
        raise ValueError("one traffic matrix per solution")
    if fractions is None:
        fractions = compute_ecmp_fractions(topo)
    flows, backgrounds = [], []
    for tm, solution in zip(tms, solutions):
        actions = solution.actions if hasattr(solution, "actions") else tuple(solution)
        if k is not None and len(actions) != k:
            raise TrainingError(f"solution has {len(actions)} actions, expected {k}")
        flows.append([flow_of_index(a, tm.n) for a in actions])
        backgrounds.append(ecmp.ecmp_link_loads(topo, tm, fractions, exclude=flows[-1]))
    u = np.array([sol.u for sol in solve_rerouting_batch(topo, tms, flows, backgrounds)])
    zero = np.flatnonzero(u <= 0)
    if zero.size:
        raise DegenerateStateError(f"zero-traffic state {tms[zero[0]].id!r}")
    return 1.0 / u


class _RewardCache:
    """Memo over (state id, unordered action set); reward is pure in both."""

    def __init__(self, topo, matrices, fractions):
        self.topo = topo
        self.matrices = matrices
        self.fractions = fractions
        self._cache = {}

    def rewards(self, state_ids, solutions):
        """The reward of each (state, solution) pair; the keys not yet
        cached are computed by one compute_reward call, in first-seen
        order."""
        keys = [(sid, frozenset(sol.actions)) for sid, sol in zip(state_ids, solutions)]
        new = {}
        for key, sid, sol in zip(keys, state_ids, solutions):
            if key not in self._cache and key not in new:
                new[key] = (sid, sol)
        if new:
            values = compute_reward(self.topo, [self.matrices[sid] for sid, _ in new.values()],
                                    [sol for _, sol in new.values()],
                                    fractions=self.fractions)
            self._cache.update(zip(new, map(float, values)))
        return [self._cache[key] for key in keys]

    def reward(self, state_id, solution):
        return self.rewards([state_id], [solution])[0]

    def __len__(self):
        return len(self._cache)


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
    """alpha * sum over the batch of (grad log pi * advantage + beta grad H),
    by one forward and one backward pass over the experiences' matrices."""
    tms = [matrices[e.state_id] for e in experiences]
    return policy._backward_batch(params, policy._forward_batch(params, tms),
                                  [e.solution for e in experiences],
                                  [e.advantage for e in experiences], beta,
                                  scale=alpha)


def replay_update(params, experiences, matrices, config, iteration):
    """Recompute one iteration's parameter delta from logged experiences.

    Runs the forward pass again over the experiences in their logged
    order, then the backward pass that training's step takes, so
    params.add_scaled(replay_update(...), 1.0) reproduces the next
    checkpoint bit for bit.
    """
    alpha = learning_rate(config, iteration)
    return _accumulate_update(params, matrices, experiences, alpha, config.beta)


def _abort(checkpoint_path, params, iteration, v, visits, reason):
    """Checkpoint `params`, the last finite ones, when a path is given,
    and raise TrainingError."""
    if checkpoint_path:
        save_checkpoint(checkpoint_path, params, iteration=iteration,
                        baseline_v=v, baseline_n=visits)
    raise TrainingError(f"{reason} at iteration {iteration}")


def check_checkpoint_every(every):
    """ValueError unless `every` is at least 1."""
    if every < 1:
        raise ValueError(f"checkpoint_every must be at least 1, not {every}")


def train(topo, dataset, config, init=None, checkpoint_path=None,
          checkpoint_every=500):
    """Serial training. Returns (params, TrainingLog).

    Bit-deterministic given config.seed. Aborts with TrainingError (and
    a checkpoint of the last finite parameters, when a path is given) if
    a forward pass gives non-finite logits or an update would produce
    non-finite values. Steps a copy of `init`, when one is given,
    and never writes to `init`. A checkpoint_every below 1 raises
    ValueError before the first iteration.
    """
    check_checkpoint_every(checkpoint_every)
    matrices = dataset.matrices
    train_ids = _usable_train_ids(dataset)
    fractions = compute_ecmp_fractions(topo)
    cache = _RewardCache(topo, matrices, fractions)
    ss = np.random.SeedSequence(config.seed)
    init_seed, sample_seed = ss.spawn(2)
    if init is None:
        params = init_params(topo.node_count, width=config.width, seed=init_seed)
    else:
        params = PolicyParams(init.n, init.width,
                              *(t.copy() for t in init.tensors().values()))
    rng = np.random.default_rng(sample_seed)
    v, visits = {}, {}
    # One Solution per distinct draw, shared by every experience that
    # repeats it: the log keeps every sample of the run, and on a small
    # instance nearly every draw repeats an earlier one.
    drawn = {}
    log = TrainingLog()

    for it in range(config.total_iterations):
        t0 = time.perf_counter()
        alpha = learning_rate(config, it)
        batch_ids = [int(i) for i in rng.choice(train_ids, size=config.batch_size)]
        tms = [matrices[sid] for sid in batch_ids]
        try:
            activations = policy._forward_batch(params, tms)
        except PolicyError as exc:  # the parameters are still the last finite ones
            _abort(checkpoint_path, params, it, v, visits, exc)
        dists = policy._distributions(activations)
        t_forward = time.perf_counter()
        solutions = [sample_solution(dist, config.k, rng) for dist in dists]
        solutions = [drawn.setdefault((s.actions, s.filled_uniform), s) for s in solutions]
        t_sample = time.perf_counter()
        cached = len(cache)
        rewards = cache.rewards(batch_ids, solutions)
        t_reward = time.perf_counter()
        experiences = []
        for sid, sol, r in zip(batch_ids, solutions, rewards):
            if visits.get(sid, 0) > 0:
                b = v[sid] / visits[sid]
            else:  # first visit (or repeat within the first batch): baseline 0
                b = 0.0
                v.setdefault(sid, 0.0)
                visits.setdefault(sid, 0)
            experiences.append(Experience(sid, sol, r - b, r))
        # params + the update, in params' own arrays: the same bits as
        # params.add_scaled(delta, 1.0), which rebuilds a step from a replay;
        # nothing is written if a stepped parameter would not be finite
        stepped = policy._step_in_place(params, activations, solutions,
                                        [e.advantage for e in experiences],
                                        config.beta, scale=alpha)
        del activations  # before the next iteration's forward pass makes more
        t_update = time.perf_counter()
        for exp in experiences:
            v[exp.state_id] += exp.reward
            visits[exp.state_id] += 1
        if not stepped:
            _abort(checkpoint_path, params, it, v, visits, "non-finite parameters")
        wall_ms = (time.perf_counter() - t0) * 1e3
        log.records.append(IterationRecord(
            iteration=it,
            mean_reward=float(np.mean(rewards)),
            mean_entropy=float(np.mean([entropy(d) for d in dists])),
            alpha=alpha, wall_ms=wall_ms,
            forward_ms=(t_forward - t0) * 1e3,
            sample_ms=(t_sample - t_forward) * 1e3,
            reward_ms=(t_reward - t_sample) * 1e3,
            update_ms=(t_update - t_reward) * 1e3,
            cache_hits=len(solutions) - (len(cache) - cached),
            max_rss_mb=_max_rss_mb(),
            batch=experiences))
        if checkpoint_path and (it + 1) % checkpoint_every == 0:
            save_checkpoint(checkpoint_path, params, iteration=it + 1,
                            baseline_v=v, baseline_n=visits)
    if checkpoint_path:
        save_checkpoint(checkpoint_path, params, iteration=config.total_iterations,
                        baseline_v=v, baseline_n=visits)
    return params, log
