"""The three workloads: inputs from the seed, one operation, output checks.

Every input comes from the benchmark's seed; critflow receives only the
generated topology, matrices and configs, through its public API
(`critflow.train`, `critflow.eval_suite`). An operation is repeatable:
op(i) depends only on the seed and i.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import critflow as cf
from oracle import Oracle

REWARD_RTOL = 1e-7      # reward and U against HiGHS, relative
PR_U_TOL = 1e-7         # pr_u <= 1 + tol
# pr_omega <= 1 + tol: the delay optimum is certified by Frank-Wolfe only to
# this relative duality gap (solve_delay_optimal's default tol).
PR_OMEGA_TOL = 1e-5
# omega_optimal must lie between the oracle's certified lower bound on the
# minimum delay and this share above it. solve_delay_optimal documents 1e-5
# (PR_OMEGA_TOL), but it also stops once a step improves by less than that:
# its results lie 0.1-0.44% above the minimum on eval-mid's topology (88
# matrices) and up to 1.04% on the 5-node ring. An excess over PR_OMEGA_TOL
# is reported as a note; one over this bar fails the op. The delay of the
# min-max optimum, before any Frank-Wolfe step, lies 1-8% above.
OMEGA_OPTIMAL_RTOL = 2e-2
ACCEPTANCE_SHARE = 0.95  # greedy policy reward >= this share of the best
# The training seed of the acceptance test (tiny_config in tests/conftest.py):
# the 95% bar is claimed for this seed, not for every training seed.
ACCEPTANCE_TRAIN_SEED = 5
TM_MODEL = "exponential"
TARGET_ECMP_UTIL = 0.9


def op_seed(seed, i):
    """Seed of operation i, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def make_topology(spec):
    if spec == "abilene":
        return cf.load_topology(Path(cf.__file__).parent / "data" / "abilene.topo")
    if spec == "ring5":
        return cf.ring_with_chords()
    if spec == "random(8,6,seed=3)":
        return cf.random_topology(8, 6, seed=3)
    raise ValueError(f"unknown topology {spec!r}")


def warm_up(workload):
    """One rerouting LP of the workload's size, run after set-up and not
    timed, so that no op pays the cold start of the first solve."""
    topo, tm, k = workload.topo, workload.matrices[0], workload.settings["k"]
    sel = cf.top_k_critical(topo, tm, k, fractions=workload.fractions)
    background = cf.ecmp_link_loads(topo, tm, workload.fractions, exclude=sel.flows)
    cf.solve_rerouting(topo, tm, sel.flows, background)


def _relative_gap(got, want):
    return abs(got - want) / abs(want)


def _record_problem(rec, u_method, u_optimal, omega_lower):
    """What is wrong with one EvalRecord, given reference U values and a
    certified lower bound on the minimum delay, or None."""
    if _relative_gap(rec.u_method, u_method) > REWARD_RTOL:
        return f"u_method {rec.u_method!r} != HiGHS {u_method!r}"
    if _relative_gap(rec.u_optimal, u_optimal) > REWARD_RTOL:
        return f"u_optimal {rec.u_optimal!r} != HiGHS {u_optimal!r}"
    if not omega_lower * (1 - REWARD_RTOL) <= rec.omega_optimal \
            <= omega_lower * (1 + OMEGA_OPTIMAL_RTOL):
        return (f"omega_optimal {rec.omega_optimal!r} not within "
                f"{OMEGA_OPTIMAL_RTOL} above the minimum's lower bound {omega_lower!r}")
    if rec.pr_u > 1 + PR_U_TOL:
        return f"pr_u {rec.pr_u!r} > 1"
    if rec.pr_omega > 1 + PR_OMEGA_TOL:
        return f"pr_omega {rec.pr_omega!r} > 1"
    return None


@dataclass
class TrainOutput:
    seed: int             # TrainerConfig.seed of the op
    params: object        # final PolicyParams, kept for the acceptance check
    rewards: list         # (state id, actions, reward) per sample
    iteration_ms: list    # wall time per iteration, as train logged it


class TrainWorkload:
    """One op is one `critflow.train` call, from fresh parameters, with
    `iterations` iterations of `batch_size` samples; its unit is a sample."""

    def __init__(self, name, why, topology, tm_count, k, batch_size, width,
                 iterations, tm_seed=None, acceptance_seed=None, **hyper):
        self.name, self.why = name, why
        self.hyper = hyper  # TrainerConfig learning-rate and entropy settings
        self.settings = dict(kind="train", topology=topology, tm_model=TM_MODEL,
                             target_ecmp_util=TARGET_ECMP_UTIL, tm_count=tm_count,
                             tm_seed=tm_seed, k=k, batch_size=batch_size,
                             width=width, iterations=iterations,
                             acceptance_seed=acceptance_seed, **hyper)
        self.units_per_op = iterations * batch_size

    def setup(self, seed):
        p = self.settings
        self.seed = seed
        self.topo = make_topology(p["topology"])
        tm_seed = seed if p["tm_seed"] is None else p["tm_seed"]
        self.matrices = cf.generate_tms(self.topo, TM_MODEL, p["tm_count"],
                                        target_ecmp_util=TARGET_ECMP_UTIL, seed=tm_seed)
        self.dataset = cf.Dataset(matrices=self.matrices,
                                  train_indices=list(range(len(self.matrices))),
                                  test_indices=[], seed=seed)
        self.fractions = cf.compute_ecmp_fractions(self.topo)

    def train_seed(self, i):
        """Op 0 of a workload with an acceptance seed trains exactly what the
        acceptance test trains; every other op draws from the benchmark seed."""
        if i == 0 and self.settings["acceptance_seed"] is not None:
            return self.settings["acceptance_seed"]
        return op_seed(self.seed, i)

    def op(self, i):
        p = self.settings
        seed = self.train_seed(i)
        config = cf.TrainerConfig(batch_size=p["batch_size"], k=p["k"],
                                  total_iterations=p["iterations"], width=p["width"],
                                  seed=seed, actor_count=1, **self.hyper)
        params, log = cf.train(self.topo, self.dataset, config)
        # Keep only what the checks and the trace read: outputs held until
        # the checks must not add their parameters to peak_rss_mb.
        return TrainOutput(
            seed=seed,
            params=params if p["acceptance_seed"] is not None else None,
            rewards=[(e.state_id, e.solution.actions, e.reward)
                     for r in log.records for e in r.batch],
            iteration_ms=[r.wall_ms for r in log.records])

    @staticmethod
    def iteration_ms(output):
        return output.iteration_ms

    def _greedy_share(self, oracle, params, sid, best_u):
        """Reward of the greedy selection over the brute-force best reward."""
        tm, k = self.matrices[sid], self.settings["k"]
        if sid not in best_u:
            best_u[sid] = cf.brute_force_best(self.topo, tm, k, fractions=self.fractions)[1]
        return best_u[sid] / oracle.rerouted_u(tm.demand, cf.policy_selection(params, tm, k).flows)

    def check(self, highs, outputs):
        """(failure, note) per output; each is a message or None.

        Every distinct (state, action set) reward must equal 1/U of the
        HiGHS rerouting LP. With an acceptance seed, the final greedy policy
        trained from that seed must reach ACCEPTANCE_SHARE of the brute-force
        best on every matrix; from other seeds, falling short is a note.
        """
        oracle = Oracle(self.topo, highs)
        matrices = self.matrices
        n = self.topo.node_count
        want = {}
        best_u = {}
        verdicts = []
        for output in outputs:
            failure = note = None
            for sid, actions, reward in output.rewards:
                key = (sid, frozenset(actions))
                if key not in want:
                    flows = [cf.flow_of_index(a, n) for a in sorted(key[1])]
                    want[key] = 1.0 / oracle.rerouted_u(matrices[sid].demand, flows)
                if _relative_gap(reward, want[key]) > REWARD_RTOL:
                    failure = (f"reward {reward!r} != 1/U {want[key]!r} "
                               f"(state {sid}, actions {sorted(key[1])})")
                    break
            if failure is None and output.params is not None:
                share, sid = min((self._greedy_share(oracle, output.params, sid, best_u), sid)
                                 for sid in range(len(matrices)))
                if share < ACCEPTANCE_SHARE:
                    text = (f"greedy policy from training seed {output.seed} reaches "
                            f"{share:.4f} of the best reward on state {sid}")
                    if output.seed == self.settings["acceptance_seed"]:
                        failure = text
                    else:
                        note = text
            verdicts.append((failure, note))
        return verdicts


class EvalWorkload:
    """One op is one `critflow.eval_suite` call on one matrix, over every
    method, with delay; its unit is a matrix."""

    units_per_op = 1
    methods = ("ecmp", "top_k", "top_k_critical", "random", "policy")

    def __init__(self, name, why, topology, k, width, pool):
        self.name, self.why = name, why
        self.settings = dict(kind="eval", topology=topology, tm_model=TM_MODEL,
                             target_ecmp_util=TARGET_ECMP_UTIL, pool=pool, k=k,
                             width=width, methods=list(self.methods),
                             include_delay=True)

    def setup(self, seed):
        p = self.settings
        self.seed = seed
        self.topo = make_topology(p["topology"])
        self.matrices = cf.generate_tms(self.topo, TM_MODEL, p["pool"],
                                        target_ecmp_util=TARGET_ECMP_UTIL, seed=seed)
        self.fractions = cf.compute_ecmp_fractions(self.topo)
        self.policy = cf.init_params(self.topo.node_count, width=p["width"], seed=seed)

    def matrix(self, i):
        return self.matrices[i % len(self.matrices)]

    def op(self, i):
        records, _ = cf.eval_suite(self.topo, [self.matrix(i)], self.methods,
                                   self.settings["k"], params=self.policy,
                                   include_delay=True, seed=op_seed(self.seed, i))
        return i, records

    @staticmethod
    def iteration_ms(output):
        return []

    def check(self, highs, outputs):
        """Every u_method equals the HiGHS rerouting LP of that method's
        selection, every u_optimal the HiGHS per-destination optimum, every
        omega_optimal lies within OMEGA_OPTIMAL_RTOL above the oracle's
        lower bound on the minimum delay, and pr_u, pr_omega are at most 1
        (within tolerance)."""
        oracle = Oracle(self.topo, highs)
        optimum = {}
        verdicts = []
        for i, records in outputs:
            tm = self.matrix(i)
            if tm.id not in optimum:
                optimum[tm.id] = (oracle.optimal_u(tm.demand),
                                  oracle.delay_lower_bound(tm.demand))
            u_optimal, omega_lower = optimum[tm.id]
            failure = note = None
            for rec in records:
                # The selection is made again (select is deterministic); what
                # is checked is the U the program reports for it.
                sel = cf.select(rec.method, self.topo, tm, self.settings["k"],
                                params=self.policy, fractions=self.fractions,
                                seed=op_seed(self.seed, i))
                problem = _record_problem(
                    rec, oracle.rerouted_u(tm.demand, sel.flows), u_optimal, omega_lower)
                if problem:
                    failure = f"{tm.id} {rec.method}: {problem}"
                    break
            excess = records[0].omega_optimal / omega_lower - 1.0
            if failure is None and excess > PR_OMEGA_TOL:
                note = (f"{tm.id}: omega_optimal is {excess:.3g} above the minimum's "
                        f"lower bound, beyond the {PR_OMEGA_TOL} solve_delay_optimal documents")
            verdicts.append((failure, note))
        return verdicts


WORKLOADS = {w.name: w for w in (
    TrainWorkload(
        "train-abilene",
        "the paper's training setting: nearly every sample is a new 186x391 "
        "rerouting LP, so the simplex does ~96% of the work",
        topology="abilene", tm_count=20, k=13, batch_size=20, width=128,
        iterations=1),
    EvalWorkload(
        "eval-mid",
        "evaluation with delay over all five methods; the all-flows optimum "
        "and its second solve in the delay oracle take ~98% of each matrix",
        topology="random(8,6,seed=3)", k=6, width=128, pool=16),
    TrainWorkload(
        "tiny-learn",
        "the acceptance learning run: 98.6% reward-cache hits and tiny LPs, so "
        "policy forward/sample/gradient and per-solve overhead dominate",
        topology="ring5", tm_count=3, tm_seed=11, k=2, batch_size=20, width=16,
        iterations=2000, acceptance_seed=ACCEPTANCE_TRAIN_SEED,
        alpha0=0.01, alpha_min=0.001, beta=0.1),
)}
