"""The benchmark's metrics: names, units, and what each should move.

END_TO_END and PER_LAYER must agree with BENCHMARK.json; `selftest.py`
checks that they do. `moves` records, before any optimisation is
measured, which end-to-end metric on which workload a change in that
layer metric should show up in, so later claims can cite names.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

from tracing import self_times

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

_TRAIN_BIG = ("ops_per_s", "train-abilene")
_EVAL = ("ops_per_s", "eval-mid")
_TINY = ("ops_per_s", "tiny-learn")
_SETUP = (("setup_s", "train-abilene"), ("setup_s", "eval-mid"),
          ("setup_s", "tiny-learn"))

# name, unit, better, moves: ((end-to-end metric, workload), ...)
PER_LAYER = (
    ("simplex.solves", "count", "lower", (_TRAIN_BIG, _EVAL)),
    ("simplex.busy_ms", "ms", "lower", (_TRAIN_BIG, _EVAL, _TINY)),
    ("simplex.pivots", "count", "lower", (_TRAIN_BIG, _EVAL)),
    ("simplex.ms_per_pivot", "ms", "lower", (_TRAIN_BIG, _EVAL)),
    ("simplex.rows_max", "count", "lower", (("peak_rss_mb", "eval-mid"),)),
    ("simplex.cols_max", "count", "lower", (("peak_rss_mb", "eval-mid"),)),
    ("simplex.errors", "count", "lower", ()),
    ("rerouting.reroute_calls", "count", "lower", (_TRAIN_BIG,)),
    ("rerouting.reroute_self_ms", "ms", "lower", (_TRAIN_BIG,)),
    ("rerouting.optimum_calls", "count", "lower", (_EVAL,)),
    ("rerouting.optimum_ms", "ms", "lower", (_EVAL,)),
    ("rerouting.delay_self_ms", "ms", "lower", (_EVAL,)),
    ("ecmp.fractions_calls", "count", "lower", _SETUP),
    ("ecmp.fractions_ms", "ms", "lower", _SETUP),
    ("ecmp.loads_calls", "count", "lower", (_TRAIN_BIG, _TINY)),
    ("ecmp.loads_ms", "ms", "lower", (_TRAIN_BIG, _TINY)),
    ("policy.forward_calls", "count", "lower", (_TINY,)),
    ("policy.forward_ms", "ms", "lower", (_TINY,)),
    ("policy.sample_calls", "count", "lower", (_TINY,)),
    ("policy.sample_ms", "ms", "lower", (_TINY,)),
    ("policy.grad_calls", "count", "lower", (_TINY,)),
    ("policy.grad_ms", "ms", "lower", (_TINY,)),
    ("training.reward_calls", "count", "lower", (_TINY, _TRAIN_BIG)),
    ("training.cache_hit_rate", "ratio", "higher", (_TINY,)),
    ("training.iter_ms_p50", "ms", "lower", (_TINY, _TRAIN_BIG)),
    ("training.self_ms", "ms", "lower", (_TINY,)),
    ("selectors.select_calls", "count", "lower", (_EVAL,)),
    ("selectors.select_ms", "ms", "lower", (_EVAL,)),
    ("evaluation.tm_ms_p50", "ms", "lower", (_EVAL,)),
    ("evaluation.self_ms", "ms", "lower", (_EVAL,)),
    ("tracing.overhead_pct", "%", "lower", ()),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
# Serial training and evaluation are deterministic at a fixed seed, so these
# repeat exactly; a count-based claim in a later change rests on that.
EXACT_COUNTS = tuple(name for name, unit, *_ in PER_LAYER
                     if unit == "count" and name != "simplex.errors")


def layer_metrics(spans, iter_ms):
    """Per-layer metrics of one traced operation.

    `iter_ms` holds the per-iteration wall times training logged (empty for
    evaluation). Times are in ms; `*_self_ms` excludes the time of traced
    child calls.
    """
    own = self_times(spans)
    by_name = defaultdict(list)  # name -> [(dur_ms, self_ms, error, info)]
    for sid, _, name, start, end, error, info in spans:
        by_name[name].append(((end - start) * 1e3, own[sid] * 1e3, error, info))

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s[0] for s in by_name[name])

    def self_ms(*names):
        return sum(s[1] for n in names for s in by_name[n])

    lps = by_name["simplex.solve_lp"]
    solved = [s[3] for s in lps if s[2] is None]
    pivots = sum(i[0] for i in solved)
    rewards = calls("training.compute_reward")
    samples = calls("policy.sample_solution")
    suites = [s[0] for s in by_name["evaluation.eval_suite"]]
    return {
        "simplex.solves": len(lps),
        "simplex.busy_ms": busy("simplex.solve_lp"),
        "simplex.pivots": pivots,
        "simplex.ms_per_pivot": busy("simplex.solve_lp") / pivots if pivots else 0.0,
        "simplex.rows_max": max((i[1] for i in solved), default=0),
        "simplex.cols_max": max((i[2] for i in solved), default=0),
        "simplex.errors": sum(1 for s in lps if s[2] is not None),
        "rerouting.reroute_calls": calls("rerouting.solve_rerouting"),
        "rerouting.reroute_self_ms": self_ms("rerouting.solve_rerouting"),
        "rerouting.optimum_calls": calls("rerouting.optimum"),
        "rerouting.optimum_ms": busy("rerouting.optimum"),
        "rerouting.delay_self_ms": self_ms("rerouting.delay_optimal"),
        "ecmp.fractions_calls": calls("ecmp.fractions"),
        "ecmp.fractions_ms": busy("ecmp.fractions"),
        "ecmp.loads_calls": calls("ecmp.loads"),
        "ecmp.loads_ms": busy("ecmp.loads"),
        "policy.forward_calls": calls("policy.forward"),
        "policy.forward_ms": busy("policy.forward"),
        "policy.sample_calls": samples,
        "policy.sample_ms": busy("policy.sample_solution"),
        "policy.grad_calls": calls("policy.gradients"),
        "policy.grad_ms": busy("policy.gradients"),
        "training.reward_calls": rewards,
        "training.cache_hit_rate": 1.0 - rewards / samples if samples else 0.0,
        "training.iter_ms_p50": median(iter_ms) if iter_ms else 0.0,
        "training.self_ms": self_ms("training.train"),
        "selectors.select_calls": calls("selectors.select"),
        "selectors.select_ms": busy("selectors.select"),
        "evaluation.tm_ms_p50": median(suites) if suites else 0.0,
        "evaluation.self_ms": self_ms("evaluation.eval_suite", "evaluation.eval_one"),
    }
