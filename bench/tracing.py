"""Spans around the calls into critflow's layers, recorded from outside.

`Tracer.install()` replaces each public function in `TARGETS` with a
wrapper, in the module that looks the name up at call time (so
`critflow.training.solve_rerouting` catches the calls `train` makes, and
`critflow.rerouting.solve_lp` catches every LP). A wrapper records one
span (id, parent id, name, start, end, error, info) and keeps it in
memory; nothing is written until the run ends. The program's own code is
not changed; `restore()` puts the original functions back.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
from time import perf_counter


def _lp_info(args, kwargs, result):
    """Pivots, rows and columns of one solve_lp(problem, ...) call."""
    return (result.iterations, args[0].n_rows, args[0].n_vars)


# (module, attribute, span name, info recorder)
TARGETS = (
    ("critflow", "train", "training.train", None),
    ("critflow", "eval_suite", "evaluation.eval_suite", None),
    ("critflow.training", "compute_reward", "training.compute_reward", None),
    ("critflow.training", "forward", "policy.forward", None),
    ("critflow.training", "sample_solution", "policy.sample_solution", None),
    ("critflow.training", "gradients", "policy.gradients", None),
    ("critflow.training", "compute_ecmp_fractions", "ecmp.fractions", None),
    ("critflow.training", "ecmp_link_loads", "ecmp.loads", None),
    ("critflow.training", "solve_rerouting", "rerouting.solve_rerouting", None),
    ("critflow.evaluation", "eval_one", "evaluation.eval_one", None),
    ("critflow.evaluation", "select", "selectors.select", None),
    ("critflow.evaluation", "forward", "policy.forward", None),
    ("critflow.evaluation", "compute_ecmp_fractions", "ecmp.fractions", None),
    ("critflow.evaluation", "ecmp_link_loads", "ecmp.loads", None),
    ("critflow.evaluation", "solve_rerouting", "rerouting.solve_rerouting", None),
    ("critflow.evaluation", "solve_optimal_all_flows", "rerouting.optimum", None),
    ("critflow.evaluation", "solve_delay_optimal", "rerouting.delay_optimal", None),
    ("critflow.selectors", "compute_ecmp_fractions", "ecmp.fractions", None),
    ("critflow.selectors", "ecmp_link_loads", "ecmp.loads", None),
    ("critflow.selectors", "solve_rerouting", "rerouting.solve_rerouting", None),
    ("critflow.rerouting", "solve_optimal_all_flows", "rerouting.optimum", None),
    ("critflow.rerouting", "solve_lp", "simplex.solve_lp", _lp_info),
)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._ids = itertools.count()
        self._patched = []

    def _record(self, name, fn, info_fn):
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            error = info = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if info_fn is not None:
                    info = info_fn(args, kwargs, result)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end, error, info))
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for module_name, attr, name, info_fn in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._record(name, fn, info_fn))

    def restore(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span of the benchmark's own."""
        return self._record(name, fn, None)(*args)

    def take(self):
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans):
    """Span id -> its duration minus the durations of its direct children."""
    child = {}
    for sid, parent, _, start, end, _, _ in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - child.get(sid, 0.0)
            for sid, _, _, start, end, _, _ in spans}


def write_spans(path, spans):
    """One JSON array per span: id, parent, name, start_us, dur_us, error, info."""
    t0 = min((s[3] for s in spans), default=0.0)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for sid, parent, name, start, end, error, info in spans:
            fh.write(json.dumps([sid, parent, name,
                                 round((start - t0) * 1e6, 3),
                                 round((end - start) * 1e6, 3), error, info]))
            fh.write("\n")
