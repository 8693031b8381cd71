"""numpy is the only runtime dependency: every module under src/critflow
imports nothing but the standard library, numpy and its own package."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import critflow as cf
from critflow import rerouting, training

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "critflow"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def foreign_imports(path):
    """(line, module) of every import in `path` outside ALLOWED; relative
    imports are the package's own."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in ALLOWED]
    return found


def test_src_imports_only_stdlib_and_numpy():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    bad = {p.name: foreign_imports(p) for p in modules}
    assert not any(bad.values()), {k: v for k, v in bad.items() if v}


def test_benchmark_trace_targets_resolve():
    """Every (module, attribute) the benchmark's tracer wraps exists, even
    where the program no longer calls it: a traced run looks each one up.
    The tracer module is only loaded, not installed."""
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [(module, attr) for module, attr, *_ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing


def test_benchmark_fault_hooks_stay_live(monkeypatch):
    """The benchmark's self-test plants an LpError at
    critflow.rerouting.solve_lp and a wrong reward at
    critflow.training.compute_reward: eval and train must still go
    through both names."""
    topo = cf.ring_with_chords()
    tms = cf.generate_tms(topo, "exponential", 2, 0.9, seed=1)
    with monkeypatch.context() as patch:
        def planted(*args, **kwargs):
            raise cf.LpError("planted solver failure")
        patch.setattr(rerouting, "solve_lp", planted)
        with pytest.raises(cf.LpError, match="planted"):
            cf.eval_suite(topo, tms[:1], ("top_k",), 2, include_delay=False)
    dataset = cf.Dataset(matrices=tms, train_indices=[0, 1], test_indices=[], seed=0)
    config = cf.TrainerConfig(batch_size=4, k=2, total_iterations=1, width=8, seed=3)
    _, log = cf.train(topo, dataset, config)
    compute_reward = training.compute_reward
    monkeypatch.setattr(training, "compute_reward",
                        lambda *args, **kwargs: 2.0 * compute_reward(*args, **kwargs))
    _, doubled = cf.train(topo, dataset, config)
    assert [2.0 * e.reward for e in log.records[0].batch] \
        == [e.reward for e in doubled.records[0].batch]
