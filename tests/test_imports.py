"""numpy is the only runtime dependency: every module under src/critflow
imports nothing but the standard library, numpy and its own package."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

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
