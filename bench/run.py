"""critflow benchmark: run one workload, check its outputs, print metrics.

    python3 bench/run.py --workload train-abilene --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # the three, one process each

Run from the repository root; critflow is imported from ./src. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones (setup_s, ops_per_s, peak_rss_mb); with --trace 1 a
separate traced run reports the per-layer ones (see metrics.py). Each run
also writes a record with versions, machine, commit, seed and workload
parameters to .bench_results/, and the traced run its spans.
"""

import os

# The LPs are too small for BLAS threads to pay off on a few cores, and
# one thread keeps pivots deterministic; this must happen before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
# After each op, the workload is set up again for this share of the op's
# time, so that the set-up times spread over the run as the ops do.
SETUP_SHARE = 0.05
MIN_TRACED_REPS = 2     # the exact-count check needs at least two
SELF_SUM_TOL = 0.05     # layer self times must add up to the traced wall time
WORKLOAD_NAMES = ("train-abilene", "eval-mid", "tiny-learn")


def import_critflow():
    """Import critflow from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import critflow
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import critflow from {SRC}: {exc}")
    if Path(critflow.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"run.py: critflow came from {critflow.__file__}, not {SRC}")
    return critflow


@dataclass
class Op:
    index: int
    units: int
    wall_s: float
    output: object = None
    error: str = None
    note: str = None


def attempt(workload, i, tracer=None):
    """Run op i; an exception makes it a failed op, not the end of the run."""
    start = perf_counter()
    try:
        if tracer is None:
            output = workload.op(i)
        else:
            output = tracer.call("bench.op", workload.op, i)
    except Exception as exc:
        return Op(i, workload.units_per_op, perf_counter() - start,
                  error=f"{type(exc).__name__}: {exc}")
    return Op(i, workload.units_per_op, perf_counter() - start, output)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_outputs(workload, ops):
    """Fill in op.error for ops whose output fails its check, and op.note.

    Returns "passed", "failed" or "skipped" (no scipy: nothing was checked).
    """
    from oracle import load_highs
    highs = load_highs()
    if highs is None:
        return "skipped"
    done = [op for op in ops if op.error is None]
    for op, (failure, note) in zip(done, workload.check(highs, [op.output for op in done])):
        if failure is not None:
            op.error = f"check: {failure}"
        op.note = note
    return "failed" if any(op.error for op in ops) else "passed"


def time_setups(workload, seed, budget_s, times):
    """Set the workload up again and again for budget_s, at least once,
    appending each set-up's time to `times`. Set-up is deterministic, so
    the last one in place serves the ops as well as the first."""
    deadline = perf_counter() + budget_s
    while True:
        start = perf_counter()
        workload.setup(seed)
        end = perf_counter()
        times.append(end - start)
        if end >= deadline:
            return


def run_untraced(workload, seed, seconds):
    from workloads import warm_up
    setup_times = []
    time_setups(workload, seed, 0.0, setup_times)
    warm_up(workload)
    ops = []
    start = perf_counter()
    while not ops or perf_counter() - start < seconds:
        ops.append(attempt(workload, len(ops)))
        time_setups(workload, seed, SETUP_SHARE * ops[-1].wall_s, setup_times)
    op_s = sum(op.wall_s for op in ops)
    done_units = sum(op.units for op in ops if op.error is None)
    metrics = {"setup_s": median(setup_times),
               "ops_per_s": done_units / op_s,
               "peak_rss_mb": peak_rss_mb()}  # before the checks load scipy
    checks = check_outputs(workload, ops)
    detail = {"setup_s_count": len(setup_times), "measured_s": op_s}
    return metrics, ops, checks, detail


def run_traced(workload, seed, seconds):
    """Op 0 in pairs, untraced then traced, for `seconds` (at least
    MIN_TRACED_REPS pairs). Per-layer times are medians over the traced
    repetitions, and counts must be identical in every one of them. The
    tracing overhead compares the medians of the two halves of the pairs,
    which took turns, so a slow spell of the machine hits both alike."""
    from metrics import EXACT_COUNTS, UNITS, layer_metrics
    from tracing import Tracer, self_times
    from workloads import warm_up

    workload.setup(seed)
    warm_up(workload)
    tracer = Tracer()
    untraced, reps = [], []
    start = perf_counter()
    while len(reps) < MIN_TRACED_REPS or perf_counter() - start < seconds:
        untraced.append(attempt(workload, 0))
        tracer.install()
        try:
            op = attempt(workload, 0, tracer)
        finally:
            tracer.restore()
        reps.append((op, tracer.take()))

    per_rep = [layer_metrics(spans, workload.iteration_ms(op.output) if op.error is None else [])
               for op, spans in reps]
    metrics = {name: (max if UNITS[name] == "count" else median)(m[name] for m in per_rep)
               for name in per_rep[0]}
    metrics["tracing.overhead_pct"] = (median(op.wall_s for op, _ in reps)
                                       / median(op.wall_s for op in untraced) - 1.0) * 100.0
    unequal = [name for name in EXACT_COUNTS if len({m[name] for m in per_rep}) > 1]
    # The layers' spans, without the benchmark's own root span, must account
    # for the traced wall time.
    self_sum = 0.0
    for _, spans in reps:
        own = self_times(spans)
        self_sum += sum(own[span[0]] for span in spans if span[2] != "bench.op")
    traced_wall = sum(op.wall_s for op, _ in reps)
    ops = untraced + [op for op, _ in reps]
    checks = check_outputs(workload, ops)
    detail = {"traced_reps": len(reps), "traced_wall_s": traced_wall,
              "span_self_sum_s": self_sum,
              "self_sum_share": self_sum / traced_wall,
              "counts_per_rep": [{n: m[n] for n in EXACT_COUNTS} for m in per_rep],
              "counts_unequal": unequal,
              "spans": reps[0][1]}
    return metrics, ops, checks, detail


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def code_digest():
    """SHA-256 over critflow's sources and the benchmark's own files."""
    h = hashlib.sha256()
    bench = Path(__file__).resolve().parent
    for path in sorted([*(SRC / "critflow").rglob("*"), *bench.glob("*.py")]):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_record(workload, seed, seconds, trace):
    import numpy as np
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": int(BLAS_THREADS)},
            "git_commit": git_commit(), "code_sha256": code_digest(),
            "workload": workload.name, "why": workload.why,
            "params": workload.settings, "seed": seed, "seconds": seconds,
            "trace": trace}


def run_workload(workload, seed, seconds, trace):
    """Returns (result line, record) for one run."""
    from metrics import UNITS
    runner = run_traced if trace else run_untraced
    metrics, ops, checks, detail = runner(workload, seed, seconds)
    attempted = sum(op.units for op in ops)
    failed = sum(op.units for op in ops if op.error)
    correct = checks == "passed"
    if trace:
        correct = (correct and not detail["counts_unequal"]
                   and abs(detail["self_sum_share"] - 1.0) <= SELF_SUM_TOL)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": UNITS[name]}
                          for name, value in metrics.items()}}
    record = {"checks": checks, "fail_rate": failed / attempted,
              "ops": [{"index": op.index, "units": op.units, "wall_s": op.wall_s,
                       "error": op.error, "note": op.note} for op in ops],
              **detail}
    return result, record


def summarize(name, seed, result, record):
    lines = [f"{name} seed {seed}: {len(record['ops'])} ops, "
             f"output checks {record['checks']}"]
    for metric, m in result["metrics"].items():
        lines.append(f"  {metric:28s} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'fail_rate':28s} {record['fail_rate']:.6g} "
                 f"({result['failed']} of {result['attempted']} units)")
    for op in record["ops"]:
        if op["error"]:
            lines.append(f"  op {op['index']} failed: {op['error']}")
        if op["note"]:
            lines.append(f"  op {op['index']} note: {op['note']}")
    if "counts_unequal" in record:
        lines.append(f"  traced reps {record['traced_reps']}, span self times "
                     f"cover {record['self_sum_share']:.4f} of traced wall time, "
                     f"counts unequal across reps: {record['counts_unequal'] or 'none'}")
    if "counts_unequal_to_previous_run" in record:
        lines.append("  counts unequal to the previous traced run of this code and "
                     f"seed: {record['counts_unequal_to_previous_run'] or 'none'}")
    return "\n".join(lines)


def result_stem(name, seed, trace):
    return RESULTS / f"{name}-seed{seed}-trace{trace}"


def compare_with_previous_run(stem, run_info, result, record):
    """The counts of a traced run must repeat those of the previous traced
    run of the same code and seed, whose record is still on disk."""
    try:
        previous = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return
    if previous["record"].get("code_sha256") != run_info["code_sha256"]:
        return
    before, now = previous["run"]["counts_per_rep"][0], record["counts_per_rep"][0]
    record["counts_unequal_to_previous_run"] = sorted(
        name for name in now if before.get(name) != now[name])
    if record["counts_unequal_to_previous_run"]:
        result["correct"] = False


def write_files(stem, result, record, run_info):
    from tracing import write_spans
    RESULTS.mkdir(exist_ok=True)
    spans = record.pop("spans", None)
    if spans is not None:
        write_spans(stem.with_name(stem.name + "-spans.jsonl.gz"), spans)
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({"record": run_info, "result": result, "run": record}, fh, indent=1)


def run_all(args):
    """Each workload in its own process, so setup and memory are its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"run.py: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_critflow()
    if args.workload == "all":
        run_all(args)
        return
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    result, record = run_workload(workload, args.seed, args.seconds, args.trace)
    run_info = run_record(workload, args.seed, args.seconds, args.trace)
    stem = result_stem(workload.name, args.seed, args.trace)
    if args.trace:
        compare_with_previous_run(stem, run_info, result, record)
    write_files(stem, result, record, run_info)
    print(summarize(workload.name, args.seed, result, record))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
