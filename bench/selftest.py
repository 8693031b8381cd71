"""Self-test of the benchmark at minimal size.

    python3 bench/selftest.py

Checks that every metric of BENCHMARK.json is reported with its unit, that
a planted wrong reward or delay optimum counts as a failed op, that an
LpError inside a solve fails its op without ending the run, and that a
traced run whose counts differ from the previous one of the same code and
seed is not correct. Exits non-zero on a failure.
"""

import json
import sys
from contextlib import contextmanager

import run

run.import_critflow()

import critflow as cf  # noqa: E402
import critflow.evaluation  # noqa: E402
import critflow.rerouting  # noqa: E402
import critflow.training  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, EvalWorkload, TrainWorkload  # noqa: E402

SEED = 1


def small_train():
    return TrainWorkload("small-train", "self-test", topology="ring5", tm_count=2,
                         k=2, batch_size=4, width=8, iterations=2)


def small_eval():
    return EvalWorkload("small-eval", "self-test", topology="ring5", k=2, width=8,
                        pool=2)


@contextmanager
def patched(module, attr, replacement):
    original = getattr(module, attr)
    setattr(module, attr, replacement(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def test_benchmark_json_matches_definitions():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(name, unit, better) for name, unit, better, _ in PER_LAYER]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == [(w.name, w.why) for w in WORKLOADS.values()]
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_every_metric_reported_with_its_unit():
    for make in (small_train, small_eval):
        for trace, wanted in ((0, END_TO_END), (1, PER_LAYER)):
            result, record = run.run_workload(make(), SEED, 0.01, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == {m[0]: m[1] for m in wanted}, (make.__name__, trace, got)
            assert result["correct"] and result["failed"] == 0, (result, record)
            assert record["checks"] == "passed"


def test_planted_wrong_reward_is_a_failure():
    def off_by_1e4(compute_reward):
        calls = []

        def wrong_first(*args, **kwargs):
            calls.append(None)
            reward = compute_reward(*args, **kwargs)
            return reward * (1 + 1e-4) if len(calls) == 1 else reward
        return wrong_first

    with patched(critflow.training, "compute_reward", off_by_1e4):
        result, record = run.run_workload(small_train(), SEED, 0.01, 0)
    assert not result["correct"]
    assert result["failed"] > 0 and record["fail_rate"] > 0
    assert record["ops"][0]["error"].startswith("check: reward"), record["ops"][0]


def test_wrong_delay_optimum_is_a_failure():
    """A delay optimum below the minimum, or far above it, fails its op."""
    for factor in (0.98, 1.05):
        def scaled(solve_delay_optimal):
            def solve(*args, **kwargs):
                omega, loads = solve_delay_optimal(*args, **kwargs)
                return omega * factor, loads
            return solve

        with patched(critflow.evaluation, "solve_delay_optimal", scaled):
            result, record = run.run_workload(small_eval(), SEED, 0.01, 0)
        assert not result["correct"] and result["failed"] == result["attempted"], factor
        assert "omega_optimal" in record["ops"][0]["error"], record["ops"][0]


@contextmanager
def lp_error_in_op_0(workload):
    """Every solve inside op 0 raises LpError; other ops solve normally."""
    armed = []

    def raising(solve_lp):
        def solve(*args, **kwargs):
            if armed:
                raise cf.LpError("planted solver failure")
            return solve_lp(*args, **kwargs)
        return solve

    op = workload.op

    def op_arming_0(i):
        if i == 0:
            armed.append(True)
        try:
            return op(i)
        finally:
            armed.clear()

    workload.op = op_arming_0
    try:
        with patched(critflow.rerouting, "solve_lp", raising):
            yield
    finally:
        del workload.op


def test_lp_error_fails_its_op_and_the_run_goes_on():
    workload = small_eval()
    with lp_error_in_op_0(workload):
        result, record = run.run_workload(workload, SEED, 0.3, 0)
    ops = record["ops"]
    assert len(ops) >= 2, ops
    assert ops[0]["error"].startswith("LpError"), ops[0]
    assert all(op["error"] is None for op in ops[1:]), ops
    assert result["failed"] == 1 and not result["correct"]

    workload = small_eval()
    with lp_error_in_op_0(workload):
        result, record = run.run_workload(workload, SEED, 0.01, 1)
    assert result["failed"] == result["attempted"] >= 3
    assert result["metrics"]["simplex.errors"]["value"] >= 1


def test_counts_must_repeat_across_traced_runs():
    stem = run.result_stem("selftest", SEED, 1)
    run_info = {"code_sha256": run.code_digest()}
    counts = {"simplex.solves": 3, "simplex.pivots": 40}
    run.RESULTS.mkdir(exist_ok=True)
    stem.with_suffix(".json").write_text(
        json.dumps({"record": run_info, "run": {"counts_per_rep": [counts]}}))
    try:
        for now, unequal in ((counts, []),
                             ({**counts, "simplex.pivots": 41}, ["simplex.pivots"])):
            result, record = {"correct": True}, {"counts_per_rep": [now]}
            run.compare_with_previous_run(stem, run_info, result, record)
            assert record["counts_unequal_to_previous_run"] == unequal, record
            assert result["correct"] == (not unequal)
    finally:
        stem.with_suffix(".json").unlink()


def main():
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} of {len(tests)} self-tests passed")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
