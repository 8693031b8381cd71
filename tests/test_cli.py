import numpy as np
import pytest

import critflow as cf
from critflow import cli
from conftest import ABILENE


@pytest.fixture()
def ring5_file(tmp_path, ring5):
    path = tmp_path / "ring5.topo"
    cf.save_topology(ring5, path)
    return str(path)


def run(argv):
    return cli.main(argv)


def test_inspect_topology(capsys):
    assert run(["inspect-topology", "--topology", str(ABILENE)]) == 0
    out = capsys.readouterr().out
    assert "nodes: 12" in out
    assert "directed links: 30" in out


def test_missing_topology_is_usage_error(capsys):
    assert run(["inspect-topology"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    assert run(["inspect-topology", "--frobnicate"]) == 1


def test_broken_topology_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.topo"
    bad.write_text("nodes 3\nlink 0 1 1 1\nlink 1 0 1 1\n")
    assert run(["inspect-topology", "--topology", str(bad)]) == 2
    assert "strongly connected" in capsys.readouterr().err


def test_generate_tm_round_trip(tmp_path, ring5_file):
    out = tmp_path / "gen"
    tm_file = tmp_path / "m.txt"
    rc = run(["generate-tm", "--topology", ring5_file, "--tm-model", "uniform",
              "--tm-count", "3", "--out", str(out), "--out-file", str(tm_file),
              "--seed", "9"])
    assert rc == 0
    tms = cf.load_tms(tm_file, 5)
    assert len(tms) == 3
    assert (out / "config.txt").exists()


def test_train_writes_artifacts_and_is_reproducible(tmp_path, ring5_file):
    args = ["train", "--topology", ring5_file, "--tm-model", "exponential",
            "--tm-count", "4", "--k", "2", "--iterations", "4",
            "--batch-size", "3", "--width", "8", "--seed", "3"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    for name in ("checkpoint.npz", "training_log.csv", "config.txt"):
        assert (out1 / name).exists()

    def stable_log(path):
        # every column except wall-clock timing is deterministic
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:4]) for line in lines]

    assert stable_log(out1 / "training_log.csv") == stable_log(out2 / "training_log.csv")
    p1, it1, _, visits = cf.load_checkpoint(out1 / "checkpoint.npz")
    p2, _, _, _ = cf.load_checkpoint(out2 / "checkpoint.npz")
    assert it1 == 4
    assert sum(visits.values()) == 4 * 3  # baseline table saved with the params
    for a, b in zip(p1.tensors().values(), p2.tensors().values()):
        assert np.array_equal(a, b)


def test_eval_ecmp_only_needs_no_checkpoint(tmp_path, ring5_file):
    out = tmp_path / "ev"
    rc = run(["eval", "--topology", ring5_file, "--tm-model", "uniform",
              "--tm-count", "4", "--k", "2", "--methods", "ecmp,top_k",
              "--skip-delay", "--out", str(out), "--seed", "1"])
    assert rc == 0
    results = (out / "results.csv").read_text().splitlines()
    assert results[0].startswith("tm_id,method")
    assert (out / "cdf.csv").exists()


def test_eval_writes_timings_apart_from_results(tmp_path, ring5_file):
    out = tmp_path / "ev"
    rc = run(["eval", "--topology", ring5_file, "--tm-model", "uniform",
              "--tm-count", "4", "--k", "2", "--methods", "ecmp,top_k",
              "--out", str(out), "--seed", "1"])
    assert rc == 0
    results = (out / "results.csv").read_text().splitlines()
    assert results[0] == ("tm_id,method,u_method,u_optimal,pr_u,"
                          "omega_method,omega_optimal,pr_omega,rd")
    rows = (out / "timings.csv").read_text().splitlines()
    assert rows[0] == "tm_id,part,ms"
    parts = [row.split(",") for row in rows[1:]]
    tm_ids = list(dict.fromkeys(r.split(",")[0] for r in results[1:]))
    assert len(tm_ids) >= 1
    # per matrix: the two oracles, each method's selection, then the
    # methods' shared rerouting
    assert [(tm, part) for tm, part, _ in parts] == [
        (tm, part) for tm in tm_ids
        for part in ("optimum", "delay_optimum", "ecmp", "top_k", "rerouting")]
    assert all(float(ms) >= 0 for _, _, ms in parts)


def test_eval_policy_without_checkpoint_is_usage_error(tmp_path, ring5_file):
    rc = run(["eval", "--topology", ring5_file, "--tm-model", "uniform",
              "--tm-count", "4", "--methods", "policy", "--skip-delay",
              "--out", str(tmp_path / "x")])
    assert rc == 1


def test_eval_policy_with_checkpoint(tmp_path, ring5_file):
    train_out = tmp_path / "tr"
    assert run(["train", "--topology", ring5_file, "--tm-model", "uniform",
                "--tm-count", "4", "--k", "2", "--iterations", "3",
                "--batch-size", "2", "--width", "8", "--out", str(train_out)]) == 0
    rc = run(["eval", "--topology", ring5_file, "--tm-model", "uniform",
              "--tm-count", "4", "--k", "2", "--methods", "ecmp,policy",
              "--checkpoint", str(train_out / "checkpoint.npz"),
              "--skip-delay", "--out", str(tmp_path / "ev2")])
    assert rc == 0


def test_sweep_k_zero_row_equals_ecmp(tmp_path):
    topo_path = tmp_path / "diamond.topo"
    cf.save_topology(cf.diamond4(), topo_path)
    out = tmp_path / "sw"
    rc = run(["sweep-k", "--topology", str(topo_path), "--tm-model", "uniform",
              "--tm-count", "3", "--fractions", "0,0.1,0.25",
              "--out", str(out), "--seed", "2"])
    assert rc == 0
    lines = (out / "sweep_k.csv").read_text().strip().splitlines()
    assert lines[0] == "fraction,k,selector,mean_pr_u"
    assert len(lines) == 4
    rows = [ln.split(",") for ln in lines[1:]]
    assert rows[0][1] == "0" and rows[0][2] == "ecmp"
    means = [float(r[3]) for r in rows]
    assert all(means[i + 1] >= means[i] - 1e-9 for i in range(len(means) - 1))


def test_sweep_k_solves_optimum_once_per_matrix(tmp_path, ring5_file, monkeypatch):
    from critflow import evaluation, rerouting
    optimum_ids, evaluated_ids = [], []
    solve_optimum, eval_one = evaluation.solve_optimal_all_flows, evaluation.eval_one

    def counted_optimum(topo, tm):
        optimum_ids.append(tm.id)
        return solve_optimum(topo, tm)

    def counted_eval_one(topo, tm, *args, **kwargs):
        evaluated_ids.append(tm.id)
        return eval_one(topo, tm, *args, **kwargs)

    monkeypatch.setattr(evaluation, "solve_optimal_all_flows", counted_optimum)
    monkeypatch.setattr(rerouting, "solve_optimal_all_flows", counted_optimum)
    monkeypatch.setattr(evaluation, "eval_one", counted_eval_one)
    rc = run(["sweep-k", "--topology", ring5_file, "--tm-model", "uniform",
              "--tm-count", "7", "--fractions", "0,0.1,0.2",
              "--selector", "top_k", "--out", str(tmp_path / "sw")])
    assert rc == 0
    test_ids = list(dict.fromkeys(evaluated_ids))
    assert len(evaluated_ids) == 3 * len(test_ids) > 0
    assert optimum_ids == test_ids


def test_sweep_k_rejects_bad_fraction(tmp_path, ring5_file):
    rc = run(["sweep-k", "--topology", ring5_file, "--tm-model", "uniform",
              "--tm-count", "3", "--fractions", "0,1.5",
              "--out", str(tmp_path / "x")])
    assert rc == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, flags, message", [
    ("sweep-k", ["--fractions", "0,abc"], "bad item 'abc' in '0,abc'"),
    ("sweep-hyper", ["--widths", "8,x"], "bad item 'x' in '8,x'"),
    ("sweep-hyper", ["--betas", "0.1,1e"], "bad item '1e' in '0.1,1e'"),
    ("eval", ["--methods", ","], "empty list ','"),
])
def test_bad_list_flag_is_usage_error(tmp_path, ring5_file, capsys, command, flags,
                                      message):
    out = tmp_path / "o"
    assert run([command, "--topology", ring5_file, "--out", str(out)] + flags) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_list_flags_echo_as_a_config_file(tmp_path, ring5_file):
    first, second = tmp_path / "a", tmp_path / "b"
    assert run(["eval", "--topology", ring5_file, "--tm-count", "4", "--k", "2",
                "--methods", "ecmp, top_k,", "--skip-delay", "--out", str(first)]) == 0
    echoed = (first / "config.txt").read_text()
    assert "methods=ecmp,top_k\n" in echoed
    assert "fractions=0.0,0.05,0.1,0.15,0.2\n" in echoed and "widths=64,128,256\n" in echoed
    assert run(["eval", "--config", str(first / "config.txt"), "--out", str(second)]) == 0
    assert (second / "config.txt").read_text() == echoed.replace(f"out={first}",
                                                                 f"out={second}")
    assert (second / "results.csv").read_text() == (first / "results.csv").read_text()


def test_sweep_hyper_single_cell(tmp_path, ring5_file):
    out = tmp_path / "hy"
    rc = run(["sweep-hyper", "--topology", ring5_file, "--tm-model", "uniform",
              "--tm-count", "4", "--k", "2", "--iterations", "3",
              "--batch-size", "2", "--alphas", "0.001", "--widths", "8",
              "--betas", "0.1", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep_hyper.csv").read_text().strip().splitlines()
    assert lines[0] == "alpha0,width,beta,mean_pr_u"
    assert len(lines) == 2  # one row per grid cell


def test_config_file_twin_and_cli_override(tmp_path, ring5_file, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"topology={ring5_file}\ntm_model=uniform\ntm-count=3\n"
                   "seed=4\n")
    out = tmp_path / "cfgout"
    rc = run(["generate-tm", "--config", str(cfg), "--tm-count", "5",
              "--out", str(out)])
    assert rc == 0
    tm_file = out / "tms.txt"
    assert len(cf.load_tms(tm_file, 5)) == 5  # CLI --tm-count overrode config
    echoed = (out / "config.txt").read_text()
    assert "seed=4" in echoed


@pytest.mark.parametrize("line, message", [
    ("bogus_key=7", "unknown key 'bogus_key'"),
    ("sync=yes", "unknown key 'sync'"),
    ("actors=2", "unknown key 'actors'"),
    ("tm_count=many", "bad value 'many' for 'tm_count'"),
    ("tm_model=gravity", "bad value 'gravity' for 'tm_model'"),
    ("selector=bogus", "bad value 'bogus' for 'selector'"),
    ("skip_delay=maybe", "bad value 'maybe' for 'skip_delay'"),
    ("methods=ecmp,bogus", "bad value 'ecmp,bogus' for 'methods'"),
    ("methods=,", "bad value ',' for 'methods'"),
    ("fractions=0,abc", "bad value '0,abc' for 'fractions'"),
    ("fractions=0,1.5", "bad value '0,1.5' for 'fractions'"),
    ("widths=8,x", "bad value '8,x' for 'widths'"),
    ("alphas=0.1,x", "bad value '0.1,x' for 'alphas'"),
])
def test_config_file_bad_line_is_usage_error(tmp_path, ring5_file, capsys,
                                             line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"topology={ring5_file}\ntm_model=uniform\n{line}\n")
    out = tmp_path / "cfgout"
    rc = run(["generate-tm", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert f"line 3: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_switch_values():
    action = cli.build_parser().config_actions["skip_delay"]
    for text, want in [("1", True), ("Yes", True), ("true", True),
                       ("0", False), ("no", False), ("FALSE", False), ("", None)]:
        assert cli._config_value(action, text) is want


def test_eval_unknown_method_is_usage_error(tmp_path, ring5_file, capsys):
    out = tmp_path / "ev"
    rc = run(["eval", "--topology", ring5_file, "--tm-count", "4", "--k", "2",
              "--methods", "ecmp,bogus", "--out", str(out)])
    assert rc == 1
    assert "unknown method 'bogus'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("sweep-hyper", ["--alpha0", "0.01"]),
    ("sweep-hyper", ["--width", "8"]),
    ("sweep-hyper", ["--beta", "0.1"]),
    ("eval", ["--checkpoint-every", "5"]),
    ("sweep-k", ["--dump-lp", "x.lp"]),
    ("sweep-k", ["--k", "2"]),
    ("generate-tm", ["--train-fraction", "0.5"]),
    ("inspect-topology", ["--seed", "1"]),
    ("inspect-topology", ["--out", "x"]),
])
def test_unread_flags_are_usage_errors(tmp_path, ring5_file, command, flags):
    out = tmp_path / "o"
    rc = run([command, "--topology", ring5_file] + flags
             + ([] if command == "inspect-topology" else ["--out", str(out)]))
    assert rc == 1
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--actors", "2"], ["--sync"]])
def test_removed_parallel_flags_are_usage_errors(tmp_path, ring5_file, flags):
    rc = run(["train", "--topology", ring5_file, "--tm-count", "4", "--k", "2",
              "--iterations", "1", "--out", str(tmp_path / "t")] + flags)
    assert rc == 1
    assert not (tmp_path / "t").exists()


def test_dump_lp_flag(tmp_path, ring5_file, ring5):
    lp_path = tmp_path / "problem.lp"
    rc = run(["eval", "--topology", ring5_file, "--tm-model", "uniform",
              "--tm-count", "4", "--k", "2", "--methods", "ecmp",
              "--skip-delay", "--dump-lp", str(lp_path),
              "--out", str(tmp_path / "d")])
    assert rc == 0
    text = lp_path.read_text()
    assert "Minimize" in text and "Subject To" in text
    # the final path LP: one capacity row per link, one convexity row per flow
    rows = text.split("Subject To\n")[1].split("End\n")[0].splitlines()
    assert len(rows) == ring5.link_count + 2
    assert sum(row.endswith(" = 1.0") for row in rows) == 2


def test_resolve_k_rounding():
    # 10% of 132 flows rounds half-up to 13
    assert cli.resolve_k({"k": None, "k_fraction": 0.1}, 12) == 13
    assert cli.resolve_k({"k": None, "k_fraction": 0.005}, 5) == 1
    assert cli.resolve_k({"k": 7, "k_fraction": 0.1}, 12) == 7
    with pytest.raises(cli.UsageError):
        cli.resolve_k({"k": None, "k_fraction": 1.5}, 12)
    with pytest.raises(cli.UsageError):
        cli.resolve_k({"k": 0, "k_fraction": 0.1}, 12)
