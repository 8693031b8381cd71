"""Command-line entry points for the experiment recipes.

Subcommands: train, eval, sweep-k, sweep-hyper, generate-tm,
inspect-topology. Each takes only the flags it reads. Every flag has a
config-file twin (flat key=value, dashes as underscores), and a config
file may set the flags of every subcommand, so one file can drive them
all; command-line values win. The effective configuration is echoed
into the output directory so any run can be reproduced from its
artifacts plus the seed.

Exit codes: 0 success, 1 usage error, 2 runtime/solver error.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import comb, floor

import numpy as np

from . import evaluation, selectors, topology, traffic, training
from .policy import load_checkpoint
from .rerouting import build_path_lp, default_epsilon, solve_rerouting
from .simplex import dump_lp
from .ecmp import compute_ecmp_fractions, ecmp_link_loads


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise UsageError(message)


def _list_of(item):
    """An argparse type for a comma-separated list of `item` values: blank
    items are skipped, and a bad item or an empty list is an error."""
    def parse(text):
        values = []
        for x in filter(None, (x.strip() for x in text.split(","))):
            try:
                values.append(item(x))
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad item {x!r} in {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"empty list {text!r}")
        return values
    return parse


def _fraction(text):
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"k fraction {value} outside [0,1]")
    return value


def _method(name):
    if name not in evaluation.METHODS:
        raise argparse.ArgumentTypeError(
            f"unknown method {name!r} (choose from {', '.join(evaluation.METHODS)})")
    return name


# every option once; each subcommand takes only the options it reads
_OPTIONS = {
    "seed": dict(type=int), "out": {}, "topology": {},
    "tms": dict(help="traffic matrix file"),
    "tm-model": dict(choices=["exponential", "uniform"]),
    "tm-count": dict(type=int), "tm-target-util": dict(type=float),
    "train-fraction": dict(type=float),
    "k": dict(type=int), "k-fraction": dict(type=float),
    "iterations": dict(type=int), "batch-size": dict(type=int),
    "alpha0": dict(type=float), "alpha-min": dict(type=float),
    "decay-every": dict(type=int), "decay-base": dict(type=float),
    "beta": dict(type=float), "width": dict(type=int),
    "checkpoint-every": dict(type=int), "dump-lp": {}, "out-file": {},
    "checkpoint": {}, "methods": dict(type=_list_of(_method)),
    "skip-delay": dict(action="store_const", const=True),
    "fractions": dict(type=_list_of(_fraction)),
    "selector": dict(choices=["auto", "brute_force", "policy", "top_k", "top_k_critical"]),
    "alphas": dict(type=_list_of(float)), "widths": dict(type=_list_of(int)),
    "betas": dict(type=_list_of(float)),
}
_DATASET = "seed out topology tms tm-model tm-count tm-target-util train-fraction"
_TRAINING = "iterations batch-size alpha-min decay-every decay-base"
_SUBCOMMAND_OPTIONS = {
    "inspect-topology": "topology",
    "generate-tm": "seed out topology tm-model tm-count tm-target-util out-file",
    "train": f"{_DATASET} k k-fraction {_TRAINING} alpha0 beta width "
             "checkpoint-every dump-lp",
    "eval": f"{_DATASET} k k-fraction checkpoint methods skip-delay dump-lp",
    "sweep-k": f"{_DATASET} fractions selector checkpoint",
    "sweep-hyper": f"{_DATASET} k k-fraction {_TRAINING} alphas widths betas",
}


def build_parser():
    parser = _Parser(prog="critflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in _SUBCOMMAND_OPTIONS.items():
        # no prefixes: sweep-hyper's --width would be taken for --widths
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", default=None)
        for option in options.split():
            p.add_argument(f"--{option}", default=None, **_OPTIONS[option])
    # a config file may set any option of any subcommand, and nothing else
    parser.config_actions = {a.dest: a for sp in sub.choices.values()
                             for a in sp._actions if a.dest not in ("help", "config")}
    return parser


DEFAULTS = {
    "seed": 0, "out": "critflow-out", "checkpoint_every": 500,
    "k_fraction": 0.1, "train_fraction": 0.7,
    "tm_model": "uniform", "tm_count": 20, "tm_target_util": 0.9,
    "iterations": 1000, "batch_size": 20, "alpha0": 0.001,
    "alpha_min": 0.0001, "decay_every": 500, "decay_base": 0.96,
    "beta": 0.1, "width": 128, "methods": ["ecmp", "top_k", "top_k_critical"],
    "fractions": [0.0, 0.05, 0.1, 0.15, 0.2], "selector": "auto",
    "alphas": [0.01, 0.001, 0.0001], "widths": [64, 128, 256], "betas": [0.1, 0.01],
    "out_file": None, "skip_delay": False,
}

_SWITCH = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _config_value(action, text):
    """A config file's value for the option of `action`, checked as the
    command line checks it: its type and choices, and for a switch one of
    1/0/true/false/yes/no. An empty value leaves the option unset."""
    if text == "":
        return None
    if action.nargs == 0:
        return _SWITCH[text.lower()]
    val = action.type(text) if action.type else text
    if action.choices is not None and val not in action.choices:
        raise ValueError(text)
    return val


def _read_config(path, actions):
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path} line {line_no}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in actions:
                raise UsageError(f"{path} line {line_no}: unknown key {key!r}")
            try:
                out[key] = _config_value(actions[key], val)
            except (KeyError, ValueError, argparse.ArgumentTypeError):
                raise UsageError(f"{path} line {line_no}: bad value {val!r} "
                                 f"for {key!r}") from None
    return out


def resolve_options(args, config_actions):
    """Merge CLI > config file > defaults into one flat namespace."""
    opts = dict(DEFAULTS)
    if args.config:
        opts.update(_read_config(args.config, config_actions))
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        if val is not None:
            opts[key] = val
        else:
            opts.setdefault(key, None)
    return opts


def _echo_config(opts, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.txt"), "w", encoding="utf-8") as fh:
        for key in sorted(opts):
            if key == "command":
                continue
            val = opts[key]
            if isinstance(val, list):  # as a list flag reads it back
                val = ",".join(map(str, val))
            fh.write(f"{key}={'' if val is None else val}\n")


def resolve_k(opts, n):
    """Explicit --k wins; otherwise round-half-up of k_fraction * N(N-1)."""
    if opts.get("k") is not None:
        k = int(opts["k"])
        if not (0 < k <= n * (n - 1)):
            raise UsageError(f"k={k} out of range for {n * (n - 1)} flows")
        return k
    frac = float(opts["k_fraction"])
    if not (0 < frac <= 1):
        raise UsageError(f"k_fraction must be in (0,1], got {frac}")
    return max(1, int(floor(frac * n * (n - 1) + 0.5)))


def _load_topology(opts):
    if not opts.get("topology"):
        raise UsageError("--topology is required")
    return topology.load_topology(opts["topology"])


def _load_matrices(opts, topo):
    if opts.get("tms"):
        return traffic.load_tms(opts["tms"], topo.node_count)
    return traffic.generate_tms(topo, opts["tm_model"], opts["tm_count"],
                                target_ecmp_util=opts["tm_target_util"],
                                seed=opts["seed"])


def _dataset(opts, topo):
    matrices = _load_matrices(opts, topo)
    return traffic.split_dataset(matrices, opts["train_fraction"], opts["seed"])


def _trainer_config(opts, k, iterations=None):
    return training.TrainerConfig(
        batch_size=opts["batch_size"], k=k,
        total_iterations=iterations or opts["iterations"],
        alpha0=opts["alpha0"], decay_every=opts["decay_every"],
        decay_base=opts["decay_base"], alpha_min=opts["alpha_min"],
        beta=opts["beta"], width=opts["width"], seed=opts["seed"])


def _maybe_dump_lp(opts, topo, tm, k):
    """Write the last path LP solved to reroute the top-K critical flows
    of `tm`: its columns in the order the solve appended them."""
    if not opts.get("dump_lp"):
        return
    fractions = compute_ecmp_fractions(topo)
    flows = sorted(selectors.top_k_critical(topo, tm, k, fractions=fractions).flows)
    background = ecmp_link_loads(topo, tm, fractions, exclude=flows)
    epsilon = default_epsilon(topo, len(flows))
    sol = solve_rerouting(topo, tm, flows, background, epsilon)
    problem = build_path_lp(topo, tm, background.load, sol.columns, epsilon)
    dump_lp(problem, opts["dump_lp"], name="rerouting")
    print(f"wrote LP dump to {opts['dump_lp']}")


def cmd_inspect_topology(opts):
    topo = _load_topology(opts)
    print(f"name: {topo.name}")
    print(f"nodes: {topo.node_count}")
    print(f"directed links: {topo.link_count}")
    print(f"flows: {topo.flow_count}")
    print(f"capacity: min {topo.capacity.min():g} max {topo.capacity.max():g}")
    print(f"cost: min {topo.cost.min():g} max {topo.cost.max():g}")
    print("strongly connected: yes")
    return 0


def cmd_generate_tm(opts):
    topo = _load_topology(opts)
    out_dir = opts["out"]
    _echo_config(opts, out_dir)
    tms = traffic.generate_tms(topo, opts["tm_model"], opts["tm_count"],
                               target_ecmp_util=opts["tm_target_util"],
                               seed=opts["seed"])
    path = opts.get("out_file") or os.path.join(out_dir, "tms.txt")
    traffic.save_tms(tms, path)
    print(f"wrote {len(tms)} matrices to {path}")
    return 0


def cmd_train(opts):
    topo = _load_topology(opts)
    dataset = _dataset(opts, topo)
    k = resolve_k(opts, topo.node_count)
    out_dir = opts["out"]
    _echo_config(opts, out_dir)
    config = _trainer_config(opts, k)
    ckpt = os.path.join(out_dir, "checkpoint.npz")
    _maybe_dump_lp(opts, topo, dataset.train[0], k)
    _, log = training.train(topo, dataset, config, checkpoint_path=ckpt,
                            checkpoint_every=opts["checkpoint_every"])
    log.write_csv(os.path.join(out_dir, "training_log.csv"))
    last = log.records[-1]
    print(f"trained {config.total_iterations} iterations "
          f"(final mean reward {last.mean_reward:.4f}); checkpoint at {ckpt}")
    return 0


def cmd_eval(opts):
    topo = _load_topology(opts)
    dataset = _dataset(opts, topo)
    k = resolve_k(opts, topo.node_count)
    out_dir = opts["out"]
    _echo_config(opts, out_dir)
    methods = opts["methods"]
    params = None
    if "policy" in methods:
        if not opts.get("checkpoint"):
            raise UsageError("eval with the policy method requires --checkpoint")
        params, _, _, _ = load_checkpoint(opts["checkpoint"])
    test = dataset.test
    _maybe_dump_lp(opts, topo, test[0], k)
    timings = []
    records, aggregates = evaluation.eval_suite(
        topo, test, methods, k, params=params,
        include_delay=not opts["skip_delay"], seed=opts["seed"], timings=timings)
    evaluation.write_results_csv(records, os.path.join(out_dir, "results.csv"))
    evaluation.write_cdf_csv(records, os.path.join(out_dir, "cdf.csv"))
    evaluation.write_timings_csv(timings, os.path.join(out_dir, "timings.csv"))
    for (method, metric), (mean, std) in sorted(aggregates.items()):
        print(f"{method:16s} {metric:9s} mean {mean:.4f} std {std:.4f}")
    return 0


def cmd_sweep_k(opts):
    topo = _load_topology(opts)
    dataset = _dataset(opts, topo)
    out_dir = opts["out"]
    _echo_config(opts, out_dir)
    n = topo.node_count
    n_flows = n * (n - 1)
    selector = opts["selector"]
    params = None
    if opts.get("checkpoint"):
        params, _, _, _ = load_checkpoint(opts["checkpoint"])
    test = dataset.test
    fr = compute_ecmp_fractions(topo)
    u_opts = [evaluation.solve_optimal_all_flows(topo, tm)[0] for tm in test]
    rows = []
    for f in sorted(set(opts["fractions"])):
        k = 0 if f == 0 else max(1, int(floor(f * n_flows + 0.5)))
        sel_name = selector
        if selector == "auto":
            if k == 0:
                sel_name = "ecmp"
            elif comb(n_flows, k) <= selectors.COMBINATION_CAP:
                sel_name = "brute_force"
            elif params is not None:
                sel_name = "policy"
            else:
                sel_name = "top_k_critical"
        prs = []
        for tm, u_opt in zip(test, u_opts):
            if k == 0:
                selection = selectors.SelectionResult(flows=(), method="ecmp")
            elif sel_name == "brute_force":
                selection, _ = selectors.brute_force_best(topo, tm, k, fractions=fr)
            else:
                selection = evaluation.select(sel_name, topo, tm, k,
                                              params=params, fractions=fr,
                                              seed=opts["seed"])
            rec = evaluation.eval_one(topo, tm, selection, fractions=fr,
                                      include_delay=False, u_optimal=u_opt)
            prs.append(rec.pr_u)
        rows.append((f, k, sel_name, float(np.mean(prs))))
    path = os.path.join(out_dir, "sweep_k.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("fraction,k,selector,mean_pr_u\n")
        for f, k, sel_name, pr in rows:
            fh.write(f"{f},{k},{sel_name},{pr!r}\n")
            print(f"K={k:4d} ({f:.0%}, {sel_name}): mean pr_u {pr:.4f}")
    print(f"wrote {path}")
    return 0


def cmd_sweep_hyper(opts):
    topo = _load_topology(opts)
    dataset = _dataset(opts, topo)
    k = resolve_k(opts, topo.node_count)
    out_dir = opts["out"]
    _echo_config(opts, out_dir)
    rows = []
    for alpha in opts["alphas"]:
        for width in opts["widths"]:
            for beta in opts["betas"]:
                cell = dict(opts, alpha0=alpha, width=width, beta=beta,
                            alpha_min=min(opts["alpha_min"], alpha))
                config = _trainer_config(cell, k)
                params, _ = training.train(topo, dataset, config)
                records, agg = evaluation.eval_suite(
                    topo, dataset.test, ["policy"], k, params=params,
                    include_delay=False, seed=opts["seed"])
                pr = agg[("policy", "pr_u")][0]
                rows.append((alpha, width, beta, pr))
                print(f"alpha={alpha} width={width} beta={beta}: mean pr_u {pr:.4f}")
    path = os.path.join(out_dir, "sweep_hyper.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("alpha0,width,beta,mean_pr_u\n")
        for alpha, width, beta, pr in rows:
            fh.write(f"{alpha},{width},{beta},{pr!r}\n")
    print(f"wrote {path}")
    return 0


COMMANDS = {
    "inspect-topology": cmd_inspect_topology,
    "generate-tm": cmd_generate_tm,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep-k": cmd_sweep_k,
    "sweep-hyper": cmd_sweep_hyper,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        opts = resolve_options(args, parser.config_actions)
        opts["command"] = args.command
        return COMMANDS[args.command](opts)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit:
        raise
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
