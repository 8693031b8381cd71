import tracemalloc

import numpy as np
import pytest

import critflow as cf
from critflow import policy, training
from critflow.policy import forward_batch, zeros_like_params
from critflow.training import Experience, _accumulate_update
from conftest import ABILENE, tm_with, tiny_config


def test_reward_triangle_single_flow(triangle):
    tm = tm_with(3, {(0, 2): 0.9})
    action = cf.flow_index(0, 2, 3)
    r, = cf.compute_reward(triangle, [tm], [cf.Solution(actions=(action,))], k=1)
    assert r == pytest.approx(1 / 0.45, abs=1e-6)


def test_reward_zero_demand_selection_is_ecmp(ring5):
    tm = cf.generate_tms(ring5, "uniform", 1, 0.9, seed=3)[0]
    tm.demand[0, 1] = 0.0
    tm.demand[1, 0] = 0.0
    sol = cf.Solution(actions=(cf.flow_index(0, 1, 5), cf.flow_index(1, 0, 5)))
    r, = cf.compute_reward(ring5, [tm], [sol], k=2)
    assert r == pytest.approx(1 / cf.ecmp_max_utilization(ring5, tm), abs=1e-6)


def test_reward_degenerate_state_errors(ring5):
    tm = cf.TrafficMatrix(5, np.zeros((5, 5)))
    with pytest.raises(cf.DegenerateStateError):
        cf.compute_reward(ring5, [tm], [cf.Solution(actions=(0, 1))], k=2)


def test_reward_wrong_k_errors(ring5):
    tm = cf.generate_tms(ring5, "uniform", 1, 0.9, seed=3)[0]
    with pytest.raises(cf.TrainingError):
        cf.compute_reward(ring5, [tm], [cf.Solution(actions=(0, 1))], k=3)


def test_brute_force_set_maximizes_reward(diamond):
    tm = cf.generate_tms(diamond, "exponential", 1, 0.9, seed=4)[0]
    fr = cf.compute_ecmp_fractions(diamond)
    sel, u_best = cf.brute_force_best(diamond, tm, 2, fractions=fr)
    best_r = 1 / u_best
    from itertools import combinations
    subsets = list(combinations(range(12), 2))
    rewards = cf.compute_reward(diamond, [tm] * len(subsets),
                                [cf.Solution(actions=s) for s in subsets], fractions=fr)
    for r in rewards:
        assert best_r >= r - 1e-9


def test_learning_rate_schedule():
    config = cf.TrainerConfig(total_iterations=1)
    assert cf.learning_rate(config, 0) == 0.001
    assert cf.learning_rate(config, 499) == 0.001
    assert cf.learning_rate(config, 500) == pytest.approx(0.00096)
    expected = max(0.0001, 0.001 * 0.96 ** 20)
    assert cf.learning_rate(config, 10_000) == pytest.approx(expected)
    assert expected == pytest.approx(0.000442, abs=5e-7)
    # floor kicks in eventually
    assert cf.learning_rate(config, 10 ** 6) == 0.0001


def test_config_validation():
    with pytest.raises(ValueError):
        cf.TrainerConfig(batch_size=0)
    with pytest.raises(ValueError):
        cf.TrainerConfig(alpha0=0.0001, alpha_min=0.001)


def test_actor_count_other_than_one_rejected():
    assert cf.TrainerConfig().actor_count == 1
    for count in (0, 2):
        with pytest.raises(ValueError, match="actor_count"):
            cf.TrainerConfig(actor_count=count)


def test_first_visit_baseline_zero(tiny_instance):
    topo, dataset = tiny_instance
    config = tiny_config(total_iterations=1, batch_size=8)
    _, log = cf.train(topo, dataset, config)
    for exp in log.records[0].batch:
        assert exp.advantage == exp.reward  # baseline 0 on first iteration


def test_baseline_table_is_running_mean(tiny_instance, tmp_path):
    topo, dataset = tiny_instance
    config = tiny_config(total_iterations=25, batch_size=6)
    ckpt = tmp_path / "c.npz"
    _, log = cf.train(topo, dataset, config, checkpoint_path=ckpt)
    _, _, v, n = cf.load_checkpoint(ckpt)
    sums, counts = {}, {}
    for rec in log.records:
        for exp in rec.batch:
            sums[exp.state_id] = sums.get(exp.state_id, 0.0) + exp.reward
            counts[exp.state_id] = counts.get(exp.state_id, 0) + 1
    assert set(v) == set(sums)
    for sid in sums:
        assert v[sid] / n[sid] == pytest.approx(sums[sid] / counts[sid], rel=1e-12)


def test_serial_training_bit_deterministic(tiny_instance):
    topo, dataset = tiny_instance
    config = tiny_config(total_iterations=12, batch_size=6)
    p1, l1 = cf.train(topo, dataset, config)
    p2, l2 = cf.train(topo, dataset, config)
    for a, b in zip(p1.tensors().values(), p2.tensors().values()):
        assert np.array_equal(a, b)
    assert [r.mean_reward for r in l1.records] == [r.mean_reward for r in l2.records]


def test_replay_reproduces_update(tiny_instance):
    topo, dataset = tiny_instance
    config_full = tiny_config(total_iterations=10, batch_size=6)
    config_stub = tiny_config(total_iterations=9, batch_size=6)
    p_full, log = cf.train(topo, dataset, config_full)
    p_stub, _ = cf.train(topo, dataset, config_stub)
    delta = cf.replay_update(p_stub, log.records[9].batch, dataset.matrices,
                             config_full, iteration=9)
    rebuilt = p_stub.add_scaled(delta, 1.0)
    for a, b in zip(rebuilt.tensors().values(), p_full.tensors().values()):
        assert np.max(np.abs(a - b)) <= 1e-9


def test_update_matches_manual_accumulation(tiny_instance):
    topo, dataset = tiny_instance
    config = tiny_config(total_iterations=1, batch_size=4)
    params_after, log = cf.train(topo, dataset, config)
    batch = log.records[0].batch
    # rebuild theta_0 deterministically the way train() does
    ss = np.random.SeedSequence(config.seed)
    init_seed, _ = ss.spawn(2)
    params_before = cf.init_params(topo.node_count, width=config.width,
                                   seed=init_seed)
    alpha = cf.learning_rate(config, 0)
    delta = _accumulate_update(params_before, dataset.matrices, batch, alpha,
                               config.beta)
    rebuilt = params_before.add_scaled(delta, 1.0)
    for a, b in zip(rebuilt.tensors().values(), params_after.tensors().values()):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_mean_reward_trend_improves(tiny_instance):
    topo, dataset = tiny_instance
    config = tiny_config(total_iterations=400)
    _, log = cf.train(topo, dataset, config)
    rewards = [r.mean_reward for r in log.records]
    first, last = np.mean(rewards[:100]), np.mean(rewards[-100:])
    assert last >= first * 0.95  # never collapses
    assert last > first          # actually learns on this instance


def test_zero_matrices_filtered_with_warning(ring5):
    mats = cf.generate_tms(ring5, "uniform", 2, 0.9, seed=1)
    mats.append(cf.TrafficMatrix(5, np.zeros((5, 5)), id="dead"))
    dataset = cf.Dataset(matrices=mats, train_indices=[0, 1, 2],
                         test_indices=[], seed=0)
    config = tiny_config(total_iterations=2, batch_size=4)
    with pytest.warns(UserWarning, match="all-zero"):
        _, log = cf.train(ring5, dataset, config)
    seen = {e.state_id for r in log.records for e in r.batch}
    assert 2 not in seen


def test_abort_on_nonfinite_params(tiny_instance, tmp_path, monkeypatch):
    topo, dataset = tiny_instance
    config = tiny_config(total_iterations=5, batch_size=2)

    def poisoned(params, cache, experiences, alpha, beta):
        from critflow.policy import zeros_like_params
        delta = zeros_like_params(params)
        delta.conv_b[:] = np.nan
        return delta

    monkeypatch.setattr("critflow.training._update_from_cache", poisoned)
    ckpt = tmp_path / "abort.npz"
    with pytest.raises(cf.TrainingError, match="non-finite"):
        cf.train(topo, dataset, config, checkpoint_path=ckpt)
    params, iteration, _, _ = cf.load_checkpoint(ckpt)  # last finite state saved
    assert iteration == 0
    assert all(np.all(np.isfinite(t)) for t in params.tensors().values())


def test_serial_training_logs_wall_time(tiny_instance):
    topo, dataset = tiny_instance
    config = tiny_config(total_iterations=4, batch_size=3)
    _, log = cf.train(topo, dataset, config)
    assert len(log.records) == config.total_iterations
    assert all(rec.wall_ms > 0 for rec in log.records)


def test_log_csv_format(tiny_instance, tmp_path):
    topo, dataset = tiny_instance
    config = tiny_config(total_iterations=3, batch_size=2)
    _, log = cf.train(topo, dataset, config)
    path = tmp_path / "log.csv"
    log.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("iteration,mean_reward,mean_entropy,alpha,wall_ms,"
                        "forward_ms,sample_ms,reward_ms,update_ms,cache_hits")
    assert len(lines) == 4


def test_phase_times_within_wall_and_cache_hits_count_new_entries(tiny_instance,
                                                                  monkeypatch):
    topo, dataset = tiny_instance
    passed = []  # the keys each compute_reward call was given
    compute_reward = training.compute_reward

    def counted_reward(topo, tms, solutions, *args, **kwargs):
        passed.append(len(solutions))
        return compute_reward(topo, tms, solutions, *args, **kwargs)

    monkeypatch.setattr(training, "compute_reward", counted_reward)
    _, log = cf.train(topo, dataset, tiny_config(total_iterations=30, batch_size=8))
    seen, new_keys = set(), []
    for rec in log.records:
        phases = (rec.forward_ms, rec.sample_ms, rec.reward_ms, rec.update_ms)
        assert all(t >= 0 for t in phases)
        assert sum(phases) <= rec.wall_ms
        new = {(e.state_id, frozenset(e.solution.actions)) for e in rec.batch} - seen
        seen |= new
        assert rec.cache_hits == len(rec.batch) - len(new)
        if new:
            new_keys.append(len(new))
    # one call per iteration with new keys, given exactly those keys
    assert passed == new_keys
    assert sum(len(r.batch) - r.cache_hits for r in log.records) == sum(passed)
    assert log.records[0].cache_hits < 8 and log.records[-1].cache_hits > 0


def _per_sample_update(params, matrices, experiences, alpha, beta):
    """The update as a loop over the samples: alpha * sum of gradients(...)."""
    delta = zeros_like_params(params)
    for exp in experiences:
        g = cf.gradients(params, matrices[exp.state_id], exp.solution,
                         exp.advantage, beta).tensors()
        for name, t in delta.tensors().items():
            t += alpha * g[name]
    return delta


def _abilene_instance():
    topo = cf.load_topology(ABILENE)
    return topo, cf.generate_tms(topo, "exponential", 20, target_ecmp_util=0.9, seed=3)


def _oracle_batch(params, matrices, k, size, seed):
    """Experiences with a repeated state, a zero advantage and signed
    advantages, each solution sampled from the policy."""
    rng = np.random.default_rng(seed)
    ids = [int(i) for i in rng.integers(len(matrices), size=size)]
    ids[1] = ids[0]
    experiences = []
    for row, sid in enumerate(ids):
        sol = cf.sample_solution(cf.forward(params, matrices[sid]), k, rng)
        advantage = 0.0 if row == 2 else float(rng.normal())
        experiences.append(Experience(sid, sol, advantage, 1.0))
    return experiences


@pytest.mark.parametrize("saturated", [False, True], ids=["plain", "saturated"])
@pytest.mark.parametrize("instance", ["tiny", "abilene"])
def test_batched_update_equals_sum_of_per_sample_gradients(tiny_instance, instance,
                                                           saturated):
    if instance == "tiny":
        (topo, dataset), width, k, size = tiny_instance, 16, 2, 20
        matrices = dataset.matrices
    else:
        (topo, matrices), width, k, size = _abilene_instance(), 128, 13, 20
    params = cf.init_params(topo.node_count, width=width, seed=7)
    if saturated:  # every other action's probability underflows to 0
        params.fc2_b[3] = 800.0
        assert np.count_nonzero(cf.forward(params, matrices[0]).probs) == 1
    experiences = _oracle_batch(params, matrices, k, size, seed=8)
    alpha, beta = 0.01, 0.1
    got = _accumulate_update(params, matrices, experiences, alpha, beta).tensors()
    want = _per_sample_update(params, matrices, experiences, alpha, beta).tensors()
    for name, w in want.items():
        assert np.max(np.abs(got[name] - w)) <= 1e-12 * np.max(np.abs(w)), name


def test_batched_forward_equals_per_matrix_forward():
    topo, matrices = _abilene_instance()
    params = cf.init_params(topo.node_count, width=128, seed=7)
    batch = [matrices[i] for i in (4, 0, 4, 19, 7)]
    for tm, dist in zip(batch, forward_batch(params, batch)):
        assert np.max(np.abs(dist.probs - cf.forward(params, tm).probs)) <= 1e-14


def test_one_batched_pass_per_phase_per_iteration(tiny_instance, monkeypatch):
    topo, dataset = tiny_instance
    calls = []
    forward_pass, backward_pass = policy._forward_batch, policy._backward_batch

    def counted_forward(params, tms):
        calls.append(("forward", len(tms)))
        return forward_pass(params, tms)

    def counted_backward(params, cache, *args, **kwargs):
        calls.append(("backward", len(cache["probs"])))
        return backward_pass(params, cache, *args, **kwargs)

    monkeypatch.setattr(policy, "_forward_batch", counted_forward)
    monkeypatch.setattr(policy, "_backward_batch", counted_backward)
    cf.train(topo, dataset, tiny_config(total_iterations=2, batch_size=7))
    # per iteration: one forward for sampling, whose activations the update's
    # backward pass reuses
    assert calls == [("forward", 7), ("backward", 7)] * 2


def test_overflowing_step_aborts_with_last_finite_params(tiny_instance, tmp_path,
                                                         monkeypatch):
    """Each delta is finite, but the second step overflows to inf: the check
    is on the stepped parameters, not on the delta alone."""
    topo, dataset = tiny_instance
    config = tiny_config(total_iterations=5, batch_size=2)
    big = np.finfo(float).max

    def overflowing(params, cache, experiences, alpha, beta):
        delta = zeros_like_params(params)
        delta.fc2_b[:] = big
        return delta

    monkeypatch.setattr("critflow.training._update_from_cache", overflowing)
    ckpt = tmp_path / "abort.npz"
    with pytest.raises(cf.TrainingError, match="non-finite"), np.errstate(over="ignore"):
        cf.train(topo, dataset, config, checkpoint_path=ckpt)
    params, iteration, _, _ = cf.load_checkpoint(ckpt)
    assert iteration == 1
    assert all(np.all(np.isfinite(t)) for t in params.tensors().values())
    assert np.all(params.fc2_b == big)


def test_train_never_writes_to_init(tiny_instance):
    topo, dataset = tiny_instance
    config = tiny_config(total_iterations=6, batch_size=4)
    init = cf.init_params(topo.node_count, width=config.width, seed=3)
    before = {name: t.tobytes() for name, t in init.tensors().items()}
    trained, _ = cf.train(topo, dataset, config, init=init)
    assert {name: t.tobytes() for name, t in init.tensors().items()} == before
    assert not np.array_equal(trained.fc2_w, init.fc2_w)


def test_training_peak_allocation_near_two_policies():
    """Three Abilene iterations allocate at most about the parameters and
    one gradient at once, besides the activations: the step is taken in
    the gradient's arrays, not in new ones."""
    topo, matrices = _abilene_instance()
    dataset = cf.Dataset(matrices=matrices, train_indices=list(range(len(matrices))),
                         test_indices=[], seed=0)
    config = cf.TrainerConfig(batch_size=20, k=13, total_iterations=3, width=128,
                              seed=1)
    init = cf.init_params(topo.node_count, width=config.width, seed=7)
    tracemalloc.start()
    try:
        cf.train(topo, dataset, config, init=init)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak_in_fc1_w = peak / init.fc1_w.nbytes
    assert peak_in_fc1_w < 3.3
