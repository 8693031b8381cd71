import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import critflow as cf
from critflow.policy import selection_objective


def random_tm(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(0, 1, (n, n))
    np.fill_diagonal(d, 0)
    return cf.TrafficMatrix(n, d)


def test_zero_params_uniform():
    params = cf.zero_params(4, width=8)
    dist = cf.forward(params, random_tm(4, 0))
    assert np.allclose(dist.probs, 1 / 12, atol=1e-15)


def test_probs_sum_to_one_random():
    for seed in range(100):
        params = cf.init_params(4, width=8, seed=seed)
        dist = cf.forward(params, random_tm(4, 1000 + seed))
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(dist.probs >= 0)


def test_scale_invariance():
    params = cf.init_params(4, width=8, seed=3)
    tm = random_tm(4, 7)
    a = cf.forward(params, tm)
    b = cf.forward(params, cf.TrafficMatrix(4, tm.demand * 123.4))
    assert np.allclose(a.probs, b.probs, atol=1e-12)


def test_forward_pure_function():
    params = cf.init_params(4, width=8, seed=5)
    tm = random_tm(4, 9)
    a = cf.forward(params, tm)
    b = cf.forward(params, tm)
    assert np.array_equal(a.probs, b.probs)
    assert np.array_equal(a.logits, b.logits)


def test_fc1_input_is_width_times_n_squared():
    params = cf.init_params(6, width=128, seed=0)
    assert params.fc1_w.shape[0] == 128 * 36


def test_init_params_are_glorot_uniform_draws():
    n, width, seed = 5, 16, 11
    params = cf.init_params(n, width=width, seed=seed)
    rng = np.random.default_rng(seed)
    fans = {"conv_w": (9, 9 * width), "fc1_w": (n * n * width, width),
            "fc2_w": (width, n * (n - 1))}
    for name, t in params.tensors().items():
        if name in fans:
            bound = np.sqrt(6.0 / sum(fans[name]))
            want = rng.uniform(-bound, bound, size=t.shape)
            assert t.tobytes() == want.tobytes(), name
        else:
            assert not t.any(), name
        assert t.flags.writeable


# fc1_w of 8 nodes at width 128 is 8 MiB. Each round makes small arrays
# and keeps some alive, which split any heap hole an old copy leaves. The
# peak is VmHWM: ru_maxrss would carry over the parent's peak from the fork.
_POLICIES_IN_TURN = """
import numpy as np
import critflow as cf
def rss():
    with open("/proc/self/status") as fh:
        return next(int(l.split()[1]) * 1024 for l in fh if l.startswith("VmHWM:"))
keep = []
params = cf.init_params(8, width=128, seed=0)
base = rss()
for seed in range(1, 12):
    params = cf.init_params(8, width=128, seed=seed)
    keep.append([np.ones(1000 + 37 * i) for i in range(20)][::5])
print((rss() - base) / params.fc1_w.nbytes)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_policies_initialized_in_turn_peak_at_two_copies():
    env = {**os.environ, "PYTHONPATH": str(Path(cf.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-c", _POLICIES_IN_TURN], check=True,
                         capture_output=True, text=True, timeout=120, env=env)
    # one more copy than the one alive at the start, never a third
    assert float(out.stdout) < 1.5


def test_weight_map_not_reused_while_a_view_lives():
    params = cf.init_params(3, width=4, seed=0)
    view = params.fc1_w[1:].T
    want = view.copy()
    del params
    cf.init_params(3, width=4, seed=1)
    assert np.array_equal(view, want)


def test_shape_mismatch_rejected():
    params = cf.init_params(4, width=8, seed=0)
    with pytest.raises(cf.PolicyError):
        cf.forward(params, random_tm(5, 0))


def test_sample_all_actions():
    dist = cf.ActionDistribution(probs=np.full(12, 1 / 12), logits=np.zeros(12))
    sol = cf.sample_solution(dist, 12, rng=0)
    assert sorted(sol.actions) == list(range(12))


def test_sample_point_mass():
    p = np.zeros(12)
    p[5] = 1.0
    dist = cf.ActionDistribution(probs=p, logits=np.log(p + 1e-300))
    for seed in range(5):
        assert cf.sample_solution(dist, 1, rng=seed).actions == (5,)


def test_sample_uniform_frequencies():
    dist = cf.ActionDistribution(probs=np.full(12, 1 / 12), logits=np.zeros(12))
    rng = np.random.default_rng(123)
    draws = 100_000
    counts = np.zeros(12)
    for _ in range(draws):
        counts[cf.sample_solution(dist, 1, rng=rng).actions[0]] += 1
    freqs = counts / draws
    sigma = np.sqrt((1 / 12) * (11 / 12) / draws)
    assert np.all(np.abs(freqs - 1 / 12) <= 3 * sigma + 1e-12)


def test_sample_deterministic_given_seed():
    dist = cf.ActionDistribution(probs=np.full(20, 0.05), logits=np.zeros(20))
    a = cf.sample_solution(dist, 5, rng=77)
    b = cf.sample_solution(dist, 5, rng=77)
    assert a.actions == b.actions


def test_sample_zero_prob_fallback():
    p = np.zeros(8)
    p[2] = 1.0
    dist = cf.ActionDistribution(probs=p, logits=np.zeros(8))
    sol = cf.sample_solution(dist, 4, rng=1)
    assert sol.filled_uniform
    assert len(set(sol.actions)) == 4
    assert 2 in sol.actions


def test_sample_k_out_of_range():
    dist = cf.ActionDistribution(probs=np.full(6, 1 / 6), logits=np.zeros(6))
    with pytest.raises(cf.PolicyError):
        cf.sample_solution(dist, 7, rng=0)


def test_solution_log_prob_uniform():
    dist = cf.ActionDistribution(probs=np.full(12, 1 / 12), logits=np.zeros(12))
    sol = cf.Solution(actions=(0, 3, 7))
    assert cf.solution_log_prob(dist, sol) == pytest.approx(3 * np.log(1 / 12))
    single = cf.Solution(actions=(4,))
    assert cf.solution_log_prob(dist, single) == pytest.approx(np.log(1 / 12))


def test_solution_log_prob_zero_prob_is_neg_inf():
    p = np.zeros(4)
    p[0] = 1.0
    dist = cf.ActionDistribution(probs=p, logits=np.zeros(4))
    assert cf.solution_log_prob(dist, cf.Solution(actions=(1,))) == float("-inf")


def test_solution_prob_at_most_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        logits = rng.normal(size=10)
        p = np.exp(logits) / np.exp(logits).sum()
        dist = cf.ActionDistribution(probs=p, logits=logits)
        k = int(rng.integers(1, 5))
        ids = rng.choice(10, size=k, replace=False)
        lp = cf.solution_log_prob(dist, cf.Solution(actions=tuple(int(i) for i in ids)))
        assert np.exp(lp) <= 1.0 + 1e-12


def test_entropy_limits():
    uniform = cf.ActionDistribution(probs=np.full(12, 1 / 12), logits=np.zeros(12))
    assert cf.entropy(uniform) == pytest.approx(np.log(12))
    point = np.zeros(12)
    point[3] = 1.0
    assert cf.entropy(cf.ActionDistribution(probs=point, logits=point)) == 0.0
    rng = np.random.default_rng(1)
    for _ in range(100):
        logits = rng.normal(size=12)
        p = np.exp(logits) / np.exp(logits).sum()
        h = cf.entropy(cf.ActionDistribution(probs=p, logits=logits))
        assert 0.0 <= h <= np.log(12) + 1e-12


def test_gradients_zero_when_no_signal():
    params = cf.init_params(4, width=8, seed=2)
    g = cf.gradients(params, random_tm(4, 3), cf.Solution(actions=(0, 5)), 0.0, 0.0)
    for t in g.tensors().values():
        assert np.all(t == 0)


def test_gradients_match_finite_differences_every_component():
    params = cf.init_params(4, width=8, seed=11)
    tm = random_tm(4, 12)
    sol = cf.Solution(actions=(1, 6, 10))
    adv, beta = 1.3, 0.1
    g = cf.gradients(params, tm, sol, adv, beta)
    h = 1e-5
    for name, t in params.tensors().items():
        gt = g.tensors()[name]
        it = np.nditer(t, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = t[idx]
            t[idx] = orig + h
            fp = selection_objective(params, tm, sol, adv, beta)
            t[idx] = orig - h
            fm = selection_objective(params, tm, sol, adv, beta)
            t[idx] = orig
            fd = (fp - fm) / (2 * h)
            err = abs(fd - gt[idx]) / max(1.0, abs(fd), abs(gt[idx]))
            assert err < 1e-4, f"{name}{idx}: fd={fd} analytic={gt[idx]}"


def test_ascent_with_positive_advantage_raises_log_prob():
    params = cf.init_params(4, width=8, seed=21)
    tm = random_tm(4, 22)
    sol = cf.Solution(actions=(2, 9))
    before = cf.solution_log_prob(cf.forward(params, tm), sol)
    g = cf.gradients(params, tm, sol, advantage=1.0, beta=0.0)
    upped = params.add_scaled(g, 1e-3)
    after = cf.solution_log_prob(cf.forward(upped, tm), sol)
    assert after > before
    downed = params.add_scaled(cf.gradients(params, tm, sol, -1.0, 0.0), 1e-3)
    assert cf.solution_log_prob(cf.forward(downed, tm), sol) < before


def test_entropy_gradient_ascends_entropy():
    params = cf.init_params(4, width=8, seed=31)
    tm = random_tm(4, 32)
    sol = cf.Solution(actions=(0,))
    before = cf.entropy(cf.forward(params, tm))
    g = cf.gradients(params, tm, sol, advantage=0.0, beta=1.0)
    after = cf.entropy(cf.forward(params.add_scaled(g, 1e-3), tm))
    assert after > before


def test_checkpoint_round_trip(tmp_path):
    params = cf.init_params(5, width=8, seed=4)
    path = tmp_path / "ckpt.npz"
    cf.save_checkpoint(path, params, iteration=42,
                       baseline_v={0: 1.5, 3: 4.0}, baseline_n={0: 2, 3: 5})
    loaded, iteration, v, n = cf.load_checkpoint(path)
    assert iteration == 42
    assert v == {0: 1.5, 3: 4.0}
    assert n == {0: 2, 3: 5}
    for a, b in zip(params.tensors().values(), loaded.tensors().values()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("cuts, named", [
    pytest.param({"fc2_w": np.s_[:, :10], "fc2_b": np.s_[:10]}, "fc2_w",
                 id="fc2-covers-10-of-20-actions"),
    *(pytest.param({name: np.s_[..., :-1]}, name, id=name)
      for name in ("conv_w", "conv_b", "fc1_w", "fc1_b", "fc2_w", "fc2_b")),
])
def test_checkpoint_tensor_shapes_checked(tmp_path, cuts, named):
    params = cf.init_params(5, width=8, seed=4)
    for name, cut in cuts.items():
        setattr(params, name, getattr(params, name)[cut])
    path = tmp_path / "bad.npz"
    cf.save_checkpoint(path, params)
    with pytest.raises(cf.PolicyError, match=named):
        cf.load_checkpoint(path)


def test_duplicate_actions_rejected():
    with pytest.raises(cf.PolicyError):
        cf.Solution(actions=(1, 1))


@pytest.mark.filterwarnings("error")
def test_saturated_softmax_warns_nowhere():
    params = cf.init_params(4, width=8, seed=2)
    params.fc2_b[0] = 1e4
    tm = random_tm(4, 3)
    dist = cf.forward(params, tm)
    assert dist.probs[0] == 1.0 and np.count_nonzero(dist.probs) == 1
    assert cf.entropy(dist) == 0.0
    sol = cf.Solution(actions=(0, 5))
    g = cf.gradients(params, tm, sol, advantage=1.0, beta=0.1)
    assert all(np.all(np.isfinite(t)) for t in g.tensors().values())
    assert selection_objective(params, tm, sol, 1.0, 0.1) == float("-inf")
