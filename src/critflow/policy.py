"""Flow-selection policy network with exact analytic gradients.

Fixed architecture: the demand matrix (max-normalized, one channel) goes
through a 3x3 same-padded convolution (`width` filters, stride 1), Leaky
ReLU, a fully connected layer of `width` units, Leaky ReLU, and a linear
layer onto the N*(N-1) flow ids; softmax yields the selection
distribution. All math is float64 numpy, no autodiff: the backward pass
is written out so gradient checks can hold to finite-difference accuracy.
"""

from __future__ import annotations

import mmap
import weakref
from dataclasses import dataclass

import numpy as np

KERNEL = 3
LEAKY_SLOPE = 0.01
CHECKPOINT_VERSION = 1


class PolicyError(Exception):
    pass


@dataclass
class PolicyParams:
    n: int
    width: int
    conv_w: np.ndarray   # (3, 3, width)
    conv_b: np.ndarray   # (width,)
    fc1_w: np.ndarray    # (n*n*width, width)
    fc1_b: np.ndarray    # (width,)
    fc2_w: np.ndarray    # (width, n*(n-1))
    fc2_b: np.ndarray    # (n*(n-1),)

    @property
    def n_actions(self):
        return self.n * (self.n - 1)

    def tensors(self):
        """Parameter groups in declared order."""
        return {"conv_w": self.conv_w, "conv_b": self.conv_b,
                "fc1_w": self.fc1_w, "fc1_b": self.fc1_b,
                "fc2_w": self.fc2_w, "fc2_b": self.fc2_b}

    def copy(self):
        return PolicyParams(self.n, self.width,
                            *(t.copy() for t in self.tensors().values()))

    def add_scaled(self, grads, scale):
        """New params = self + scale * grads (ascent step)."""
        g = grads.tensors()
        return PolicyParams(self.n, self.width,
                            *(t + scale * g[k] for k, t in self.tensors().items()))


def _param_shapes(n, width):
    """Tensor shapes of a PolicyParams, in declared order."""
    n_act = n * (n - 1)
    return {"conv_w": (KERNEL, KERNEL, width), "conv_b": (width,),
            "fc1_w": (n * n * width, width), "fc1_b": (width,),
            "fc2_w": (width, n_act), "fc2_b": (n_act,)}


# The map of each size whose array died last, kept for the next array of
# that size (see _mapped_empty).
_SPARE_MAPS = {}


def _mapped_empty(shape):
    """An uninitialized float64 array in an anonymous memory map of its own.

    fc1_w runs to megabytes (8 MiB at 8 nodes and width 128). From the
    malloc heap, a freed copy leaves a hole that later small allocations
    split, so the next copy often lands on fresh pages, and a process that
    initializes one policy after another peaks at two copies or at three,
    depending on what ran in between. Here the map of an array that died
    is kept, one per size, for the next array of that size: the peak is
    the copies alive at once plus at most one spare, and a new policy
    reuses pages that are already faulted in, as it did from the heap.
    """
    count = int(np.prod(shape))
    nbytes = max(count, 1) * np.dtype(np.float64).itemsize
    buf = _SPARE_MAPS.pop(nbytes, None)
    if buf is None:
        buf = mmap.mmap(-1, nbytes)
    flat = np.frombuffer(buf, dtype=np.float64)
    # every view of the result has `flat` as its base, so `flat` dies last
    weakref.finalize(flat, _SPARE_MAPS.setdefault, nbytes, buf)
    return flat[:count].reshape(shape)


def _glorot(rng, shape, fan_in, fan_out):
    """Uniform on [-bound, bound): the draws of rng.uniform(-bound, bound,
    size=shape), bit for bit, written straight into a mapped array."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    out = _mapped_empty(shape)
    rng.random(out=out)
    out *= 2.0 * bound
    out -= bound
    return out


def init_params(n, width=128, seed=0):
    """Variance-preserving uniform init; biases zero."""
    rng = np.random.default_rng(seed)
    n_act = n * (n - 1)
    flat = n * n * width
    return PolicyParams(
        n=n, width=width,
        conv_w=_glorot(rng, (KERNEL, KERNEL, width), KERNEL * KERNEL, KERNEL * KERNEL * width),
        conv_b=np.zeros(width),
        fc1_w=_glorot(rng, (flat, width), flat, width),
        fc1_b=np.zeros(width),
        fc2_w=_glorot(rng, (width, n_act), width, n_act),
        fc2_b=np.zeros(n_act),
    )


def zero_params(n, width=128):
    """All-zero parameters; the forward pass gives the uniform distribution."""
    return PolicyParams(n, width,
                        *(np.zeros(s) for s in _param_shapes(n, width).values()))


def zeros_like_params(params):
    return PolicyParams(params.n, params.width,
                        *(np.zeros_like(t) for t in params.tensors().values()))


@dataclass
class ActionDistribution:
    probs: np.ndarray
    logits: np.ndarray


@dataclass
class Solution:
    actions: tuple         # K distinct action ids, in sampling order
    filled_uniform: bool = False  # true if zero-probability fallback kicked in

    def __post_init__(self):
        self.actions = tuple(int(a) for a in self.actions)
        if len(set(self.actions)) != len(self.actions):
            raise PolicyError("solution actions must be distinct")


def _normalize_input(tm_demand):
    x = np.asarray(tm_demand, dtype=float)
    peak = x.max()
    return x / peak if peak > 0 else np.zeros_like(x)


def _im2col(x):
    """(N, N) -> (N*N, 9) patches with zero same-padding."""
    n = x.shape[0]
    padded = np.zeros((n + 2, n + 2))
    padded[1:-1, 1:-1] = x
    cols = np.empty((n * n, KERNEL * KERNEL))
    idx = 0
    for di in range(KERNEL):
        for dj in range(KERNEL):
            cols[:, idx] = padded[di:di + n, dj:dj + n].ravel()
            idx += 1
    return cols


def _leaky(z):
    return np.where(z >= 0, z, LEAKY_SLOPE * z)


def _leaky_grad(z):
    return np.where(z >= 0, 1.0, LEAKY_SLOPE)


def _forward_cached(params, tm):
    if tm.n != params.n:
        raise PolicyError(f"traffic matrix n={tm.n} != policy n={params.n}")
    x = _normalize_input(tm.demand)
    patches = _im2col(x)                                   # (N^2, 9)
    z1 = patches @ params.conv_w.reshape(KERNEL * KERNEL, params.width) + params.conv_b
    a1 = _leaky(z1)                                        # (N^2, width)
    flat = a1.ravel()                                      # (N^2 * width,)
    z2 = flat @ params.fc1_w + params.fc1_b
    a2 = _leaky(z2)
    logits = a2 @ params.fc2_w + params.fc2_b
    shifted = logits - logits.max()
    e = np.exp(shifted)
    probs = e / e.sum()
    return {"patches": patches, "z1": z1, "a1": a1, "flat": flat,
            "z2": z2, "a2": a2, "logits": logits, "probs": probs}


def forward(params, tm):
    cache = _forward_cached(params, tm)
    return ActionDistribution(probs=cache["probs"], logits=cache["logits"])


def sample_solution(dist, k, rng):
    """Draw k distinct actions sequentially without replacement.

    If fewer than k actions have positive probability, the remainder is
    filled uniformly from the zero-probability actions and the result is
    flagged (`filled_uniform`). Deterministic given the rng/seed.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    n_act = dist.probs.shape[0]
    if not (1 <= k <= n_act):
        raise PolicyError(f"k={k} out of range for {n_act} actions")
    p = np.array(dist.probs, dtype=float)
    p[p < 0] = 0.0
    chosen = []
    filled = False
    for _ in range(k):
        total = p.sum()
        if total <= 0:
            remaining = [a for a in range(n_act) if a not in set(chosen)]
            extra = rng.choice(len(remaining), size=k - len(chosen), replace=False)
            chosen.extend(remaining[int(i)] for i in extra)
            filled = True
            break
        a = int(rng.choice(n_act, p=p / total))
        chosen.append(a)
        p[a] = 0.0
    return Solution(actions=tuple(chosen), filled_uniform=filled)


def solution_log_prob(dist, sol):
    """log of the product-of-marginals approximation of the solution
    probability (not the true without-replacement probability)."""
    p = dist.probs[list(sol.actions)]
    if np.any(p <= 0):
        return float("-inf")
    return float(np.sum(np.log(p)))


def entropy(dist):
    p = dist.probs
    nz = p > 0
    return float(-np.sum(p[nz] * np.log(p[nz])))


def gradients(params, tm, sol, advantage, beta):
    """Exact ascent gradient of  advantage * log pi(sol) + beta * H(pi).

    Returns a PolicyParams-shaped structure. Raises on non-finite
    intermediates, naming the layer.
    """
    cache = _forward_cached(params, tm)
    probs = cache["probs"]
    n_act = probs.shape[0]
    k = len(sol.actions)

    counts = np.zeros(n_act)
    counts[list(sol.actions)] = 1.0
    logp = np.where(probs > 0, np.log(probs), 0.0)
    h = float(-np.sum(probs * logp))
    # d/dlogits of log pi(sol): counts - K * probs; of H: -probs*(logp + H)
    dlogits = advantage * (counts - k * probs) + beta * (-probs * (logp + h))

    grads = {}
    grads["fc2_w"] = np.outer(cache["a2"], dlogits)
    grads["fc2_b"] = dlogits
    da2 = params.fc2_w @ dlogits
    dz2 = da2 * _leaky_grad(cache["z2"])
    grads["fc1_w"] = np.outer(cache["flat"], dz2)
    grads["fc1_b"] = dz2
    dflat = params.fc1_w @ dz2
    dz1 = dflat.reshape(cache["a1"].shape) * _leaky_grad(cache["z1"])
    grads["conv_w"] = (cache["patches"].T @ dz1).reshape(KERNEL, KERNEL, params.width)
    grads["conv_b"] = dz1.sum(axis=0)

    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise PolicyError(f"non-finite gradient in layer {name}")
    return PolicyParams(params.n, params.width,
                        grads["conv_w"], grads["conv_b"],
                        grads["fc1_w"], grads["fc1_b"],
                        grads["fc2_w"], grads["fc2_b"])


def selection_objective(params, tm, sol, advantage, beta):
    """The scalar the gradients climb; used by finite-difference checks."""
    cache = _forward_cached(params, tm)
    dist = ActionDistribution(probs=cache["probs"], logits=cache["logits"])
    return advantage * solution_log_prob(dist, sol) + beta * entropy(dist)


def save_checkpoint(path, params, iteration=0, baseline_v=None, baseline_n=None):
    """Versioned checkpoint: architecture, tensors in declared order,
    schedule state (iteration), and the baseline table."""
    v_keys = np.array(sorted(baseline_v)) if baseline_v else np.zeros(0, dtype=int)
    np.savez(path,
             format_version=CHECKPOINT_VERSION,
             n=params.n, width=params.width, leaky_slope=LEAKY_SLOPE,
             conv_w=params.conv_w, conv_b=params.conv_b,
             fc1_w=params.fc1_w, fc1_b=params.fc1_b,
             fc2_w=params.fc2_w, fc2_b=params.fc2_b,
             iteration=iteration,
             baseline_keys=v_keys,
             baseline_v=np.array([baseline_v[k] for k in v_keys]) if baseline_v else np.zeros(0),
             baseline_n=np.array([baseline_n[k] for k in v_keys]) if baseline_n else np.zeros(0, dtype=int))


def load_checkpoint(path):
    """Returns (params, iteration, baseline_v, baseline_n)."""
    with np.load(path) as z:
        version = int(z["format_version"])
        if version != CHECKPOINT_VERSION:
            raise PolicyError(f"unsupported checkpoint version {version}")
        n, width = int(z["n"]), int(z["width"])
        shapes = _param_shapes(n, width)
        tensors = [z[name] for name in shapes]
        for (name, shape), t in zip(shapes.items(), tensors):
            if t.shape != shape:
                raise PolicyError(f"checkpoint tensor {name} has shape {t.shape}, "
                                  f"expected {shape} for n={n}, width={width}")
        params = PolicyParams(n, width, *tensors)
        keys = z["baseline_keys"]
        v = {int(k): float(x) for k, x in zip(keys, z["baseline_v"])}
        n = {int(k): int(x) for k, x in zip(keys, z["baseline_n"])}
        return params, int(z["iteration"]), v, n
