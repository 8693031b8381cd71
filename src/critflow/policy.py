"""Flow-selection policy network with exact analytic gradients.

Fixed architecture: the demand matrix (max-normalized, one channel) goes
through a 3x3 same-padded convolution (`width` filters, stride 1), Leaky
ReLU, a fully connected layer of `width` units, Leaky ReLU, and a linear
layer onto the N*(N-1) flow ids; softmax yields the selection
distribution. All math is float64 numpy, no autodiff: the backward pass
is written out so gradient checks can hold to finite-difference accuracy.

The math runs on a stack of B matrices at once (`_forward_batch`,
`_backward_batch`): im2col over the batch, so the convolution and each
dense layer are one matmul, and a backward pass whose dlogits rows carry
each sample's advantage and the step size, so that its matmuls also sum
the gradient over the batch. Training samples from one forward cache
and hands the same cache to the backward pass. `forward`, `gradients`
and `selection_objective` are batches of one.
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


def _stack_inputs(params, tms):
    """(B, N, N) stack of the matrices, each scaled to a peak of 1."""
    for tm in tms:
        if tm.n != params.n:
            raise PolicyError(f"traffic matrix n={tm.n} != policy n={params.n}")
    x = np.array([tm.demand for tm in tms], dtype=float)
    peak = x.max(axis=(1, 2), keepdims=True)
    return np.divide(x, peak, out=np.zeros_like(x), where=peak > 0)


def _im2col(x):
    """(B, N, N) -> (B*N*N, 9) patches with zero same-padding."""
    b, n = x.shape[0], x.shape[1]
    padded = np.zeros((b, n + 2, n + 2))
    padded[:, 1:-1, 1:-1] = x
    cols = np.empty((b, n, n, KERNEL * KERNEL))
    for idx in range(KERNEL * KERNEL):
        di, dj = divmod(idx, KERNEL)
        cols[..., idx] = padded[:, di:di + n, dj:dj + n]
    return cols.reshape(b * n * n, KERNEL * KERNEL)


def _leaky(z):
    return np.maximum(z, LEAKY_SLOPE * z)  # as LEAKY_SLOPE < 1


def _leaky_grad(z):
    return np.where(z >= 0, 1.0, LEAKY_SLOPE)


def _log_probs(probs):
    """log p where p > 0, else 0; no warning for probabilities that
    underflowed to 0."""
    logp = np.zeros_like(probs)
    np.log(probs, out=logp, where=probs > 0)
    return logp


def _forward_batch(params, tms):
    """Forward pass over a stack of B matrices; every array has the batch
    (or batch x cell) as its leading axis."""
    x = _stack_inputs(params, tms)
    b = x.shape[0]
    patches = _im2col(x)                                   # (B*N^2, 9)
    z1 = patches @ params.conv_w.reshape(KERNEL * KERNEL, params.width) + params.conv_b
    a1 = _leaky(z1)                                        # (B*N^2, width)
    flat = a1.reshape(b, -1)                               # (B, N^2 * width)
    z2 = flat @ params.fc1_w + params.fc1_b                # (B, width)
    a2 = _leaky(z2)
    logits = a2 @ params.fc2_w + params.fc2_b              # (B, n_actions)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    return {"patches": patches, "z1": z1, "flat": flat,
            "z2": z2, "a2": a2, "logits": logits, "probs": probs}


def _forward_cached(params, tm):
    """The forward cache of one matrix: a batch of one."""
    return _forward_batch(params, [tm])


def _distributions(cache):
    """The action distribution of each matrix of a forward cache."""
    return [ActionDistribution(probs=p, logits=l)
            for p, l in zip(cache["probs"], cache["logits"])]


def forward_batch(params, tms):
    """The action distribution of each matrix in `tms`, from one pass."""
    return _distributions(_forward_batch(params, tms))


def forward(params, tm):
    return forward_batch(params, [tm])[0]


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
            taken = set(chosen)
            remaining = [a for a in range(n_act) if a not in taken]
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
    return float(-np.sum(p * _log_probs(p)))


def _backward_batch(params, cache, solutions, advantages, beta, scale=1.0):
    """scale * sum over the batch of the ascent gradient of
    advantage * log pi(sol) + beta * H(pi), for the b-th matrix of the
    stack that `cache` holds and the b-th solution and advantage. The
    dlogits rows carry each sample's advantage and `scale`, so each GEMM
    also sums over the batch. Raises on non-finite values, naming the
    layer."""
    probs = cache["probs"]
    counts = np.zeros_like(probs)
    k = np.empty((len(solutions), 1))
    for row, sol in enumerate(solutions):
        counts[row, list(sol.actions)] = 1.0
        k[row] = len(sol.actions)
    adv = np.asarray(advantages, dtype=float).reshape(-1, 1)
    logp = _log_probs(probs)
    h = -np.sum(probs * logp, axis=1, keepdims=True)
    # d/dlogits of log pi(sol): counts - K * probs; of H: -probs*(logp + H)
    dlogits = scale * (adv * (counts - k * probs) + beta * (-probs * (logp + h)))

    grads = {"fc2_w": cache["a2"].T @ dlogits, "fc2_b": dlogits.sum(axis=0)}
    dz2 = (dlogits @ params.fc2_w.T) * _leaky_grad(cache["z2"])
    grads["fc1_w"] = cache["flat"].T @ dz2
    grads["fc1_b"] = dz2.sum(axis=0)
    dflat = dz2 @ params.fc1_w.T
    dz1 = dflat.reshape(cache["z1"].shape) * _leaky_grad(cache["z1"])
    grads["conv_w"] = (cache["patches"].T @ dz1).reshape(KERNEL, KERNEL, params.width)
    grads["conv_b"] = dz1.sum(axis=0)

    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise PolicyError(f"non-finite gradient in layer {name}")
    return PolicyParams(params.n, params.width, **grads)


def batch_gradients(params, tms, solutions, advantages, beta, scale=1.0):
    """scale * sum over the batch of the ascent gradient of
    advantage * log pi(sol) + beta * H(pi), for the b-th matrix, solution
    and advantage; one forward and one backward pass over the whole batch.
    """
    return _backward_batch(params, _forward_batch(params, tms), solutions,
                           advantages, beta, scale)


def gradients(params, tm, sol, advantage, beta):
    """Exact ascent gradient of  advantage * log pi(sol) + beta * H(pi).

    Returns a PolicyParams-shaped structure. Raises on non-finite
    intermediates, naming the layer.
    """
    return batch_gradients(params, [tm], [sol], [advantage], beta)


def selection_objective(params, tm, sol, advantage, beta):
    """The scalar the gradients climb; used by finite-difference checks."""
    dist = forward(params, tm)
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
