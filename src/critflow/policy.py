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
and hands the same cache to `_step_in_place`, which adds the step into
the parameters' own arrays. fc1_w (N^2 * width x width) holds nearly all
the weights, and its gradient is the outer product flat.T @ dz2 of two
thin factors that the backward pass holds, so the step never stores it:
it makes it one block of FC1_BLOCK_ROWS rows at a time, once to check
that the stepped block is finite and once to add it, and writes nothing
unless every check passes. Training thus holds one copy of the policy.
`_backward_batch` builds the whole gradient from the same blocks, so a
step replayed from it has the same bits. `forward`, `gradients` and
`selection_objective` are batches of one. A forward pass whose logits
are not finite raises PolicyError instead of returning NaN probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KERNEL = 3
LEAKY_SLOPE = 0.01
CHECKPOINT_VERSION = 1
# Rows of fc1_w per block of its gradient when a step makes it a block at
# a time: 1 MB at width 128, so a block stays in L2 cache from its GEMM
# through its checks to its add.
FC1_BLOCK_ROWS = 1024


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


def _glorot(rng, shape, fan_in, fan_out):
    """Uniform on [-bound, bound) with bound = sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_params(n, width=128, seed=0):
    """Glorot-uniform weights, drawn from one generator in the order
    conv_w, fc1_w, fc2_w; biases zero."""
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
    a = z * LEAKY_SLOPE
    return np.maximum(z, a, out=a)  # as LEAKY_SLOPE < 1


def _leaky_backward(dz, z):
    """dz times the Leaky ReLU's slope at z, in dz's own array."""
    return np.multiply(dz, LEAKY_SLOPE, out=dz, where=z < 0)


def _log_probs(probs):
    """log p where p > 0, else 0; no warning for probabilities that
    underflowed to 0."""
    logp = np.zeros_like(probs)
    np.log(probs, out=logp, where=probs > 0)
    return logp


def _forward_batch(params, tms):
    """Forward pass over a stack of B matrices; every array has the batch
    (or batch x cell) as its leading axis. Raises PolicyError if a logit
    is not finite."""
    x = _stack_inputs(params, tms)
    b = x.shape[0]
    patches = _im2col(x)                                   # (B*N^2, 9)
    z1 = patches @ params.conv_w.reshape(KERNEL * KERNEL, params.width)
    z1 += params.conv_b
    a1 = _leaky(z1)                                        # (B*N^2, width)
    flat = a1.reshape(b, -1)                               # (B, N^2 * width)
    z2 = flat @ params.fc1_w                               # (B, width)
    z2 += params.fc1_b
    a2 = _leaky(z2)
    logits = a2 @ params.fc2_w                             # (B, N(N-1))
    logits += params.fc2_b
    if not np.isfinite(logits).all():
        # weights that grew too large overflow a layer: no distribution
        raise PolicyError("non-finite logits")
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


def _backward_pass(params, cache, solutions, advantages, beta, scale):
    """The backward pass for scale * sum over the batch of the ascent
    gradient of advantage * log pi(sol) + beta * H(pi), for the b-th
    matrix of the stack that `cache` holds and the b-th solution and
    advantage, up to fc1_w's gradient: returns dz2, from which
    _fc1_grad_block makes that one, and the gradients of the five other
    tensors. The dlogits rows carry each sample's advantage and `scale`,
    so each GEMM also sums over the batch. Raises on non-finite values,
    naming the layer."""
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
    dz2 = _leaky_backward(dlogits @ params.fc2_w.T, cache["z2"])
    grads["fc1_b"] = dz2.sum(axis=0)
    dz1 = _leaky_backward((dz2 @ params.fc1_w.T).reshape(cache["z1"].shape),
                          cache["z1"])
    grads["conv_w"] = (cache["patches"].T @ dz1).reshape(KERNEL, KERNEL, params.width)
    grads["conv_b"] = dz1.sum(axis=0)

    for name, g in grads.items():
        _check_gradient(name, g)
    return dz2, grads


def _check_gradient(name, g):
    if not np.all(np.isfinite(g)):
        raise PolicyError(f"non-finite gradient in layer {name}")


def _fc1_blocks(n_rows):
    """fc1_w's rows in blocks of FC1_BLOCK_ROWS, as slices."""
    return [slice(start, min(start + FC1_BLOCK_ROWS, n_rows))
            for start in range(0, n_rows, FC1_BLOCK_ROWS)]


def _fc1_grad_block(flat, dz2, rows, out):
    """The rows `rows` of fc1_w's gradient flat.T @ dz2, written into
    `out`. Training's step and _backward_batch both make the gradient by
    these blocks, so a step rebuilt from the latter has the same bits."""
    return np.matmul(flat[:, rows].T, dz2, out=out)


def _backward_batch(params, cache, solutions, advantages, beta, scale=1.0):
    """scale * sum over the batch of the ascent gradient of
    advantage * log pi(sol) + beta * H(pi), as a PolicyParams (see
    _backward_pass). Raises on non-finite values, naming the layer."""
    dz2, grads = _backward_pass(params, cache, solutions, advantages, beta, scale)
    grads["fc1_w"] = np.empty(params.fc1_w.shape)
    for rows in _fc1_blocks(len(params.fc1_w)):
        _fc1_grad_block(cache["flat"], dz2, rows, grads["fc1_w"][rows])
    _check_gradient("fc1_w", grads["fc1_w"])
    return PolicyParams(params.n, params.width, **grads)


def _step_in_place(params, cache, solutions, advantages, beta, scale):
    """params + _backward_batch(params, cache, ...), with the same bits,
    written into the parameters' own arrays, without ever holding fc1_w's
    gradient whole. Pass 1 makes each block of its rows and checks the
    stepped block in the block's buffer; pass 2 makes each block again and
    adds it, but for the last, which pass 1 left stepped in the buffer.
    Returns False, and writes nothing, if a stepped tensor would not be
    finite; raises PolicyError, naming the layer, on a non-finite
    gradient."""
    dz2, grads = _backward_pass(params, cache, solutions, advantages, beta, scale)
    tensors = params.tensors()
    # each small gradient's array becomes its stepped tensor
    finite = all(np.isfinite(np.add(tensors[name], g, out=g)).all()
                 for name, g in grads.items())
    flat, w = cache["flat"], params.fc1_w
    blocks = _fc1_blocks(len(w))
    block = np.empty((blocks[0].stop, params.width))
    for rows in blocks:
        g = _fc1_grad_block(flat, dz2, rows, block[:rows.stop - rows.start])
        if not np.isfinite(np.add(w[rows], g, out=g)).all():
            # a finite gradient whose step overflows, or a non-finite one
            _check_gradient("fc1_w", _fc1_grad_block(flat, dz2, rows, g))
            finite = False
    if not finite:
        return False
    w[rows] = g  # the last block, which pass 1 left stepped in its buffer
    for rows in blocks[:-1]:
        w[rows] += _fc1_grad_block(flat, dz2, rows, block[:rows.stop - rows.start])
    for name, stepped in grads.items():
        tensors[name][...] = stepped
    return True


def gradients(params, tm, sol, advantage, beta):
    """Exact ascent gradient of  advantage * log pi(sol) + beta * H(pi).

    Returns a PolicyParams-shaped structure. Raises on non-finite
    intermediates, naming the layer.
    """
    return _backward_batch(params, _forward_batch(params, [tm]), [sol],
                           [advantage], beta)


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
    """Returns (params, iteration, baseline_v, baseline_n). A checkpoint
    of another version or another leaky slope than LEAKY_SLOPE raises
    PolicyError."""
    with np.load(path) as z:
        version = int(z["format_version"])
        if version != CHECKPOINT_VERSION:
            raise PolicyError(f"unsupported checkpoint version {version}")
        slope = float(z["leaky_slope"])
        if slope != LEAKY_SLOPE:
            raise PolicyError(f"checkpoint leaky_slope {slope!r}, expected {LEAKY_SLOPE!r}")
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
