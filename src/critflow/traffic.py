"""Traffic matrices: synthetic generation, dataset splits, and file I/O.

TM file format: one matrix per line, N*N whitespace-separated values in
row-major order (diagonal positions present and zero), optionally prefixed
by an `id:<string>` token. External datasets flatten into this by writing
each measured matrix as one row-major line.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .ecmp import compute_ecmp_fractions, ecmp_link_loads


class TrafficError(Exception):
    pass


@dataclass
class TrafficMatrix:
    n: int
    demand: np.ndarray  # (N, N), zero diagonal, nonnegative
    id: str = ""

    def __post_init__(self):
        self.demand = np.asarray(self.demand, dtype=float)
        if self.demand.shape != (self.n, self.n):
            raise TrafficError(
                f"demand shape {self.demand.shape} does not match n={self.n}")
        if not np.all(np.isfinite(self.demand)) or np.any(self.demand < 0):
            raise TrafficError(f"demands must be finite and nonnegative ({self.id})")
        if np.any(np.diag(self.demand) != 0):
            raise TrafficError(f"diagonal must be zero ({self.id})")

    def total_demand(self):
        return float(self.demand.sum())

    def scaled(self, factor):
        return TrafficMatrix(self.n, self.demand * factor, id=self.id)


@dataclass
class Dataset:
    matrices: list[TrafficMatrix]
    train_indices: list[int]
    test_indices: list[int]
    seed: int = 0

    def __post_init__(self):
        train, test = set(self.train_indices), set(self.test_indices)
        if train & test:
            raise TrafficError("train and test indices overlap")
        if train | test != set(range(len(self.matrices))):
            raise TrafficError("train/test indices do not cover the dataset")

    @property
    def train(self):
        return [self.matrices[i] for i in self.train_indices]

    @property
    def test(self):
        return [self.matrices[i] for i in self.test_indices]


def generate_tms(topo, model, count, target_ecmp_util=0.9, seed=0):
    """Generate `count` synthetic matrices for `topo`.

    model: 'exponential' (i.i.d. unit-mean) or 'uniform' (i.i.d. U[0,1]).
    Each matrix is rescaled by one scalar so its ECMP maximum link
    utilization equals `target_ecmp_util`. Deterministic given seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not (0 < target_ecmp_util <= 1):
        raise ValueError("target_ecmp_util must be in (0, 1]")
    n = topo.node_count
    rng = np.random.default_rng(seed)
    fractions = compute_ecmp_fractions(topo)
    out = []
    for i in range(count):
        if model == "exponential":
            demand = rng.exponential(scale=1.0, size=(n, n))
        elif model == "uniform":
            demand = rng.uniform(0.0, 1.0, size=(n, n))
        else:
            raise ValueError(f"unknown traffic model {model!r}")
        np.fill_diagonal(demand, 0.0)
        tm = TrafficMatrix(n, demand, id=f"{model}-{seed}-{i}")
        u = ecmp_link_loads(topo, tm, fractions).max_utilization
        if u <= 0:
            raise TrafficError("generated matrix produced zero ECMP load")
        out.append(tm.scaled(target_ecmp_util / u))
    return out


def split_dataset(matrices, train_fraction, seed):
    """Uniform random train/test split; |train| = round(fraction * total)."""
    if not (0 < train_fraction < 1):
        raise ValueError("train_fraction must be in (0, 1)")
    total = len(matrices)
    if total < 2:
        raise TrafficError("need at least 2 matrices to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(total)
    n_train = int(round(train_fraction * total))
    n_train = min(max(n_train, 1), total - 1)
    train = sorted(int(i) for i in order[:n_train])
    test = sorted(int(i) for i in order[n_train:])
    return Dataset(matrices=list(matrices), train_indices=train,
                   test_indices=test, seed=seed)


def load_tms(path, n):
    """Read the TM file format; one TrafficMatrix per line."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tm_id = f"{path}:{line_no}"
            if parts and parts[0].startswith("id:"):
                tm_id = parts[0][3:]
                parts = parts[1:]
            if len(parts) != n * n:
                raise TrafficError(
                    f"{path} line {line_no}: expected {n * n} values, got {len(parts)}")
            try:
                vals = np.array([float(p) for p in parts]).reshape(n, n)
            except ValueError:
                raise TrafficError(f"{path} line {line_no}: non-numeric demand") from None
            if np.any(vals < 0):
                raise TrafficError(f"{path} line {line_no}: negative demand")
            if np.any(np.diag(vals) != 0):
                warnings.warn(f"{path} line {line_no}: nonzero diagonal zeroed",
                              stacklevel=2)
                np.fill_diagonal(vals, 0.0)
            out.append(TrafficMatrix(n, vals, id=tm_id))
    return out


def save_tms(matrices, path):
    with open(path, "w", encoding="utf-8") as fh:
        for tm in matrices:
            flat = " ".join(repr(float(v)) for v in tm.demand.ravel())
            prefix = f"id:{tm.id} " if tm.id and " " not in tm.id else ""
            fh.write(prefix + flat + "\n")
