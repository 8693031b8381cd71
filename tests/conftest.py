import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

import critflow as cf

ABILENE = Path(__file__).parent.parent / "src" / "critflow" / "data" / "abilene.topo"


@pytest.fixture(scope="session")
def triangle():
    return cf.triangle3()


@pytest.fixture(scope="session")
def diamond():
    return cf.diamond4()


@pytest.fixture(scope="session")
def ring5():
    return cf.ring_with_chords()


def tm_with(n, entries, id=""):
    d = np.zeros((n, n))
    for (s, dd), v in entries.items():
        d[s, dd] = v
    return cf.TrafficMatrix(n, d, id=id)


@pytest.fixture(scope="session")
def tiny_instance():
    """The fixed desk-scale training instance: 5 nodes, 20 flows, 3 TMs, K=2."""
    topo = cf.ring_with_chords()
    mats = cf.generate_tms(topo, "exponential", 3, target_ecmp_util=0.9, seed=11)
    dataset = cf.Dataset(matrices=mats, train_indices=[0, 1, 2],
                         test_indices=[], seed=0)
    return topo, dataset


def tiny_config(**overrides):
    """Trainer settings that converge on the tiny instance within 2000 its."""
    base = dict(batch_size=20, k=2, total_iterations=2000, width=16,
                alpha0=0.01, alpha_min=0.001, beta=0.1, seed=5)
    base.update(overrides)
    return cf.TrainerConfig(**base)
