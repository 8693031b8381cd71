import numpy as np
import pytest

import critflow as cf


@pytest.fixture(scope="module")
def ebone_scale():
    """23 nodes / 74 directed links, capacities inferred from costs."""
    topo = cf.random_topology(23, 14, seed=3)
    return cf.infer_capacities_from_costs(topo, 1000.0)


def test_generated_tm_hits_target_util(ring5):
    tms = cf.generate_tms(ring5, "uniform", 1, target_ecmp_util=0.9, seed=4)
    assert len(tms) == 1
    u = cf.ecmp_max_utilization(ring5, tms[0])
    assert abs(u - 0.9) <= 1e-9


def test_generation_deterministic(ring5):
    a = cf.generate_tms(ring5, "exponential", 5, 0.8, seed=42)
    b = cf.generate_tms(ring5, "exponential", 5, 0.8, seed=42)
    for x, y in zip(a, b):
        assert np.array_equal(x.demand, y.demand)


def test_exponential_50_on_ebone_scale(ebone_scale):
    tms = cf.generate_tms(ebone_scale, "exponential", 50, 0.9, seed=7)
    assert len(tms) == 50
    for tm in tms:
        assert np.all(np.diag(tm.demand) == 0)
        assert np.all(tm.demand >= 0)


def test_generation_rejects_bad_args(ring5):
    with pytest.raises(ValueError):
        cf.generate_tms(ring5, "uniform", 0, 0.9, seed=1)
    with pytest.raises(ValueError):
        cf.generate_tms(ring5, "uniform", 1, 1.5, seed=1)
    with pytest.raises(ValueError):
        cf.generate_tms(ring5, "gravity", 1, 0.9, seed=1)


def test_split_sizes():
    mats = [cf.TrafficMatrix(2, np.zeros((2, 2)), id=str(i)) for i in range(10)]
    ds = cf.split_dataset(mats, 0.7, seed=0)
    assert len(ds.train_indices) == 7
    assert len(ds.test_indices) == 3


def test_split_abilene_week_counts():
    mats = [cf.TrafficMatrix(2, np.zeros((2, 2)), id=str(i)) for i in range(2016)]
    ds = cf.split_dataset(mats, 0.7, seed=1)
    assert len(ds.train_indices) == 1411
    assert len(ds.test_indices) == 605


def test_split_deterministic_and_partition():
    mats = [cf.TrafficMatrix(2, np.zeros((2, 2)), id=str(i)) for i in range(37)]
    a = cf.split_dataset(mats, 0.5, seed=9)
    b = cf.split_dataset(mats, 0.5, seed=9)
    assert a.train_indices == b.train_indices
    assert set(a.train_indices) | set(a.test_indices) == set(range(37))
    assert not set(a.train_indices) & set(a.test_indices)


def test_split_needs_two():
    with pytest.raises(cf.TrafficError):
        cf.split_dataset([cf.TrafficMatrix(2, np.zeros((2, 2)))], 0.7, seed=0)


def test_load_single_line(tmp_path):
    path = tmp_path / "tms.txt"
    vals = np.arange(16, dtype=float).reshape(4, 4)
    np.fill_diagonal(vals, 0)
    path.write_text(" ".join(str(v) for v in vals.ravel()) + "\n")
    tms = cf.load_tms(path, 4)
    assert len(tms) == 1
    assert np.array_equal(tms[0].demand, vals)


def test_load_full_day(tmp_path):
    path = tmp_path / "day.txt"
    rng = np.random.default_rng(0)
    with open(path, "w") as fh:
        for _ in range(288):
            m = rng.uniform(0, 5, (12, 12))
            np.fill_diagonal(m, 0)
            fh.write(" ".join(repr(float(v)) for v in m.ravel()) + "\n")
    tms = cf.load_tms(path, 12)
    assert len(tms) == 288


def test_load_length_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(" ".join(["1"] * 15) + "\n")
    with pytest.raises(cf.TrafficError, match="expected 16"):
        cf.load_tms(path, 4)


def test_load_negative_demand(tmp_path):
    path = tmp_path / "neg.txt"
    vals = ["0"] * 16
    vals[1] = "-3"
    path.write_text(" ".join(vals) + "\n")
    with pytest.raises(cf.TrafficError, match="negative"):
        cf.load_tms(path, 4)


def test_load_zeroes_diagonal_with_warning(tmp_path):
    path = tmp_path / "diag.txt"
    vals = np.ones((3, 3))
    path.write_text(" ".join(str(v) for v in vals.ravel()) + "\n")
    with pytest.warns(UserWarning, match="diagonal"):
        tms = cf.load_tms(path, 3)
    assert np.all(np.diag(tms[0].demand) == 0)


def test_save_load_round_trip(tmp_path, ring5):
    tms = cf.generate_tms(ring5, "uniform", 4, 0.9, seed=3)
    path = tmp_path / "rt.txt"
    cf.save_tms(tms, path)
    back = cf.load_tms(path, 5)
    assert len(back) == 4
    for a, b in zip(tms, back):
        assert np.array_equal(a.demand, b.demand)
        assert a.id == b.id


def test_load_linearity_against_ecmp(ring5):
    tm = cf.generate_tms(ring5, "uniform", 1, 0.5, seed=5)[0]
    fr = cf.compute_ecmp_fractions(ring5)
    base = cf.ecmp_link_loads(ring5, tm, fr)
    scaled = cf.ecmp_link_loads(ring5, tm.scaled(3.0), fr)
    assert np.allclose(scaled.load, 3.0 * base.load, rtol=0, atol=1e-12)
    assert np.isclose(scaled.max_utilization, 3.0 * base.max_utilization)
