import numpy as np
import pytest
from scipy.stats import wasserstein_distance

from condiff.killed_sim import conditional_flow, restrict_ensemble
from condiff.measures import (EmpiricalMeasure, MeasureFlow, flow_distance, sample_many,
                              sliced_w1, w1_distance_1d)


def test_w1_1d_examples():
    m1 = EmpiricalMeasure(np.array([0.0, 1.0]))
    m2 = EmpiricalMeasure(np.array([1.0, 2.0]))
    assert w1_distance_1d(m1, m2) == pytest.approx(1.0)
    m3 = EmpiricalMeasure(np.array([0.5]))
    assert w1_distance_1d(m1, m3) == pytest.approx(0.5)
    assert w1_distance_1d(m1, m1) == 0.0


def test_w1_1d_matches_scipy(rng):
    for _ in range(20):
        a = rng.normal(size=rng.integers(2, 40))
        b = rng.normal(size=rng.integers(2, 40)) + rng.normal()
        ours = w1_distance_1d(EmpiricalMeasure(a), EmpiricalMeasure(b))
        ref = wasserstein_distance(a, b)
        assert ours == pytest.approx(ref, abs=1e-12)


def test_w1_triangle_inequality(rng):
    for _ in range(10):
        ms = [EmpiricalMeasure(rng.normal(size=12)) for _ in range(3)]
        d01 = w1_distance_1d(ms[0], ms[1])
        d12 = w1_distance_1d(ms[1], ms[2])
        d02 = w1_distance_1d(ms[0], ms[2])
        assert d02 <= d01 + d12 + 1e-12


def test_sample_uniform_frequencies(rng):
    pts = np.array([[-1.0], [0.0], [2.0]])
    m = EmpiricalMeasure(pts)
    draws = sample_many(m, rng.random(60_000))
    for row in pts:
        freq = np.mean(draws[:, 0] == row[0])
        assert freq == pytest.approx(1.0 / 3.0, abs=0.01)
    picked = sample_many(m, np.array([0.0, 0.34, 0.999]))
    assert picked.shape == (3, 1)
    assert picked[:, 0].tolist() == [-1.0, 0.0, 2.0]  # atoms are taken in row order


def test_sliced_translation_oracle(rng):
    pts = rng.normal(size=(4000, 2))
    shift = np.array([0.8, 0.0])
    m1 = EmpiricalMeasure(pts)
    m2 = EmpiricalMeasure(pts + shift)
    got = sliced_w1(m1, m2, n_directions=2000)
    # each direction contributes |<shift, theta>|; the average over the
    # circle is 2|shift|/pi
    assert got == pytest.approx(2 * 0.8 / np.pi, abs=0.03)
    assert sliced_w1(m1, m1, n_directions=64) == 0.0


def test_sliced_triangle_inequality(rng):
    ms = [EmpiricalMeasure(rng.normal(size=(30, 3))) for _ in range(3)]
    d01 = sliced_w1(ms[0], ms[1])
    d12 = sliced_w1(ms[1], ms[2])
    d02 = sliced_w1(ms[0], ms[2])
    assert d02 <= d01 + d12 + 1e-12


def test_empirical_measure_shapes():
    m = EmpiricalMeasure(np.array([1.0, 2.0, 3.0]))
    assert m.points.shape == (3, 1)
    assert m.n == 3 and m.dim == 1
    assert m.mean()[0] == pytest.approx(2.0)
    assert m.total_variance() == pytest.approx(np.var([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.empty((0, 1)))


def _flow(times, clouds, survival):
    return MeasureFlow(np.asarray(times, dtype=float),
                       tuple(EmpiricalMeasure(np.asarray(c)) for c in clouds),
                       np.asarray(survival, dtype=float))


def test_flow_validation_and_lookup():
    flow = _flow([0.0, 0.5, 1.0], [[0.0], [0.1, 0.3], [0.2]], [1.0, 0.6, 0.3])
    assert flow.index_at(0.5) == 1
    assert flow.mean_at(0.5)[0] == pytest.approx(0.2)
    assert flow.index_at(0.25) == 1  # lookups resolve at-or-after
    assert type(flow.index_at(0.5)) is int
    assert flow.index_at(np.array([0.0, 0.25, 0.5, 0.75, 1.0])).tolist() == [0, 1, 1, 2, 2]
    with pytest.raises(ValueError):
        flow.index_at(1.5)
    with pytest.raises(ValueError):
        flow.index_at(np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        _flow([0.0, 1.0], [[0.0], [0.1]], [0.9, 0.5])  # must start at one
    with pytest.raises(ValueError):
        _flow([0.0, 1.0], [[0.0], [0.1]], [1.0, 1.1])  # nonincreasing


def test_flow_distance_requires_matching_grids():
    f1 = _flow([0.0, 1.0], [[0.0], [0.5]], [1.0, 0.5])
    f2 = _flow([0.0, 0.5], [[0.0], [0.5]], [1.0, 0.5])
    with pytest.raises(ValueError):
        flow_distance(f1, f2)


def test_flow_distance_is_max_over_nodes():
    f1 = _flow([0.0, 1.0], [[0.0], [0.0]], [1.0, 0.5])
    f2 = _flow([0.0, 1.0], [[0.2], [1.0]], [1.0, 0.5])
    assert flow_distance(f1, f2) == pytest.approx(1.0)


def test_restrict_flow(driftless_run, driftless_flow):
    # a flow cut at t_max is the conditional flow of the ensemble cut there
    _, _, _, ens = driftless_run
    full = driftless_flow
    short = conditional_flow(restrict_ensemble(ens, 0.5))
    k = short.times.shape[0]
    assert short.times[-1] == pytest.approx(0.5)
    assert short.times.tobytes() == full.times[:k].tobytes()
    assert short.survival.tobytes() == full.survival[:k].tobytes()
    for a, b in zip(short.nodes, full.nodes[:k], strict=True):
        assert a.points.tobytes() == b.points.tobytes()
    # a cut between nodes keeps the nodes before it
    between = conditional_flow(restrict_ensemble(ens, 0.52))
    assert between.times.tobytes() == short.times.tobytes()
    assert between.survival.tobytes() == short.survival.tobytes()
    # a cut before the first node is refused
    with pytest.raises(ValueError):
        restrict_ensemble(ens, -0.1)
