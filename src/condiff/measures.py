"""Empirical measures, conditional flows, and Wasserstein-1 distances.

An EmpiricalMeasure is a uniform distribution on finitely many support
points.  A MeasureFlow couples a time grid with one measure per node
and the survival probability of the underlying killed process; queries
between nodes resolve to the nearest node at or after the query time.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# Tolerance for matching times against grid nodes and exit stamps.
_TIME_TOL = 1e-9


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("support must be a nonempty (n, d) array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("support points must be finite")
    return pts


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform distribution on n >= 1 support points of shape (n, d)."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _as_points(self.points))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def mean(self) -> np.ndarray:
        return self.points.mean(axis=0)

    def total_variance(self) -> float:
        """Mean squared distance to the mean (trace of the covariance)."""
        centered = self.points - self.mean()
        return float(np.mean(np.sum(centered * centered, axis=1)))


def sample_many(measure: EmpiricalMeasure, u: np.ndarray) -> np.ndarray:
    """Map uniform [0, 1) variates to support points, atoms in row order."""
    idx = np.minimum((np.asarray(u) * measure.n).astype(np.int64), measure.n - 1)
    return measure.points[idx]


def w1_distance_1d(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> float:
    """Exact W1 between two one-dimensional empirical measures.

    Equal sample counts reduce to the mean absolute difference of the
    order statistics; unequal counts integrate the gap between the two
    quantile functions over the merged jump grid.
    """
    if m1.dim != 1 or m2.dim != 1:
        raise ValueError("w1_distance_1d requires one-dimensional measures")
    a = np.sort(m1.points[:, 0])
    b = np.sort(m2.points[:, 0])
    if a.shape[0] == b.shape[0]:
        return float(np.mean(np.abs(a - b)))
    n1, n2 = a.shape[0], b.shape[0]
    levels = np.union1d(np.arange(1, n1) / n1, np.arange(1, n2) / n2)
    levels = np.concatenate([[0.0], levels, [1.0]])
    widths = np.diff(levels)
    mids = 0.5 * (levels[:-1] + levels[1:])
    qa = a[np.minimum((mids * n1).astype(np.int64), n1 - 1)]
    qb = b[np.minimum((mids * n2).astype(np.int64), n2 - 1)]
    return float(np.sum(widths * np.abs(qa - qb)))


def sliced_w1(m1: EmpiricalMeasure, m2: EmpiricalMeasure, n_directions: int = 32,
              seed: int = 0) -> float:
    """Average one-dimensional W1 over random unit directions.

    The direction set is a deterministic function of the seed, so the
    distance is symmetric in its arguments and reproducible.
    """
    if m1.dim != m2.dim:
        raise ValueError("measures must share a dimension")
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    dirs = gen.standard_normal((int(n_directions), m1.dim))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    dirs = dirs / norms
    total = 0.0
    for u in dirs:
        p1 = EmpiricalMeasure(m1.points @ u)
        p2 = EmpiricalMeasure(m2.points @ u)
        total += w1_distance_1d(p1, p2)
    return total / len(dirs)


_FLOW_DIRECTION_SEED = 0x51CED
_FLOW_DIRECTIONS = 16


@dataclass(frozen=True)
class MeasureFlow:
    """Time-indexed conditional marginals with their survival curve."""

    times: np.ndarray
    nodes: tuple
    survival: np.ndarray
    node_means: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        survival = np.asarray(self.survival, dtype=float)
        nodes = tuple(self.nodes)
        if times.ndim != 1 or times.shape[0] < 1:
            raise ValueError("times must be a nonempty vector")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if len(nodes) != times.shape[0] or survival.shape != times.shape:
            raise ValueError("times, nodes, and survival must have equal length")
        if abs(survival[0] - 1.0) > 1e-12:
            raise ValueError("survival must start at 1")
        if np.any(np.diff(survival) > 1e-12):
            raise ValueError("survival must be nonincreasing")
        if np.any(survival <= 0.0) or np.any(survival > 1.0):
            raise ValueError("survival values must lie in (0, 1]")
        dims = {node.dim for node in nodes}
        if len(dims) != 1:
            raise ValueError("all node measures must share a dimension")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "survival", survival)
        object.__setattr__(self, "node_means",
                           np.stack([node.mean() for node in nodes]))

    @property
    def dim(self) -> int:
        return self.nodes[0].dim

    def index_at(self, t):
        """Index of the nearest node at or after time t: an int for a scalar
        t, an index array for a vector of times."""
        idx = np.searchsorted(self.times, np.asarray(t) - _TIME_TOL, side="left")
        if np.any(idx >= self.times.shape[0]):
            raise ValueError(f"time {np.max(t):g} lies beyond the flow grid")
        return int(idx) if idx.ndim == 0 else idx

    def node_at(self, t: float) -> EmpiricalMeasure:
        return self.nodes[self.index_at(t)]

    def mean_at(self, t: float) -> np.ndarray:
        return self.node_means[self.index_at(t)]


def flow_distance(f1: MeasureFlow, f2: MeasureFlow) -> float:
    """Max over grid nodes of the W1 distance between node measures.

    Both flows must live on the same grid; d >= 2 flows are compared with
    sliced W1 under a fixed internal direction seed.
    """
    if f1.times.shape != f2.times.shape or np.any(np.abs(f1.times - f2.times) > _TIME_TOL):
        raise ValueError("flow_distance requires identical time grids")
    if f1.dim != f2.dim:
        raise ValueError("flows must share a dimension")
    worst = 0.0
    for a, b in zip(f1.nodes, f2.nodes):
        if f1.dim == 1:
            dist = w1_distance_1d(a, b)
        else:
            dist = sliced_w1(a, b, _FLOW_DIRECTIONS, _FLOW_DIRECTION_SEED)
        worst = max(worst, dist)
    return worst
