"""Model data: drift and reward structure, control laws, initial laws.

The drift is clip(base(x) + gain * (mean(m) - x) + B a, +-clip_bound)
componentwise, which makes it bounded and Lipschitz in the measure
argument with constant gain * diameter(closure of D) in total variation.
The measure enters only through its mean, so simulations can precompute
node means instead of dragging full measures through the hot loop.
Rewards are running f(t, x, m, a) = r_x phi(x) + r_m <mean(m), w> -
r_a |a|^2 (concave in a) plus terminal g(mu) = g_w <mean(mu), w_g> +
g_var var(mu) and a nonnegative reinsertion price.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .geometry import Domain, check_sigma
from .measures import EmpiricalMeasure, sample_many

_PHI_KINDS = ("one", "linear", "quadratic")
_BASE_KINDS = ("zero", "constant", "affine")


def _vec(v, length: int, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class ControlBox:
    """Compact box of admissible control values."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(-1)
        hi = np.asarray(self.hi, dtype=float).reshape(-1)
        if lo.shape != hi.shape or not np.all(lo <= hi):
            raise ValueError("control box requires lo <= hi componentwise")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("control box must be bounded")
        object.__setattr__(self, "lo", tuple(lo.tolist()))
        object.__setattr__(self, "hi", tuple(hi.tolist()))

    @property
    def dim(self) -> int:
        return len(self.lo)

    def clamp(self, a: np.ndarray) -> np.ndarray:
        return np.clip(a, np.asarray(self.lo), np.asarray(self.hi))


@dataclass(frozen=True)
class DriftSpec:
    """Parameters of the clipped interacting drift."""

    base_kind: str = "zero"
    base_vector: tuple | None = None
    base_matrix: tuple | None = None
    mf_gain: float = 0.0
    control_matrix: tuple = ((1.0,),)
    clip_bound: float = np.inf

    def __post_init__(self):
        if self.base_kind not in _BASE_KINDS:
            raise ValueError(f"base_kind must be one of {_BASE_KINDS}")
        B = np.asarray(self.control_matrix, dtype=float)
        if B.ndim != 2:
            raise ValueError("control_matrix must be a (d, d_A) matrix")
        object.__setattr__(self, "control_matrix", tuple(map(tuple, B.tolist())))
        if self.base_kind == "constant" and self.base_vector is None:
            raise ValueError("a constant base needs base_vector")
        if self.base_kind == "affine" and self.base_matrix is None:
            raise ValueError("an affine base needs base_matrix")
        if self.base_vector is not None:
            object.__setattr__(self, "base_vector",
                               tuple(_vec(self.base_vector, self.dim, "base_vector").tolist()))
        if self.base_matrix is not None:
            M = np.asarray(self.base_matrix, dtype=float)
            if M.shape != (self.dim, self.dim):
                raise ValueError(f"base_matrix must have shape ({self.dim}, {self.dim})")
            object.__setattr__(self, "base_matrix", tuple(map(tuple, M.tolist())))
        if not self.clip_bound > 0:
            raise ValueError("clip_bound must be positive")

    @property
    def dim(self) -> int:
        return len(self.control_matrix)

    @property
    def control_dim(self) -> int:
        return len(self.control_matrix[0])

    def base(self, x: np.ndarray, out: np.ndarray) -> np.ndarray | None:
        """Base drift term at positions x of shape (..., d), written into out
        (x's shape); None for the zero base, which writes nothing."""
        if self.base_kind == "zero":
            return None
        if self.base_kind == "constant":
            np.copyto(out, self.base_vector)
            return out
        np.matmul(x, np.asarray(self.base_matrix).T, out=out)
        if self.base_vector is not None:
            np.add(out, self.base_vector, out=out)
        return out


@dataclass(frozen=True)
class RewardSpec:
    """Coefficients of the running, terminal, and reinsertion rewards."""

    r_x: float = 0.0
    phi_kind: str = "one"
    phi_weights: tuple | None = None
    r_m: float = 0.0
    mean_weights: tuple = (0.0,)
    r_a: float = 0.0
    g_w: float = 0.0
    terminal_weights: tuple = (0.0,)
    g_var: float = 0.0
    reinsertion_cost: float = 0.0

    def __post_init__(self):
        if self.phi_kind not in _PHI_KINDS:
            raise ValueError(f"phi_kind must be one of {_PHI_KINDS}")
        if self.r_a < 0:
            raise ValueError("r_a must be nonnegative so f stays concave in a")
        if self.reinsertion_cost < 0:
            raise ValueError("reinsertion_cost must be nonnegative")
        for name in ("phi_weights", "mean_weights", "terminal_weights"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name,
                                   tuple(np.asarray(value, dtype=float).reshape(-1).tolist()))

    def phi(self, x: np.ndarray) -> np.ndarray:
        """Spatial profile of the running reward at positions (n, d)."""
        if self.phi_kind == "one":
            return np.ones(x.shape[0])
        if self.phi_kind == "linear":
            return x @ np.asarray(self.phi_weights)
        return np.sum(x * x, axis=1)

    def running(self, t: float, x: np.ndarray, mean_m: np.ndarray, a: np.ndarray) -> np.ndarray:
        """f(t, x, m, a) for batched positions and controls."""
        value = self.r_x * self.phi(x)
        if self.r_m != 0.0:
            value = value + self.r_m * float(np.dot(mean_m, np.asarray(self.mean_weights)))
        if self.r_a != 0.0:
            value = value - self.r_a * np.sum(a * a, axis=1)
        return value

    def terminal(self, measure: EmpiricalMeasure) -> float:
        """g(mu) for an empirical terminal measure."""
        value = 0.0
        if self.g_w != 0.0:
            value += self.g_w * float(np.dot(measure.mean(), np.asarray(self.terminal_weights)))
        if self.g_var != 0.0:
            value += self.g_var * measure.total_variance()
        return value


class InitialLaw:
    """Initial distribution of the particle cloud, supported in the closure of D."""

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n points drawn from the seed's initial-sample stream."""
        raise NotImplementedError


@dataclass(frozen=True)
class PointMass(InitialLaw):
    x: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(np.asarray(self.x, dtype=float).reshape(-1).tolist()))

    def sample(self, n, seed):
        return np.tile(np.asarray(self.x), (n, 1))


@dataclass(frozen=True)
class UniformBox(InitialLaw):
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(-1)
        hi = np.asarray(self.hi, dtype=float).reshape(-1)
        if lo.shape != hi.shape or not np.all(lo <= hi):
            raise ValueError("uniform initial law requires lo <= hi")
        object.__setattr__(self, "lo", tuple(lo.tolist()))
        object.__setattr__(self, "hi", tuple(hi.tolist()))

    def sample(self, n, seed):
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        u = rng.uniforms(seed, rng.INITIAL_SAMPLE, 0, (n, lo.shape[0]))
        return lo + u * (hi - lo)


@dataclass(frozen=True)
class Cloud(InitialLaw):
    """Resample uniformly from an explicit list of points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError(f"a cloud needs a nonempty (n, d) set of points, got shape "
                             f"{pts.shape}")
        object.__setattr__(self, "points", pts)

    def sample(self, n, seed):
        measure = EmpiricalMeasure(self.points)
        u = rng.uniforms(seed, rng.INITIAL_SAMPLE, 0, (n,))
        return sample_many(measure, u)


@dataclass(frozen=True)
class ModelSpec:
    """Domain, dynamics, admissible controls, horizon, reward, initial law."""

    domain: Domain
    sigma: tuple
    drift: DriftSpec
    control_set: ControlBox
    horizon: float
    reward: RewardSpec
    initial: InitialLaw

    def __post_init__(self):
        sigma = check_sigma(self.sigma, self.domain.dim)
        object.__setattr__(self, "sigma", tuple(map(tuple, sigma.tolist())))
        if self.drift.dim != self.domain.dim:
            raise ValueError("drift dimension does not match the domain")
        if self.drift.control_dim != self.control_set.dim:
            raise ValueError("control_matrix width does not match the control box")
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be positive and finite")
        r = self.reward  # every weight vector the reward reads is a vector in R^dim
        for name, used in (("phi_weights", r.phi_kind == "linear"), ("mean_weights", r.r_m != 0.0),
                           ("terminal_weights", r.g_w != 0.0)):
            weights = getattr(r, name)
            if used and (weights is None or len(weights) != self.dim):
                raise ValueError(f"model.reward.{name} must have length {self.dim}, got "
                                 f"{None if weights is None else list(weights)}")

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def control_dim(self) -> int:
        return self.control_set.dim

    def sigma_matrix(self) -> np.ndarray:
        return np.asarray(self.sigma, dtype=float)


def drift_given_mean(model: ModelSpec, x: np.ndarray, mean_m: np.ndarray | None,
                     a: np.ndarray, out: np.ndarray | None = None,
                     scratch: np.ndarray | None = None) -> np.ndarray:
    """Clipped drift at batched positions, with the measure reduced to its mean.

    out receives the drift and scratch each term added to it, both arrays
    of x's shape (new ones when None).  The terms are summed in the order
    base, mean field, control; a zero base adds as 0.0 + term, which turns
    a term of -0.0 into +0.0 without an array of zeros.
    """
    spec = model.drift
    out = np.empty(x.shape) if out is None else out
    scratch = np.empty(x.shape) if scratch is None else scratch
    # Until a term is summed, out itself takes the first one.
    started = spec.base(x, out) is not None
    if spec.mf_gain != 0.0:
        if mean_m is None:
            raise ValueError("drift has a mean-field term but no measure was supplied")
        t = np.subtract(mean_m, x, out=scratch if started else out)
        np.add(out if started else 0.0, np.multiply(spec.mf_gain, t, out=t), out=out)
        started = True
    t = np.matmul(a, np.asarray(spec.control_matrix).T, out=scratch if started else out)
    np.add(out if started else 0.0, t, out=out)
    bound = spec.clip_bound
    if np.isfinite(bound):
        np.clip(out, -bound, bound, out=out)
    return out


class FeedbackPolicy:
    """Markovian control a(t, x) with values clamped to the admissible box."""

    box: ControlBox

    def values_at(self, t: float, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantPolicy(FeedbackPolicy):
    value: tuple
    box: ControlBox

    def __post_init__(self):
        v = self.box.clamp(_vec(self.value, self.box.dim, "constant policy value"))
        object.__setattr__(self, "value", tuple(v.tolist()))

    def values_at(self, t, x):
        return np.broadcast_to(np.asarray(self.value), (x.shape[0], self.box.dim)).copy()


@dataclass(frozen=True)
class LinearPolicy(FeedbackPolicy):
    theta0: tuple
    theta1: tuple
    box: ControlBox

    def __post_init__(self):
        t0 = _vec(self.theta0, self.box.dim, "theta0")
        t1 = np.asarray(self.theta1, dtype=float)
        if t1.ndim != 2 or t1.shape[0] != self.box.dim:
            raise ValueError("theta1 must have shape (d_A, d)")
        object.__setattr__(self, "theta0", tuple(t0.tolist()))
        object.__setattr__(self, "theta1", tuple(map(tuple, t1.tolist())))

    def values_at(self, t, x):
        raw = np.asarray(self.theta0) + x @ np.asarray(self.theta1).T
        return self.box.clamp(raw)


@dataclass(frozen=True)
class GridPolicy(FeedbackPolicy):
    """Piecewise-constant policy on a time-by-space lattice.

    Queries outside the lattice snap to the nearest cell, so the policy
    is defined for every (t, x).
    """

    time_edges: np.ndarray
    space_edges: tuple
    values: np.ndarray
    box: ControlBox

    def __post_init__(self):
        te = np.asarray(self.time_edges, dtype=float)
        se = tuple(np.asarray(e, dtype=float) for e in self.space_edges)
        vals = np.asarray(self.values, dtype=float)
        n_t = te.shape[0] - 1
        ns = tuple(e.shape[0] - 1 for e in se)
        if vals.shape != (n_t, *ns, self.box.dim):
            raise ValueError(
                f"values must have shape {(n_t, *ns, self.box.dim)}, got {vals.shape}")
        vals = np.clip(vals, np.asarray(self.box.lo), np.asarray(self.box.hi))
        object.__setattr__(self, "time_edges", te)
        object.__setattr__(self, "space_edges", se)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def build(model: ModelSpec, time_bins: int, space_bins: int,
              values: np.ndarray) -> "GridPolicy":
        """Lattice over [0, horizon] x bounding box with equal-width bins."""
        lo, hi = model.domain.bounding_box()
        te = np.linspace(0.0, model.horizon, int(time_bins) + 1)
        se = tuple(np.linspace(lo[i], hi[i], int(space_bins) + 1) for i in range(model.dim))
        vals = np.asarray(values, dtype=float).reshape(
            (int(time_bins), *(int(space_bins),) * model.dim, model.control_dim))
        return GridPolicy(te, se, vals, model.control_set)

    def cell_index(self, t: float, x: np.ndarray) -> tuple:
        """(time bin, space bin per dimension) arrays for batched x."""
        n_t = self.time_edges.shape[0] - 1
        tb = int(np.clip(np.searchsorted(self.time_edges[1:-1], t, side="right"), 0, n_t - 1))
        spatial = []
        for i, edges in enumerate(self.space_edges):
            nb = edges.shape[0] - 1
            idx = np.clip(np.searchsorted(edges[1:-1], x[:, i], side="right"), 0, nb - 1)
            spatial.append(idx.astype(np.int64))
        return tb, spatial

    def values_at(self, t, x):
        tb, spatial = self.cell_index(t, x)
        return self.values[(tb, *spatial)]


class OpenLoopControl:
    """Control adapted to the initial condition and driving noise.

    Simulators call init_state once, then values_at before each step and
    advance after it, so the control at time t only sees noise up to t.
    The initial points and the normals z it is given are the simulator's
    buffers, which the next step overwrites: a control copies what it keeps.
    """

    box: ControlBox

    def init_state(self, initial_points: np.ndarray) -> dict:
        return {}

    def values_at(self, t: float, state: dict) -> np.ndarray:
        raise NotImplementedError

    def advance(self, state: dict, t: float, z: np.ndarray, dt: float) -> None:
        pass


@dataclass(frozen=True)
class RandomizedSignControl(OpenLoopControl):
    """Constant-in-time control a0 * sign(<direction, initial position>)."""

    base: tuple
    direction: tuple
    box: ControlBox

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(_vec(self.base, self.box.dim, "base").tolist()))
        object.__setattr__(self, "direction",
                           tuple(np.asarray(self.direction, dtype=float).tolist()))

    def init_state(self, initial_points):
        signs = np.sign(initial_points @ np.asarray(self.direction))
        values = self.box.clamp(signs[:, None] * np.asarray(self.base))
        return {"values": values}

    def values_at(self, t, state):
        return state["values"]


@dataclass(frozen=True)
class PiecewiseControl(OpenLoopControl):
    """Deterministic switch from one constant control to another."""

    t_switch: float
    before: tuple
    after: tuple
    box: ControlBox

    def __post_init__(self):
        object.__setattr__(self, "before",
                           tuple(_vec(self.before, self.box.dim, "before").tolist()))
        object.__setattr__(self, "after", tuple(_vec(self.after, self.box.dim, "after").tolist()))

    def init_state(self, initial_points):
        return {"n": initial_points.shape[0]}

    def values_at(self, t, state):
        value = np.asarray(self.before) if t < self.t_switch else np.asarray(self.after)
        value = self.box.clamp(value)
        return np.broadcast_to(value, (state["n"], self.box.dim)).copy()


@dataclass(frozen=True)
class NoisePeekControl(OpenLoopControl):
    """a0 * sign of the first driving Brownian coordinate frozen at peek_time."""

    base: tuple
    peek_time: float
    box: ControlBox

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(_vec(self.base, self.box.dim, "base").tolist()))

    def init_state(self, initial_points):
        return {"w1": np.zeros(initial_points.shape[0])}

    def values_at(self, t, state):
        return self.box.clamp(np.sign(state["w1"])[:, None] * np.asarray(self.base))

    def advance(self, state, t, z, dt):
        if t < self.peek_time - 1e-12:
            state["w1"] = state["w1"] + np.sqrt(dt) * z[:, 0]
