"""JSON configuration: loading, overrides, hashing, object construction.

This is the one module that turns JSON into objects: FIELDS declares every
field, and read is the only way to read one.  Config errors always name
the offending field by its dotted path, so a failure in a nested section
(say sim.grid.step) is directly actionable.
"""
from __future__ import annotations

import copy
import hashlib
import itertools
import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .fleming_viot import DEFAULT_REINSERTION_CAP
from .geometry import BOUNDARY_TOL, Ball, Box, Interval
from .killed_sim import SimConfig, grid_steps, uniform_grid
from .measures import _TIME_TOL
from .model import (_BASE_KINDS, _PHI_KINDS, Cloud, ControlBox, DriftSpec, GridPolicy,
                    LinearPolicy, ModelSpec, ConstantPolicy, NoisePeekControl,
                    PiecewiseControl, PointMass, RandomizedSignControl, RewardSpec,
                    UniformBox)

_REQUIRED = object()


def load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    # A manifest from a previous run can be replayed directly.
    if "config" in raw and isinstance(raw["config"], dict) and "model" in raw["config"]:
        return raw["config"]
    return raw


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply key=value pairs with dotted paths; values parse as JSON
    literals and fall back to plain strings.  The result is refused if it
    holds a key that FIELDS does not declare."""
    cfg = copy.deepcopy(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like path=value, got {item!r}")
        dotted, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = cfg
        parts = dotted.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path '{dotted}' crosses a non-object")
        node[parts[-1]] = value
    _refuse_undeclared(cfg)
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# The kinds of a field of numbers in lists: a vector, a matrix, or, for the
# fields whose objects reshape them, numbers at any depth, a bare one included.
_VECTOR, _MATRIX, _NUMBERS = "vector", "matrix", "numbers"
_DEPTHS = {_VECTOR: 1, _MATRIX: 2, _NUMBERS: None}

# The leaves each type of a typed section reads; a section's .type field
# takes this table's keys as its choices, and a leaf its type does not
# read is refused.
_TYPE_LEAVES = {
    "model.domain": {"interval": ("lo", "hi"), "box": ("lo", "hi"), "ball": ("center", "radius")},
    "model.initial": {"point": ("x",), "uniform": ("lo", "hi"), "points": ("values",)},
    "policy": {"constant": ("value",), "linear": ("theta0", "theta1"),
               "grid": ("time_bins", "space_bins", "values")},
    "open_control": {"randomized_sign": ("base", "direction"),
                     "piecewise": ("t_switch", "before", "after"),
                     "noise_peek": ("base", "peek_time")},
}

# Every field the program reads: (kind, default, rule).  A kind is a
# Python type for a scalar or one of the list kinds above.  A str field's
# rule is its tuple of choices, a number's is (">", bound), (">=", bound)
# or None, and a list field has none.  A default of None is worked out by
# the caller: sim.grid.t_end is the model horizon, renewal.dt_r the
# output-grid step, and an unset reward weight vector is zeros.
FIELDS = {
    "model.domain.type": (str, _REQUIRED, tuple(_TYPE_LEAVES["model.domain"])),
    "model.domain.lo": (_NUMBERS, _REQUIRED, None),  # a number for an interval
    "model.domain.hi": (_NUMBERS, _REQUIRED, None),
    "model.domain.center": (_VECTOR, _REQUIRED, None),
    "model.domain.radius": (float, _REQUIRED, (">", 0.0)),
    "model.sigma": (_MATRIX, _REQUIRED, None),
    "model.drift.base": (str, "zero", _BASE_KINDS),
    "model.drift.base_vector": (_VECTOR, None, None),
    "model.drift.base_matrix": (_MATRIX, None, None),
    "model.drift.mf_gain": (float, 0.0, None),
    "model.drift.control_matrix": (_MATRIX, _REQUIRED, None),
    "model.drift.clip_bound": (float, np.inf, (">", 0.0)),
    "model.control_box.lo": (_VECTOR, _REQUIRED, None),
    "model.control_box.hi": (_VECTOR, _REQUIRED, None),
    "model.horizon": (float, _REQUIRED, (">", 0.0)),
    "model.reward.r_x": (float, 0.0, None),
    "model.reward.phi": (str, "one", _PHI_KINDS),
    "model.reward.phi_weights": (_VECTOR, None, None),
    "model.reward.r_m": (float, 0.0, None),
    "model.reward.mean_weights": (_VECTOR, None, None),
    "model.reward.r_a": (float, 0.0, (">=", 0.0)),
    "model.reward.g_w": (float, 0.0, None),
    "model.reward.terminal_weights": (_VECTOR, None, None),
    "model.reward.g_var": (float, 0.0, None),
    "model.reward.reinsertion_cost": (float, 0.0, (">=", 0.0)),
    "model.initial.type": (str, _REQUIRED, tuple(_TYPE_LEAVES["model.initial"])),
    "model.initial.x": (_NUMBERS, _REQUIRED, None),
    "model.initial.lo": (_NUMBERS, _REQUIRED, None),
    "model.initial.hi": (_NUMBERS, _REQUIRED, None),
    "model.initial.values": (_NUMBERS, _REQUIRED, None),
    "sim.n_particles": (int, _REQUIRED, (">=", 1)),
    "sim.dt": (float, _REQUIRED, (">", 0.0)),
    "sim.seed": (int, _REQUIRED, (">=", 0)),
    "sim.grid.step": (float, _REQUIRED, (">", 0.0)),
    "sim.grid.t_end": (float, None, (">", 0.0)),
    "sim.grid.times": (_VECTOR, None, None),
    "sim.bridge_correction": (bool, True, None),
    "sim.min_survivors": (int, 1, (">=", 0)),
    "sim.store_paths": (bool, False, None),
    "policy.type": (str, _REQUIRED, tuple(_TYPE_LEAVES["policy"])),
    "policy.value": (_VECTOR, _REQUIRED, None),
    "policy.theta0": (_VECTOR, _REQUIRED, None),
    "policy.theta1": (_MATRIX, _REQUIRED, None),
    "policy.time_bins": (int, _REQUIRED, (">=", 1)),
    "policy.space_bins": (int, _REQUIRED, (">=", 1)),
    "policy.values": (_NUMBERS, _REQUIRED, None),
    "open_control.type": (str, _REQUIRED, tuple(_TYPE_LEAVES["open_control"])),
    "open_control.base": (_VECTOR, _REQUIRED, None),
    "open_control.direction": (_VECTOR, _REQUIRED, None),
    "open_control.t_switch": (float, _REQUIRED, None),
    "open_control.before": (_VECTOR, _REQUIRED, None),
    "open_control.after": (_VECTOR, _REQUIRED, None),
    "open_control.peek_time": (float, _REQUIRED, None),
    "picard.tol": (float, 1e-2, (">=", 0.0)),
    "picard.max_iter": (int, 10, (">=", 1)),
    "fv.variant": (str, "meanfield", ("meanfield", "finite")),
    "fv.reinsertion_cap": (int, DEFAULT_REINSERTION_CAP, (">=", 0)),
    "renewal.dt_r": (float, None, (">", 0.0)),
    "renewal.n_paths": (int, 2000, (">=", 1)),
    "mimic.time_bins": (int, 8, (">=", 1)),
    "mimic.space_bins": (int, 16, (">=", 1)),
    "optimize.family": (str, _REQUIRED, ("constant", "linear", "grid")),
    "optimize.method": (str, "cross-entropy", ("cross-entropy",)),
    "optimize.objective": (str, "conditional", ("conditional", "fv")),
    "optimize.budget": (int, 100, (">=", 1)),
    "optimize.time_bins": (int, 2, (">=", 1)),
    "optimize.space_bins": (int, 2, (">=", 1)),
}
_KIND_NAMES = {str: "a string", bool: "true or false", int: "an integer", float: "a finite number",
               _VECTOR: "a list of numbers", _MATRIX: "a list of lists of numbers",
               _NUMBERS: "a number or lists of numbers"}
# Every section on the way to a declared field, e.g. "sim" and "sim.grid".
_SECTIONS = {dotted.rsplit(".", k)[0] for dotted in FIELDS for k in range(1, dotted.count(".") + 1)}


def _refuse_undeclared(node: dict, prefix: str = "") -> None:
    """Refuse each key below node that is neither a declared field nor a
    section on the way to one, and each leaf of a typed section that its
    type does not read; a section or field of the wrong shape, or a type
    that is missing or not one of its choices, is left for read to refuse."""
    section, kind = prefix[:-1], node.get("type")
    leaves = _TYPE_LEAVES.get(section, {}).get(kind) if isinstance(kind, str) else None
    for key, value in node.items():
        dotted = prefix + key
        if "." in key or (dotted not in FIELDS and dotted not in _SECTIONS):
            raise ConfigError(f"unknown field '{dotted}'")
        if leaves is not None and key != "type" and key not in leaves:
            raise ConfigError(f"invalid '{dotted}': a '{section}' of type {kind!r} "
                              f"does not read it")
        if dotted in _SECTIONS and isinstance(value, dict):
            _refuse_undeclared(value, dotted + ".")


def _lookup(cfg: dict, dotted: str):
    """The value at a dotted path, or None where it or a section on the way
    is missing or null; a section that is not an object is refused."""
    node, parts = cfg, dotted.split(".")
    for i, p in enumerate(parts):
        if node is None:
            return None
        if not isinstance(node, dict):
            raise ConfigError(f"invalid '{'.'.join(parts[:i])}': must be an object, "
                              f"got {node!r}")
        node = node.get(p)
    return node


def read(cfg: dict, dotted: str):
    """The field at dotted, checked against its FIELDS entry.  A list kind
    comes back as floats in tuples, as deep as the value's lists; their
    lengths and shapes are left to the object that takes the value."""
    kind, default, rule = FIELDS[dotted]
    value = _lookup(cfg, dotted)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing required field '{dotted}'")
        return default
    if kind in _DEPTHS:
        def nested(v, depth):  # depth None takes any depth
            if depth != 0 and isinstance(v, list):
                return tuple(nested(item, None if depth is None else depth - 1) for item in v)
            if not depth and isinstance(v, (int, float)) and not isinstance(v, bool):
                return float(v)
            raise ConfigError(f"invalid '{dotted}': must be {_KIND_NAMES[kind]}, got {value!r}")
        return nested(value, _DEPTHS[kind])
    if kind in (str, bool):
        ok = isinstance(value, kind)
    else:  # JSON booleans are not numbers, and an int field takes no fraction
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value) and (kind is float or float(value).is_integer()))
    if not ok:
        raise ConfigError(f"invalid '{dotted}': must be {_KIND_NAMES[kind]}, got {value!r}")
    value = kind(value)
    if kind is str and value not in rule:
        raise ConfigError(f"invalid '{dotted}': must be one of "
                          f"{', '.join(map(repr, rule))}, got {value!r}")
    if kind in (int, float) and rule is not None:
        op, bound = rule
        if not (value > bound if op == ">" else value >= bound):
            raise ConfigError(f"invalid '{dotted}': must be {op} {bound:g}, got {value!r}")
    return value


@contextmanager
def _building(dotted: str):
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError) as e:
        raise ConfigError(f"invalid '{dotted}': {e}")


def _hull_points(law) -> np.ndarray:
    """(k, d) points whose convex hull holds the support of an initial law."""
    if isinstance(law, PointMass):
        return np.array([law.x])
    if isinstance(law, Cloud):
        return law.points
    return np.array(list(itertools.product(*zip(law.lo, law.hi))))  # a box's corners


def build_model(cfg: dict) -> ModelSpec:
    kind = read(cfg, "model.domain.type")
    with _building("model.domain"):
        if kind == "interval":
            ends = []
            for dotted in ("model.domain.lo", "model.domain.hi"):
                ends.append(read(cfg, dotted))
                if isinstance(ends[-1], tuple):
                    raise ConfigError(f"invalid '{dotted}': an interval wants a number, "
                                      f"got {_lookup(cfg, dotted)!r}")
            domain = Interval(*ends)
        elif kind == "box":
            domain = Box(read(cfg, "model.domain.lo"), read(cfg, "model.domain.hi"))
        else:
            domain = Ball(read(cfg, "model.domain.center"), read(cfg, "model.domain.radius"))
    with _building("model.drift"):
        drift = DriftSpec(
            base_kind=read(cfg, "model.drift.base"),
            base_vector=read(cfg, "model.drift.base_vector"),
            base_matrix=read(cfg, "model.drift.base_matrix"),
            mf_gain=read(cfg, "model.drift.mf_gain"),
            control_matrix=read(cfg, "model.drift.control_matrix"),
            clip_bound=read(cfg, "model.drift.clip_bound"),
        )
    with _building("model.control_box"):
        box = ControlBox(read(cfg, "model.control_box.lo"), read(cfg, "model.control_box.hi"))

    def weights(name: str) -> tuple:
        value = read(cfg, f"model.reward.{name}")
        return (0.0,) * domain.dim if value is None else value

    with _building("model.reward"):
        reward = RewardSpec(
            r_x=read(cfg, "model.reward.r_x"),
            phi_kind=read(cfg, "model.reward.phi"),
            phi_weights=read(cfg, "model.reward.phi_weights"),
            r_m=read(cfg, "model.reward.r_m"),
            mean_weights=weights("mean_weights"),
            r_a=read(cfg, "model.reward.r_a"),
            g_w=read(cfg, "model.reward.g_w"),
            terminal_weights=weights("terminal_weights"),
            g_var=read(cfg, "model.reward.g_var"),
            reinsertion_cost=read(cfg, "model.reward.reinsertion_cost"),
        )
    kind = read(cfg, "model.initial.type")
    with _building("model.initial"):
        if kind == "point":
            initial = PointMass(read(cfg, "model.initial.x"))
        elif kind == "uniform":
            initial = UniformBox(read(cfg, "model.initial.lo"), read(cfg, "model.initial.hi"))
        else:
            with _building("model.initial.values"):
                initial = Cloud(read(cfg, "model.initial.values"))
        # Every domain is convex: the law lies in its closure when these do.
        if np.any(domain.boundary_distance(_hull_points(initial)) < -BOUNDARY_TOL):
            raise ValueError("initial points must lie in the closed 'model.domain'")
    with _building("model"):
        return ModelSpec(
            domain=domain,
            sigma=read(cfg, "model.sigma"),
            drift=drift,
            control_set=box,
            horizon=read(cfg, "model.horizon"),
            reward=reward,
            initial=initial,
        )


def build_sim_config(cfg: dict, model: ModelSpec) -> SimConfig:
    """The sim section as a SimConfig."""
    times = read(cfg, "sim.grid.times")
    with _building("sim.grid"):
        if times is not None:
            grid = np.asarray(times, dtype=float)
        else:
            t_end = read(cfg, "sim.grid.t_end")
            grid = uniform_grid(model.horizon if t_end is None else t_end,
                                read(cfg, "sim.grid.step"))
        if np.any(grid > model.horizon + _TIME_TOL):
            raise ValueError(f"ends at {grid.max():g}, beyond 'model.horizon' "
                             f"{model.horizon:g}")
    dt = read(cfg, "sim.dt")
    with _building("sim.dt"):
        grid_steps(grid, dt)
    n_particles, min_survivors = read(cfg, "sim.n_particles"), read(cfg, "sim.min_survivors")
    if min_survivors > n_particles:
        raise ConfigError(f"invalid 'sim.min_survivors': must be <= 'sim.n_particles' "
                          f"{n_particles}, got {min_survivors}")
    with _building("sim"):
        return SimConfig(
            n_particles=n_particles,
            dt=dt,
            seed=read(cfg, "sim.seed"),
            grid=grid,
            bridge_correction=read(cfg, "sim.bridge_correction"),
            min_survivors=min_survivors,
        )


def build_policy(cfg: dict, model: ModelSpec):
    kind = read(cfg, "policy.type")
    box = model.control_set
    with _building("policy"):
        if kind == "constant":
            return ConstantPolicy(read(cfg, "policy.value"), box)
        if kind == "linear":
            theta1 = read(cfg, "policy.theta1")
            if any(len(row) != model.dim for row in theta1):
                raise ConfigError(f"invalid 'policy.theta1': a linear policy on a "
                                  f"{model.dim}-d model needs rows of length {model.dim}")
            return LinearPolicy(read(cfg, "policy.theta0"), theta1, box)
        return GridPolicy.build(model, read(cfg, "policy.time_bins"),
                                read(cfg, "policy.space_bins"), read(cfg, "policy.values"))


def build_open_control(cfg: dict, model: ModelSpec):
    kind = read(cfg, "open_control.type")
    box = model.control_set
    with _building("open_control"):
        if kind == "randomized_sign":
            direction = read(cfg, "open_control.direction")
            if len(direction) != model.dim:
                raise ValueError(f"direction must have length {model.dim}, "
                                 f"got {len(direction)}")
            return RandomizedSignControl(read(cfg, "open_control.base"), direction, box)
        if kind == "piecewise":
            return PiecewiseControl(read(cfg, "open_control.t_switch"),
                                    read(cfg, "open_control.before"),
                                    read(cfg, "open_control.after"), box)
        return NoisePeekControl(read(cfg, "open_control.base"),
                                read(cfg, "open_control.peek_time"), box)
