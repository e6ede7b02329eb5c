"""JSON configuration: loading, overrides, hashing, object construction.

Config errors always name the offending field by its dotted path, so a
failure in a nested section (say sim.grid.step) is directly actionable.
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
from .geometry import BOUNDARY_TOL, domain_from_dict
from .killed_sim import SimConfig, uniform_grid
from .measures import _TIME_TOL
from .model import (_BASE_KINDS, _PHI_KINDS, Cloud, ControlBox, DriftSpec, GridPolicy,
                    LinearPolicy, ModelSpec, ConstantPolicy, NoisePeekControl,
                    PiecewiseControl, PointMass, RandomizedSignControl, RewardSpec,
                    initial_law_from_dict)

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
    literals and fall back to plain strings."""
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
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# Every scalar field the program reads: (type, default, rule).  A str
# field's rule is its tuple of choices, a number's is (">", bound),
# (">=", bound) or None.  A default of None is worked out by the caller:
# sim.grid.t_end is the model horizon, renewal.dt_r the output-grid step
# and optimize.reinsertion_cost the model's.
FIELDS = {
    "model.domain.type": (str, _REQUIRED, ("interval", "box", "ball")),
    "model.drift.base": (str, "zero", _BASE_KINDS),
    "model.drift.mf_gain": (float, 0.0, None),
    "model.drift.clip_bound": (float, np.inf, (">", 0.0)),
    "model.horizon": (float, _REQUIRED, (">", 0.0)),
    "model.reward.r_x": (float, 0.0, None),
    "model.reward.phi": (str, "one", _PHI_KINDS),
    "model.reward.r_m": (float, 0.0, None),
    "model.reward.r_a": (float, 0.0, (">=", 0.0)),
    "model.reward.g_w": (float, 0.0, None),
    "model.reward.g_var": (float, 0.0, None),
    "model.reward.reinsertion_cost": (float, 0.0, (">=", 0.0)),
    "model.initial.type": (str, _REQUIRED, ("point", "uniform", "points")),
    "sim.n_particles": (int, _REQUIRED, (">=", 1)),
    "sim.dt": (float, _REQUIRED, (">", 0.0)),
    "sim.seed": (int, _REQUIRED, (">=", 0)),
    "sim.grid.step": (float, _REQUIRED, (">", 0.0)),
    "sim.grid.t_end": (float, None, (">", 0.0)),
    "sim.bridge_correction": (bool, True, None),
    "sim.min_survivors": (int, 1, (">=", 0)),
    "sim.store_paths": (bool, False, None),
    "policy.type": (str, _REQUIRED, ("constant", "linear", "grid")),
    "policy.time_bins": (int, _REQUIRED, (">=", 1)),
    "policy.space_bins": (int, _REQUIRED, (">=", 1)),
    "open_control.type": (str, _REQUIRED, ("randomized_sign", "piecewise", "noise_peek")),
    "open_control.t_switch": (float, _REQUIRED, None),
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
    "optimize.method": (str, "nelder-mead", ("nelder-mead", "cross-entropy")),
    "optimize.objective": (str, "conditional", ("conditional", "fv")),
    "optimize.budget": (int, 100, (">=", 1)),
    "optimize.time_bins": (int, 2, (">=", 1)),
    "optimize.space_bins": (int, 2, (">=", 1)),
    "optimize.reinsertion_cost": (float, None, (">=", 0.0)),
    "optimize.reinsertion_cap": (int, DEFAULT_REINSERTION_CAP, (">=", 0)),
}
_KIND_NAMES = {str: "a string", bool: "true or false", int: "an integer", float: "a finite number"}
_ARRAY_NAMES = {1: "a list of numbers", 2: "a list of lists of numbers"}


def _lookup(cfg: dict, dotted: str, default=None):
    """The value at a dotted path, or default where it or a section on the
    way is missing or null; a section that is not an object is refused."""
    node, parts = cfg, dotted.split(".")
    for i, p in enumerate(parts):
        if node is None:
            return default
        if not isinstance(node, dict):
            raise ConfigError(f"invalid '{'.'.join(parts[:i])}': must be an object, "
                              f"got {node!r}")
        node = node.get(p)
    return default if node is None else node


def require(cfg: dict, dotted: str):
    value = _lookup(cfg, dotted)
    if value is None:
        raise ConfigError(f"missing required field '{dotted}'")
    return value


def read(cfg: dict, dotted: str):
    """The scalar field at dotted, checked against its FIELDS entry."""
    kind, default, rule = FIELDS[dotted]
    value = require(cfg, dotted) if default is _REQUIRED else _lookup(cfg, dotted)
    if value is None:
        return default
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


def read_array(cfg: dict, dotted: str, depth: int, default=_REQUIRED):
    """The field at dotted as tuples of floats, depth lists deep: 1 for a
    vector, 2 for a matrix.  JSON booleans, and scalars where a list
    belongs, are refused by the field's name; lengths and shapes are left
    to the object that takes the value."""
    value = require(cfg, dotted) if default is _REQUIRED else _lookup(cfg, dotted)
    if value is None:
        return default

    def nested(v, level: int):
        if level == 0 and isinstance(v, (int, float)) and not isinstance(v, bool):
            return float(v)
        if level > 0 and isinstance(v, list):
            return tuple(nested(item, level - 1) for item in v)
        raise ConfigError(f"invalid '{dotted}': must be {_ARRAY_NAMES[depth]}, got {value!r}")
    return nested(value, depth)


@contextmanager
def _building(dotted: str):
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as e:
        raise ConfigError(f"invalid '{dotted}': {e}")


def _hull_points(law) -> np.ndarray:
    """(k, d) points whose convex hull holds the support of an initial law."""
    if isinstance(law, PointMass):
        return np.array([law.x])
    if isinstance(law, Cloud):
        return law.points
    return np.array(list(itertools.product(*zip(law.lo, law.hi))))  # a box's corners


def build_model(cfg: dict) -> ModelSpec:
    read(cfg, "model.domain.type")  # an object of a known type
    with _building("model.domain"):
        domain = domain_from_dict(require(cfg, "model.domain"))
    with _building("model.drift"):
        drift = DriftSpec(
            base_kind=read(cfg, "model.drift.base"),
            base_vector=read_array(cfg, "model.drift.base_vector", 1, None),
            base_matrix=read_array(cfg, "model.drift.base_matrix", 2, None),
            mf_gain=read(cfg, "model.drift.mf_gain"),
            control_matrix=read_array(cfg, "model.drift.control_matrix", 2),
            clip_bound=read(cfg, "model.drift.clip_bound"),
        )
    with _building("model.control_box"):
        box = ControlBox(read_array(cfg, "model.control_box.lo", 1),
                         read_array(cfg, "model.control_box.hi", 1))
    with _building("model.reward"):
        zeros = (0.0,) * domain.dim
        reward = RewardSpec(
            r_x=read(cfg, "model.reward.r_x"),
            phi_kind=read(cfg, "model.reward.phi"),
            phi_weights=read_array(cfg, "model.reward.phi_weights", 1, None),
            r_m=read(cfg, "model.reward.r_m"),
            mean_weights=read_array(cfg, "model.reward.mean_weights", 1, zeros),
            r_a=read(cfg, "model.reward.r_a"),
            g_w=read(cfg, "model.reward.g_w"),
            terminal_weights=read_array(cfg, "model.reward.terminal_weights", 1, zeros),
            g_var=read(cfg, "model.reward.g_var"),
            reinsertion_cost=read(cfg, "model.reward.reinsertion_cost"),
        )
    read(cfg, "model.initial.type")  # an object of a known type
    with _building("model.initial"):
        initial = initial_law_from_dict(require(cfg, "model.initial"))
        # Every domain is convex: the law lies in its closure when these do.
        if np.any(domain.boundary_distance(_hull_points(initial)) < -BOUNDARY_TOL):
            raise ValueError("initial points must lie in the closed 'model.domain'")
    with _building("model"):
        return ModelSpec(
            domain=domain,
            sigma=read_array(cfg, "model.sigma", 2),
            drift=drift,
            control_set=box,
            horizon=read(cfg, "model.horizon"),
            reward=reward,
            initial=initial,
        )


def build_sim_config(cfg: dict, model: ModelSpec) -> SimConfig:
    """The sim section as a SimConfig."""
    times = read_array(cfg, "sim.grid.times", 1, None)
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
    with _building("sim"):
        return SimConfig(
            n_particles=read(cfg, "sim.n_particles"),
            dt=read(cfg, "sim.dt"),
            seed=read(cfg, "sim.seed"),
            grid=grid,
            bridge_correction=read(cfg, "sim.bridge_correction"),
            min_survivors=read(cfg, "sim.min_survivors"),
        )


def build_policy(cfg: dict, model: ModelSpec):
    kind = read(cfg, "policy.type")
    box = model.control_set
    with _building("policy"):
        if kind == "constant":
            return ConstantPolicy(read_array(cfg, "policy.value", 1), box)
        if kind == "linear":
            return LinearPolicy(read_array(cfg, "policy.theta0", 1),
                                read_array(cfg, "policy.theta1", 2), box)
        values = np.asarray(require(cfg, "policy.values"), dtype=float)
        return GridPolicy.build(model, read(cfg, "policy.time_bins"),
                                read(cfg, "policy.space_bins"), values)


def build_open_control(cfg: dict, model: ModelSpec):
    kind = read(cfg, "open_control.type")
    box = model.control_set
    with _building("open_control"):
        if kind == "randomized_sign":
            direction = read_array(cfg, "open_control.direction", 1)
            if len(direction) != model.dim:
                raise ValueError(f"direction must have length {model.dim}, "
                                 f"got {len(direction)}")
            return RandomizedSignControl(read_array(cfg, "open_control.base", 1),
                                         direction, box)
        if kind == "piecewise":
            return PiecewiseControl(read(cfg, "open_control.t_switch"),
                                    read_array(cfg, "open_control.before", 1),
                                    read_array(cfg, "open_control.after", 1), box)
        return NoisePeekControl(read_array(cfg, "open_control.base", 1),
                                read(cfg, "open_control.peek_time"), box)
