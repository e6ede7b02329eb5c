"""JSON configuration: loading, overrides, hashing, object construction.

Config errors always name the offending field by its dotted path, so a
failure in a nested section (say sim.grid.step) is directly actionable.
"""
from __future__ import annotations

import copy
import hashlib
import itertools
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .geometry import BOUNDARY_TOL, domain_from_dict
from .killed_sim import SimConfig, uniform_grid
from .measures import _TIME_TOL
from .model import (Cloud, ControlBox, DriftSpec, GridPolicy, LinearPolicy, ModelSpec,
                    ConstantPolicy, NoisePeekControl, PiecewiseControl, PointMass,
                    RandomizedSignControl, RewardSpec, initial_law_from_dict)

_MISSING = object()


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


def require(cfg: dict, dotted: str):
    node = cfg
    parts = dotted.split(".")
    for i, p in enumerate(parts):
        if not isinstance(node, dict) or p not in node:
            raise ConfigError(f"missing required field '{'.'.join(parts[: i + 1])}'")
        node = node[p]
    return node


def optional(cfg: dict, dotted: str, default=None):
    node = cfg
    for p in dotted.split("."):
        if not isinstance(node, dict) or p not in node:
            return default
        node = node[p]
    return default if node is None else node


def optional_as(cfg: dict, dotted: str, cast, default):
    """optional(cfg, dotted, default) cast by cast (int, float); a value
    the cast refuses is a ConfigError naming the field."""
    value = optional(cfg, dotted, default)
    if value is None:
        return None
    with _building(dotted):
        return cast(value)


def _json_bool(value) -> bool:
    """A cast for optional_as that takes only JSON booleans, not any truthy value."""
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


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
    with _building("model.domain"):
        domain = domain_from_dict(require(cfg, "model.domain"))
    with _building("model.drift"):
        dspec = require(cfg, "model.drift")
        clip = optional(cfg, "model.drift.clip_bound")
        drift = DriftSpec(
            base_kind=optional(cfg, "model.drift.base", "zero"),
            base_vector=dspec.get("base_vector"),
            base_matrix=dspec.get("base_matrix"),
            mf_gain=float(optional(cfg, "model.drift.mf_gain", 0.0)),
            control_matrix=tuple(map(tuple, require(cfg, "model.drift.control_matrix"))),
            clip_bound=np.inf if clip is None else float(clip),
        )
    with _building("model.control_box"):
        box = ControlBox(tuple(require(cfg, "model.control_box.lo")),
                         tuple(require(cfg, "model.control_box.hi")))
    with _building("model.reward"):
        r = optional(cfg, "model.reward", {})
        reward = RewardSpec(
            r_x=float(r.get("r_x", 0.0)),
            phi_kind=r.get("phi", "one"),
            phi_weights=r.get("phi_weights"),
            r_m=float(r.get("r_m", 0.0)),
            mean_weights=tuple(r.get("mean_weights", (0.0,) * domain.dim)),
            r_a=float(r.get("r_a", 0.0)),
            g_w=float(r.get("g_w", 0.0)),
            terminal_weights=tuple(r.get("terminal_weights", (0.0,) * domain.dim)),
            g_var=float(r.get("g_var", 0.0)),
            reinsertion_cost=float(r.get("reinsertion_cost", 0.0)),
        )
    with _building("model.initial"):
        initial = initial_law_from_dict(require(cfg, "model.initial"))
        # Every domain is convex: the law lies in its closure when these do.
        if np.any(domain.boundary_distance(_hull_points(initial)) < -BOUNDARY_TOL):
            raise ValueError("initial points must lie in the closed domain")
    with _building("model"):
        return ModelSpec(
            domain=domain,
            sigma=tuple(map(tuple, require(cfg, "model.sigma"))),
            drift=drift,
            control_set=box,
            horizon=float(require(cfg, "model.horizon")),
            reward=reward,
            initial=initial,
        )


def build_sim_config(cfg: dict, model: ModelSpec) -> SimConfig:
    """The sim section as a SimConfig."""
    grid_spec = require(cfg, "sim.grid")
    with _building("sim.grid"):
        if "times" in grid_spec:
            grid = np.asarray(grid_spec["times"], dtype=float)
        else:
            step = float(require(cfg, "sim.grid.step"))
            t_end = float(grid_spec.get("t_end", model.horizon))
            grid = uniform_grid(t_end, step)
        if grid[-1] > model.horizon + _TIME_TOL:
            raise ValueError(f"ends at {grid[-1]:g}, beyond the model horizon "
                             f"{model.horizon:g}")
    with _building("sim"):
        return SimConfig(
            n_particles=int(require(cfg, "sim.n_particles")),
            dt=float(require(cfg, "sim.dt")),
            seed=int(require(cfg, "sim.seed")),
            grid=grid,
            bridge_correction=optional_as(cfg, "sim.bridge_correction", _json_bool, True),
            min_survivors=int(optional(cfg, "sim.min_survivors", 1)),
        )


def build_policy(cfg: dict, model: ModelSpec, section: str = "policy"):
    kind = require(cfg, f"{section}.type")
    box = model.control_set
    with _building(section):
        if kind == "constant":
            return ConstantPolicy(tuple(require(cfg, f"{section}.value")), box)
        if kind == "linear":
            return LinearPolicy(tuple(require(cfg, f"{section}.theta0")),
                                tuple(map(tuple, require(cfg, f"{section}.theta1"))),
                                box)
        if kind == "grid":
            values = np.asarray(require(cfg, f"{section}.values"), dtype=float)
            return GridPolicy.build(model,
                                    int(require(cfg, f"{section}.time_bins")),
                                    int(require(cfg, f"{section}.space_bins")),
                                    values)
    raise ConfigError(f"invalid '{section}.type': unknown policy type {kind!r}")


def build_open_control(cfg: dict, model: ModelSpec, section: str = "open_control"):
    kind = require(cfg, f"{section}.type")
    box = model.control_set
    with _building(section):
        if kind == "randomized_sign":
            direction = tuple(require(cfg, f"{section}.direction"))
            if len(direction) != model.dim:
                raise ValueError(f"direction must have length {model.dim}, "
                                 f"got {len(direction)}")
            return RandomizedSignControl(tuple(require(cfg, f"{section}.base")),
                                         direction, box)
        if kind == "piecewise":
            return PiecewiseControl(float(require(cfg, f"{section}.t_switch")),
                                    tuple(require(cfg, f"{section}.before")),
                                    tuple(require(cfg, f"{section}.after")),
                                    box)
        if kind == "noise_peek":
            return NoisePeekControl(tuple(require(cfg, f"{section}.base")),
                                    float(require(cfg, f"{section}.peek_time")),
                                    box)
    raise ConfigError(f"invalid '{section}.type': unknown control type {kind!r}")
