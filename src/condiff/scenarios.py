"""Benchmark model builders shared by the verification suite and tests.

These scenarios pin down concrete models whose behavior is known well
enough to check against: a driftless interval (survival and the
surviving law have closed forms), an interacting model with attraction
to the conditional mean, a short-horizon model for control
reconstruction, and degenerate starts for exit-detection diagnostics.
"""
from __future__ import annotations

import numpy as np

from .geometry import Interval
from .model import (ControlBox, DriftSpec, ModelSpec, PointMass, RewardSpec,
                    UniformBox)

ZERO_REWARD = RewardSpec()


def driftless_interval(halfwidth: float = 1.0, sigma: float = 1.0,
                       horizon: float = 3.0, x0: float = 0.0) -> ModelSpec:
    """Pure diffusion on (-L, L): survival and the surviving law are analytic."""
    return ModelSpec(
        domain=Interval(-halfwidth, halfwidth),
        sigma=((sigma,),),
        drift=DriftSpec(base_kind="zero", control_matrix=((0.0,),)),
        control_set=ControlBox((0.0,), (0.0,)),
        horizon=horizon,
        reward=ZERO_REWARD,
        initial=PointMass((x0,)),
    )


def rich_reward(reinsertion_cost: float = 1.0) -> RewardSpec:
    """Running reward with spatial, mean, and control terms plus a
    linear terminal mean; exercises every reward coefficient at once."""
    return RewardSpec(r_x=1.0, phi_kind="linear", phi_weights=(1.0,),
                      r_m=0.5, mean_weights=(1.0,),
                      r_a=0.5,
                      g_w=1.0, terminal_weights=(1.0,),
                      reinsertion_cost=reinsertion_cost)


def attractive_interval(kappa: float = 0.5, clip_bound: float = 3.0,
                        horizon: float = 1.0,
                        reward: RewardSpec | None = None) -> ModelSpec:
    """Each particle drifts toward the conditional mean at rate kappa."""
    return ModelSpec(
        domain=Interval(-1.0, 1.0),
        sigma=((1.0,),),
        drift=DriftSpec(base_kind="zero", mf_gain=kappa,
                        control_matrix=((1.0,),), clip_bound=clip_bound),
        control_set=ControlBox((-1.0,), (1.0,)),
        horizon=horizon,
        reward=ZERO_REWARD if reward is None else reward,
        initial=UniformBox((-0.5,), (0.5,)),
    )


def mimic_interval(horizon: float = 0.5) -> ModelSpec:
    """Short-horizon model for feedback reconstruction runs.

    No interaction and a control-cost-only reward: the reward gap
    between an open-loop control and its conditional-mean feedback
    version is then a pure averaging effect, with a computable sign.
    """
    return ModelSpec(
        domain=Interval(-1.0, 1.0),
        sigma=((1.0,),),
        drift=DriftSpec(base_kind="zero", control_matrix=((1.0,),),
                        clip_bound=2.0),
        control_set=ControlBox((-1.0,), (1.0,)),
        horizon=horizon,
        reward=RewardSpec(r_a=1.0),
        initial=UniformBox((-0.3,), (0.3,)),
    )


def bounded_control_interval(clip_bound: float = 1.0,
                             horizon: float = 1.0) -> ModelSpec:
    """Driftless base with a controllable, clipped push; used to check
    survival against the change-of-measure floor over random policies."""
    return ModelSpec(
        domain=Interval(-1.0, 1.0),
        sigma=((1.0,),),
        drift=DriftSpec(base_kind="zero", control_matrix=((1.0,),),
                        clip_bound=clip_bound),
        control_set=ControlBox((-1.0,), (1.0,)),
        horizon=horizon,
        reward=ZERO_REWARD,
        initial=PointMass((0.0,)),
    )


def boundary_start(horizon: float = 0.01) -> ModelSpec:
    """Start on the boundary itself: every path should exit immediately
    when within-step crossings are accounted for."""
    return ModelSpec(
        domain=Interval(-1.0, 1.0),
        sigma=((1.0,),),
        drift=DriftSpec(base_kind="zero", control_matrix=((0.0,),)),
        control_set=ControlBox((0.0,), (0.0,)),
        horizon=horizon,
        reward=ZERO_REWARD,
        initial=PointMass((1.0,)),
    )


QSD_SECOND_MOMENT = 1.0 - 8.0 / np.pi ** 2
