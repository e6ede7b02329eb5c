"""Exception types shared across the package.

Simulation and solver failures derive from ModelRuntimeError so that
callers (and the CLI) can distinguish them from configuration mistakes,
which raise ConfigError.
"""
from __future__ import annotations


class ModelRuntimeError(RuntimeError):
    """Base class for runtime failures of the simulation or solver contracts."""


class SurvivorDepletion(ModelRuntimeError):
    """Too few alive paths remain to form a conditional estimate.

    where, when given, ends the message with the part of the run that
    fell short, such as one batch of a reward estimate.
    """

    def __init__(self, time: float, survivors: int, required: int, where: str = ""):
        super().__init__(
            f"survivor count at t={time:g} fell to {survivors}, "
            f"below the required minimum {required}{where}"
        )
        self.time = time
        self.survivors = survivors
        self.required = required


class TotalExtinction(ModelRuntimeError):
    """Every particle of an interacting ensemble left the domain in one step."""

    def __init__(self, time: float):
        super().__init__(f"all particles exited simultaneously at t={time:g}")
        self.time = time


class ReinsertionBlowup(ModelRuntimeError):
    """A single particle exceeded the per-particle reinsertion cap."""

    def __init__(self, time: float, particle: int, cap: int):
        super().__init__(
            f"particle {particle} exceeded {cap} reinsertions by t={time:g}"
        )
        self.time = time
        self.particle = particle
        self.cap = cap


class ContractionViolation(ModelRuntimeError):
    """The renewal kernel is too close to mass one for the solver to proceed."""


class NumericalError(ModelRuntimeError):
    """A state array became NaN or otherwise numerically invalid."""


class ConfigError(ValueError):
    """A configuration document is missing or misuses a field."""
