import numpy as np
import pytest
from hypothesis import settings

from condiff import cli, killed_sim
from condiff.killed_sim import SimConfig, conditional_flow, simulate_killed, uniform_grid
from condiff.model import ConstantPolicy
from condiff.scenarios import driftless_interval

# Property modules are deterministic: examples come from a fixed derivation,
# none are replayed from a database, and none is timed out.
settings.register_profile("condiff", derandomize=True, database=None, deadline=None)
settings.load_profile("condiff")


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """One `condiff verify` run: its output directory and exit code."""
    out = tmp_path_factory.mktemp("verify")
    return out, cli.main(["verify", "--out", str(out)])


@pytest.fixture(scope="session")
def driftless_run():
    """One moderately sized driftless ensemble shared across modules."""
    model = driftless_interval(horizon=1.0)
    config = SimConfig(20_000, 1e-3, 7, uniform_grid(1.0, 0.05))
    policy = ConstantPolicy((0.0,), model.control_set)
    ens = simulate_killed(model, policy, None, config)
    return model, policy, config, ens


@pytest.fixture(scope="session")
def driftless_flow(driftless_run):
    _, _, _, ens = driftless_run
    return conditional_flow(ens)


@pytest.fixture
def euler_steps(monkeypatch):
    """A list that grows by one entry with every killed_sim.euler_step call."""
    calls = []
    step = killed_sim.euler_step

    def counted(*args, **kwargs):
        calls.append(None)
        return step(*args, **kwargs)

    monkeypatch.setattr(killed_sim, "euler_step", counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)
