"""Deterministic, schedule-independent random streams.

Every draw is served by a counter-based Philox generator keyed by
(seed, purpose, step).  One logical step of a simulation consumes one
whole array per purpose, so the values a particle sees depend only on
its slot index, never on thread scheduling or worker count.  Nested
components (kernel columns, optimizer candidates, repetitions) run
under seeds derived with derive_seed, which keeps their streams
disjoint from the parent's.
"""
from __future__ import annotations

import numpy as np

# Draw purposes.  Values are part of the reproducibility contract: changing
# them changes every stream.
GAUSS_STEP = 1
BRIDGE_KILL = 2
REINSERT_SAMPLE = 3
PEER_CHOICE = 4
INITIAL_SAMPLE = 5
DIRECTIONS = 6
POLICY_DRAW = 7
OPTIMIZER = 8
KERNEL_COLUMN = 9
MIMIC_CLOSED = 10
REPETITION = 11
SCENARIO = 12

_MASK64 = (1 << 64) - 1


def _generator(seed: int, purpose: int, step: int) -> np.random.Generator:
    ss = np.random.SeedSequence(int(seed) & _MASK64, spawn_key=(int(purpose), int(step)))
    return np.random.Generator(np.random.Philox(ss))


def generator(seed: int, purpose: int, step: int) -> np.random.Generator:
    """A dedicated generator for stateful draws (optimizer proposals)."""
    return _generator(seed, purpose, step)


def normals(seed: int, purpose: int, step: int, shape, *, out=None) -> np.ndarray:
    """Standard normal draws for one (purpose, step) slot, written into out
    (an array of that shape) when it is given; the bits are the same."""
    return _generator(seed, purpose, step).standard_normal(shape, out=out)


def uniforms(seed: int, purpose: int, step: int, shape, *, out=None) -> np.ndarray:
    """Uniform [0, 1) draws for one (purpose, step) slot, written into out
    (an array of that shape) when it is given; the bits are the same."""
    return _generator(seed, purpose, step).random(shape, out=out)


def derive_seed(seed: int, purpose: int, index: int) -> int:
    """A child seed statistically independent of the parent stream."""
    ss = np.random.SeedSequence(int(seed) & _MASK64, spawn_key=(int(purpose), int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
