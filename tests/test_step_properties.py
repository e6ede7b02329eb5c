"""Property checks of the buffered Euler step on drawn domains and ensembles.

killed_sim.euler_step writes into a Workspace made once per pass.  On
boxes and balls of one to three dimensions, with a diagonal or a full
sigma, drifts holding +0.0 and -0.0, a shared or a per-block noise and a
staggered prefix of started blocks, the step must give bit for bit what
the expression form x + b dt + (z sigma^T) sqrt(dt) gives, with the
boundary distances of the older forms and the kills of the test u < p run
on every alive pair still inside, for uniforms that hold exact zeros and
tiny multiples of 2^-53.  An exit rule that moves the new positions in
place must leave the previous ones untouched.  The drift written into a
buffer must equal the expression form, a zero base's 0.0 + term included,
and the draws written into a buffer the streams joined as before.  A
pass draws each stream's kill uniforms once in every step of its block.
"""
from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from condiff import geometry, rng
from condiff.fleming_viot import simulate_fv_finite
from condiff.geometry import BOUNDARY_TOL, Box, Interval
from condiff.killed_sim import (Blocks, Noise, SimConfig, Workspace, _first_alike, _step_draws,
                                _view, euler_step, simulate_killed)
from condiff.model import (ConstantPolicy, ControlBox, DriftSpec, ModelSpec, UniformBox,
                           drift_given_mean)
from condiff.scenarios import ZERO_REWARD, driftless_interval

from test_geometry import _kill_uniforms, _old_box_distance
from test_geometry_properties import _ball_points, _box_points, balls, boxes, sigmas

PROPERTY = settings(max_examples=150)


def _old_distance(dom, pts):
    if isinstance(dom, Box):
        return _old_box_distance(dom, pts)
    return dom.radius - np.linalg.norm(pts - np.asarray(dom.center), axis=1)


def _unbanded_step(dom, x, b, z, dt, noise, alive):
    """The step as an expression, with fresh arrays throughout: the new
    positions, their distances, the node exits, and the alive pairs still
    inside with their crossing probabilities, for a kill test on all."""
    d = x.shape[-1]
    x_new = x + b * dt + (z @ noise.sigma_t) * np.sqrt(dt)
    flat, flat_new = x.reshape(-1, d), x_new.reshape(-1, d)
    dist_new = _old_distance(dom, flat_new)
    inside = dist_new > BOUNDARY_TOL
    candidates = np.flatnonzero(alive & inside)
    p = dom._bridge(flat[candidates], flat_new[candidates], dt, noise.cov)
    return x_new, dist_new, alive & ~inside, candidates, p


@st.composite
def steps(draw):
    dom = draw(st.one_of(boxes(), balls()))
    d = dom.dim
    sigma = draw(sigmas(d))
    dt = draw(st.sampled_from([1e-5, 1e-3, 1e-1]))
    n_blocks = draw(st.integers(1, 3))
    active = draw(st.integers(1, n_blocks))  # the started prefix
    n_block = draw(st.integers(1, 64))
    shared = draw(st.booleans())  # one noise for every started block
    seed = draw(st.integers(0, 2 ** 16))
    return dom, sigma, dt, n_blocks, active, n_block, shared, seed


@PROPERTY
@given(steps())
def test_buffered_step_equals_the_expression_form(case):
    dom, sigma, dt, n_blocks, active, n_block, shared, seed = case
    gen = np.random.default_rng(seed)
    d = dom.dim
    noise = Noise.of(sigma)
    scale = np.sqrt(25.0 * noise.var_max * dt)  # positions on both sides of the band's edge
    points = (_box_points if isinstance(dom, Box) else _ball_points)(dom, gen, scale)
    x0 = points[gen.integers(0, points.shape[0], (n_blocks, n_block))]
    m = active * n_block
    b = gen.choice([0.0, -0.0, 1.5, -2.5], (active, n_block, d))
    z = gen.standard_normal((n_block, d) if shared else (active, n_block, d))
    alive = gen.random(m) < 0.8
    want_x, want_dist, want_exits, candidates, p = _unbanded_step(
        dom, x0[:active], b, z, dt, noise, alive)
    u = _kill_uniforms(gen, n_block if shared else m)
    # A quarter of the candidates read the largest multiple of 2^-53 below
    # their p (0.0 where p <= 2^-53), the uniform nearest to flipping u < p.
    edge = gen.random(candidates.size) < 0.25
    u[candidates[edge] % u.shape[0]] = np.maximum(np.ceil(p[edge] * 2.0 ** 53) - 1.0,
                                                  0.0) * 2.0 ** -53
    work = Workspace(x0.copy(), dom)
    x_new, node_exits, kills = euler_step(dom, work, b, z, dt, noise, alive, u)
    assert x_new.tobytes() == want_x.tobytes()
    assert work.dist[1][:m].tobytes() == want_dist.tobytes()
    assert np.array_equal(node_exits, want_exits)
    assert np.array_equal(kills, candidates[u[candidates % u.shape[0]] < p])
    # the blocks not started keep their sample in both position sets
    assert np.array_equal(work.x[1][active:], x0[active:])

    # An exit rule moves new positions in place; the previous ones stay.
    x_new[...] = 7.0
    assert work.x[0].tobytes() == x0.tobytes()
    assert work.dist[0].tobytes() == _old_distance(dom, x0.reshape(-1, d)).tobytes()


def test_step_kills_at_a_zero_uniform_outside_the_band():
    """On (-1, 1) with sigma = 1 and dt = 1e-3, pairs moving at a depth of
    sqrt(c var_max dt) have distance product c var_max dt and p = e^-2c
    (the far face's term is 0.0).  The band is c <= 25: at c = 16 a tiny
    uniform kills, at c = 30 only u = 0.0 does, as at depth 0.5 (c = 250),
    and at the centre p = 0.0 kills no one."""
    dom, dt = Interval(-1.0, 1.0), 1e-3
    noise = Noise.of(np.eye(1))
    c = np.array([30.0, 16.0, 30.0, 250.0, 1000.0])
    depth = np.sqrt(c * noise.var_max * dt)
    x0 = (dom.lo[0] + depth)[None, :, None]
    u = np.array([0.0, 2.0 ** -53, 2.0 ** -53, 0.0, 0.0])
    alive = np.ones(c.size, dtype=bool)
    b, z = np.zeros_like(x0), np.zeros_like(x0)
    work = Workspace(x0.copy(), dom)
    assert (c <= geometry._BRIDGE_BAND).tolist() == [False, True, False, False, False]
    _, node_exits, kills = euler_step(dom, work, b, z, dt, noise, alive, u)
    candidates, p = _unbanded_step(dom, x0, b, z, dt, noise, alive)[3:]
    want = candidates[u[candidates] < p]
    assert not node_exits.any()
    assert kills.tolist() == want.tolist() == [0, 1, 3]


@PROPERTY
@given(st.integers(1, 3), st.sampled_from(["zero", "constant", "affine"]),
       st.sampled_from([0.0, 0.5]), st.sampled_from([np.inf, 0.75]), st.integers(0, 2 ** 16))
def test_buffered_drift_equals_the_expression_form(d, base, gain, clip, seed):
    gen = np.random.default_rng(seed)
    signed_zeros = [0.0, -0.0]
    drift = DriftSpec(base_kind=base, base_vector=tuple(gen.choice(signed_zeros + [0.3], d)),
                      base_matrix=tuple(map(tuple, gen.choice([-0.0, 0.5], (d, d)))),
                      mf_gain=gain, clip_bound=clip,
                      control_matrix=tuple(map(tuple, gen.choice([0.0, 1.0], (d, 2)))))
    model = ModelSpec(domain=Box((-1.0,) * d, (1.0,) * d), sigma=tuple(map(tuple, np.eye(d))),
                      drift=drift, control_set=ControlBox((-1.0,) * 2, (1.0,) * 2),
                      horizon=1.0, reward=ZERO_REWARD, initial=UniformBox((-0.5,) * d, (0.5,) * d))
    x = gen.choice(signed_zeros + [0.25, -0.5], (2, 5, d))
    mean = gen.choice(signed_zeros + [0.1], (2, 1, d))
    a = gen.choice(signed_zeros + [0.5], (2, 5, 2))

    if base == "zero":
        want = np.zeros_like(x)
    elif base == "constant":
        want = np.broadcast_to(np.asarray(drift.base_vector), x.shape).astype(float)
    else:
        want = x @ np.asarray(drift.base_matrix).T + np.asarray(drift.base_vector)
    if gain:
        want = want + gain * (mean - x)
    want = want + a @ np.asarray(drift.control_matrix).T
    if np.isfinite(clip):
        want = np.clip(want, -clip, clip)

    buffers = np.full(2 * x.size + 3, np.nan)
    got = drift_given_mean(model, x, mean, a, out=_view(buffers, x.shape),
                           scratch=buffers[x.size:][:x.size].reshape(x.shape))
    assert got.tobytes() == want.tobytes()
    assert drift_given_mean(model, x, mean, a).tobytes() == want.tobytes()


@PROPERTY
@given(st.lists(st.sampled_from([3, 4]), min_size=1, max_size=4),
       st.lists(st.sampled_from([0, 1]), min_size=4, max_size=4), st.integers(1, 5))
def test_buffered_draws_equal_the_joined_streams(seeds, late, n_block):
    """Blocks with the same seed and start share a stream; the buffer holds
    the streams np.stack and np.concatenate joined before."""
    draws_of = _first_alike(seeds, np.cumsum(late[:len(seeds)]))
    local = np.arange(len(seeds)) + 2
    for sample, shape, join in ((rng.normals, (n_block, 2), np.stack),
                                (rng.uniforms, (n_block,), np.concatenate)):
        owners = draws_of[:len(local)]
        want = {j: sample(seeds[j], rng.GAUSS_STEP, int(local[j]), shape) for j in owners}
        want = join([want[j] for j in owners]) if any(owners) else want[0]
        out = np.full(len(seeds) * n_block * 2, np.nan)
        got = _step_draws(sample, rng.GAUSS_STEP, shape, seeds, draws_of, local, out)
        assert got.reshape(want.shape).tobytes() == want.tobytes()


def test_each_step_draws_its_kill_uniforms_once(monkeypatch):
    """The pass, not the step, draws the kill uniforms: with the bridge on,
    once per stream in every step of its blocks, keyed by the block's own
    step, and with it off never.  A stack's blocks 0 and 1 share a stream,
    and block 2 draws its own from a later start.  The finite system's
    peer uniforms are drawn in the steps with an exit only."""
    calls = []
    uniforms = rng.uniforms

    def counted(seed, purpose, step, shape, *, out=None):
        calls.append((purpose, seed, step))
        return uniforms(seed, purpose, step, shape, out=out)

    monkeypatch.setattr(rng, "uniforms", counted)
    model = driftless_interval(halfwidth=0.3, horizon=0.1)
    policy = ConstantPolicy((0.0,), model.control_set)
    grid, dt = np.array([0.0, 0.05, 0.1]), 0.01
    blocks = Blocks((policy,) * 3, (None,) * 3, (3, 3, 4), (0.0, 0.0, 0.03),
                    (model.initial,) * 3)
    for bridge in (True, False):
        calls.clear()
        ens = simulate_killed(model, blocks, None, SimConfig(3 * 50, dt, 3, grid,
                                                             bridge_correction=bridge,
                                                             min_survivors=0))
        assert np.isfinite(ens.exit_times).any()
        want = {(3, k): 1 for k in range(10)} | {(4, k): 1 for k in range(7)}
        assert Counter((seed, step) for _, seed, step in calls) == (want if bridge else {})
        assert {purpose for purpose, _, _ in calls} <= {rng.BRIDGE_KILL}

    calls.clear()
    trace = simulate_fv_finite(model, ConstantPolicy((0.0,), model.control_set),
                               SimConfig(50, dt, 5, grid))
    assert trace.event_times.size
    by_purpose = Counter((purpose, step) for purpose, _, step in calls)
    assert by_purpose == ({(rng.BRIDGE_KILL, k): 1 for k in range(10)}
                          | {(rng.PEER_CHOICE, k): 1
                             for k in {int(t / dt - 0.25) for t in trace.event_times}})
