"""Property checks of the geometry kernels on drawn domains and points.

On boxes of one to three dimensions (the interval among them) and on
balls, with a diagonal or a full sigma, the bridge kill test u < p run on
bridge_band's pairs must kill what it kills run on every pair, on pairs
drawn inside, near the boundary, on faces and at corners and uniforms
that hold exact zeros and tiny multiples of 2^-53; and
Box.boundary_distance must equal the older reduce-and-mask form bit for
bit, also on points outside in two or more coordinates.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from condiff.geometry import Ball, Box, Interval, top_variance

from test_geometry import _band_kills, _kill_uniforms, _old_box_distance

PROPERTY = settings(max_examples=200)
N = 48  # points of each kind


@st.composite
def boxes(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    lo = draw(st.lists(st.floats(-2.0, 0.0), min_size=d, max_size=d))
    widths = draw(st.lists(st.floats(0.05, 3.0), min_size=d, max_size=d))
    hi = [a + w for a, w in zip(lo, widths)]
    if d == 1 and draw(st.booleans()):
        return Interval(lo[0], hi[0])
    return Box(tuple(lo), tuple(hi))


@st.composite
def balls(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    center = draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d))
    return Ball(tuple(center), draw(st.floats(0.05, 2.0)))


@st.composite
def sigmas(draw, d: int) -> np.ndarray:
    sigma = np.diag(draw(st.lists(st.floats(0.2, 1.5), min_size=d, max_size=d)))
    if d > 1 and draw(st.booleans()):  # full
        for i, j in zip(*np.tril_indices(d, -1)):
            sigma[i, j] = draw(st.floats(-0.5, 0.5))
    return sigma


def _box_points(dom, rng, scale):
    """Points inside, a little inside a face, on a face, and at a corner."""
    lo, hi = np.asarray(dom.lo), np.asarray(dom.hi)
    d = dom.dim
    inside = rng.uniform(lo, hi, (N, d))
    near = inside.copy()
    face = rng.integers(0, d, N)
    side = rng.random(N) < 0.5
    depth = rng.exponential(scale, N)
    near[np.arange(N), face] = np.where(side, lo[face] + depth, hi[face] - depth)
    on_face = inside.copy()
    on_face[np.arange(N), face] = np.where(side, lo[face], hi[face])
    corner = np.where(rng.random((N, d)) < 0.5, lo, hi)
    return np.concatenate([inside, near, on_face, corner])


def _ball_points(dom, rng, scale):
    """Points inside, a little inside the sphere, on it, and at the center."""
    d = dom.dim
    u = rng.standard_normal((3 * N, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = np.concatenate([dom.radius * rng.random(N) ** (1.0 / d),
                            np.maximum(dom.radius - rng.exponential(scale, N), 0.0),
                            np.full(N, dom.radius)])
    return np.concatenate([np.asarray(dom.center) + radii[:, None] * u,
                           np.tile(dom.center, (2, 1))])


@PROPERTY
@given(st.one_of(boxes(), balls()).flatmap(lambda dom: st.tuples(
    st.just(dom), sigmas(dom.dim), st.sampled_from([1e-5, 1e-3, 1e-1]),
    st.integers(0, 2 ** 16))))
def test_banded_bridge_equals_unbanded(case):
    dom, sigma, dt, seed = case
    rng = np.random.default_rng(seed)
    cov = sigma @ sigma.T
    var_max = top_variance(cov)
    # Depths on the scale of the band's edge, so pairs fall on both sides.
    scale = np.sqrt(25.0 * var_max * dt)
    points = (_box_points if isinstance(dom, Box) else _ball_points)(dom, rng, scale)
    a = points[rng.permutation(points.shape[0])]
    b = points[rng.permutation(points.shape[0])]
    banded, unbanded = _band_kills(dom, a, b, _kill_uniforms(rng, a.shape[0]), dt, cov, var_max)
    assert np.array_equal(banded, unbanded)


@PROPERTY
@given(boxes(), st.integers(0, 2 ** 16))
def test_box_distance_equals_the_reduce_and_mask_form(dom, seed):
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(dom.lo), np.asarray(dom.hi)
    width = hi - lo
    points = _box_points(dom, rng, 0.1 * float(width.min()))
    # Outside in any number of coordinates, and beyond a corner in all.
    around = rng.uniform(lo - width, hi + width, (N, dom.dim))
    beyond = np.where(rng.random((N, dom.dim)) < 0.5, lo - rng.exponential(1.0, (N, dom.dim)),
                      hi + rng.exponential(1.0, (N, dom.dim)))
    pts = np.concatenate([points, around, beyond])
    assert dom.boundary_distance(pts).tobytes() == _old_box_distance(dom, pts).tobytes()
