import numpy as np
import pytest

from condiff import geometry
from condiff.config import build_model
from condiff.geometry import BOUNDARY_TOL, Ball, Box, Interval, check_sigma, top_variance

SIGMA1 = ((1.0,),)


def test_interval_signed_distance():
    dom = Interval(-1.0, 1.0)
    got = dom.boundary_distance([[0.0], [0.6], [-1.0], [1.3]])
    assert got.shape == (4,)
    assert got[0] == 1.0 and got[2] == 0.0
    assert got[[1, 3]] == pytest.approx([0.4, -0.3])


@pytest.mark.parametrize("dom, x", [
    (Interval(-1.0, 1.0), 0.0),
    (Interval(-1.0, 1.0), [0.0, 0.5]),
    (Box((-1.0, -1.0), (1.0, 1.0)), [0.0, 0.5]),
    (Box((-1.0, -1.0), (1.0, 1.0)), [[0.0, 0.5, 0.1]]),
    (Ball((0.0, 0.0), 1.0), [[[0.0, 0.5]]]),
])
def test_positions_other_than_n_by_d_are_refused(dom, x):
    for read in (dom.contains_open, dom.boundary_distance):
        with pytest.raises(ValueError, match=rf"expected \(n, {dom.dim}\) positions"):
            read(x)
    with pytest.raises(ValueError, match=rf"expected \(n, {dom.dim}\) positions"):
        dom.bridge_exit_probability(x, x, 0.01, np.eye(dom.dim))


def test_contains_open_matches_distance():
    dom = Ball((0.0, 0.0), 2.0)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3, 3, size=(500, 2))
    inside = dom.contains_open(pts)
    assert np.array_equal(inside, dom.boundary_distance(pts) > BOUNDARY_TOL)


def test_box_reduces_to_interval_in_1d():
    interval = Interval(-1.0, 1.0)
    box = Box((-1.0,), (1.0,))
    assert isinstance(interval, Box) and (interval.lo, interval.hi) == (box.lo, box.hi)
    xs = np.linspace(-0.99, 0.99, 23).reshape(-1, 1)
    assert interval.boundary_distance(xs).tobytes() == box.boundary_distance(xs).tobytes()
    p_int = interval.bridge_exit_probability(xs[:-1], xs[1:], 0.01, SIGMA1)
    p_box = box.bridge_exit_probability(xs[:-1], xs[1:], 0.01, SIGMA1)
    assert p_int.tobytes() == p_box.tobytes()


def test_large_ball_locally_flat():
    # Near the boundary of a huge ball the tangent-halfspace crossing
    # probability converges to the flat-face value.
    radius = 1e4
    ball = Ball((0.0, 0.0), radius)
    box = Box((-radius, -radius), (radius, radius))
    a = np.array([[radius - 0.5, 0.0]])
    b = np.array([[radius - 0.3, 0.0]])
    sigma = ((1.0, 0.0), (0.0, 1.0))
    p_ball = ball.bridge_exit_probability(a, b, 0.05, sigma)
    p_flat = np.exp(-2 * 0.5 * 0.3 / 0.05)
    assert p_ball[0] == pytest.approx(p_flat, rel=1e-3)


def test_bridge_formula_against_sequential_bridge_sampler():
    """Unbiased oracle: sample midpoints of the pinned path recursively and
    multiply exact per-segment non-crossing factors; the average estimates
    the continuous crossing probability without discretization bias."""
    dom = Interval(-50.0, 1.0)  # far face is unreachable: single face at x = 1
    x_from, x_to, dt, var = 0.3, 0.5, 0.5, 1.0
    p_formula = dom.bridge_exit_probability([[x_from]], [[x_to]], dt, SIGMA1)[0]

    rng = np.random.default_rng(11)
    n = 200_000
    levels = 4
    times = np.linspace(0.0, dt, 2 ** levels + 1)
    paths = np.empty((n, times.size))
    paths[:, 0], paths[:, -1] = x_from, x_to
    span = 2 ** levels
    while span > 1:
        half = span // 2
        for start in range(0, 2 ** levels, span):
            t0, tm, t1 = times[start], times[start + half], times[start + span]
            w = (tm - t0) / (t1 - t0)
            mean = (1 - w) * paths[:, start] + w * paths[:, start + span]
            std = np.sqrt(var * (t1 - tm) * (tm - t0) / (t1 - t0))
            paths[:, start + half] = mean + std * rng.standard_normal(n)
        span = half
    no_cross = np.ones(n)
    h = times[1] - times[0]
    for k in range(2 ** levels):
        d0 = np.maximum(1.0 - paths[:, k], 0.0)
        d1 = np.maximum(1.0 - paths[:, k + 1], 0.0)
        crossed = (paths[:, k] >= 1.0) | (paths[:, k + 1] >= 1.0)
        seg = np.where(crossed, 0.0, 1.0 - np.exp(-2 * d0 * d1 / (var * h)))
        no_cross *= seg
    p_mc = 1.0 - no_cross.mean()
    assert abs(p_mc - p_formula) <= 0.01


def test_bridge_boundary_endpoint_is_certain():
    dom = Interval(-1.0, 1.0)
    p = dom.bridge_exit_probability([[1.0], [0.2]], [[0.2], [-1.0]], 0.01, SIGMA1)
    assert np.array_equal(p, [1.0, 1.0])


def test_bridge_monotone_in_distance():
    dom = Interval(-1.0, 1.0)
    xs = np.array([[0.95], [0.8], [0.5], [0.0]])
    probs = dom.bridge_exit_probability(xs, xs, 0.01, SIGMA1)
    assert np.all(probs[:-1] > probs[1:])


def test_bridge_input_validation():
    dom = Interval(-1.0, 1.0)
    with pytest.raises(ValueError):
        dom.bridge_exit_probability([[1.5]], [[0.0]], 0.01, SIGMA1)
    with pytest.raises(ValueError):
        dom.bridge_exit_probability([[0.0]], [[0.5]], -0.01, SIGMA1)
    with pytest.raises(ValueError):
        dom.bridge_exit_probability([[0.0]], [[0.5]], 0.01, ((1.0, 0.0),))


def test_check_sigma_rejects_singular():
    with pytest.raises(ValueError):
        check_sigma(((1.0, 1.0), (1.0, 1.0)), 2)
    with pytest.raises(ValueError):
        check_sigma(((np.nan,),), 1)


def test_domains_build_from_their_json_forms():
    for spec, kind, fields, box in (
            ({"type": "interval", "lo": -2, "hi": 3.0}, Interval,
             {"lo": (-2.0,), "hi": (3.0,)}, ([-2.0], [3.0])),
            ({"type": "box", "lo": [-1, 0], "hi": [1.0, 2]}, Box,
             {"lo": (-1.0, 0.0), "hi": (1.0, 2.0)}, ([-1.0, 0.0], [1.0, 2.0])),
            ({"type": "ball", "center": [0.5, -0.5], "radius": 1.5}, Ball,
             {"center": (0.5, -0.5), "radius": 1.5}, ([-1.0, -2.0], [2.0, 1.0]))):
        dim = len(box[0])
        eye, zeros = np.eye(dim).tolist(), [0.0] * dim
        dom = build_model({"model": {
            "domain": spec, "sigma": eye, "drift": {"control_matrix": eye},
            "control_box": {"lo": zeros, "hi": zeros}, "horizon": 1.0,
            "initial": {"type": "point", "x": zeros}}}).domain
        assert type(dom) is kind and dom.dim == dim
        for name, want in fields.items():
            got = getattr(dom, name)
            assert type(got) is type(want) and got == want
        for got, want in zip(dom.bounding_box(), box):
            assert np.array_equal(got, want)


def test_degenerate_domains_rejected():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Box((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        Ball((0.0,), 0.0)


def _at_depth(dom, depth, rng):
    """Points at about the given distances inside the boundary of the domains
    of test_banded_bridge_equals_unbanded."""
    if isinstance(dom, Interval):
        return (dom.lo + depth)[:, None]
    if isinstance(dom, Box):
        x = np.column_stack([dom.lo[0] + depth, rng.uniform(-1.0, 1.0, depth.size)])
        x[:, 1] *= 1.0 - depth  # keep the other face at least as far away
        return x
    u = rng.standard_normal((depth.size, dom.dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return np.asarray(dom.center) + (dom.radius - depth)[:, None] * u


def _kill_uniforms(rng, n):
    """n uniforms of the kind rng.uniforms draws, multiples of 2^-53: a third
    exactly 0.0, a third k 2^-53 for k in [1, 10^4] (log-uniform), and a
    third over [0, 1)."""
    tiny = np.floor(np.exp(rng.uniform(0.0, np.log(1e4), n))) * 2.0 ** -53
    kind = rng.integers(0, 3, n)
    return np.where(kind == 0, 0.0, np.where(kind == 1, tiny, rng.random(n)))


def _band_kills(dom, a, b, u, dt, cov, var_max):
    """The pairs with b inside that the test u < p kills, pair i reading
    u[i % len(u)]: with p evaluated on bridge_band's pairs only, and with
    p evaluated on every pair."""
    dist_a, dist_b = dom.boundary_distance(a), dom.boundary_distance(b)
    inside = dist_b > BOUNDARY_TOL
    near = np.flatnonzero(dom.bridge_band(dist_a, dist_b, u, dt, var_max) & inside)
    every = np.flatnonzero(inside)
    return tuple(pairs[u[pairs % u.shape[0]] < dom._bridge(a[pairs], b[pairs], dt, cov)]
                 for pairs in (near, every))


@pytest.mark.parametrize("dom, sigma", [
    (Interval(-1.0, 1.0), ((0.9,),)),
    (Box((-1.0, -1.0), (1.0, 1.0)), ((0.8, 0.0), (0.3, 0.6))),
    (Ball((0.1, 0.0, -0.2), 1.0), ((0.7, 0.1, 0.0), (0.0, 0.6, 0.2), (0.1, 0.0, 0.9))),
])
@pytest.mark.parametrize("dt", [1e-3, 1e-5])
def test_banded_bridge_equals_unbanded(dom, sigma, dt):
    """The kill test run on the band kills exactly the pairs it kills run
    on every pair; outside the band it kills only at u = 0.0."""
    rng = np.random.default_rng(17)
    sigma = np.asarray(sigma)
    cov = sigma @ sigma.T
    var_max = top_variance(cov)
    bound = geometry._BRIDGE_BAND * var_max * dt
    # Random pairs over the whole domain, pairs near the boundary, and pairs
    # whose distance product sits within a millionth of the band's edge.
    n = 4_000
    d0 = np.concatenate([rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 4.0 * np.sqrt(bound), n),
                         np.exp(rng.uniform(np.log(bound), 0.0, n))])
    d1 = np.concatenate([rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 4.0 * np.sqrt(bound), n),
                         bound / d0[2 * n:] * (1.0 + rng.uniform(-1e-6, 1e-6, n))])
    keep = (d0 < 1.0) & (d1 < 1.0)
    a, b = _at_depth(dom, d0[keep], rng), _at_depth(dom, d1[keep], rng)
    u = _kill_uniforms(rng, a.shape[0])
    banded, unbanded = _band_kills(dom, a, b, u, dt, cov, var_max)
    assert np.array_equal(banded, unbanded)
    public = dom.bridge_exit_probability(a, b, dt, sigma)
    assert public.tobytes() == np.clip(dom._bridge(a, b, dt, cov), 0.0, 1.0).tobytes()
    # Not vacuous: pairs on both sides of the band's edge, kills at tiny
    # nonzero uniforms, and kills outside the band, each at u = 0.0.
    product = dom.boundary_distance(a) * dom.boundary_distance(b)
    edge = np.abs(product / bound - 1.0) < 1e-5
    assert np.any(edge & (product > bound)) and np.any(edge & (product <= bound))
    assert np.any((u[unbanded] > 0.0) & (u[unbanded] < 1e4 * 2.0 ** -53))
    outside = unbanded[product[unbanded] > bound]
    assert outside.size and np.all(u[outside] == 0.0)


def _old_box_distance(box, pts):
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    out = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
    out_norm = np.linalg.norm(out, axis=1)
    depth = np.min(np.minimum(pts - lo, hi - pts), axis=1)
    return np.where(out_norm > 0.0, -out_norm, depth)


def test_box_distance_measures_the_gap_only_outside():
    box = Box((-1.0, 0.0, 2.0), (1.0, 0.5, 3.0))
    rng = np.random.default_rng(23)
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    inside = rng.uniform(lo, hi, (300, 3))
    boundary = inside.copy()
    face = rng.integers(0, 3, 300)
    boundary[np.arange(300), face] = np.where(rng.random(300) < 0.5, lo[face], hi[face])
    outside = rng.uniform(lo - 2.0, hi + 2.0, (600, 3))
    odd = np.array([[np.nan, 0.2, 2.5], [np.nan, 5.0, 2.5], [np.inf, 0.2, 2.5],
                    [-np.inf, -np.inf, 9.0], [1.0, 0.5, 3.0], [-1.0, 0.0, 2.0]])
    pts = np.concatenate([inside, boundary, outside, odd])
    got = box.boundary_distance(pts)
    assert got.tobytes() == _old_box_distance(box, pts).tobytes()
    assert np.any(got < 0.0) and np.any(got == 0.0) and np.any(got > 0.0)
