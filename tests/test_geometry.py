import numpy as np
import pytest

from condiff.geometry import (BOUNDARY_TOL, Ball, Box, Interval, check_sigma,
                              domain_from_dict)

SIGMA1 = ((1.0,),)


def test_interval_signed_distance():
    dom = Interval(-1.0, 1.0)
    assert dom.boundary_distance(0.0) == 1.0
    assert dom.boundary_distance(0.6) == pytest.approx(0.4)
    assert dom.boundary_distance(-1.0) == 0.0
    assert dom.boundary_distance(1.3) == pytest.approx(-0.3)


def test_contains_open_matches_distance():
    dom = Ball((0.0, 0.0), 2.0)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3, 3, size=(500, 2))
    inside = dom.contains_open(pts)
    assert np.array_equal(inside, dom.boundary_distance(pts) > BOUNDARY_TOL)


def test_box_reduces_to_interval_in_1d():
    interval = Interval(-1.0, 1.0)
    box = Box((-1.0,), (1.0,))
    xs = np.linspace(-0.99, 0.99, 23).reshape(-1, 1)
    assert np.allclose(interval.boundary_distance(xs), box.boundary_distance(xs))
    p_int = interval.bridge_exit_probability(xs[:-1], xs[1:], 0.01, SIGMA1)
    p_box = box.bridge_exit_probability(xs[:-1], xs[1:], 0.01, SIGMA1)
    assert np.allclose(p_int, p_box)


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
    p_formula = dom.bridge_exit_probability(x_from, x_to, dt, SIGMA1)

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
    assert dom.bridge_exit_probability(1.0, 0.2, 0.01, SIGMA1) == 1.0
    assert dom.bridge_exit_probability(0.2, -1.0, 0.01, SIGMA1) == 1.0


def test_bridge_monotone_in_distance():
    dom = Interval(-1.0, 1.0)
    probs = [float(dom.bridge_exit_probability(x, x, 0.01, SIGMA1))
             for x in (0.95, 0.8, 0.5, 0.0)]
    assert all(a > b for a, b in zip(probs, probs[1:]))


def test_bridge_input_validation():
    dom = Interval(-1.0, 1.0)
    with pytest.raises(ValueError):
        dom.bridge_exit_probability(1.5, 0.0, 0.01, SIGMA1)
    with pytest.raises(ValueError):
        dom.bridge_exit_probability(0.0, 0.5, -0.01, SIGMA1)
    with pytest.raises(ValueError):
        dom.bridge_exit_probability(0.0, 0.5, 0.01, ((1.0, 0.0),))


def test_check_sigma_rejects_singular():
    with pytest.raises(ValueError):
        check_sigma(((1.0, 1.0), (1.0, 1.0)), 2)
    with pytest.raises(ValueError):
        check_sigma(((np.nan,),), 1)


def test_domain_round_trip():
    for dom in (Interval(-2.0, 3.0), Box((-1.0, 0.0), (1.0, 2.0)),
                Ball((0.5, -0.5), 1.5)):
        again = domain_from_dict(dom.to_dict())
        assert type(again) is type(dom)
        assert again.to_dict() == dom.to_dict()
        for got, want in zip(again.bounding_box(), dom.bounding_box()):
            assert np.array_equal(got, want)


def test_degenerate_domains_rejected():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Box((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        Ball((0.0,), 0.0)
