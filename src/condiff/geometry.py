"""Bounded convex domains with within-step exit probabilities.

Two shapes are supported: an axis-aligned box, whose one-dimensional
case is the interval, and a Euclidean ball.  Both are convex with
smooth-enough boundaries, so a path started on the boundary leaves
immediately and the half-space crossing formula used by
bridge_exit_probability is well behaved.

Positions are float arrays of shape (n, d), a batch of n points; every
reader returns one value per point, shape (n,).  The readers the Euler
step calls each step (boundary_distance and bridge_band) can write into
arrays the caller made once: out for the result, and scratch, a float
array of at least n * d elements (n for bridge_band), for their
temporaries.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Points within this distance of the boundary are classified as boundary
# points: not strictly inside, and certain to be killed by a bridge check.
BOUNDARY_TOL = 1e-12

_SIGMA_COND_LIMIT = 1e12

# The bridge band's bound on d0 d1 / (var_max dt); see Domain.bridge_band.
_BRIDGE_BAND = 25.0


def check_sigma(sigma, dim: int) -> np.ndarray:
    """Validate an invertible diffusion matrix of the expected dimension."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (dim, dim):
        raise ValueError(f"sigma must have shape ({dim}, {dim}), got {sigma.shape}")
    if not np.all(np.isfinite(sigma)):
        raise ValueError("sigma must be finite")
    if np.linalg.cond(sigma) > _SIGMA_COND_LIMIT:
        raise ValueError("sigma is singular or near-singular")
    return sigma


def top_variance(cov: np.ndarray) -> float:
    """The largest eigenvalue of a covariance sigma sigma^T: the most
    variance the diffusion puts along any unit direction."""
    return float(np.linalg.eigvalsh(cov)[-1])


class Domain:
    """Common interface of the bounded convex domain variants."""

    dim: int

    def _batch(self, x) -> np.ndarray:
        """x as a float (n, dim) array of positions; any other shape is refused."""
        arr = np.asarray(x, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) positions, got shape {arr.shape}")
        return arr

    def contains_open(self, x) -> np.ndarray:
        """True for points strictly inside, beyond the boundary tolerance."""
        return self.boundary_distance(x) > BOUNDARY_TOL

    def boundary_distance(self, x, out=None, scratch=None) -> np.ndarray:
        """Signed Euclidean distance to the boundary: positive inside, zero on it."""
        pts = self._batch(x)
        n = pts.shape[0]
        return self._distance(pts, np.empty(n) if out is None else out,
                              np.empty(pts.size) if scratch is None else scratch)

    def bridge_exit_probability(self, x_from, x_to, dt: float, sigma) -> np.ndarray:
        """Probability that the diffusion bridge between two in-closure
        endpoints touches the boundary within a step of length dt.

        Uses the reflection formula for each face (box) or for the
        tangent half-space at the nearest boundary point (ball), with
        the per-direction variance taken from sigma sigma^T.  An endpoint
        on the boundary gives probability one.  The inputs are checked
        here.
        """
        if not np.isfinite(dt) or dt <= 0:
            raise ValueError("dt must be positive and finite")
        sigma = check_sigma(sigma, self.dim)
        a, b = self._batch(x_from), self._batch(x_to)
        if a.shape != b.shape:
            raise ValueError("x_from and x_to must have matching shapes")
        dist_a, dist_b = self.boundary_distance(a), self.boundary_distance(b)
        if np.any(dist_a < -BOUNDARY_TOL) or np.any(dist_b < -BOUNDARY_TOL):
            raise ValueError("bridge endpoints must lie in the closed domain")
        return np.clip(self._bridge(a, b, float(dt), sigma @ sigma.T), 0.0, 1.0)

    def bridge_band(self, dist_a: np.ndarray, dist_b: np.ndarray, u: np.ndarray, dt: float,
                    var_max: float, out=None, scratch=None) -> np.ndarray:
        """The pairs on which a bridge kill test u < p must evaluate p:
        True where dist_a dist_b <= _BRIDGE_BAND var_max dt, where a
        distance is NaN, and where the pair's uniform is exactly 0.0.

        dist_a and dist_b are the endpoints' boundary_distance, var_max
        the largest eigenvalue of cov = sigma sigma^T, and u the test's
        uniforms: pair i reads u[i % len(u)], and the pairs' count is a
        multiple of len(u).  out is a bool array of the pairs' count and
        scratch a float array at least as long (new ones when None).

        No pair with dist_b > 0 outside the band can be killed.  Every
        term of _bridge is exp(-2 f0 f1 / (v dt)), where f0, f1 are the
        endpoints' distances to one face (box) or to the tangent
        half-space at one boundary point (ball), and v = n^T cov n for
        that face's unit normal n.  A face distance is at least the
        distance to the boundary: the box's depth is the least face
        distance, and the ball's half-space distance R - <r, n> is at
        least R - |r|.  And v <= var_max, by the Rayleigh quotient.  So
        such a pair has both distances positive and every exponent at
        most -2 * 25 * 0.98 = -49, the 2% absorbing the rounding of the
        face distances, of v and of var_max, and _combine_faces gives
        p <= 2 d e^-49 < 2^-53 for any d < 10^5.  rng.uniforms draws
        multiples of 2^-53, so u < p holds there only at u = 0.0, and the
        band keeps those pairs: a test run on the band kills what it
        kills run on every pair, bit for bit.
        """
        n = dist_a.shape[0]
        out = np.empty(n, dtype=bool) if out is None else out
        s = np.multiply(dist_a, dist_b, out=None if scratch is None else scratch[:n])
        # not (s > bound) also holds for a NaN product
        np.logical_not(np.greater(s, _BRIDGE_BAND * var_max * dt, out=out), out=out)
        per_draw = out.reshape(-1, u.shape[0])
        np.logical_or(per_draw, u == 0.0, out=per_draw)
        return out

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    # Subclass hooks, operating on (n, d) arrays.
    def _distance(self, pts: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """boundary_distance of (n, d) pts, written into out (n,), with
        scratch (n * d floats) for the temporaries."""
        raise NotImplementedError

    def _bridge(self, a: np.ndarray, b: np.ndarray, dt: float, cov: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _face_crossing(d_from: np.ndarray, d_to: np.ndarray, variance: float, dt: float) -> np.ndarray:
    """Reflection-formula crossing probability of one hyperplane face."""
    d_from = np.maximum(d_from, 0.0)
    d_to = np.maximum(d_to, 0.0)
    return np.exp(-2.0 * d_from * d_to / (variance * dt))


def _combine_faces(probs) -> np.ndarray:
    """1 - prod(1 - p_i) accumulated in log space, so face probabilities
    far below machine epsilon survive instead of flushing to zero."""
    with np.errstate(divide="ignore"):
        log_stay = sum(np.log1p(-p) for p in probs)
    # 0.0 - keeps a vanishing probability at +0.0, where a negation gives -0.0.
    return 0.0 - np.expm1(log_stay)


@dataclass(frozen=True)
class Box(Domain):
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("box requires lo and hi vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(lo < hi)):
            raise ValueError("box requires finite lo < hi componentwise")
        object.__setattr__(self, "lo", tuple(lo.tolist()))
        object.__setattr__(self, "hi", tuple(hi.tolist()))
        object.__setattr__(self, "dim", lo.shape[0])

    @property
    def _lo(self):
        return np.asarray(self.lo)

    @property
    def _hi(self):
        return np.asarray(self.hi)

    def _distance(self, pts, out, scratch):
        lo, hi = self.lo, self.hi
        n = pts.shape[0]
        upper, lower = scratch[:n], scratch[n:2 * n]  # lower only when d > 1
        # depth = min(pts[:, 0] - lo[0], hi[0] - pts[:, 0]), then its min with
        # each further coordinate's min(pts[:, i] - lo[i], hi[i] - pts[:, i]).
        depth = np.subtract(pts[:, 0], lo[0], out=out)
        np.minimum(depth, np.subtract(hi[0], pts[:, 0], out=upper), out=depth)
        for i in range(1, self.dim):
            np.subtract(pts[:, i], lo[i], out=lower)
            np.minimum(lower, np.subtract(hi[i], pts[:, i], out=upper), out=lower)
            np.minimum(depth, lower, out=depth)
        if self.dim == 1:
            return depth  # with one coordinate, the signed distance
        # A point outside is at minus the Euclidean norm of its gap beyond the
        # faces it exceeds; the gap is nonzero exactly where depth < 0.
        outside = np.flatnonzero(depth < 0.0)
        if outside.size:
            beyond = pts[outside]
            gap = np.maximum(np.maximum(self._lo - beyond, beyond - self._hi), 0.0)
            depth[outside] = -np.linalg.norm(gap, axis=1)
        return depth

    def _bridge(self, a, b, dt, cov):
        lo, hi = self._lo, self._hi
        var = np.diag(cov)
        faces = []
        for i in range(self.dim):
            faces.append(_face_crossing(a[:, i] - lo[i], b[:, i] - lo[i], var[i], dt))
            faces.append(_face_crossing(hi[i] - a[:, i], hi[i] - b[:, i], var[i], dt))
        return _combine_faces(faces)

    def bounding_box(self):
        return self._lo.copy(), self._hi.copy()


class Interval(Box):
    """The one-dimensional box (lo, hi); its lo and hi are 1-tuples."""

    def __init__(self, lo: float, hi: float):
        super().__init__((lo,), (hi,))


@dataclass(frozen=True)
class Ball(Domain):
    center: tuple
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1:
            raise ValueError("ball center must be a vector")
        if not (np.all(np.isfinite(c)) and np.isfinite(self.radius) and self.radius > 0):
            raise ValueError("ball requires a finite center and radius > 0")
        object.__setattr__(self, "center", tuple(c.tolist()))
        object.__setattr__(self, "dim", c.shape[0])

    @property
    def _center(self):
        return np.asarray(self.center)

    def _distance(self, pts, out, scratch):
        # radius - np.linalg.norm(pts - center, axis=1), whose vector norm
        # is sqrt(add.reduce(r * r, axis=1)) for real r.
        r = np.subtract(pts, self.center, out=scratch[:pts.size].reshape(pts.shape))
        np.add.reduce(np.multiply(r, r, out=r), axis=1, out=out)
        return np.subtract(self.radius, np.sqrt(out, out=out), out=out)

    def _bridge(self, a, b, dt, cov):
        c = self._center
        ra = a - c
        rb = b - c
        na = np.linalg.norm(ra, axis=1)
        nb = np.linalg.norm(rb, axis=1)
        # Anchor the tangent half-space at the boundary point nearest to
        # whichever endpoint sits closer to the boundary.
        anchor = np.where((na >= nb)[:, None], ra, rb)
        anchor_norm = np.linalg.norm(anchor, axis=1)
        unit = np.zeros_like(anchor)
        unit[:, 0] = 1.0  # fallback direction for endpoints at the center
        ok = anchor_norm > BOUNDARY_TOL
        unit[ok] = anchor[ok] / anchor_norm[ok, None]
        var = np.einsum("ni,ij,nj->n", unit, cov, unit)
        d_from = self.radius - np.einsum("ni,ni->n", ra, unit)
        d_to = self.radius - np.einsum("ni,ni->n", rb, unit)
        return _face_crossing(d_from, d_to, var, dt)

    def bounding_box(self):
        c = self._center
        return c - self.radius, c + self.radius

