import time

import numpy as np

from condiff import rng
from condiff.parallel import indexed_map


def test_draws_are_reproducible():
    a = rng.normals(123, rng.GAUSS_STEP, 7, (100,))
    b = rng.normals(123, rng.GAUSS_STEP, 7, (100,))
    assert np.array_equal(a, b)


def test_purpose_and_step_separate_streams():
    base = rng.normals(123, rng.GAUSS_STEP, 7, (100,))
    assert not np.array_equal(base, rng.normals(123, rng.BRIDGE_KILL, 7, (100,)))
    assert not np.array_equal(base, rng.normals(123, rng.GAUSS_STEP, 8, (100,)))
    assert not np.array_equal(base, rng.normals(124, rng.GAUSS_STEP, 7, (100,)))


def test_uniforms_in_unit_interval():
    u = rng.uniforms(9, rng.REINSERT_SAMPLE, 0, (10_000,))
    assert np.all((u >= 0.0) & (u < 1.0))
    assert abs(u.mean() - 0.5) < 0.02


def test_uniforms_are_multiples_of_2_to_the_minus_53():
    """The bridge band's proof rests on this: no uniform lies strictly
    between 0 and 2^-53, so one below a p < 2^-53 is exactly 0.0."""
    for seed in (0, 7, 2 ** 40 + 3):
        for step in (0, 1, 999):
            u = rng.uniforms(seed, rng.BRIDGE_KILL, step, (20_000,))
            out = np.full(20_000, np.nan)
            rng.uniforms(seed, rng.BRIDGE_KILL, step, (20_000,), out=out)
            for draws in (u, out):
                scaled = draws * 2.0 ** 53
                assert np.array_equal(scaled, np.floor(scaled))


def test_derive_seed_stable_and_valid():
    s1 = rng.derive_seed(1729, rng.KERNEL_COLUMN, 3)
    s2 = rng.derive_seed(1729, rng.KERNEL_COLUMN, 3)
    assert s1 == s2 and s1 >= 0
    assert s1 != rng.derive_seed(1729, rng.KERNEL_COLUMN, 4)
    assert s1 != rng.derive_seed(1729, rng.SCENARIO, 3)


def test_indexed_map_preserves_order_across_widths():
    def job(i):
        time.sleep(0.001 * ((7 - i) % 5))  # uneven finish order
        return i * i

    expected = [i * i for i in range(24)]
    for threads in (1, 4, 8):
        assert indexed_map(job, range(24), threads=threads) == expected
