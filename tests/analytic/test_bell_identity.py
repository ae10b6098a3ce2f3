"""The vectorized bell density kernel against its per-device loop.

:class:`repro.analytic.BellDensityGrid` evaluates the bell profiles of
all devices at once.  The [11]-style CG line search amplifies round-off
into different placements, so the kernel must match the per-device loop
it replaced *bit for bit*, not merely to 1e-10.  That loop is kept here,
unchanged, as the oracle.
"""

import numpy as np
import pytest

from repro.analytic import BellDensityGrid, bell_profile


def _bell_profile_loop(d, size, bin_size):
    """Bell value and signed derivative, filled in by boolean masks."""
    ad = np.abs(d)
    sign = np.sign(d)
    knee = size / 2 + bin_size
    cutoff = size / 2 + 2 * bin_size
    a = 4.0 / ((size + 2 * bin_size) * (size + 4 * bin_size))
    b = 2.0 / (bin_size * (size + 4 * bin_size))

    value = np.zeros_like(ad)
    deriv = np.zeros_like(ad)

    inner = ad <= knee
    value[inner] = 1.0 - a * ad[inner] ** 2
    deriv[inner] = -2.0 * a * ad[inner]

    outer = (ad > knee) & (ad <= cutoff)
    value[outer] = b * (ad[outer] - cutoff) ** 2
    deriv[outer] = 2.0 * b * (ad[outer] - cutoff)

    return value, deriv * sign


def _windows_loop(grid, xc, yc, i):
    rx = grid.widths[i] / 2 + 2 * grid.hx
    ry = grid.heights[i] / 2 + 2 * grid.hy
    bx0 = max(int((xc - rx) / grid.hx), 0)
    bx1 = min(int(np.ceil((xc + rx) / grid.hx)), grid.bins)
    by0 = max(int((yc - ry) / grid.hy), 0)
    by1 = min(int(np.ceil((yc + ry) / grid.hy)), grid.bins)
    return bx0, max(bx1, bx0), by0, max(by1, by0)


def _device_bells_loop(grid, xc, yc, i):
    bx0, bx1, by0, by1 = _windows_loop(grid, xc, yc, i)
    dx = xc - grid.centers_x[bx0:bx1]
    dy = yc - grid.centers_y[by0:by1]
    px, dpx_d = _bell_profile_loop(dx, grid.widths[i], grid.hx)
    py, dpy_d = _bell_profile_loop(dy, grid.heights[i], grid.hy)
    total = px.sum() * py.sum()
    c = grid.areas[i] / total if total > 0 else 0.0
    return bx0, bx1, by0, by1, px, dpx_d, py, dpy_d, c


def penalty_and_grad_loop(grid, x, y):
    """The per-device reference for ``grid.penalty_and_grad``."""
    n = len(x)
    density = np.full((grid.bins, grid.bins), 0.0)
    cache = []
    for i in range(n):
        bx0, bx1, by0, by1, px, dpx, py, dpy, c = _device_bells_loop(
            grid, float(x[i]), float(y[i]), i
        )
        if px.size == 0 or py.size == 0:
            cache.append(None)
            continue
        density[bx0:bx1, by0:by1] += c * np.outer(px, py)
        cache.append((bx0, bx1, by0, by1, px, dpx, py, dpy, c))

    resid = density - grid.target
    penalty = float((resid ** 2).sum())

    grad_x = np.zeros(n)
    grad_y = np.zeros(n)
    for i in range(n):
        if cache[i] is None:
            continue
        bx0, bx1, by0, by1, px, dpx, py, dpy, c = cache[i]
        window = resid[bx0:bx1, by0:by1]
        grad_x[i] = 2.0 * c * float(np.einsum(
            "xy,x,y->", window, dpx, py))
        grad_y[i] = 2.0 * c * float(np.einsum(
            "xy,x,y->", window, px, dpy))
    return penalty, grad_x, grad_y


def _fixture(rng):
    """A random grid and positions: tiny to multi-bin devices, centres
    spread past the region so some windows are clipped or empty."""
    n = int(rng.integers(1, 65))
    bins = int(rng.choice([8, 12, 16, 32]))
    region = float(rng.uniform(5.0, 60.0))
    h = region / bins
    widths = h * np.exp(rng.uniform(np.log(0.01), np.log(4.0), n))
    heights = h * np.exp(rng.uniform(np.log(0.01), np.log(4.0), n))
    grid = BellDensityGrid(widths, heights, region, region, bins=bins)
    x = rng.uniform(-0.5 * region, 1.5 * region, n)
    y = rng.uniform(-0.5 * region, 1.5 * region, n)
    return grid, x, y


def _assert_bit_identical(grid, x, y):
    penalty, gx, gy = grid.penalty_and_grad(x, y)
    ref_penalty, ref_gx, ref_gy = penalty_and_grad_loop(grid, x, y)
    np.testing.assert_array_equal(penalty, ref_penalty)
    np.testing.assert_array_equal(gx, ref_gx)
    np.testing.assert_array_equal(gy, ref_gy)


class TestBitIdentity:
    def test_random_fixtures(self):
        rng = np.random.default_rng(20190401)
        for _ in range(400):
            _assert_bit_identical(*_fixture(rng))

    def test_fixtures_cover_the_edge_cases(self):
        """The random fixtures reach empty windows, windows whose bins
        all lie past the cutoff (``c = 0``) and full interior ones."""
        rng = np.random.default_rng(20190401)
        empty = zero_mass = interior = 0
        for _ in range(400):
            grid, x, y = _fixture(rng)
            for i in range(len(x)):
                bx0, bx1, by0, by1, px, _, py, _, c = _device_bells_loop(
                    grid, float(x[i]), float(y[i]), i)
                if px.size == 0 or py.size == 0:
                    empty += 1
                elif c == 0.0:
                    zero_mass += 1
                elif 0 < bx0 and bx1 < grid.bins:
                    interior += 1
        assert empty > 0 and zero_mass > 0 and interior > 0

    def test_placement_shaped_inputs(self, rng):
        """Clustered devices inside the region, as in CG placement."""
        widths = rng.uniform(0.5, 3.0, 48)
        heights = rng.uniform(0.5, 3.0, 48)
        grid = BellDensityGrid(widths, heights, 20.0, 20.0, bins=16)
        for _ in range(20):
            x = rng.normal(10.0, 2.0, 48)
            y = rng.normal(10.0, 2.0, 48)
            _assert_bit_identical(grid, x, y)

    def test_profile_matches_masked_fill(self, rng):
        d = rng.uniform(-6.0, 6.0, 200)
        for size in (0.01, 0.7, 2.0, 9.0):
            value, deriv = bell_profile(d, size, 0.8)
            ref_value, ref_deriv = _bell_profile_loop(d, size, 0.8)
            np.testing.assert_array_equal(value, ref_value)
            np.testing.assert_array_equal(deriv, ref_deriv)


class TestValidation:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="bins"):
            BellDensityGrid(np.ones(2), np.ones(2), 4.0, 4.0, bins=0)

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError, match="widths"):
            BellDensityGrid(np.ones(3), np.ones(2), 4.0, 4.0, bins=4)

    def test_rejects_non_finite_positions(self):
        grid = BellDensityGrid(np.ones(2), np.ones(2), 4.0, 4.0, bins=4)
        with pytest.raises(ValueError, match="finite"):
            grid.penalty_and_grad(np.array([1.0, np.nan]),
                                  np.array([1.0, 2.0]))
