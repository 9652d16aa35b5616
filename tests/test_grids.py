import numpy as np
import pytest

import hjbkit as hk


def _reference_interpolate(gf, x):
    """The per-point multilinear interpolation that the batched one replaced."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if gf.grid.dim == 1:
        return float(np.interp(x[0], gf.grid.axes[0], gf.values))
    vals = gf.values
    for d, a in enumerate(gf.grid.axes):
        xi = min(max(x[d], a[0]), a[-1])
        j = int(np.clip(np.searchsorted(a, xi) - 1, 0, a.size - 2))
        t = (xi - a[j]) / (a[j + 1] - a[j])
        vals = (1 - t) * np.take(vals, j, axis=0) + t * np.take(vals, j + 1, axis=0)
    return float(vals)


def _nonuniform_axis(rng, lo, hi, n):
    return np.sort(np.concatenate([[lo, hi], rng.uniform(lo, hi, n - 2)]))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_batched_interpolation_equals_pointwise_loop(dim):
    rng = np.random.default_rng(40 + dim)
    grid = hk.SpatialGrid(tuple(_nonuniform_axis(rng, -1.0, 2.0, 7 + d) for d in range(dim)))
    gf = hk.GridFunction(grid, rng.normal(size=grid.shape))
    # interior points, points outside the box (clamped) and the nodes themselves
    pts = np.concatenate([rng.uniform(-1.5, 2.5, (200, dim)), grid.nodes()])
    batched = gf.interpolate(pts)
    reference = np.array([_reference_interpolate(gf, p) for p in pts])
    assert batched.shape == (len(pts),)
    assert np.array_equal(batched.view(np.uint64), reference.view(np.uint64))
    single = gf.interpolate(pts[3])
    assert isinstance(single, float) and single == reference[3]
