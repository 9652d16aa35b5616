import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hjbkit as hk
from hjbkit import specio


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


def _grid_function_csv(rng):
    grid = hk.SpatialGrid((_nonuniform_axis(rng, -1.0, 2.0, 5), _nonuniform_axis(rng, 0.0, 1.0, 4)))
    return hk.GridFunction(grid, rng.normal(size=grid.shape)).to_csv()


def _solution_csv(rng):
    grid = hk.SpatialGrid((_nonuniform_axis(rng, 0.2, 5.0, 11),))
    times = np.linspace(0.0, 1.0, 4)
    values = rng.normal(size=(4, 11))
    policies = rng.uniform(-1.0, 1.0, (4, 11, 1))
    return hk.SpaceTimeSolution(grid, times, values, policies).to_csv()


CSV_FORMATS = {
    "grid-function": (_grid_function_csv, hk.grids.grid_function_from_csv),
    "solution": (_solution_csv, specio.solution_from_csv),
}


@pytest.mark.parametrize("fmt", CSV_FORMATS)
def test_csv_round_trip_is_bitwise_in_any_row_order(fmt):
    write, read = CSV_FORMATS[fmt]
    text = write(np.random.default_rng(50))
    header, *rows = text.splitlines()
    shuffled = "\n".join([header] + list(np.random.default_rng(51).permutation(rows))) + "\n"
    assert read(text).to_csv() == text
    assert read(shuffled).to_csv() == text


@pytest.mark.parametrize("defect", ["dropped-row", "duplicate-replaces-missing", "short-row"])
@pytest.mark.parametrize("fmt", CSV_FORMATS)
def test_csv_reader_requires_each_node_exactly_once(fmt, defect):
    write, read = CSV_FORMATS[fmt]
    header, *rows = write(np.random.default_rng(52)).splitlines()
    if defect == "dropped-row":
        rows = rows[:5] + rows[6:]
    elif defect == "duplicate-replaces-missing":
        rows = rows[:5] + [rows[4]] + rows[6:]
    else:
        rows[5] = rows[5].rsplit(",", 1)[0]
    with pytest.raises(ValueError):
        read("\n".join([header] + rows) + "\n")


@given(st.integers(1, 500), st.integers(0, 2**32 - 1), st.floats(1e-3, 10.0))
@settings(max_examples=100, deadline=None)
def test_tridiagonal_solve_equals_dense_solve(n, seed, dominance):
    """Thomas elimination agrees with np.linalg.solve on random strictly diagonally
    dominant systems; lower[0] and upper[-1] lie outside the matrix."""
    rng = np.random.default_rng(seed)
    lower, upper = rng.uniform(-1.0, 1.0, (2, n))
    diag = rng.choice([-1.0, 1.0], n) * (np.abs(lower) + np.abs(upper) + dominance * rng.uniform(0.1, 1.0, n))
    rhs = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
    dense = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    expected = np.linalg.solve(dense, rhs)
    got = hk.grids.solve_tridiagonal(lower, diag, upper, rhs)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _thomas_reference(lower, diag, upper, rhs):
    """The one-pass Thomas loop that the elimination and substitution split."""
    a, b, c, d = (np.asarray(z, dtype=float).tolist() for z in (lower, diag, upper, rhs))
    n = len(b)
    cp = [0.0] * n
    dp = [0.0] * n
    beta = b[0]
    dp[0] = d[0] / beta
    for i in range(1, n):
        cp[i - 1] = c[i - 1] / beta
        beta = b[i] - a[i] * cp[i - 1]
        dp[i] = (d[i] - a[i] * dp[i - 1]) / beta
    for i in range(n - 2, -1, -1):
        dp[i] -= cp[i] * dp[i + 1]
    return np.array(dp)


@given(st.integers(1, 300), st.integers(0, 2**32 - 1), st.floats(1e-3, 10.0))
@settings(max_examples=100, deadline=None)
def test_elimination_then_substitution_is_the_thomas_loop_bitwise(n, seed, dominance):
    """One elimination serves several right-hand sides, each with the bits of the
    one-pass loop, and solve_tridiagonal has them too."""
    rng = np.random.default_rng(seed)
    lower, upper = rng.uniform(-1.0, 1.0, (2, n))
    diag = rng.choice([-1.0, 1.0], n) * (np.abs(lower) + np.abs(upper) + dominance * rng.uniform(0.1, 1.0, n))
    elimination = hk.grids.tridiagonal_elimination(lower, diag, upper)
    for _ in range(3):
        rhs = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
        want = _thomas_reference(lower, diag, upper, rhs).view(np.uint64)
        assert np.array_equal(hk.grids.tridiagonal_substitution(elimination, rhs).view(np.uint64), want)
        assert np.array_equal(hk.grids.solve_tridiagonal(lower, diag, upper, rhs).view(np.uint64), want)


@pytest.mark.parametrize("n", [[30.5], 30.5, [True], ["30"], [30.0]], ids=repr)
def test_uniform_grid_refuses_a_node_count_that_is_not_an_integer(n):
    """np.asarray(n, int) built 30 nodes for n = [30.5] with no error."""
    with pytest.raises(ValueError, match="n must hold integer node counts"):
        hk.uniform_grid([0.0], [1.0], n)
    assert hk.uniform_grid([0.0], [1.0], [np.int64(30)]).shape == (30,)
