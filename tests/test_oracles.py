import math
from dataclasses import replace

import numpy as np
import pytest

import hjbkit as hk
from hjbkit.errors import DomainError
from hjbkit.oracles import heat_value, merton_lambda, merton_optimal_control, merton_value
from hjbkit.problem import neg_second_constraint
from hjbkit.solver import refined_terminals


def lambda_by_grid_search(mu, sigma, p, bound, n=400_001):
    """Independent scalar maximization of the exponent over a fine control grid."""
    us = np.linspace(-bound, bound, n)
    return float(np.max(p * us * mu - 0.5 * p * (1 - p) * us**2 * sigma**2))


class TestMertonValue:
    def test_zero_time_to_go(self):
        for x in (0.3, 1.0, 4.2):
            assert merton_value(1.0, x) == pytest.approx(x**0.5, rel=1e-15)

    def test_reference_point(self):
        # u* = mu/((1-p)sigma^2) = 5 inside the box; Lambda = mu^2 p/(2 sigma^2 (1-p))
        v = merton_value(0.0, 1.0, mu=0.1, sigma=0.2, p=0.5, horizon=1.0, bound=10.0)
        assert v == pytest.approx(math.exp(0.125), rel=1e-12)
        assert merton_lambda(0.1, 0.2, 0.5, 10.0) == pytest.approx(
            lambda_by_grid_search(0.1, 0.2, 0.5, 10.0), abs=1e-9
        )

    def test_clamped_bound(self):
        # B=1 < u*=5: Lambda_B = p B mu - p(1-p)B^2 sigma^2/2 = 0.045
        assert merton_lambda(0.1, 0.2, 0.5, 1.0) == pytest.approx(0.045, abs=1e-15)
        v = merton_value(0.0, 1.0, bound=1.0)
        assert v == pytest.approx(math.exp(0.045), rel=1e-12)
        assert merton_lambda(0.1, 0.2, 0.5, 1.0) == pytest.approx(
            lambda_by_grid_search(0.1, 0.2, 0.5, 1.0), abs=1e-9
        )

    def test_nonpositive_wealth_rejected(self):
        with pytest.raises(DomainError):
            merton_value(0.0, 0.0)
        with pytest.raises(DomainError):
            merton_value(0.0, -1.0)

    def test_lambda_monotone_then_saturated(self):
        lams = [merton_lambda(0.1, 0.2, 0.5, b) for b in (0.5, 1, 2, 5, 10, 40)]
        assert all(b >= a for a, b in zip(lams, lams[1:]))
        assert lams[-1] == lams[-2] == pytest.approx(0.125)

    def test_monotone_in_state_and_time(self):
        xs = np.linspace(0.2, 4.0, 25)
        vals = [merton_value(0.0, x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        ts = np.linspace(0.0, 1.0, 9)
        vals_t = [merton_value(t, 1.3) for t in ts]
        assert all(b < a for a, b in zip(vals_t, vals_t[1:]))


    @pytest.mark.parametrize("bound", [-1.0, math.nan])
    def test_a_bound_below_zero_or_nan_is_refused(self, bound):
        """B = -1 clamped u* into the empty [1, -1], picking u = -1 (0.9465 at (0, 1)),
        and B = nan gave the unbounded value 1.1331."""
        with pytest.raises(ValueError, match="bound must be at least 0"):
            merton_value(0.0, 1.0, bound=bound)

    def test_an_infinite_bound_gives_the_unclamped_control(self):
        assert merton_optimal_control(0.1, 0.2, 0.5, math.inf) == merton_optimal_control(0.1, 0.2, 0.5, 10.0)


class TestHeatValue:
    def test_affine_is_martingale(self):
        assert heat_value(0.2, 1.7, payoff="affine", slope=3.0, intercept=-1.0) == pytest.approx(
            3.0 * 1.7 - 1.0
        )

    def test_square_moment_identity(self):
        assert heat_value(0.0, 0.0, sigma_const=1.0, payoff="x2", horizon=1.0) == pytest.approx(1.0)
        assert heat_value(1.0, 3.0, payoff="x2") == pytest.approx(9.0)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            heat_value(0.0, 1.0, payoff="x4")


def refined_reference(problem, terminal, config):
    """The once-refined solve a convergence study compares against, on the
    coarse nodes: the terminal from `refined_terminals`, twice the time steps."""
    fine = refined_terminals(problem, terminal, 1)[-1]
    sol = hk.solve_hjb(problem, fine, replace(config, n_time_nodes=2 * config.n_time_nodes - 1))
    return sol.values[0][tuple(slice(None, None, 2) for _ in range(terminal.grid.dim))]


class TestDenseReference:
    def test_constant_payoff(self):
        prob = hk.heat_problem(payoff=hk.problem.constant_payoff(3.0))
        grid = hk.uniform_grid([-2.0], [2.0], [21])
        term = hk.GridFunction(grid, np.full(21, 3.0))
        ref = refined_reference(prob, term, hk.SchemeConfig(n_time_nodes=11))
        assert np.max(np.abs(ref - 3.0)) < 1e-12

    def test_heat_case_matches_closed_form(self, heat_problem):
        grid = hk.uniform_grid([-6.0], [6.0], [101])
        x = grid.axes[0]
        term = hk.GridFunction(grid, x**2)
        ref = refined_reference(heat_problem, term, hk.SchemeConfig(n_time_nodes=26))
        trust = (x >= -3.6) & (x <= 3.6)
        closed = x**2 + 1.0
        assert np.max(np.abs(ref - closed)[trust]) < 1e-2

    @pytest.mark.parametrize("variant", ["constraint", "dt"])
    def test_variant_is_solved_not_recalled(self, heat_problem, variant):
        # a solve of the plain problem first, then one differing only in the
        # constraint or in dt: the second must be its own fine solve
        grid = hk.uniform_grid([-4.0], [4.0], [41])
        term = hk.GridFunction(grid, grid.axes[0] ** 2)
        cfg = hk.SchemeConfig(n_time_nodes=11)
        refined_reference(heat_problem, term, cfg)
        prob = heat_problem
        if variant == "constraint":
            prob = replace(heat_problem, constraint=neg_second_constraint())
        else:
            cfg = replace(cfg, dt=0.001)
        ref = refined_reference(prob, term, cfg)
        fine = grid.refine()
        direct = hk.solve_hjb(
            prob, hk.GridFunction(fine, fine.axes[0] ** 2), replace(cfg, n_time_nodes=21)
        )
        np.testing.assert_array_equal(ref, direct.values[0][::2])

    def test_given_terminal_is_refined_not_the_payoff(self, heat_problem):
        # heat maps an affine terminal to itself; the quadratic payoff would not
        grid = hk.uniform_grid([-4.0], [4.0], [41])
        affine = 0.5 * grid.axes[0] + 1.0
        ref = refined_reference(heat_problem, hk.GridFunction(grid, affine), hk.SchemeConfig(n_time_nodes=11))
        assert np.max(np.abs(ref - affine)) < 1e-12

    def test_merton_within_band(self, merton_problem):
        grid = hk.log_grid(0.2, 5.0, 81)
        x = grid.axes[0]
        term = hk.GridFunction(grid, np.sqrt(x))
        ref = refined_reference(
            merton_problem, term, hk.SchemeConfig(n_time_nodes=26, control_grid_resolution=51)
        )
        k = int(np.argmin(np.abs(x - 1.0)))
        assert ref[k] == pytest.approx(merton_value(0.0, x[k]), rel=0.02)
