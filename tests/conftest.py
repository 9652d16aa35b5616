"""Shared fixtures; the expensive Merton solve is session-scoped and reused."""

import numpy as np
import pytest

import hjbkit as hk
from hjbkit import simulate

MERTON = dict(mu=0.1, sigma=0.2, p=0.5, horizon=1.0, bound=10.0)


@pytest.fixture(scope="session")
def merton_problem():
    return hk.merton_problem(**MERTON)


@pytest.fixture(scope="session")
def heat_problem():
    return hk.heat_problem(sigma=1.0, horizon=1.0)


@pytest.fixture(scope="session")
def merton_grid():
    return hk.log_grid(0.2, 5.0, 400)


@pytest.fixture(scope="session")
def merton_terminal(merton_problem, merton_grid):
    vals = merton_problem.payoff(merton_grid.nodes()).reshape(merton_grid.shape)
    return hk.GridFunction(merton_grid, vals)


@pytest.fixture(scope="session")
def merton_solution(merton_problem, merton_terminal):
    """The 400 x 200 node, 201-control solve shared by the acceptance tests."""
    config = hk.SchemeConfig(n_time_nodes=200, control_grid_resolution=201)
    return hk.solve_hjb(merton_problem, merton_terminal, config)


@pytest.fixture(scope="session")
def coarse_merton_solution(merton_problem):
    """Cheap solve whose extracted policy serves as the strongest adversary."""
    grid = hk.log_grid(0.2, 5.0, 80)
    vals = merton_problem.payoff(grid.nodes()).reshape(grid.shape)
    config = hk.SchemeConfig(n_time_nodes=40, control_grid_resolution=81)
    return hk.solve_hjb(merton_problem, hk.GridFunction(grid, vals), config)


@pytest.fixture
def noise_draws(monkeypatch):
    """The (shape, seed key) of every Philox noise draw made in the test, in order."""
    draws = []
    fill = simulate._fill_noise

    def recording(Z, seed):
        draws.append((Z.shape, seed))
        fill(Z, seed)

    monkeypatch.setattr(simulate, "_fill_noise", recording)
    return draws
