"""Closed-form and over-refined reference values anchoring the test suite.

The power-utility closed form was re-derived from scratch: with wealth
dynamics dX = u mu X dt + u sigma X dW and payoff x^p, Ito gives
E[X_T^p] = x^p exp(Lambda_B (T - t)) under the best constant control, where

    Lambda_B = max_{|u| <= B} [ p u mu - 1/2 p (1 - p) u^2 sigma^2 ].

The quadratic in u is maximized at u* = mu / ((1 - p) sigma^2), clamped to
the admissibility box when it falls outside.  A fine-grid maximization of the
same quadratic is used as an independent cross-check in the tests.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import DomainError
from .grids import GridFunction

__all__ = [
    "merton_optimal_control",
    "merton_lambda",
    "merton_value",
    "heat_value",
    "dense_reference",
]


def merton_optimal_control(mu: float, sigma: float, p: float, bound: float) -> float:
    """Clamped maximizer of p u mu - 1/2 p (1-p) u^2 sigma^2 over [-B, B]."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not 0 < p < 1:
        raise ValueError("power must satisfy 0 < p < 1")
    u_star = mu / ((1.0 - p) * sigma * sigma)
    return float(min(max(u_star, -bound), bound))


def merton_lambda(mu: float, sigma: float, p: float, bound: float) -> float:
    u = merton_optimal_control(mu, sigma, p, bound)
    return p * u * mu - 0.5 * p * (1.0 - p) * u * u * sigma * sigma


def merton_value(
    t: float,
    x: float,
    mu: float = 0.1,
    sigma: float = 0.2,
    p: float = 0.5,
    horizon: float = 1.0,
    bound: float = 10.0,
    exponent_shift: float = 0.0,
) -> float:
    """x^p exp((Lambda_B + shift)(T - t)); the shift builds perturbed candidates."""
    if x <= 0:
        raise DomainError("wealth must be positive")
    if not 0 <= t <= horizon:
        raise ValueError("t must lie in [0, horizon]")
    lam = merton_lambda(mu, sigma, p, bound) + exponent_shift
    return x**p * math.exp(lam * (horizon - t))


def heat_value(
    t: float,
    x,
    sigma_const: float = 1.0,
    payoff: str = "x2",
    horizon: float = 1.0,
    slope: float = 1.0,
    intercept: float = 0.0,
) -> float:
    """Feynman-Kac value for dX = sigma dW: moment identity for x^2, identity for affine."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if payoff == "x2":
        return float(np.sum(x * x) + sigma_const**2 * x.size * (horizon - t))
    if payoff == "affine":
        return float(slope * x[0] + intercept)
    raise ValueError(f"unsupported payoff tag {payoff!r}")


def dense_reference(problem, terminal: GridFunction, fine_factor: int = 2, config=None) -> GridFunction:
    """Solve on a fine_factor-refined grid, restricted back to the coarse nodes.

    The fine terminal comes from `solver.refined_terminals`: the payoff
    resampled when the terminal equals it, the terminal interpolated otherwise.
    """
    from .solver import SchemeConfig, refined_terminals, solve_hjb

    if fine_factor < 2 or fine_factor & (fine_factor - 1):
        raise ValueError("fine_factor must be a power of two >= 2")
    if config is None:
        config = SchemeConfig()
    levels = fine_factor.bit_length() - 1
    fine_term = refined_terminals(problem, terminal, levels)[-1]
    fine_config = replace(config, n_time_nodes=(config.n_time_nodes - 1) * fine_factor + 1)
    sol = solve_hjb(problem, fine_term, fine_config)
    stride = tuple(slice(None, None, fine_factor) for _ in range(terminal.grid.dim))
    return GridFunction(terminal.grid, sol.values[0][stride])
