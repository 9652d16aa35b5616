"""Closed-form reference values: the Merton power-utility value and heat moments.

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

import numpy as np

from .errors import DomainError

__all__ = [
    "merton_optimal_control",
    "merton_lambda",
    "merton_value",
    "heat_value",
]


def merton_optimal_control(mu: float, sigma: float, p: float, bound: float) -> float:
    """Clamped maximizer of p u mu - 1/2 p (1-p) u^2 sigma^2 over [-B, B]."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not 0 < p < 1:
        raise ValueError("power must satisfy 0 < p < 1")
    if not bound >= 0:
        raise ValueError("bound must be at least 0")
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
) -> float:
    """x^p exp(Lambda_B (T - t))."""
    if x <= 0:
        raise DomainError("wealth must be positive")
    if not 0 <= t <= horizon:
        raise ValueError("t must lie in [0, horizon]")
    lam = merton_lambda(mu, sigma, p, bound)
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
