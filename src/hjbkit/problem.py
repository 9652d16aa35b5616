"""Control-problem data model, the built-in coefficient families and the problem builder.

A ControlProblem packages the time-homogeneous coefficients b and sigma of
the controlled diffusion dX = b(X,u) dt + sigma(X,u) dW on an open box
domain, the terminal payoff g with its gauge psi, the admissible control box
and the constraint function G whose non-negativity marks where the Hamiltonian

    H(x,p,M) = sup_u [ b(x,u).p + 1/2 Tr(sigma sigma^T M) ]

is finite.  Coefficient callables must broadcast over the leading axes of x
and u:  drift(x, u) -> (..., d),  diffusion(x, u) -> (..., d, d').  Payoff
and gauge are plain functions of the state:  g(x) -> (...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial, reduce

import numpy as np

from .errors import ConfigurationError, DomainError
from .grids import Box, box_from_pairs


def power_payoff(p: float):
    return lambda x: np.maximum(x[..., 0], 0.0) ** p


def quadratic_payoff():
    return lambda x: np.sum(x * x, axis=-1)


def abs_payoff(center: float = 1.0):
    return lambda x: np.abs(x[..., 0] - center)


def affine_payoff(slope: float = 1.0, intercept: float = 0.0):
    return lambda x: slope * x[..., 0] + intercept


def constant_payoff(c: float):
    return lambda x: np.full(x.shape[:-1], float(c))


def one_plus_square_gauge():
    return lambda x: 1.0 + np.sum(x * x, axis=-1)


def power_gauge(p: float):
    return lambda x: np.maximum(x[..., 0], 1e-300) ** p


_CONSTRAINT_FAMILIES = ("neg_second", "neg_trace", "positive_const")


@dataclass(frozen=True)
class Constraint:
    """Constraint function G(t, x, p, M) of family neg_second, neg_trace or positive_const:
    minus the sum of M's diagonal over ``second_difference_axes(dim)``, or a
    positive constant where there is none.  ``fn`` is not read by hjbkit and is
    kept so that code rebuilding a constraint from (fn, family, params) still works."""

    fn: object
    family: str
    params: tuple = ()

    def __post_init__(self):
        if self.family not in _CONSTRAINT_FAMILIES:
            raise ConfigurationError(
                f"unknown constraint family {self.family!r}; expected one of {', '.join(_CONSTRAINT_FAMILIES)}")

    def second_difference_axes(self, dim) -> tuple:
        """The axes k of G = -(sum over k of d2w/dx_k^2) on a dim-dimensional
        state; none for a positive constant G."""
        return {"neg_second": (0,), "neg_trace": tuple(range(dim))}.get(self.family, ())

    def on_nodes(self, t, X, P, M):
        """Vectorized G over nodes: X (n,d), P (n,d), M (n,d,d) -> (n,)."""
        axes = self.second_difference_axes(X.shape[1])
        if axes:
            return -reduce(np.add, (M[:, k, k] for k in axes))
        return np.full(X.shape[0], dict(self.params)["c"])


def neg_second_constraint() -> Constraint:
    """G = -M (one state dimension): encodes concavity of the terminal layer."""
    return Constraint(None, "neg_second")


def neg_trace_constraint() -> Constraint:
    return Constraint(None, "neg_trace")


def positive_constraint(c: float = 1.0) -> Constraint:
    if c <= 0:
        raise ValueError("positive_constraint needs c > 0")
    return Constraint(None, "positive_const", (("c", c),))


@dataclass(frozen=True)
class ControlProblem:
    """One stochastic optimal-control instance: maximize E[g(X_T)] over controls
    in the box ``controls``, which the solver, the simulator and the certifier read.
    ``family`` is the one tag, and only the simulator reads it: see simulate."""

    drift: object
    diffusion: object
    noise_dim: int
    state_domain: Box
    controls: Box
    horizon: float
    payoff: object
    gauge: object
    constraint: Constraint
    family: str = "custom"

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be finite and positive")
        if not np.all(self.state_domain.lo < self.state_domain.hi):
            raise ValueError("state domain must be a nonempty open box")
        if self.controls.dim == 0 or not np.all(np.isfinite([self.controls.lo, self.controls.hi])):
            raise ValueError(f"controls {self.controls.pairs()} must be a nonempty box with finite edges")

    @property
    def state_dim(self) -> int:
        return self.state_domain.dim

    @property
    def control_dim(self) -> int:
        return self.controls.dim

    def require_inside(self, x):
        if np.size(x) != self.state_dim:
            raise DomainError(f"state {x} has {np.size(x)} coordinates; the problem has {self.state_dim}")
        if not self.state_domain.contains(x):
            raise DomainError(f"state {x} outside the open domain")

    def require_box_inside(self, box: Box, name: str):
        """Refuse `box`, a grid's or a certifier's start box, unless its edges are
        finite and it lies in the closure of the state domain."""
        if box.dim != self.state_dim:
            raise ConfigurationError(f"{name}: {box.dim} dimensions; the problem has {self.state_dim}")
        if not np.all(np.isfinite([box.lo, box.hi])):
            raise ConfigurationError(f"{name} must have finite edges")
        if not self.state_domain.contains_box(box):
            raise ConfigurationError(f"{name} must lie inside the state domain")

    def within(self, box: Box) -> ControlProblem:
        """The problem on the open box state_domain ∩ box: a path simulated on it stops where it leaves either."""
        if box.dim == self.state_dim:
            lo, hi = np.maximum(self.state_domain.lo, box.lo), np.minimum(self.state_domain.hi, box.hi)
            if np.all(lo < hi):
                return replace(self, state_domain=Box(lo, hi))
        raise ConfigurationError(f"box {box.pairs()} misses the state domain {self.state_domain.pairs()}")

    def control_grid(self, resolution: int) -> np.ndarray:
        """Uniform grid of the admissible box: `resolution` nodes on each axis of positive width."""
        axes = [np.linspace(a, c, resolution) if c > a else np.array([a])
                for a, c in zip(self.controls.lo, self.controls.hi)]
        return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


# ---------------------------------------------------------------------------
# Built-in coefficient families and the one problem builder
# ---------------------------------------------------------------------------

def _control_scaled_maps(scale, mu, sigma):
    """b = u mu scale(x) and sigma = u sigma scale(x), one state and one noise dimension."""
    mu, sigma = float(mu), float(sigma)

    def drift(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return mu * u[..., :1] * scale(x)

    def diffusion(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return (sigma * u[..., :1] * scale(x))[..., None]

    return drift, diffusion, (1, 1)


def _constant_maps(b0, s0):
    b0 = np.atleast_1d(np.asarray(b0, dtype=float))
    s0 = np.atleast_2d(np.asarray(s0, dtype=float))

    def drift(x, u):
        x = np.asarray(x, dtype=float)
        return np.ones_like(x) * b0

    def diffusion(x, u):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(s0, x.shape[:-1] + s0.shape).copy()

    return drift, diffusion, (b0.size, s0.shape[1])


# family -> maps(**params) -> (drift, diffusion, (state_dim, noise_dim))
_COEFFICIENT_FAMILIES = {
    "linear_drift": partial(_control_scaled_maps, lambda x: x),
    "proportional_control": partial(_control_scaled_maps, np.ones_like),
    "constant": _constant_maps,
}


def build_problem(
    family: str,
    params: dict,
    state_domain,
    control_bound: float,
    horizon: float,
    payoff,
    gauge,
    constraint: Constraint,
    control_set=None,
) -> ControlProblem:
    """A problem with built-in coefficients: the one place a ControlProblem is made.

    ``state_domain`` holds one (lo, hi) pair per state dimension and
    ``control_set`` a list of one box in the same form, with None for an
    infinite edge; the box defaults to {0} for ``constant`` coefficients and
    to the whole line otherwise, and its part within the bound is ``controls``.
    The state and noise dimensions follow from the family and its parameters.
    """
    if family not in _COEFFICIENT_FAMILIES:
        raise ConfigurationError(f"unknown coefficient family {family!r}")
    drift, diffusion, (state_dim, noise_dim) = _COEFFICIENT_FAMILIES[family](**params)
    if control_set is None:
        control_set = [[(0.0, 0.0)]] if family == "constant" else [[(None, None)]]
    held = len(control_set) if isinstance(control_set, (list, tuple)) else repr(control_set)
    if held != 1:
        raise ConfigurationError(f"control_set must hold one box, not {held}")
    B = float(control_bound)
    control_set = box_from_pairs(control_set[0], "control_set")
    state_domain = box_from_pairs(state_domain, "state_domain")
    if not (B >= 0 and math.isfinite(B)):
        raise ValueError("control bound must be finite and >= 0")
    if state_domain.dim != state_dim:
        raise ValueError(f"state_domain {state_domain.pairs()} is not {state_dim}-dimensional")
    # in this order, so a {0} control set keeps its -0.0 under a zero bound
    lo, hi = np.maximum(control_set.lo, -B), np.minimum(control_set.hi, B)
    if control_set.dim == 0 or np.any(lo > hi):
        raise ConfigurationError(f"control_set {control_set.pairs()} has no control within the bound {B}")
    return ControlProblem(
        drift=drift,
        diffusion=diffusion,
        noise_dim=noise_dim,
        state_domain=state_domain,
        controls=Box(lo, hi),
        horizon=float(horizon),
        payoff=payoff,
        gauge=gauge,
        constraint=constraint,
        family=family,
    )


def merton_problem(
    mu: float = 0.1,
    sigma: float = 0.2,
    p: float = 0.5,
    horizon: float = 1.0,
    bound: float = 10.0,
) -> ControlProblem:
    """Power-utility wealth problem: dX = u mu X dt + u sigma X dW on (0, inf).

    The control is the proportion of wealth at risk, so the state never leaves
    the domain for any bounded control.
    """
    return build_problem(
        family="linear_drift",
        params={"mu": mu, "sigma": sigma},
        state_domain=[(0.0, None)],
        control_bound=bound,
        horizon=horizon,
        payoff=power_payoff(p),
        gauge=power_gauge(p),
        constraint=neg_second_constraint(),
    )


def proportional_control_problem(
    mu: float = 1.0,
    sigma: float = 1.0,
    bound: float = 1.0,
    payoff=None,
    horizon: float = 1.0,
    constraint: Constraint | None = None,
) -> ControlProblem:
    """Additive control model on the whole line: dX = u mu dt + u sigma dW."""
    return build_problem(
        family="proportional_control",
        params={"mu": mu, "sigma": sigma},
        state_domain=[(None, None)],
        control_bound=bound,
        horizon=horizon,
        payoff=payoff if payoff is not None else quadratic_payoff(),
        gauge=one_plus_square_gauge(),
        constraint=constraint if constraint is not None else neg_second_constraint(),
    )


def heat_problem(
    sigma: float = 1.0,
    horizon: float = 1.0,
    payoff=None,
    dim: int = 1,
) -> ControlProblem:
    """Uncontrolled diffusion dX = sigma dW with a compact (singleton) control set."""
    return constant_coefficient_problem(np.zeros(dim), sigma * np.eye(dim), horizon, payoff)


def constant_coefficient_problem(
    b0,
    s0,
    horizon: float = 1.0,
    payoff=None,
    constraint: Constraint | None = None,
) -> ControlProblem:
    return build_problem(
        family="constant",
        params={"b0": b0, "s0": s0},
        state_domain=[(None, None)] * np.size(b0),
        control_bound=0.0,
        horizon=horizon,
        payoff=payoff if payoff is not None else quadratic_payoff(),
        gauge=one_plus_square_gauge(),
        constraint=constraint if constraint is not None else positive_constraint(1.0),
    )
