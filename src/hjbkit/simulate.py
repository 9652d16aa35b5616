"""Euler-Maruyama simulation of the controlled state under feedback policies.

Controls are frozen on each time step at u(t_n, X_n), which realizes a
predictable admissible control of the declared bound.  Paths that step out of
the domain (or an optional simulation box) are stopped at the pre-exit state
and flagged; nothing is reflected or resampled, so discretization leakage is
visible in the exit fraction.  Problems with proportional coefficients on
(0, inf) are advanced in log coordinates, which preserves positivity and makes
each step exact in distribution for frozen controls.

Noise is drawn from a counter-based Philox stream keyed by the seed; path p
consumes the counter block laid out as row p of the (n_paths, n_steps, d')
normal array, so ensembles are reproducible bit for bit and reductions are
fixed-order.  The draw is taken a block of paths at a time and stored step by
step, as (n_steps, n_paths, d'), so each Euler step reads one contiguous row.
States are stored the same way, as (n_steps + 1, n_paths, d); an ensemble
holds the (n_paths, n_steps + 1, d) view of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FeedbackPolicy",
    "constant_policy",
    "PathEnsemble",
    "ValueEstimate",
    "simulate_paths",
    "estimate_value",
]


@dataclass(frozen=True)
class FeedbackPolicy:
    """Bounded measurable control rule u(t, x).

    rule(t, X) must accept X of shape (n, d) and return (n, k); bound is the
    declared sup-norm bound on the values.
    """

    rule: object
    bound: float
    tag: str = "analytic"

    def __call__(self, t, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        vals = np.asarray(self.rule(t, np.atleast_2d(x)), dtype=float)
        return vals[0] if single else vals


def constant_policy(u) -> FeedbackPolicy:
    u = np.atleast_1d(np.asarray(u, dtype=float))

    def rule(t, x):
        return np.broadcast_to(u, (x.shape[0], u.size)).copy()

    return FeedbackPolicy(rule=rule, bound=float(np.max(np.abs(u))), tag="constant")


def piecewise_constant_policy(breakpoints, controls) -> FeedbackPolicy:
    """Time-staircase policy: controls[i] on [breakpoints[i], breakpoints[i+1])."""
    breakpoints = np.asarray(breakpoints, dtype=float)
    controls = np.atleast_2d(np.asarray(controls, dtype=float))

    def rule(t, x):
        i = int(np.clip(np.searchsorted(breakpoints, t, side="right") - 1, 0, len(controls) - 1))
        return np.broadcast_to(controls[i], (x.shape[0], controls.shape[1])).copy()

    return FeedbackPolicy(rule=rule, bound=float(np.max(np.abs(controls))), tag="piecewise-constant")


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths with exit bookkeeping; frozen at the pre-exit state."""

    times: np.ndarray            # (n_steps+1,)
    states: np.ndarray           # (n_paths, n_steps+1, d)
    exit_step: np.ndarray        # (n_paths,) step index at which the path froze, -1 if none
    log_coordinates: bool

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def exit_fraction(self) -> float:
        return float(np.mean(self.exit_step >= 0))

    def terminal_states(self) -> np.ndarray:
        return self.states[:, -1, :]


def _use_log_coordinates(problem) -> bool:
    return (
        problem.family == "linear_drift"
        and problem.state_dim == 1
        and problem.state_domain.lo[0] == 0.0
        and not np.isfinite(problem.state_domain.hi[0])
    )


_NOISE_CHUNK = 1024   # paths per noise draw


def _step_major_noise(rng, n_paths: int, n_steps: int, dprime: int) -> np.ndarray:
    """The (n_paths, n_steps, d') standard normal draw, stored as (n_steps, n_paths, d').

    Drawn a block of paths at a time, so path p still consumes row p's counter
    block; transposing the whole draw at once would hold a second noise-sized
    array.
    """
    Z = np.empty((n_steps, n_paths, dprime))
    for a in range(0, n_paths, _NOISE_CHUNK):
        b = min(a + _NOISE_CHUNK, n_paths)
        Z[:, a:b] = rng.standard_normal((b - a, n_steps, dprime)).transpose(1, 0, 2)
    return Z


def _all_inside(X, lo, hi, box) -> bool:
    """Whether every row of X lies in the open domain and the closed box."""
    mins, maxs = X.min(axis=0), X.max(axis=0)
    inside = bool(np.all(mins > lo) and np.all(maxs < hi))
    if box is not None:
        inside = inside and bool(np.all(mins >= box.lo) and np.all(maxs <= box.hi))
    return inside


def simulate_paths(
    problem,
    policy: FeedbackPolicy,
    t0: float,
    x0,
    n_paths: int,
    n_steps: int,
    seed: int,
    simulation_box=None,
) -> PathEnsemble:
    """Euler-Maruyama ensemble from (t0, x0) to the horizon."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    problem.require_inside(x0)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    T = problem.horizon
    if not t0 < T:
        raise ValueError("t0 must precede the end time")
    dt = (T - t0) / n_steps
    sqdt = np.sqrt(dt)
    d, dprime = problem.state_dim, problem.noise_dim
    times = t0 + dt * np.arange(n_steps + 1)

    # states before noise: the draw's block temporaries then sit on top of both
    # arrays, so a second noise-sized buffer shows in the peak memory
    states = np.empty((n_steps + 1, n_paths, d))
    states[0] = x0
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    Z = _step_major_noise(rng, n_paths, n_steps, dprime)

    log_mode = _use_log_coordinates(problem)
    if log_mode:
        mu, sig = problem.params.get("mu"), problem.params.get("sigma")
        drift, vol, sq = np.empty(n_paths), np.empty(n_paths), np.empty(n_paths)

    exit_step = np.full(n_paths, -1, dtype=int)
    active = np.ones(n_paths, dtype=bool)
    all_active = True
    lo, hi = problem.state_domain.lo, problem.state_domain.hi
    B = problem.control_bound

    for n in range(n_steps):
        t = times[n]
        X, X_new = states[n], states[n + 1]
        X.flags.writeable = False
        U = np.asarray(policy.rule(t, X), dtype=float).reshape(n_paths, -1)
        if np.max(np.abs(U)) > B + 1e-9:
            raise ValueError(
                f"policy value exceeds the admissibility bound {B} at step {n}"
            )
        if log_mode:
            # dY = (u mu - 0.5 (u sig)^2) dt + ((u sig) sqdt) Z, in this order
            u = U[:, 0]
            np.multiply(u, mu, out=drift)
            np.multiply(u, sig, out=vol)
            np.square(vol, out=sq)
            sq *= 0.5
            drift -= sq
            drift *= dt
            vol *= sqdt
            vol *= Z[n, :, 0]
            drift += vol
            np.exp(drift, out=drift)
            np.multiply(X[:, 0], drift, out=X_new[:, 0])
        else:
            b = np.asarray(problem.drift(t, X, U), dtype=float).reshape(n_paths, d)
            s = np.asarray(problem.diffusion(t, X, U), dtype=float).reshape(n_paths, d, dprime)
            np.add(X + b * dt, np.einsum("nij,nj->ni", s, sqdt * Z[n]), out=X_new)

        if all_active and _all_inside(X_new, lo, hi, simulation_box):
            continue
        inside = np.all(X_new > lo, axis=1) & np.all(X_new < hi, axis=1)
        if simulation_box is not None:
            inside &= np.all(X_new >= simulation_box.lo, axis=1) & np.all(
                X_new <= simulation_box.hi, axis=1
            )
        exit_step[active & ~inside] = n
        active &= inside
        all_active = False
        np.copyto(X_new, X, where=~active[:, None])

    return PathEnsemble(
        times=times,
        states=states.swapaxes(0, 1),
        exit_step=exit_step,
        log_coordinates=log_mode,
    )


@dataclass(frozen=True)
class ValueEstimate:
    mean: float
    half_width_95: float
    exit_fraction: float
    n_paths: int


def estimate_value(ensemble: PathEnsemble, payoff) -> ValueEstimate:
    """Sample mean of g at the terminal (or stopped) states with a normal CI."""
    xT = ensemble.terminal_states()
    g = np.asarray(payoff(xT), dtype=float)
    mean = float(np.mean(g))
    se = float(np.std(g, ddof=1) / np.sqrt(len(g))) if len(g) > 1 else 0.0
    return ValueEstimate(mean, 1.96 * se, ensemble.exit_fraction, len(g))
