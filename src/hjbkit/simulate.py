"""Euler-Maruyama simulation of the controlled state under feedback policies.

Controls are frozen on each time step at u(t_n, X_n), a predictable control
that must lie in the problem's admissible box.  Paths that step out of the
open domain, which ``problem.within(box)`` narrows to a truncation box, stop
at the pre-exit state and are flagged; nothing is reflected or resampled, so
leakage shows in the exit fraction.  ``linear_drift`` coefficients, b and
sigma linear in x, on a domain in [0, inf) are advanced in log coordinates at
the rates of the problem's coefficients at x = 1, which keeps the state
positive and makes each step exact in distribution for frozen controls;
``proportional_control`` and ``constant`` coefficients do not read x, so their
Euler step is exact too (``_exact_step``).

Noise is drawn from a counter-based Philox stream keyed by the seed, in
antithetic pairs: of n paths, an even count, path p < n/2 consumes the counter
block laid out as row p of the (n/2, n_steps, d') normal array, and path
p + n/2 takes the negated noise of path p.  So a block draws n/2 rows, its
ensembles are reproducible bit for bit and reductions are fixed-order.  An
estimate is the mean over all n paths of a block, and its standard error
comes from the block's n/2 i.i.d. pair means (x[j] + x[j + n/2]) / 2, since
the values of paths j and j + n/2 are dependent.  The draw is taken a block
of paths at a time and stored step by step, as (n_steps, n_paths, d'), so
each Euler step reads one contiguous row.
States are not stored: the Euler loop holds the current row and the next, and
keeps only what the caller asks for, the state at each stop (a fixed step
index, or the first step at which a predicate holds) and the terminal state.
So the noise is O(paths x steps) per start, and the states O(paths x stops).

One call may run several blocks of paths over R starts, each start with its
own Philox key and one draw: m policies, m a multiple of R, and block b runs
policy b from start b mod R on that start's draw.  So the bracket's policies
at one point (R = 1) and the certifier's (adversary, start) blocks at one tau
(policy-major, every adversary on each start's one draw) are one rule.  Each
block gets the bits it would get alone.  One Euler loop, ``_euler``, advances
each run of consecutive blocks that share a policy and take consecutive
starts, on the one slice of the noise that those starts drew.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import ge, le

import numpy as np

from .errors import ConfigurationError, NumericalError

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
    """Measurable control rule u(t, x).

    rule(t, X) must accept X of shape (n, d) and return (n, k), or (1, k)
    when the control does not depend on x, one row for every state.  The
    simulator refuses a row that is not k wide or leaves the problem's
    admissible box.  Calling the policy broadcasts a one-row rule to (n, k).
    """

    rule: object
    tag: str = field(default="analytic", kw_only=True)

    def __call__(self, t, x):
        x = np.asarray(x, dtype=float)
        X = np.atleast_2d(x)
        vals = np.asarray(self.rule(t, X), dtype=float)
        if vals.shape[:1] == (1,):
            vals = np.broadcast_to(vals, X.shape[:1] + vals.shape[1:])
        return vals[0] if x.ndim == 1 else vals


def _read_only_rows(a) -> np.ndarray:
    rows = np.array(a, dtype=float, ndmin=2)
    rows.flags.writeable = False
    return rows


def constant_policy(u) -> FeedbackPolicy:
    """The control u at every state and time; its rule returns the one row (1, k)."""
    row = _read_only_rows(u)

    def rule(t, x):
        return row

    return FeedbackPolicy(rule, tag="constant")


def piecewise_constant_policy(breakpoints, controls) -> FeedbackPolicy:
    """Time-staircase policy: controls[i] on [breakpoints[i], breakpoints[i+1]);
    its rule returns the one row (1, k) of the current step."""
    breakpoints = np.asarray(breakpoints, dtype=float)
    controls = _read_only_rows(controls)

    def rule(t, x):
        i = min(max(int(np.searchsorted(breakpoints, t, side="right")) - 1, 0), len(controls) - 1)
        return controls[i:i + 1]

    return FeedbackPolicy(rule, tag="piecewise-constant")


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths with exit bookkeeping; frozen at the pre-exit state.

    states holds each path's state at each stop of the call and then its
    terminal state; a predicate stop that never held holds the terminal state.
    """

    times: np.ndarray            # (n_steps+1,)
    states: np.ndarray           # (n_paths, n_stops+1, d)
    exit_step: np.ndarray        # (n_paths,) step index at which the path froze, -1 if none
    stop_step: np.ndarray        # (n_paths, n_stops) step of each stop, -1 where a predicate never held
    log_coordinates: bool
    n_blocks: int = 1            # equal blocks of paths, one per start and policy

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def exit_fraction(self) -> float:
        return float(np.mean(self.exit_step >= 0))

    def terminal_states(self) -> np.ndarray:
        return self.states[:, -1, :]

    def blocks(self) -> tuple:
        """Each block as a one-block ensemble of views."""
        n = self.n_paths // self.n_blocks
        return tuple(
            PathEnsemble(self.times, self.states[a:a + n], self.exit_step[a:a + n], self.stop_step[a:a + n],
                         self.log_coordinates)
            for a in range(0, self.n_paths, n)
        )


def _use_log_coordinates(problem) -> bool:
    return problem.family == "linear_drift" and problem.state_dim == 1 and bool(problem.state_domain.lo[0] >= 0.0)


def _exact_step(problem) -> bool:
    """Whether a step with its control held is exact in distribution: in log
    coordinates, or for a family whose b and sigma do not read x."""
    return _use_log_coordinates(problem) or problem.family in ("proportional_control", "constant")


_NOISE_CHUNK = 1024   # paths per noise draw


def _fill_noise(Z, seed) -> None:
    """Z[:] = the antithetic noise of `seed` for Z of shape (n_steps, n_paths,
    d'), n_paths even: path p < n_paths/2 takes row p of the (n_paths/2,
    n_steps, d') standard normal draw of `seed`, and path p + n_paths/2 its
    negation.

    Drawn a block of paths at a time into one reused chunk buffer, so path p
    still consumes row p's counter block; transposing the whole draw at once
    would hold a second noise-sized array.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    n_steps, n_paths, dprime = Z.shape
    half = n_paths // 2
    chunk = np.empty((min(_NOISE_CHUNK, half), n_steps, dprime))
    for a in range(0, half, _NOISE_CHUNK):
        b = min(a + _NOISE_CHUNK, half)
        block = rng.standard_normal(out=chunk[:b - a])
        Z[:, a:b] = block.transpose(1, 0, 2)
    np.negative(Z[:, :half], out=Z[:, half:])


def _blocks(problem, policy, x0, seed):
    """The starts (R, d) and their seed keys, the block count m, and the runs
    (policy, first block, end block) that one Euler loop each advances."""
    x0 = np.asarray(x0, dtype=float)
    starts, keys = (np.atleast_1d(x0)[None, :], [seed]) if x0.ndim <= 1 else (x0, list(seed))
    if len(keys) != len(starts):
        raise ValueError(f"{len(starts)} starts need as many seed keys, not {len(keys)}")
    for x in starts:
        problem.require_inside(x)
    policies = list(policy) if isinstance(policy, (list, tuple)) else [policy]
    R = len(starts)
    if len(policies) == 1:
        policies = policies * R
    if not policies or len(policies) % R:
        raise ValueError(f"{R} starts and {len(policies)} policies do not broadcast")
    runs = []
    for b, pol in enumerate(policies):
        # block b runs from start b mod R; it joins the run before it on the
        # same policy and the next start, so a run reads one slice of the noise
        if runs and runs[-1][0] is pol and b % R:
            runs[-1][2] = b + 1
        else:
            runs.append([pol, b, b + 1])
    return starts, keys, len(policies), runs


def _split_stops(stops, n_steps):
    """The stop slots of each step index, {step: [slot, ...]}, and the (slot,
    predicate) pairs of the predicate stops."""
    at_step, predicates = {}, []
    for i, stop in enumerate(stops):
        if callable(stop):
            predicates.append((i, stop))
        elif isinstance(stop, (int, np.integer)) and not isinstance(stop, bool) and 0 <= stop <= n_steps:
            at_step.setdefault(int(stop), []).append(i)
        else:
            raise ValueError(f"stop {stop!r} is neither a step index in [0, {n_steps}] nor a predicate")
    return at_step, predicates


def _euler(problem, policy, times, dt, X0, Z, exit_step, at_step, predicates, kept, stop_step) -> None:
    """Advance the start rows X0 over `times` with the step-major noise Z; a
    path that leaves the problem's open domain freezes at its pre-exit state,
    and exit_step records the step.

    Only the current row and the next are held.  kept[i] receives each path's
    state at stop i as the path reaches it, stop_step[i] the step at which
    predicate stop i first holds, and kept[-1] the terminal state.
    """
    n_paths, d = X0.shape
    dprime = Z.shape[2]
    sqdt = np.sqrt(dt)
    log_mode = _use_log_coordinates(problem)
    if log_mode:
        ones = np.broadcast_to(1.0, (n_paths, 1))   # x = 1 on every row: a read-only view that holds no memory
        drift, vol, sq = np.empty(n_paths), np.empty(n_paths), np.empty(n_paths)

    active = np.ones(n_paths, dtype=bool)
    all_active = True
    lo, hi = problem.state_domain.lo, problem.state_domain.hi
    k, u_lo, u_hi = problem.control_dim, (problem.controls.lo - 1e-9).tolist(), (problem.controls.hi + 1e-9).tolist()
    # the two rows, and read-only views of them for the policy, the coefficients and the predicates
    rows = (X0.copy(), np.empty_like(X0))
    views = tuple(r.view() for r in rows)
    for v in views:
        v.flags.writeable = False
    pending = [np.ones(n_paths, dtype=bool) for _ in predicates]

    def record(n, X):
        for i in at_step.get(n, ()):
            kept[i] = X
        for (i, pred), wait in zip(predicates, pending):
            if wait.any():
                hit = pred(X, X0) & wait
                if hit.any():
                    np.copyto(kept[i], X, where=hit[:, None])
                    # a row view, then a boolean index: numpy's mixed-index path is 5-7x slower
                    stop_step[i][hit] = n
                    wait ^= hit

    n_steps = len(times) - 1
    for n in range(n_steps):
        t = times[n]
        X, X_new = views[n % 2], rows[(n + 1) % 2]
        record(n, X)
        U = np.asarray(policy.rule(t, X), dtype=float)
        U = U.reshape(1 if U.shape[:1] == (1,) else n_paths, -1)
        if U.shape[1] != k:
            raise ConfigurationError(f"policy rows are {U.shape[1]} wide at step {n}; the problem has {k} controls")
        # false for a NaN control too; Python floats compare faster than one-element arrays
        if not (all(map(ge, U.min(axis=0).tolist(), u_lo)) and all(map(le, U.max(axis=0).tolist(), u_hi))):
            raise ConfigurationError(f"policy value is not finite or outside the admissible control box "
                                     f"{problem.controls.pairs()} at step {n}")
        if log_mode:
            # dY = (b - 0.5 s^2) dt + (s sqdt) Z, in this order, with b and s
            # the coefficients at x = 1 on U's rows, one when the policy does
            # not depend on x; sq then holds the step
            x1, drift_u, vol_u = ones[:len(U)], drift[:len(U)], vol[:len(U)]
            b = np.asarray(problem.drift(x1, U), dtype=float)[:, 0]
            s = np.asarray(problem.diffusion(x1, U), dtype=float)[:, 0, 0]
            np.square(s, out=drift_u)
            drift_u *= 0.5
            np.subtract(b, drift_u, out=drift_u)
            drift_u *= dt
            np.multiply(s, sqdt, out=vol_u)
            np.multiply(Z[n, :, 0], vol_u, out=sq)
            sq += drift_u
            np.exp(sq, out=sq)
            np.multiply(X[:, 0], sq, out=X_new[:, 0])
        else:
            U = np.broadcast_to(U, (n_paths, U.shape[1]))
            b = np.asarray(problem.drift(X, U), dtype=float).reshape(n_paths, d)
            s = np.asarray(problem.diffusion(X, U), dtype=float).reshape(n_paths, d, dprime)
            np.add(X + b * dt, np.einsum("nij,nj->ni", s, sqdt * Z[n]), out=X_new)

        if all_active and (X_new.min(axis=0) > lo).all() and (X_new.max(axis=0) < hi).all():
            continue
        inside = np.all(X_new > lo, axis=1) & np.all(X_new < hi, axis=1)
        exit_step[active & ~inside] = n
        active &= inside
        all_active = False
        np.copyto(X_new, X, where=~active[:, None])

    X = views[n_steps % 2]
    record(n_steps, X)
    kept[-1] = X
    for (i, _), wait in zip(predicates, pending):
        np.copyto(kept[i], X, where=wait[:, None])


def _require_pairs(n_paths):
    """Refuse an odd path count: its last path has no antithetic partner."""
    if n_paths % 2:
        raise ConfigurationError(f"n_paths must be even, since paths are drawn in antithetic pairs, not {n_paths!r}")


def _time_grid(t0, horizon, n_steps):
    """The simulation times t0 + n dt, n = 0..n_steps, and dt."""
    dt = (horizon - t0) / n_steps
    return t0 + dt * np.arange(n_steps + 1), dt


def simulate_paths(
    problem,
    policy: FeedbackPolicy | Sequence[FeedbackPolicy],
    t0: float,
    x0,
    n_paths: int,
    n_steps: int,
    seed,
    stops=(),
) -> PathEnsemble:
    """Euler-Maruyama ensemble from (t0, x0) to the horizon.

    One call runs m blocks of n_paths paths each.  x0 is one start (d,) with
    one seed key, or R starts (R, d) with a sequence of R seed keys; policy is
    one FeedbackPolicy, run from every start, or a sequence of m, m a multiple
    of R.  Block b runs policy b from start b mod R on that start's noise
    draw, so the m / R blocks of one start share it.  Block b holds paths
    b n_paths to (b + 1) n_paths - 1 and is bit for bit the one-block ensemble
    of its start, key and policy.  A seed key is anything SeedSequence takes:
    an int or a tuple of ints.  n_paths must be even: path p + n_paths/2 of a
    block runs on the negated noise of its path p (see the module docstring).

    Each stop is a step index in [0, n_steps], or a predicate pred(X, X0) on
    the rows of one Euler run: X holds the paths' states at a step and X0
    their starts, both (n, d), and it returns (n,) bools.  A path's predicate
    stop is the first step at which it holds, step 0 included.  The ensemble
    keeps each path's state at each stop and its terminal state, nothing more.

    The call holds O(n_paths x (len(stops) + 1)) states per block and
    O(n_paths x n_steps) noise per start, whatever the number of policies.
    """
    starts, keys, m, runs = _blocks(problem, policy, x0, seed)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, not {n_paths!r}")
    _require_pairs(n_paths)
    if not 0.0 <= t0 < problem.horizon:
        raise ValueError(f"t0 must lie in [0, {problem.horizon!r}), not {t0!r}")
    times, dt = _time_grid(t0, problem.horizon, n_steps)
    stops = tuple(stops)
    at_step, predicates = _split_stops(stops, n_steps)
    d, dprime, R = problem.state_dim, problem.noise_dim, len(starts)

    start_rows = np.empty((m * n_paths, d))
    start_rows.reshape(m // R, R, n_paths, d)[:] = starts[:, None, :]
    start_rows.flags.writeable = False
    kept = np.empty((len(stops) + 1, m * n_paths, d))
    stop_step = np.full((len(stops), m * n_paths), -1, dtype=int)
    for step, slots in at_step.items():
        stop_step[slots] = step
    # before the noise, so an ensemble kept after the call does not pin the noise's freed block
    exit_step = np.full(m * n_paths, -1, dtype=int)
    Z = np.empty((n_steps, R * n_paths, dprime))
    for r, key in enumerate(keys):
        _fill_noise(Z[:, r * n_paths:(r + 1) * n_paths], key)

    for pol, a, b in runs:
        rows, noise = slice(a * n_paths, b * n_paths), slice(a % R * n_paths, (a % R + b - a) * n_paths)
        _euler(problem, pol, times, dt, start_rows[rows], Z[:, noise], exit_step[rows], at_step, predicates,
               kept[:, rows], stop_step[:, rows])

    return PathEnsemble(
        times=times,
        states=kept.swapaxes(0, 1),
        exit_step=exit_step,
        stop_step=stop_step.T,
        log_coordinates=_use_log_coordinates(problem),
        n_blocks=m,
    )


def _pair_means(x) -> np.ndarray:
    """The n/2 i.i.d. pair means (x[j] + x[j + n/2]) / 2 of one block's n values,
    in antithetic order: value j + n/2 came from the negated noise of value j."""
    half = len(x) // 2
    return (x[:half] + x[half:]) / 2


def _stderr(pairs) -> float:
    """The standard error of the mean of i.i.d. values."""
    return float(np.std(pairs, ddof=1) / np.sqrt(len(pairs)))


@dataclass(frozen=True)
class ValueEstimate:
    mean: float
    stderr: float
    exit_fraction: float
    n_paths: int

    @property
    def half_width_95(self) -> float:
        return 1.96 * self.stderr


def estimate_value(ensemble: PathEnsemble, payoff) -> ValueEstimate:
    """Mean of g over the paths' terminal (or stopped) states, with its
    standard error from the block's n/2 antithetic pair means and the normal
    95% half-width 1.96 se.  The ensemble must be one block, whose pairs these
    are.  Fewer than 2 pairs give no standard error and are refused, and a
    payoff that is not finite at some state raises NumericalError."""
    if ensemble.n_blocks != 1:
        raise ValueError(f"a value estimate reads one block, not {ensemble.n_blocks}: see PathEnsemble.blocks()")
    if ensemble.n_paths < 4:
        raise ConfigurationError(f"a value estimate needs at least 2 antithetic pairs (4 paths) for its standard "
                                 f"error, not {ensemble.n_paths} paths")
    states = ensemble.terminal_states()
    g = np.asarray(payoff(states), dtype=float)
    bad = ~np.isfinite(g)
    if bad.any():
        raise NumericalError(f"the payoff is not finite at {np.count_nonzero(bad)} of {g.size} terminal states, "
                             f"e.g. at x = {states[np.argmax(bad)].tolist()}")
    return ValueEstimate(float(np.mean(g)), _stderr(_pair_means(g)), ensemble.exit_fraction, len(g))
