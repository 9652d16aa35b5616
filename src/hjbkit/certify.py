"""Monte-Carlo certification of stochastic sub- and super-solution candidates.

One battery serves both sides, and the candidate's side picks the quantifier
over controls.  A sub-solution candidate must make w(t, X_t) a submartingale
under SOME control, its companion policy.  A super-solution candidate must
make w(t, X_t) a supermartingale under EVERY admissible control, which an
explicit adversary class approximates: the admissible box's corners, random
time staircases in it, and any supplied policies such as a solver-extracted
argmax rule, the strongest available adversary.  Either side must also stay
on its side of the payoff at the horizon and respect its growth bound.

Each martingale inequality is tested in aggregated form: fixed deterministic
start times tau, fresh start points xi drawn from a declared compact box, and
end rules rho that are either later deterministic times or the first exit
from a ball around xi, mirroring the stopping structure the theory relies on.
Statistical margins are one-sided: a true (super)martingale is rejected only
with probability ~Phi(-z) per record, and failures are never absorbed into
the passing side.  Paths come in antithetic pairs (see simulate), so each
record's standard error comes from its n/2 i.i.d. pair means, and its verdict
corrects the normal approximation for their skewness (_martingale_test).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ConfigurationError
from .grids import Box
from .oracles import merton_lambda, merton_optimal_control
from .simulate import (
    FeedbackPolicy,
    ValueEstimate,
    constant_policy,
    estimate_value,
    piecewise_constant_policy,
    simulate_paths,
    _exact_step,
    _pair_means,
    _require_pairs,
    _stderr,
    _time_grid,
)

__all__ = [
    "CandidateFunction",
    "CertifyConfig",
    "BracketConfig",
    "TestRecord",
    "CertificationReport",
    "certify_subsolution",
    "certify_supersolution",
    "lattice_max",
    "lattice_min",
    "bracket_ensemble",
    "bracket_report",
    "BracketReport",
    "merton_candidate",
    "companion_candidate",
    "constant_candidate",
    "candidate_from_solution",
]


@dataclass(frozen=True)
class CandidateFunction:
    """A (t, x) function proposed as a stochastic sub- or super-solution.

    evaluator(t, X) must accept X of shape (n, d), and t either a scalar or
    one time per row, of shape (n,), and return (n,).  Sub candidates carry a
    policy factory (tau, xi) -> FeedbackPolicy; super candidates need no
    policy.
    """

    evaluator: object
    kind: str                      # "sub" | "super"
    growth_constant: float
    policy_factory: object = None
    name: str = "candidate"

    def __post_init__(self):
        if self.kind not in ("sub", "super"):
            raise ValueError("kind must be 'sub' or 'super'")
        if self.kind == "sub" and self.policy_factory is None:
            raise ValueError("sub-solution candidates need a companion policy")
        _finite_at_least_zero("growth_constant", self.growth_constant)

    def __call__(self, t, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim <= 1
        vals = np.asarray(self.evaluator(t, np.atleast_2d(x)), dtype=float)
        return float(vals[0]) if single else vals


_BALL_RADIUS_FRACTION = 0.25   # of the start box's widest side
_TERMINAL_CHECK_NODES = 101    # per dimension of the start box
_GROWTH_CHECK_POINTS = 64
_STAIRCASE_PIECES = 4
_BRACKET_TOL = 1e-9


def _require_start_box(problem, box):
    """The rule solve_hjb applies to a grid's box, for a battery's start box: finite edges, inside the domain."""
    problem.require_box_inside(box, f"start_box {box.pairs()}")


def _require_at_least(config, **least):
    """ConfigurationError naming the first field of `config` below its least value."""
    for name, low in least.items():
        value = getattr(config, name)
        if value < low:
            raise ConfigurationError(f"{name} must be at least {low}, not {value!r}")


def _finite_at_least_zero(name, value):
    """value, unless it lies outside [0, inf): an infinite z, tol or growth constant passes every margin."""
    if not 0.0 <= value < np.inf:
        raise ConfigurationError(f"{name} must be finite and at least 0, not {value!r}")
    return value


@dataclass(frozen=True)
class CertifyConfig:
    """Battery configuration; budget is the number of paths per policy sweep.
    Paths stop where they leave the problem's domain; to stop them at a
    truncation box, certify on ``problem.within(box)``."""

    start_box: Box
    budget: int = 100_000
    z: float = 4.0
    tol: float = 1e-9
    n_starts: int = 3
    steps_per_record: int = 48
    seed: int = 0

    def __post_init__(self):
        _require_at_least(self, budget=1, n_starts=1, steps_per_record=1)
        for name in ("z", "tol"):
            _finite_at_least_zero(name, getattr(self, name))


@dataclass(frozen=True)
class TestRecord:
    kind: str                  # "martingale" | "terminal" | "growth"
    tau: float
    rho: str                   # the end rule: "plus_eighth" | "terminal" | "ball_exit" | "-"
    start: tuple
    adversary: str
    margin: float
    stderr: float
    n_paths: int
    passed: bool


@dataclass(frozen=True)
class CertificationReport:
    candidate: str
    side: str
    records: tuple
    z: float
    tol: float
    budget: int
    seed: int
    adversary_class: str = "companion-policy"

    @property
    def certified(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def verdict(self) -> str:
        tag = "statistical" if self.side == "sub" else f"statistical, adversary class: {self.adversary_class}"
        return f"certified ({tag})" if self.certified else "NOT certified"

    def failing(self) -> tuple:
        return tuple(r for r in self.records if not r.passed)


def _taus(horizon):
    return [0.0, 0.25 * horizon, 0.5 * horizon, 0.75 * horizon]


def _draw_starts(config: CertifyConfig, n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((config.seed, 0x5747))))
    return rng.uniform(config.start_box.lo, config.start_box.hi, (n, config.start_box.dim))


_RHO_SPECS = ("plus_eighth", "terminal", "ball_exit")


def _stops(tau, horizon, n_steps, radius):
    """The simulate_paths stops of the end rules, in _RHO_SPECS order:
    "plus_eighth" and "terminal" are step indices on the simulation time grid,
    and "ball_exit" the first step at which the path is more than radius from
    its start in the max norm."""
    times = _time_grid(tau, horizon, n_steps)[0]
    rho = min(tau + horizon / 8.0, horizon)
    plus_eighth = int(round((rho - tau) / (times[-1] - times[0]) * n_steps))

    def ball_exit(X, X0):
        return (np.abs(X - X0) > radius).any(axis=1)

    return plus_eighth, n_steps, ball_exit


def _values_at_stops(candidate, block):
    """The candidate's value at each path's end rule, an (n_paths,) array per
    rule of _RHO_SPECS, for a block simulated with the stops of _stops, so
    state column i is rule i; one evaluator call per rule, at each path's own
    stop time."""
    n_steps = len(block.times) - 1
    # a path that stays in the ball keeps its terminal state at the ball_exit stop
    steps = np.where(block.stop_step < 0, n_steps, block.stop_step)
    return [candidate.evaluator(block.times[steps[:, i]], block.states[:, i, :]) for i in range(len(_RHO_SPECS))]


# the third word of every battery key, whatever the policy: the companion's
# tag, so a sub battery and the super battery of one seed draw alike
_NOISE_TAG = zlib.crc32(b"companion")


def _martingale_test(diff, z, tol):
    """(margin, stderr, passed) of the one-sided test E[diff] >= -tol on one
    block's differences in antithetic order: margin is their mean, stderr that
    of their n/2 pair means.

    A pair mean keeps only the part of a value that is even in the noise, so
    for a convex payoff it is skewed to the right, and the plain statistic
    (margin + tol) / stderr then falls below -z far more often than Phi(-z):
    with it the exact Merton sub candidate failed its battery on 13 of seeds
    0-99 at budget 5,000 (69 pairs a record), against 0 with independent
    paths.  So the test reads Hall's monotone skewness correction of that
    statistic (Hall, "On the removal of skewness by transformation", JRSS B
    54, 1992): over n pairs of standard deviation sd and sample skewness g,
    with d = (margin + tol) / sd, it passes when
    sqrt(n) (d + g d^2 / 3 + g^2 d^3 / 27 + g / (6 n)) >= -z.
    Without skew that is margin >= -(z stderr + tol), as a zero stderr gives.

    The correction is an expansion in g / sqrt(n), and a large sample g would
    let a large violation pass (at 69 pairs and g = 2, only t < -8.7 was
    rejected).  So |g| is capped at sqrt(n) / (2 z), which keeps the rejection
    threshold of t = (margin + tol) / stderr between about -1.24 z (right
    skew) and -0.86 z (left skew).
    """
    pairs = _pair_means(diff)
    margin, se = float(np.mean(diff)), _stderr(pairs)
    if se == 0.0:
        return margin, se, margin >= -tol
    n = len(pairs)
    centred = pairs - np.mean(pairs)
    g = float(np.mean(centred ** 3) / np.mean(centred ** 2) ** 1.5)
    if abs(g) * z > np.sqrt(n) / 2:
        g = float(np.copysign(np.sqrt(n) / (2 * z), g))
    d = (margin + tol) / (se * np.sqrt(n))
    return margin, se, bool(np.sqrt(n) * (d + g * d ** 2 / 3 + g ** 2 * d ** 3 / 27 + g / (6 * n)) >= -z)


def _martingale_records(candidate, problem, config, policies, direction):
    """The martingale records of each (tag, policy factory) in `policies`, policy
    by policy, each tau, start and end rule in order; direction +1:
    submartingale test E[w(rho)] >= w(tau); -1: supermartingale.

    A record tests its n_paths differences by _martingale_test; n_paths is
    the budget's share of a record, at least 16, rounded down to even.

    Each tau i is one simulate_paths call of len(policies) x n_starts blocks,
    policy-major: block j n_starts + s runs policy j's factory at start s,
    from that start, on start s's one draw, keyed (seed, (i n_starts + s) x 3,
    crc32("companion")) whatever the policy.  Every policy of a (tau, start)
    so sees the same noise: each record keeps its distribution, and so its
    one-sided level, and the batteries draw len(taus) x n_starts times
    whatever their policy count.  The call keeps only the states at the end
    rules: O(blocks x paths) states, and the noise of one tau, O(n_starts x
    paths x steps).
    """
    T = problem.horizon
    radius = _BALL_RADIUS_FRACTION * float(np.max(config.start_box.hi - config.start_box.lo))
    taus = _taus(T)
    starts = _draw_starts(config, config.n_starts)
    R = len(starts)
    n_paths = max(16, config.budget // (len(taus) * len(_RHO_SPECS) * R)) // 2 * 2

    records = [[] for _ in policies]
    for i, tau in enumerate(taus):
        keys = [(config.seed, (i * R + s) * len(_RHO_SPECS), _NOISE_TAG) for s in range(R)]
        blocks = simulate_paths(problem, [policy_for(tau, xi) for _, policy_for in policies for xi in starts], tau,
                                starts, n_paths, config.steps_per_record, keys,
                                _stops(tau, T, config.steps_per_record, radius)).blocks()
        for j, (tag, _) in enumerate(policies):
            for xi, block in zip(starts, blocks[j * R:(j + 1) * R]):
                w_start = candidate(tau, xi)
                for rho_spec, w_end in zip(_RHO_SPECS, _values_at_stops(candidate, block)):
                    diff = w_end - w_start if direction > 0 else w_start - w_end
                    margin, se, passed = _martingale_test(diff, config.z, config.tol)
                    records[j].append(TestRecord("martingale", tau, rho_spec, tuple(xi), tag, margin, se, n_paths,
                                                 passed))
    return [r for per_policy in records for r in per_policy]


def _terminal_record(candidate, problem, config, direction):
    axes = [
        np.linspace(lo, hi, _TERMINAL_CHECK_NODES)
        for lo, hi in zip(config.start_box.lo, config.start_box.hi)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    g = problem.payoff(pts)
    wT = np.asarray(candidate.evaluator(problem.horizon, pts), dtype=float)
    margin = float(np.min(g - wT)) if direction > 0 else float(np.min(wT - g))
    return TestRecord(
        "terminal", problem.horizon, "-", (), "-", margin, 0.0,
        pts.shape[0], margin >= -config.tol,
    )


def _growth_record(candidate, problem, config):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((config.seed, 0x9701))))
    pts = rng.uniform(
        config.start_box.lo, config.start_box.hi, (_GROWTH_CHECK_POINTS, config.start_box.dim)
    )
    ts = rng.uniform(0.0, problem.horizon, _GROWTH_CHECK_POINTS)
    values = np.asarray(candidate.evaluator(ts, pts), dtype=float)
    worst = float(np.min(candidate.growth_constant * problem.gauge(pts) - np.abs(values)))
    return TestRecord("growth", 0.0, "-", (), "-", worst, 0.0, _GROWTH_CHECK_POINTS, worst >= -config.tol)


def _battery(candidate, problem, config, policies, adversary_class) -> CertificationReport:
    """The martingale records of each (tag, policy factory) in `policies`, then the
    terminal and growth records; the candidate's side sets each inequality's direction."""
    direction = +1 if candidate.kind == "sub" else -1
    records = _martingale_records(candidate, problem, config, policies, direction)
    records.append(_terminal_record(candidate, problem, config, direction))
    records.append(_growth_record(candidate, problem, config))
    return CertificationReport(
        candidate.name, candidate.kind, tuple(records), config.z, config.tol, config.budget,
        config.seed, adversary_class,
    )


def certify_subsolution(candidate: CandidateFunction, problem, config: CertifyConfig) -> CertificationReport:
    """Submartingale battery under the candidate's companion policy.

    Checks E[w(rho, X_rho)] >= w(tau, xi) - z*stderr - tol across the stopping
    battery, w(T, .) <= g on the test nodes, and the growth bound.
    """
    if candidate.kind != "sub":
        raise ValueError("certify_subsolution needs a sub candidate")
    _require_start_box(problem, config.start_box)
    return _battery(candidate, problem, config, [("companion", candidate.policy_factory)], "companion-policy")


def _build_adversaries(problem, seed, n_random, extra_policies):
    """The super battery's approximation of 'every admissible control': the corners of problem.controls,
    n_random staircases drawn in it on the Philox key (seed, 0xAD5), and the extra policies."""
    k, lo, hi = problem.control_dim, problem.controls.lo, problem.controls.hi
    corners = np.array(np.meshgrid(*zip(lo, hi))).T.reshape(-1, k)
    policies = [(f"corner {c.tolist()}", constant_policy(c)) for c in np.unique(corners, axis=0)]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xAD5))))
    for j in range(n_random):
        bps = np.sort(rng.uniform(0.0, problem.horizon, _STAIRCASE_PIECES))
        bps[0] = 0.0
        vals = rng.uniform(lo, hi, (_STAIRCASE_PIECES, k))
        policies.append((f"random-staircase-{j}", piecewise_constant_policy(bps, vals)))
    for j, pol in enumerate(extra_policies):
        policies.append((f"extra-{j} ({pol.tag})", pol))
    return policies


def certify_supersolution(candidate: CandidateFunction, problem, config: CertifyConfig, extra_policies=(),
                          n_random: int = 3) -> CertificationReport:
    """Supermartingale battery against every adversary of _build_adversaries, its
    staircases drawn one seed past the battery's."""
    if candidate.kind != "super":
        raise ValueError("certify_supersolution needs a super candidate")
    _require_start_box(problem, config.start_box)
    policies = _build_adversaries(problem, config.seed + 1, n_random, extra_policies)
    return _battery(
        candidate, problem, config, [(tag, lambda tau, xi, _p=pol: _p) for tag, pol in policies],
        ", ".join(tag for tag, _ in policies),
    )


def _lattice(op, name, kind, w1, w2, policy_factory=None) -> CandidateFunction:
    """The pointwise op of two candidates of one kind; the bounds combine as maxima."""
    if w1.kind != kind or w2.kind != kind:
        raise ValueError(f"lattice_{name} needs two {kind} candidates")

    def evaluator(t, X):
        return op(w1.evaluator(t, X), w2.evaluator(t, X))

    return CandidateFunction(
        evaluator, kind, max(w1.growth_constant, w2.growth_constant), policy_factory,
        f"{name}({w1.name}, {w2.name})",
    )


def lattice_max(w1: CandidateFunction, w2: CandidateFunction) -> CandidateFunction:
    """Pointwise max of two sub candidates with the switching companion policy.

    At a test start (tau, xi) the policy of the larger branch is selected and
    followed to the end rule.
    """

    def policy_factory(tau, xi):
        return (w1 if w1(tau, xi) >= w2(tau, xi) else w2).policy_factory(tau, xi)

    return _lattice(np.maximum, "max", "sub", w1, w2, policy_factory)


def lattice_min(w1: CandidateFunction, w2: CandidateFunction) -> CandidateFunction:
    """Pointwise min of two super candidates (no policy needed)."""
    return _lattice(np.minimum, "min", "super", w1, w2)


@dataclass(frozen=True)
class BracketConfig:
    """The sandwich's simulation: n_paths paths (an even count of at least 4:
    2 antithetic pairs give the first standard error) of n_steps steps at each
    point."""

    n_paths: int = 20_000
    n_steps: int = 64
    seed: int = 0
    extra_policies: tuple = ()

    def __post_init__(self):
        _require_at_least(self, n_paths=4, n_steps=1)
        _require_pairs(self.n_paths)


@dataclass(frozen=True)
class BracketPoint:
    """One sandwich point and an estimate of each block of its ensemble.  Each
    comparison with the largest estimate allows z_P of its standard errors."""

    t: float
    x: tuple
    sub_value: float
    super_value: float
    estimates: tuple           # one ValueEstimate per block, companion first
    z: float                   # the reports' z
    exact_step: bool           # simulate._exact_step of the problem

    @property
    def gap(self) -> float:
        return self.super_value - self.sub_value

    @property
    def z_selected(self) -> float:
        """z_P with Phi(-z_P) = Phi(-z) / P over the P estimates, so picking one keeps the
        level of z.  Phi(-z) is erfc's, as NormalDist.cdf is 0 past z = 8; past z = 38 z is kept."""
        tail = 0.5 * math.erfc(self.z / math.sqrt(2.0)) / len(self.estimates)
        return self.z if len(self.estimates) == 1 or tail == 0.0 else -NormalDist().inv_cdf(tail)

    @property
    def mc(self) -> ValueEstimate:
        return max(self.estimates, key=lambda est: est.mean)

    @property
    def half_width(self) -> float:
        return self.z_selected * self.mc.stderr

    @property
    def lower_reason(self) -> str | None:
        if not self.exact_step:
            return "the simulator's step is not exact for this problem's coefficients"
        exited = [j for j, est in enumerate(self.estimates) if est.exit_fraction > 0.0]
        return f"paths of block {exited[0]} left the state domain" if exited else None

    @property
    def lower(self) -> float | None:
        """The largest mean - z_P se, a lower confidence bound on v, since each
        block prices an admissible control; None where lower_reason gives one."""
        zp = self.z_selected
        return None if self.lower_reason else max(est.mean - zp * est.stderr for est in self.estimates)

    @property
    def ok(self) -> bool:
        """sub <= MC + half-width, MC <= super + half-width and sub <= super, each within _BRACKET_TOL."""
        hw = self.half_width
        return (
            self.sub_value <= self.mc.mean + hw + _BRACKET_TOL
            and self.mc.mean <= self.super_value + hw + _BRACKET_TOL
            and self.sub_value <= self.super_value + _BRACKET_TOL
        )


@dataclass(frozen=True)
class BracketReport:
    points: tuple
    z: float

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.points)

    @property
    def max_gap(self) -> float:
        return max(p.gap for p in self.points)


def bracket_ensemble(sub: CandidateFunction, problem, j: int, t: float, x, sim_config: BracketConfig, stops=()):
    """Bracket point j's ensemble at (t, x): one block for the sub candidate's
    companion policy and one for each extra policy, in that order, all on the
    point's one (seed, j) draw.  Predicate stops record states and change no
    terminal state.

    The call holds that draw, O(paths x steps), and the blocks' states,
    O(paths x (len(stops) + 1)) each.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    policies = [sub.policy_factory(t, x), *sim_config.extra_policies]
    return simulate_paths(
        problem, policies, t, x, sim_config.n_paths, sim_config.n_steps, (sim_config.seed, j), stops=stops)


def bracket_report(
    sub: CandidateFunction,
    super_: CandidateFunction,
    problem,
    points,
    sim_config: BracketConfig,
    sub_report: CertificationReport,
    super_report: CertificationReport,
    estimates=(),
) -> BracketReport:
    """Sandwich check sub <= MC value estimate <= super at the given points,
    z the larger of the two reports' z (BracketPoint).

    Both inputs must arrive with passing certification reports; the MC value
    is the best estimate over the sub candidate's companion policy and any
    extra policies supplied (e.g. a solver-extracted rule).

    Each point's estimates come from its `bracket_ensemble`, one per block.
    estimates[j], when given, holds those of point j, made by an earlier
    call, and only the points after them are simulated here.
    """
    if not sub_report.certified:
        raise ValueError("sub candidate is not certified")
    if not super_report.certified:
        raise ValueError("super candidate is not certified")
    z = max(sub_report.z, super_report.z)
    out = []
    for j, (t, x) in enumerate(points):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        made = estimates[j] if j < len(estimates) else [
            estimate_value(block, problem.payoff)
            for block in bracket_ensemble(sub, problem, j, t, x, sim_config).blocks()
        ]
        out.append(BracketPoint(t, tuple(x), sub(t, x), super_(t, x), tuple(made), z, _exact_step(problem)))
    return BracketReport(tuple(out), z)


# ---------------------------------------------------------------------------
# Candidate constructors
# ---------------------------------------------------------------------------

def merton_candidate(
    kind: str,
    mu: float = 0.1,
    sigma: float = 0.2,
    p: float = 0.5,
    horizon: float = 1.0,
    bound: float = 10.0,
    exponent_shift: float = 0.0,
) -> CandidateFunction:
    """x^p exp((Lambda_B + shift)(T - t)) with the clamped argmax companion policy."""
    lam = merton_lambda(mu, sigma, p, bound) + exponent_shift
    u_star = merton_optimal_control(mu, sigma, p, bound)

    def evaluator(t, X):
        return np.maximum(X[:, 0], 0.0) ** p * np.exp(lam * (horizon - t))

    shift_tag = f"{exponent_shift:+g}" if exponent_shift else ""
    growth = float(np.exp(max(lam * horizon, 0.0)))
    return companion_candidate(evaluator, kind, growth, constant_policy([u_star]), f"merton{shift_tag}")


def companion_candidate(
    evaluator, kind: str, growth_constant: float, policy: FeedbackPolicy | None, name: str
) -> CandidateFunction:
    """A candidate whose sub side follows one fixed companion policy (u = 0 when none is given)."""
    if kind == "sub" and policy is None:
        policy = constant_policy([0.0])
    return CandidateFunction(
        evaluator=evaluator,
        kind=kind,
        growth_constant=growth_constant,
        policy_factory=(lambda tau, xi: policy) if kind == "sub" else None,
        name=name,
    )


def constant_candidate(
    c: float, kind: str, growth_constant: float, policy: FeedbackPolicy | None = None
) -> CandidateFunction:
    def evaluator(t, X):
        return np.full(X.shape[0], float(c))

    return companion_candidate(evaluator, kind, growth_constant, policy, f"constant({c:g})")


def candidate_from_solution(solution, kind: str, growth_constant: float) -> CandidateFunction:
    """Solver value interpolated linearly in x within a time slice and in t
    between the two slices around t, clamped at the ends, with the extracted
    argmax rule as companion.  At a time node it gives that slice's bits; the
    rows of one slice are interpolated in one call."""
    from .solver import extract_policy

    times, last = solution.times, len(solution.times) - 1

    def evaluator(t, X):
        t = np.broadcast_to(np.asarray(t, dtype=float), len(X))
        n = solution.time_index(t)
        after = np.minimum(n + 1, last)
        # the weight of slice n + 1: 0 at a node, before the first and from the last on
        w = np.maximum(np.divide(t - times[n], times[after] - times[n], out=np.zeros(len(X)), where=after > n), 0.0)
        out = np.empty(len(X))
        for k in np.unique(n):
            rows = n == k
            out[rows] = solution.slice_at(k).interpolate(X[rows])
            rows &= w > 0.0
            if rows.any():
                out[rows] += w[rows] * (solution.slice_at(k + 1).interpolate(X[rows]) - out[rows])
        return out

    return companion_candidate(
        evaluator, kind, growth_constant, extract_policy(solution), f"from-solution({kind})")
