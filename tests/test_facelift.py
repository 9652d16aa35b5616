import ast
import dataclasses
import math
import pathlib
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hjbkit as hk
from hjbkit import facelift
from hjbkit.errors import ConvergenceError
from hjbkit.facelift import _constraint_on_grid, exact_concavity_repair
from hjbkit.problem import Constraint, neg_trace_constraint, positive_constraint
from hjbkit.solver import _penalty_step


def brute_force_upper_hull(x, v):
    """Independent oracle: per-node max over every bracketing chord.

    Chords are evaluated in exact rational arithmetic and rounded once, then
    pushed through the same float canonicalization the library applies.
    """
    n = len(x)
    xf = [Fraction(float(t)) for t in x]
    vf = [Fraction(float(t)) for t in v]
    out = np.empty(n)
    for k in range(n):
        best = vf[k]
        for i in range(k + 1):
            for j in range(k, n):
                if i == j:
                    continue
                c = vf[i] + (vf[j] - vf[i]) * (xf[k] - xf[i]) / (xf[j] - xf[i])
                if c > best:
                    best = c
        out[k] = float(best)
    return exact_concavity_repair(x, out)


def gf(x, v):
    return hk.GridFunction(hk.SpatialGrid((np.asarray(x, float),)), np.asarray(v, float))


@pytest.fixture(scope="module")
def neg_second_problem():
    return hk.proportional_control_problem(mu=1.0, sigma=1.0, bound=1.0)


def reference_relaxation(g_grid, problem, tol, max_iters=2_000_000):
    """The clamped Jacobi relaxation facelift_general ran for a custom G, kept as
    the reference policy iteration is checked against.

    Each sweep applies  w <- max(g, w - r G_h(w))  on the interior, with
    r = h^2 / (2 |dG/dM|) and the box edges clamped to g.  It stops when the
    geometric-decay extrapolation of the update norm bounds the remaining
    distance to the fixed point by tol, or when the update reaches the rounding
    floor of w.
    """
    grid = g_grid.grid
    relaxation = _penalty_step(problem, grid)
    g = g_grid.values
    w = np.array(g, dtype=float)
    interior = np.zeros(grid.shape, dtype=bool)
    interior[grid.interior] = True
    prev_update = None
    for _ in range(max_iters):
        gh = _constraint_on_grid(problem, grid, w)
        w_new = np.where(interior, np.maximum(g, w - relaxation * gh), g)
        update = float(np.max(np.abs(w_new - w)))
        w = w_new
        # at the rounding floor the update can repeat forever without shrinking
        if update <= 4.0 * np.finfo(float).eps * float(np.max(np.abs(w))):
            return g_grid.with_values(w)
        if prev_update is not None and update < prev_update:
            q = update / prev_update
            if q < 1.0 and update * q / (1.0 - q) < tol:
                return g_grid.with_values(w)
        prev_update = update
    raise AssertionError(f"reference relaxation did not converge in {max_iters} sweeps")


@pytest.fixture(scope="module")
def neg_trace_problem():
    return dataclasses.replace(hk.heat_problem(dim=2), constraint=neg_trace_constraint())


def a3_payoff(rng, x):
    """A3's random piecewise-linear payoff: 4-8 breakpoints on [0, 2], values in [-1, 1]."""
    n_break = int(rng.integers(4, 9))
    bx = np.sort(rng.uniform(0.0, 2.0, n_break))
    bx[0], bx[-1] = 0.0, 2.0
    return np.interp(x, bx, rng.uniform(-1.0, 1.0, n_break))


def a3_corpus():
    """The ten 61-node payoffs of acceptance test A3."""
    grid = hk.uniform_grid([0.0], [2.0], [61])
    rng = np.random.default_rng(20260810)
    return [hk.GridFunction(grid, a3_payoff(rng, grid.axes[0])) for _ in range(10)]


def jittered_grids(seed, count, n=40):
    """Random non-uniform grids on [0, 2]: uniform nodes moved by up to 40% of a step.

    Spacing ratios stay below 9: policy iteration's linear solves lose accuracy
    in proportion to the ratio of the largest to the smallest spacing.
    """
    rng = np.random.default_rng(seed)
    base = np.linspace(0.0, 2.0, n)
    for _ in range(count):
        x = base.copy()
        x[1:-1] += rng.uniform(-0.4, 0.4, n - 2) * (base[1] - base[0])
        yield rng, hk.SpatialGrid((x,))


class TestConcaveEnvelope:
    def test_concave_payoff_unchanged(self):
        x = np.linspace(0.25, 4.0, 60)
        g = gf(x, np.sqrt(x))
        env = hk.concave_envelope(g)
        assert np.max(np.abs(env.values - g.values)) < 1e-12

    def test_kink_payoff_gives_chord(self):
        x = np.linspace(0.0, 2.0, 81)
        env = hk.concave_envelope(gf(x, np.abs(x - 1.0)))
        assert np.array_equal(env.values, np.ones_like(x))

    def test_spike_gives_tent(self):
        x = np.linspace(0.0, 2.0, 101)
        v = np.zeros_like(x)
        j = 37
        v[j] = 1.0
        env = hk.concave_envelope(gf(x, v))
        tent = np.minimum(x / x[j], (2.0 - x) / (2.0 - x[j]))
        assert np.max(np.abs(env.values - tent)) < 1e-12

    def test_matches_brute_force_hull_exactly(self):
        rng = np.random.default_rng(99)
        for _ in range(15):
            n = int(rng.integers(5, 45))
            x = np.sort(rng.uniform(-2, 2, n))
            v = rng.normal(size=n)
            env = hk.concave_envelope(gf(x, v))
            assert np.array_equal(env.values, brute_force_upper_hull(x, v))

    @pytest.mark.parametrize("kind", ["integers-on-uniform-grid", "near-affine"])
    def test_matches_brute_force_hull_on_ties(self, kind):
        """Exact ties and near-collinear nodes, where the float hull chain may pick
        other vertices than exact arithmetic would: the output must not move."""
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(3, 30))
            if kind == "integers-on-uniform-grid":
                x, v = np.arange(n, dtype=float), rng.integers(-4, 5, n).astype(float)
            else:
                x = np.linspace(-1.0, 3.0, n)
                v = 0.3 * x + 1.0 + rng.normal(size=n) * 10.0 ** int(rng.integers(-16, -10))
            env = hk.concave_envelope(gf(x, v))
            assert np.array_equal(env.values, brute_force_upper_hull(x, v))

    def test_two_d_rejected(self):
        grid = hk.uniform_grid([0, 0], [1, 1], [4, 4])
        g = hk.GridFunction(grid, np.zeros((4, 4)))
        with pytest.raises(ValueError, match="facelift_general"):
            hk.concave_envelope(g)


class TestEnvelopeProperties:
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_exactly(self, vals):
        x = np.arange(len(vals), dtype=float)
        e1 = hk.concave_envelope(gf(x, vals))
        e2 = hk.concave_envelope(e1)
        assert np.array_equal(e1.values, e2.values)

    @given(
        st.lists(st.floats(min_value=-20, max_value=20), min_size=3, max_size=20),
        st.lists(st.floats(min_value=0, max_value=5), min_size=3, max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_dominance_and_monotonicity(self, vals, bumps):
        n = min(len(vals), len(bumps))
        x = np.arange(n, dtype=float)
        v1 = np.asarray(vals[:n])
        v2 = v1 + np.asarray(bumps[:n])
        e1 = hk.concave_envelope(gf(x, v1))
        e2 = hk.concave_envelope(gf(x, v2))
        assert np.all(e1.values >= v1)
        assert np.all(e2.values >= v2)
        assert np.all(e1.values <= e2.values)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(8)
        x = np.sort(rng.uniform(0, 3, 30))
        v = rng.normal(size=30)
        for c in (-2.0, 0.5, 10.0):
            e = hk.concave_envelope(gf(x, v))
            ec = hk.concave_envelope(gf(x, v + c))
            assert np.max(np.abs(ec.values - (e.values + c))) < 1e-12

    def test_second_differences_nonpositive(self):
        rng = np.random.default_rng(21)
        x = np.sort(rng.uniform(-1, 1, 40))
        v = rng.normal(size=40)
        e = hk.concave_envelope(gf(x, v)).values
        hm = x[1:-1] - x[:-2]
        hp = x[2:] - x[1:-1]
        # exact rational test of the discrete concavity the repair guarantees
        for k in range(1, 39):
            lhs = Fraction(float(e[k + 1])) * Fraction(float(hm[k - 1])) + Fraction(
                float(e[k - 1])
            ) * Fraction(float(hp[k - 1]))
            rhs = Fraction(float(e[k])) * (Fraction(float(hm[k - 1])) + Fraction(float(hp[k - 1])))
            assert lhs <= rhs


class TestFaceliftGeneral:
    def test_positive_constraint_returns_payoff(self):
        x = np.linspace(0.0, 2.0, 41)
        g = gf(x, np.abs(x - 1.0))
        prob = hk.proportional_control_problem(constraint=positive_constraint(1.0))
        out = hk.facelift_general(g, prob)
        assert np.max(np.abs(out.values - g.values)) == 0.0

    def test_matches_concave_envelope_on_kink(self, neg_second_problem):
        x = np.linspace(0.0, 2.0, 61)
        g = gf(x, np.abs(x - 1.0))
        out = hk.facelift_general(g, neg_second_problem)
        env = hk.concave_envelope(g)
        assert np.max(np.abs(out.values - env.values)) < 1e-7

    def test_supersolution_payoff_fixed(self, neg_second_problem):
        x = np.linspace(0.25, 2.0, 41)
        g = gf(x, np.sqrt(x))
        out = hk.facelift_general(g, neg_second_problem)
        assert np.max(np.abs(out.values - g.values)) < 1e-9

    def test_monotone_and_dominant(self, neg_second_problem):
        rng = np.random.default_rng(4)
        x = np.linspace(0.0, 1.0, 31)
        v1 = rng.normal(size=31)
        v2 = v1 + rng.uniform(0, 1, 31)
        f1 = hk.facelift_general(gf(x, v1), neg_second_problem)
        f2 = hk.facelift_general(gf(x, v2), neg_second_problem)
        assert np.all(f1.values >= v1 - 1e-12)
        assert np.all(f2.values >= v2 - 1e-12)
        assert np.all(f1.values <= f2.values + 1e-8)

    def test_no_convergence_carries_iterate(self, neg_trace_problem):
        grid = hk.uniform_grid([0.0, 0.0], [2.0, 2.0], [13, 13])
        g = hk.GridFunction(grid, np.random.default_rng(3).normal(size=grid.shape))
        with pytest.raises(ConvergenceError) as exc:
            hk.facelift_general(g, neg_trace_problem, max_iters=1)
        assert exc.value.last_iterate.grid == grid
        assert exc.value.residual > 0.0

    def test_two_d_positive_constraint(self):
        grid = hk.uniform_grid([0, 0], [1, 1], [9, 9])
        vals = np.random.default_rng(2).normal(size=(9, 9))
        prob = hk.heat_problem(dim=2)
        out = hk.facelift_general(hk.GridFunction(grid, vals), prob)
        assert np.array_equal(out.values, vals)

    def test_three_d_rejected(self, neg_second_problem):
        grid = hk.uniform_grid([0, 0, 0], [1, 1, 1], [3, 3, 3])
        g = hk.GridFunction(grid, np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            hk.facelift_general(g, neg_second_problem)


class TestPolicyIteration:
    """facelift_general on G = -M and G = -trace(M): Howard's policy iteration."""

    def test_matches_hull_on_a3_corpus(self, neg_second_problem):
        for g in a3_corpus():
            out = hk.facelift_general(g, neg_second_problem)
            env = hk.concave_envelope(g)
            assert np.max(np.abs(out.values - env.values)) <= 1e-12 * np.max(np.abs(g.values))

    def test_matches_hull_on_random_non_uniform_grids(self, neg_second_problem):
        for k, (rng, grid) in enumerate(jittered_grids(41, 12)):
            x = grid.axes[0]
            v = a3_payoff(rng, x) if k % 2 else rng.normal(size=x.size)
            g = hk.GridFunction(grid, v * 2.0 ** int(rng.integers(-20, 20)))
            out = hk.facelift_general(g, neg_second_problem)
            env = hk.concave_envelope(g)
            assert np.max(np.abs(out.values - env.values)) <= 1e-12 * np.max(np.abs(g.values))

    def test_dominates_exactly_and_keeps_the_edges(self, neg_second_problem, neg_trace_problem):
        rng = np.random.default_rng(12)
        grid2 = hk.uniform_grid([0.0, 0.0], [1.0, 1.0], [9, 11])
        for prob, g in ((neg_second_problem, gf(np.linspace(0.0, 1.0, 31), rng.normal(size=31))),
                        (neg_trace_problem, hk.GridFunction(grid2, rng.normal(size=(9, 11))))):
            out = hk.facelift_general(g, prob).values
            assert np.all(out >= g.values)
            edges = np.ones(g.grid.shape, dtype=bool)
            edges[g.grid.interior] = False
            assert np.array_equal(out[edges], g.values[edges])

    def test_agrees_with_relaxation_on_a3_corpus(self, neg_second_problem):
        tol = 1e-8
        for g in a3_corpus():
            howard = hk.facelift_general(g, neg_second_problem)
            relaxation = reference_relaxation(g, neg_second_problem, tol)
            assert np.max(np.abs(howard.values - relaxation.values)) <= 10 * tol

    def test_agrees_with_relaxation_in_two_d(self, neg_trace_problem):
        tol = 1e-8
        grid = hk.uniform_grid([0.0, 0.0], [2.0, 2.0], [13, 13])
        x = grid.axes[0]
        rng = np.random.default_rng([20260810, 2])
        g = hk.GridFunction(grid, a3_payoff(rng, x)[:, None] + a3_payoff(rng, x)[None, :])
        howard = hk.facelift_general(g, neg_trace_problem)
        relaxation = reference_relaxation(g, neg_trace_problem, tol)
        assert np.max(howard.values - g.values) > 0.1
        assert np.max(np.abs(howard.values - relaxation.values)) <= 10 * tol

    def test_default_cap_converges_on_a3_and_two_d_corpora(self, neg_second_problem, neg_trace_problem):
        """The default cap, interior nodes + 1, is never reached: the result is the
        one an unbounded run gives."""
        rng = np.random.default_rng([20260810, 3])
        payoffs = [(g, neg_second_problem) for g in a3_corpus()]
        for shape in [(9, 9), (13, 13), (9, 17), (21, 11), (31, 31)] * 2:
            grid = hk.uniform_grid([0.0, 0.0], [2.0, 2.0], list(shape))
            x, y = grid.axes
            v = a3_payoff(rng, x)[:, None] + a3_payoff(rng, y)[None, :] if rng.random() < 0.5 else \
                rng.normal(size=shape)
            payoffs.append((hk.GridFunction(grid, v), neg_trace_problem))
        for g, prob in payoffs:
            out = hk.facelift_general(g, prob)
            assert np.array_equal(_bits(out.values), _bits(hk.facelift_general(g, prob, max_iters=10 ** 6).values))

    def test_kink_converges_in_two_iterations(self, neg_second_problem):
        x = np.linspace(0.0, 2.0, 61)
        out = hk.facelift_general(gf(x, np.abs(x - 1.0)), neg_second_problem, max_iters=2)
        assert np.max(np.abs(out.values - 1.0)) <= 1e-12

    def test_iteration_cap_raises_with_iterate(self, neg_second_problem):
        g = a3_corpus()[3]
        assert hk.facelift_general(g, neg_second_problem, max_iters=100) is not None
        with pytest.raises(ConvergenceError) as exc:
            hk.facelift_general(g, neg_second_problem, max_iters=1)
        assert exc.value.last_iterate.grid == g.grid
        assert exc.value.residual > 0.0


class TestRelaxation:
    def test_stops_at_the_rounding_floor(self, neg_second_problem):
        """A3's generator, seed 7, draw 17: the update cycles at about 1.7 eps max|w|."""
        rng = np.random.default_rng(7)
        x = np.linspace(0.0, 2.0, 61)
        g = gf(x, [a3_payoff(rng, x) for _ in range(18)][-1])
        tol = 1e-8
        out = reference_relaxation(g, neg_second_problem, tol, max_iters=6 * x.size ** 2)
        assert np.max(np.abs(out.values - hk.concave_envelope(g).values)) <= 10 * tol


def _reference_concavity_repair(x, v):
    """The repeated full sweeps that the worklist in exact_concavity_repair replaced."""
    out = np.array(v, dtype=float)
    n = out.size
    changed = True
    while changed:
        changed = False
        for k in range(1, n - 1):
            xa, xk, xb = Fraction(float(x[k - 1])), Fraction(float(x[k])), Fraction(float(x[k + 1]))
            va, vk, vb = Fraction(out[k - 1]), Fraction(out[k]), Fraction(out[k + 1])
            chord = va + (vb - va) * (xk - xa) / (xb - xa)
            if vk < chord:
                m = float(chord)
                if Fraction(m) < chord:
                    m = math.nextafter(m, math.inf)
                out[k] = m
                changed = True
    return out


def _fraction_concavity_repair(x, v):
    """exact_concavity_repair's worklist in Fraction arithmetic, as it was written
    before the scaled-integer version; kept as the oracle for it."""
    out = np.array(v, dtype=float)
    n = out.size
    xf = [Fraction(float(t)) for t in x]
    vf = [Fraction(t) for t in out.tolist()]
    ratio = [None] + [(xf[k] - xf[k - 1]) / (xf[k + 1] - xf[k - 1]) for k in range(1, n - 1)]
    pending = deque(range(1, n - 1))
    queued = [False] + [True] * (n - 2) + [False]
    while pending:
        k = pending.popleft()
        queued[k] = False
        chord = vf[k - 1] + (vf[k + 1] - vf[k - 1]) * ratio[k]
        if vf[k] < chord:
            m = float(chord)
            if Fraction(m) < chord:
                m = math.nextafter(m, math.inf)
            out[k] = m
            vf[k] = Fraction(m)
            for j in (k - 1, k + 1):
                if not queued[j] and 0 < j < n - 1:
                    queued[j] = True
                    pending.append(j)
    return out


def _fraction_chords(x, v):
    """What concave_envelope hands to the repair, in Fraction arithmetic: the
    exact chords on the float hull, each rounded once, and g where it is higher."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    hull = facelift.upper_hull_indices(x, v)
    out = np.array(v)
    xf = [Fraction(float(t)) for t in x]
    vf = [Fraction(float(t)) for t in v]
    for a, b in zip(hull[:-1], hull[1:]):
        for k in range(a + 1, b):
            out[k] = float(vf[a] + (vf[b] - vf[a]) * (xf[k] - xf[a]) / (xf[b] - xf[a]))
    return np.maximum(out, v)


def _fraction_concave_envelope(x, v):
    """concave_envelope in Fraction arithmetic, as it was written before the
    scaled-integer version."""
    return _fraction_concavity_repair(x, _fraction_chords(x, v))


@st.composite
def hull_inputs(draw):
    """(x, v) of one of five kinds: uniform, jittered or graded grids, integer
    data, near-affine data."""
    kind = draw(st.sampled_from(["uniform", "jittered", "graded", "integers", "near-affine"]))
    n = draw(st.integers(3, 10 if kind == "graded" else 40))
    if kind == "graded":
        # spacings from 1e-6 to 1: the repair lifts slowly there, so few nodes
        steps = draw(st.lists(st.floats(-6.0, 0.0), min_size=n - 1, max_size=n - 1))
        x = np.concatenate([[0.0], np.cumsum(10.0 ** np.array(steps))])
    else:
        x = np.linspace(0.0, 2.0, n)
    if kind == "jittered":
        shift = draw(st.lists(st.floats(-0.4, 0.4), min_size=n - 2, max_size=n - 2))
        x[1:-1] += np.array(shift) * (x[1] - x[0])
    if kind == "integers":
        x = np.arange(n, dtype=float)
        v = np.array(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)), dtype=float)
    elif kind == "near-affine":
        noise = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        v = 0.3 * x + 1.0 + noise * 10.0 ** draw(st.integers(-16, -10))
    else:
        v = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    return x, v


class TestScaledIntegerHull:
    """concave_envelope in scaled integers against the Fraction code it replaced."""

    # derandomized: a graded draw can make the repair climb for most of a minute
    @given(hull_inputs())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_bitwise_equal_to_fraction_reference(self, xv):
        x, v = xv
        assert np.array_equal(_bits(hk.concave_envelope(gf(x, v)).values),
                              _bits(_fraction_concave_envelope(x, v)))

    def test_subnormal_chords_round_once(self, monkeypatch):
        """Values near 1e-310 whose chords round in the subnormal range, where a
        division followed by a power-of-two scaling would round twice.

        The output cannot show a chord rounded the wrong way (the repair lifts
        every node to the ceiling of its exact chord either way), so the chords
        handed to the repair are compared as well.
        """
        rng = np.random.default_rng(17)
        cases = []
        for _, grid in jittered_grids(18, 4, n=25):
            x = grid.axes[0]
            for k in range(0, 8, 2):
                # convex data: every interior node is on one chord
                cases.append((x, ((x - 1.0) ** 2 + rng.uniform(0.0, 0.01, x.size)) * 1e-310 * 2.0 ** k))
        chords = []
        monkeypatch.setattr(facelift, "exact_concavity_repair",
                            lambda x, v: chords.append(np.array(v)) or exact_concavity_repair(x, v))
        for x, v in cases:
            env = hk.concave_envelope(gf(x, v)).values
            assert np.array_equal(_bits(chords[-1]), _bits(_fraction_chords(x, v)))
            assert np.array_equal(_bits(env), _bits(_fraction_concavity_repair(x, chords[-1])))

    def test_lifts_finer_than_the_input_scale(self):
        """Integer data whose chords are thirds: every lifted value is finer than
        the integers the data was stored at, so the scale has to move."""
        rng = np.random.default_rng(19)
        cases = [(np.arange(4.0), np.array([0.0, 0.0, 0.0, 1.0]))]
        for _ in range(20):
            n = int(rng.integers(4, 30))
            v = rng.integers(-6, 7, n).astype(float)
            v[1:-1:3] -= 20.0  # deep dents: chords across three spacings
            cases.append((3.0 * np.arange(n), v))
        for x, v in cases:
            env = hk.concave_envelope(gf(x, v)).values
            assert np.any(env != np.round(env))
            assert np.array_equal(_bits(env), _bits(_fraction_concave_envelope(x, v)))
            assert np.array_equal(_bits(exact_concavity_repair(x, v)), _bits(_fraction_concavity_repair(x, v)))

    def test_src_imports_no_fractions(self):
        root = pathlib.Path(hk.__file__).parent
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                assert not any(name.split(".")[0] == "fractions" for name in names), path


def _ulps_from(base, steps):
    """The float `steps` ulps above base (below it for negative steps)."""
    for _ in range(abs(steps)):
        base = math.nextafter(base, math.copysign(math.inf, steps))
    return base


@st.composite
def repair_edge_inputs(draw):
    """(x, v) where the next float above a node is not one usual ulp away:
    values a few ulps from -2**k (the step halves at the binade edge) or
    +2**k, subnormal values (where the next float above -5e-324 is -0.0), and
    graded spacings from 1e-6 to 0.8."""
    kind = draw(st.sampled_from(["below -2**k", "around +2**k", "subnormal", "graded"]))
    n = draw(st.integers(3, 5 if kind == "graded" else 9))
    steps = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    if kind == "graded":
        # affine data a few ulps off, on few nodes: the repair lifts one ulp at
        # a time there, and the reference sweeps take seconds on random data
        spacings = draw(st.lists(st.floats(-6.0, math.log10(0.8)), min_size=n - 1, max_size=n - 1))
        x = np.concatenate([[0.0], np.cumsum(10.0 ** np.array(spacings))])
        return x, np.array([_ulps_from(0.3 * t - 1.0, k) for t, k in zip(x.tolist(), steps)])
    shift = draw(st.lists(st.floats(-0.4, 0.4), min_size=n - 2, max_size=n - 2))
    x = np.arange(n, dtype=float)
    x[1:-1] += shift
    if kind == "subnormal":
        base = draw(st.sampled_from([0.0, -0.0, 2.0 ** -1022, -(2.0 ** -1022)]))
    else:
        base = math.copysign(2.0 ** draw(st.integers(-30, 30)), -1.0 if kind == "below -2**k" else 1.0)
    return x, np.array([_ulps_from(base, k) for k in steps])


class TestConcavityRepair:
    def _repair_inputs(self, monkeypatch, payoffs):
        """What concave_envelope hands to exact_concavity_repair: the rounded chords."""
        seen = []

        def record(x, v):
            seen.append((x, np.array(v)))
            return exact_concavity_repair(x, v)

        monkeypatch.setattr(facelift, "exact_concavity_repair", record)
        for g in payoffs:
            hk.concave_envelope(g)
        return seen

    def _assert_same_as_sweeps(self, inputs):
        for x, v in inputs:
            assert np.array_equal(_bits(exact_concavity_repair(x, v)), _bits(_reference_concavity_repair(x, v)))

    def test_a3_corpus_bitwise(self, monkeypatch):
        self._assert_same_as_sweeps(self._repair_inputs(monkeypatch, a3_corpus()))

    def test_random_non_uniform_grids_bitwise(self, monkeypatch):
        payoffs = [hk.GridFunction(grid, rng.normal(size=grid.shape)) for rng, grid in jittered_grids(77, 20)]
        inputs = self._repair_inputs(monkeypatch, payoffs)
        rng = np.random.default_rng(78)
        # also inputs that need many lifts: raw random values on random grids
        inputs += [(grid.axes[0], rng.normal(size=grid.shape)) for _, grid in jittered_grids(79, 3, n=12)]
        self._assert_same_as_sweeps(inputs)

    @given(repair_edge_inputs())
    # a lift from -5e-324 to a zero chord is +0.0, to a negative one -0.0
    @example((np.arange(3.0), np.array([0.0, -5e-324, 0.0])))
    @example((np.arange(3.0), np.array([-5e-324, -5e-324, 0.0])))
    @example((np.arange(3.0), np.array([-0.5, -0.5 - 2.0 ** -53, -0.5 + 2.0 ** -54])))
    # derandomized: a graded draw can make the reference sweep for seconds
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_signed_zero_and_binade_edges_bitwise(self, xv):
        x, v = xv
        assert np.array_equal(_bits(exact_concavity_repair(x, v)), _bits(_reference_concavity_repair(x, v)))


class TestVerifyFacelift:
    """The defining properties of a face-lift, checked directly: w >= g, and
    min(w - g, G_h w) = 0 at the interior nodes (the edges hold w = g by
    construction)."""

    @staticmethod
    def _defects(w, g, problem):
        """max(g - w), and |min(w - g, G_h w)| at each interior node."""
        comp = np.minimum(w.values - g.values, _constraint_on_grid(problem, w.grid, w.values))
        return float(np.max(g.values - w.values)), np.abs(comp[w.grid.interior])

    def test_envelope_passes_all_checks(self, neg_second_problem):
        x = np.linspace(0.0, 2.0, 41)
        g = gf(x, np.abs(x - 1.0))
        env = hk.concave_envelope(g)
        dominance, comp = self._defects(env, g, neg_second_problem)
        assert dominance <= 1e-8
        assert np.max(comp) <= 1e-8
        # minimal: the least such majorant, which policy iteration computes
        np.testing.assert_allclose(env.values, hk.facelift_general(g, neg_second_problem).values, atol=1e-8)

    def test_concave_payoff_is_its_own_facelift(self, neg_second_problem):
        x = np.linspace(0.25, 4.0, 41)
        g = gf(x, np.sqrt(x))
        dominance, comp = self._defects(g, g, neg_second_problem)
        assert dominance <= 1e-8
        assert np.max(comp) <= 1e-8
        np.testing.assert_allclose(hk.facelift_general(g, neg_second_problem).values, g.values, atol=1e-8)

    def test_shifted_majorant_flagged_nonminimal(self, neg_second_problem):
        # g + 1 is a supersolution above g, but where G_h g > 0 it has slack on
        # both sides of the complementarity, so it is not the face-lift
        x = np.linspace(0.25, 4.0, 41)
        g = gf(x, np.sqrt(x))
        shifted = g.with_values(g.values + 1.0)
        dominance, comp = self._defects(shifted, g, neg_second_problem)
        assert dominance <= 1e-8
        assert np.count_nonzero(comp > 1e-8) > 0
        assert np.max(np.abs(hk.facelift_general(g, neg_second_problem).values - shifted.values)) > 1e-8

    def test_two_d_neg_trace_facelift_verifies(self, neg_trace_problem):
        """The edges hold w = g by construction, so complementarity is an interior check."""
        grid = hk.uniform_grid([0.0, 0.0], [1.0, 1.0], [9, 9])
        x, y = np.meshgrid(*grid.axes, indexing="ij")
        g = hk.GridFunction(grid, (x - 0.5) ** 2 + (y - 0.5) ** 2)
        w = hk.facelift_general(g, neg_trace_problem)
        dominance, comp = self._defects(w, g, neg_trace_problem)
        assert dominance <= 0.0
        assert np.max(comp) < 1e-12

    def test_convex_payoff_is_not_its_own_facelift(self, neg_second_problem):
        x = np.linspace(0.0, 2.0, 21)
        g = gf(x, (x - 1.0) ** 2)
        dominance, comp = self._defects(g, g, neg_second_problem)
        assert dominance <= 1e-8
        assert np.max(comp) > 1e-8


def _reference_derivatives_1d(x, w):
    """Central first/second differences, one-sided at the edges: the per-line
    stencil that AxisStencil replaced, kept as the reference."""
    n = x.size
    p = np.empty(n)
    m = np.empty(n)
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    p[1:-1] = (w[2:] - w[:-2]) / (hm + hp)
    p[0] = (w[1] - w[0]) / (x[1] - x[0])
    p[-1] = (w[-1] - w[-2]) / (x[-1] - x[-2])
    # the second difference in difference form, so a constant gives exactly 0
    m[1:-1] = 2.0 * ((w[:-2] - w[1:-1]) / (hm * (hm + hp)) + (w[2:] - w[1:-1]) / (hp * (hm + hp)))
    for k, (i0, i1, i2) in ((0, (0, 1, 2)), (-1, (-3, -2, -1))):
        h0, h1 = x[i1] - x[i0], x[i2] - x[i1]
        m[k] = 2.0 * ((w[i0] - w[i1]) / (h0 * (h0 + h1)) + (w[i2] - w[i1]) / (h1 * (h0 + h1)))
    return p, m


def _reference_derivatives_2d(ax, ay, w):
    """The per-column / per-row loop that the vectorized G_h replaced."""
    nx, ny = w.shape
    px, mxx, py, myy = (np.empty_like(w) for _ in range(4))
    for j in range(ny):
        px[:, j], mxx[:, j] = _reference_derivatives_1d(ax, w[:, j])
    for i in range(nx):
        py[i, :], myy[i, :] = _reference_derivatives_1d(ay, w[i, :])
    return px, py, mxx, myy


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


class TestConstraintOnGrid:
    def _derivatives(self, grid, w):
        """The (P, M) arrays G_h hands to the constraint."""
        seen = []

        class Recording(Constraint):
            def on_nodes(self, t, X, P, M):
                seen.append((P.copy(), M.copy()))
                return np.zeros(X.shape[0])

        prob = dataclasses.replace(hk.heat_problem(dim=grid.dim), constraint=Recording(None, "neg_trace"))
        _constraint_on_grid(prob, grid, w)
        return seen[0]

    def test_two_d_matches_column_loop_bitwise(self):
        rng = np.random.default_rng(31)
        ax = np.sort(np.concatenate([[0.0, 2.0], rng.uniform(0.0, 2.0, 13)]))
        ay = np.sort(np.concatenate([[-1.0, 1.0], rng.uniform(-1.0, 1.0, 9)]))
        grid = hk.SpatialGrid((ax, ay))
        w = rng.normal(size=grid.shape)
        P, M = self._derivatives(grid, w)
        px, py, mxx, myy = _reference_derivatives_2d(ax, ay, w)
        for got, want in ((P[:, 0], px), (P[:, 1], py), (M[:, 0, 0], mxx), (M[:, 1, 1], myy)):
            assert np.array_equal(_bits(got), _bits(want.ravel()))
        # no constraint family reads a mixed derivative, so none is formed
        assert not np.any(M[:, 0, 1]) and not np.any(M[:, 1, 0])

    def test_one_d_matches_reference_bitwise(self):
        rng = np.random.default_rng(32)
        x = np.sort(np.concatenate([[0.0, 2.0], rng.uniform(0.0, 2.0, 20)]))
        w = rng.normal(size=x.size)
        P, M = self._derivatives(hk.SpatialGrid((x,)), w)
        p, m = _reference_derivatives_1d(x, w)
        assert np.array_equal(_bits(P[:, 0]), _bits(p))
        assert np.array_equal(_bits(M[:, 0, 0]), _bits(m))
