import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

import hjbkit as hk
from hjbkit import simulate
from hjbkit.errors import DomainError
from hjbkit.simulate import (
    _NOISE_CHUNK,
    FeedbackPolicy,
    _use_log_coordinates,
    constant_policy,
    piecewise_constant_policy,
)


class TestSimulatePaths:
    def test_deterministic_drift_exact(self):
        prob = hk.constant_coefficient_problem([1.0], [[0.0]])
        ens = hk.simulate_paths(prob, constant_policy([0.0]), 0.0, [0.0], 50, 16, seed=1)
        assert np.all(ens.terminal_states()[:, 0] == 1.0)
        assert ens.exit_fraction == 0.0

    def test_brownian_moments(self):
        prob = hk.constant_coefficient_problem([0.0], [[1.0]])
        n = 40_000
        ens = hk.simulate_paths(prob, constant_policy([0.0]), 0.0, [0.0], n, 32, seed=2)
        xT = ens.terminal_states()[:, 0]
        assert abs(np.mean(xT)) < 4.0 / math.sqrt(n)
        assert np.var(xT) == pytest.approx(1.0, abs=4.0 * math.sqrt(2.0 / n))

    def test_geometric_dynamics_lognormal_mean(self, merton_problem):
        # log-coordinate stepping: E[X_T] = x0 * exp(u*mu*(T-t0)) for constant u
        n = 50_000
        ens = hk.simulate_paths(merton_problem, constant_policy([2.0]), 0.25, [1.3], n, 24, seed=3)
        assert ens.log_coordinates
        xT = ens.terminal_states()[:, 0]
        target = 1.3 * math.exp(2.0 * 0.1 * 0.75)
        se = np.std(xT) / math.sqrt(n)
        assert np.mean(xT) == pytest.approx(target, abs=4 * se)
        assert np.all(xT > 0)
        assert ens.exit_fraction == 0.0

    def test_bitwise_determinism(self, merton_problem):
        a, b = (hk.simulate_paths(merton_problem, constant_policy([1.0]), 0.0, [1.0], 500, 20, seed=9,
                                  stops=range(21)) for _ in range(2))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.exit_step, b.exit_step)

    def test_start_outside_domain_rejected(self, merton_problem):
        with pytest.raises(DomainError):
            hk.simulate_paths(merton_problem, constant_policy([0.0]), 0.0, [-1.0], 10, 4, seed=0)

    @pytest.mark.parametrize("t0, n_paths, message", [
        (-1.0, 10, r"t0 must lie in \[0, 1.0\), not -1.0"),
        (1.0, 10, r"t0 must lie in \[0, 1.0\), not 1.0"),
        (0.0, 0, "n_paths must be >= 1, not 0"),
    ])
    def test_start_time_and_path_count_out_of_range_are_refused(self, merton_problem, monkeypatch, t0, n_paths,
                                                                 message):
        """t0 = -1 used to simulate a horizon of 2 the problem does not have,
        and 0 paths died in a numpy reduction that named no argument."""
        monkeypatch.setattr("hjbkit.simulate._euler", lambda *args: pytest.fail("a path was stepped"))
        with pytest.raises(ValueError, match=message):
            hk.simulate_paths(merton_problem, constant_policy([1.0]), t0, [1.0], n_paths, 4, seed=0)

    def test_bound_violation_raises(self, merton_problem):
        wild = constant_policy([11.0])
        with pytest.raises(hk.ConfigurationError, match=r"outside the admissible control box \[\[-10.0, 10.0\]\]"):
            hk.simulate_paths(merton_problem, wild, 0.0, [1.0], 10, 4, seed=0)

    @pytest.mark.parametrize("policy, message", [
        (constant_policy([5.0]), r"outside the admissible control box \[\[0.0, 1.0\]\] at step 0"),
        (constant_policy([-1e-3]), r"outside the admissible control box \[\[0.0, 1.0\]\] at step 0"),
        (constant_policy([0.5, 0.5]), "policy rows are 2 wide at step 0; the problem has 1 controls"),
        (FeedbackPolicy(lambda t, x: np.full((x.shape[0], 1), 1.0 if t < 0.5 else 1.5)),
         r"outside the admissible control box \[\[0.0, 1.0\]\] at step 2"),
    ], ids=["above", "below", "two-wide", "later-step"])
    def test_controls_outside_the_admissible_box_are_refused(self, merton_problem, policy, message):
        """Only |u| <= B was checked: u = 5 ran on a long-only problem, and a
        two-wide row ran with its second column ignored."""
        long_only = dataclasses.replace(merton_problem, controls=hk.Box([0.0], [1.0]))
        with pytest.raises(hk.ConfigurationError, match=message):
            hk.simulate_paths(long_only, policy, 0.0, [1.0], 10, 4, seed=0)
        # within rounding of the box is admissible
        hk.simulate_paths(long_only, constant_policy([1.0 + 1e-10]), 0.0, [1.0], 10, 4, seed=0)

    def test_a_positional_tag_is_refused(self):
        """FeedbackPolicy had a bound before its tag; an old call FeedbackPolicy(rule,
        bound) would otherwise take the bound for the tag."""
        with pytest.raises(TypeError):
            FeedbackPolicy(lambda t, x: x, 1.0)
        assert FeedbackPolicy(lambda t, x: x, tag="mine").tag == "mine"

    def test_simulation_box_absorbs(self):
        prob = hk.constant_coefficient_problem([1.0], [[0.0]]).within(hk.Box([-0.5], [0.5]))
        ens = hk.simulate_paths(prob, constant_policy([0.0]), 0.0, [0.0], 20, 10, seed=4)
        assert ens.exit_fraction == 1.0
        # frozen at the last state inside the box
        assert np.all(ens.terminal_states()[:, 0] <= 0.5)

    def test_a_narrowed_merton_domain_keeps_the_log_step(self, merton_problem):
        """Any linear_drift domain in [0, inf) takes the log step; the flag is a
        Python bool, so a simulate summary serializes it."""
        narrowed = merton_problem.within(hk.Box([0.2], [5.0]))
        ens = hk.simulate_paths(narrowed, constant_policy([2.0]), 0.0, [1.0], 100, 8, seed=6)
        assert ens.log_coordinates is True and _use_log_coordinates(narrowed) is True
        assert _use_log_coordinates(merton_problem.within(hk.Box([-1.0], [5.0]))) is True

    def test_states_before_exit_inside_domain(self, merton_problem):
        ens = hk.simulate_paths(merton_problem.within(hk.Box([0.8], [1.25])), constant_policy([5.0]), 0.0, [1.0],
                                200, 50, seed=5, stops=range(51))
        assert ens.exit_fraction > 0.0
        for p in range(200):
            e = ens.exit_step[p]
            upto = ens.states[p, : e + 1, 0] if e >= 0 else ens.states[p, :, 0]
            assert np.all((upto >= 0.8) & (upto <= 1.25))

    def test_stops_that_are_neither_an_index_nor_a_predicate_are_refused(self, merton_problem):
        for stop in (-1, 5, 1.0, True, "terminal"):
            with pytest.raises(ValueError, match="neither a step index"):
                hk.simulate_paths(merton_problem, constant_policy([1.0]), 0.0, [1.0], 10, 4, seed=0, stops=(stop,))


@pytest.mark.parametrize("policy", [constant_policy([5.0]), FeedbackPolicy(lambda t, x: np.minimum(4.0 * x, 10.0))],
                         ids=["constant", "feedback"])
def test_the_log_step_reads_the_problems_coefficients(policy):
    """The log step once took mu and sigma from the parameters the problem was
    built with, so a doubled drift simulated as mu = 0.1: terminal mean 1.659
    where mu = 0.2 gives 2.736 (2,000 paths, u = 5, seed 7)."""
    merton = hk.merton_problem()
    doubled = dataclasses.replace(merton, drift=lambda x, u: 2 * merton.drift(x, u))
    runs = [hk.simulate_paths(p, policy, 0.0, [1.0], 2000, 50, seed=7) for p in (doubled, hk.merton_problem(mu=0.2))]
    assert runs[0].log_coordinates
    np.testing.assert_array_equal(runs[0].states, runs[1].states)


def _row_major_paths(problem, policy, t0, x0, n_paths, n_steps, seed):
    """Reference ensemble: paths stored row by row, (n_paths, n_steps+1, d),
    one whole (n_paths, n_steps, d') draw, np.where for the frozen paths."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dt = (problem.horizon - t0) / n_steps
    sqdt = np.sqrt(dt)
    d, dprime = problem.state_dim, problem.noise_dim
    times = t0 + dt * np.arange(n_steps + 1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    Z = rng.standard_normal((n_paths, n_steps, dprime))
    log_mode = _use_log_coordinates(problem)
    states = np.empty((n_paths, n_steps + 1, d))
    states[:, 0, :] = x0
    exit_step = np.full(n_paths, -1, dtype=int)
    active = np.ones(n_paths, dtype=bool)
    X = np.broadcast_to(x0, (n_paths, d)).copy()
    for n in range(n_steps):
        t = times[n]
        U = policy(t, X)
        if log_mode:
            # the rates u mu and u sig are the coefficients at x = 1
            ones = np.ones((n_paths, 1))
            u_mu = np.asarray(problem.drift(ones, U), dtype=float)[:, 0]
            u_sig = np.asarray(problem.diffusion(ones, U), dtype=float)[:, 0, 0]
            dY = (u_mu - 0.5 * u_sig ** 2) * dt + u_sig * sqdt * Z[:, n, 0]
            X_new = X * np.exp(dY)[:, None]
        else:
            b = np.asarray(problem.drift(X, U), dtype=float).reshape(n_paths, d)
            s = np.asarray(problem.diffusion(X, U), dtype=float).reshape(n_paths, d, dprime)
            X_new = X + b * dt + np.einsum("nij,nj->ni", s, sqdt * Z[:, n, :])
        inside = np.all(X_new > problem.state_domain.lo, axis=1) & np.all(
            X_new < problem.state_domain.hi, axis=1
        )
        exit_step[active & ~inside] = n
        active &= inside
        X = np.where(active[:, None], X_new, X)
        states[:, n + 1, :] = X
    return times, states, exit_step


def _assert_peak_is_noise_plus_kept(simulate, noise_paths):
    """At 150 and 300 steps simulate(n_steps) keeps states of one size, and its
    traced peak is within 15% of its noise, noise_paths x n_steps normals, and
    its kept states.  States that grow with the steps, or a second noise-sized
    buffer (a whole-array transpose, say), put the ratio near 2."""
    # a first call imports numpy.random's modules, which tracemalloc would count
    simulate(2)
    kept = []
    for n_steps in (150, 300):
        tracemalloc.start()
        try:
            ens = simulate(n_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * (noise_paths * n_steps * 8 + ens.states.nbytes)
        kept.append(ens.states.nbytes)
    assert kept[0] == kept[1]


def _ball(radius):
    def ball_exit(X, X0):
        return np.max(np.abs(X - X0), axis=1) > radius

    return ball_exit


def _first_holds_reference(whole, holds):
    """The step at which holds(X) first holds on whole paths (n_paths, n_steps+1, d),
    -1 where it never does, and the state there (the terminal state where it never does)."""
    n_steps = whole.shape[1] - 1
    held = np.stack([holds(whole[:, n]) for n in range(n_steps + 1)], axis=1)
    step = np.where(held.any(axis=1), held.argmax(axis=1), -1)
    return step, whole[np.arange(len(whole)), np.where(step >= 0, step, n_steps)]


class TestStepMajorStorage:
    """simulate_paths keeps the state at each step asked for, bit for bit the row-major ensemble's."""

    @pytest.mark.parametrize("n_paths", [100, _NOISE_CHUNK, _NOISE_CHUNK + 1, 2 * _NOISE_CHUNK + 37])
    @pytest.mark.parametrize("case", ["log-constant", "log-grid-table", "log-box", "generic-2d-noise",
                                      "generic-2d-box", "generic-control"])
    def test_equals_the_row_major_loop(self, case, n_paths, merton_problem, coarse_merton_solution):
        two_noise = hk.constant_coefficient_problem([0.3, -0.1], [[1.0, 0.2], [0.0, 0.5]])
        args = {
            "log-constant": (merton_problem, constant_policy([2.0]), 0.1, [1.2], n_paths, 12, 3),
            "log-grid-table": (merton_problem, hk.extract_policy(coarse_merton_solution), 0.0, [1.0],
                               n_paths, 12, 4),
            "log-box": (merton_problem.within(hk.Box([0.6], [1.6])), hk.extract_policy(coarse_merton_solution),
                        0.0, [1.0], n_paths, 12, 5),
            "generic-2d-noise": (two_noise, constant_policy([0.0]), 0.0, [0.1, 0.2], n_paths, 7, (7, 1)),
            "generic-2d-box": (two_noise.within(hk.Box([-0.8, -0.3], [0.8, 0.6])), constant_policy([0.0]), 0.0,
                               [0.1, 0.2], n_paths, 7, 8),
            "generic-control": (hk.proportional_control_problem(mu=0.5, sigma=1.0, bound=1.0),
                                FeedbackPolicy(lambda t, x: np.clip(x, -1.0, 1.0)), 0.0, [0.3], n_paths, 9, 9),
        }[case]
        n_steps = args[5]
        ens = hk.simulate_paths(*args, stops=range(n_steps + 1))
        times, states, exit_step = _row_major_paths(*args)
        assert ens.states.shape == (n_paths, n_steps + 2, states.shape[2])
        assert np.array_equal(ens.states[:, :-1], states)
        assert np.array_equal(ens.terminal_states(), states[:, -1])
        assert np.array_equal(ens.stop_step, np.broadcast_to(np.arange(n_steps + 1), (n_paths, n_steps + 1)))
        assert np.array_equal(ens.exit_step, exit_step)
        assert np.array_equal(ens.times, times)
        if "box" in case:
            assert 0.0 < ens.exit_fraction < 1.0

    @pytest.mark.parametrize("case", ["log-box", "generic-2d-box"])
    def test_predicate_stops_equal_the_whole_path_reference(self, case, merton_problem, coarse_merton_solution):
        """A left-box and a ball-exit stop, with paths frozen where they leave a
        narrowed domain, against the first step read off whole paths."""
        if case == "log-box":
            args = (merton_problem.within(hk.Box([0.6], [1.6])), hk.extract_policy(coarse_merton_solution), 0.0,
                    [1.0], 3_000, 24, 5)
            lo, hi = np.array([0.8]), np.array([1.3])
        else:
            two_noise = hk.constant_coefficient_problem([0.3, -0.1], [[1.0, 0.2], [0.0, 0.5]])
            args = (two_noise.within(hk.Box([-0.8, -0.3], [0.8, 0.6])), constant_policy([0.0]),
                    0.0, [0.1, 0.2], 3_000, 24, 8)
            lo, hi = np.array([-0.6, -0.2]), np.array([0.6, 0.5])

        def left_box(X, X0):
            return np.any((X < lo) | (X > hi), axis=1)

        ball_exit = _ball(0.25)
        x0 = np.asarray(args[3])
        ens = hk.simulate_paths(*args, stops=(left_box, ball_exit))
        whole = _row_major_paths(*args)[1]
        assert 0.0 < ens.exit_fraction < 1.0
        for i, holds in enumerate([lambda X: left_box(X, x0), lambda X: ball_exit(X, x0)]):
            step, state = _first_holds_reference(whole, holds)
            assert 0 < np.mean(step >= 0) < 1
            assert np.array_equal(ens.stop_step[:, i], step)
            assert np.array_equal(ens.states[:, i], state)
        assert np.array_equal(ens.terminal_states(), whole[:, -1])

    def test_a_predicate_that_holds_at_the_start_stops_at_step_0(self, merton_problem):
        ens = hk.simulate_paths(merton_problem, constant_policy([2.0]), 0.0, [1.0], 50, 6, seed=2,
                                stops=(lambda X, X0: X[:, 0] >= X0[:, 0], 3))
        assert np.array_equal(ens.stop_step, np.broadcast_to([0, 3], (50, 2)))
        assert np.all(ens.states[:, 0, 0] == 1.0)

    def test_policy_reads_the_current_row_read_only(self, merton_problem):
        seen = []

        def rule(t, x):
            seen.append(x.flags.writeable)
            return np.zeros((x.shape[0], 1))

        hk.simulate_paths(merton_problem, FeedbackPolicy(rule), 0.0, [1.0], 10, 5, seed=0)
        assert seen == [False] * 5

    @pytest.mark.parametrize("grid_table", [False, True], ids=["constant", "grid-table"])
    def test_peak_memory_is_noise_plus_states(self, grid_table, merton_problem, coarse_merton_solution):
        policy = hk.extract_policy(coarse_merton_solution) if grid_table else constant_policy([2.0])
        _assert_peak_is_noise_plus_kept(
            lambda n_steps: hk.simulate_paths(merton_problem, policy, 0.0, [1.0], 20_000, n_steps, seed=1,
                                              stops=(n_steps // 2, _ball(0.3))),
            20_000)


def _assert_blocks_equal_single_calls(ens, singles):
    assert ens.n_blocks == len(singles) and ens.n_paths == sum(e.n_paths for e in singles)
    for block, single in zip(ens.blocks(), singles):
        assert np.array_equal(block.states, single.states)
        assert np.array_equal(block.stop_step, single.stop_step)
        assert np.array_equal(block.exit_step, single.exit_step)
        assert np.array_equal(block.times, single.times)


class TestBlocks:
    """Several starts, keys and policies in one call: each block is bit for bit its own call."""

    @pytest.mark.parametrize("case", ["log-grid-table-box", "generic-2d-noise-box"])
    def test_starts_with_their_own_keys(self, case, merton_problem, coarse_merton_solution):
        if case.startswith("log"):
            problem, policy = merton_problem, hk.extract_policy(coarse_merton_solution)
            starts, box = [[0.7], [1.0], [1.9]], hk.Box([0.5], [2.2])
        else:
            problem = hk.constant_coefficient_problem([0.3, -0.1], [[1.0, 0.2], [0.0, 0.5]])
            policy, starts, box = constant_policy([0.0]), [[0.1, 0.2], [-0.3, 0.0]], hk.Box([-0.8, -0.3], [0.8, 0.6])
        keys = [(5, 3 * r, 77) for r in range(len(starts))]
        # every step, and a ball around each block's own start
        stops = (*range(10), _ball(0.3))
        problem = problem.within(box)
        ens = hk.simulate_paths(problem, policy, 0.2, starts, _NOISE_CHUNK + 3, 9, keys, stops)
        _assert_blocks_equal_single_calls(ens, [
            hk.simulate_paths(problem, policy, 0.2, x, _NOISE_CHUNK + 3, 9, key, stops)
            for x, key in zip(starts, keys)])
        assert 0 < np.mean(ens.stop_step[:, -1] >= 0) < 1
        assert 0.0 < ens.exit_fraction < 1.0

    @pytest.mark.parametrize("case", ["log", "generic-2d-noise"])
    def test_policies_share_one_draw(self, case, merton_problem, coarse_merton_solution):
        if case == "log":
            problem, x0 = merton_problem, [1.2]
            policies = [constant_policy([2.0]), hk.extract_policy(coarse_merton_solution), constant_policy([-4.0])]
        else:
            problem, x0 = hk.proportional_control_problem(mu=0.5, sigma=1.0, bound=1.0), [0.3]
            policies = [constant_policy([0.5]), FeedbackPolicy(lambda t, x: np.clip(x, -1.0, 1.0))]
        ens = hk.simulate_paths(problem, policies, 0.0, x0, 300, 11, (4, 2), stops=range(12))
        _assert_blocks_equal_single_calls(
            ens, [hk.simulate_paths(problem, pol, 0.0, x0, 300, 11, (4, 2), stops=range(12)) for pol in policies])

    def test_one_policy_per_start(self, merton_problem):
        a, b = constant_policy([1.0]), constant_policy([3.0])
        calls = []

        def rule(t, x):
            calls.append(x.shape[0])
            return np.full((x.shape[0], 1), 2.0)

        c = FeedbackPolicy(rule)
        policies, starts, keys = [c, c, a, b, c], [[0.6], [0.9], [1.1], [1.4], [1.8]], [1, 2, 3, 4, 5]
        ens = hk.simulate_paths(merton_problem, policies, 0.0, starts, 50, 6, keys, stops=range(7))
        # consecutive blocks of one policy object are one Euler run
        assert calls == [100] * 6 + [50] * 6
        _assert_blocks_equal_single_calls(ens, [
            hk.simulate_paths(merton_problem, p, 0.0, x, 50, 6, k, stops=range(7))
            for p, x, k in zip(policies, starts, keys)])

    def test_counts_that_do_not_broadcast_are_refused(self, merton_problem):
        pol = constant_policy([1.0])
        with pytest.raises(ValueError, match="seed keys"):
            hk.simulate_paths(merton_problem, pol, 0.0, [[1.0], [1.2]], 10, 4, [1, 2, 3])
        with pytest.raises(ValueError, match="broadcast"):
            hk.simulate_paths(merton_problem, [pol, pol], 0.0, [[1.0], [1.2], [1.4]], 10, 4, [1, 2, 3])
        # a policy count must be a multiple of the start count
        for policies in ([pol] * 3, [pol] * 5, []):
            with pytest.raises(ValueError, match=f"2 starts and {len(policies)} policies do not broadcast"):
                hk.simulate_paths(merton_problem, policies, 0.0, [[1.0], [1.2]], 10, 4, [1, 2])

    def test_any_start_outside_the_domain_is_refused(self, merton_problem):
        with pytest.raises(DomainError):
            hk.simulate_paths(merton_problem, constant_policy([0.0]), 0.0, [[1.0], [-1.0]], 10, 4, [1, 2])

    @pytest.mark.parametrize("n_policies", [2, 3])
    def test_shared_draw_holds_one_noise_array(self, n_policies, merton_problem, coarse_merton_solution):
        """k policies at one start: one noise block and the terminal states of k blocks."""
        policies = [constant_policy([2.0]), hk.extract_policy(coarse_merton_solution), constant_policy([-1.0])]
        policies = policies[:n_policies]
        ens = hk.simulate_paths(merton_problem, policies, 0.0, [1.0], 10, 2, seed=1)
        assert ens.states.shape == (n_policies * 10, 1, merton_problem.state_dim)
        _assert_peak_is_noise_plus_kept(
            lambda n_steps: hk.simulate_paths(merton_problem, policies, 0.0, [1.0], 20_000, n_steps, seed=1),
            20_000)

    def test_batched_starts_hold_one_noise_block_each(self, merton_problem, coarse_merton_solution):
        policy, starts = hk.extract_policy(coarse_merton_solution), [[0.7], [1.0], [1.9]]
        problem = merton_problem.within(hk.Box([0.5], [2.2]))
        _assert_peak_is_noise_plus_kept(
            lambda n_steps: hk.simulate_paths(problem, policy, 0.0, starts, 8_000, n_steps, [1, 2, 3],
                                              stops=(n_steps // 2, _ball(0.4))),
            3 * 8_000)


def _broadcast_case(case, coarse_merton_solution, merton_problem):
    """A problem narrowed to a box some paths leave, R = 3 starts in it, and
    three policies, one of them a row per state.  The 2-D problem's one
    control is 0, so its policies differ only as objects."""
    if case == "log":
        return (merton_problem.within(hk.Box([0.5], [2.2])), [[0.7], [1.0], [1.9]],
                [hk.extract_policy(coarse_merton_solution), constant_policy([2.0]), constant_policy([-4.0])])
    problem = hk.constant_coefficient_problem([0.3, -0.1], [[1.0, 0.2], [0.0, 0.5]])
    rows = FeedbackPolicy(lambda t, x: np.zeros((len(x), 1)))
    return (problem.within(hk.Box([-0.8, -0.3], [0.8, 0.6])), [[0.1, 0.2], [-0.3, 0.0], [0.4, -0.2]],
            [rows, constant_policy([0.0]), constant_policy([0.0])])


class TestBroadcastRule:
    """m policies over R starts, m a multiple of R: block b runs policy b from
    start b mod R on that start's draw, bit for bit its one-block call."""

    @pytest.mark.parametrize("per_start", [1, 2, 3])
    @pytest.mark.parametrize("n_starts", [1, 2, 3])
    @pytest.mark.parametrize("case", ["log", "generic-2d"])
    def test_each_block_is_its_one_block_call(self, case, n_starts, per_start, merton_problem,
                                              coarse_merton_solution):
        problem, starts, pool = _broadcast_case(case, coarse_merton_solution, merton_problem)
        starts, keys = starts[:n_starts], [(9, 3 * r, 5) for r in range(n_starts)]
        m = per_start * n_starts
        # pairs of consecutive blocks share a policy object, so runs join within
        # a start's sweep and break where the starts wrap round
        policies = [pool[(b // 2) % len(pool)] for b in range(m)]
        stops = (4, _ball(0.2), 9)
        x0, seed = (starts[0], keys[0]) if n_starts == 1 else (starts, keys)
        ens = hk.simulate_paths(problem, policies, 0.2, x0, _NOISE_CHUNK + 3, 9, seed, stops)
        _assert_blocks_equal_single_calls(ens, [
            hk.simulate_paths(problem, pol, 0.2, starts[b % n_starts], _NOISE_CHUNK + 3, 9, keys[b % n_starts],
                              stops)
            for b, pol in enumerate(policies)])
        assert 0 < np.mean(ens.stop_step[:, 1] >= 0) < 1
        assert 0.0 < ens.exit_fraction < 1.0

    def test_runs_join_consecutive_starts_of_one_policy(self, merton_problem):
        a, b = constant_policy([1.0]), constant_policy([3.0])
        runs = simulate._blocks(merton_problem, [a, a, a, b, b, a], [[0.6], [0.9], [1.1]], [1, 2, 3])[3]
        assert [(pol, lo, hi) for pol, lo, hi in runs] == [(a, 0, 3), (b, 3, 5), (a, 5, 6)]
        runs = simulate._blocks(merton_problem, [a, a, b], [1.0], 1)[3]
        assert [(pol, lo, hi) for pol, lo, hi in runs] == [(a, 0, 1), (a, 1, 2), (b, 2, 3)]

    def test_the_noise_is_drawn_once_a_start(self, merton_problem, noise_draws):
        policies = [constant_policy([u]) for u in (1.0, 2.0, 3.0, 4.0)]
        hk.simulate_paths(merton_problem, policies, 0.0, [[0.8], [1.2]], 40, 6, [7, 8])
        assert noise_draws == [((6, 40, 1), 7), ((6, 40, 1), 8)]


class TestEstimateValue:
    def test_constant_payoff(self, merton_problem):
        ens = hk.simulate_paths(merton_problem, constant_policy([1.0]), 0.0, [1.0], 100, 8, seed=6)
        est = hk.estimate_value(ens, lambda x: np.full(x.shape[0], 7.0))
        assert est.mean == 7.0
        assert est.half_width_95 == 0.0

    def test_heat_case(self):
        prob = hk.heat_problem()
        ens = hk.simulate_paths(prob, constant_policy([0.0]), 0.0, [0.0], 40_000, 32, seed=7)
        est = hk.estimate_value(ens, prob.payoff)
        assert abs(est.mean - 1.0) < est.half_width_95 * 2

    def test_merton_under_optimal_constant(self, merton_problem):
        ens = hk.simulate_paths(merton_problem, constant_policy([5.0]), 0.0, [1.0], 60_000, 32, seed=8)
        est = hk.estimate_value(ens, merton_problem.payoff)
        assert abs(est.mean - math.exp(0.125)) < 2 * est.half_width_95

    def test_one_path_is_refused(self, merton_problem):
        """One path had a 95% half-width of 0.0: an estimate with no error bar."""
        ens = hk.simulate_paths(merton_problem, constant_policy([1.0]), 0.0, [1.0], 1, 8, seed=6)
        with pytest.raises(hk.ConfigurationError, match="at least 2 paths for its 95% half-width, not 1"):
            hk.estimate_value(ens, merton_problem.payoff)
        two = hk.simulate_paths(merton_problem, constant_policy([1.0]), 0.0, [1.0], 2, 8, seed=6)
        assert hk.estimate_value(two, merton_problem.payoff).half_width_95 > 0.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_payoff_is_refused(self, merton_problem, bad):
        """A payoff of +inf at some states gave "mean": Infinity and a NaN half-width."""
        ens = hk.simulate_paths(merton_problem, constant_policy([1.0]), 0.0, [1.0], 100, 8, seed=6)
        x = ens.terminal_states()[:, 0]
        above = np.count_nonzero(x > 1.0)
        assert 0 < above < 100
        first = float(x[np.argmax(x > 1.0)])
        with pytest.raises(hk.NumericalError, match=re.escape(
                f"not finite at {above} of 100 terminal states, e.g. at x = [{first!r}]")):
            hk.estimate_value(ens, lambda s: np.where(s[:, 0] > 1.0, bad, s[:, 0]))

    def test_weak_step_consistency(self):
        # halving the step moves the heat estimate by less than one CI width
        prob = hk.heat_problem()
        e1 = hk.estimate_value(
            hk.simulate_paths(prob, constant_policy([0.0]), 0.0, [0.0], 50_000, 16, seed=10),
            prob.payoff,
        )
        e2 = hk.estimate_value(
            hk.simulate_paths(prob, constant_policy([0.0]), 0.0, [0.0], 50_000, 32, seed=10),
            prob.payoff,
        )
        assert abs(e1.mean - e2.mean) < e1.half_width_95 + e2.half_width_95


class TestOptimizePolicy:
    def test_hjb_policy_beats_constants(self, merton_problem, coarse_merton_solution):
        # common seed: every policy sees the same noise, so the comparison is paired
        def estimate(policy):
            ens = hk.simulate_paths(merton_problem, policy, 0.0, [1.0], 20_000, 32, seed=4)
            return hk.estimate_value(ens, merton_problem.payoff)

        est_hjb = estimate(hk.extract_policy(coarse_merton_solution))
        best_const = max((estimate(constant_policy([u])) for u in (0.0, 2.0, 5.0)), key=lambda e: e.mean)
        assert est_hjb.mean >= best_const.mean - best_const.half_width_95


class TestPolicies:
    def test_x_independent_policies_return_one_row(self):
        """The rule of a control that does not depend on x returns one row;
        calling the policy broadcasts it to one row per state."""
        X = np.zeros((7, 1))
        const = constant_policy([1.0, -2.0])
        assert const.rule(0.0, X).shape == (1, 2)
        assert np.array_equal(const(0.0, X), np.tile([1.0, -2.0], (7, 1)))
        assert np.array_equal(const(0.0, [0.3]), [1.0, -2.0])
        stairs = piecewise_constant_policy([0.0, 0.5], [[1.0], [-1.0]])
        assert stairs.rule(0.7, X).shape == (1, 1)
        assert np.array_equal(stairs(0.7, X), np.full((7, 1), -1.0))

    @pytest.mark.parametrize("case", ["log", "generic"])
    def test_one_row_rule_simulates_as_its_full_rows(self, case, merton_problem):
        """A one-row rule gives the bits of the same rule with a row per path,
        in the log-coordinate step and in the generic step."""
        if case == "log":
            problem, x0, box = merton_problem, [1.0], hk.Box([0.93], [1.08])
        else:
            problem, x0, box = hk.proportional_control_problem(mu=0.5, sigma=1.0, bound=1.0), [0.2], hk.Box([-0.4], [0.6])
        stairs = piecewise_constant_policy([0.0, 0.3, 0.6], [[0.8], [-0.5], [0.3]])
        rows = FeedbackPolicy(lambda t, x: np.repeat(stairs.rule(t, x), x.shape[0], axis=0))
        one, full = (hk.simulate_paths(problem.within(box), pol, 0.0, x0, 500, 20, 3, stops=(5, 12))
                     for pol in (stairs, rows))
        assert 0.0 < one.exit_fraction < 1.0
        for a, b in ((one.states, full.states), (one.exit_step, full.exit_step)):
            assert np.array_equal(a, b)

    def test_piecewise_constant_switches(self):
        pol = piecewise_constant_policy([0.0, 0.5], [[1.0], [-1.0]])
        assert pol(0.2, [0.0])[0] == 1.0
        assert pol(0.7, [0.0])[0] == -1.0


@pytest.mark.parametrize("s", [0, 42, 2**40])
def test_a_seed_and_its_point_0_key_give_one_noise_stream(s):
    """SeedSequence pads its entropy with zero words, so seed s and the key
    (s, 0) give one Philox state for s below 2**96.  The pipeline's first-point
    estimate, now the bracket's point-0 run on (seed, 0), keeps the bytes it
    had when it was simulated on seed alone only while this holds."""
    a, b = np.random.SeedSequence(s), np.random.SeedSequence((s, 0))
    assert np.array_equal(a.generate_state(8), b.generate_state(8))
    assert np.array_equal(np.random.Philox(a).random_raw(16), np.random.Philox(b).random_raw(16))
