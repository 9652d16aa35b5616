import math

import numpy as np
import pytest

import hjbkit as hk
from hjbkit.errors import DomainError
from hjbkit.simulate import constant_policy, piecewise_constant_policy


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
        a = hk.simulate_paths(merton_problem, constant_policy([1.0]), 0.0, [1.0], 500, 20, seed=9)
        b = hk.simulate_paths(merton_problem, constant_policy([1.0]), 0.0, [1.0], 500, 20, seed=9)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.exit_step, b.exit_step)

    def test_start_outside_domain_rejected(self, merton_problem):
        with pytest.raises(DomainError):
            hk.simulate_paths(merton_problem, constant_policy([0.0]), 0.0, [-1.0], 10, 4, seed=0)

    def test_bound_violation_raises(self, merton_problem):
        wild = constant_policy([11.0])
        with pytest.raises(ValueError, match="bound"):
            hk.simulate_paths(merton_problem, wild, 0.0, [1.0], 10, 4, seed=0)

    def test_simulation_box_absorbs(self):
        prob = hk.constant_coefficient_problem([1.0], [[0.0]])
        box = hk.Box([-0.5], [0.5])
        ens = hk.simulate_paths(prob, constant_policy([0.0]), 0.0, [0.0], 20, 10, seed=4,
                                simulation_box=box)
        assert ens.exit_fraction == 1.0
        # frozen at the last state inside the box
        assert np.all(ens.terminal_states()[:, 0] <= 0.5)

    def test_states_before_exit_inside_domain(self, merton_problem):
        box = hk.Box([0.8], [1.25])
        ens = hk.simulate_paths(merton_problem, constant_policy([5.0]), 0.0, [1.0], 200, 50,
                                seed=5, simulation_box=box)
        for p in range(200):
            e = ens.exit_step[p]
            upto = ens.states[p, : e + 1, 0] if e >= 0 else ens.states[p, :, 0]
            assert np.all((upto >= 0.8) & (upto <= 1.25))


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
    def test_piecewise_constant_switches(self):
        pol = piecewise_constant_policy([0.0, 0.5], [[1.0], [-1.0]])
        assert pol(0.2, [0.0])[0] == 1.0
        assert pol(0.7, [0.0])[0] == -1.0
        assert pol.bound == 1.0
