import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hjbkit as hk
from hjbkit import specio
from hjbkit.errors import DomainError
from hjbkit.grids import Box
from hjbkit.problem import (
    CompatibilityReport,
    full_control_space,
    positive_constraint,
    probe_coefficients,
)


@pytest.fixture(scope="module")
def utility_model():
    # b = u*mu, sigma = u*sigma_mkt with unit market coefficients: the
    # Hamiltonian integrand is u*p + u^2*M/2
    return hk.proportional_control_problem(mu=1.0, sigma=1.0, bound=10.0)


class TestHamiltonian:
    def test_scalar_quadratic_maximum(self, utility_model):
        # calculus: max_u (u*p + u^2 M / 2) = -p^2/(2M) at u = -p/M for M < 0
        h = hk.hamiltonian(utility_model, 0.0, [0.3], [1.0], [[-1.0]], 801)
        assert h.is_finite
        assert h.value == pytest.approx(0.5, abs=1e-4)
        assert h.argmax_control[0] == pytest.approx(1.0, abs=0.05)

    def test_refining_grid_approaches_closed_form(self, utility_model):
        vals = [
            hk.hamiltonian(utility_model, 0.0, [0.3], [1.0], [[-1.0]], r).value
            for r in (11, 41, 161, 641)
        ]
        errs = [abs(v - 0.5) for v in vals]
        assert errs[-1] < errs[0]
        assert errs[-1] < 1e-4

    def test_zero_coefficients_zero_value(self):
        prob = hk.constant_coefficient_problem([0.0], [[0.0]])
        h = hk.hamiltonian(prob, 0.3, [2.0], [0.0], [[0.0]])
        assert h.value == 0.0
        assert h.argmax_control is not None

    def test_divergence_probe_flags_linear_growth(self, utility_model):
        # integrand u*1 with unbounded U grows without plateau
        h = hk.hamiltonian(utility_model, 0.0, [0.0], [1.0], [[0.0]])
        assert not h.is_finite
        assert h.argmax_control is None

    def test_divergence_probe_keeps_zero_finite(self, utility_model):
        h = hk.hamiltonian(utility_model, 0.0, [0.0], [0.0], [[0.0]])
        assert h.is_finite
        assert h.value == 0.0

    def test_outside_domain_raises(self, merton_problem):
        with pytest.raises(DomainError):
            hk.hamiltonian(merton_problem, 0.0, [-1.0], [1.0], [[-1.0]])

    def test_non_symmetric_matrix_raises(self):
        prob = hk.heat_problem(dim=2)
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            hk.hamiltonian(prob, 0.0, [0.0, 0.0], [0.0, 0.0], M)

    def test_monotone_in_control_resolution(self, utility_model):
        # linspace(a, b, r) is a subset of linspace(a, b, 2r-1): sup over superset
        rng = np.random.default_rng(3)
        for _ in range(20):
            p, m = rng.normal(), -abs(rng.normal()) - 0.1
            v1 = hk.hamiltonian(utility_model, 0.0, [0.1], [p], [[m]], 21).value
            v2 = hk.hamiltonian(utility_model, 0.0, [0.1], [p], [[m]], 41).value
            assert v2 >= v1

    def test_positive_homogeneity(self, utility_model):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p, m = rng.normal(), -abs(rng.normal()) - 0.1
            lam = rng.uniform(0.1, 7.0)
            h1 = hk.hamiltonian(utility_model, 0.0, [0.2], [p], [[m]], 101).value
            h2 = hk.hamiltonian(utility_model, 0.0, [0.2], [lam * p], [[lam * m]], 101).value
            assert h2 == pytest.approx(lam * h1, rel=1e-12, abs=1e-12)


class TestCompatibility:
    def test_utility_model_consistent_sample(self, merton_problem):
        rep = hk.check_compatibility(merton_problem, [(0.0, [1.0], [1.0], [[-1.0]])])
        assert rep.ok

    def test_utility_model_infinite_side(self, merton_problem):
        # H = +inf and G = -M = -1 < 0: consistent, not a violation
        rep = hk.check_compatibility(merton_problem, [(0.0, [1.0], [1.0], [[1.0]])])
        assert rep.ok

    def test_positive_constraint_always_passes(self):
        prob = hk.constant_coefficient_problem([0.0], [[0.0]], constraint=positive_constraint(1.0))
        rep = hk.check_compatibility(prob, [(0.5, [0.0], [1.0], [[2.0]])])
        assert rep.ok

    def test_violation_is_reported_not_raised(self, utility_model):
        # deliberately wrong constraint: G = +M claims finiteness where H diverges
        import dataclasses

        bad = dataclasses.replace(
            utility_model,
            constraint=hk.problem.Constraint(lambda t, x, p, M: M[0, 0], "custom"),
        )
        rep = hk.check_compatibility(bad, [(0.0, [0.1], [1.0], [[1.0]])])
        assert not rep.ok
        assert rep.violations[0].kind == "G_positive_H_infinite"

    @pytest.mark.parametrize("which", ["utility", "bounded"])
    def test_thousand_random_samples(self, which, merton_problem, heat_problem):
        prob = merton_problem if which == "utility" else heat_problem
        rng = np.random.default_rng(17)
        samples = []
        for _ in range(1000):
            t = rng.uniform(0, prob.horizon)
            x = [rng.uniform(0.3, 3.0)] if which == "utility" else [rng.normal()]
            p = [rng.normal()]
            m = [[rng.normal()]]
            samples.append((t, x, p, m))
        rep = hk.check_compatibility(prob, samples, control_grid_resolution=17)
        assert isinstance(rep, CompatibilityReport)
        assert rep.ok


class TestProbeCoefficients:
    def test_linear_drift_exact_constant(self):
        # drift-only linear map: Lipschitz constant exactly B*mu
        prob = hk.merton_problem(mu=1.0, sigma=0.0, bound=2.0)
        rep = probe_coefficients(
            prob, 200, seed=1, box=Box([0.5], [2.0]), lipschitz_threshold=2.0 * 1.01
        )
        assert rep.ok
        assert np.max(rep.drift_lipschitz) <= 2.0 + 1e-9

    def test_constant_coefficients_zero_ratios(self):
        prob = hk.constant_coefficient_problem([1.0], [[2.0]])
        rep = probe_coefficients(prob, 50, seed=2)
        assert np.max(rep.drift_lipschitz) == 0.0
        assert np.max(rep.diffusion_lipschitz) == 0.0

    def test_quadratic_drift_flagged(self):
        def drift(t, x, u):
            return np.asarray(x, dtype=float) ** 2

        def diffusion(t, x, u):
            x = np.asarray(x, dtype=float)
            return np.zeros(x.shape + (1,))

        prob = hk.ControlProblem(
            drift=drift, diffusion=diffusion, state_dim=1, noise_dim=1,
            control_dim=1, control_bound=1.0, control_set=full_control_space(1),
            state_domain=Box([-np.inf], [np.inf]), horizon=1.0,
            payoff=hk.problem.quadratic_payoff(), gauge=hk.problem.one_plus_square_gauge(),
            gauge_constant=1.0, constraint=positive_constraint(),
        )
        rep = probe_coefficients(
            prob, 400, seed=3, box=Box([0.5], [2.0]), lipschitz_threshold=1.0
        )
        assert not rep.ok
        assert np.max(rep.drift_lipschitz) > 1.0
        assert np.max(rep.drift_lipschitz) <= 4.0 + 1e-9

    def test_degenerate_box_rejected(self, merton_problem):
        with pytest.raises(ValueError):
            probe_coefficients(merton_problem, 10, seed=0, box=Box([1.0], [1.0]))


class TestGrowthCheck:
    def test_merton_payoff_within_gauge(self, merton_problem):
        xs = np.linspace(0.1, 5.0, 50)[:, None]
        assert merton_problem.check_growth(xs)


@given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=-0.05))
@settings(max_examples=40, deadline=None)
def test_hamiltonian_matches_scalar_maximization(p, m):
    """Independent oracle: maximize u*p + u^2*m/2 over a fine 1-d grid."""
    prob = hk.proportional_control_problem(mu=1.0, sigma=1.0, bound=5.0)
    us = np.linspace(-5.0, 5.0, 2001)
    brute = float(np.max(us * p + 0.5 * us**2 * m))
    h = hk.hamiltonian(prob, 0.0, [0.0], [p], [[m]], 2001)
    assert h.value == pytest.approx(brute, rel=1e-12, abs=1e-12)


def _doc(family, params, domain, bound, payoff, gauge, gauge_constant, constraint):
    return {
        "family": family, "params": params, "state_domain": domain, "control_bound": bound,
        "horizon": 1.0, "payoff": payoff, "gauge": dict(gauge, constant=gauge_constant),
        "constraint": constraint,
    }


# each constructor, the problem document that describes the same problem, and a small grid
ONE_BUILDER_CASES = {
    "merton": (
        lambda: hk.merton_problem(),
        _doc("linear_drift", {"mu": 0.1, "sigma": 0.2}, [[0.0, None]], 10.0,
             {"family": "power", "params": {"p": 0.5}}, {"family": "power", "params": {"p": 0.5}},
             1.0, {"family": "neg_second"}),
        lambda: hk.log_grid(0.2, 5.0, 30),
    ),
    "proportional": (
        lambda: hk.proportional_control_problem(payoff=hk.problem.abs_payoff(1.0)),
        _doc("proportional_control", {"mu": 1.0, "sigma": 1.0}, [[None, None]], 1.0,
             {"family": "abs", "params": {"center": 1.0}}, {"family": "one_plus_square"},
             2.0, {"family": "neg_second"}),
        lambda: hk.uniform_grid([0.0], [2.0], [21]),
    ),
    "heat-2d": (
        lambda: hk.heat_problem(dim=2),
        _doc("constant", {"b0": [0.0, 0.0], "s0": [[1.0, 0.0], [0.0, 1.0]]},
             [[None, None], [None, None]], 0.0, {"family": "quadratic"}, {"family": "one_plus_square"},
             1.0, {"family": "positive_const", "params": {"c": 1.0}}),
        lambda: hk.uniform_grid([-1.0, -1.0], [1.0, 1.0], [9, 9]),
    ),
    "constant": (
        lambda: hk.constant_coefficient_problem([0.3], [[0.5]]),
        _doc("constant", {"b0": [0.3], "s0": [[0.5]]}, [[None, None]], 0.0,
             {"family": "quadratic"}, {"family": "one_plus_square"},
             1.0, {"family": "positive_const", "params": {"c": 1.0}}),
        lambda: hk.uniform_grid([-2.0], [2.0], [21]),
    ),
}


@pytest.mark.parametrize("case", list(ONE_BUILDER_CASES))
def test_constructor_and_document_build_one_problem(case):
    make, doc, make_grid = ONE_BUILDER_CASES[case]
    built, read = make(), specio.problem_from_spec(doc)
    for name in ("state_dim", "noise_dim", "control_dim", "control_bound", "horizon",
                 "gauge_constant", "family", "params"):
        assert getattr(read, name) == getattr(built, name), name
    for a, b in [(read.state_domain, built.state_domain)] + list(
        zip(read.control_set.boxes, built.control_set.boxes, strict=True)
    ):
        np.testing.assert_array_equal(a.lo, b.lo)
        np.testing.assert_array_equal(a.hi, b.hi)
    for name in ("payoff", "gauge", "constraint"):
        assert (getattr(read, name).family, getattr(read, name).params) == (
            getattr(built, name).family, getattr(built, name).params
        ), name

    grid = make_grid()
    config = hk.SchemeConfig(n_time_nodes=5, control_grid_resolution=11)
    sols = [
        hk.solve_hjb(p, hk.GridFunction(grid, p.payoff(grid.nodes()).reshape(grid.shape)), config)
        for p in (built, read)
    ]
    np.testing.assert_array_equal(sols[0].values, sols[1].values)
    np.testing.assert_array_equal(sols[0].policies, sols[1].policies)


def test_constructor_and_document_simulate_the_same_merton_paths():
    _, doc, _ = ONE_BUILDER_CASES["merton"]
    policy = hk.constant_policy([5.0])
    paths = [
        hk.simulate_paths(p, policy, 0.0, [1.0], 500, 20, seed=3).states
        for p in (hk.merton_problem(), specio.problem_from_spec(doc))
    ]
    np.testing.assert_array_equal(paths[0], paths[1])
