import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hjbkit as hk
from hjbkit import specio
from hjbkit.errors import ConfigurationError
from hjbkit.facelift import _SWITCH_ULPS, _constraint_on_grid
from hjbkit.oracles import heat_value, merton_value
from hjbkit.cli import _facelift
from hjbkit.problem import (
    ControlProblem,
    abs_payoff,
    constant_payoff,
    neg_second_constraint,
    neg_trace_constraint,
    one_plus_square_gauge,
    positive_constraint,
)
from hjbkit.solver import (
    _PROJECT_TRIGGER,
    _Stepper,
    _convex_polygons,
    _float_upper_envelope,
    _nearest_locator,
    _penalty_step,
)


def gf(x, v):
    return hk.GridFunction(hk.SpatialGrid((np.asarray(x, float),)), np.asarray(v, float))


def interior_generator(problem, u, v_slice):
    """L^u v for the one control u at the interior nodes, through the solver's stepper."""
    stepper = _Stepper(problem, v_slice.grid, np.atleast_2d(np.asarray(u, dtype=float)))
    return stepper._generator(v_slice.values, np.empty_like(stepper.buf))[0]


class TestDiscreteGenerator:
    """Exactness of AxisStencil.weights: the step's stencil reproduces L^u on
    data its 3-point differences take exactly."""

    def test_affine_slice_pure_drift_exact(self):
        prob = hk.constant_coefficient_problem([2.0], [[0.0]])
        x = np.linspace(-1, 1, 21)
        lv = interior_generator(prob, [0.0], gf(x, 3.0 * x + 1.0))
        # upwind difference of an affine function is exact: L v = 2 * 3
        assert lv.shape == (19,)
        assert np.max(np.abs(lv - 6.0)) < 1e-12

    def test_quadratic_slice_pure_diffusion_exact(self):
        prob = hk.constant_coefficient_problem([0.0], [[1.5]])
        x = np.linspace(-2, 2, 31)
        lv = interior_generator(prob, [0.0], gf(x, x**2))
        # central second difference of x^2 is exactly 2: L v = 1.5^2
        assert np.max(np.abs(lv - 1.5**2)) < 1e-11

    def test_constant_slice_vanishes(self, merton_problem):
        """The difference form sums wm (v[i-1] - v[i]) + wp (v[i+1] - v[i]), so
        L^u of a constant is 0 exactly, not at rounding level: on a short log
        grid, on the A2 grid for its 201 controls, and on a graded 2-D grid with drift."""
        x = np.geomspace(0.5, 2.0, 17)
        assert not np.any(interior_generator(merton_problem, [3.0], gf(x, np.full(17, 4.0))))
        grid = hk.log_grid(0.2, 5.0, 400)
        stepper = _Stepper(merton_problem, grid, merton_problem.control_grid(201))
        for c in (3.7, 1.0, -2.5):
            assert not np.any(stepper._generator(np.full(400, c), np.empty_like(stepper.buf)))
        prob = hk.constant_coefficient_problem([0.7, -0.4], [[1.3, 0.0], [0.0, 0.6]])
        graded = hk.SpatialGrid((np.geomspace(0.1, 3.0, 17), np.sinh(np.linspace(-2.0, 2.0, 13))))
        stepper = _Stepper(prob, graded, prob.control_grid(1))
        gen = stepper._generator(np.full(graded.shape, 3.7), np.empty_like(stepper.buf))
        assert gen.shape == (1, 15, 11) and not np.any(gen)

    def test_two_d_quadratic(self):
        prob = hk.heat_problem(dim=2)
        # the 3-point second difference is exact on quadratics for any spacing,
        # so a graded grid checks the non-uniform stencil along both axes
        graded = hk.SpatialGrid((
            -1.0 + 2.0 * np.linspace(0.0, 1.0, 11) ** 1.5,
            np.sinh(np.linspace(-2.0, 2.0, 9)) / np.sinh(2.0),
        ))
        for grid in (hk.uniform_grid([-1, -1], [1, 1], [11, 11]), graded):
            X = grid.nodes()
            vals = (X[:, 0] ** 2 + X[:, 1] ** 2).reshape(grid.shape)
            lv = interior_generator(prob, [0.0], hk.GridFunction(grid, vals))
            assert lv.shape == tuple(n - 2 for n in grid.shape)
            assert np.max(np.abs(lv - 2.0)) < 1e-10


class TestSolveHJB:
    def test_constant_terminal_stays_constant(self):
        prob = hk.proportional_control_problem(
            mu=1.0, sigma=1.0, bound=1.0, payoff=constant_payoff(2.5),
            constraint=hk.problem.positive_constraint(1.0),
        )
        grid = hk.uniform_grid([-2.0], [2.0], [41])
        term = hk.GridFunction(grid, np.full(41, 2.5))
        sol = hk.solve_hjb(prob, term, hk.SchemeConfig(n_time_nodes=21))
        assert np.max(np.abs(sol.values - 2.5)) < 1e-12

    @pytest.mark.parametrize("mode", ["project", "penalize"])
    def test_constant_terminal_is_a_fixed_point_bitwise(self, merton_problem, mode):
        """A constant slice has L^u v = 0 and G_h v = 0 exactly, so neither the
        implicit step nor the constraint step moves it by a single bit."""
        grid = hk.log_grid(0.2, 5.0, 400)
        cfg = hk.SchemeConfig(n_time_nodes=20, control_grid_resolution=201, constraint_mode=mode)
        sol = hk.solve_hjb(merton_problem, hk.GridFunction(grid, np.full(400, 3.7)), cfg)
        assert np.all(sol.values == 3.7)

    def test_two_d_constant_terminal_is_a_fixed_point_bitwise(self):
        prob = dataclasses.replace(hk.heat_problem(dim=2), constraint=neg_trace_constraint())
        grid = hk.SpatialGrid((np.geomspace(0.1, 3.0, 15), np.sinh(np.linspace(-2.0, 2.0, 13))))
        sol = hk.solve_hjb(prob, hk.GridFunction(grid, np.full(grid.shape, 3.7)),
                           hk.SchemeConfig(n_time_nodes=6, constraint_mode="penalize"))
        assert np.all(sol.values == 3.7)

    def test_heat_equation_moment_identity(self, heat_problem):
        grid = hk.uniform_grid([-6.0], [6.0], [201])
        x = grid.axes[0]
        sol = hk.solve_hjb(heat_problem, gf(x, x**2), hk.SchemeConfig(n_time_nodes=51))
        trust = (x >= -3.6) & (x <= 3.6)
        for n in (0, 25):
            t = sol.times[n]
            closed = np.array([heat_value(t, xi) for xi in x])
            assert np.max(np.abs(sol.values[n] - closed)[trust]) < 1e-2

    def test_terminal_slice_exact(self, heat_problem):
        grid = hk.uniform_grid([-3.0], [3.0], [31])
        term = gf(grid.axes[0], grid.axes[0] ** 2)
        sol = hk.solve_hjb(heat_problem, term, hk.SchemeConfig(n_time_nodes=11))
        assert np.array_equal(sol.values[-1], term.values)

    def test_cfl_violation_is_config_error(self):
        """The explicit step of 2-D grids refuses a dt above its CFL bound."""
        prob = hk.heat_problem(dim=2)
        grid = hk.uniform_grid([-3.0, -3.0], [3.0, 3.0], [31, 31])
        term = hk.GridFunction(grid, (grid.nodes() ** 2).sum(axis=1).reshape(grid.shape))
        with pytest.raises(ConfigurationError, match="CFL"):
            hk.solve_hjb(prob, term, hk.SchemeConfig(n_time_nodes=11, dt=0.1))

    def test_implicit_step_has_no_cfl_bound(self):
        """The implicit step is monotone for every dt: one step per output
        interval, 100 times the explicit CFL bound, keeps a spike in [0, 1]."""
        prob = hk.heat_problem(sigma=2.0)
        grid = hk.uniform_grid([-2.0], [2.0], [41])
        spike = np.zeros(41)
        spike[20] = 1.0
        sol = hk.solve_hjb(prob, gf(grid.axes[0], spike), hk.SchemeConfig(n_time_nodes=5, constraint_mode="off"))
        assert np.all(sol.values >= 0.0) and np.all(sol.values <= 1.0)
        assert sol.metadata["cfl_dt_max"] is None and sol.metadata["substeps_per_interval"] == 1

    @pytest.mark.parametrize("dim", [1, 2])
    def test_coefficients_are_read_once_per_solve(self, merton_problem, dim):
        """The weights are built once per solve: a 1-D solve of 20 Howard
        steps and a 2-D solve of many explicit substeps each call drift and
        diffusion once."""
        calls = []

        def counted(name, fn):
            def wrapped(x, u):
                calls.append(name)
                return fn(x, u)
            return wrapped

        problem = merton_problem if dim == 1 else hk.heat_problem(dim=2)
        problem = dataclasses.replace(problem, drift=counted("drift", problem.drift),
                                      diffusion=counted("diffusion", problem.diffusion))
        grid = hk.log_grid(0.2, 5.0, 80) if dim == 1 else hk.uniform_grid([-2.0, -2.0], [2.0, 2.0], [21, 21])
        terminal = hk.GridFunction(grid, problem.payoff(grid.nodes()).reshape(grid.shape))
        sol = hk.solve_hjb(problem, terminal, hk.SchemeConfig(n_time_nodes=21, constraint_mode="penalize"))
        assert sol.metadata["howard_iterations"] >= 20 if dim == 1 else sol.metadata["substeps_per_interval"] > 1
        assert calls == ["drift", "diffusion"]

    @pytest.mark.parametrize("field, value", [
        ("dt", 0.0), ("dt", -0.5), ("dt", math.inf), ("dt", math.nan),
        ("control_grid_resolution", 0), ("control_grid_resolution", -3),
    ])
    def test_out_of_range_scheme_number_is_config_error(self, field, value):
        """dt = 0 used to overflow, and dt = -0.5 passed the 2-D CFL check and
        stepped dt = 0.1 against a bound of 0.02 on a 31 x 31 heat grid."""
        with pytest.raises(ConfigurationError, match=field):
            hk.SchemeConfig(**{field: value})

    def test_box_outside_domain_rejected(self, merton_problem):
        grid = hk.uniform_grid([-1.0], [1.0], [11])
        term = gf(grid.axes[0], np.zeros(11))
        with pytest.raises(ConfigurationError):
            hk.solve_hjb(merton_problem, term, hk.SchemeConfig(n_time_nodes=5))

    def test_discrete_comparison_penalize_exact(self, merton_problem):
        grid = hk.log_grid(0.2, 5.0, 60)
        x = grid.axes[0]
        rng = np.random.default_rng(12)
        cfg = hk.SchemeConfig(n_time_nodes=12, control_grid_resolution=21, constraint_mode="penalize")
        for _ in range(3):
            g1 = np.sqrt(x) + 0.3 * rng.normal(size=x.size)
            g2 = g1 + rng.uniform(0.0, 0.5, x.size)
            s1 = hk.solve_hjb(merton_problem, gf(x, g1), cfg)
            s2 = hk.solve_hjb(merton_problem, gf(x, g2), cfg)
            assert np.all(s1.values <= s2.values)

    def test_discrete_comparison_project_near_exact(self, merton_problem):
        grid = hk.log_grid(0.2, 5.0, 60)
        x = grid.axes[0]
        rng = np.random.default_rng(13)
        cfg = hk.SchemeConfig(n_time_nodes=12, control_grid_resolution=21, constraint_mode="project")
        g1 = np.sqrt(x) + 0.3 * rng.normal(size=x.size)
        g2 = g1 + rng.uniform(0.0, 0.5, x.size)
        s1 = hk.solve_hjb(merton_problem, gf(x, g1), cfg)
        s2 = hk.solve_hjb(merton_problem, gf(x, g2), cfg)
        assert np.all(s1.values <= s2.values + 1e-12)

    def test_projected_slices_concave(self, merton_problem):
        grid = hk.log_grid(0.2, 5.0, 80)
        x = grid.axes[0]
        g = np.abs(x - 1.0)
        cfg = hk.SchemeConfig(n_time_nodes=15, control_grid_resolution=21, constraint_mode="project")
        sol = hk.solve_hjb(merton_problem, gf(x, g), cfg)
        hm = x[1:-1] - x[:-2]
        hp = x[2:] - x[1:-1]
        for n in range(14):
            v = sol.values[n]
            defect = v[2:] * hm - v[1:-1] * (hm + hp) + v[:-2] * hp
            assert np.max(defect) <= 1e-12

    def test_bound_consistency_nested_controls(self, merton_problem):
        import dataclasses

        grid = hk.log_grid(0.3, 3.0, 60)
        x = grid.axes[0]
        term = gf(x, np.sqrt(x))
        small = dataclasses.replace(merton_problem, controls=hk.Box([-5.0], [5.0]))
        big = dataclasses.replace(merton_problem, controls=hk.Box([-10.0], [10.0]))
        # same internal dt; integer control spacing so the grids nest bitwise
        cfg_big = hk.SchemeConfig(n_time_nodes=10, control_grid_resolution=21)
        sol_big = hk.solve_hjb(big, term, cfg_big)
        dt = sol_big.metadata["dt_internal"]
        cfg_small = hk.SchemeConfig(n_time_nodes=10, control_grid_resolution=11, dt=dt)
        sol_small = hk.solve_hjb(small, term, cfg_small)
        assert np.all(sol_small.values <= sol_big.values)

    def test_nan_terminal_rejected(self, heat_problem):
        grid = hk.uniform_grid([-1.0], [1.0], [11])
        vals = np.zeros(11)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            hk.GridFunction(grid, vals)

    def test_two_d_heat(self):
        prob = hk.heat_problem(dim=2)
        grid = hk.uniform_grid([-5, -5], [5, 5], [41, 41])
        X = grid.nodes()
        term = hk.GridFunction(grid, (X**2).sum(axis=1).reshape(grid.shape))
        sol = hk.solve_hjb(prob, term, hk.SchemeConfig(n_time_nodes=11))
        trust = (np.abs(grid.axes[0]) <= 3.0)[:, None] & (np.abs(grid.axes[1]) <= 3.0)[None, :]
        closed = (X**2).sum(axis=1).reshape(grid.shape) + 2.0
        err = np.abs(sol.values[0] - closed)
        assert np.max(err[trust]) < 0.05

    def test_two_d_edge_policy_copies_nearest_interior(self):
        # drift (u, 0) on v = x0: every interior argmax is u = +1; an edge node
        # must copy its nearest interior node, not read values wrapped around
        # from the opposite side of the box
        def drift(x, u):
            b = np.zeros(x.shape)
            b[..., 0] = u[..., 0]
            return b

        def diffusion(x, u):
            return np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2))

        prob = ControlProblem(
            drift=drift, diffusion=diffusion, noise_dim=2,
            state_domain=hk.Box(np.full(2, -np.inf), np.full(2, np.inf)), controls=hk.Box([-1.0], [1.0]), horizon=0.5,
            payoff=lambda x: x[..., 0], gauge=one_plus_square_gauge(), constraint=positive_constraint(1.0),
        )
        grid = hk.uniform_grid([-1, -1], [1, 1], [9, 9])
        term = hk.GridFunction(grid, grid.nodes()[:, 0].reshape(grid.shape))
        sol = hk.solve_hjb(prob, term, hk.SchemeConfig(n_time_nodes=5, control_grid_resolution=5))
        assert np.all(sol.policies == 1.0)


def explicit_reference(problem, terminal, config):
    """v(0) by the paper's explicit 1-D scheme, the step 1-D solves used before
    the implicit one: each output interval is cut into CFL-valid steps of
    _Stepper.step, each followed by the solver's constraint step."""
    grid = terminal.grid
    stepper = _Stepper(problem, grid, problem.control_grid(config.control_grid_resolution))
    times = np.linspace(0.0, problem.horizon, config.n_time_nodes)
    m_sub = math.ceil((times[1] - times[0]) * stepper.rate)
    dt = (times[1] - times[0]) / m_sub
    x = grid.axes[0]
    hm, hp = grid.stencils[0].hm, grid.stencils[0].hp
    v = np.array(terminal.values)
    scale = max(1.0, float(np.max(np.abs(v))))
    relaxation = 0.9 * _penalty_step(problem, grid)
    for _ in range((len(times) - 1) * m_sub):
        v[1:-1] = stepper.step(v, dt).max(axis=0)
        if config.constraint_mode == "project":
            if np.max(v[2:] * hm - v[1:-1] * (hm + hp) + v[:-2] * hp) > _PROJECT_TRIGGER * scale:
                v = _float_upper_envelope(x, v)
        else:
            v[1:-1] = np.maximum(v, v - relaxation * _constraint_on_grid(problem, grid, v))[1:-1]
    return v


MODES = ("project", "penalize")


class TestImplicitStep:
    """The 1-D implicit step against the explicit scheme it replaced."""

    @pytest.fixture(scope="class")
    def merton_terminal_80(self, merton_problem):
        grid = hk.log_grid(0.2, 5.0, 80)
        return hk.GridFunction(grid, merton_problem.payoff(grid.nodes()).reshape(grid.shape))

    @pytest.mark.parametrize("mode", MODES)
    def test_value_within_first_order_time_error_of_explicit(self, merton_problem, merton_terminal_80, mode):
        """|implicit - explicit| at (0, 1) is the implicit step's own time error,
        estimated by Richardson from the solves at dt and dt / 2."""
        cfg = hk.SchemeConfig(n_time_nodes=11, control_grid_resolution=41, constraint_mode=mode)
        i = int(np.argmin(np.abs(merton_terminal_80.grid.axes[0] - 1.0)))
        ref = explicit_reference(merton_problem, merton_terminal_80, cfg)[i]
        coarse = hk.solve_hjb(merton_problem, merton_terminal_80, cfg).values[0, i]
        fine_cfg = dataclasses.replace(cfg, n_time_nodes=21)
        fine = hk.solve_hjb(merton_problem, merton_terminal_80, fine_cfg).values[0, i]
        time_error = 2.0 * abs(coarse - fine)
        assert 0.0 < abs(coarse - ref) <= 1.5 * time_error
        assert abs(fine - ref) < abs(coarse - ref)

    @pytest.mark.parametrize("mode", MODES)
    def test_every_howard_step_ends_at_a_fixed_point(self, merton_problem, merton_terminal_80, mode, monkeypatch):
        """After each implicit step of a solve no node has a control better by
        more than the switch margin, and the slice solves its policy's rows."""
        original = _Stepper.implicit_step
        checked = []

        def checked_step(self, v, dt, policy, scale):
            out, final, iterations, best = original(self, v, dt, policy, scale)
            full = np.concatenate([v[:1], out, v[-1:]])
            gen = self._generator(full, np.empty_like(self.buf))
            cols = np.arange(out.size)
            margin = _SWITCH_ULPS * np.finfo(float).eps * scale * (1.0 + 2.0 * dt * self.rate)
            assert np.all(dt * (gen.max(axis=0) - gen[final, cols]) <= margin)
            assert np.max(np.abs(out - dt * gen[final, cols] - v[1:-1])) <= 1e-12 * scale
            checked.append(iterations)
            return out, final, iterations, best

        monkeypatch.setattr(_Stepper, "implicit_step", checked_step)
        cfg = hk.SchemeConfig(n_time_nodes=21, control_grid_resolution=41, constraint_mode=mode)
        sol = hk.solve_hjb(merton_problem, merton_terminal_80, cfg)
        assert len(checked) == 20 and sum(checked) == sol.metadata["howard_iterations"]

    @pytest.mark.parametrize("mode", MODES)
    def test_policy_table_is_the_argmax_of_every_slice(self, merton_problem, merton_terminal_80, mode, monkeypatch):
        """Reusing the last Howard iteration's argmax gives the table of
        stepper.argmax bit for bit.  A slice that the projection or penalty
        moved is argmaxed anew."""
        x = merton_terminal_80.grid.axes[0]
        g = np.sqrt(x) + 0.3 * np.random.default_rng(14).normal(size=x.size)
        cfg = hk.SchemeConfig(n_time_nodes=21, control_grid_resolution=41, constraint_mode=mode)
        calls = []
        original = _Stepper.argmax

        def counted(self, v):
            calls.append(1)
            return original(self, v)

        monkeypatch.setattr(_Stepper, "argmax", counted)
        sol = hk.solve_hjb(merton_problem, gf(x, g), cfg)
        assert 1 < len(calls) < 21
        stepper = _Stepper(merton_problem, merton_terminal_80.grid, merton_problem.control_grid(41))
        for n in range(len(sol.times)):
            assert np.array_equal(sol.policies[n], stepper.table(original(stepper, sol.values[n])))

    def test_running_out_of_iterations_is_a_convergence_error(self, merton_problem, merton_terminal_80,
                                                              monkeypatch):
        monkeypatch.setattr(hk.solver, "_HOWARD_MAX_ITERS", 1)
        cfg = hk.SchemeConfig(n_time_nodes=5, control_grid_resolution=41)
        with pytest.raises(hk.ConvergenceError, match="Howard policy iteration did not converge in 1 "):
            hk.solve_hjb(merton_problem, merton_terminal_80, cfg)

    def test_cold_start_reaches_the_warm_fixed_point(self, merton_problem, merton_terminal_80):
        stepper = _Stepper(merton_problem, merton_terminal_80.grid, merton_problem.control_grid(41))
        v = merton_terminal_80.values
        warm, _, warm_iterations, _ = stepper.implicit_step(v, 0.1, stepper.argmax(v), 2.5)
        cold, _, cold_iterations, _ = stepper.implicit_step(v, 0.1, np.zeros(v.size - 2, dtype=int), 2.5)
        assert np.max(np.abs(warm - cold)) <= 1e-12
        assert warm_iterations <= cold_iterations


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _full_max_step(stepper, v, dt, policy, scale):
    """The Howard step that evaluates every control in every iteration and
    takes np.argmax: the rule the neighbour test must reproduce bit for bit.
    Returns implicit_step's four results and the policy of each iteration."""
    (wm, wp), = stepper.weights
    cols = np.arange(wm.shape[1])
    margin = _SWITCH_ULPS * np.finfo(float).eps * scale * (1.0 + 2.0 * dt * stepper.rate)
    full = np.array(v, dtype=float)
    centre = v[1:-1]
    down, up = v[:-2] - centre, v[2:] - centre
    trail = []
    for iteration in range(1, hk.solver._HOWARD_MAX_ITERS + 1):
        trail.append(policy)
        lower, upper = wm[policy, cols], wp[policy, cols]
        rows = hk.grids.tridiagonal_elimination(-dt * lower, 1.0 + dt * (lower + upper), -dt * upper)
        full[1:-1] = centre + hk.grids.tridiagonal_substitution(rows, dt * (lower * down + upper * up))
        gen = stepper._generator(full, np.empty_like(stepper.buf))
        best = np.argmax(gen, axis=0)
        switch = dt * (gen[best, cols] - gen[policy, cols]) > margin
        if not switch.any():
            return full[1:-1], policy, iteration, best, trail
        policy = np.where(switch, best, policy)
    raise AssertionError("the full-max Howard step did not converge")


@st.composite
def howard_cases(draw):
    """A 1-D problem document, a grid of its domain, a control count, a time
    step and a seed for the slice and the incoming policy."""
    family = draw(st.sampled_from(["linear_drift", "proportional_control", "constant"]))
    if family == "constant":
        # every control has the same weights: one repeated point, never marked
        params = {"b0": [draw(st.floats(-2.0, 2.0))], "s0": [[draw(st.floats(0.0, 2.0))]]}
    else:
        # sigma = 0 puts the points on the two axes, on one of them with controls in [0, B]
        params = {"mu": draw(st.floats(-1.0, 1.0)), "sigma": draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))}
    bound = draw(st.floats(0.1, 10.0))
    low = draw(st.sampled_from([-bound, 0.0, -0.5 * bound]))
    doc = {"family": family, "params": params, "control_bound": bound, "control_set": [[[low, None]]],
           "state_domain": [[0.0 if family == "linear_drift" else None, None]], "horizon": 1.0,
           "payoff": {"family": "constant", "params": {"c": 0.0}}, "gauge": {"family": "one_plus_square"},
           "constraint": {"family": "neg_second"}}
    lo, n = draw(st.floats(0.05, 1.0)), draw(st.integers(5, 60))
    hi = lo + draw(st.floats(0.5, 5.0))
    grid = draw(st.sampled_from([hk.log_grid(lo, hi, n), hk.uniform_grid([lo], [hi], [n])]))
    return doc, grid, draw(st.integers(3, 201)), draw(st.sampled_from([0.0, 1e-3, 0.05])), \
        draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(howard_cases())
def test_the_neighbour_test_gives_the_full_max_bit_for_bit(case):
    """implicit_step keeps a node's incoming control where the neighbour test
    proves it the unique computed maximum, and searches every other node: it
    returns the slice, policy, iterations and argmax of the step that
    evaluates every control, with the same policy in every iteration, and
    its best is np.argmax of the full generator at the returned slice.

    dt = 0 returns the slice itself, so an exact tie drawn into it reaches
    the argmax: at a tie node the slice's differences are normal to the edge
    between two adjacent points (wm, wp), which makes both controls' L^u w
    equal in exact arithmetic."""
    doc, grid, m, dt, seed = case
    problem = specio.problem_from_spec(doc)
    stepper = _Stepper(problem, grid, problem.control_grid(m))
    (wm, wp), = stepper.weights
    n = wm.shape[1]
    cols = np.arange(n)
    if doc["family"] == "constant" or (doc["params"]["sigma"] == 0.0 and doc["control_set"][0][0][0] == 0.0):
        assert stepper.convex is None   # repeated or collinear points: no node is marked
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n + 2) * 10.0 ** rng.integers(-3, 4)
    if dt == 0.0:
        for i in range(int(rng.integers(3)), n, 3):   # column i is grid node i + 1
            u = int(rng.integers(m - 1))
            ex, ey = wm[u + 1, i] - wm[u, i], wp[u + 1, i] - wp[u, i]
            s = rng.choice([-1.0, 1.0]) * 2.0 ** int(rng.integers(-4, 5))
            v[i: i + 3] = -ey * s, 0.0, ex * s
    argmax = stepper.argmax(v)
    policy = np.where(rng.random(n) < 0.5, argmax, rng.integers(m, size=n))
    policy = np.where(rng.random(n) < 0.2, (policy + rng.choice([-1, 1], size=n)) % m, policy)
    scale = max(1.0, float(np.max(np.abs(v))))

    seen = []
    eliminate = stepper._elimination

    def spy(dt, policy, lower, upper):
        seen.append(policy)
        return eliminate(dt, policy, lower, upper)

    stepper._elimination = spy
    out, final, iterations, best = stepper.implicit_step(v, dt, policy, scale)
    want_out, want_final, want_iterations, want_best, trail = _full_max_step(stepper, v, dt, policy, scale)
    assert np.array_equal(_bits(out), _bits(want_out))
    assert np.array_equal(final, want_final) and np.array_equal(best, want_best)
    assert iterations == want_iterations and len(seen) == len(trail)
    assert all(np.array_equal(p, q) for p, q in zip(seen, trail))

    full = np.concatenate([v[:1], out, v[-1:]])
    gen = stepper._generator(full, np.empty_like(stepper.buf))
    assert np.array_equal(best, np.argmax(gen, axis=0))
    a, b = full[:-2] - out, full[2:] - out
    for u in (best, final, (final - 1) % m, (final + 1) % m):
        assert np.array_equal(_bits(wm[u, cols] * a + wp[u, cols] * b), _bits(gen[u, cols]))


POLYGONS = {
    "square": ([0, 1, 1, 0], [0, 0, 1, 1], True),
    "square-clockwise": ([0, 0, 1, 1], [0, 1, 1, 0], True),
    "triangle": ([0, 3, 1], [0, 1, 2], True),
    "pentagram": ([np.cos(0.8 * np.pi * k) for k in range(5)], [np.sin(0.8 * np.pi * k) for k in range(5)], False),
    "dart": ([0, 2, 1, 2], [0, 0, 1, 2], False),
    "collinear-point": ([0, 1, 2, 2, 0], [0, 0, 0, 1, 1], False),
    "repeated-point": ([0, 1, 1, 1, 0], [0, 0, 0, 1, 1], False),
    # the turn at the second point is clockwise, the others counter-clockwise;
    # its cross product computes to +1.1e-13, below its rounding bound
    "rounding-flipped-turn": ([0.4999728236586185, 1.7048690665699955, 620.4190760897319, 0.0],
                              [0.7440974792826482, 1.991940575380282, 642.7593562209458, 1000.0], False),
    "tiny-exact-turn": ([0, 0.5, 1, 1, 0], [0, -(2.0**-30), 0, 1, 1], True),
}


@pytest.mark.parametrize("name", list(POLYGONS))
def test_convex_polygons_marks_strictly_convex_polygons_that_wind_once(name):
    xs, ys, want = POLYGONS[name]
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    # one column per rotation of the starting point and scale
    cols = [(scale * np.roll(xs, k), scale * np.roll(ys, k)) for k in range(xs.size) for scale in (1.0, 1e-100, 1e100)]
    X, Y = (np.stack([c[i] for c in cols], axis=1) for i in (0, 1))
    assert list(_convex_polygons(X, Y)) == [want] * X.shape[1]


def _control_problem(drift, diffusion, controls):
    """A 1-D problem on the line with the given b(u), sigma(u) and control interval."""
    return ControlProblem(
        drift=lambda x, u: drift(u[..., :1]) + 0.0 * x,
        diffusion=lambda x, u: (diffusion(u[..., :1]) + 0.0 * x)[..., None],
        noise_dim=1, state_domain=hk.Box(np.array([-np.inf]), np.array([np.inf])),
        controls=hk.Box(np.array([controls[0]]), np.array([controls[1]])), horizon=1.0,
        payoff=constant_payoff(0.0), gauge=one_plus_square_gauge(), constraint=neg_second_constraint())


Q_OFFSET, C_SLOPE = 2.0**20, 42.0
# (problem, whether its one interior node is marked, the slices (v[0], 0, v[2]) of each case)
ROUNDING_CASES = {
    # b = u sin u on [0, 10]: the points (wm, wp) sit on the two axes, and
    # (0, 0, 1) makes L^u w = wp, which is largest at u near 2 and, higher, near 8
    "off-the-mask": (_control_problem(lambda u: u * np.sin(u), np.ones_like, (0.0, 10.0)), False,
                     [(0.0, 1.0)]),
    # wm = 2 (Q + u)^2 and wp = wm + C u, exact integers on unit spacing, are a
    # strictly convex polygon turning by 4 C at each point; the slices put the
    # maximum of L^u w near u = k, where L^u w of about 4e12 varies by 2e-5
    # across neighbours and rounding (4e-4) makes strict local maxima
    "rounding": (_control_problem(lambda u: C_SLOPE * u, lambda u: 2.0 * (Q_OFFSET + u), (0.0, 200.0)), True,
                 [(-1.1 - 1.1 * C_SLOPE / (4 * (Q_OFFSET + k)), 1.1) for k in range(100, 140)]),
}


@pytest.mark.parametrize("case", list(ROUNDING_CASES))
def test_a_control_is_kept_only_where_it_is_the_unique_computed_maximum(case):
    """From a control that beats both its neighbours but is not the argmax,
    the Howard step searches and returns np.argmax: off the mask a local
    maximum need not be global, and on it a win by rounding alone is within
    the neighbour test's margin."""
    problem, marked, slices = ROUNDING_CASES[case]
    stepper = _Stepper(problem, hk.uniform_grid([0.0], [2.0], [3]), problem.control_grid(201))
    assert (stepper.convex is not None and bool(stepper.convex[0])) == marked
    local_maxima = 0
    for down, up in slices:
        v = np.array([down, 0.0, up])
        gen = stepper._generator(v, np.empty_like(stepper.buf))[:, 0]
        top = np.argmax(gen)
        for u in range(201):
            if u != top and gen[u] > gen[u - 1] and gen[u] > gen[(u + 1) % 201]:
                local_maxima += 1
                assert stepper.implicit_step(v, 0.0, np.array([u]), 1.0)[3] == [top]
    assert local_maxima >= 1


def _count_eliminations(monkeypatch, reuse):
    """Count the solver's tridiagonal eliminations; with reuse=False every
    Howard iteration eliminates afresh, as if the last elimination were never kept."""
    count = []
    eliminate = hk.solver.tridiagonal_elimination

    def counted(*args):
        count.append(1)
        return eliminate(*args)

    monkeypatch.setattr(hk.solver, "tridiagonal_elimination", counted)
    if not reuse:
        kept = _Stepper._elimination

        def fresh(self, *args):
            self._eliminated = None
            return kept(self, *args)

        monkeypatch.setattr(_Stepper, "_elimination", fresh)
    return count


class TestReusedElimination:
    """The implicit step reuses the last elimination only for the same dt and
    policy, so reuse never changes a bit."""

    def test_a2_solve_equals_the_solve_without_reuse(self, merton_problem, merton_terminal, merton_solution,
                                                     monkeypatch):
        count = _count_eliminations(monkeypatch, reuse=False)
        fresh = hk.solve_hjb(merton_problem, merton_terminal,
                             hk.SchemeConfig(n_time_nodes=200, control_grid_resolution=201))
        assert np.array_equal(fresh.values, merton_solution.values)
        assert np.array_equal(fresh.policies, merton_solution.policies)
        iterations = merton_solution.metadata["howard_iterations"]
        assert fresh.metadata["howard_iterations"] == iterations == len(count)
        monkeypatch.undo()
        count = _count_eliminations(monkeypatch, reuse=True)
        hk.solve_hjb(merton_problem, merton_terminal, hk.SchemeConfig(n_time_nodes=200, control_grid_resolution=201))
        # most steps start from the previous step's final policy
        assert len(count) < iterations - 150

    def test_a2_solve_keeps_its_bytes(self, merton_solution):
        """The A2 fixture (auto mode resolves to project) hashes as it did
        while every Howard iteration evaluated all 201 controls; most node
        iterations keep their control by the neighbour test."""
        digest = hashlib.sha256(merton_solution.values.tobytes() + merton_solution.policies.tobytes()).hexdigest()
        assert merton_solution.metadata["mode"] == "project"
        assert digest == "1812fb78bf468980554176c25f849c77ced93157e606553e2dd0cd070633e5f2"
        searched = merton_solution.metadata["argmax_searched"]
        assert 0 < searched < 398 * merton_solution.metadata["howard_iterations"] // 10


class TestTerminalLayer:
    def test_first_slice_near_facelift_far_from_payoff(self):
        prob = hk.proportional_control_problem(mu=1.0, sigma=1.0, bound=1.0, payoff=abs_payoff(1.0))
        grid = hk.uniform_grid([0.0], [2.0], [101])
        x = grid.axes[0]
        g = gf(x, np.abs(x - 1.0))
        ghat = hk.concave_envelope(g)
        sol = hk.solve_hjb(prob, g, hk.SchemeConfig(n_time_nodes=41, control_grid_resolution=21))
        h = x[1] - x[0]
        trust = (x >= 0.4) & (x <= 1.6)
        near_terminal = sol.values[-2]
        d_hat = np.max(np.abs(near_terminal - ghat.values)[trust])
        d_raw = np.max(np.abs(near_terminal - g.values)[trust])
        assert d_hat <= 2 * h
        assert d_hat <= d_raw
        k = int(np.argmin(np.abs(x - 1.0)))
        assert abs(near_terminal[k] - g.values[k]) >= 0.4


class TestExtractPolicy:
    def test_singleton_control(self, heat_problem):
        grid = hk.uniform_grid([-2.0], [2.0], [21])
        sol = hk.solve_hjb(heat_problem, gf(grid.axes[0], grid.axes[0] ** 2),
                           hk.SchemeConfig(n_time_nodes=6))
        pol = hk.extract_policy(sol)
        u = pol(0.3, [0.7])
        assert u.shape == (1,)
        assert u[0] == 0.0

    def test_merton_interior_policy_near_optimum(self, merton_problem):
        # wide box so boundary contamination cannot warp the argmax; the
        # upwind O(h) bias keeps the argmax within one control-grid spacing
        grid = hk.log_grid(0.05, 20.0, 161)
        x = grid.axes[0]
        term = gf(x, np.sqrt(x))
        resolution = 101
        sol = hk.solve_hjb(
            merton_problem, term, hk.SchemeConfig(n_time_nodes=25, control_grid_resolution=resolution)
        )
        spacing = 2 * 10.0 / (resolution - 1)
        pol = hk.extract_policy(sol)
        for t in (0.0, 0.5, 0.9):
            for xi in (0.7, 1.0, 1.8):
                u = pol(t, [xi])[0]
                assert u == pytest.approx(5.0, abs=spacing + 1e-12)

    def test_even_symmetry_of_argmax(self):
        # even payoff, coefficients even in x, symmetric control set: the
        # argmax at -x must be (up to grid asymmetry) +-argmax at x
        prob = hk.proportional_control_problem(mu=0.0, sigma=1.0, bound=1.0)
        grid = hk.uniform_grid([-2.0], [2.0], [41])
        x = grid.axes[0]
        sol = hk.solve_hjb(prob, gf(x, x**2), hk.SchemeConfig(n_time_nodes=11, control_grid_resolution=21,
                                                              constraint_mode="off"))
        table = sol.policies[0][:, 0]
        flipped = table[::-1]
        assert np.all((np.abs(table - flipped) < 1e-12) | (np.abs(table + flipped) < 1e-12))

    def test_policy_respects_bound(self, coarse_merton_solution, merton_problem):
        table, controls = coarse_merton_solution.policies, merton_problem.controls
        assert np.all((table >= controls.lo) & (table <= controls.hi))


def _searchsorted_nearest(axis, xs):
    """The nearest-node rule the locator must reproduce, by binary search."""
    j = np.clip(np.searchsorted(axis, xs), 1, axis.size - 1)
    use_left = (xs - axis[j - 1]) <= (axis[j] - xs)
    return np.where(use_left, j - 1, j)


@st.composite
def locator_axes(draw):
    """A strictly increasing axis: uniform, geometric, random or graded."""
    kind = draw(st.sampled_from(["uniform", "log", "random", "graded"]))
    n = draw(st.integers(3, 60))
    lo = draw(st.floats(-5.0, 5.0))
    if kind == "uniform":
        axis = np.linspace(lo, lo + draw(st.floats(1e-3, 10.0)), n)
    elif kind == "log":
        lo = draw(st.floats(1e-3, 2.0))
        axis = np.geomspace(lo, lo * draw(st.floats(1.5, 1e3)), n)
    else:
        if kind == "random":
            steps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
        else:
            # spacings from 1e-6 to 1
            steps = 10.0 ** np.array(draw(st.lists(st.floats(-6.0, 0.0), min_size=n - 1, max_size=n - 1)))
        axis = lo + np.concatenate([[0.0], np.cumsum(steps)])
    return axis


def _locator_queries(axis, extra):
    """The nodes and the float midpoints of the axis, one float either side of
    each, points outside the axis, +-inf and NaN."""
    span = axis[-1] - axis[0]
    edges = [axis[0] - span, axis[0] - 1e-9, axis[-1] + 1e-9, axis[-1] + span,
             -np.inf, np.inf, np.nan, 0.0, -0.0, -1.0]
    points = np.concatenate([axis, 0.5 * (axis[1:] + axis[:-1])])
    return np.concatenate([
        points,
        np.nextafter(points, -np.inf),
        np.nextafter(points, np.inf),
        edges,
        axis[0] + span * np.asarray(extra),
    ])


def _graded_axis(lo, n, seed):
    """An axis from lo whose spacings run from 1e-6 to 0.8, both ends included."""
    rng = np.random.default_rng(seed)
    steps = 10.0 ** rng.uniform(-6.0, math.log10(0.8), n - 1)
    steps[:2] = 1e-6, 0.8
    rng.shuffle(steps)
    return lo + np.concatenate([[0.0], np.cumsum(steps)])


def _random_table(axes, n_times, bound, seed):
    """A SpaceTimeSolution on the axes whose policy table holds uniform draws in [-bound, bound]."""
    grid = hk.SpatialGrid(tuple(axes))
    shape = (n_times, *grid.shape)
    policies = np.random.default_rng(seed).uniform(-bound, bound, (*shape, 1 + (len(axes) > 1)))
    return hk.SpaceTimeSolution(grid, np.linspace(0.0, 1.0, n_times), np.zeros(shape), policies)


class TestNearestLocator:
    """extract_policy's cell guess and correction give the searchsorted rule exactly."""

    @given(locator_axes(), st.lists(st.floats(-0.5, 1.5), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_searchsorted_rule(self, axis, extra):
        assume(np.all(np.diff(axis) > 0))
        xs = _locator_queries(axis, extra)
        np.testing.assert_array_equal(_nearest_locator(axis)(xs), _searchsorted_nearest(axis, xs))

    @pytest.mark.parametrize("axis", [
        np.linspace(0.2, 5.0, 120),           # positive and uniform: the affine guess fits
        np.geomspace(0.2, 5.0, 120),
        np.linspace(-3.0, 3.0, 61),
    ], ids=["uniform-positive", "log", "uniform"])
    def test_equals_the_searchsorted_rule_on_many_points(self, axis):
        xs = np.random.default_rng(1).uniform(axis[0] - 1.0, axis[-1] + 1.0, 20_000)
        xs = np.concatenate([xs, _locator_queries(axis, [])])
        np.testing.assert_array_equal(_nearest_locator(axis)(xs), _searchsorted_nearest(axis, xs))

    @pytest.mark.parametrize("lo", [-0.3, 1e-3], ids=["affine", "positive"])
    def test_equals_the_searchsorted_rule_on_a_graded_axis(self, lo):
        axis = _graded_axis(lo, 60, 5)
        xs = _locator_queries(axis, [])
        np.testing.assert_array_equal(_nearest_locator(axis)(xs), _searchsorted_nearest(axis, xs))

    def test_interleaved_row_counts_leave_earlier_results_alone(self):
        """Calls of 1, 4,166 and 30,000 rows in turn: each result is the
        searchsorted rule's, and no later call writes into an earlier result."""
        rng = np.random.default_rng(6)
        axes = (_graded_axis(-0.3, 40, 7), np.geomspace(0.5, 4.0, 25))
        sol = _random_table(axes, 3, 1.0, 8)
        rule = hk.extract_policy(sol).rule
        locator = _nearest_locator(axes[0])
        pools = [_locator_queries(a, []) for a in axes]
        calls = []
        for size in (30_000, 1, 4_166, 30_000, 4_166, 1, 1, 30_000):
            x = np.column_stack([rng.choice(pool, size) for pool in pools])
            t = rng.choice(sol.times)
            node, u = locator(x[:, 0]), rule(t, x)
            i, j = (_searchsorted_nearest(a, x[:, d]) for d, a in enumerate(axes))
            np.testing.assert_array_equal(node, i)
            np.testing.assert_array_equal(u, sol.policies[sol.time_index(t)][i, j])
            calls.append((node, u, node.copy(), u.copy()))
        for node, u, node_then, u_then in calls:
            np.testing.assert_array_equal(node, node_then)
            np.testing.assert_array_equal(u, u_then)

    @pytest.mark.parametrize("case", ["log", "generic"])
    def test_simulation_equals_the_searchsorted_table(self, case, merton_problem):
        """simulate_paths under the grid-table rule, and under the same table read
        through the searchsorted rule, give the same bits, a predicate stop included."""
        if case == "log":
            problem, axis, x0, box = merton_problem, np.geomspace(0.2, 5.0, 60), [1.0], (0.6, 1.6)
        else:
            problem, axis, x0, box = (hk.proportional_control_problem(mu=0.5, sigma=1.0, bound=1.0),
                                      _graded_axis(-2.0, 60, 9), [0.3], (-0.2, 0.8))
        sol = _random_table([axis], 11, problem.controls.hi[0], 10)

        def searchsorted_rule(t, x):
            return sol.policies[sol.time_index(t)][_searchsorted_nearest(axis, x[:, 0])]

        def left_box(X, X0):
            return (X[:, 0] < box[0]) | (X[:, 0] > box[1])

        got, want = (
            hk.simulate_paths(problem, policy, 0.0, x0, 5_000, 40, 3, stops=(left_box, 20))
            for policy in (hk.extract_policy(sol), hk.FeedbackPolicy(searchsorted_rule))
        )
        assert got.log_coordinates == (case == "log")
        assert 0.0 < np.mean(got.stop_step[:, 0] >= 0) < 1.0
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.exit_step, want.exit_step)
        assert np.array_equal(got.stop_step, want.stop_step)

    def test_grid_table_rule_reads_the_nearest_node(self):
        # a 2-D table on one uniform and one geometric axis, read at random points
        rng = np.random.default_rng(2)
        grid = hk.SpatialGrid((np.linspace(-1.0, 1.0, 9), np.geomspace(0.5, 4.0, 13)))
        times = np.linspace(0.0, 1.0, 4)
        policies = rng.uniform(-1.0, 1.0, (4, 9, 13, 2))
        sol = hk.SpaceTimeSolution(grid, times, np.zeros((4, 9, 13)), policies)
        x = np.column_stack([rng.uniform(-1.5, 1.5, 500), rng.uniform(0.0, 5.0, 500)])
        i, j = (_searchsorted_nearest(a, x[:, d]) for d, a in enumerate(grid.axes))
        for n, t in enumerate(times):
            np.testing.assert_array_equal(hk.extract_policy(sol).rule(t + 0.01, x), policies[n][i, j])


class TestConvergenceStudy:
    def test_constant_terminal_zero_diffs(self, heat_problem):
        import dataclasses

        prob = dataclasses.replace(heat_problem, payoff=constant_payoff(1.5))
        grid = hk.uniform_grid([-2.0], [2.0], [17])
        term = hk.GridFunction(grid, np.full(17, 1.5))
        study = hk.convergence_study(prob, term, 2, hk.SchemeConfig(n_time_nodes=9))
        assert all(d == 0.0 for d in study.diffs)

    def test_heat_spatial_order_two(self):
        # x^4 payoff: the scheme reproduces x^2 exactly, so a quartic is the
        # cheapest payoff with a measurable truncation error
        prob = hk.heat_problem(payoff=lambda x: x[..., 0] ** 4)
        grid = hk.uniform_grid([-4.0], [4.0], [33])
        term = hk.GridFunction(grid, grid.axes[0] ** 4)
        study = hk.convergence_study(prob, term, 3, hk.SchemeConfig(n_time_nodes=17), mode="space")
        assert study.diffs[0] > study.diffs[1] > study.diffs[2]
        assert study.orders[-1] == pytest.approx(2.0, abs=0.5)

    def test_heat_temporal_order_one(self):
        prob = hk.heat_problem(payoff=lambda x: x[..., 0] ** 4)
        grid = hk.uniform_grid([-4.0], [4.0], [41])
        term = hk.GridFunction(grid, grid.axes[0] ** 4)
        study = hk.convergence_study(prob, term, 3, hk.SchemeConfig(n_time_nodes=11), mode="time")
        assert study.orders[-1] == pytest.approx(1.0, abs=0.35)

    def test_time_mode_base_solve_is_level_zero(self, monkeypatch):
        """mode="time" solves refinements + 1 times, with the diffs of a separate base solve."""
        prob = hk.heat_problem(payoff=lambda x: x[..., 0] ** 4)
        grid = hk.uniform_grid([-4.0], [4.0], [17])
        term = hk.GridFunction(grid, grid.axes[0] ** 4)
        config = hk.SchemeConfig(n_time_nodes=9)
        solve = hk.solver.solve_hjb
        dt0 = solve(prob, term, config).metadata["dt_internal"]
        levels = [solve(prob, term, dataclasses.replace(config, dt=dt0 / 2**k)).values[0] for k in range(3)]
        calls = []
        monkeypatch.setattr(hk.solver, "solve_hjb", lambda *a: calls.append(a) or solve(*a))
        study = hk.convergence_study(prob, term, 2, config, mode="time")
        assert len(calls) == 3
        assert study.diffs == tuple(float(np.max(np.abs(a - b))) for a, b in zip(levels, levels[1:]))

    def test_merton_differences_shrink(self, merton_problem):
        grid = hk.log_grid(0.3, 3.0, 41)
        term = hk.GridFunction(grid, np.sqrt(grid.axes[0]))
        study = hk.convergence_study(
            merton_problem, term, 2,
            hk.SchemeConfig(n_time_nodes=9, control_grid_resolution=41),
        )
        assert study.diffs[1] < study.diffs[0] / 1.5

    def test_too_few_refinements_rejected(self, heat_problem):
        grid = hk.uniform_grid([-1.0], [1.0], [9])
        term = hk.GridFunction(grid, grid.axes[0] ** 2)
        with pytest.raises(ConfigurationError):
            hk.convergence_study(heat_problem, term, 1)


def _probed_penalty_step(problem, grid):
    """The penalty step as it was computed before, by probing G at the box
    centre: h^2 / (2 |dG/dM|), |dG/dM| summed over the unit diagonal directions."""
    x0 = np.array([0.5 * (a[0] + a[-1]) for a in grid.axes])
    d = grid.dim

    def G(M):
        return float(problem.constraint.on_nodes(problem.horizon, x0[None], np.zeros((1, d)), M[None])[0])

    base = G(np.zeros((d, d)))
    coef = 0.0
    for i in range(d):
        E = np.zeros((d, d))
        E[i, i] = 1.0
        coef += abs(G(E) - base) / 1.0
    coef = max(coef, 1e-12)
    hmin = min(float(np.min(np.diff(a))) for a in grid.axes)
    return hmin * hmin / (2.0 * coef)


@pytest.mark.parametrize("constraint", [hk.problem.neg_second_constraint(), hk.problem.neg_trace_constraint(),
                                        positive_constraint(1.0), positive_constraint(0.25)],
                         ids=["neg_second", "neg_trace", "positive_const-1", "positive_const-0.25"])
def test_penalty_step_equals_the_probed_step_bitwise(constraint):
    problem = dataclasses.replace(hk.heat_problem(dim=2), constraint=constraint)
    grids = [hk.uniform_grid([-3.0], [3.0], [31]), hk.log_grid(0.2, 5.0, 80),
             hk.uniform_grid([-3.0, -1.0], [3.0, 2.0], [31, 17]),
             hk.SpatialGrid((np.array([0.0, 0.3, 1.1, 2.0]), np.array([-1.0, -0.2, 0.0, 0.7, 1.0])))]
    for grid in grids:
        want = _probed_penalty_step(problem, grid)
        assert np.float64(_penalty_step(problem, grid)).view(np.uint64) == np.float64(want).view(np.uint64)


def test_a_one_d_neg_trace_problem_solves_as_its_neg_second_twin():
    """On a 1-D grid neg_trace is G = -w'', as neg_second is.  Routed by its
    family name, it took policy iteration and the penalty step: from the raw
    terminal v(0, 1) read 0.8108, where the concave majorant reads 3.0."""
    grid = hk.uniform_grid([-2.0], [4.0], 121)
    config = hk.SchemeConfig(n_time_nodes=21, control_grid_resolution=21)
    runs = []
    for constraint in (neg_trace_constraint(), neg_second_constraint()):
        problem = hk.proportional_control_problem(mu=0.0, sigma=1.0, bound=1.0, payoff=abs_payoff(1.0),
                                                  constraint=constraint)
        g = hk.GridFunction(grid, problem.payoff(grid.nodes()).reshape(grid.shape))
        ghat = _facelift(problem, g)
        runs.append((ghat, [hk.solve_hjb(problem, terminal, config) for terminal in (g, ghat)]))
    (lifted, sols), (lifted_twin, twins) = runs
    np.testing.assert_array_equal(lifted.values, lifted_twin.values)
    for sol, twin in zip(sols, twins):
        assert sol.metadata["mode"] == twin.metadata["mode"] == "project"
        np.testing.assert_array_equal(sol.values, twin.values)
        np.testing.assert_array_equal(sol.policies, twin.policies)
    assert sols[0].value_at(0.0, [1.0]) == 3.0
