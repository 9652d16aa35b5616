"""The names and signatures the benchmark in perfbench/ reaches into hjbkit through.

perfbench/tracer.py rebinds public functions in several hjbkit modules and
subclasses Constraint; a refactor that breaks either should fail here rather
than in a traced benchmark run.
"""

import collections
import importlib
import importlib.util
import pathlib
import sys
from dataclasses import replace

import numpy as np
import pytest

import hjbkit as hk
from hjbkit import cli, facelift
from hjbkit.problem import neg_trace_constraint

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_rebinds_every_traced_name_and_uninstall_restores_it(tracer_module):
    originals = {
        (mod, name): getattr(importlib.import_module(mod), name)
        for _, name, modules in tracer_module.TRACED
        for mod in modules
    }
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for (mod, name), original in originals.items():
            assert getattr(importlib.import_module(mod), name) is not original, f"{mod}.{name}"
    finally:
        tracer.uninstall()
    for (mod, name), original in originals.items():
        assert getattr(importlib.import_module(mod), name) is original, f"{mod}.{name}"


@pytest.mark.parametrize("problem, shape", [
    (hk.proportional_control_problem(), (17,)),
    (replace(hk.heat_problem(dim=2), constraint=neg_trace_constraint()), (9, 11)),
    (hk.heat_problem(), (17,)),
], ids=["neg_second", "neg_trace", "positive_const"])
def test_counting_constraint_gives_the_same_g_h(tracer_module, problem, shape):
    grid = hk.uniform_grid([-1.0] * len(shape), [1.0] * len(shape), list(shape))
    w = np.random.default_rng(0).normal(size=shape)
    tracer = tracer_module.Tracer()
    counted = replace(problem, constraint=tracer_module.counting_constraint(problem.constraint, tracer))
    np.testing.assert_array_equal(
        facelift._constraint_on_grid(counted, grid, w), facelift._constraint_on_grid(problem, grid, w)
    )
    assert dict(tracer.counts) == {"on_nodes@None": 1}


def test_one_policy_iteration_counts_each_iteration_once(tracer_module):
    """`facelift.relax_sweeps` counts on_nodes calls: one per policy-iteration step."""
    problem = hk.proportional_control_problem()
    grid = hk.uniform_grid([0.0], [2.0], [31])
    x = grid.axes[0]
    g = hk.GridFunction(grid, np.maximum(np.abs(x - 0.7), 0.5 - (x - 1.4) ** 2))
    tracer = tracer_module.Tracer()
    counted = replace(problem, constraint=tracer_module.counting_constraint(problem.constraint, tracer))
    w = facelift.facelift_general(g, counted)
    np.testing.assert_array_equal(w.values, facelift.facelift_general(g, problem).values)
    assert 1 <= tracer.counts["on_nodes@None"] <= (x.size - 2) + 1


@pytest.fixture(scope="module")
def workloads_module(tracer_module):
    """perfbench/workloads.py, which imports the tracer as a top-level module."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(TRACER_PATH.parent))
        mp.setitem(sys.modules, "tracer", tracer_module)
        spec = importlib.util.spec_from_file_location("perfbench_workloads", TRACER_PATH.parent / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up there
        spec.loader.exec_module(module)
    return module


def test_workload_call_shapes(workloads_module):
    """The calls perfbench/workloads.py makes, with its keywords, at toy sizes."""
    wl = workloads_module
    prob = hk.proportional_control_problem(mu=1.0, sigma=1.0, bound=1.0)
    grid = hk.uniform_grid([0.0], [2.0], [21])
    g = hk.GridFunction(grid, np.abs(grid.axes[0] - 0.7))
    hull = facelift.concave_envelope(g)
    lifted = facelift.facelift_general(g, prob, tol=wl.FACELIFT_TOL, max_iters=wl.SWEEP_BUDGET * 21 ** 2)
    assert np.max(np.abs(lifted.values - hull.values)) <= 10 * wl.FACELIFT_TOL

    prob2 = replace(hk.heat_problem(dim=2, horizon=wl.SOLVE_2D_HORIZON), constraint=neg_trace_constraint())
    grid2 = hk.uniform_grid([0.0, 0.0], [2.0, 2.0], [9, 9])
    a = grid2.axes[0]
    w = facelift.facelift_general(hk.GridFunction(grid2, np.add.outer(np.abs(a - 0.7), np.abs(a - 1.1))),
                                  prob2, tol=wl.FACELIFT_TOL, max_iters=wl.SWEEP_BUDGET * 9 ** 2)
    assert facelift._constraint_on_grid(prob2, w.grid, w.values).shape == (9, 9)
    hk.solve_hjb(prob2, w, hk.SchemeConfig(n_time_nodes=3, constraint_mode="penalize"))

    merton = hk.merton_problem(mu=0.1, sigma=0.2, p=0.5, horizon=1.0, bound=10.0)
    config = hk.SchemeConfig(n_time_nodes=200, control_grid_resolution=201, constraint_mode="project")
    small = hk.log_grid(0.2, 5.0, 20)
    terminal = hk.GridFunction(small, merton.payoff(small.nodes()).reshape(small.shape))
    hk.solve_hjb(merton, terminal, replace(config, n_time_nodes=3, control_grid_resolution=5))


def test_pipeline_report_holds_every_key_the_workload_judges(workloads_module, tmp_path):
    """One certify_pipeline op through cli.main: its checker reads every key it needs."""
    workload = workloads_module.CertifyPipeline(42, str(tmp_path))
    rc, out_dir = workload._run()
    assert rc in (0, 4)
    verdict = workload._judge(rc, out_dir, compare=False)
    assert set(verdict.figures) == {"value_rel_err", "gap_frac", "bracket_points_failed", "mc_exit_fraction"}


def test_pipeline_fast_spec_passes_the_unknown_key_check(workloads_module):
    spec = dict(workloads_module.PIPELINE_FAST_SPEC, problem=workloads_module.PIPELINE_PROBLEM)
    problem, grid, points = cli._pipeline_inputs(spec, ".")
    assert grid.shape == (120,) and len(points) == 3
    with pytest.raises(hk.ConfigurationError, match="'mc_path'"):
        cli._pipeline_inputs(dict(spec, mc_path=10), ".")


def test_pipeline_batteries_run_under_their_traced_names(tracer_module, workloads_module, tmp_path):
    """One certify_pipeline op under Tracer.install records a span for each battery
    and the bracket, the face-lift, the solve and the extracted policy, and for
    each simulation and estimate, so no wrapper routes a stage around the names
    tracer.py rebinds: 4 simulations a battery and one a bracket point, and an
    estimate for each of the 2 blocks of the 3 bracket points."""
    workload = workloads_module.CertifyPipeline(42, str(tmp_path))
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        rc, _ = workload._run()
    finally:
        tracer.uninstall()
    assert rc in (0, 4)
    names = collections.Counter(span["name"] for span in tracer.spans)
    assert {"certify.certify_subsolution", "certify.certify_supersolution", "certify.bracket_report"} <= set(names)
    assert {name: names[name] for name in ("facelift.concave_envelope", "solver.solve_hjb", "solver.extract_policy",
                                           "simulate.simulate_paths", "simulate.estimate_value")} == {
        "facelift.concave_envelope": 1, "solver.solve_hjb": 1, "solver.extract_policy": 1,
        "simulate.simulate_paths": 11, "simulate.estimate_value": 6}
