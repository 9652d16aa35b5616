"""The names and signatures the benchmark in perfbench/ reaches into hjbkit through.

perfbench/tracer.py rebinds public functions in several hjbkit modules and
subclasses Constraint; a refactor that breaks either should fail here rather
than in a traced benchmark run.
"""

import importlib
import importlib.util
import pathlib
from dataclasses import replace

import numpy as np
import pytest

import hjbkit as hk
from hjbkit import facelift
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
