"""The benchmark's three workloads: inputs made from the seed, timed ops, checks.

Each workload builds its inputs in ``__init__`` (that is the set-up the
``setup_s`` metric times), offers ``warmup()`` and a list of ``Op`` that
make up one pass.  ``Op.run`` is the timed call into hjbkit; ``Op.check``
runs untimed on its result and returns a ``Verdict``.  All calls go through
module attributes (``solver.solve_hjb``, ``cli.main``, ...) so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import tempfile
from fractions import Fraction

import numpy as np

import hjbkit as hk
from hjbkit import cli, facelift, solver
from hjbkit.errors import ConvergenceError, NumericalError
from hjbkit.oracles import merton_lambda, merton_value
from hjbkit.problem import neg_trace_constraint

from tracer import counting_constraint

MERTON_REF = math.exp(0.125)          # v(0, 1) of the A2 fixture
A2_VALUE_TOL = 0.01                   # A2: |v(0,1) - e^{1/8}| / e^{1/8}
A2_GAP_TOL = 0.02                     # A2: certified gap / MC mean at (0, 1)
FAILURES = (ConvergenceError, NumericalError)


@dataclasses.dataclass
class Verdict:
    failed: bool = False                                   # the op delivered no usable result
    problems: list = dataclasses.field(default_factory=list)  # results reported good that are wrong
    figures: dict = dataclasses.field(default_factory=dict)
    note: str = ""


@dataclasses.dataclass
class Op:
    name: str
    run: object
    check: object


# ---------------------------------------------------------------------------
# merton_solve
# ---------------------------------------------------------------------------

class MertonSolve:
    """The A2 fixture solved explicitly; the seed selects nothing, the fixture is fixed."""

    name = "merton_solve"

    def __init__(self, seed, workdir, tracer=None):
        self.problem = hk.merton_problem(mu=0.1, sigma=0.2, p=0.5, horizon=1.0, bound=10.0)
        self.terminal = _payoff_on(self.problem, hk.log_grid(0.2, 5.0, 400))
        self.config = hk.SchemeConfig(
            n_time_nodes=200, control_grid_resolution=201, constraint_mode="project"
        )

    def warmup(self):
        small = _payoff_on(self.problem, hk.log_grid(0.2, 5.0, 60))
        solver.solve_hjb(self.problem, small, dataclasses.replace(
            self.config, n_time_nodes=10, control_grid_resolution=21))

    def ops(self):
        return [Op("solve", self._solve, self._check)]

    def _solve(self):
        return solver.solve_hjb(self.problem, self.terminal, self.config)

    def _check(self, sol):
        v = sol.value_at(0.0, [1.0])
        err = abs(v - MERTON_REF) / MERTON_REF
        verdict = Verdict(figures={"value_rel_err": err, "v01": v})
        if not err <= A2_VALUE_TOL:
            verdict.failed = True
            verdict.problems.append(f"v(0,1)={v!r}: rel. error {err:.3%} > {A2_VALUE_TOL:.0%} (A2)")
        return verdict


def _payoff_on(problem, grid):
    return hk.GridFunction(grid, problem.payoff(grid.nodes()).reshape(grid.shape))


# ---------------------------------------------------------------------------
# certify_pipeline
# ---------------------------------------------------------------------------

# Copied from scripts/run_merton_pipeline.py (PROBLEM and build_spec(fast=True))
# so the workload stays fixed; only "seed" is replaced by the benchmark seed.
PIPELINE_PROBLEM = {
    "family": "linear_drift",
    "params": {"mu": 0.1, "sigma": 0.2},
    "control_bound": 10.0,
    "state_domain": [[0.0, None]],
    "horizon": 1.0,
    "payoff": {"family": "power", "params": {"p": 0.5}},
    "gauge": {"family": "power", "params": {"p": 0.5}, "constant": 1.2},
    "constraint": {"family": "neg_second"},
}

PIPELINE_FAST_SPEC = {
    "problem": "merton-problem.json",
    "grid": {"box": [[0.2, 5.0]], "n": [120], "spacing": "log"},
    "points": [[0.0, 1.0], [0.25, 0.8], [0.5, 1.5]],
    "sub_candidate": {
        "kind": "closed-form", "family": "merton", "side": "sub",
        "params": {"mu": 0.1, "sigma": 0.2, "p": 0.5, "T": 1.0, "B": 10.0},
    },
    "super_candidate": {
        "kind": "closed-form", "family": "merton", "side": "super",
        "params": {"mu": 0.1, "sigma": 0.2, "p": 0.5, "T": 1.0, "B": 10.0,
                   "exponent_shift": 0.01},
    },
    "time_nodes": 50,
    "control_res": 81,
    "mc_paths": 30_000,
    "mc_steps": 100,
    "budget": 50_000,
    "start_box": [[0.5, 2.0]],
    "certify_solver_candidate": False,
    "seed": 42,
}


class CertifyPipeline:
    """``hjbkit pipeline`` through ``cli.main`` on the shipped --fast spec, seeded."""

    name = "certify_pipeline"

    def __init__(self, seed, workdir, tracer=None):
        self.workdir = workdir
        spec = dict(PIPELINE_FAST_SPEC, seed=int(seed))
        _write_json(os.path.join(workdir, "merton-problem.json"), PIPELINE_PROBLEM)
        self.spec_path = os.path.join(workdir, "pipeline.json")
        _write_json(self.spec_path, spec)
        self.spec = spec
        self.first_report = None
        p = spec["sub_candidate"]["params"]
        self.sub01 = merton_value(0.0, 1.0, mu=p["mu"], sigma=p["sigma"], p=p["p"],
                                  horizon=p["T"], bound=p["B"])
        shift = spec["super_candidate"]["params"]["exponent_shift"]
        self.super01 = math.exp(merton_lambda(p["mu"], p["sigma"], p["p"], p["B"]) + shift)

    def warmup(self):
        self._check(self._run(), compare=False)

    def ops(self):
        return [Op("pipeline", self._run, self._check)]

    def _run(self):
        out_dir = tempfile.mkdtemp(prefix="pipeline-", dir=self.workdir)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["--out-dir", out_dir, "pipeline", "--spec", self.spec_path])
        return rc, out_dir

    def _check(self, result, compare=True):
        rc, out_dir = result
        try:
            return self._judge(rc, out_dir, compare)
        finally:
            shutil.rmtree(out_dir)

    def _judge(self, rc, out_dir, compare):
        verdict = Verdict(note=f"exit {rc}")
        if rc != 0:
            verdict.failed = True
        report_path = os.path.join(out_dir, self.spec.get("out", "pipeline-report.json"))
        if rc not in (0, 4):
            return verdict
        with open(report_path, "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
        if compare:
            if self.first_report is None:
                self.first_report = raw
            elif raw != self.first_report:
                verdict.problems.append("pipeline report differs between runs of one seed")
        if not os.path.exists(os.path.join(out_dir, "manifest.json")):
            verdict.problems.append("no manifest.json in --out-dir")
        stages = report.get("stages", {})
        bad = {k: v for k, v in stages.items() if v != "ok"}
        if bad or len(stages) != 5:
            verdict.problems.append(f"stages not all ok: {stages}")
            return verdict
        tol = 1e-9
        points = report["bracket"]["points"]
        n_failed = 0
        for pt in points:
            hw = pt["mc_half_width"]
            ok = (pt["sub"] <= pt["mc_mean"] + hw + tol and pt["mc_mean"] <= pt["super"] + hw + tol
                  and pt["sub"] <= pt["super"] + tol)
            if ok != pt["ok"]:
                verdict.problems.append(f"bracket point {pt['t']},{pt['x']}: ok flag {pt['ok']} contradicts its numbers")
            n_failed += not pt["ok"]
        if (rc == 0) != (n_failed == 0 and report["bracket"]["ok"]):
            verdict.problems.append(f"exit {rc} with {n_failed} failed bracket points")
        first = points[0]
        for label, got, want in (("sub", first["sub"], self.sub01), ("super", first["super"], self.super01)):
            if not abs(got - want) <= 1e-12 * want:
                verdict.problems.append(f"{label}(0,1)={got!r}, closed form {want!r}")
        gap_frac = first["gap_fraction"]
        if not gap_frac < A2_GAP_TOL:
            verdict.problems.append(f"gap fraction {gap_frac:.3%} >= {A2_GAP_TOL:.0%} (A2)")
        v01 = report["solver_value_at_points"][0]
        verdict.figures = {
            "value_rel_err": abs(v01 - MERTON_REF) / MERTON_REF,
            "gap_frac": gap_frac,
            "bracket_points_failed": n_failed,
            "mc_exit_fraction": report["mc_estimate_at_first_point"]["exit_fraction"],
        }
        if n_failed:
            verdict.note += f", {n_failed} bracket point(s) with ok: false"
        return verdict


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


# ---------------------------------------------------------------------------
# facelift_batch
# ---------------------------------------------------------------------------

CORPUS_SEED = 20260810      # A3's seed: the 1-D corpus is A3's payoffs, on 61 and on 121 nodes
STUCK_PAYOFF = (7, 17)      # (generator seed, draw) of a 61-node payoff the relaxation cycles on
FACELIFT_TOL = 1e-8         # A3's tolerance; the relaxation must land within 10x of the hull
SIZES_1D = ((61, 6), (121, 1))    # (grid nodes, payoffs per pass)
SIZE_2D = 31
SWEEP_BUDGET = 6            # max_iters = SWEEP_BUDGET * n^2 (converged runs need under 4 n^2)
SOLVE_2D_HORIZON = 0.25
SOLVE_2D_TIME_NODES = 6


def _a3_payoff(rng, x):
    """A3's random piecewise-linear payoff: 4-8 breakpoints on [0, 2], values in [-1, 1]."""
    n_break = int(rng.integers(4, 9))
    bx = np.sort(rng.uniform(0.0, 2.0, n_break))
    bx[0], bx[-1] = 0.0, 2.0
    by = rng.uniform(-1.0, 1.0, n_break)
    return np.interp(x, bx, by)


class FaceliftBatch:
    """Random 1-D payoffs face-lifted two ways, plus a 2-D face-lift and penalized solve.

    The payoff shapes are a fixed corpus drawn with A3's generator, and the
    seed scales each payoff by a power of two.  That scaling is exact in
    floating point, so every value depends on the seed while the work of a
    pass does not: even a small tilt or offset moved the exact hull's cost by
    up to 2.5x, and fully random payoffs made the work of a pass vary more
    than the host noise.
    """

    name = "facelift_batch"

    def __init__(self, seed, workdir, tracer=None):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), 0xFACE))))
        prob = hk.proportional_control_problem(mu=1.0, sigma=1.0, bound=1.0)
        prob2 = dataclasses.replace(
            hk.heat_problem(dim=2, horizon=SOLVE_2D_HORIZON), constraint=neg_trace_constraint()
        )
        if tracer is not None:
            prob = dataclasses.replace(prob, constraint=counting_constraint(prob.constraint, tracer))
            prob2 = dataclasses.replace(prob2, constraint=counting_constraint(prob2.constraint, tracer))
        self.problem, self.problem2 = prob, prob2

        shapes = []
        for n, count in SIZES_1D:
            corpus = np.random.default_rng(CORPUS_SEED)
            x = np.linspace(0.0, 2.0, n)
            shapes += [(f"payoff{n}[{i}]", _a3_payoff(corpus, x)) for i in range(count)]
        # the relaxation's stop rule never fires on this one (see NOTES.md)
        stuck_seed, stuck_draw = STUCK_PAYOFF
        corpus = np.random.default_rng(stuck_seed)
        x = np.linspace(0.0, 2.0, 61)
        shapes.append(("payoff61[stuck]", [_a3_payoff(corpus, x) for _ in range(stuck_draw + 1)][-1]))
        self.payoffs = [
            (name, hk.GridFunction(hk.uniform_grid([0.0], [2.0], [g.size]), _scale(rng) * g))
            for name, g in shapes
        ]

        grid2 = hk.uniform_grid([0.0, 0.0], [2.0, 2.0], [SIZE_2D, SIZE_2D])
        x = grid2.axes[0]
        corpus = np.random.default_rng([CORPUS_SEED, 2])
        g2 = _a3_payoff(corpus, x)[:, None] + _a3_payoff(corpus, x)[None, :]
        self.payoff2 = hk.GridFunction(grid2, _scale(rng) * g2)
        self.lifted2 = None

    def warmup(self):
        grid = hk.uniform_grid([0.0], [2.0], [21])
        g = hk.GridFunction(grid, np.abs(grid.axes[0] - 0.7))
        facelift.concave_envelope(g)
        facelift.facelift_general(g, self.problem, tol=FACELIFT_TOL)
        grid2 = hk.uniform_grid([0.0, 0.0], [2.0, 2.0], [9, 9])
        a = grid2.axes[0]
        g2 = hk.GridFunction(grid2, np.add.outer(np.abs(a - 0.7), np.abs(a - 1.1)))
        w = facelift.facelift_general(g2, self.problem2, tol=FACELIFT_TOL)
        solver.solve_hjb(self.problem2, w, hk.SchemeConfig(n_time_nodes=3, constraint_mode="penalize"))

    def ops(self):
        ops = [Op(name, self._lift_1d(g), self._check_1d(g)) for name, g in self.payoffs]
        ops.append(Op("facelift2d", self._lift_2d, self._check_2d))
        ops.append(Op("solve2d", self._solve_2d, self._check_solve_2d))
        return ops

    def _lift_1d(self, g):
        budget = SWEEP_BUDGET * g.grid.shape[0] ** 2

        def run():
            hull = facelift.concave_envelope(g)
            relaxed = facelift.facelift_general(g, self.problem, tol=FACELIFT_TOL, max_iters=budget)
            return hull, relaxed

        return run

    def _check_1d(self, g):
        def check(result):
            hull, relaxed = result
            gap = float(np.max(np.abs(relaxed.values - hull.values)))
            verdict = Verdict(figures={"hull_relax_gap": gap})
            if not gap <= 10 * FACELIFT_TOL:
                verdict.failed = True
                verdict.problems.append(f"relaxation {gap:.2e} from the hull (> {10 * FACELIFT_TOL:.0e}, A3)")
            defect = _hull_defect(g.grid.axes[0], g.values, hull.values)
            if defect:
                verdict.failed = True
                verdict.problems.append(defect)
            return verdict

        return check

    def _lift_2d(self):
        budget = SWEEP_BUDGET * SIZE_2D ** 2
        self.lifted2 = facelift.facelift_general(
            self.payoff2, self.problem2, tol=FACELIFT_TOL, max_iters=budget)
        return self.lifted2

    def _check_2d(self, w):
        g = self.payoff2.values
        h = float(np.min(np.diff(self.payoff2.grid.axes[0])))
        # a value change of 10 tol is a change of 10 tol / step in G, with the
        # relaxation step h^2 / (2 |dG/dM|) = h^2 / 4 for G = -trace(M)
        g_tol = 10 * FACELIFT_TOL * 4.0 / h**2
        gh = facelift._constraint_on_grid(self.problem2, w.grid, w.values)
        comp = float(np.max(np.abs(np.minimum(w.values - g, gh)[1:-1, 1:-1])))
        verdict = Verdict(figures={"complementarity_2d": comp})
        if not (np.all(w.values >= g) and comp <= g_tol):
            verdict.failed = True
            verdict.problems.append(
                f"2-D face-lift: min(w - g) {float(np.min(w.values - g)):.2e}, "
                f"interior complementarity {comp:.2e} (tol {g_tol:.1e})")
        return verdict

    def _solve_2d(self):
        terminal = self.lifted2 if self.lifted2 is not None else self.payoff2
        return solver.solve_hjb(self.problem2, terminal, hk.SchemeConfig(
            n_time_nodes=SOLVE_2D_TIME_NODES, constraint_mode="penalize"))

    def _check_solve_2d(self, sol):
        w = sol.values[-1]
        v0 = sol.values[0]
        verdict = Verdict()
        # monotone scheme: the solution stays within the range of its terminal data
        if not (np.all(np.isfinite(sol.values)) and v0.min() >= w.min() - 1e-9
                and v0.max() <= w.max() + 1e-9):
            verdict.failed = True
            verdict.problems.append(
                f"2-D solve left the terminal range [{w.min():.4f}, {w.max():.4f}]: "
                f"[{v0.min():.4f}, {v0.max():.4f}]")
        return verdict


def _scale(rng):
    return 2.0 ** int(rng.integers(-2, 3))


def _hull_defect(x, g, hull):
    """Exact checks on the hull: it dominates g and its second differences are <= 0."""
    if not np.all(hull >= g):
        return "hull falls below the payoff"
    xf = [Fraction(float(t)) for t in x]
    hf = [Fraction(float(t)) for t in hull]
    for k in range(1, len(xf) - 1):
        left = (hf[k] - hf[k - 1]) / (xf[k] - xf[k - 1])
        right = (hf[k + 1] - hf[k]) / (xf[k + 1] - xf[k])
        if right > left:
            return f"hull not concave at node {k}"
    return ""


WORKLOADS = {w.name: w for w in (MertonSolve, CertifyPipeline, FaceliftBatch)}
