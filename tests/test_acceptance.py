"""Acceptance criteria, one test per criterion, all tolerances pinned here.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per criterion.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

import hjbkit as hk
from hjbkit.certify import (
    BracketConfig,
    bracket_report,
    constant_candidate,
    lattice_max,
    lattice_min,
    merton_candidate,
)
from hjbkit.cli import main
from hjbkit.facelift import exact_concavity_repair
from hjbkit.oracles import heat_value, merton_lambda, merton_value
from hjbkit.problem import abs_payoff
from hjbkit.simulate import constant_policy

MERTON_REF = math.exp(0.125)


def _report(criterion: str, ok: bool, detail: str):
    print(f"\n{criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# A1  heat anchor
# ---------------------------------------------------------------------------

def test_a1_heat_anchor(heat_problem):
    grid = hk.uniform_grid([-6.0], [6.0], [400])
    x = grid.axes[0]
    terminal = hk.GridFunction(grid, x**2)
    t0 = time.time()
    sol = hk.solve_hjb(heat_problem, terminal, hk.SchemeConfig(n_time_nodes=400))
    elapsed = time.time() - t0
    trust = (x >= -3.6) & (x <= 3.6)
    closed = np.array([heat_value(0.0, xi, 1.0, "x2", 1.0) for xi in x])
    err = float(np.max(np.abs(sol.values[0] - closed)[trust]))
    _report(
        "A1", err <= 1e-2 and elapsed < 60.0,
        f"sup error on trust region {err:.2e} (tol 1e-2), runtime {elapsed:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# A2  Merton end to end
# ---------------------------------------------------------------------------

def test_a2_merton_solver_value(merton_solution):
    v = merton_solution.value_at(0.0, [1.0])
    rel = abs(v - MERTON_REF) / MERTON_REF
    _report("A2.solve", rel <= 0.01, f"v(0,1)={v:.6f} vs {MERTON_REF:.6f}, rel err {rel:.2%} (tol 1%)")


def test_a2_simulation_reproduces_solver(merton_problem, merton_solution):
    policy = hk.extract_policy(merton_solution)
    # absorb at the truncation box so both sides price the same stopped process
    ens = hk.simulate_paths(
        merton_problem.within(merton_solution.grid.box), policy, 0.0, [1.0], 100_000, 200, seed=2026,
    )
    est = hk.estimate_value(ens, merton_problem.payoff)
    v = merton_solution.value_at(0.0, [1.0])
    ok = abs(est.mean - v) <= est.half_width_95
    _report(
        "A2.simulate", ok,
        f"MC {est.mean:.6f} +- {est.half_width_95:.6f} vs solver {v:.6f} "
        f"(diff {abs(est.mean - v):.6f} within 95% CI)",
    )


def test_a2_pipeline_certification_gap(merton_problem, merton_solution):
    sub = merton_candidate("sub")
    sup = merton_candidate("super", exponent_shift=0.01)
    cfg = hk.CertifyConfig(start_box=hk.Box([0.5], [2.0]), budget=100_000, seed=7)
    sub_rep = hk.certify_subsolution(sub, merton_problem, cfg)
    sup_rep = hk.certify_supersolution(sup, merton_problem, cfg, (hk.extract_policy(merton_solution),))
    rep = bracket_report(
        sub, sup, merton_problem, [(0.0, [1.0])], BracketConfig(n_paths=100_000, seed=9),
        sub_rep, sup_rep,
    )
    pt = rep.points[0]
    frac = pt.gap / abs(pt.mc.mean)
    ok = sub_rep.certified and sup_rep.certified and rep.ok and frac < 0.02
    _report(
        "A2.pipeline", ok,
        f"certified sandwich gap at (0,1) = {pt.gap:.5f} = {frac:.2%} of value (tol 2%)",
    )


# ---------------------------------------------------------------------------
# A3  face-lift equivalence
# ---------------------------------------------------------------------------

def test_a3_facelift_equivalence():
    from fractions import Fraction

    def brute_force_hull(x, v):
        xf = [Fraction(float(t)) for t in x]
        vf = [Fraction(float(t)) for t in v]
        out = np.empty(len(x))
        for k in range(len(x)):
            best = vf[k]
            for i in range(k + 1):
                for j in range(k, len(x)):
                    if i == j:
                        continue
                    c = vf[i] + (vf[j] - vf[i]) * (xf[k] - xf[i]) / (xf[j] - xf[i])
                    if c > best:
                        best = c
            out[k] = float(best)
        return exact_concavity_repair(x, out)

    prob = hk.proportional_control_problem(mu=1.0, sigma=1.0, bound=1.0)
    grid = hk.uniform_grid([0.0], [2.0], [61])
    x = grid.axes[0]
    rng = np.random.default_rng(20260810)
    tol = 1e-8
    worst_gap, exact_ok = 0.0, True
    for _ in range(10):
        n_break = int(rng.integers(4, 9))
        bx = np.sort(rng.uniform(0.0, 2.0, n_break))
        bx[0], bx[-1] = 0.0, 2.0
        by = rng.uniform(-1.0, 1.0, n_break)
        payoff = np.interp(x, bx, by)
        g = hk.GridFunction(grid, payoff)
        env = hk.concave_envelope(g)
        exact_ok &= bool(np.array_equal(env.values, brute_force_hull(x, payoff)))
        lifted = hk.facelift_general(g, prob, tol=tol)
        worst_gap = max(worst_gap, float(np.max(np.abs(lifted.values - env.values))))
    ok = exact_ok and worst_gap <= 10 * tol
    _report(
        "A3", ok,
        f"hull == brute-force oracle exactly: {exact_ok}; "
        f"policy iteration vs hull sup gap {worst_gap:.2e} (tol {10 * tol:.0e})",
    )


# ---------------------------------------------------------------------------
# A4  terminal layer
# ---------------------------------------------------------------------------

def test_a4_terminal_layer():
    prob = hk.proportional_control_problem(mu=1.0, sigma=1.0, bound=1.0, payoff=abs_payoff(1.0))
    grid = hk.uniform_grid([0.0], [2.0], [101])
    x = grid.axes[0]
    h = x[1] - x[0]
    g = hk.GridFunction(grid, np.abs(x - 1.0))
    ghat = hk.concave_envelope(g)
    sol = hk.solve_hjb(prob, g, hk.SchemeConfig(n_time_nodes=41, control_grid_resolution=21))
    near_terminal = sol.values[-2]
    trust = (x >= 0.4) & (x <= 1.6)
    d_hat = float(np.max(np.abs(near_terminal - ghat.values)[trust]))
    k = int(np.argmin(np.abs(x - 1.0)))
    jump = abs(near_terminal[k] - g.values[k])
    ok = d_hat <= 2 * h and jump >= 0.4
    _report(
        "A4", ok,
        f"|v(T-dt) - ghat| = {d_hat:.4f} (tol 2h = {2 * h:.4f}); "
        f"distance from raw payoff at kink = {jump:.3f} (>= 0.4)",
    )


# ---------------------------------------------------------------------------
# A5  discrete comparison
# ---------------------------------------------------------------------------

def test_a5_discrete_comparison(merton_problem):
    grid = hk.log_grid(0.2, 5.0, 60)
    x = grid.axes[0]
    rng = np.random.default_rng(55)
    cfg = hk.SchemeConfig(n_time_nodes=12, control_grid_resolution=21, constraint_mode="penalize")
    violations = 0
    for _ in range(20):
        g1 = np.sqrt(x) + 0.5 * rng.normal(size=x.size)
        g2 = g1 + rng.uniform(0.0, 1.0, x.size)
        s1 = hk.solve_hjb(merton_problem, hk.GridFunction(grid, g1), cfg)
        s2 = hk.solve_hjb(merton_problem, hk.GridFunction(grid, g2), cfg)
        violations += int(np.sum(s1.values > s2.values))
    _report("A5", violations == 0, f"{violations} ordering violations across 20 pairs x all slices")


# ---------------------------------------------------------------------------
# A6  certifier soundness and power
# ---------------------------------------------------------------------------

def test_a6_certifier_soundness_and_power(merton_problem, coarse_merton_solution):
    box = hk.Box([0.5], [2.0])
    argmax_policy = hk.extract_policy(coarse_merton_solution)

    cfg = hk.CertifyConfig(start_box=box, budget=100_000, seed=606)
    sub_ok = hk.certify_subsolution(merton_candidate("sub"), merton_problem, cfg).certified
    sup_ok = hk.certify_supersolution(merton_candidate("super"), merton_problem, cfg, (argmax_policy,)).certified

    inflated = merton_candidate("sub", exponent_shift=0.05)
    deflated = merton_candidate("super", exponent_shift=-0.05)
    sub_rejects = 0
    sup_rejects = 0
    for rep_seed in range(100):
        c = hk.CertifyConfig(start_box=box, budget=100_000, seed=1000 + rep_seed,
                             steps_per_record=24)
        if not hk.certify_subsolution(inflated, merton_problem, c).certified:
            sub_rejects += 1
        if not hk.certify_supersolution(deflated, merton_problem, c, (argmax_policy,), n_random=0).certified:
            sup_rejects += 1
    ok = sub_ok and sup_ok and sub_rejects >= 99 and sup_rejects >= 99
    _report(
        "A6", ok,
        f"exact candidate certified (sub {sub_ok}, super {sup_ok}); "
        f"rejections out of 100: inflated sub {sub_rejects}, deflated super {sup_rejects} (>= 99)",
    )


# ---------------------------------------------------------------------------
# A7  lattice closure
# ---------------------------------------------------------------------------

def test_a7_lattice_closure(merton_problem):
    box = hk.Box([0.5], [2.0])
    cfg = hk.CertifyConfig(start_box=box, budget=60_000, seed=77)
    min_payoff = math.sqrt(0.5)
    sub = lattice_max(
        merton_candidate("sub"),
        constant_candidate(min_payoff, "sub", growth_constant=1.0),
    )
    sub_rep = hk.certify_subsolution(sub, merton_problem, cfg)

    max_payoff = math.sqrt(2.0)
    sup = lattice_min(
        merton_candidate("super"),
        constant_candidate(max_payoff * math.exp(0.2), "super",
                           growth_constant=max_payoff * math.exp(0.2) / math.sqrt(0.5)),
    )
    sup_rep = hk.certify_supersolution(sup, merton_problem, cfg, n_random=2)
    ok = sub_rep.certified and sup_rep.certified
    _report(
        "A7", ok,
        f"lattice_max sub battery: {sub_rep.verdict}; lattice_min super battery: {sup_rep.verdict}",
    )


# ---------------------------------------------------------------------------
# A8  sandwich with shrinking gap
# ---------------------------------------------------------------------------

def test_a8_sandwich_gap_shrinks(merton_problem):
    box = hk.Box([0.5], [2.0])
    cfg = hk.CertifyConfig(start_box=box, budget=60_000, seed=88)
    sub = merton_candidate("sub")
    sub_rep = hk.certify_subsolution(sub, merton_problem, cfg)
    points = [(0.0, [1.0]), (0.0, [0.7]), (0.25, [1.5]), (0.5, [0.9]), (0.75, [1.8])]
    max_gaps = []
    all_ok = sub_rep.certified
    for delta in (0.1, 0.05, 0.02):
        sup = merton_candidate("super", exponent_shift=delta)
        sup_rep = hk.certify_supersolution(sup, merton_problem, cfg, (constant_policy([5.0]),), n_random=1)
        rep = bracket_report(sub, sup, merton_problem, points,
                             BracketConfig(n_paths=20_000, seed=90), sub_rep, sup_rep)
        all_ok &= sup_rep.certified and rep.ok
        max_gaps.append(rep.max_gap)
    shrinking = max_gaps[0] > max_gaps[1] > max_gaps[2]
    _report(
        "A8", all_ok and shrinking,
        f"all sandwich margins >= -CI at 5 points; max gaps {[f'{g:.4f}' for g in max_gaps]} "
        "shrink monotonically with the inflation delta",
    )


# ---------------------------------------------------------------------------
# A9  control-bound monotonicity
# ---------------------------------------------------------------------------

def test_a9_control_bound_monotonicity(merton_problem, merton_grid, merton_terminal):
    # integer/half control spacing keeps the grids bitwise nested so the
    # saturated pair B=5, B=10 (equal continuum values) stays exactly ordered
    resolutions = {0.5: 3, 1.0: 5, 2.0: 9, 5.0: 21, 10.0: 41}
    sol10 = hk.solve_hjb(
        dataclasses.replace(merton_problem, controls=hk.Box([-10.0], [10.0])), merton_terminal,
        hk.SchemeConfig(n_time_nodes=200, control_grid_resolution=41),
    )
    dt10 = sol10.metadata["dt_internal"]
    values, rel_errs = [], []
    for bound in (0.5, 1.0, 2.0, 5.0):
        prob = dataclasses.replace(merton_problem, controls=hk.Box([-bound], [bound]))
        cfg = hk.SchemeConfig(
            n_time_nodes=200, control_grid_resolution=resolutions[bound],
            dt=dt10 if bound == 5.0 else None,
        )
        values.append(hk.solve_hjb(prob, merton_terminal, cfg).value_at(0.0, [1.0]))
    values.append(sol10.value_at(0.0, [1.0]))

    bounds = (0.5, 1.0, 2.0, 5.0, 10.0)
    refs = [math.exp(merton_lambda(0.1, 0.2, 0.5, b)) for b in bounds]
    rel_errs = [abs(v - r) / r for v, r in zip(values, refs)]
    nondecreasing = all(b >= a for a, b in zip(values, values[1:]))
    within = all(e <= 0.01 for e in rel_errs)
    _report(
        "A9", nondecreasing and within,
        "values " + ", ".join(f"B={b}: {v:.5f} (ref {r:.5f}, err {e:.2%})"
                              for b, v, r, e in zip(bounds, values, refs, rel_errs))
        + "; non-decreasing in B",
    )


# ---------------------------------------------------------------------------
# A10  reproducibility from manifests
# ---------------------------------------------------------------------------

def test_a10_manifest_reproducibility(tmp_path):
    prob_doc = {
        "family": "linear_drift",
        "params": {"mu": 0.1, "sigma": 0.2},
        "control_bound": 10.0,
        "state_domain": [[0.0, None]],
        "horizon": 1.0,
        "payoff": {"family": "power", "params": {"p": 0.5}},
        "gauge": {"family": "power", "params": {"p": 0.5}, "constant": 1.2},
        "constraint": {"family": "neg_second"},
    }
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(prob_doc))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"box": [[0.2, 5.0]], "n": [80], "spacing": "log"}))
    pol = tmp_path / "pol.json"
    pol.write_text(json.dumps({"kind": "constant", "value": [5.0]}))

    checks = []
    # solve
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["--out-dir", str(d1), "solve", "--problem", str(prob), "--grid", str(grid),
                 "--time-nodes", "20", "--control-res", "21"]) == 0
    assert main(["--out-dir", str(d2), "--manifest", str(d1 / "manifest.json"), "solve",
                 "--problem", str(prob), "--grid", str(grid)]) == 0
    checks.append((d1 / "solution.csv").read_bytes() == (d2 / "solution.csv").read_bytes())
    # simulate
    d3, d4 = tmp_path / "m1", tmp_path / "m2"
    assert main(["--out-dir", str(d3), "simulate", "--problem", str(prob), "--policy", str(pol),
                 "--t0", "0", "--x0", "1.0", "--paths", "20000", "--steps", "50"]) == 0
    assert main(["--out-dir", str(d4), "--manifest", str(d3 / "manifest.json"), "simulate",
                 "--problem", str(prob), "--policy", str(pol), "--x0", "1.0"]) == 0
    checks.append(
        (d3 / "ensemble-summary.json").read_bytes() == (d4 / "ensemble-summary.json").read_bytes()
    )
    # facelift
    d5, d6 = tmp_path / "f1", tmp_path / "f2"
    assert main(["--out-dir", str(d5), "facelift", "--problem", str(prob), "--grid", str(grid)]) == 0
    assert main(["--out-dir", str(d6), "--manifest", str(d5 / "manifest.json"), "facelift",
                 "--problem", str(prob), "--grid", str(grid)]) == 0
    checks.append((d5 / "ghat.csv").read_bytes() == (d6 / "ghat.csv").read_bytes())
    _report(
        "A10", all(checks),
        f"bitwise replay from manifests: solve={checks[0]}, simulate={checks[1]}, facelift={checks[2]}",
    )
