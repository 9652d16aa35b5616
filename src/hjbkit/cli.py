"""Command-line entry point.

Subcommands: facelift, solve, simulate, certify, bracket, convergence, oracle,
pipeline.  Every run that writes artifacts also writes a manifest with the
resolved configuration, input hashes and the seed; re-running a subcommand
with --manifest pointing at that file reproduces the outputs (bitwise for
simulation and solves).  Exit codes: 0 success, 2 configuration/usage error,
3 numerical or convergence failure, 4 certification FAIL (a rejected
hypothesis, not a tool failure).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import specio
from .certify import (
    AdversaryConfig,
    BracketConfig,
    CertificationReport,
    CertifyConfig,
    TestRecord,
    bracket_ensemble,
    bracket_report,
    candidate_from_solution,
    certify_subsolution,
    certify_supersolution,
)
from .errors import ConfigurationError, ConvergenceError, DomainError, NumericalError
from .facelift import concave_envelope, facelift_general
from .grids import Box, GridFunction, box_from_pairs
from .oracles import heat_value, merton_value
from .simulate import estimate_value, simulate_paths
from .solver import SchemeConfig, convergence_study, extract_policy, solve_hjb
from .specio import integer as _integer

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CERTIFY_FAIL = 4


def _parse_params(text: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        key, val = item.split("=", 1)
        out[key.strip()] = float(val)
    return out


def _payoff_values(problem, grid) -> GridFunction:
    return GridFunction(grid, problem.payoff(grid.nodes()).reshape(grid.shape))


def _report_to_json(report: CertificationReport, candidate_spec) -> dict:
    return {**asdict(report), "candidate": candidate_spec, "certified": report.certified, "verdict": report.verdict}


def _bracket_to_json(rep) -> dict:
    return {
        "ok": rep.ok,
        "max_gap": rep.max_gap,
        "points": [
            {
                "t": p.t, "x": list(p.x), "sub": p.sub_value, "super": p.super_value,
                "mc_mean": p.mc.mean, "mc_half_width": p.mc.half_width_95,
                "gap": p.gap, "ok": p.ok,
            }
            for p in rep.points
        ],
    }


def _from_fields(cls, doc: dict, **given):
    """A `cls` whose fields not in `given` are read from `doc` under their own names."""
    return cls(**{f.name: doc[f.name] for f in fields(cls) if f.name not in given}, **given)


def _report_from_json(doc: dict) -> CertificationReport:
    records = tuple(_from_fields(TestRecord, r, start=tuple(r["start"])) for r in doc["records"])
    return _from_fields(
        CertificationReport, doc, candidate=str(doc["candidate"]), records=records,
        adversary_class=doc.get("adversary_class", ""),
    )


@specio._document("certify report")
def _load_report(path):
    """The candidate a certify report describes, and the report."""
    doc = specio.load_json(path)
    candidate = specio.candidate_from_spec(doc["candidate"], base_dir=os.path.dirname(path) or ".")
    return candidate, _report_from_json(doc)


# ---------------------------------------------------------------------------
# subcommand handlers (each takes the resolved config dict)
# ---------------------------------------------------------------------------

_ORACLES = {
    "merton": (merton_value, specio.MERTON_PARAMS),
    "heat": (heat_value, {"sigma": "sigma_const", "T": "horizon"}),
}


def _run_oracle(cfg, out_dir):
    t, x = _read(cfg, "eval", lambda v: _floats(v, 2))
    if cfg["family"] not in _ORACLES:
        raise ConfigurationError(f"unknown oracle family {cfg['family']!r}")
    value, names = _ORACLES[cfg["family"]]
    params = specio.keyword_params(cfg["params"], names, f"{cfg['family']} oracle")
    if cfg["family"] == "heat":
        params["payoff"] = cfg.get("payoff", "x2")
    val = value(t, x, **params)
    print(f"{val!r}")
    if out_dir:
        specio.write_manifest(out_dir, "oracle", cfg, [], cfg.get("seed"), [])
    return EXIT_OK


def _facelift(problem, g):
    """Face-lift of the payoff g: the exact hull for G = -M in 1-D, facelift_general
    otherwise (policy iteration for G linear in M, g itself for a positive constant G)."""
    if problem.constraint.family == "neg_second" and g.grid.dim == 1:
        return concave_envelope(g)
    return facelift_general(g, problem)


def _run_facelift(cfg, out_dir):
    # older manifests hold "method": "auto" and a "tol" that reached no documented constraint
    if cfg.get("method", "auto") != "auto":
        raise ConfigurationError(
            f'"method": {cfg["method"]!r} is not supported; the facelift --method flag was removed')
    problem = specio.load_problem(cfg["problem"])
    grid = specio.load_grid(cfg["grid"])
    g = _payoff_values(problem, grid)
    ghat = _facelift(problem, g)
    out = os.path.join(out_dir, cfg["out"])
    specio.atomic_write_text(out, ghat.to_csv())
    specio.write_manifest(out_dir, "facelift", cfg, [cfg["problem"], cfg["grid"]], cfg.get("seed"), [cfg["out"]])
    print(f"facelift written to {out}; sup distance to payoff = {float(np.max(ghat.values - g.values))!r}")
    return EXIT_OK


def _read(cfg, key, parse, default=None):
    """parse(cfg[key]), or parse(default) when the key is absent; a value that
    parse refuses is a configuration error naming the key."""
    value = cfg.get(key, default)
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"key {key!r}: {value!r} does not parse ({exc})") from None


def _floats(value, length=None):
    """A nonempty list of floats, of `length` entries when given."""
    if not isinstance(value, (list, tuple)) or not value or (length is not None and len(value) != length):
        raise ValueError(f"not a list of {length or 'one or more'} numbers")
    return [float(v) for v in value]


def _optional_box(value):
    """A box from (lo, hi) pairs, or None for an absent or empty one."""
    return box_from_pairs(value) if value else None


def _scheme_config(cfg) -> SchemeConfig:
    if cfg.get("upwind", True) is not True:
        raise ConfigurationError('"upwind": false is not supported; the drift is always upwinded')
    if cfg.get("penalty_weight") is not None:
        raise ConfigurationError('"penalty_weight" is not supported; the penalty weight follows the grid')
    return SchemeConfig(
        n_time_nodes=_read(cfg, "time_nodes", _integer, 101),
        dt=_read(cfg, "dt", lambda v: None if v is None else float(v)),
        control_grid_resolution=_read(cfg, "control_res", _integer, 41),
        constraint_mode=cfg.get("mode", "auto"),
    )


def _run_solve(cfg, out_dir):
    problem = specio.load_problem(cfg["problem"])
    grid = specio.load_grid(cfg["grid"])
    config = _scheme_config(cfg)
    g = _payoff_values(problem, grid)
    terminal = _facelift(problem, g) if cfg.get("terminal", "facelift") == "facelift" else g
    sol = solve_hjb(problem, terminal, config)
    out = os.path.join(out_dir, cfg["out"])
    specio.atomic_write_text(out, sol.to_csv())
    sidecar = {
        "scheme": {
            "n_time_nodes": config.n_time_nodes,
            "dt_internal": sol.metadata["dt_internal"],
            "substeps_per_interval": sol.metadata["substeps_per_interval"],
            "cfl_dt_max": sol.metadata["cfl_dt_max"],
            "control_grid_size": sol.metadata["control_grid_size"],
            "mode": sol.metadata["mode"],
        },
        "terminal": cfg.get("terminal", "facelift"),
    }
    specio.atomic_write_text(os.path.join(out_dir, cfg["out"] + ".config.json"),
                             json.dumps(sidecar, indent=2) + "\n")
    specio.write_manifest(
        out_dir, "solve", cfg, [cfg["problem"], cfg["grid"]], cfg.get("seed"),
        [cfg["out"], cfg["out"] + ".config.json"],
    )
    print(f"solution written to {out} ({sol.metadata['substeps_per_interval']} substeps/interval)")
    return EXIT_OK


def _run_simulate(cfg, out_dir):
    problem = specio.load_problem(cfg["problem"])
    policy_spec = specio.load_json(cfg["policy"])
    policy = specio.policy_from_spec(policy_spec, base_dir=os.path.dirname(cfg["policy"]) or ".")
    box = _read(cfg, "simulation_box", _optional_box)
    t0, x0, seed = _read(cfg, "t0", float, 0.0), _read(cfg, "x0", _floats), _read(cfg, "seed", _integer, 0)
    ens = simulate_paths(
        problem, policy, t0, x0, _read(cfg, "paths", _integer, 10_000), _read(cfg, "steps", _integer, 100),
        seed, box,
    )
    est = estimate_value(ens, problem.payoff)
    summary = {
        **asdict(est), "seed": seed, "policy": policy_spec, "t0": t0, "x0": x0,
        "log_coordinates": ens.log_coordinates,
    }
    out = os.path.join(out_dir, cfg["out"])
    specio.atomic_write_text(out, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    specio.write_manifest(out_dir, "simulate", cfg, [cfg["problem"], cfg["policy"]], cfg.get("seed"), [cfg["out"]])
    print(f"value estimate {est.mean!r} +- {est.half_width_95!r} (exit fraction {est.exit_fraction:.4f})")
    return EXIT_OK


def _certify_config(cfg, problem) -> CertifyConfig:
    box = _read(cfg, "start_box", _optional_box)
    if box is None:
        lo = np.where(np.isfinite(problem.state_domain.lo), problem.state_domain.lo, -1.0)
        hi = np.where(np.isfinite(problem.state_domain.hi), problem.state_domain.hi, 1.0)
        width = hi - lo
        box = Box(lo + 0.25 * width, hi - 0.25 * width)
    if box.dim != problem.state_dim:
        raise ConfigurationError(f"key 'start_box': {box.dim} dimensions; the problem has {problem.state_dim}")
    return CertifyConfig(
        start_box=box,
        budget=_read(cfg, "budget", _integer, 100_000),
        z=_read(cfg, "z", float, 4.0),
        tol=_read(cfg, "tol", float, 1e-9),
        n_starts=_read(cfg, "n_starts", _integer, 3),
        steps_per_record=_read(cfg, "steps", _integer, 48),
        seed=_read(cfg, "seed", _integer, 0),
    )


def _certify(candidate, side, problem, config, extra_policies=()) -> CertificationReport:
    """The candidate's battery on `side`; super adversaries are seeded one past the battery."""
    if side == "sub":
        return certify_subsolution(candidate, problem, config)
    adv = AdversaryConfig(extra_policies=extra_policies, seed=config.seed + 1)
    return certify_supersolution(candidate, problem, config, adv)


def _run_certify(cfg, out_dir):
    problem = specio.load_problem(cfg["problem"])
    candidate_spec = specio.load_json(cfg["candidate"])
    candidate = specio.candidate_from_spec(
        candidate_spec, base_dir=os.path.dirname(cfg["candidate"]) or ".", side=cfg.get("kind"))
    candidate_spec = {**candidate_spec, "side": candidate.kind}
    report = _certify(candidate, candidate.kind, problem, _certify_config(cfg, problem))
    doc = _report_to_json(report, candidate_spec)
    out = os.path.join(out_dir, cfg["out"])
    specio.atomic_write_text(out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    specio.write_manifest(out_dir, "certify", cfg, [cfg["problem"], cfg["candidate"]], cfg.get("seed"), [cfg["out"]])
    print(report.verdict)
    if not report.certified:
        for r in report.failing():
            print(
                f"  FAILED {r.kind} tau={r.tau:g} rho={r.rho} adversary={r.adversary} "
                f"margin={r.margin:.3e} stderr={r.stderr:.3e}"
            )
        return EXIT_CERTIFY_FAIL
    return EXIT_OK


def _run_bracket(cfg, out_dir):
    problem = specio.load_problem(cfg["problem"])
    sub, sub_rep = _load_report(cfg["sub"])
    super_, super_rep = _load_report(cfg["super"])
    pts = _read_points(cfg["points"])
    _require_points(problem, pts)
    bc = BracketConfig(
        n_paths=_read(cfg, "paths", _integer, 20_000),
        n_steps=_read(cfg, "steps", _integer, 64),
        seed=_read(cfg, "seed", _integer, 0),
    )
    rep = bracket_report(sub, super_, problem, pts, bc, sub_rep, super_rep)
    doc = _bracket_to_json(rep)
    out = os.path.join(out_dir, cfg["out"])
    specio.atomic_write_text(out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    specio.write_manifest(
        out_dir, "bracket", cfg, [cfg["problem"], cfg["sub"], cfg["super"], cfg["points"]],
        cfg.get("seed"), [cfg["out"]],
    )
    print(f"bracket ok={rep.ok} max gap={rep.max_gap!r}")
    return EXIT_OK if rep.ok else EXIT_CERTIFY_FAIL


def _require_points(problem, points):
    """Refuse an evaluation point (t, x) unless 0 <= t < horizon and x lies in the open state domain."""
    for t, x in points:
        if not 0.0 <= t < problem.horizon:
            raise ConfigurationError(f"point at t={t!r}: t must lie in [0, {problem.horizon!r})")
        try:
            problem.require_inside(x)
        except DomainError as exc:
            raise ConfigurationError(f"point at t={t!r}: {exc}") from None


def _read_points(path):
    """The (t, x) lines `t,x1[,x2...]` of a points file; only the first line may be a header."""
    with open(path) as fh:
        lines = [(i, ln) for i, ln in enumerate(fh.read().splitlines(), 1) if ln.strip()]
    pts = []
    for j, (i, ln) in enumerate(lines):
        try:
            t, *x = (float(v) for v in ln.split(","))
        except ValueError:
            if j == 0:
                continue
            raise ConfigurationError(f"{path} line {i}: {ln!r} is not t,x[,...] numbers") from None
        if not x:
            raise ConfigurationError(f"{path} line {i}: {ln!r} has no state coordinates")
        pts.append((t, x))
    if not pts:
        raise ConfigurationError(f"{path} holds no points")
    return pts


def _run_convergence(cfg, out_dir):
    problem = specio.load_problem(cfg["problem"])
    grid = specio.load_grid(cfg["grid"])
    terminal = _payoff_values(problem, grid)
    study = convergence_study(
        problem, terminal, _read(cfg, "refinements", _integer, 2), _scheme_config(cfg),
        mode=cfg.get("refine", "space"),
    )
    doc = {"shapes": [list(s) for s in study.shapes], "diffs": list(study.diffs), "orders": list(study.orders)}
    out = os.path.join(out_dir, cfg["out"])
    specio.atomic_write_text(out, json.dumps(doc, indent=2) + "\n")
    specio.write_manifest(out_dir, "convergence", cfg, [cfg["problem"], cfg["grid"]], cfg.get("seed"), [cfg["out"]])
    print(f"diffs={study.diffs} orders={study.orders}")
    return EXIT_OK


# what a pipeline stage reports in the partial report instead of raising
_STAGE_ERRORS = (ConfigurationError, DomainError, ConvergenceError, NumericalError)

# every key a pipeline spec may hold: the ones _run_pipeline, _scheme_config
# and _certify_config read
_PIPELINE_KEYS = frozenset({
    "problem", "grid", "points", "out", "seed", "terminal", "absorb_at_truncation",
    "mc_paths", "mc_steps", "sub_candidate", "super_candidate", "certify_solver_candidate",
    "solver_growth_constant", "solver_candidate_tol",
    "upwind", "penalty_weight", "time_nodes", "dt", "control_res", "mode",
    "start_box", "budget", "z", "tol", "n_starts", "steps",
})


@specio._document("pipeline spec")
def _pipeline_inputs(spec, base: str):
    """The problem, grid and evaluation points of a pipeline spec.  A key nothing
    reads is refused, since a typo would otherwise silently take a default."""
    unknown = sorted(set(spec.keys()) - _PIPELINE_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown pipeline spec key(s) {', '.join(map(repr, unknown))}")
    if spec.get("absorb_at_truncation", False) is not False:
        raise ConfigurationError(
            '"absorb_at_truncation" is not supported; the Monte Carlo stages simulate on the state domain')
    problem = (
        specio.load_problem(os.path.join(base, spec["problem"]))
        if isinstance(spec["problem"], str)
        else specio.problem_from_spec(spec["problem"])
    )
    grid = specio.grid_from_spec(spec["grid"])
    points = [(float(p[0]), [float(v) for v in p[1:]]) for p in spec["points"]]
    if not points:
        raise ConfigurationError("a pipeline spec needs at least one point")
    _require_points(problem, points)
    return problem, grid, points


def _candidate(spec, key, side, base):
    """The candidate of a pipeline spec's `key`, which must be a `side`
    candidate, or None when the key is absent."""
    if key not in spec:
        return None
    try:
        candidate = specio.candidate_from_spec(spec[key], base)
    except ConfigurationError as exc:
        raise ConfigurationError(f"key {key!r}: {exc}") from None
    if candidate.kind != side:
        raise ConfigurationError(f"key {key!r}: a {candidate.kind} candidate, not a {side} one")
    return candidate


def _first_point(sub, problem, point, bc, box):
    """The estimates of bracket point 0's blocks, companion first, and the share
    of the extracted policy's paths that left `box`.  The ensemble does not
    outlive the call."""

    def left_box(x, start):
        # a diagnostic of the truncation, not a stopping rule
        return np.any((x < box.lo) | (x > box.hi), axis=1)

    blocks = bracket_ensemble(sub, problem, 0, *point, bc, stops=(left_box,)).blocks()
    return [estimate_value(b, problem.payoff) for b in blocks], float(np.mean(blocks[-1].stop_step[:, 0] >= 0))


def _run_pipeline(cfg, out_dir):
    base = os.path.dirname(cfg["spec"]) or "."
    spec = specio.load_json(cfg["spec"])
    problem, grid, points = _pipeline_inputs(spec, base)
    # every number and candidate of the spec is read here, once, so a bad one
    # exits 2 naming its key before any stage runs
    sub, super_ = _candidate(spec, "sub_candidate", "sub", base), _candidate(spec, "super_candidate", "super", base)
    config, ccfg = _scheme_config(spec), _certify_config(spec, problem)
    seed = ccfg.seed
    mc = BracketConfig(
        n_paths=_read(spec, "mc_paths", _integer, 100_000), n_steps=_read(spec, "mc_steps", _integer, 200),
        seed=seed)
    certify_solver = spec.get("certify_solver_candidate", True)
    solver_growth = _read(spec, "solver_growth_constant", float, 10.0)
    solver_tol = _read(spec, "solver_candidate_tol", float, 5e-3)
    if certify_solver:
        if ccfg.budget < 2:
            # the solver candidate is certified on half the budget
            raise ConfigurationError(
                f"budget must be at least 2 when the solver candidate is certified, not {ccfg.budget!r}")
        # stopped at the box: a stopped submartingale is still a submartingale
        scfg = CertifyConfig(start_box=ccfg.start_box, budget=ccfg.budget // 2, z=ccfg.z, tol=solver_tol,
                             seed=seed + 2, simulation_box=grid.box)
    report: dict = {"stages": {}}
    out = os.path.join(out_dir, spec.get("out", "pipeline-report.json"))

    def _write_report():
        specio.atomic_write_text(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
        specio.write_manifest(out_dir, "pipeline", cfg, [cfg["spec"]], seed, [spec.get("out", "pipeline-report.json")])

    g = _payoff_values(problem, grid)
    stage = "facelift"
    try:
        ghat = _facelift(problem, g)
        report["facelift_sup_distance"] = float(np.max(ghat.values - g.values))
        report["stages"][stage] = "ok"

        stage = "solve"
        terminal = ghat if spec.get("terminal", "facelift") == "facelift" else g
        sol = solve_hjb(problem, terminal, config)
        report["solver_value_at_points"] = [sol.value_at(t, x) for t, x in points]
        report["stages"][stage] = "ok"

        # the bracket's point-0 run, made here once and reused by the bracket:
        # the sub candidate's companion and the extracted policy, simulated on
        # the state domain, since stopping at the truncation box would price
        # another policy.  Only the estimates are kept, not the ensemble.
        stage = "simulate"
        # an absent candidate fails the first stage that needs one
        for key, candidate in (("sub_candidate", sub), ("super_candidate", super_)):
            if candidate is None:
                raise ConfigurationError(f"the pipeline spec has no {key!r}")
        policy = extract_policy(sol)
        bc = replace(mc, extra_policies=(policy,))
        first, left_box_fraction = _first_point(sub, problem, points[0], bc, grid.box)
        est = first[-1]
        report["mc_estimate_at_first_point"] = {
            "mean": est.mean, "half_width_95": est.half_width_95, "exit_fraction": est.exit_fraction,
            "left_box_fraction": left_box_fraction,
        }
        report["stages"][stage] = "ok"

        stage = "certify"
        sub_rep = _certify(sub, "sub", problem, ccfg)
        super_rep = _certify(super_, "super", problem, ccfg, (policy,))
        report["certify_sub"] = {"verdict": sub_rep.verdict, "certified": sub_rep.certified}
        report["certify_super"] = {"verdict": super_rep.verdict, "certified": super_rep.certified}
        if certify_solver:
            solver_cand = candidate_from_solution(sol, "sub", growth_constant=solver_growth)
            try:
                srep = certify_subsolution(solver_cand, problem, scfg)
                report["solver_candidate"] = {"verdict": srep.verdict, "certified": srep.certified}
            except ValueError as exc:
                report["solver_candidate"] = {"skipped": str(exc)}
        report["stages"][stage] = "ok"

        # sandwich, only between certified candidates
        uncertified = [side for side, rep in (("sub", sub_rep), ("super", super_rep)) if not rep.certified]
        if uncertified:
            report["bracket"] = f"skipped: {' and '.join(uncertified)} candidate not certified"
            report["stages"]["bracket"] = "skipped"
            _write_report()
            print(f"pipeline complete; bracket {report['bracket']}")
            return EXIT_CERTIFY_FAIL
        stage = "bracket"
        brep = bracket_report(sub, super_, problem, points, bc, sub_rep, super_rep, estimates=(first,))
    except _STAGE_ERRORS as exc:
        # the partial report; exit 2 for a configuration fault, 3 for a numerical one
        report["stages"][stage] = f"failed: {exc}"
        _write_report()
        print(f"pipeline failed at stage {stage}: {exc}")
        return EXIT_CONFIG if isinstance(exc, (ConfigurationError, DomainError)) else EXIT_NUMERIC
    report["bracket"] = _bracket_to_json(brep)
    for doc, p in zip(report["bracket"]["points"], brep.points):
        doc["gap_fraction"] = p.gap / max(abs(p.mc.mean), 1e-300)
    report["stages"]["bracket"] = "ok"

    _write_report()
    print(f"pipeline complete; certification gap at first point = {brep.points[0].gap!r}")
    return EXIT_OK if brep.ok else EXIT_CERTIFY_FAIL


_HANDLERS = {
    "oracle": _run_oracle,
    "facelift": _run_facelift,
    "solve": _run_solve,
    "simulate": _run_simulate,
    "certify": _run_certify,
    "bracket": _run_bracket,
    "convergence": _run_convergence,
    "pipeline": _run_pipeline,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hjbkit", description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default=None, help="artifact directory (default: .; oracle writes none)")
    ap.add_argument("--manifest", default=None, help="re-run from a recorded manifest")
    sub = ap.add_subparsers(dest="subcommand")

    p = sub.add_parser("oracle")
    p.add_argument("--family", required=True, choices=["merton", "heat"])
    p.add_argument("--params", default="")
    p.add_argument("--eval", required=True, help="t,x")

    p = sub.add_parser("facelift")
    p.add_argument("--problem", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--out", default="ghat.csv")

    p = sub.add_parser("solve")
    p.add_argument("--problem", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--terminal", default="facelift", choices=["raw", "facelift"])
    p.add_argument("--out", default="solution.csv")
    p.add_argument("--time-nodes", type=int, default=101, dest="time_nodes")
    p.add_argument("--control-res", type=int, default=41, dest="control_res")
    p.add_argument("--mode", default="auto", choices=["auto", "project", "penalize", "off"])
    p.add_argument("--dt", type=float, default=None)

    p = sub.add_parser("simulate")
    p.add_argument("--problem", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--x0", type=float, nargs="+", required=True)
    p.add_argument("--paths", type=int, default=10_000)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out", default="ensemble-summary.json")

    p = sub.add_parser("certify")
    p.add_argument("--problem", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--kind", choices=["sub", "super"], default=None)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--out", default="report.json")
    p.add_argument("--start-box", default=None, help="lo,hi[;lo,hi] per dimension")
    p.add_argument("--z", type=float, default=4.0)

    p = sub.add_parser("bracket")
    p.add_argument("--problem", required=True)
    p.add_argument("--sub", required=True, help="certify report JSON for the sub candidate")
    p.add_argument("--super", dest="super", required=True, help="certify report JSON for the super candidate")
    p.add_argument("--points", required=True)
    p.add_argument("--paths", type=int, default=20_000)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--out", default="bracket.json")

    p = sub.add_parser("convergence")
    p.add_argument("--problem", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--refinements", type=int, default=2)
    p.add_argument("--refine", default="space", choices=["space", "time"])
    p.add_argument("--time-nodes", type=int, default=33, dest="time_nodes")
    p.add_argument("--control-res", type=int, default=11, dest="control_res")
    p.add_argument("--out", default="study.json")

    p = sub.add_parser("pipeline")
    p.add_argument("--spec", required=True)
    return ap


def _config_from_args(args) -> dict:
    skip = {"subcommand", "out_dir", "manifest"}
    cfg = {k: v for k, v in vars(args).items() if k not in skip}
    if args.subcommand == "oracle":
        cfg["params"] = _parse_params(cfg.get("params", ""))
        cfg["eval"] = cfg["eval"].split(",")
        cfg["eval"] = _read(cfg, "eval", lambda v: _floats(v, 2))
    if args.subcommand == "certify" and cfg.get("start_box"):
        cfg["start_box"] = [
            [float(v) for v in pair.split(",")] for pair in cfg["start_box"].split(";")
        ]
    if args.subcommand == "simulate":
        cfg["x0"] = list(cfg["x0"])
    return cfg


def _read_manifest(path) -> tuple:
    """The subcommand and config a manifest records; a malformed one is a ConfigurationError."""
    manifest = specio.load_json(path)
    if not isinstance(manifest, dict):
        raise ConfigurationError(f"manifest must be an object, not {type(manifest).__name__}")
    subcommand, cfg = manifest.get("subcommand"), manifest.get("config")
    if not (isinstance(subcommand, str) and subcommand in _HANDLERS):
        raise ConfigurationError(f"manifest key 'subcommand': {subcommand!r} is not a subcommand")
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"manifest key 'config' must be an object, not {type(cfg).__name__}")
    return subcommand, cfg


# a value that starts like a negative number but is not a plain one, such as
# "-0.5,0.5", "-0.5,0.5;-1,1" or "-1e-3"; argparse takes it for a flag
_NEGATIVE_VALUE = re.compile(r"-\.?\d[\d.eE+\-,;]*")
_PLAIN_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")


def _mark_negative_values(argv) -> list:
    """argv with a space before each negative value that argparse would read
    as a flag, so that `--start-box -0.5,0.5` parses like `--start-box=-0.5,0.5`;
    float() ignores the space.  No flag of the command line starts with "-" and
    a digit."""
    return [" " + a if _NEGATIVE_VALUE.fullmatch(a) and not _PLAIN_NEGATIVE.fullmatch(a) else a for a in argv]


def main(argv=None) -> int:
    argv = _mark_negative_values(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK

    try:
        if args.manifest:
            subcommand, cfg = _read_manifest(args.manifest)
            if args.subcommand and args.subcommand != subcommand:
                print(f"manifest records subcommand {subcommand!r}", file=sys.stderr)
                return EXIT_CONFIG
        else:
            if not args.subcommand:
                parser.print_usage()
                return EXIT_CONFIG
            cfg = _config_from_args(args)
            if "seed" not in cfg or cfg.get("seed") is None:
                cfg["seed"] = args.seed
            subcommand = args.subcommand

        # oracle only prints its value; it writes a manifest only into an explicit --out-dir
        out_dir = args.out_dir if args.out_dir is not None or subcommand == "oracle" else "."
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        return _HANDLERS[subcommand](cfg, out_dir)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, NumericalError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
