"""The end-to-end run on in-memory objects: face-lift, solve, simulate, certify
and bracket.  Stages call through their home module (`solver.solve_hjb`, not an
imported name), so a tracer that rebinds the module's name sees each call."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import certify as cert, facelift, simulate, solver
from .errors import ConfigurationError, ConvergenceError, DomainError, NumericalError
from .grids import GridFunction

# what a stage reports in the partial report instead of raising
_STAGE_ERRORS = (ConfigurationError, DomainError, ConvergenceError, NumericalError)


def _payoff_values(problem, grid) -> GridFunction:
    return GridFunction(grid, problem.payoff(grid.nodes()).reshape(grid.shape))


def _bracket_to_json(rep) -> dict:
    points = [{"t": p.t, "x": list(p.x), "sub": p.sub_value, "super": p.super_value, "mc_mean": p.mc.mean,
               "mc_half_width": p.half_width, "lower": p.lower, "lower_reason": p.lower_reason, "gap": p.gap,
               "ok": p.ok} for p in rep.points]
    return {"ok": rep.ok, "max_gap": rep.max_gap, "z": rep.z, "points": points}


def _first_point(sub, problem, point, bc, box):
    """The estimates of bracket point 0's blocks, companion first, and the share
    of the extracted policy's paths that left `box`.  The ensemble does not
    outlive the call."""

    def left_box(x, start):
        # a diagnostic of the truncation, not a stopping rule
        return np.any((x < box.lo) | (x > box.hi), axis=1)

    blocks = cert.bracket_ensemble(sub, problem, 0, *point, bc, stops=(left_box,)).blocks()
    return [simulate.estimate_value(b, problem.payoff) for b in blocks], np.mean(blocks[-1].stop_step[:, 0] >= 0).item()


def _require_in_box(points, box):
    """Refuse a point whose state lies outside the closed box, where the solve has no value to read."""
    for t, x in points:
        x = np.asarray(x, dtype=float)
        if not (np.all(x >= box.lo) and np.all(x <= box.hi)):
            raise ConfigurationError(f"point at t={t!r}: state {x.tolist()} outside the grid's box {box.pairs()}")


def run_pipeline(problem, grid, points, sub, super_, scheme, certify, bracket, terminal) -> tuple:
    """The report of each stage at the (t, x) `points`, solving from `terminal`
    ("facelift" or "raw"), and the error of the stage that failed (the report's
    last), or None.  A missing (None) candidate fails the simulate stage, the
    first that needs it; a point outside the grid's closed box is refused first."""
    _require_in_box(points, grid.box)
    doc: dict = {"stages": {}}
    g = _payoff_values(problem, grid)
    stage = "facelift"
    try:
        ghat = facelift.lift(g, problem)
        doc["facelift_sup_distance"] = np.max(ghat.values - g.values).item()
        doc["stages"][stage] = "ok"

        stage = "solve"
        sol = solver.solve_hjb(problem, ghat if terminal == "facelift" else g, scheme)
        doc["solver_value_at_points"] = [sol.value_at(t, x) for t, x in points]
        doc["stages"][stage] = "ok"

        # the bracket's point-0 run, made here once and reused by the bracket:
        # the sub candidate's companion and the extracted policy, simulated on
        # the state domain, since stopping at the truncation box would price
        # another policy.  Only the estimates are kept, not the ensemble.
        stage = "simulate"
        for key, candidate in (("sub_candidate", sub), ("super_candidate", super_)):
            if candidate is None:
                raise ConfigurationError(f"the pipeline spec has no {key!r}")
        policy = solver.extract_policy(sol)
        bc = replace(bracket, extra_policies=(policy,))
        first, left_box_fraction = _first_point(sub, problem, points[0], bc, grid.box)
        est = first[-1]
        doc["mc_estimate_at_first_point"] = {"mean": est.mean, "half_width_95": est.half_width_95,
                                             "exit_fraction": est.exit_fraction, "left_box_fraction": left_box_fraction}
        doc["stages"][stage] = "ok"

        stage = "certify"
        sub_rep = cert.certify_subsolution(sub, problem, certify)
        super_rep = cert.certify_supersolution(super_, problem, certify, (policy,))
        doc["certify_sub"] = {"verdict": sub_rep.verdict, "certified": sub_rep.certified}
        doc["certify_super"] = {"verdict": super_rep.verdict, "certified": super_rep.certified}
        doc["stages"][stage] = "ok"

        # sandwich, only between certified candidates
        uncertified = [side for side, rep in (("sub", sub_rep), ("super", super_rep)) if not rep.certified]
        if uncertified:
            doc["bracket"] = f"skipped: {' and '.join(uncertified)} candidate not certified"
            doc["stages"]["bracket"] = "skipped"
            return doc, None
        stage = "bracket"
        brep = cert.bracket_report(sub, super_, problem, points, bc, sub_rep, super_rep, estimates=(first,))
    except _STAGE_ERRORS as exc:
        doc["stages"][stage] = f"failed: {exc}"
        return doc, exc
    doc["bracket"] = _bracket_to_json(brep)
    for entry, p in zip(doc["bracket"]["points"], brep.points):
        entry["gap_fraction"] = p.gap / max(abs(p.mc.mean), 1e-300)
    doc["stages"]["bracket"] = "ok"
    return doc, None
