"""File formats: problem/policy/candidate JSON, grid and solution CSV, manifests.

Problem documents name a built-in coefficient family with a parameter object;
payoff, gauge and constraint are small tagged specs.  Grid functions travel as
CSV with one row per node (coordinates then value); solutions add a leading
time column and trailing argmax-control columns.  Every CLI run emits a
manifest with the resolved configuration, input content hashes and the seed,
sufficient to reproduce the outputs bitwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid

import numpy as np

from .certify import CandidateFunction, candidate_from_solution, constant_candidate, merton_candidate
from .errors import ConfigurationError
from .grids import Box, GridFunction, SpatialGrid, grid_function_from_csv, log_grid, uniform_grid
from .problem import (
    ControlProblem,
    ControlSet,
    ScalarField,
    _constant_maps,
    _linear_drift_maps,
    _proportional_control_maps,
    abs_payoff,
    affine_payoff,
    box_control_set,
    constant_payoff,
    full_control_space,
    neg_second_constraint,
    neg_trace_constraint,
    one_plus_square_gauge,
    positive_constraint,
    power_gauge,
    power_payoff,
    quadratic_payoff,
)
from .simulate import FeedbackPolicy, constant_policy
from .solver import SpaceTimeSolution


# ---------------------------------------------------------------------------
# scalar fields / constraints
# ---------------------------------------------------------------------------

def payoff_from_spec(spec: dict) -> ScalarField:
    fam = spec["family"]
    pr = spec.get("params", {})
    if fam == "power":
        return power_payoff(pr["p"])
    if fam == "quadratic":
        return quadratic_payoff()
    if fam == "abs":
        return abs_payoff(pr.get("center", 1.0))
    if fam == "affine":
        return affine_payoff(pr.get("slope", 1.0), pr.get("intercept", 0.0))
    if fam == "constant":
        return constant_payoff(pr["c"])
    raise ConfigurationError(f"unknown payoff family {fam!r}")


def gauge_from_spec(spec: dict) -> ScalarField:
    fam = spec["family"]
    pr = spec.get("params", {})
    if fam == "power":
        return power_gauge(pr["p"])
    if fam == "one_plus_square":
        return one_plus_square_gauge()
    raise ConfigurationError(f"unknown gauge family {fam!r}")


def constraint_from_spec(spec: dict):
    fam = spec["family"]
    pr = spec.get("params", {})
    if fam == "neg_second":
        return neg_second_constraint()
    if fam == "neg_trace":
        return neg_trace_constraint()
    if fam == "positive_const":
        return positive_constraint(pr.get("c", 1.0))
    raise ConfigurationError(f"unknown constraint family {fam!r}")


def _edges(pairs):
    lo = np.array([(-np.inf if a is None else float(a)) for a, _ in pairs])
    hi = np.array([(np.inf if b is None else float(b)) for _, b in pairs])
    return lo, hi


def problem_from_spec(spec: dict) -> ControlProblem:
    fam = spec["family"]
    pr = dict(spec.get("params", {}))
    if fam == "linear_drift":
        drift, diffusion = _linear_drift_maps(pr["mu"], pr["sigma"])
        d = dprime = k = 1
    elif fam == "proportional_control":
        drift, diffusion = _proportional_control_maps(pr["mu"], pr["sigma"])
        d = dprime = k = 1
    elif fam == "constant":
        b0 = np.atleast_1d(np.asarray(pr["b0"], dtype=float))
        s0 = np.atleast_2d(np.asarray(pr["s0"], dtype=float))
        drift, diffusion = _constant_maps(b0, s0)
        d, dprime, k = b0.size, s0.shape[1], 1
    else:
        raise ConfigurationError(f"unknown coefficient family {fam!r}")

    lo, hi = _edges(spec["state_domain"])
    if "control_set" in spec:
        boxes = tuple(Box(*_edges(bx)) for bx in spec["control_set"])
        cset = ControlSet(boxes)
        k = cset.dim
    elif fam == "constant":
        cset = box_control_set([0.0], [0.0])
    else:
        cset = full_control_space(k)

    gauge_spec = spec["gauge"]
    return ControlProblem(
        drift=drift,
        diffusion=diffusion,
        state_dim=d,
        noise_dim=dprime,
        control_dim=k,
        control_bound=float(spec["control_bound"]),
        control_set=cset,
        state_domain=Box(lo, hi),
        horizon=float(spec["horizon"]),
        payoff=payoff_from_spec(spec["payoff"]),
        gauge=gauge_from_spec(gauge_spec),
        gauge_constant=float(gauge_spec.get("constant", 1.0)),
        constraint=constraint_from_spec(spec["constraint"]),
        family=fam,
        params=pr,
    )


def load_problem(path: str) -> ControlProblem:
    with open(path) as fh:
        return problem_from_spec(json.load(fh))


def grid_from_spec(spec: dict) -> SpatialGrid:
    if "nodes" in spec:
        return SpatialGrid(tuple(np.asarray(a, dtype=float) for a in spec["nodes"]))
    box = spec["box"]
    n = spec["n"]
    spacing = spec.get("spacing", "uniform")
    if spacing == "uniform":
        lo = [b[0] for b in box]
        hi = [b[1] for b in box]
        return uniform_grid(lo, hi, n)
    if spacing == "log":
        if len(box) != 1:
            raise ConfigurationError("log spacing is one-dimensional")
        return log_grid(box[0][0], box[0][1], n if np.isscalar(n) else n[0])
    raise ConfigurationError(f"unknown spacing {spacing!r}")


def load_grid(path: str) -> SpatialGrid:
    with open(path) as fh:
        return grid_from_spec(json.load(fh))


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

def solution_from_csv(text: str) -> SpaceTimeSolution:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    header = lines[0].split(",")
    dim = sum(1 for h in header if h.startswith("x"))
    k = sum(1 for h in header if h.startswith("u"))
    rows = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    times = np.unique(rows[:, 0])
    axes = tuple(np.unique(rows[:, 1 + d]) for d in range(dim))
    grid = SpatialGrid(axes)
    shape = (len(times),) + grid.shape
    values = np.empty(shape)
    policies = np.empty(shape + (k,))
    key = np.searchsorted(times, rows[:, 0])
    for d in range(dim):
        key = key * grid.shape[d] + np.searchsorted(axes[d], rows[:, 1 + d])
    values.reshape(-1)[key] = rows[:, 1 + dim]
    policies.reshape(-1, k)[key] = rows[:, 2 + dim : 2 + dim + k]
    raw = GridFunction(grid, values[-1])
    return SpaceTimeSolution(grid, times, values, policies, raw, {"source": "csv"})


def load_solution(path: str) -> SpaceTimeSolution:
    with open(path) as fh:
        return solution_from_csv(fh.read())


# ---------------------------------------------------------------------------
# policies and candidates
# ---------------------------------------------------------------------------

def policy_from_spec(spec: dict, base_dir: str = ".") -> FeedbackPolicy:
    kind = spec["kind"]
    if kind == "constant":
        return constant_policy(spec["value"])
    if kind in ("table", "from-solution"):
        from .solver import extract_policy

        path = os.path.join(base_dir, spec["csv"])
        return extract_policy(load_solution(path))
    raise ConfigurationError(f"unknown policy kind {kind!r}")


def candidate_from_spec(spec: dict, base_dir: str = ".") -> CandidateFunction:
    kind = spec["kind"]
    side = spec["side"]
    if kind == "closed-form":
        if spec["family"] != "merton":
            raise ConfigurationError(f"unknown closed form {spec['family']!r}")
        pr = spec.get("params", {})
        return merton_candidate(
            side,
            mu=pr.get("mu", 0.1),
            sigma=pr.get("sigma", 0.2),
            p=pr.get("p", 0.5),
            horizon=pr.get("T", 1.0),
            bound=pr.get("B", 10.0),
            exponent_shift=pr.get("exponent_shift", 0.0),
        )
    if kind == "constant":
        policy = policy_from_spec(spec["policy"], base_dir) if "policy" in spec else None
        return constant_candidate(spec["value"], side, spec["growth_constant"], policy)
    if kind == "grid-table":
        with open(os.path.join(base_dir, spec["csv"])) as fh:
            gf = grid_function_from_csv(fh.read())
        if gf.grid.dim != 1:
            raise ConfigurationError("grid-table candidates are one-dimensional")
        policy = policy_from_spec(spec["policy"], base_dir) if "policy" in spec else None
        if side == "sub" and policy is None:
            policy = constant_policy([0.0])
        return CandidateFunction(
            evaluator=lambda t, X: gf.interpolate(X),
            kind=side,
            growth_constant=spec["growth_constant"],
            policy_factory=(lambda tau, xi: policy) if side == "sub" else None,
            policy_bound=policy.bound if policy is not None else 0.0,
            name="grid-table",
        )
    if kind == "from-solution":
        sol = load_solution(os.path.join(base_dir, spec["csv"]))
        return candidate_from_solution(sol, side, spec["growth_constant"])
    raise ConfigurationError(f"unknown candidate kind {kind!r}")


# ---------------------------------------------------------------------------
# manifests and atomic output
# ---------------------------------------------------------------------------

TOOL_VERSION = "0.1.0"


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path through a temporary file and a rename; mode 0o666 & ~umask."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: str, subcommand: str, config: dict, inputs, seed, outputs) -> str:
    manifest = {
        "tool": "hjbkit",
        "version": TOOL_VERSION,
        "subcommand": subcommand,
        "config": config,
        "inputs": {p: sha256_file(p) for p in inputs if p and os.path.exists(p)},
        "seed": seed,
        "outputs": list(outputs),
    }
    path = os.path.join(out_dir, "manifest.json")
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
