"""File formats: problem/policy/candidate JSON, grid and solution CSV, manifests.

Problem documents name a built-in coefficient family with a parameter object;
payoff, gauge and constraint are small tagged specs.  Grid functions travel as
CSV with one row per node (coordinates then value); solutions add a leading
time column and trailing argmax-control columns.  Every CLI run emits a
manifest with the resolved configuration, input content hashes and the seed,
sufficient to reproduce the outputs bitwise.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import uuid

import numpy as np

from .certify import (
    CandidateFunction,
    candidate_from_solution,
    companion_candidate,
    constant_candidate,
    merton_candidate,
)
from .errors import ConfigurationError
from .grids import SpatialGrid, grid_function_from_csv, log_grid, read_grid_csv, uniform_grid
from .problem import (
    ControlProblem,
    abs_payoff,
    affine_payoff,
    build_problem,
    constant_payoff,
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
# problems and grids: the boundary for documents from outside the program
# ---------------------------------------------------------------------------

PAYOFFS = {
    "power": power_payoff,
    "quadratic": quadratic_payoff,
    "abs": abs_payoff,
    "affine": affine_payoff,
    "constant": constant_payoff,
}
GAUGES = {"power": power_gauge, "one_plus_square": one_plus_square_gauge}
CONSTRAINTS = {
    "neg_second": neg_second_constraint,
    "neg_trace": neg_trace_constraint,
    "positive_const": positive_constraint,
}

# what a malformed document raises on its way through the builders
_MALFORMED = (AttributeError, LookupError, TypeError, ValueError)

# closed-form Merton parameter names in documents and flags -> keyword names
MERTON_PARAMS = {"mu": "mu", "sigma": "sigma", "p": "p", "T": "horizon", "B": "bound"}


def _document(what: str):
    """Make a builder the boundary for `what` documents: whatever a malformed
    document raises on its way through becomes a ConfigurationError."""

    def wrap(build):
        @functools.wraps(build)
        def boundary(*args, **kwargs):
            try:
                return build(*args, **kwargs)
            except ConfigurationError:
                raise
            except _MALFORMED as exc:
                raise ConfigurationError(f"malformed {what} document: {exc!r}") from exc

        return boundary

    return wrap


def keyword_params(params: dict, names: dict, what: str) -> dict:
    """Document parameters renamed to keywords by `names`, as floats; unknown names are refused."""
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ConfigurationError(f"unknown {what} parameter(s) {', '.join(map(repr, unknown))}")
    return {names[name]: float(value) for name, value in params.items()}


def integer(value):
    """An int that is not a bool, or an integral float such as 1e5; int() would
    take 1.5, True and "7" as 1, 1 and 7."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"not an integer but a {type(value).__name__}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


def _from_table(table: dict, spec: dict, what: str):
    """The factory named by spec["family"], called with spec["params"] as floats."""
    if spec["family"] not in table:
        raise ConfigurationError(f"unknown {what} family {spec['family']!r}")
    params = {name: float(value) for name, value in spec.get("params", {}).items()}
    return table[spec["family"]](**params)


@_document("problem")
def problem_from_spec(spec: dict) -> ControlProblem:
    return build_problem(
        family=spec["family"],
        params=spec.get("params", {}),
        state_domain=spec["state_domain"],
        control_bound=spec["control_bound"],
        horizon=spec["horizon"],
        payoff=_from_table(PAYOFFS, spec["payoff"], "payoff"),
        gauge=_from_table(GAUGES, spec["gauge"], "gauge"),
        constraint=_from_table(CONSTRAINTS, spec["constraint"], "constraint"),
        control_set=spec.get("control_set"),
    )


def load_problem(path: str) -> ControlProblem:
    return problem_from_spec(load_json(path))


@_document("grid")
def grid_from_spec(spec: dict) -> SpatialGrid:
    if "nodes" in spec:
        return SpatialGrid(tuple(np.asarray(a, dtype=float) for a in spec["nodes"]))
    box = spec["box"]
    try:
        n = [integer(k) for k in spec["n"]] if isinstance(spec["n"], list) else integer(spec["n"])
        if isinstance(n, list) and len(n) not in {1, len(box)}:
            raise ValueError(f"{len(n)} counts for a {len(box)}-D box")
    except ValueError as exc:
        raise ConfigurationError(f"grid key 'n': {spec['n']!r} is not a node count ({exc})") from None
    spacing = spec.get("spacing", "uniform")
    if spacing == "uniform":
        lo = [b[0] for b in box]
        hi = [b[1] for b in box]
        return uniform_grid(lo, hi, n)
    if spacing == "log":
        if len(box) != 1:
            raise ConfigurationError("log spacing is one-dimensional")
        return log_grid(box[0][0], box[0][1], n[0] if isinstance(n, list) else n)
    raise ConfigurationError(f"unknown spacing {spacing!r}")


def load_grid(path: str) -> SpatialGrid:
    return grid_from_spec(load_json(path))


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

def solution_from_csv(text: str) -> SpaceTimeSolution:
    """A grid CSV keyed by time, then coordinates, with argmax-control columns after the value."""
    (times, *axes), data = read_grid_csv(text)
    grid = SpatialGrid(tuple(axes))
    values, policies = data[..., 0], data[..., 1:]
    return SpaceTimeSolution(grid, times, values, policies, {"source": "csv"})


def load_solution(path: str) -> SpaceTimeSolution:
    with open(path) as fh:
        return solution_from_csv(fh.read())


# ---------------------------------------------------------------------------
# policies and candidates
# ---------------------------------------------------------------------------

@_document("policy")
def policy_from_spec(spec: dict, base_dir: str = ".") -> FeedbackPolicy:
    kind = spec["kind"]
    if kind == "constant":
        return constant_policy(spec["value"])
    if kind == "from-solution":
        from .solver import extract_policy

        path = os.path.join(base_dir, spec["csv"])
        return extract_policy(load_solution(path))
    raise ConfigurationError(f"unknown policy kind {kind!r}")


@_document("candidate")
def candidate_from_spec(spec: dict, base_dir: str = ".", side: str | None = None) -> CandidateFunction:
    """The candidate a document describes; `side`, when given, overrides its "side"."""
    kind = spec["kind"]
    side = side or spec["side"]
    if kind == "closed-form":
        if spec["family"] != "merton":
            raise ConfigurationError(f"unknown closed form {spec['family']!r}")
        names = dict(MERTON_PARAMS, exponent_shift="exponent_shift")
        return merton_candidate(side, **keyword_params(spec.get("params", {}), names, "merton candidate"))
    if kind == "constant":
        policy = policy_from_spec(spec["policy"], base_dir) if "policy" in spec else None
        return constant_candidate(spec["value"], side, spec["growth_constant"], policy)
    if kind == "grid-table":
        with open(os.path.join(base_dir, spec["csv"])) as fh:
            gf = grid_function_from_csv(fh.read())
        if gf.grid.dim != 1:
            raise ConfigurationError("grid-table candidates are one-dimensional")
        policy = policy_from_spec(spec["policy"], base_dir) if "policy" in spec else None
        return companion_candidate(
            lambda t, X: gf.interpolate(X), side, spec["growth_constant"], policy, "grid-table")
    if kind == "from-solution":
        sol = load_solution(os.path.join(base_dir, spec["csv"]))
        return candidate_from_solution(sol, side, spec["growth_constant"])
    raise ConfigurationError(f"unknown candidate kind {kind!r}")


def rebased(spec: dict, base_dir: str, new_dir: str) -> dict:
    """A candidate or policy document read in base_dir, its csv paths (a nested
    policy's too) rewritten to name the same files from new_dir."""
    spec = dict(spec)
    if isinstance(spec.get("csv"), str):
        spec["csv"] = os.path.relpath(os.path.join(base_dir, spec["csv"]), new_dir)
    if isinstance(spec.get("policy"), dict):
        spec["policy"] = rebased(spec["policy"], base_dir, new_dir)
    return spec


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


def load_json(path: str):
    """A JSON document: a manifest, or a problem, grid, policy, candidate or pipeline document."""
    with open(path) as fh:
        return json.load(fh)
