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
from .grids import SpatialGrid, box_from_pairs, finite, grid_function_from_csv, integer, log_grid, number
from .grids import read_grid_csv, uniform_grid
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
from .solver import SpaceTimeSolution, extract_policy


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


def read(key, value, parse):
    """parse(value); a value that parse refuses is a configuration error naming the key."""
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"key {key!r}: {value!r} does not parse ({exc})") from None


def refuse_unknown(doc: dict, known, what: str) -> None:
    """Refuse a key of doc not in `known` as an "unknown {what}(s)": a typo would otherwise take a default."""
    unknown = sorted(set(doc.keys()) - set(known))  # a doc that is not an object has no keys()
    if unknown:
        raise ConfigurationError(f"unknown {what}(s) {', '.join(map(repr, unknown))}")


def keyword_params(params: dict, names: dict, what: str) -> dict:
    """Document parameters renamed to keywords by `names`, each a finite number but a bound, which the
    closed forms check and take as no bound when infinite; unknown names are refused."""
    refuse_unknown(params, names, f"{what} parameter")
    return {names[name]: read(name, value, number if names[name] == "bound" else finite)
            for name, value in params.items()}


def _numbers(value, parse=number):
    """A number, or a list of numbers or of such lists: a constant control, or a coefficient's vector or matrix."""
    return [_numbers(v, parse) for v in value] if isinstance(value, list) else parse(value)


def _positive(value) -> float:
    """A finite number above 0: a horizon."""
    value = finite(value)
    if not value > 0:
        raise ValueError(f"not above 0: {value!r}")
    return value


def _at_least_zero(value) -> float:
    """A finite number at least 0: a control bound."""
    value = finite(value)
    if not value >= 0:
        raise ValueError(f"below 0: {value!r}")
    return value


def _from_table(table: dict, spec: dict, what: str, legacy=()):
    """The factory named by spec["family"], called with spec["params"]; `legacy` keys are taken and not read."""
    refuse_unknown(spec, ("family", "params", *legacy), f"{what} key")
    if spec["family"] not in table:
        raise ConfigurationError(f"unknown {what} family {spec['family']!r}")
    return table[spec["family"]](**{name: read(name, v, finite) for name, v in spec.get("params", {}).items()})


@_document("problem")
def problem_from_spec(spec: dict) -> ControlProblem:
    refuse_unknown(spec, ("family", "params", "state_domain", "control_bound", "horizon", "payoff", "gauge",
                          "constraint", "control_set"), "problem key")
    # only the constant family's coefficients b0 and s0 are a vector and a matrix
    coefficient = functools.partial(_numbers, parse=finite) if spec["family"] == "constant" else finite
    return build_problem(
        family=spec["family"],
        params={name: read(name, v, coefficient) for name, v in spec.get("params", {}).items()},
        state_domain=spec["state_domain"],
        control_bound=read("control_bound", spec["control_bound"], _at_least_zero),
        horizon=read("horizon", spec["horizon"], _positive),
        payoff=_from_table(PAYOFFS, spec["payoff"], "payoff"),
        gauge=_from_table(GAUGES, spec["gauge"], "gauge", legacy=("constant",)),
        constraint=_from_table(CONSTRAINTS, spec["constraint"], "constraint"),
        control_set=spec.get("control_set"),
    )


def load_problem(path: str) -> ControlProblem:
    return problem_from_spec(load_json(path))


@_document("grid")
def grid_from_spec(spec: dict) -> SpatialGrid:
    refuse_unknown(spec, ("box", "n", "spacing"), "grid key")
    box = box_from_pairs(spec["box"])
    if box.dim == 0 or not np.all(np.isfinite([box.lo, box.hi])):
        raise ConfigurationError(f"box {spec['box']!r}: a grid box has one pair of finite edges per dimension")
    try:
        n = [integer(k) for k in spec["n"]] if isinstance(spec["n"], list) else integer(spec["n"])
        if isinstance(n, list) and len(n) not in {1, box.dim}:
            raise ValueError(f"{len(n)} counts for a {box.dim}-D box")
    except ValueError as exc:
        raise ConfigurationError(f"grid key 'n': {spec['n']!r} is not a node count ({exc})") from None
    spacing = spec.get("spacing", "uniform")
    if spacing == "uniform":
        return uniform_grid(box.lo, box.hi, n)
    if spacing == "log":
        if box.dim != 1:
            raise ConfigurationError("log spacing is one-dimensional")
        return log_grid(box.lo[0], box.hi[0], n[0] if isinstance(n, list) else n)
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

def _kind(spec: dict, kinds: dict, what: str) -> str:
    """spec["kind"], a key of `kinds`, once spec holds no key that kinds[kind] does not list."""
    kind = spec["kind"]
    if kind not in kinds:
        raise ConfigurationError(f"unknown {what} kind {kind!r}")
    refuse_unknown(spec, ("kind", *kinds[kind]), f"{kind} {what} key")
    return kind


@_document("policy")
def policy_from_spec(spec: dict, base_dir: str = ".") -> FeedbackPolicy:
    if _kind(spec, {"constant": ("value",), "from-solution": ("csv",)}, "policy") == "constant":
        return constant_policy(read("value", spec["value"], _numbers))
    return extract_policy(load_solution(os.path.join(base_dir, spec["csv"])))


@_document("candidate")
def candidate_from_spec(spec: dict, base_dir: str = ".", side: str | None = None) -> CandidateFunction:
    """The candidate a document describes; `side`, when given, overrides its "side"."""
    kind = _kind(spec, {"closed-form": ("side", "family", "params"),
                        "constant": ("side", "value", "growth_constant", "policy"),
                        "grid-table": ("side", "csv", "growth_constant", "policy"),
                        "from-solution": ("side", "csv", "growth_constant")}, "candidate")
    side = side or spec["side"]
    if kind == "closed-form":
        if spec["family"] != "merton":
            raise ConfigurationError(f"unknown closed form {spec['family']!r}")
        names = dict(MERTON_PARAMS, exponent_shift="exponent_shift")
        return merton_candidate(side, **keyword_params(spec.get("params", {}), names, "merton candidate"))
    growth = read("growth_constant", spec["growth_constant"], number)
    policy = policy_from_spec(spec["policy"], base_dir) if "policy" in spec else None
    if kind == "constant":
        return constant_candidate(read("value", spec["value"], finite), side, growth, policy)
    path = os.path.join(base_dir, spec["csv"])
    if kind == "grid-table":
        with open(path) as fh:
            gf = grid_function_from_csv(fh.read())
        if gf.grid.dim != 1:
            raise ConfigurationError("grid-table candidates are one-dimensional")
        return companion_candidate(lambda t, X: gf.interpolate(X), side, growth, policy, "grid-table")
    return candidate_from_solution(load_solution(path), side, growth)


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
