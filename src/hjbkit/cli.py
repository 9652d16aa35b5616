"""Command-line entry point.

Subcommands: facelift, solve, simulate, certify, bracket, convergence, oracle,
pipeline.  Every run that writes artifacts also writes a manifest with the
resolved configuration, input hashes and the seed; re-running a subcommand
with --manifest pointing at that file reproduces the outputs (bitwise for
simulation and solves).  Exit codes: 0 success, 2 configuration/usage error,
3 numerical or convergence failure, 4 certification FAIL (a rejected
hypothesis, not a tool failure).  The pipeline subcommand reads its spec and
writes the report of hjbkit.pipeline.run_pipeline, which runs the stages.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Callable
from dataclasses import MISSING, asdict, fields
from typing import NamedTuple

import numpy as np

from . import facelift, pipeline, specio
from .certify import (
    BracketConfig,
    CertificationReport,
    CertifyConfig,
    TestRecord,
    bracket_report,
    certify_subsolution,
    certify_supersolution,
    _require_start_box,
)
from .errors import ConfigurationError, ConvergenceError, DomainError, NumericalError
from .grids import Box, box_from_pairs, finite, integer, number
from .oracles import heat_value, merton_value
from .simulate import estimate_value, simulate_paths
from .solver import CONSTRAINT_MODES, SchemeConfig, convergence_study, solve_hjb
# perfbench/tracer.py reads and rebinds these names here too: keep them imported
from .facelift import concave_envelope, facelift_general  # noqa: F401
from .solver import extract_policy  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CERTIFY_FAIL = 4


def _parse_params(text: str) -> dict:
    """The {name: value} of "name=value[,name=value...]"."""
    pairs = (item.split("=", 1) for item in text.split(",")) if text else ()
    return {key.strip(): float(val) for key, val in pairs}


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _report_to_json(report: CertificationReport, candidate_spec) -> dict:
    return {**asdict(report), "candidate": candidate_spec, "certified": report.certified, "verdict": report.verdict}


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
# subcommand handlers: each takes its settings and the artifact directory and
# returns its exit code, its artifacts (name -> text) and the manifest's seed
# ---------------------------------------------------------------------------

_ORACLES = {
    "merton": (merton_value, specio.MERTON_PARAMS),
    "heat": (heat_value, {"sigma": "sigma_const", "T": "horizon"}),
}


def _run_oracle(s, out_dir):
    value, names = _ORACLES[s["family"]]
    params = specio.keyword_params(s["params"], names, f"{s['family']} oracle")
    if s["family"] == "heat":
        params["payoff"] = s["payoff"]
    print(f"{value(*s['eval'], **params)!r}")
    return EXIT_OK, {}, s["seed"]


def _run_facelift(s, out_dir):
    problem = specio.load_problem(s["problem"])
    grid = specio.load_grid(s["grid"])
    g = pipeline._payoff_values(problem, grid)
    ghat = facelift.lift(g, problem)
    print(f"facelift written to {os.path.join(out_dir, s['out'])}; "
          f"sup distance to payoff = {np.max(ghat.values - g.values).item()!r}")
    return EXIT_OK, {s["out"]: ghat.to_csv()}, s["seed"]


def _run_solve(s, out_dir):
    problem = specio.load_problem(s["problem"])
    grid = specio.load_grid(s["grid"])
    config = _config(SchemeConfig, "solve", s)
    g = pipeline._payoff_values(problem, grid)
    terminal = facelift.lift(g, problem) if s["terminal"] == "facelift" else g
    sol = solve_hjb(problem, terminal, config)
    scheme = ("dt_internal", "substeps_per_interval", "cfl_dt_max", "control_grid_size", "mode")
    sidecar = {"scheme": {"n_time_nodes": config.n_time_nodes, **{k: sol.metadata[k] for k in scheme}},
               "terminal": s["terminal"]}
    print(f"solution written to {os.path.join(out_dir, s['out'])} "
          f"({sol.metadata['substeps_per_interval']} substeps/interval)")
    artifacts = {s["out"]: sol.to_csv(), s["out"] + ".config.json": json.dumps(sidecar, indent=2) + "\n"}
    return EXIT_OK, artifacts, s["seed"]


def _run_simulate(s, out_dir):
    problem = specio.load_problem(s["problem"])
    policy_spec = specio.load_json(s["policy"])
    policy = specio.policy_from_spec(policy_spec, base_dir=os.path.dirname(s["policy"]) or ".")
    if s["simulation_box"] is not None:
        # paths stop where they leave the box, as where they leave the domain
        try:
            problem = problem.within(s["simulation_box"])
        except ConfigurationError as exc:
            raise ConfigurationError(f"key 'simulation_box': {exc}") from None
    ens = simulate_paths(problem, policy, s["t0"], s["x0"], s["paths"], s["steps"], s["seed"])
    est = estimate_value(ens, problem.payoff)
    summary = {
        **asdict(est), "half_width_95": est.half_width_95, "seed": s["seed"], "policy": policy_spec,
        "t0": s["t0"], "x0": s["x0"], "log_coordinates": ens.log_coordinates,
    }
    print(f"value estimate {est.mean!r} +- {est.half_width_95!r} (exit fraction {est.exit_fraction:.4f})")
    return EXIT_OK, {s["out"]: _json(summary)}, s["seed"]


def _certify_config(document, s, problem) -> CertifyConfig:
    box = s["start_box"]
    if box is None:
        # the middle half of the domain, an infinite edge put at -1 or 1, or
        # 2 past the finite edge where that one sits at or beyond it
        lo, hi = problem.state_domain.lo, problem.state_domain.hi
        lo = np.where(np.isfinite(lo), lo, np.where(hi > -1.0, -1.0, hi - 2.0))
        hi = np.where(np.isfinite(hi), hi, np.where(lo < 1.0, 1.0, lo + 2.0))
        width = hi - lo
        box = Box(lo + 0.25 * width, hi - 0.25 * width)
    # the batteries' rule, here so that a pipeline refuses the box before any stage runs
    _require_start_box(problem, box)
    return _config(CertifyConfig, document, s, start_box=box, seed=s["seed"])


def _run_certify(s, out_dir):
    problem = specio.load_problem(s["problem"])
    candidate_spec = specio.load_json(s["candidate"])
    base = os.path.dirname(s["candidate"]) or "."
    candidate = specio.candidate_from_spec(candidate_spec, base_dir=base, side=s["kind"])
    # the report's copy names its files from the report's directory, where bracket reads them
    report_dir = os.path.dirname(os.path.join(out_dir, s["out"])) or "."
    candidate_spec = {**specio.rebased(candidate_spec, base, report_dir), "side": candidate.kind}
    battery = certify_subsolution if candidate.kind == "sub" else certify_supersolution
    report = battery(candidate, problem, _certify_config("certify", s, problem))
    print(report.verdict)
    for r in report.failing():
        print(
            f"  FAILED {r.kind} tau={r.tau:g} rho={r.rho} adversary={r.adversary} "
            f"margin={r.margin:.3e} stderr={r.stderr:.3e}"
        )
    code = EXIT_OK if report.certified else EXIT_CERTIFY_FAIL
    return code, {s["out"]: _json(_report_to_json(report, candidate_spec))}, s["seed"]


def _run_bracket(s, out_dir):
    problem = specio.load_problem(s["problem"])
    sub, sub_rep = _load_report(s["sub"])
    super_, super_rep = _load_report(s["super"])
    pts = _read_points(s["points"])
    _require_points(problem, pts)
    rep = bracket_report(sub, super_, problem, pts, _config(BracketConfig, "bracket", s, seed=s["seed"]),
                         sub_rep, super_rep)
    print(f"bracket ok={rep.ok} max gap={rep.max_gap!r}")
    return EXIT_OK if rep.ok else EXIT_CERTIFY_FAIL, {s["out"]: _json(pipeline._bracket_to_json(rep))}, s["seed"]


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
    lines = [(i, ln) for i, ln in enumerate(specio.read_text(path).splitlines(), 1) if ln.strip()]
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


def _run_convergence(s, out_dir):
    problem = specio.load_problem(s["problem"])
    grid = specio.load_grid(s["grid"])
    study = convergence_study(problem, pipeline._payoff_values(problem, grid), s["refinements"],
                              _config(SchemeConfig, "convergence", s), mode=s["refine"])
    doc = {"shapes": [list(sh) for sh in study.shapes], "diffs": list(study.diffs), "orders": list(study.orders)}
    print(f"diffs={study.diffs} orders={study.orders}")
    return EXIT_OK, {s["out"]: json.dumps(doc, indent=2) + "\n"}, s["seed"]


@specio._document("pipeline spec")
def _pipeline_inputs(spec, base: str):
    """The problem, grid and evaluation points of a pipeline spec; a key the spec does not take is refused."""
    specio.refuse_unknown(spec, _TABLE[_SPEC], f"{_SPEC} key")
    problem = (specio.load_problem(os.path.join(base, spec["problem"])) if isinstance(spec["problem"], str)
               else specio.problem_from_spec(spec["problem"]))
    grid = specio.grid_from_spec(spec["grid"])
    points = specio.read("points", spec["points"], lambda pts: [(p[0], p[1:]) for p in map(_floats, pts)])
    if not points:
        raise ConfigurationError("a pipeline spec needs at least one point")
    _require_points(problem, points)
    return problem, grid, points


def _candidate(s, key, side, base):
    """The candidate of a pipeline spec's `key`, which must be a `side` one, or None when the key is absent."""
    if s[key] is None:
        return None
    candidate = specio.read(key, s[key], lambda spec: specio.candidate_from_spec(spec, base))
    if candidate.kind != side:
        raise ConfigurationError(f"key {key!r}: a {candidate.kind} candidate, not a {side} one")
    return candidate


def _run_pipeline(run, out_dir):
    base = os.path.dirname(run["spec"]) or "."
    spec = specio.load_json(run["spec"])
    problem, grid, points = _pipeline_inputs(spec, base)
    # every setting and candidate of the spec is read here, once, so a bad one
    # exits 2 naming its key before any stage runs
    s = _settings(_SPEC, spec)
    sub, super_ = _candidate(s, "sub_candidate", "sub", base), _candidate(s, "super_candidate", "super", base)
    doc, exc = pipeline.run_pipeline(problem, grid, points, sub, super_, _config(SchemeConfig, _SPEC, s),
                                     _certify_config(_SPEC, s, problem),
                                     _config(BracketConfig, _SPEC, s, seed=s["seed"]), s["terminal"])
    if exc is not None:
        print(f"pipeline failed at stage {next(reversed(doc['stages']))}: {exc}")
        code = EXIT_CONFIG if isinstance(exc, (ConfigurationError, DomainError)) else EXIT_NUMERIC
    elif doc["stages"]["bracket"] == "skipped":
        print(f"pipeline complete; bracket {doc['bracket']}")
        code = EXIT_CERTIFY_FAIL
    else:
        print(f"pipeline complete; certification gap at first point = {doc['bracket']['points'][0]['gap']!r}")
        code = EXIT_OK if doc["bracket"]["ok"] else EXIT_CERTIFY_FAIL
    return code, {s["out"]: _json(doc)}, s["seed"]


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


# ---------------------------------------------------------------------------
# the key table: every setting of every subcommand, as a flag or in a document
# ---------------------------------------------------------------------------

class _Choice(tuple):
    """A parser taking one of its options, of the option's own type, so 1 is not True."""

    def __call__(self, value):
        if not any(type(value) is type(option) and value == option for option in self):
            raise ValueError(f"not one of {', '.join(map(repr, self))}")
        return value


def _as_is(value):
    """A document part that its own reader checks."""
    return value


def _floats(value, length=None, parse=number):
    """A nonempty list of numbers, each read by `parse`, of `length` entries when given."""
    if not isinstance(value, (list, tuple)) or not value or (length is not None and len(value) != length):
        raise ValueError(f"not a list of {length or 'one or more'} numbers")
    return [parse(v) for v in value]


def _optional_box(value):
    """A box from (lo, hi) pairs, or None for an absent or empty one."""
    return box_from_pairs(value) if value else None


class _Key(NamedTuple):
    """A row of the key table.  A key with neither a default nor a field to
    fill is required; flags and documents name subcommands, space separated,
    and "pipeline-spec" is the pipeline's spec document."""

    key: str
    parse: Callable                 # a document value -> the setting
    flags: str = ""                 # the subcommands that take the key as a flag
    documents: str = ""             # the documents that take it otherwise
    fills: tuple | None = None      # the (config class, field) it fills
    default: object = MISSING       # where that field does not hold it
    text: Callable | None = None    # a flag's text -> its document value


_SPEC = "pipeline-spec"
_SEED = _Key("seed", integer, documents=" ".join([*_HANDLERS, _SPEC]), default=0)  # the top-level --seed

_KEYS = (
    _SEED,
    _Key("family", _Choice(_ORACLES), "oracle"),
    _Key("params", dict, "oracle", default={}, text=_parse_params),
    _Key("eval", lambda v: _floats(v, 2, finite), "oracle", text=lambda text: [float(v) for v in text.split(",")]),
    _Key("payoff", _Choice(("x2", "affine")), documents="oracle", default="x2"),
    _Key("problem", os.fspath, "facelift solve simulate certify bracket convergence"),
    # a pipeline spec holds the problem inline or as a path, the grid and points inline
    _Key("problem", _as_is, documents="pipeline-spec"),
    _Key("grid", os.fspath, "facelift solve convergence"),
    _Key("grid", _as_is, documents="pipeline-spec"),
    _Key("points", os.fspath, "bracket"),
    _Key("points", _as_is, documents="pipeline-spec"),
    _Key("policy", os.fspath, "simulate"),
    _Key("candidate", os.fspath, "certify"),
    _Key("sub", os.fspath, "bracket"),
    _Key("super", os.fspath, "bracket"),
    _Key("spec", os.fspath, "pipeline"),
    _Key("out", os.fspath, "facelift", default="ghat.csv"),
    _Key("out", os.fspath, "solve", default="solution.csv"),
    _Key("out", os.fspath, "simulate", default="ensemble-summary.json"),
    _Key("out", os.fspath, "certify", default="report.json"),
    _Key("out", os.fspath, "bracket", default="bracket.json"),
    _Key("out", os.fspath, "convergence", default="study.json"),
    _Key("out", os.fspath, documents="pipeline-spec", default="pipeline-report.json"),
    # older facelift manifests hold "method": "auto" and a "tol" that nothing reads
    _Key("method", _Choice(("auto",)), documents="facelift", default="auto"),
    _Key("tol", number, documents="facelift", default=None),
    _Key("terminal", _Choice(("raw", "facelift")), "solve", "pipeline-spec", default="facelift"),
    _Key("time_nodes", integer, "solve", "pipeline-spec", (SchemeConfig, "n_time_nodes")),
    _Key("time_nodes", integer, "convergence", fills=(SchemeConfig, "n_time_nodes"), default=33),
    _Key("control_res", integer, "solve", "pipeline-spec", (SchemeConfig, "control_grid_resolution")),
    _Key("control_res", integer, "convergence", fills=(SchemeConfig, "control_grid_resolution"), default=11),
    _Key("mode", _Choice(CONSTRAINT_MODES), "solve", "convergence pipeline-spec", (SchemeConfig, "constraint_mode")),
    _Key("dt", number, "solve", "convergence pipeline-spec", (SchemeConfig, "dt")),
    # removed settings: only the value they always had is taken
    _Key("upwind", _Choice((True,)), documents="solve convergence pipeline-spec", default=True),
    _Key("penalty_weight", _Choice((None,)), documents="solve convergence pipeline-spec", default=None),
    _Key("absorb_at_truncation", _Choice((False,)), documents="pipeline-spec", default=False),
    # the bracket's own estimates give the lower side; older specs name this off
    _Key("certify_solver_candidate", _Choice((False,)), documents="pipeline-spec", default=False),
    _Key("t0", number, "simulate", default=0.0),
    _Key("x0", _floats, "simulate"),
    _Key("paths", integer, "simulate", default=10_000),
    _Key("steps", integer, "simulate", default=100),
    _Key("simulation_box", _optional_box, documents="simulate", default=None),
    _Key("kind", _Choice(("sub", "super")), "certify", default=None),
    _Key("start_box", _optional_box, "certify", "pipeline-spec", default=None,
         text=lambda text: [[float(v) for v in pair.split(",")] for pair in text.split(";")] if text else None),
    _Key("budget", integer, "certify", "pipeline-spec", (CertifyConfig, "budget")),
    _Key("z", number, "certify", "pipeline-spec", (CertifyConfig, "z")),
    _Key("tol", number, documents="certify pipeline-spec", fills=(CertifyConfig, "tol")),
    _Key("n_starts", integer, documents="certify pipeline-spec", fills=(CertifyConfig, "n_starts")),
    _Key("steps", integer, documents="certify pipeline-spec", fills=(CertifyConfig, "steps_per_record")),
    _Key("paths", integer, "bracket", fills=(BracketConfig, "n_paths")),
    _Key("steps", integer, "bracket", fills=(BracketConfig, "n_steps")),
    _Key("refinements", integer, "convergence", default=2),
    _Key("refine", _Choice(("space", "time")), "convergence", default="space"),
    _Key("mc_paths", integer, documents="pipeline-spec", fills=(BracketConfig, "n_paths"), default=100_000),
    _Key("mc_steps", integer, documents="pipeline-spec", fills=(BracketConfig, "n_steps"), default=200),
    _Key("sub_candidate", _as_is, documents="pipeline-spec", default=None),
    _Key("super_candidate", _as_is, documents="pipeline-spec", default=None),
)


def _table(rows) -> dict:
    """document -> key -> (row, whether the document's subcommand takes the key as a flag), each
    row's default resolved: its own, else that of the config field it fills (MISSING: required)."""
    table = {name: {} for name in (*_HANDLERS, _SPEC)}
    for row in rows:
        if row.default is MISSING and row.fills:
            row = row._replace(default=getattr(*row.fills, MISSING))
        for name in row.flags.split() + row.documents.split():
            table[name][row.key] = row, name in row.flags.split()
    return table


_TABLE = _table(_KEYS)


def _settings(document, doc) -> dict:
    """Each key of `document` (a subcommand's config, or "pipeline-spec"): doc's
    value through the key's parser, or the key's default when doc lacks it.  A
    key whose default is None also takes None, and a key doc holds but
    `document` does not take is refused."""
    specio.refuse_unknown(doc, _TABLE[document], f"{document} key")
    settings = {}
    for key, (row, _) in _TABLE[document].items():
        value = doc.get(key, row.default)
        if value is MISSING:
            raise ConfigurationError(f"key {key!r} is missing")
        settings[key] = None if value is None and row.default is None else specio.read(key, value, row.parse)
    return settings


def _config(cls, document, settings, **given):
    """A `cls` whose fields are the settings of the keys that fill them, and `given`."""
    filled = {row.fills[1]: settings[key] for key, (row, _) in _TABLE[document].items()
              if row.fills and row.fills[0] is cls}
    return cls(**{**filled, **given})


def _add_flag(parser, row):
    required = row.default is MISSING
    kind = {integer: {"type": int}, number: {"type": float}, _floats: {"type": float, "nargs": "+"}}
    parser.add_argument(f"--{row.key.replace('_', '-')}", dest=row.key, required=required,
                        default=None if required else row.default,
                        choices=row.parse if isinstance(row.parse, _Choice) else None,
                        **kind.get(row.parse, {}))


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hjbkit", description=__doc__)
    _add_flag(ap, _SEED._replace(default=None))  # None: not given
    ap.add_argument("--out-dir", default=None, help="artifact directory (default: .; oracle writes none)")
    ap.add_argument("--manifest", default=None, help="re-run from a recorded manifest")
    sub = ap.add_subparsers(dest="subcommand")
    for name in _HANDLERS:
        p = sub.add_parser(name)
        for row, flag in _TABLE[name].values():
            if flag:
                _add_flag(p, row)
    return ap


def _config_from_args(args) -> dict:
    """The config of a flag run: each flag's value, a text value in its document form."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("subcommand", "out_dir", "manifest")}
    cfg["seed"] = _SEED.default if args.seed is None else args.seed
    for key, (row, _) in _TABLE[args.subcommand].items():
        if row.text and isinstance(cfg.get(key), str):
            cfg[key] = specio.read(key, cfg[key], row.text)
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
            subcommand = args.subcommand
        if args.seed is not None and (args.manifest or subcommand == "pipeline"):
            raise ConfigurationError("--seed does not seed a " + (
                "--manifest replay; the manifest's config does" if args.manifest
                else "pipeline; the spec's 'seed' key does"))

        # oracle only prints its value; it writes a manifest only into an explicit --out-dir
        out_dir = args.out_dir if args.out_dir is not None or subcommand == "oracle" else "."
        s = _settings(subcommand, cfg)
        with specio.recording_reads() as inputs:
            code, artifacts, seed = _HANDLERS[subcommand](s, out_dir)
        for name, text in artifacts.items():
            specio.atomic_write_text(os.path.join(out_dir, name), text)
        if out_dir:
            # the manifest hashes every input file the subcommand read, a
            # pipeline spec's problem document and CSVs too
            specio.write_manifest(out_dir, subcommand, cfg, inputs, seed, list(artifacts))
        return code
    except (ConvergenceError, NumericalError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, KeyError, ValueError) as exc:  # ConfigurationError and JSONDecodeError are ValueErrors
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
