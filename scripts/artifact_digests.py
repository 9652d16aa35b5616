#!/usr/bin/env python3
"""SHA-256 digests of the artifacts a checkout's command line writes, one line each.

    python3 scripts/artifact_digests.py --src DIR --out FILE [--seeds 401-450]

With DIR/src first on the import path, the script works in a fresh temporary
directory and runs there:

- the --fast pipeline spec of DIR/scripts/run_merton_pipeline.py, once per seed;
- a fixed session on the Merton document and on a 2-D neg_trace heat
  document: facelift, solve in two constraint modes (project and penalize
  on Merton, penalize and off in 2-D), a convergence study refined in space
  and one refined in time on Merton, a 2-D solve with a given --dt, simulate,
  certify a sub and a super candidate (and, on Merton, the solver's own
  candidate), bracket, a --fast pipeline whose sub candidate is not
  certified (exit 4, bracket skipped), a --fast pipeline spec that names
  the removed setting "certify_solver_candidate": true, which exits 2 and
  writes nothing, and a --fast pipeline spec with a fourth point (0, 8.0)
  outside its grid's box [0.2, 5];
- a 2-D neg_trace pipeline on the heat document (21x21 grid on [-1, 1]^2,
  6 time nodes, 3 controls, the point (0, 0.1, 0.2), the constant candidates
  -1 and 10 of the heat session): face-lift by policy iteration, a penalized
  solve and a 2-D extracted policy;
- two bracket runs on the Merton document with one report on both flags,
  the sub report and then the super report: a sandwich of one side, which
  exits 2 and writes nothing;
- a hand-written convergence manifest on the Merton document that holds only
  problem, grid and out, so it runs on the defaults of the convergence flags;
- a hand-written simulate manifest on the Merton document with the
  simulation box [0.8, 1.25], which every path leaves;
- a long-only session on the Merton document with the control set [0, 1]:
  solve, simulate under the constant 0.5, and certify the exact long-only
  (B = 1) closed form as a sub and as a super candidate;
- a cross-directory session: certify a from-solution sub candidate whose
  document and CSV sit in other directories than its report, then bracket
  it against the Merton session's super report;
- a 1-D neg_trace session, G = -w'' as for neg_second, on proportional
  control with the payoff |x - 1|: facelift, a solve from the raw payoff and
  one from the face-lift;

and a --manifest replay of each of these.

Every path given to the command line is relative to the work directory, so
no manifest names it.  Each line of FILE holds an artifact's path under the
work directory, its sha256 and the exit code of the run that wrote it; a run
that wrote nothing gives one line with "-" for the digest, and a run that
raised gives the exception's name for the exit code.  Two checkouts are
compared with diff:

    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 scripts/artifact_digests.py --src /tmp/parent --out parent.txt
    python3 scripts/artifact_digests.py --src . --out change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile

MERTON_SUB = {"kind": "closed-form", "family": "merton", "side": "sub",
              "params": {"mu": 0.1, "sigma": 0.2, "p": 0.5, "T": 1.0, "B": 10.0}}

HEAT_2D = {
    "family": "constant",
    "params": {"b0": [0.0, 0.0], "s0": [[1.0, 0.0], [0.0, 1.0]]},
    "control_bound": 0.0,
    "state_domain": [[None, None], [None, None]],
    "horizon": 0.5,
    "payoff": {"family": "abs", "params": {"center": 0.0}},
    "gauge": {"family": "one_plus_square", "constant": 2.0},
    "constraint": {"family": "neg_trace"},
}

HEAT_CANDIDATES = {"certify-sub": {"kind": "constant", "value": -1.0, "side": "sub", "growth_constant": 1.0},
                   "certify-super": {"kind": "constant", "value": 10.0, "side": "super", "growth_constant": 10.0}}

NEG_TRACE_1D = {
    "family": "proportional_control",
    "params": {"mu": 0.0, "sigma": 1.0},
    "control_bound": 1.0,
    "state_domain": [[None, None]],
    "horizon": 1.0,
    "payoff": {"family": "abs", "params": {"center": 1.0}},
    "gauge": {"family": "one_plus_square"},
    "constraint": {"family": "neg_trace"},
}


def parse_seeds(text: str) -> range:
    """The seeds A..B of "A-B", both included, or the one seed of "A"."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def listing(root: str, exit_codes: dict) -> list:
    """The sorted "path sha256 exit-code" lines of every file under each run
    directory of exit_codes, which maps it (relative to root) to its exit code."""
    lines = []
    for run_dir, code in exit_codes.items():
        found = False
        for dirpath, _, names in os.walk(os.path.join(root, run_dir)):
            for name in names:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    lines.append(f"{os.path.relpath(path, root)} {hashlib.sha256(fh.read()).hexdigest()} {code}")
                found = True
        if not found:
            lines.append(f"{run_dir}/ - {code}")
    return sorted(lines)


def _write(path: str, doc) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(doc if isinstance(doc, str) else json.dumps(doc, indent=2))
    return path


def _session(name, problem, grid, modes, solve_flags, extra, policy, x0, candidates, start_box, points) -> list:
    """The (run directory, argv) of one document's session: a solve per
    constraint mode, a run per entry of extra, which maps the run's name to a
    subcommand and its flags on the document and its grid, and a certify run
    per entry of candidates, which maps the run's name to its candidate document."""
    inp, out = f"inputs/{name}", f"out/{name}"
    prob, grid = _write(f"{inp}/prob.json", problem), _write(f"{inp}/grid.json", grid)
    runs = [(f"{out}/facelift", ["facelift", "--problem", prob, "--grid", grid])]
    runs += [(f"{out}/solve-{mode}", ["solve", "--problem", prob, "--grid", grid, "--mode", mode, *solve_flags])
             for mode in modes]
    runs += [(f"{out}/{run}", [cmd, "--problem", prob, "--grid", grid, *flags]) for run, (cmd, *flags) in extra.items()]
    runs.append((f"{out}/simulate", ["simulate", "--problem", prob, "--policy", _write(f"{inp}/policy.json", policy),
                                      "--x0", *map(str, x0), "--paths", "20000", "--steps", "50"]))
    for run, doc in candidates.items():
        runs.append((f"{out}/{run}", ["certify", "--problem", prob, "--candidate", _write(f"{inp}/{run}.json", doc),
                                      "--budget", "6000", f"--start-box={start_box}"]))
    runs.append((f"{out}/bracket", ["bracket", "--problem", prob, "--sub", f"{out}/certify-sub/report.json",
                                    "--super", f"{out}/certify-super/report.json",
                                    "--points", _write(f"{inp}/points.csv", points), "--paths", "4000",
                                    "--steps", "16"]))
    return runs


def sessions(merton_problem, pipeline_spec) -> list:
    """The (run directory, argv) of the Merton, 2-D heat and long-only sessions,
    in order; pipeline_spec is the --fast pipeline spec, on merton_problem."""
    solution = {"kind": "from-solution", "csv": "../../out/merton/solve-project/solution.csv", "side": "sub",
                "growth_constant": 10.0}
    merton = _session(
        "merton", merton_problem, {"box": [[0.2, 5.0]], "n": [80], "spacing": "log"}, ("project", "penalize"),
        ["--time-nodes", "20", "--control-res", "21"],
        {"convergence-space": ["convergence", "--refine", "space"],
         "convergence-time": ["convergence", "--refine", "time"]},
        {"kind": "constant", "value": [5.0]}, [1.0],
        {"certify-sub": MERTON_SUB,
         "certify-super": dict(MERTON_SUB, side="super", params=dict(MERTON_SUB["params"], exponent_shift=0.05)),
         "certify-solver": solution},
        "0.5,2.0", "t,x\n0.0,1.0\n0.5,1.5\n",
    )
    heat = _session(
        # projection is for 1-D grids with G = -M, so the 2-D solves penalize or ignore the constraint
        "heat2d", HEAT_2D, {"box": [[-1.0, 1.0], [-1.0, 1.0]], "n": [21, 21]}, ("penalize", "off"),
        ["--time-nodes", "6", "--control-res", "3"],
        # 25 internal steps per interval below the CFL bound's 20
        {"solve-dt": ["solve", "--mode", "penalize", "--time-nodes", "6", "--control-res", "3", "--dt", "0.004"]},
        {"kind": "constant", "value": [0.0]}, [0.1, 0.2],
        HEAT_CANDIDATES, "-0.5,0.5;-0.5,0.5", "t,x0,x1\n0.0,0.1,0.2\n",
    )
    # the bracket is skipped, but the simulate stage still runs the sub candidate's companion
    inp = "inputs/pipeline-uncertified"
    _write(f"{inp}/{pipeline_spec['problem']}", merton_problem)
    inflated = dict(MERTON_SUB, params=dict(MERTON_SUB["params"], exponent_shift=0.5))
    uncertified = ("out/pipeline-uncertified",
                   ["pipeline", "--spec", _write(f"{inp}/pipeline.json", {**pipeline_spec, "sub_candidate": inflated})])
    minimal = {"subcommand": "convergence",
               "config": {"problem": "inputs/merton/prob.json", "grid": "inputs/merton/grid.json", "out": "study.json"}}
    minimal_run = ("out/merton/convergence-minimal",
                   ["--manifest", _write("inputs/merton/convergence-minimal.json", minimal)])
    boxed = {"subcommand": "simulate",
             "config": {"problem": "inputs/merton/prob.json", "policy": "inputs/merton/policy.json", "x0": [1.0],
                        "paths": 20000, "steps": 50, "simulation_box": [[0.8, 1.25]],
                        "out": "ensemble-summary.json"}}
    boxed_run = ("out/merton/simulate-box", ["--manifest", _write("inputs/merton/simulate-box.json", boxed)])
    # a removed setting: the run exits 2 before any stage, and its replay finds no manifest
    inp = "inputs/pipeline-solver-candidate"
    _write(f"{inp}/{pipeline_spec['problem']}", merton_problem)
    solver_spec = {**pipeline_spec, "certify_solver_candidate": True}
    solver = ("out/pipeline-solver-candidate", ["pipeline", "--spec", _write(f"{inp}/pipeline.json", solver_spec)])
    # a point past the grid's box, where the solve has no value to read
    inp = "inputs/pipeline-out-of-box"
    _write(f"{inp}/{pipeline_spec['problem']}", merton_problem)
    far_spec = {**pipeline_spec, "points": [*pipeline_spec["points"], [0.0, 8.0]]}
    far = ("out/pipeline-out-of-box", ["pipeline", "--spec", _write(f"{inp}/pipeline.json", far_spec)])
    # one report on both flags: refused before any path is drawn, and the replay finds no manifest
    report = "out/merton/certify-{}/report.json".format
    one_side = [(f"out/merton/bracket-{side}-on-both",
                 ["bracket", "--problem", "inputs/merton/prob.json", "--sub", report(side), "--super", report(side),
                  "--points", "inputs/merton/points.csv", "--paths", "4000", "--steps", "16"])
                for side in ("sub", "super")]
    return (merton + [minimal_run, boxed_run] + one_side + heat + [_heat_pipeline(), uncertified, solver, far]
            + _long_only(merton_problem) + _cross_directory() + _neg_trace_1d())


def _heat_pipeline():
    """The (run directory, argv) of the 2-D neg_trace pipeline on the heat
    document and the heat session's constant candidates."""
    spec = {
        "problem": HEAT_2D, "grid": {"box": [[-1.0, 1.0], [-1.0, 1.0]], "n": [21, 21]},
        "points": [[0.0, 0.1, 0.2]],
        "sub_candidate": HEAT_CANDIDATES["certify-sub"], "super_candidate": HEAT_CANDIDATES["certify-super"],
        "time_nodes": 6, "control_res": 3, "budget": 3000, "tol": 0.005,
        "start_box": [[-0.5, 0.5], [-0.5, 0.5]], "mc_paths": 4000, "mc_steps": 16, "seed": 7,
    }
    return "out/pipeline-heat2d", ["pipeline", "--spec", _write("inputs/pipeline-heat2d/pipeline.json", spec)]


def _long_only(merton_problem) -> list:
    """The (run directory, argv) of the long-only session: a narrow control box
    that the solver's grid, the simulator's check and the super battery's
    adversaries all read."""
    inp, out = "inputs/long-only", "out/long-only"
    prob = _write(f"{inp}/prob.json", {**merton_problem, "control_set": [[[0.0, 1.0]]]})
    grid = _write(f"{inp}/grid.json", {"box": [[0.2, 5.0]], "n": [80], "spacing": "log"})
    exact = dict(MERTON_SUB, params=dict(MERTON_SUB["params"], B=1.0))
    runs = [(f"{out}/solve", ["solve", "--problem", prob, "--grid", grid, "--time-nodes", "20", "--control-res", "21"]),
            (f"{out}/simulate", ["simulate", "--problem", prob,
                                 "--policy", _write(f"{inp}/policy.json", {"kind": "constant", "value": [0.5]}),
                                 "--x0", "1.0", "--paths", "20000", "--steps", "50"])]
    for side in ("sub", "super"):
        runs.append((f"{out}/certify-{side}", ["certify", "--problem", prob, "--candidate",
                                               _write(f"{inp}/certify-{side}.json", dict(exact, side=side)),
                                               "--budget", "6000", "--start-box=0.5,2.0"]))
    return runs


def _cross_directory() -> list:
    """The (run directory, argv) of a certify -> bracket session on the Merton
    session's document, points, solution and super report: the sub report
    must name the solution's CSV from its own directory, where bracket reads it."""
    inp, out = "inputs/cross-directory", "out/cross-directory"
    sub = {"kind": "from-solution", "csv": "../../out/merton/solve-project/solution.csv", "side": "sub",
           "growth_constant": 10.0}
    prob = "inputs/merton/prob.json"
    return [(f"{out}/certify-sub", ["certify", "--problem", prob, "--candidate", _write(f"{inp}/sub.json", sub),
                                    "--budget", "6000", "--start-box=0.5,2.0"]),
            (f"{out}/bracket", ["bracket", "--problem", prob, "--sub", f"{out}/certify-sub/report.json",
                                "--super", "out/merton/certify-super/report.json",
                                "--points", "inputs/merton/points.csv", "--paths", "4000", "--steps", "16"])]


def _neg_trace_1d() -> list:
    """The (run directory, argv) of the 1-D neg_trace session: its G reads the
    one second difference, so it takes the hull and the projection."""
    inp, out = "inputs/neg-trace-1d", "out/neg-trace-1d"
    flags = ["--problem", _write(f"{inp}/prob.json", NEG_TRACE_1D),
             "--grid", _write(f"{inp}/grid.json", {"box": [[-2.0, 4.0]], "n": [121]})]
    solve = ["solve", *flags, "--time-nodes", "21", "--control-res", "21"]
    return [(f"{out}/facelift", ["facelift", *flags]),
            (f"{out}/solve-raw", [*solve, "--terminal", "raw"]),
            (f"{out}/solve-facelift", solve)]


def digests(src: str, seeds) -> list:
    """The listing of every run, made in a fresh temporary work directory."""
    sys.path.insert(0, os.path.join(src, "src"))
    from hjbkit.cli import main

    spec = importlib.util.spec_from_file_location("run_merton_pipeline",
                                                  os.path.join(src, "scripts", "run_merton_pipeline.py"))
    pipeline = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pipeline)

    work = tempfile.mkdtemp(prefix="artifact-digests-")
    here = os.getcwd()
    codes = {}

    def run(run_dir, argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                codes[run_dir] = main(["--out-dir", run_dir, *argv])
            except Exception as exc:   # an older checkout's traceback: its exit code is the exception's name
                codes[run_dir] = type(exc).__name__

    try:
        os.chdir(work)
        for seed in seeds:
            inp = f"inputs/pipeline-{seed}"
            _write(f"{inp}/merton-problem.json", pipeline.PROBLEM)
            run(f"out/pipeline-{seed}",
                ["pipeline", "--spec", _write(f"{inp}/pipeline.json", {**pipeline.build_spec(True), "seed": seed})])
        for run_dir, argv in sessions(pipeline.PROBLEM, pipeline.build_spec(True)):
            run(run_dir, argv)
            run(f"{run_dir}-replay", ["--manifest", f"{run_dir}/manifest.json"])
        return listing(work, codes)
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="checkout whose src/ and scripts/ are run")
    ap.add_argument("--out", required=True, help="digest listing to write")
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("401-450"), help="pipeline seeds A-B")
    args = ap.parse_args(argv)
    lines = digests(os.path.abspath(args.src), args.seeds)
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(lines)} artifact lines written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
