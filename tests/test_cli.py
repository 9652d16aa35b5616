import dataclasses
import importlib.util
import json
import math
import os
import pathlib
import re
import stat
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import hjbkit as hk
from hjbkit import cli, grids, simulate, specio
from hjbkit.certify import bracket_ensemble
from hjbkit.cli import _load_report, _report_to_json, main
from hjbkit.errors import ConfigurationError, ConvergenceError, DomainError, NumericalError

MERTON_SPEC = {
    "family": "linear_drift",
    "params": {"mu": 0.1, "sigma": 0.2},
    "control_bound": 10.0,
    "state_domain": [[0.0, None]],
    "horizon": 1.0,
    "payoff": {"family": "power", "params": {"p": 0.5}},
    "gauge": {"family": "power", "params": {"p": 0.5}, "constant": 1.2},
    "constraint": {"family": "neg_second"},
}

KINK_SPEC = {
    "family": "proportional_control",
    "params": {"mu": 1.0, "sigma": 1.0},
    "control_bound": 1.0,
    "state_domain": [[None, None]],
    "horizon": 1.0,
    "payoff": {"family": "abs", "params": {"center": 1.0}},
    "gauge": {"family": "one_plus_square", "constant": 2.0},
    "constraint": {"family": "neg_second"},
}

CONCAVE_SPEC = dict(KINK_SPEC, payoff={"family": "affine", "params": {"slope": 0.5, "intercept": 1.0}})


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_oracle_merton_prints_reference_value(capsys):
    rc = main(["oracle", "--family", "merton",
               "--params", "mu=0.1,sigma=0.2,p=0.5,T=1,B=10", "--eval", "0,1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert abs(float(out.strip()) - math.exp(0.125)) < 1e-12


def test_oracle_heat(capsys):
    rc = main(["oracle", "--family", "heat", "--params", "sigma=1,T=1", "--eval", "0,0"])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0)


def test_oracle_writes_nothing_without_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["oracle", "--family", "heat", "--params", "sigma=1,T=1", "--eval", "0,0"])
    assert rc == 0
    assert list(tmp_path.iterdir()) == []


def test_artifacts_take_the_umask_mode(tmp_path, capsys):
    old = os.umask(0o027)
    try:
        specio.atomic_write_text(str(tmp_path / "a.txt"), "x\n")
        rc = main(["--out-dir", str(tmp_path / "run"), "oracle", "--family", "heat",
                   "--params", "sigma=1,T=1", "--eval", "0,0"])
    finally:
        os.umask(old)
    assert rc == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "run"]
    for path in (tmp_path / "a.txt", tmp_path / "run" / "manifest.json"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o640


def test_centred_drift_request_exits_2(tmp_path, capsys):
    prob = write(tmp_path / "prob.json", KINK_SPEC)
    grid = write(tmp_path / "grid.json", {"box": [[0.0, 2.0]], "n": [21]})
    rc = main(["--out-dir", str(tmp_path), "solve", "--problem", prob, "--grid", grid,
               "--time-nodes", "5", "--control-res", "5"])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["config"]["upwind"] = False
    mpath = write(tmp_path / "centred-manifest.json", manifest)
    assert main(["--out-dir", str(tmp_path / "replay"), "--manifest", mpath]) == 2

    spec = {"problem": "prob.json", "grid": {"box": [[0.0, 2.0]], "n": [21]},
            "points": [[0.0, 1.0]], "upwind": False}
    spath = write(tmp_path / "pipeline.json", spec)
    assert main(["--out-dir", str(tmp_path / "pipe"), "pipeline", "--spec", spath]) == 2
    assert "upwind" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert main(["solve", "--no-such-flag"]) == 2


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_facelift_concave_payoff_identity(tmp_path, capsys):
    prob = write(tmp_path / "prob.json", CONCAVE_SPEC)
    grid = write(tmp_path / "grid.json", {"box": [[0.0, 2.0]], "n": [41]})
    rc = main(["--out-dir", str(tmp_path), "facelift", "--problem", prob, "--grid", grid,
               "--out", "ghat.csv"])
    assert rc == 0
    text = (tmp_path / "ghat.csv").read_text()
    rows = [ln.split(",") for ln in text.strip().splitlines()[1:]]
    xs = np.array([float(r[0]) for r in rows])
    vals = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(vals - (0.5 * xs + 1.0))) < 1e-12
    assert (tmp_path / "manifest.json").exists()


def test_facelift_kink_gives_chord(tmp_path):
    prob = write(tmp_path / "prob.json", KINK_SPEC)
    grid = write(tmp_path / "grid.json", {"box": [[0.0, 2.0]], "n": [41]})
    rc = main(["--out-dir", str(tmp_path), "facelift", "--problem", prob, "--grid", grid])
    assert rc == 0
    rows = (tmp_path / "ghat.csv").read_text().strip().splitlines()[1:]
    vals = np.array([float(r.split(",")[1]) for r in rows])
    assert np.max(np.abs(vals - 1.0)) < 1e-12


def test_solve_writes_solution_and_sidecar(tmp_path):
    prob = write(tmp_path / "prob.json", KINK_SPEC)
    grid = write(tmp_path / "grid.json", {"box": [[0.0, 2.0]], "n": [31]})
    rc = main(["--out-dir", str(tmp_path), "solve", "--problem", prob, "--grid", grid,
               "--time-nodes", "11", "--control-res", "11"])
    assert rc == 0
    assert (tmp_path / "solution.csv").exists()
    sidecar = json.loads((tmp_path / "solution.csv.config.json").read_text())
    assert sidecar["scheme"]["mode"] == "project"
    # a 1-D solve steps implicitly, with no CFL bound
    assert sidecar["scheme"]["cfl_dt_max"] is None and sidecar["scheme"]["substeps_per_interval"] == 1


# a kink problem whose state domain leaves out part of the grid box [0, 2]: the
# solve refuses the truncation box (a 1-D solve has no CFL bound to violate)
HALF_LINE_KINK_SPEC = dict(KINK_SPEC, state_domain=[[0.5, None]])


def test_solve_box_outside_state_domain_exits_2(tmp_path, capsys):
    prob = write(tmp_path / "prob.json", HALF_LINE_KINK_SPEC)
    grid = write(tmp_path / "grid.json", {"box": [[0.0, 2.0]], "n": [41]})
    rc = main(["--out-dir", str(tmp_path), "solve", "--problem", prob, "--grid", grid, "--time-nodes", "3"])
    assert rc == 2  # caught before stepping: configuration error
    assert "truncation box must lie inside the state domain" in capsys.readouterr().err


def test_simulate_summary_and_replay_bitwise(tmp_path):
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    pol = write(tmp_path / "pol.json", {"kind": "constant", "value": [5.0]})
    d1 = tmp_path / "run1"
    rc = main(["--out-dir", str(d1), "simulate", "--problem", prob, "--policy", pol,
               "--t0", "0", "--x0", "1.0", "--paths", "4000", "--steps", "16"])
    assert rc == 0
    s1 = (d1 / "ensemble-summary.json").read_bytes()
    est = json.loads(s1)
    assert abs(est["mean"] - math.exp(0.125)) < 4 * est["half_width_95"] + 0.01

    d2 = tmp_path / "run2"
    rc = main(["--out-dir", str(d2), "--manifest", str(d1 / "manifest.json"), "simulate",
               "--problem", prob, "--policy", pol, "--x0", "1.0"])
    assert rc == 0
    assert (d2 / "ensemble-summary.json").read_bytes() == s1


def test_simulate_manifest_without_seed_runs_with_seed_0(tmp_path):
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    pol = write(tmp_path / "pol.json", {"kind": "constant", "value": [5.0]})
    config = {"problem": prob, "policy": pol, "x0": [1.0], "paths": 100, "steps": 4, "out": "s.json"}
    mpath = write(tmp_path / "manifest.json", {"subcommand": "simulate", "config": config})
    assert main(["--out-dir", str(tmp_path / "a"), "--manifest", mpath]) == 0
    assert main(["--out-dir", str(tmp_path / "b"), "simulate", "--problem", prob, "--policy", pol,
                 "--x0", "1.0", "--paths", "100", "--steps", "4", "--out", "s.json"]) == 0
    assert (tmp_path / "a" / "s.json").read_bytes() == (tmp_path / "b" / "s.json").read_bytes()
    assert json.loads((tmp_path / "a" / "manifest.json").read_text())["config"] == config


def simulate_manifest(tmp_path, problem=MERTON_SPEC, **config):
    """A hand-written simulate manifest: 100 paths of the constant 5.0 from x0 = 1."""
    prob = write(tmp_path / "prob.json", problem)
    pol = write(tmp_path / "pol.json", {"kind": "constant", "value": [5.0]})
    config = {"problem": prob, "policy": pol, "x0": [1.0], "paths": 100, "steps": 4, **config}
    return write(tmp_path / "manifest.json", {"subcommand": "simulate", "config": config})


def test_simulation_box_is_the_domain_of_a_narrowed_document(tmp_path):
    """The Merton document in the box [0.2, 5] and the Merton document on (0.2, 5)
    write the same summary, stepped in log coordinates."""
    summaries = []
    for name, problem, config in (("box", MERTON_SPEC, {"simulation_box": [[0.2, 5.0]]}),
                                  ("domain", dict(MERTON_SPEC, state_domain=[[0.2, 5.0]]), {})):
        (tmp_path / name).mkdir()
        mpath = simulate_manifest(tmp_path / name, problem, **config)
        assert main(["--out-dir", str(tmp_path / name / "out"), "--manifest", mpath]) == 0
        summaries.append((tmp_path / name / "out" / "ensemble-summary.json").read_text())
    assert summaries[0] == summaries[1]
    assert '"log_coordinates": true' in summaries[1]


@pytest.mark.parametrize("box, message", [
    ([[1.5, 2.0]], "state [1.] outside the open domain"),
    ([[1.0, 2.0]], "state [1.] outside the open domain"),
    ([[-2.0, -1.0]], "key 'simulation_box': box [[-2.0, -1.0]] misses the state domain [[0.0, inf]]"),
    ([[0.5, 2.0], [0.5, 2.0]], "key 'simulation_box': box [[0.5, 2.0], [0.5, 2.0]] misses"),
], ids=["start-below-the-box", "start-on-its-edge", "box-below-the-domain", "box-of-two-dimensions"])
def test_simulate_start_outside_the_simulation_box_exits_2(tmp_path, capsys, box, message):
    """The start must lie in the open box, as in the open domain; a path never starts frozen."""
    mpath = simulate_manifest(tmp_path, simulation_box=box)
    assert main(["--out-dir", str(tmp_path / "out"), "--manifest", mpath]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert not (tmp_path / "out").exists()


def test_certify_inflated_candidate_exits_4(tmp_path, capsys):
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    cand = write(tmp_path / "cand.json", {
        "kind": "closed-form", "family": "merton", "side": "sub",
        "params": {"mu": 0.1, "sigma": 0.2, "p": 0.5, "T": 1.0, "B": 10.0,
                   "exponent_shift": 0.05},
    })
    rc = main(["--out-dir", str(tmp_path), "certify", "--problem", prob,
               "--candidate", cand, "--kind", "sub", "--budget", "100000",
               "--start-box", "0.5,2.0"])
    assert rc == 4
    report = json.loads((tmp_path / "report.json").read_text())
    assert not report["certified"]
    failing = [r for r in report["records"] if not r["passed"]]
    assert failing
    out = capsys.readouterr().out
    assert "NOT certified" in out and "FAILED" in out


def test_certify_and_bracket_roundtrip(tmp_path):
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    sub_spec = {"kind": "closed-form", "family": "merton", "side": "sub",
                "params": {"mu": 0.1, "sigma": 0.2, "p": 0.5, "T": 1.0, "B": 10.0}}
    sup_spec = dict(sub_spec, side="super",
                    params=dict(sub_spec["params"], exponent_shift=0.05))
    sub = write(tmp_path / "sub.json", sub_spec)
    sup = write(tmp_path / "sup.json", sup_spec)
    rc = main(["--out-dir", str(tmp_path), "certify", "--problem", prob, "--candidate", sub,
               "--budget", "30000", "--start-box", "0.5,2.0", "--out", "sub-report.json"])
    assert rc == 0
    rc = main(["--out-dir", str(tmp_path), "certify", "--problem", prob, "--candidate", sup,
               "--budget", "30000", "--start-box", "0.5,2.0", "--out", "sup-report.json"])
    assert rc == 0
    pts = tmp_path / "points.csv"
    pts.write_text("0.0,1.0\n0.5,1.5\n")
    rc = main(["--out-dir", str(tmp_path), "bracket", "--problem", prob,
               "--sub", str(tmp_path / "sub-report.json"),
               "--super", str(tmp_path / "sup-report.json"),
               "--points", str(pts), "--paths", "5000"])
    assert rc == 0
    doc = json.loads((tmp_path / "bracket.json").read_text())
    assert doc["ok"]
    assert doc["points"][0]["gap"] == pytest.approx(math.exp(0.175) - math.exp(0.125), abs=1e-12)


def test_convergence_cli(tmp_path):
    prob = write(tmp_path / "prob.json", dict(
        CONCAVE_SPEC,
        payoff={"family": "quadratic"},
        constraint={"family": "positive_const", "params": {"c": 1.0}},
    ))
    grid = write(tmp_path / "grid.json", {"box": [[-2.0, 2.0]], "n": [17]})
    rc = main(["--out-dir", str(tmp_path), "convergence", "--problem", prob, "--grid", grid,
               "--refinements", "2", "--time-nodes", "9"])
    assert rc == 0
    doc = json.loads((tmp_path / "study.json").read_text())
    assert len(doc["diffs"]) == 2


def test_solve_replay_bitwise(tmp_path):
    prob = write(tmp_path / "prob.json", KINK_SPEC)
    grid = write(tmp_path / "grid.json", {"box": [[0.0, 2.0]], "n": [31]})
    d1, d2 = tmp_path / "a", tmp_path / "b"
    rc = main(["--out-dir", str(d1), "solve", "--problem", prob, "--grid", grid,
               "--time-nodes", "9", "--control-res", "11"])
    assert rc == 0
    rc = main(["--out-dir", str(d2), "--manifest", str(d1 / "manifest.json"), "solve",
               "--problem", prob, "--grid", grid])
    assert rc == 0
    assert (d2 / "solution.csv").read_bytes() == (d1 / "solution.csv").read_bytes()


def test_manifest_subcommand_mismatch_exits_2(tmp_path):
    prob = write(tmp_path / "prob.json", KINK_SPEC)
    grid = write(tmp_path / "grid.json", {"box": [[0.0, 2.0]], "n": [31]})
    rc = main(["--out-dir", str(tmp_path), "solve", "--problem", prob, "--grid", grid,
               "--time-nodes", "5", "--control-res", "5"])
    assert rc == 0
    rc = main(["--out-dir", str(tmp_path), "--manifest", str(tmp_path / "manifest.json"),
               "facelift", "--problem", prob, "--grid", grid])
    assert rc == 2


def test_pipeline_small_merton(tmp_path):
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    spec = {
        "problem": "prob.json",
        "grid": {"box": [[0.2, 5.0]], "n": [80], "spacing": "log"},
        "points": [[0.0, 1.0]],
        "sub_candidate": {"kind": "closed-form", "family": "merton", "side": "sub",
                          "params": {"mu": 0.1, "sigma": 0.2, "p": 0.5, "T": 1.0, "B": 10.0}},
        "super_candidate": {"kind": "closed-form", "family": "merton", "side": "super",
                            "params": {"mu": 0.1, "sigma": 0.2, "p": 0.5, "T": 1.0, "B": 10.0,
                                       "exponent_shift": 0.02}},
        "time_nodes": 30,
        "control_res": 41,
        "mc_paths": 20000,
        "mc_steps": 60,
        "budget": 30000,
        "start_box": [[0.5, 2.0]],
        "certify_solver_candidate": False,
        "seed": 5,
    }
    spath = write(tmp_path / "pipeline.json", spec)
    rc = main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath])
    assert rc == 0
    doc = json.loads((tmp_path / "pipeline-report.json").read_text())
    assert doc["stages"]["bracket"] == "ok"
    assert doc["bracket"]["ok"]
    assert doc["facelift_sup_distance"] == 0.0
    gap_frac = doc["bracket"]["points"][0]["gap_fraction"]
    assert gap_frac < 0.03


MALFORMED_PROBLEMS = {
    "constraint-string": dict(KINK_SPEC, constraint="neg_second"),
    "payoff-string": dict(KINK_SPEC, payoff="abs"),
    "params-list": dict(KINK_SPEC, params=[1, 2]),
    "params-not-numbers": dict(KINK_SPEC, params={"mu": "a", "sigma": 1.0}),
    "unknown-coefficient-parameter": dict(KINK_SPEC, params={"mu": 1.0, "sigma": 1.0, "nu": 1.0}),
    "unknown-payoff-parameter": dict(KINK_SPEC, payoff={"family": "abs", "params": {"centre": 1.0}}),
    "domain-without-pairs": dict(KINK_SPEC, state_domain=[0.0]),
    "horizon-null": dict(KINK_SPEC, horizon=None),
    "document-list": [KINK_SPEC],
}
GOOD_GRID = {"box": [[0.0, 2.0]], "n": [21]}
PLANE_SPEC = {"family": "constant", "params": {"b0": [0.0, 0.0], "s0": [[1.0, 0.0], [0.0, 1.0]]},
              "control_bound": 0.0, "state_domain": [[None, None], [None, None]], "horizon": 0.5,
              "payoff": {"family": "abs", "params": {"center": 0.0}},
              "gauge": {"family": "one_plus_square"}, "constraint": {"family": "neg_trace"}}
PLANE_GRID = {"box": [[0.5, 2.0], [0.5, 2.0]], "n": [9, 11]}
# documents each well formed alone, refused by what the solve needs: (problem, grid, message)
MALFORMED_SOLVES = {
    "two-d-non-diagonal-diffusion": (dict(PLANE_SPEC, params={"b0": [0.0, 0.0], "s0": [[1.0, 0.5], [0.0, 1.0]]}),
                                     PLANE_GRID, "2-D solver supports diagonal diffusion only"),
    "two-d-log-spacing": (PLANE_SPEC, dict(PLANE_GRID, spacing="log"), "log spacing is one-dimensional"),
}
# "x", 5 and [[2, 0]] exited 2 naming no key; [[0, 2, 3]] built on [0, 2] and [[true, 2]] on [1, 2]
MALFORMED_GRID_BOXES = {"string": "x", "int": 5, "inverted": [[2.0, 0.0]], "null-edge": [[None, 2.0]],
                        "infinite-edge": [[0.0, math.inf]], "three-numbers": [[0.0, 2.0, 3.0]],
                        "true-edge": [[True, 2.0]], "empty": []}


@pytest.mark.parametrize(
    "problem, grid, named",
    [(doc, GOOD_GRID, "") for doc in MALFORMED_PROBLEMS.values()]
    + [(KINK_SPEC, {"box": box, "n": [21]}, f"box {box!r}: ") for box in MALFORMED_GRID_BOXES.values()]
    + list(MALFORMED_SOLVES.values()),
    ids=list(MALFORMED_PROBLEMS) + [f"grid-box-{name}" for name in MALFORMED_GRID_BOXES] + list(MALFORMED_SOLVES),
)
def test_malformed_document_exits_2(tmp_path, capsys, problem, grid, named):
    prob = write(tmp_path / "prob.json", problem)
    grid = write(tmp_path / "grid.json", grid)
    rc = main(["--out-dir", str(tmp_path), "solve", "--problem", prob, "--grid", grid,
               "--time-nodes", "3", "--control-res", "5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and named in err


@pytest.mark.parametrize("argv", [
    ["oracle", "--family", "merton", "--params", "mu", "--eval", "0,1"],
    ["oracle", "--family", "merton", "--eval", "0"],
    ["oracle", "--family", "merton", "--params", "mu=x", "--eval", "0,1"],
    ["certify", "--problem", "prob.json", "--candidate", "cand.json", "--start-box", "a,b"],
])
def test_malformed_flag_value_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "configuration error:" in capsys.readouterr().err


def test_pipeline_configuration_error_exits_2_with_partial_report(tmp_path, capsys):
    write(tmp_path / "prob.json", HALF_LINE_KINK_SPEC)
    spec = {"problem": "prob.json", "grid": GOOD_GRID, "points": [[0.0, 1.0]], "time_nodes": 3}
    spath = write(tmp_path / "pipeline.json", spec)
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 2
    stages = json.loads((tmp_path / "pipeline-report.json").read_text())["stages"]
    assert stages["facelift"] == "ok"
    assert stages["solve"] == "failed: truncation box must lie inside the state domain"


@pytest.mark.parametrize("argv", [
    ["oracle", "--family", "merton", "--params", "sgima=5", "--eval", "0,1"],
    ["oracle", "--family", "heat", "--params", "mu=1", "--eval", "0,1"],
], ids=["merton-sgima", "heat-mu"])
def test_oracle_unknown_parameter_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "unknown" in captured.err and captured.out == ""


@pytest.mark.parametrize("bound", ["-1", "nan"])
def test_oracle_bound_below_zero_or_nan_exits_2(bound, capsys):
    """B=-1 printed 0.9465, the value under u = -1, and B=nan the unbounded value."""
    assert main(["oracle", "--family", "merton", "--params", f"B={bound}", "--eval", "0,1"]) == 2
    captured = capsys.readouterr()
    assert "bound must be at least 0" in captured.err and captured.out == ""


MERTON_SUB = {"kind": "closed-form", "family": "merton", "side": "sub",
              "params": {"mu": 0.1, "sigma": 0.2, "p": 0.5, "T": 1.0, "B": 10.0}}
MALFORMED_CANDIDATES = {
    "document-list": ["x"],
    "unknown-closed-form-parameter": dict(MERTON_SUB, params={"sgima": 5.0}),
    "params-not-numbers": dict(MERTON_SUB, params={"mu": "a"}),
    "no-side": {k: v for k, v in MERTON_SUB.items() if k != "side"},
    "constant-without-value": {"kind": "constant", "side": "super", "growth_constant": 1.0},
    "policy-string": {"kind": "constant", "side": "sub", "value": 1.0, "growth_constant": 1.0,
                      "policy": "constant"},
    "bound-negative": dict(MERTON_SUB, params=dict(MERTON_SUB["params"], B=-1.0)),
    "bound-nan": dict(MERTON_SUB, params=dict(MERTON_SUB["params"], B=math.nan)),
}


@pytest.mark.parametrize("doc", MALFORMED_CANDIDATES.values(), ids=list(MALFORMED_CANDIDATES))
def test_malformed_candidate_document_is_a_configuration_error(doc):
    with pytest.raises(specio.ConfigurationError):
        specio.candidate_from_spec(doc)


@pytest.mark.parametrize("doc", [["x"], {"kind": "constant"}, {"value": [1.0]},
                                 {"kind": "table", "csv": "solution.csv"}],
                         ids=["document-list", "constant-without-value", "no-kind", "table-kind"])
def test_malformed_policy_document_is_a_configuration_error(doc):
    with pytest.raises(specio.ConfigurationError):
        specio.policy_from_spec(doc)


@pytest.mark.parametrize("kind", [None, "sub"])
@pytest.mark.parametrize("doc", [["x"], dict(MERTON_SUB, params={"sgima": 5.0})],
                         ids=["document-list", "unknown-closed-form-parameter"])
def test_certify_malformed_candidate_exits_2(tmp_path, capsys, doc, kind):
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    cand = write(tmp_path / "cand.json", doc)
    argv = ["--out-dir", str(tmp_path), "certify", "--problem", prob, "--candidate", cand,
            "--budget", "1000"] + (["--kind", kind] if kind else [])
    assert main(argv) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def small_pipeline(tmp_path, **changes):
    """A Merton pipeline small enough for a unit test (seconds, not minutes)."""
    write(tmp_path / "prob.json", MERTON_SPEC)
    spec = {
        "problem": "prob.json",
        "grid": {"box": [[0.2, 5.0]], "n": [40], "spacing": "log"},
        "points": [[0.0, 1.0]],
        "sub_candidate": MERTON_SUB,
        "super_candidate": dict(MERTON_SUB, side="super",
                                params=dict(MERTON_SUB["params"], exponent_shift=0.02)),
        "time_nodes": 20, "control_res": 21, "mc_paths": 2000, "mc_steps": 40, "budget": 5000,
        "start_box": [[0.5, 2.0]], "certify_solver_candidate": False, "seed": 3,
    }
    spec.update(changes)
    return write(tmp_path / "pipeline.json", spec)


def test_pipeline_uncertified_candidate_exits_4_with_report(tmp_path, capsys):
    inflated = dict(MERTON_SUB, params=dict(MERTON_SUB["params"], exponent_shift=0.5))
    spath = small_pipeline(tmp_path, sub_candidate=inflated)
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 4
    doc = json.loads((tmp_path / "pipeline-report.json").read_text())
    assert doc["certify_sub"]["certified"] is False
    assert doc["certify_super"]["certified"] is True
    assert doc["bracket"].startswith("skipped: sub candidate not certified")
    assert doc["stages"]["certify"] == "ok"
    assert (tmp_path / "manifest.json").exists()


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


@pytest.mark.parametrize("stage, target, exc, code", [
    ("simulate", "bracket_ensemble", NumericalError("non-finite values"), 3),
    ("simulate", "extract_policy", DomainError("outside the domain"), 2),
    ("certify", "certify_subsolution", ConvergenceError("no convergence"), 3),
    ("certify", "certify_supersolution", ConfigurationError("bad box"), 2),
    ("bracket", "bracket_report", NumericalError("non-finite values"), 3),
    ("bracket", "bracket_report", DomainError("outside the domain"), 2),
])
def test_pipeline_late_stage_failure_writes_partial_report(tmp_path, monkeypatch, capsys,
                                                           stage, target, exc, code):
    monkeypatch.setattr(f"hjbkit.cli.{target}", _raise(exc))
    spath = small_pipeline(tmp_path, mc_paths=200, budget=500)
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == code
    stages = json.loads((tmp_path / "pipeline-report.json").read_text())["stages"]
    assert stages[stage] == f"failed: {exc}"
    assert all(stages[s] == "ok" for s in ("facelift", "solve"))
    assert f"pipeline failed at stage {stage}" in capsys.readouterr().out


@pytest.mark.parametrize("key, doc, message", [
    ("sub_candidate", dict(MERTON_SUB, params={"sgima": 5.0}), "unknown merton candidate parameter(s) 'sgima'"),
    ("super_candidate", ["x"], "malformed candidate document"),
    ("sub_candidate", dict(MERTON_SUB, side="super"), "a super candidate, not a sub one"),
], ids=["unknown-parameter", "document-list", "wrong-side"])
def test_pipeline_malformed_candidate_exits_2_before_any_stage(tmp_path, monkeypatch, capsys, key, doc, message):
    """The simulate stage runs the sub candidate's companion policy, so both
    candidates are read before the face-lift."""
    monkeypatch.setattr("hjbkit.cli._facelift", _raise(AssertionError("a stage ran")))
    spath = small_pipeline(tmp_path, **{key: doc})
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: key {key!r}: ") and message in err
    assert not (tmp_path / "pipeline-report.json").exists()


def test_pipeline_without_a_candidate_fails_the_simulate_stage(tmp_path, capsys):
    spath = small_pipeline(tmp_path)
    spec = json.loads(open(spath).read())
    del spec["super_candidate"]
    write(tmp_path / "pipeline.json", spec)
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 2
    stages = json.loads((tmp_path / "pipeline-report.json").read_text())["stages"]
    assert stages == {"facelift": "ok", "solve": "ok", "simulate": "failed: the pipeline spec has no 'super_candidate'"}


def test_pipeline_draws_each_bracket_point_once(tmp_path, monkeypatch):
    """A P-point pipeline makes P bracket-sized noise draws, not P + 1: the
    simulate stage is the bracket's point 0."""
    draws = []
    fill = simulate._fill_noise

    def counting(Z, seed):
        draws.append((Z.shape[:2], seed))
        fill(Z, seed)

    monkeypatch.setattr("hjbkit.simulate._fill_noise", counting)
    spath = small_pipeline(tmp_path, points=[[0.0, 1.0], [0.25, 0.8], [0.5, 1.5]])
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 0
    # the batteries draw 48 steps a record, the bracket mc_steps = 40
    assert [d for d in draws if d[0][0] == 40] == [((40, 2000), (3, j)) for j in range(3)]


def test_fast_pipeline_draws_27_times(tmp_path, noise_draws):
    """The shipped --fast pipeline draws 12 times a battery, once a (tau, start)
    whatever its adversaries, and once a bracket point: 12 + 12 + 3."""
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_merton_pipeline.py"
    loader = importlib.util.spec_from_file_location("run_merton_pipeline", script)
    run_merton = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(run_merton)
    spec = run_merton.build_spec(fast=True)
    write(tmp_path / spec["problem"], run_merton.PROBLEM)
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", write(tmp_path / "pipeline.json", spec)]) == 0
    battery_paths = spec["budget"] // 36   # 4 taus x 3 end rules x 3 starts
    assert sorted(shape for shape, _ in noise_draws) == (
        [(48, battery_paths, 1)] * 24 + [(spec["mc_steps"], spec["mc_paths"], 1)] * 3)


def test_pipeline_first_point_estimate_is_the_brackets_point_0(tmp_path, monkeypatch):
    calls = []
    original = cli.bracket_report

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr("hjbkit.cli.bracket_report", spy)
    spath = small_pipeline(tmp_path)
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 0
    doc = json.loads((tmp_path / "pipeline-report.json").read_text())
    [(args, kwargs)] = calls
    [(companion, extracted)] = kwargs["estimates"]
    mc = doc["mc_estimate_at_first_point"]
    assert (mc["mean"], mc["half_width_95"], mc["exit_fraction"]) == (
        extracted.mean, extracted.half_width_95, extracted.exit_fraction)
    # point 0 simulated afresh with no stop, as `hjbkit bracket` does: the same bits
    sub, _, problem, points, bc = args[:5]
    fresh = [hk.estimate_value(b, problem.payoff) for b in bracket_ensemble(sub, problem, 0, *points[0], bc).blocks()]
    assert fresh == [companion, extracted]
    assert doc["bracket"]["points"][0]["mc_mean"] == max(fresh, key=lambda e: e.mean).mean


@pytest.mark.parametrize("key, value", [("seed", 1.5), ("seed", True), ("seed", "7"), ("budget", 2500.5),
                                        ("mc_paths", 2e3 + 0.5)])
def test_pipeline_integer_key_that_is_not_an_integer_exits_2_before_any_stage(tmp_path, monkeypatch, capsys,
                                                                              key, value):
    """int() used to run "seed": 1.5, true and "7" as seeds 1, 1 and 7."""
    monkeypatch.setattr("hjbkit.cli._facelift", _raise(AssertionError("a stage ran")))
    spath = small_pipeline(tmp_path, **{key: value})
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: key {key!r}: ") and "not an integer" in err
    assert not (tmp_path / "pipeline-report.json").exists()


@pytest.mark.parametrize("value, want", [(7, 7), (1e5, 100_000), (-3.0, -3)])
def test_integer_keys_take_ints_and_integral_floats(value, want):
    got = grids.integer(value)
    assert got == want and type(got) is int


def test_facelift_manifest_from_before_the_method_flag_replays(tmp_path, capsys):
    """Manifests hold "method": "auto" and "tol" from when facelift had those flags."""
    prob = write(tmp_path / "prob.json", KINK_SPEC)
    grid = write(tmp_path / "grid.json", {"box": [[0.0, 2.0]], "n": [41]})
    assert main(["--out-dir", str(tmp_path / "a"), "facelift", "--problem", prob, "--grid", grid]) == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    manifest["config"].update(method="auto", tol=1e-08)
    mpath = write(tmp_path / "old-manifest.json", manifest)
    assert main(["--out-dir", str(tmp_path / "b"), "--manifest", mpath]) == 0
    assert (tmp_path / "b" / "ghat.csv").read_bytes() == (tmp_path / "a" / "ghat.csv").read_bytes()


def test_manifest_with_an_unknown_key_exits_2(tmp_path, capsys):
    """A typo would otherwise take the default: "time_node" solved on 101 nodes."""
    prob = write(tmp_path / "prob.json", KINK_SPEC)
    grid = write(tmp_path / "grid.json", {"box": [[0.0, 2.0]], "n": [21]})
    config = {"problem": prob, "grid": grid, "time_nodes": 5, "control_res": 5, "time_node": 5, "contol_res": 3}
    mpath = write(tmp_path / "manifest.json", {"subcommand": "solve", "config": config})
    assert main(["--out-dir", str(tmp_path / "out"), "--manifest", mpath]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: unknown solve key(s) 'contol_res', 'time_node'")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand, argv, key, value", [
    ("facelift", [], "method", "relax"),
    ("solve", ["--time-nodes", "5", "--control-res", "5"], "penalty_weight", 10.0),
])
def test_manifest_with_a_removed_setting_exits_2(tmp_path, capsys, subcommand, argv, key, value):
    prob = write(tmp_path / "prob.json", KINK_SPEC)
    grid = write(tmp_path / "grid.json", {"box": [[0.0, 2.0]], "n": [21]})
    assert main(["--out-dir", str(tmp_path), subcommand, "--problem", prob, "--grid", grid] + argv) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["config"][key] = value
    mpath = write(tmp_path / "edited-manifest.json", manifest)
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path / "replay"), "--manifest", mpath]) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and key in err


# documents whose G does not read the 1-D second difference, so cli._facelift calls facelift_general
GENERAL_ROUTE = {
    "neg_trace-2d": (PLANE_SPEC, {"box": [[-1.0, 1.0], [-1.0, 1.0]], "n": [9, 11]}),
    "positive_const-1d": ({"family": "constant", "params": {"b0": [0.0], "s0": [[1.0]]},
                           "control_bound": 0.0, "state_domain": [[None, None]], "horizon": 0.5,
                           "payoff": {"family": "abs", "params": {"center": 0.0}},
                           "gauge": {"family": "one_plus_square"},
                           "constraint": {"family": "positive_const", "params": {"c": 1.0}}},
                          {"box": [[-2.0, 2.0]], "n": [17]}),
}


@pytest.mark.parametrize("name", list(GENERAL_ROUTE))
def test_facelift_and_solve_write_facelift_general_bytes(tmp_path, capsys, name):
    """facelift writes facelift_general's face-lift, and solve starts from it."""
    problem_doc, grid_doc = GENERAL_ROUTE[name]
    prob, grid = write(tmp_path / "prob.json", problem_doc), write(tmp_path / "grid.json", grid_doc)
    assert main(["--out-dir", str(tmp_path / "facelift"), "facelift", "--problem", prob, "--grid", grid]) == 0
    assert main(["--out-dir", str(tmp_path / "solve"), "solve", "--problem", prob, "--grid", grid,
                 "--time-nodes", "3", "--control-res", "3"]) == 0
    problem, nodes = specio.load_problem(prob), specio.load_grid(grid)
    lifted = hk.facelift_general(hk.GridFunction(nodes, problem.payoff(nodes.nodes()).reshape(nodes.shape)), problem)
    assert (tmp_path / "facelift" / "ghat.csv").read_bytes() == lifted.to_csv().encode()
    solution = hk.solve_hjb(problem, lifted, hk.SchemeConfig(n_time_nodes=3, control_grid_resolution=3))
    assert (tmp_path / "solve" / "solution.csv").read_bytes() == solution.to_csv().encode()


def test_facelift_has_no_method_flag(tmp_path, capsys):
    prob = write(tmp_path / "prob.json", KINK_SPEC)
    grid = write(tmp_path / "grid.json", {"box": [[0.0, 2.0]], "n": [21]})
    assert main(["--out-dir", str(tmp_path), "facelift", "--problem", prob, "--grid", grid,
                 "--method", "relax"]) == 2


@pytest.mark.parametrize("changes, message", [
    ({"points": 5}, "key 'points': 5 does not parse"),
    ({"points": [[True, 1.0]]}, "key 'points': [[True, 1.0]] does not parse"),
    ({"points": [["a", 1]]}, "key 'points': [['a', 1]] does not parse"),
    ({"points": [5]}, "key 'points': [5] does not parse"),
    ({"points": []}, "at least one point"),
    ({"mc_path": 10}, "'mc_path'"),
    ({"penalty_weight": 10.0}, "penalty_weight"),
    ({"points": [[0.0]]}, "0 coordinates; the problem has 1"),
    ({"points": [[0.0, 1.0, 2.0]]}, "2 coordinates; the problem has 1"),
    ({"points": [[-0.5, 1.0]]}, "point at t=-0.5"),
    ({"points": [[math.nan, 1.0]]}, "point at t=nan"),
    ({"points": [[1.0, 1.0]]}, "point at t=1.0"),
    ({"points": [[0.0, -1.0]]}, "outside the open domain"),
    ({"points": [[0.0, 1.0], [0.25, math.inf]]}, "point at t=0.25"),
    ({"terminal": "face-lift"}, "key 'terminal': 'face-lift'"),
    ({"mode": "projected"}, "key 'mode': 'projected'"),
    ({"certify_solver_candidate": "false"}, "key 'certify_solver_candidate': 'false'"),
    ({"certify_solver_candidate": 0}, "key 'certify_solver_candidate': 0"),
], ids=["points-int", "points-bool", "points-string", "point-int", "points-empty", "unknown-key", "penalty-weight",
        "point-no-state", "point-two-coordinates", "point-before-start", "point-nan-time", "point-at-horizon",
        "point-outside-domain", "point-infinite-state",
        "terminal-face-lift", "mode-outside-its-choices", "solver-candidate-string", "solver-candidate-integer"])
def test_malformed_pipeline_spec_exits_2(tmp_path, monkeypatch, capsys, changes, message):
    monkeypatch.setattr("hjbkit.cli._facelift", _raise(AssertionError("a stage ran")))
    spath = small_pipeline(tmp_path, **changes)
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert not (tmp_path / "pipeline-report.json").exists()


def test_pipeline_spec_document_list_exits_2(tmp_path, capsys):
    spath = write(tmp_path / "pipeline.json", [{"problem": "prob.json"}])
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 2
    assert "configuration error: malformed pipeline spec document" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["5", "0"])
def test_pipeline_with_a_top_level_seed_exits_2_before_any_stage(tmp_path, monkeypatch, capsys, seed):
    """The spec's seed key seeds a pipeline; --seed would be recorded in the manifest and not used."""
    monkeypatch.setattr("hjbkit.cli._facelift", _raise(AssertionError("a stage ran")))
    spath = small_pipeline(tmp_path)
    assert main(["--seed", seed, "--out-dir", str(tmp_path / "out"), "pipeline", "--spec", spath]) == 2
    assert "--seed does not seed a pipeline; the spec's 'seed' key does" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_beside_a_manifest_exits_2_before_the_run(tmp_path, monkeypatch, capsys):
    """The manifest's config seeds a replay; --seed beside it was once ignored with exit 0."""
    monkeypatch.setattr("hjbkit.cli.simulate_paths", _raise(AssertionError("a run started")))
    mpath = simulate_manifest(tmp_path)
    assert main(["--seed", "5", "--out-dir", str(tmp_path / "out"), "--manifest", mpath]) == 2
    assert "--seed does not seed a --manifest replay; the manifest's config does" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pipeline_manifest_records_seed_0_and_replays(tmp_path):
    """A run without --seed records config.seed 0, as every earlier pipeline
    manifest does, and its replay writes the same report."""
    spath = small_pipeline(tmp_path, mc_paths=500, budget=1000)
    code = main(["--out-dir", str(tmp_path / "a"), "pipeline", "--spec", spath])
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["config"] == {"seed": 0, "spec": spath} and manifest["seed"] == 3
    assert main(["--out-dir", str(tmp_path / "b"), "--manifest", str(tmp_path / "a" / "manifest.json")]) == code
    report = "pipeline-report.json"
    assert (tmp_path / "b" / report).read_bytes() == (tmp_path / "a" / report).read_bytes()


@pytest.fixture
def merton_solution_csv(tmp_path):
    """`hjbkit solve` on a small Merton problem: the directory holding solution.csv."""
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    grid = write(tmp_path / "grid.json", {"box": [[0.2, 5.0]], "n": [40], "spacing": "log"})
    assert main(["--out-dir", str(tmp_path), "solve", "--problem", prob, "--grid", grid,
                 "--time-nodes", "11", "--control-res", "21"]) == 0
    return tmp_path


def test_solve_then_simulate_a_from_solution_policy(merton_solution_csv):
    d = merton_solution_csv
    pol = write(d / "pol.json", {"kind": "from-solution", "csv": "solution.csv"})
    assert main(["--out-dir", str(d / "sim"), "simulate", "--problem", str(d / "prob.json"),
                 "--policy", pol, "--x0", "1.0", "--paths", "4000", "--steps", "20"]) == 0
    est = json.loads((d / "sim" / "ensemble-summary.json").read_text())
    assert est["n_paths"] == 4000
    assert abs(est["mean"] - math.exp(0.125)) < 4 * est["half_width_95"] + 0.01


def test_simulate_policy_csv_with_a_dropped_row_exits_2(merton_solution_csv, capsys):
    d = merton_solution_csv
    lines = (d / "solution.csv").read_text().splitlines()
    (d / "dropped.csv").write_text("\n".join(lines[:7] + lines[8:]) + "\n")
    pol = write(d / "pol.json", {"kind": "from-solution", "csv": "dropped.csv"})
    capsys.readouterr()
    assert main(["--out-dir", str(d / "sim"), "simulate", "--problem", str(d / "prob.json"),
                 "--policy", pol, "--x0", "1.0", "--paths", "100", "--steps", "4"]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not (d / "sim" / "ensemble-summary.json").exists()


def test_solve_then_certify_a_from_solution_sub_candidate(merton_solution_csv, capsys):
    d = merton_solution_csv
    cand = write(d / "cand.json", {"kind": "from-solution", "csv": "solution.csv", "side": "sub",
                                   "growth_constant": 10.0})
    assert main(["--out-dir", str(d / "cert"), "certify", "--problem", str(d / "prob.json"),
                 "--candidate", cand, "--budget", "6000", "--start-box", "0.5,2.0"]) == 0
    report = json.loads((d / "cert" / "report.json").read_text())
    assert report["certified"] and report["side"] == "sub"
    assert report["candidate"]["kind"] == "from-solution"


def test_bracket_reads_the_files_of_a_candidate_certified_into_another_directory(merton_solution_csv):
    """The report's copy of the candidate names its csv from the report's
    directory, where bracket resolves it; it once kept the candidate document's
    own path, so bracket looked for out/sub/solution.csv and exited 2."""
    d = merton_solution_csv
    cand = write(d / "cand.json", {"kind": "from-solution", "csv": "solution.csv", "side": "sub",
                                   "growth_constant": 10.0})
    assert main(["--out-dir", str(d / "out" / "sub"), "certify", "--problem", str(d / "prob.json"),
                 "--candidate", cand, "--budget", "6000", "--start-box", "0.5,2.0"]) == 0
    report = d / "out" / "sub" / "report.json"
    assert json.loads(report.read_text())["candidate"]["csv"] == os.path.join("..", "..", "solution.csv")
    super_ = write(d / "super-report.json", {
        "candidate": dict(MERTON_SUB, side="super", params=dict(MERTON_SUB["params"], exponent_shift=0.05)),
        "side": "super", "records": [], "z": 4.0, "tol": 1e-9, "budget": 0, "seed": 0})
    (d / "points.csv").write_text("t,x\n0.0,1.0\n")
    assert main(["--out-dir", str(d / "out" / "bracket"), "bracket", "--problem", str(d / "prob.json"),
                 "--sub", str(report), "--super", super_, "--points", str(d / "points.csv"),
                 "--paths", "500", "--steps", "8"]) in (0, 4)


def test_pipeline_manifest_hashes_the_problem_and_csv_files_its_spec_names(merton_solution_csv, monkeypatch):
    """The manifest hashed the spec alone, so an edit of the problem document
    it names, or of a candidate's CSV, left the manifest as it was."""
    monkeypatch.setattr("hjbkit.cli._facelift", _raise(ConfigurationError("stopped")))
    d = merton_solution_csv
    spec = small_pipeline(d, sub_candidate={"kind": "from-solution", "csv": "solution.csv", "side": "sub",
                                            "growth_constant": 10.0})
    prob, csv = str(d / "prob.json"), str(d / "solution.csv")

    def inputs():
        assert main(["--out-dir", str(d / "out"), "pipeline", "--spec", spec]) == 2
        return json.loads((d / "out" / "manifest.json").read_text())["inputs"]

    before = inputs()
    assert before == {p: specio.sha256_file(p) for p in (spec, prob, csv)}
    (d / "prob.json").write_text(json.dumps(MERTON_SPEC, indent=1))
    assert inputs() == dict(before, **{prob: specio.sha256_file(prob)}) != before


def test_rebased_names_each_csv_path_from_the_new_directory():
    doc = {"kind": "grid-table", "csv": "g.csv", "side": "sub", "growth_constant": 1.0,
           "policy": {"kind": "from-solution", "csv": "s.csv"}}
    assert specio.rebased(doc, "inputs", os.path.join("out", "sub")) == dict(
        doc, csv=os.path.join("..", "..", "inputs", "g.csv"),
        policy={"kind": "from-solution", "csv": os.path.join("..", "..", "inputs", "s.csv")})
    assert specio.rebased(doc, "inputs", "inputs") == doc
    assert specio.rebased(MERTON_SUB, "inputs", "out") == MERTON_SUB


@pytest.mark.parametrize("spec, side, policy", [
    (KINK_SPEC, "super", None),
    (MERTON_SPEC, "sub", {"kind": "constant", "value": [0.0]}),
], ids=["kink-super", "merton-sub-with-policy"])
def test_facelift_then_certify_a_grid_table_candidate(tmp_path, capsys, spec, side, policy):
    prob = write(tmp_path / "prob.json", spec)
    box = [[0.0, 2.0]] if spec is KINK_SPEC else [[0.2, 5.0]]
    grid = write(tmp_path / "grid.json", {"box": box, "n": [41]})
    assert main(["--out-dir", str(tmp_path), "facelift", "--problem", prob, "--grid", grid]) == 0
    doc = {"kind": "grid-table", "csv": "ghat.csv", "side": side, "growth_constant": 10.0}
    if policy is not None:
        doc["policy"] = policy
    cand = write(tmp_path / "cand.json", doc)
    assert main(["--out-dir", str(tmp_path / "cert"), "certify", "--problem", prob, "--candidate", cand,
                 "--budget", "6000", "--start-box", "0.5,1.5"]) == 0
    report = json.loads((tmp_path / "cert" / "report.json").read_text())
    assert report["certified"] and report["side"] == side


def _bracket_inputs(tmp_path, points_text, z=4.0):
    """A problem, certified sub/super report documents at z and a points file for `bracket`."""
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    reports = []
    for side, params in (("sub", MERTON_SUB["params"]), ("super", dict(MERTON_SUB["params"], exponent_shift=0.05))):
        doc = {"candidate": dict(MERTON_SUB, side=side, params=params), "side": side, "records": [],
               "z": z, "tol": 1e-9, "budget": 0, "seed": 0}
        reports.append(write(tmp_path / f"{side}-report.json", doc))
    pts = tmp_path / "points.csv"
    pts.write_text(points_text)
    return ["--out-dir", str(tmp_path), "bracket", "--problem", prob, "--sub", reports[0],
            "--super", reports[1], "--points", str(pts), "--paths", "500", "--steps", "8"]


@pytest.mark.parametrize("points_text", [
    "t,x\n0.0,1.0\n0.5;1.5\n",
    "0.0,1.0\nt,x\n",
    "t,x\n0.0,1.0\n0.5\n",
    "",
    "t,x\n",
    "t,x\n0.0,1.0,2.0\n",
    "t,x\n-0.5,1.0\n",
    "t,x\nnan,1.0\n",
    "t,x\n0.0,-1.0\n",
    "t,x\n0.0,1.0\n1.0,1.0\n",
], ids=["semicolon-line", "header-not-first", "no-state", "empty", "header-only", "two-coordinates",
        "before-start", "nan-time", "outside-domain", "at-horizon"])
def test_bracket_malformed_points_line_exits_2(tmp_path, monkeypatch, capsys, points_text):
    monkeypatch.setattr("hjbkit.cli.bracket_report", _raise(AssertionError("a stage ran")))
    assert main(_bracket_inputs(tmp_path, points_text)) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "bracket.json").exists()


@pytest.mark.parametrize("flag, value", [("--paths", "0"), ("--paths", "1"), ("--paths", "-5"), ("--steps", "0")])
def test_bracket_count_out_of_range_exits_2(tmp_path, capsys, flag, value):
    """--paths 0 used to die in a reshape, and --paths 1 compared with a zero half-width."""
    argv = _bracket_inputs(tmp_path, "t,x\n0.0,1.0\n")
    argv[argv.index(flag) + 1] = value
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and flag[2:] in err
    assert not (tmp_path / "bracket.json").exists()


def test_bracket_reads_z_from_the_reports(tmp_path):
    """Each point's half-width is the reports' z times its standard error, and
    the report states that z; it was 1.96 whatever z the reports were certified at."""
    docs = {}
    for z in (1.96, 4.0):
        (tmp_path / str(z)).mkdir()
        argv = _bracket_inputs(tmp_path / str(z), "t,x\n0.0,1.0\n0.5,1.5\n", z)
        assert main(argv) in (0, 4)
        docs[z] = json.loads((tmp_path / str(z) / "bracket.json").read_text())
    assert (docs[1.96]["z"], docs[4.0]["z"]) == (1.96, 4.0)
    for narrow, wide in zip(docs[1.96]["points"], docs[4.0]["points"]):
        assert narrow["mc_mean"] == wide["mc_mean"]
        assert wide["mc_half_width"] == pytest.approx(narrow["mc_half_width"] * 4 / 1.96, rel=1e-12)


@pytest.mark.parametrize("z", [None, 5.0])
def test_pipeline_sandwich_reads_the_certify_z(tmp_path, z):
    """The sandwich used 1.96 per point whatever the batteries' z; its report
    now states the z it used, and each point's mc_half_width is the allowance
    its ok flag was judged by."""
    spath = small_pipeline(tmp_path, **({} if z is None else {"z": z}))
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 0
    report = json.loads((tmp_path / "pipeline-report.json").read_text())
    bracket = report["bracket"]
    assert bracket["z"] == (4.0 if z is None else z)
    for p in bracket["points"]:
        hw = p["mc_half_width"]
        assert hw > 0 and p["ok"] == (p["sub"] <= p["mc_mean"] + hw + 1e-9 and p["mc_mean"] <= p["super"] + hw + 1e-9
                                      and p["sub"] <= p["super"] + 1e-9)


def test_pipeline_budget_of_one_runs_without_the_solver_candidate(tmp_path):
    spath = small_pipeline(tmp_path, budget=1, mc_paths=200)
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) in (0, 4)
    assert "solver_candidate" not in json.loads((tmp_path / "pipeline-report.json").read_text())


def test_pipeline_certify_solver_candidate_true_exits_2_naming_the_key(tmp_path, monkeypatch, capsys):
    """The solver candidate's half-budget sub battery is gone, since the bracket's
    own estimates give the lower side; a spec that asks for it exits 2 before any stage runs."""
    monkeypatch.setattr("hjbkit.cli._facelift", _raise(AssertionError("a stage ran")))
    spath = small_pipeline(tmp_path, certify_solver_candidate=True)
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 2
    assert capsys.readouterr().err.startswith("configuration error: key 'certify_solver_candidate': True")
    assert not (tmp_path / "pipeline-report.json").exists()


def test_pipeline_certify_solver_candidate_false_is_taken_and_not_read(tmp_path):
    """Older specs, the frozen benchmark's among them, name the setting false."""
    named = small_pipeline(tmp_path, mc_paths=500, budget=1000)
    doc = json.loads(pathlib.Path(named).read_text())
    assert doc.pop("certify_solver_candidate") is False
    codes, reports = [], []
    for name, spath in (("named", named), ("absent", write(tmp_path / "absent.json", doc))):
        codes.append(main(["--out-dir", str(tmp_path / name), "pipeline", "--spec", spath]))
        reports.append((tmp_path / name / "pipeline-report.json").read_bytes())
    assert codes[0] == codes[1] in (0, 4) and reports[0] == reports[1]
    assert "solver_candidate" not in json.loads(reports[0])


@pytest.mark.parametrize("key, value", [("solver_growth_constant", 10.0), ("solver_candidate_tol", 0.005)])
def test_pipeline_solver_candidate_settings_are_unknown_keys(tmp_path, monkeypatch, capsys, key, value):
    monkeypatch.setattr("hjbkit.cli._facelift", _raise(AssertionError("a stage ran")))
    spath = small_pipeline(tmp_path, **{key: value})
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 2
    assert f"unknown pipeline-spec key(s) {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "pipeline-report.json").exists()


def test_pipeline_points_carry_the_lower_bound_of_their_two_blocks(tmp_path):
    """lower is the larger of the companion's and the extracted policy's mean -
    z_P se, so it lies between the selected estimate less its half-width and its mean."""
    spath = small_pipeline(tmp_path, points=[[0.0, 1.0], [0.5, 1.5]])
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 0
    for p in json.loads((tmp_path / "pipeline-report.json").read_text())["bracket"]["points"]:
        assert p["lower_reason"] is None
        assert p["mc_mean"] - p["mc_half_width"] <= p["lower"] <= p["mc_mean"]


def test_bracket_lower_is_the_estimate_less_its_half_width(tmp_path):
    """With one block (P = 1) z_P is the reports' z, and the half-width keeps its bytes."""
    assert main(_bracket_inputs(tmp_path, "t,x\n0.0,1.0\n0.5,1.5\n")) in (0, 4)
    for p in json.loads((tmp_path / "bracket.json").read_text())["points"]:
        assert p["lower"] == p["mc_mean"] - p["mc_half_width"] and p["lower_reason"] is None


def test_bracket_points_header_is_skipped(tmp_path):
    assert main(_bracket_inputs(tmp_path, "t,x\n0.0,1.0\n\n0.5,1.5\n")) in (0, 4)
    doc = json.loads((tmp_path / "bracket.json").read_text())
    assert [(p["t"], p["x"]) for p in doc["points"]] == [(0.0, [1.0]), (0.5, [1.5])]


@pytest.mark.parametrize("key", ["mc_paths", "mc_steps", "seed", "budget", "z", "tol", "n_starts", "steps",
                                 "time_nodes", "control_res", "dt", "start_box"])
def test_pipeline_non_numeric_key_exits_2_before_any_stage(tmp_path, monkeypatch, capsys, key):
    monkeypatch.setattr("hjbkit.cli._facelift", _raise(AssertionError("a stage ran")))
    spath = small_pipeline(tmp_path, **{key: "many"})
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and repr(key) in err
    assert not (tmp_path / "pipeline-report.json").exists()


def test_pipeline_absorption_lever_is_gone(tmp_path, capsys):
    spath = small_pipeline(tmp_path, absorb_at_truncation=True)
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 2
    assert "absorb_at_truncation" in capsys.readouterr().err
    assert not (tmp_path / "pipeline-report.json").exists()
    reports = []
    for name, changes in (("false", {"absorb_at_truncation": False}), ("absent", {})):
        spath = small_pipeline(tmp_path, mc_paths=500, budget=1000, **changes)
        assert main(["--out-dir", str(tmp_path / name), "pipeline", "--spec", spath]) in (0, 4)
        reports.append((tmp_path / name / "pipeline-report.json").read_bytes())
    assert reports[0] == reports[1]


def test_pipeline_simulates_on_the_state_domain(tmp_path):
    """Stage 3 is simulate_paths with no box: a path leaving the grid's box is not stopped."""
    spath = small_pipeline(tmp_path)
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) in (0, 4)
    mc = json.loads((tmp_path / "pipeline-report.json").read_text())["mc_estimate_at_first_point"]
    spec = json.loads(open(spath).read())
    problem = specio.problem_from_spec(MERTON_SPEC)
    grid = specio.grid_from_spec(spec["grid"])
    g = hk.GridFunction(grid, problem.payoff(grid.nodes()).reshape(grid.shape))
    config = hk.SchemeConfig(n_time_nodes=spec["time_nodes"], control_grid_resolution=spec["control_res"])
    policy = hk.extract_policy(hk.solve_hjb(problem, hk.concave_envelope(g), config))
    run = (problem, policy, 0.0, [1.0], spec["mc_paths"], spec["mc_steps"], spec["seed"])
    est = hk.estimate_value(hk.simulate_paths(*run), problem.payoff)
    assert (mc["mean"], mc["half_width_95"], mc["exit_fraction"]) == (est.mean, est.half_width_95, est.exit_fraction)
    assert mc["left_box_fraction"] > 0.0
    boxed = hk.simulate_paths(problem.within(grid.box), *run[1:])
    assert hk.estimate_value(boxed, problem.payoff).mean != mc["mean"]


NOT_NUMBERS = [
    ("simulate", "paths", None),
    ("simulate", "paths", 100.5),
    ("bracket", "seed", True),
    ("certify", "budget", "100"),
    ("convergence", "refinements", 2.5),
    ("simulate", "steps", "many"),
    ("simulate", "seed", None),
    ("simulate", "t0", None),
    ("simulate", "x0", 1.0),
    ("simulate", "x0", ["one"]),
    ("bracket", "paths", None),
    ("bracket", "steps", "many"),
    ("bracket", "seed", None),
    ("convergence", "refinements", None),
    ("certify", "seed", None),
    ("certify", "start_box", 5),
    ("certify", "start_box", [[1.0]]),
    ("simulate", "simulation_box", 5),
    ("oracle", "eval", 5),
    ("oracle", "eval", [0.0]),
]


@pytest.mark.parametrize("subcommand, key, value", NOT_NUMBERS, ids=[f"{s}-{k}-{v!r}" for s, k, v in NOT_NUMBERS])
def test_manifest_number_that_is_not_one_exits_2(tmp_path, capsys, subcommand, key, value):
    """Each number a subcommand reads from its config names its key when malformed."""
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    _bracket_inputs(tmp_path, "0.0,1.0\n")
    configs = {
        "simulate": {"problem": prob, "policy": write(tmp_path / "pol.json", {"kind": "constant", "value": [5.0]}),
                     "t0": 0.0, "x0": [1.0], "paths": 100, "steps": 4, "seed": 0, "out": "s.json"},
        "bracket": {"problem": prob, "sub": str(tmp_path / "sub-report.json"),
                    "super": str(tmp_path / "super-report.json"), "points": str(tmp_path / "points.csv"),
                    "paths": 100, "steps": 4, "seed": 0, "out": "b.json"},
        "convergence": {"problem": prob, "grid": write(tmp_path / "grid.json", {"box": [[0.5, 2.0]], "n": [9]}),
                        "refinements": 2, "time_nodes": 5, "control_res": 5, "out": "c.json", "seed": 0},
        "certify": {"problem": prob, "candidate": write(tmp_path / "cand.json", MERTON_SUB), "kind": "super",
                    "budget": 100, "seed": 0, "out": "r.json"},
        "oracle": {"family": "merton", "params": {}, "eval": [0.0, 1.0]},
    }
    mpath = write(tmp_path / "manifest.json", {"subcommand": subcommand,
                                               "config": dict(configs[subcommand], **{key: value})})
    assert main(["--out-dir", str(tmp_path / "out"), "--manifest", mpath]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and repr(key) in err
    assert not (tmp_path / "out" / "manifest.json").exists()


MALFORMED_MANIFESTS = {
    "list": (["x"], "manifest must be an object"),
    "config-list": ({"subcommand": "simulate", "config": ["x"]}, "'config'"),
    "config-missing": ({"subcommand": "simulate"}, "'config'"),
    "subcommand-list": ({"subcommand": ["x"], "config": {}}, "'subcommand'"),
    "subcommand-unknown": ({"subcommand": "simulat", "config": {}}, "'subcommand'"),
    "solve-without-grid": ({"subcommand": "solve", "config": {"problem": "prob.json"}}, "key 'grid' is missing"),
}


@pytest.mark.parametrize("name", list(MALFORMED_MANIFESTS))
def test_malformed_manifest_exits_2(tmp_path, capsys, name):
    doc, problem = MALFORMED_MANIFESTS[name]
    mpath = write(tmp_path / "manifest.json", doc)
    assert main(["--out-dir", str(tmp_path / "out"), "--manifest", mpath]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and problem in err
    assert "Traceback" not in err


def test_certify_report_roundtrips_through_its_dataclasses(tmp_path):
    """A written report loads through the bracket's reader and re-serializes to the same bytes."""
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    cand = write(tmp_path / "cand.json", dict(MERTON_SUB, side="super",
                                              params=dict(MERTON_SUB["params"], exponent_shift=0.05)))
    assert main(["--out-dir", str(tmp_path), "certify", "--problem", prob, "--candidate", cand,
                 "--budget", "3000", "--start-box", "0.5,2.0"]) in (0, 4)
    path = tmp_path / "report.json"
    raw = path.read_text()
    doc = json.loads(raw)
    _, report = _load_report(str(path))
    assert report.adversary_class.startswith("corner") and len(report.records) == len(doc["records"])
    assert json.dumps(_report_to_json(report, doc["candidate"]), indent=2, sort_keys=True) + "\n" == raw

    del doc["adversary_class"]
    doc["note"] = "ignored"
    doc["records"][0]["note"] = "ignored"
    write(path, doc)
    _, older = _load_report(str(path))
    assert older.adversary_class == ""
    assert older.records == report.records


@pytest.mark.parametrize("defect", ["list", "no-records", "record-without-tau", "sub-on-both", "super-on-both"])
def test_bracket_malformed_certify_report_exits_2(tmp_path, capsys, defect):
    argv = _bracket_inputs(tmp_path, "0.0,1.0\n")
    path = tmp_path / "super-report.json"
    doc = json.loads(path.read_text())
    problem = "malformed certify report document"
    if defect == "list":
        doc = ["x"]
    elif defect == "no-records":
        del doc["records"]
    elif defect == "record-without-tau":
        doc["records"] = [{"kind": "martingale", "rho": "terminal", "start": [1.0], "adversary": "corner",
                           "margin": 0.0, "stderr": 0.0, "n_paths": 10, "passed": True}]
    else:
        # one report on both flags: a sub pair passed with gap 0, a super pair died with a TypeError
        side, other = defect.split("-")[0], "super" if defect.startswith("sub") else "sub"
        argv[argv.index(f"--{other}") + 1] = argv[argv.index(f"--{side}") + 1]
        problem = f"the {other} side needs a {other} candidate and report"
    write(path, doc)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and problem in err
    assert not (tmp_path / "bracket.json").exists() and not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--dt", "0", "dt"), ("--dt", "-0.5", "dt"), ("--control-res", "0", "control_grid_resolution"),
])
def test_solve_out_of_range_scheme_number_exits_2(tmp_path, capsys, flag, value, field):
    """--dt 0 used to die with an OverflowError and --control-res 0 with an empty argmax."""
    prob = write(tmp_path / "prob.json", KINK_SPEC)
    grid = write(tmp_path / "grid.json", {"box": [[0.0, 2.0]], "n": [31]})
    assert main(["--out-dir", str(tmp_path), "solve", "--problem", prob, "--grid", grid, flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and field in err
    assert not (tmp_path / "solution.csv").exists()


@pytest.mark.parametrize("key, value, field", [
    ("dt", 0, "dt"), ("dt", -0.5, "dt"), ("control_res", 0, "control_grid_resolution"),
    ("budget", 0, "budget"), ("n_starts", 0, "n_starts"), ("steps", 0, "steps_per_record"),
    ("mc_paths", 0, "n_paths"), ("mc_paths", -5, "n_paths"), ("mc_paths", 1, "n_paths"), ("mc_steps", 0, "n_steps"),
    ("z", -1, "z must be finite and at least 0"), ("tol", math.inf, "tol must be finite and at least 0"),
])
def test_pipeline_out_of_range_number_exits_2_before_any_stage(tmp_path, monkeypatch, capsys, key, value, field):
    monkeypatch.setattr("hjbkit.cli._facelift", _raise(AssertionError("a stage ran")))
    spath = small_pipeline(tmp_path, **{key: value})
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and field in err
    assert not (tmp_path / "pipeline-report.json").exists()


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_certify_budget_below_one_exits_2(tmp_path, capsys, budget):
    """--budget 0 used to certify on 16 paths a record and exit 0."""
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    cand = write(tmp_path / "cand.json", MERTON_SUB)
    assert main(["--out-dir", str(tmp_path), "certify", "--problem", prob, "--candidate", cand,
                 "--budget", budget, "--start-box", "0.5,2.0"]) == 2
    assert "budget" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("key, field", [("n_starts", "n_starts"), ("steps", "steps_per_record"), ("budget", "budget")])
def test_certify_manifest_count_below_one_exits_2(tmp_path, capsys, key, field):
    """A manifest with "n_starts": 0 used to die with a ZeroDivisionError."""
    config = {"problem": write(tmp_path / "prob.json", MERTON_SPEC),
              "candidate": write(tmp_path / "cand.json", MERTON_SUB), "kind": "sub",
              "budget": 1000, "seed": 0, "out": "r.json", key: 0}
    mpath = write(tmp_path / "manifest.json", {"subcommand": "certify", "config": config})
    assert main(["--out-dir", str(tmp_path / "out"), "--manifest", mpath]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and field in err
    assert not (tmp_path / "out" / "r.json").exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_simulate_non_finite_control_exits_2(tmp_path, capsys, value):
    """A NaN control once passed the bound check, froze every path at step 0 and
    reported mean 1.0 with exit 0."""
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    pol = tmp_path / "pol.json"
    pol.write_text(f'{{"kind": "constant", "value": [{value}]}}')
    assert main(["--out-dir", str(tmp_path), "simulate", "--problem", prob, "--policy", str(pol),
                 "--x0", "1.0", "--paths", "100", "--steps", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "not finite or outside the admissible control box" in err
    assert not (tmp_path / "ensemble-summary.json").exists()


# x^-0.5 on the whole line: a path that ends at x <= 0 has an infinite payoff
POLE_SPEC = dict(KINK_SPEC, params={"mu": 0.1, "sigma": 0.2}, payoff={"family": "power", "params": {"p": -0.5}})


def test_simulate_non_finite_payoff_exits_3(tmp_path, capsys):
    """The payoff was infinite at 460 of 2000 paths, and simulate exited 0
    writing "mean": Infinity, "half_width_95": NaN, which is not JSON."""
    prob = write(tmp_path / "prob.json", POLE_SPEC)
    pol = write(tmp_path / "pol.json", {"kind": "constant", "value": [1.0]})
    assert main(["--seed", "3", "--out-dir", str(tmp_path), "simulate", "--problem", prob, "--policy", pol,
                 "--x0", "0.05", "--paths", "2000", "--steps", "50"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: the payoff is not finite at 473 of 2000 terminal states, e.g. at x = [-")
    assert not (tmp_path / "ensemble-summary.json").exists()
    assert not (tmp_path / "manifest.json").exists()


def test_a_payoff_pole_prints_no_warning(tmp_path, capsys):
    """The run above printed numpy's "RuntimeWarning: divide by zero encountered
    in power" on stderr before its numerical error line; x^-0.5 is inf at 0
    without it."""
    prob = write(tmp_path / "prob.json", POLE_SPEC)
    pol = write(tmp_path / "pol.json", {"kind": "constant", "value": [1.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--seed", "3", "--out-dir", str(tmp_path), "simulate", "--problem", prob, "--policy", pol,
                     "--x0", "0.05", "--paths", "2000", "--steps", "50"]) == 3
    assert capsys.readouterr().err.count("\n") == 1
    payoff = specio.problem_from_spec(POLE_SPEC).payoff
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert payoff(np.array([[0.0], [-1.0], [4.0]])).tolist() == [math.inf, math.inf, 0.5]


@pytest.mark.parametrize("points, stage, ok", [
    ([[0.0, 0.3]], "simulate", ["facelift", "solve"]),
    ([[0.0, 5.0], [0.0, 0.3]], "bracket", ["facelift", "solve", "simulate", "certify"]),
])
def test_pipeline_non_finite_payoff_fails_the_stage_that_estimates_it(tmp_path, capsys, points, stage, ok):
    """The payoff is finite on the grid, so the face-lift and the solve run, and
    on the start box, so both constant candidates certify; paths from x = 0.3
    end below zero, where it is not.  Point 0 is estimated in the simulate
    stage, every later point in the bracket stage."""
    constant = {"kind": "constant", "growth_constant": 1.0}
    sub = dict(constant, side="sub", value=0.0, policy={"kind": "constant", "value": [1.0]})
    spath = small_pipeline(tmp_path, problem=POLE_SPEC, points=points, start_box=[[3.0, 4.5]], sub_candidate=sub,
                           super_candidate=dict(constant, side="super", value=10.0))
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 3
    stages = json.loads((tmp_path / "pipeline-report.json").read_text())["stages"]
    assert stages.pop(stage).startswith("failed: the payoff is not finite at ")
    assert stages == dict.fromkeys(ok, "ok")


def test_simulate_start_with_the_wrong_coordinate_count_exits_2(tmp_path, monkeypatch, capsys):
    """--x0 1.0 2.0 on a 1-D problem used to die in a numpy broadcast."""
    monkeypatch.setattr("hjbkit.simulate._euler", _raise(AssertionError("a path was stepped")))
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    pol = write(tmp_path / "pol.json", {"kind": "constant", "value": [5.0]})
    assert main(["--out-dir", str(tmp_path), "simulate", "--problem", prob, "--policy", pol,
                 "--x0", "1.0", "2.0", "--paths", "100", "--steps", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "2 coordinates; the problem has 1" in err
    assert not (tmp_path / "ensemble-summary.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["--t0=-1"], "t0 must lie in [0, 1.0), not -1.0"),
    (["--paths", "0"], "n_paths must be >= 1, not 0"),
])
def test_simulate_start_time_or_path_count_out_of_range_exits_2(tmp_path, monkeypatch, capsys, argv, message):
    """--t0=-1 used to simulate a two-year horizon and exit 0, and --paths 0
    exited 2 with a numpy message that named no key."""
    monkeypatch.setattr("hjbkit.simulate._euler", _raise(AssertionError("a path was stepped")))
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    pol = write(tmp_path / "pol.json", {"kind": "constant", "value": [5.0]})
    assert main(["--out-dir", str(tmp_path), "simulate", "--problem", prob, "--policy", pol,
                 "--x0", "1.0", "--steps", "4", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert not (tmp_path / "ensemble-summary.json").exists()


def test_simulate_one_path_exits_2_naming_the_path_count(tmp_path, capsys):
    """--paths 1 wrote "half_width_95": 0.0, an estimate with no error bar, and exited 0.
    Paths now come in antithetic pairs: an odd count is refused, and so is one
    pair, which has no standard error."""
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    pol = write(tmp_path / "pol.json", {"kind": "constant", "value": [5.0]})
    for paths, message in (("1", "n_paths must be even, since paths are drawn in antithetic pairs, not 1"),
                           ("2", "a value estimate needs at least 2 antithetic pairs (4 paths) for its standard "
                                 "error, not 2 paths")):
        assert main(["--out-dir", str(tmp_path), "simulate", "--problem", prob, "--policy", pol,
                     "--x0", "1.0", "--steps", "4", "--paths", paths]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (tmp_path / "ensemble-summary.json").exists()
        assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["--z", "inf"], "z must be finite and at least 0, not inf"),
    (["--z=-1"], "z must be finite and at least 0, not -1.0"),
])
def test_certify_z_out_of_range_exits_2(tmp_path, monkeypatch, capsys, argv, message):
    """With --z inf a super candidate 0.5 below the exponent, which --z 4 finds
    NOT certified (exit 4), printed "certified" and exited 0."""
    for battery in ("certify_subsolution", "certify_supersolution"):
        monkeypatch.setattr(f"hjbkit.cli.{battery}", _raise(AssertionError("the battery ran")))
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    cand = write(tmp_path / "cand.json", dict(MERTON_SUB, side="super",
                                              params=dict(MERTON_SUB["params"], exponent_shift=-0.5)))
    assert main(["--out-dir", str(tmp_path), "certify", "--problem", prob, "--candidate", cand,
                 "--budget", "2000", "--start-box", "0.5,2.0", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert not (tmp_path / "report.json").exists()


def test_certify_manifest_with_an_infinite_tol_exits_2(tmp_path, monkeypatch, capsys):
    for battery in ("certify_subsolution", "certify_supersolution"):
        monkeypatch.setattr(f"hjbkit.cli.{battery}", _raise(AssertionError("the battery ran")))
    config = {"problem": write(tmp_path / "prob.json", MERTON_SPEC),
              "candidate": write(tmp_path / "cand.json", MERTON_SUB), "kind": "sub",
              "budget": 1000, "seed": 0, "out": "r.json", "tol": math.inf}
    mpath = write(tmp_path / "manifest.json", {"subcommand": "certify", "config": config})
    assert '"tol": Infinity' in (tmp_path / "manifest.json").read_text()
    assert main(["--out-dir", str(tmp_path / "out"), "--manifest", mpath]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "tol must be finite and at least 0, not inf" in err
    assert not (tmp_path / "out" / "r.json").exists()



@pytest.mark.parametrize("growth, code", [(1.0, 4), (math.inf, 2), (math.nan, 2), (-1.0, 2)],
                         ids=["one", "infinite", "nan", "negative"])
def test_certify_growth_constant_must_be_finite_and_at_least_0(tmp_path, monkeypatch, capsys, growth, code):
    """The constant super candidate 10 fails its growth record at growth constant
    1.0 (margin -9.29), and an infinite growth constant made that margin inf:
    certified, exit 0."""
    if code == 2:
        for battery in ("certify_subsolution", "certify_supersolution"):
            monkeypatch.setattr(f"hjbkit.cli.{battery}", _raise(AssertionError("the battery ran")))
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    cand = write(tmp_path / "cand.json", {"kind": "constant", "side": "super", "value": 10.0,
                                          "growth_constant": growth})
    assert main(["--out-dir", str(tmp_path), "certify", "--problem", prob, "--candidate", cand,
                 "--budget", "2000", "--start-box", "0.5,2"]) == code
    if code == 4:
        report = json.loads((tmp_path / "report.json").read_text())
        assert [r["margin"] for r in report["records"] if r["kind"] == "growth"] == [pytest.approx(-9.29, abs=5e-3)]
    else:
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert f"growth_constant must be finite and at least 0, not {growth!r}" in err
        assert not (tmp_path / "report.json").exists()


HEAT_2D_SPEC = {
    "family": "constant",
    "params": {"b0": [0.0, 0.0], "s0": [[1.0, 0.0], [0.0, 1.0]]},
    "control_bound": 0.0,
    "state_domain": [[None, None], [None, None]],
    "horizon": 0.5,
    "payoff": {"family": "abs", "params": {"center": 0.0}},
    "gauge": {"family": "one_plus_square", "constant": 2.0},
    "constraint": {"family": "neg_trace"},
}


@pytest.mark.parametrize("subcommand, spaced, other", [
    ("certify", ["--start-box", "-0.5,0.5;-0.5,0.5"], ["--start-box=-0.5,0.5;-0.5,0.5"]),
    ("simulate", ["--x0", "-1e-1", "2e-1"], ["--x0", "-0.1", "0.2"]),
], ids=["start-box", "x0"])
def test_spaced_negative_values_parse_like_the_other_form(tmp_path, capsys, subcommand, spaced, other):
    """A spaced value that starts with "-" and is not a plain number once exited 2
    with argparse's "expected one argument"; both forms now write the same bytes."""
    prob = write(tmp_path / "heat2d.json", HEAT_2D_SPEC)
    if subcommand == "certify":
        doc = {"kind": "constant", "value": -1.0, "side": "sub", "growth_constant": 1.0}
        argv, artifact = ["--candidate", write(tmp_path / "cand.json", doc), "--budget", "3000"], "report.json"
    else:
        pol = write(tmp_path / "pol.json", {"kind": "constant", "value": [0.0]})
        argv, artifact = ["--policy", pol, "--paths", "2000", "--steps", "8"], "ensemble-summary.json"
    written = []
    for form, flags in (("spaced", spaced), ("other", other)):
        assert main(["--out-dir", str(tmp_path / form), subcommand, "--problem", prob, *argv, *flags]) == 0
        manifest = json.loads((tmp_path / form / "manifest.json").read_text())
        written.append(((tmp_path / form / artifact).read_bytes(), manifest["config"]))
    assert written[0] == written[1]


def test_certify_start_box_of_another_dimension_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("hjbkit.cli.certify_subsolution", _raise(AssertionError("a battery ran")))
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    cand = write(tmp_path / "cand.json", MERTON_SUB)
    assert main(["--out-dir", str(tmp_path), "certify", "--problem", prob, "--candidate", cand,
                 "--budget", "1000", "--start-box", "0.5,2.0;0.5,2.0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "start_box" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("box", ["0.5,inf", "-0.2,2"], ids=["infinite-edge", "leaves-the-domain"])
def test_certify_start_box_with_an_infinite_edge_or_outside_the_domain_exits_2(tmp_path, no_stage, capsys, box):
    """--start-box 0.5,inf died in Generator.uniform with an OverflowError, and
    --start-box=-0.2,2 certified or exited 2 on a start outside (0, inf), by seed."""
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    cand = write(tmp_path / "cand.json", dict(MERTON_SUB, side="super"))
    assert main(["--out-dir", str(tmp_path), "certify", "--problem", prob, "--candidate", cand,
                 "--budget", "500", f"--start-box={box}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: start_box") and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("box", [[[0.5, None]], [[-0.2, 2.0]]], ids=["infinite-edge", "leaves-the-domain"])
def test_pipeline_start_box_with_an_infinite_edge_or_outside_the_domain_exits_2_before_any_stage(
        tmp_path, no_stage, capsys, box):
    """A spec's "start_box": [[0.5, null]] died in Generator.uniform after the face-lift, solve and simulate stages."""
    spath = small_pipeline(tmp_path, start_box=box)
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 2
    assert capsys.readouterr().err.startswith("configuration error: start_box")
    assert not (tmp_path / "pipeline-report.json").exists()


@pytest.mark.parametrize("domain, box", [
    ([0.0, None], [0.25, 0.75]), ([None, None], [-0.5, 0.5]), ([-5.0, None], [-3.5, -0.5]),
    ([5.0, None], [5.5, 6.5]), ([1.0, None], [1.5, 2.5]), ([None, -1.0], [-2.5, -1.5]), ([None, -5.0], [-6.5, -5.5]),
], ids=["zero-up", "line", "minus-five-up", "five-up", "one-up", "down-to-minus-one", "down-to-minus-five"])
def test_certify_default_start_box_lies_inside_the_domain(tmp_path, monkeypatch, domain, box):
    """With no start box, a half-line from 5 up exited 2 on the inverted box
    [5, 1] -> [4, 2], and one from 1 up gave the box [1, 1] on its edge; the
    boxes that were valid keep their bytes."""
    seen = []

    def battery(candidate, problem, config):
        seen.append(config.start_box)
        return hk.CertificationReport(candidate.name, candidate.kind, (), config.z, config.tol, config.budget, 0)

    monkeypatch.setattr("hjbkit.cli.certify_supersolution", battery)
    prob = write(tmp_path / "prob.json", dict(KINK_SPEC, state_domain=[domain]))
    cand = write(tmp_path / "cand.json", {"kind": "constant", "side": "super", "value": 1.0, "growth_constant": 1.0})
    assert main(["--out-dir", str(tmp_path), "certify", "--problem", prob, "--candidate", cand]) == 0
    assert [(list(b.lo), list(b.hi)) for b in seen] == [([box[0]], [box[1]])]


NAN_MU = dict(MERTON_SPEC, params={"mu": math.nan, "sigma": 0.2})
INFINITE_SIGMA = dict(MERTON_SPEC, params={"mu": 0.1, "sigma": math.inf})
NAN_GAUGE = dict(MERTON_SPEC, gauge={"family": "power", "params": {"p": math.nan}})
NAN_CONSTANT = {"kind": "constant", "side": "super", "value": math.nan, "growth_constant": 1.0}


@pytest.mark.parametrize("subcommand, problem, candidate, key", [
    ("simulate", NAN_MU, None, "mu"),
    ("simulate", INFINITE_SIGMA, None, "sigma"),
    ("certify", MERTON_SPEC, NAN_CONSTANT, "value"),
    ("certify", NAN_GAUGE, dict(MERTON_SUB, side="super"), "p"),
], ids=["mu-nan", "sigma-infinity", "constant-value-nan", "gauge-p-nan"])
def test_a_document_parameter_that_is_not_finite_exits_2_naming_its_key(
        tmp_path, no_stage, capsys, subcommand, problem, candidate, key):
    """JSON NaN and Infinity read as numbers: "mu": NaN simulated, printed
    "value estimate 1.0 +- 0.0" and exited 0, and a NaN constant candidate or
    gauge exponent exited 4 with nan margins."""
    argv = ["--out-dir", str(tmp_path), subcommand, "--problem", write(tmp_path / "prob.json", problem)]
    if subcommand == "simulate":
        argv += ["--policy", write(tmp_path / "pol.json", {"kind": "constant", "value": [5.0]}),
                 "--x0", "1.0", "--paths", "100", "--steps", "10"]
    else:
        argv += ["--candidate", write(tmp_path / "cand.json", candidate), "--budget", "500", "--start-box", "0.5,2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: key {key!r}:") and "not a finite number" in err
    assert not (tmp_path / "manifest.json").exists()


def simulate_argv(tmp_path, problem):
    return ["--out-dir", str(tmp_path), "simulate", "--problem", write(tmp_path / "prob.json", problem),
            "--policy", write(tmp_path / "pol.json", {"kind": "constant", "value": [0.0]}),
            "--x0", "1.0", "--paths", "100", "--steps", "10"]


@pytest.mark.parametrize("key, value", [
    ("horizon", math.nan), ("horizon", math.inf), ("horizon", 0.0), ("horizon", -1.0),
    ("control_bound", math.nan), ("control_bound", math.inf), ("control_bound", -1.0),
], ids=["horizon-nan", "horizon-infinity", "horizon-zero", "horizon-negative",
        "control-bound-nan", "control-bound-infinity", "control-bound-negative"])
def test_a_horizon_or_control_bound_out_of_range_exits_2_naming_its_key(tmp_path, no_stage, capsys, key, value):
    """Each exited 2 with the repr of a ValueError from the problem builder and no key name."""
    assert main(simulate_argv(tmp_path, dict(MERTON_SPEC, **{key: value}))) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: key {key!r}: {value!r} does not parse (")
    assert not (tmp_path / "manifest.json").exists()


def test_a_zero_control_bound_is_in_range(tmp_path, capsys):
    """The controls are then {0}, and the constant policy 0 simulates."""
    assert main(simulate_argv(tmp_path, dict(MERTON_SPEC, control_bound=0.0))) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("family, flags, key", [
    ("merton", ["--params", "mu=nan"], "mu"),
    ("merton", ["--params", "sigma=inf"], "sigma"),
    ("heat", ["--params", "sigma=nan"], "sigma"),
    ("merton", [], "eval"),
], ids=["merton-mu-nan", "merton-sigma-inf", "heat-sigma-nan", "eval-inf"])
def test_oracle_parameter_or_point_that_is_not_finite_exits_2_naming_it(capsys, family, flags, key):
    """Each printed nan or inf and exited 0."""
    point = "0,inf" if key == "eval" else "0,1"
    assert main(["oracle", "--family", family, "--eval", point, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"configuration error: key {key!r}:") and captured.out == ""


class _StageStarted(Exception):
    pass


# any 0-3 floats, or a point inside the Merton problem's time interval and domain
pipeline_points = st.lists(
    st.lists(st.floats() | st.sampled_from([0.0, 0.5, 1.0, -0.5]), max_size=3)
    | st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.1, 10.0)).map(list),
    max_size=3,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pipeline_points)
def test_pipeline_points_exit_2_or_run(tmp_path, monkeypatch, capsys, points):
    """Any list of 0-3 floats per point, NaN and inf included: the pipeline either
    refuses the spec with exit 2 before any stage or starts its first stage."""
    monkeypatch.setattr("hjbkit.cli._facelift", _raise(_StageStarted()))
    spath = small_pipeline(tmp_path, points=points)
    valid = bool(points) and all(
        len(p) == 2 and 0.0 <= p[0] < 1.0 and 0.0 < p[1] < math.inf for p in points)
    event("valid points" if valid else "refused points")
    try:
        rc = main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath])
    except _StageStarted:
        assert valid
    else:
        assert rc == 2 and not valid
        assert capsys.readouterr().err.startswith("configuration error:")


# the long-only Merton problem: the proportion at risk lies in [0, 1]
LONG_ONLY_SPEC = dict(MERTON_SPEC, control_set=[[[0.0, 1.0]]])


def test_certify_companion_outside_the_admissible_box_exits_2(tmp_path, capsys):
    """The unconstrained value sits 8.3% above the long-only value, and its
    companion u = 5 once certified it as a sub-solution."""
    prob = write(tmp_path / "prob.json", LONG_ONLY_SPEC)
    cand = write(tmp_path / "cand.json", MERTON_SUB)
    assert main(["--out-dir", str(tmp_path), "certify", "--problem", prob, "--candidate", cand,
                 "--budget", "100000", "--start-box", "0.5,2.0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "outside the admissible control box [[0.0, 1.0]]" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exact_long_only_super_candidate_is_certified(tmp_path, capsys, seed):
    """Staircases drawn from [-10, 10] rejected the exact long-only value on
    seeds 2 and 3; the adversaries now stay in [0, 1]."""
    prob = write(tmp_path / "prob.json", LONG_ONLY_SPEC)
    cand = write(tmp_path / "cand.json", dict(MERTON_SUB, side="super", params=dict(MERTON_SUB["params"], B=1.0)))
    assert main(["--seed", str(seed), "--out-dir", str(tmp_path), "certify", "--problem", prob,
                 "--candidate", cand, "--budget", "100000", "--start-box", "0.5,2.0"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["certified"] and report["adversary_class"].startswith("corner [0.0], corner [1.0], ")


def test_pipeline_inadmissible_companion_fails_the_simulate_stage(tmp_path, capsys):
    spath = small_pipeline(tmp_path, problem=LONG_ONLY_SPEC)
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 2
    stages = json.loads((tmp_path / "pipeline-report.json").read_text())["stages"]
    assert stages == {
        "facelift": "ok", "solve": "ok",
        "simulate": "failed: policy value is not finite or outside the admissible control box [[0.0, 1.0]] at step 0",
    }


def test_policy_without_a_value_exits_2_naming_the_width(tmp_path, capsys):
    """The deleted FeedbackPolicy.bound failed here in a numpy reduction over no values."""
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    pol = write(tmp_path / "pol.json", {"kind": "constant", "value": []})
    assert main(["--out-dir", str(tmp_path), "simulate", "--problem", prob, "--policy", pol,
                 "--x0", "1.0", "--paths", "100", "--steps", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "policy rows are 0 wide at step 0; the problem has 1" in err
    assert not (tmp_path / "ensemble-summary.json").exists()


@pytest.mark.parametrize("control_set, message", [
    ([[[0.0, 1.0]], [[2.0, 3.0]]], "control_set must hold one box, not 2"),
    ([[]], "control_set [] has no control within the bound 10.0"),
    ([[[20.0, 30.0]]], "control_set [[20.0, 30.0]] has no control within the bound 10.0"),
    ([[[None, None], [-1, 1]]], "control_set [[-inf, inf], [-1.0, 1.0]] is 2-dimensional; "
                                "the linear_drift family reads 1 control"),
], ids=["two-boxes", "0-dimensional", "outside-the-bound", "unread-axis"])
def test_problem_document_without_one_admissible_box_exits_2(tmp_path, monkeypatch, capsys, control_set, message):
    """Two boxes ran with exit 0; the next two failed only once a solve ran.  A
    second axis, which linear_drift never reads, solved over 41^2 controls
    instead of 41 and gave the extracted policy a column of -1."""
    monkeypatch.setattr("hjbkit.cli.solve_hjb", _raise(AssertionError("a solve ran")))
    prob = write(tmp_path / "prob.json", dict(MERTON_SPEC, control_set=control_set))
    grid = write(tmp_path / "grid.json", {"box": [[0.2, 5.0]], "n": [30], "spacing": "log"})
    assert main(["--out-dir", str(tmp_path), "solve", "--problem", prob, "--grid", grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err


# [120, 7] once built 120 log-spaced nodes, and [] exited with an IndexError that named no key
NOT_NODE_COUNTS = [[30.5], 1.5, True, "30", [True], [120, 7], []]


@pytest.mark.parametrize("n", NOT_NODE_COUNTS, ids=repr)
@pytest.mark.parametrize("spacing", ["uniform", "log"])
def test_solve_grid_node_count_that_is_not_an_integer_exits_2(tmp_path, monkeypatch, capsys, n, spacing):
    """np.asarray(n, int) solved "n": [30.5] on 30 nodes with exit 0."""
    monkeypatch.setattr("hjbkit.cli.solve_hjb", _raise(AssertionError("a solve ran")))
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    grid = write(tmp_path / "grid.json", {"box": [[0.2, 5.0]], "n": n, "spacing": spacing})
    assert main(["--out-dir", str(tmp_path), "solve", "--problem", prob, "--grid", grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: grid key 'n': {n!r} is not a node count")
    assert not (tmp_path / "solution.csv").exists()


@pytest.mark.parametrize("n", NOT_NODE_COUNTS, ids=repr)
def test_pipeline_grid_node_count_that_is_not_an_integer_exits_2_before_any_stage(tmp_path, monkeypatch, capsys, n):
    monkeypatch.setattr("hjbkit.cli._facelift", _raise(AssertionError("a stage ran")))
    spath = small_pipeline(tmp_path, grid={"box": [[0.2, 5.0]], "n": n, "spacing": "log"})
    assert main(["--out-dir", str(tmp_path), "pipeline", "--spec", spath]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: grid key 'n': {n!r} is not a node count")
    assert not (tmp_path / "pipeline-report.json").exists()


def test_grid_node_counts_take_integral_floats(tmp_path):
    grid = specio.grid_from_spec({"box": [[0.2, 5.0], [0.0, 1.0]], "n": [30.0, 7], "spacing": "uniform"})
    assert grid.shape == (30, 7)


@pytest.mark.parametrize("subcommand, argv, key, value", [
    ("solve", ["--terminal", "raw"], "terminal", "face-lift"),
    ("solve", [], "mode", "projected"),
    ("convergence", [], "mode", "projected"),
    ("convergence", [], "refine", "spaces"),
], ids=["solve-terminal", "solve-mode", "convergence-mode", "convergence-refine"])
def test_manifest_value_outside_its_choices_exits_2_before_any_stage(tmp_path, monkeypatch, capsys,
                                                                     subcommand, argv, key, value):
    """A solve manifest with "terminal": "face-lift" once solved the raw payoff
    |x - 1| with exit 0, byte-equal to --terminal raw; a value outside the
    choices of its flag is refused."""
    prob = write(tmp_path / "prob.json", KINK_SPEC)
    grid = write(tmp_path / "grid.json", {"box": [[0.0, 2.0]], "n": [9]})
    assert main(["--out-dir", str(tmp_path), subcommand, "--problem", prob, "--grid", grid,
                 "--time-nodes", "5", "--control-res", "5", *argv]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["config"][key] = value
    mpath = write(tmp_path / "edited-manifest.json", manifest)
    for stage in ("_facelift", "solve_hjb", "convergence_study"):
        monkeypatch.setattr(f"hjbkit.cli.{stage}", _raise(AssertionError("a stage ran")))
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path / "replay"), "--manifest", mpath]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: key {key!r}: {value!r}") and "Traceback" not in err
    assert not (tmp_path / "replay").exists()


@pytest.mark.parametrize("key, value", [("kind", "both"), ("kind", 1)])
def test_certify_manifest_value_outside_its_type_exits_2(tmp_path, monkeypatch, capsys, key, value):
    for battery in ("certify_subsolution", "certify_supersolution"):
        monkeypatch.setattr(f"hjbkit.cli.{battery}", _raise(AssertionError("the battery ran")))
    config = {"problem": write(tmp_path / "prob.json", MERTON_SPEC),
              "candidate": write(tmp_path / "cand.json", MERTON_SUB), key: value}
    mpath = write(tmp_path / "manifest.json", {"subcommand": "certify", "config": config})
    assert main(["--out-dir", str(tmp_path / "out"), "--manifest", mpath]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: key {key!r}: ")
    assert not (tmp_path / "out").exists()


def minimal_runs(d):
    """subcommand -> (its required flags, the manifest config of the same required keys), on small inputs."""
    prob = write(d / "prob.json", MERTON_SPEC)
    grid = write(d / "grid.json", {"box": [[0.5, 2.0]], "n": [9]})
    pol = write(d / "pol.json", {"kind": "constant", "value": [5.0]})
    cand = write(d / "cand.json", MERTON_SUB)
    bracket = _bracket_inputs(d, "t,x\n0.0,1.0\n")
    sub, sup, points = (bracket[bracket.index(flag) + 1] for flag in ("--sub", "--super", "--points"))
    spec = small_pipeline(d)
    paths = {"problem": prob, "grid": grid}
    return {
        "oracle": (["--family", "merton", "--eval", "0,1"], {"family": "merton", "eval": [0.0, 1.0]}),
        "facelift": (["--problem", prob, "--grid", grid], paths),
        "solve": (["--problem", prob, "--grid", grid], paths),
        "simulate": (["--problem", prob, "--policy", pol, "--x0", "1.0"],
                     {"problem": prob, "policy": pol, "x0": [1.0]}),
        "certify": (["--problem", prob, "--candidate", cand], {"problem": prob, "candidate": cand}),
        "bracket": (["--problem", prob, "--sub", sub, "--super", sup, "--points", points],
                    {"problem": prob, "sub": sub, "super": sup, "points": points}),
        "convergence": (["--problem", prob, "--grid", grid], paths),
        "pipeline": (["--spec", spec], {"spec": spec}),
    }


@pytest.mark.parametrize("subcommand", list(cli._HANDLERS))
def test_minimal_manifest_writes_what_the_flags_write_with_their_defaults(tmp_path, capsys, subcommand):
    """A hand-written convergence manifest without time_nodes and control_res
    once solved on 101 time nodes and 41 controls, its flags on 33 and 11; and
    a manifest without "out" exited 2."""
    argv, config = minimal_runs(tmp_path)[subcommand]
    mpath = write(tmp_path / "minimal.json", {"subcommand": subcommand, "config": config})
    runs = []
    for name, args in (("flags", [subcommand, *argv]), ("manifest", ["--manifest", mpath])):
        out_dir = tmp_path / name
        rc = main(["--out-dir", str(out_dir), *args])
        printed = capsys.readouterr().out.replace(str(out_dir), "")
        manifest = json.loads((out_dir / "manifest.json").read_text())
        del manifest["config"]
        artifacts = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.name != "manifest.json"}
        runs.append((rc, printed, manifest, artifacts))
    assert runs[0] == runs[1]
    assert runs[0][0] in (0, 4)


def test_every_document_key_has_one_row():
    """A (document, key) pair listed twice would silently take the later row."""
    listed = sum(len(row.flags.split()) + len(row.documents.split()) for row in cli._KEYS)
    assert listed == sum(map(len, cli._TABLE.values()))
    assert set(cli._TABLE) == {*cli._HANDLERS, cli._SPEC}


# values of another type than a row's parser takes; None is added where the default is not None
WRONG_TYPE = {
    grids.integer: [1.5, True, "7", [1]],
    grids.number: ["many", [1.0], {}, True, "0.5"],
    os.fspath: [5, True, ["a"], {}],
    cli._floats: [1.0, ["one"], [], "1.0"],
    dict: [5, "ab", [1, 2]],
    cli._optional_box: [5, "a", [[1.0]], [[2.0, 1.0]], [[0.0, 1.0, 2.0]]],
}
NOT_A_CHOICE = ["face-lift", "bogus", "false", 1, 0, 2.5, [], {}]
TYPED_KEYS = [(document, key) for document, rows in cli._TABLE.items() for key, (row, _) in rows.items()
              if row.parse is not cli._as_is]


def wrong_values(key, row):
    if isinstance(row.parse, cli._Choice):
        values = [v for v in NOT_A_CHOICE if not any(type(v) is type(o) and v == o for o in row.parse)]
    else:
        values = [[0.0], [0.0, 1.0, 2.0], 5] if key == "eval" else WRONG_TYPE[row.parse]
    return values if row.default is None else [*values, None]


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A valid manifest config of each subcommand and a valid pipeline spec, with their files."""
    d = tmp_path_factory.mktemp("documents")
    configs = {subcommand: config for subcommand, (_, config) in minimal_runs(d).items()}
    return d, configs, json.loads((d / "pipeline.json").read_text())


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_document_value_of_the_wrong_type_exits_2_naming_its_key(tmp_path, monkeypatch, capsys, documents, data):
    """Any (document, key) of the key table with a value its parser refuses:
    exit 2 naming the key before any stage runs, and no traceback."""
    document, key = data.draw(st.sampled_from(TYPED_KEYS))
    value = data.draw(st.sampled_from(wrong_values(key, cli._TABLE[document][key][0])))
    event(document)
    for stage in ("_facelift", "solve_hjb", "simulate_paths", "certify_subsolution", "certify_supersolution",
                  "bracket_report", "convergence_study"):
        monkeypatch.setattr(f"hjbkit.cli.{stage}", _raise(AssertionError("a stage ran")))
    for family, (_, names) in list(cli._ORACLES.items()):
        monkeypatch.setitem(cli._ORACLES, family, (_raise(AssertionError("a stage ran")), names))
    d, configs, spec = documents
    if document == cli._SPEC:
        argv = ["pipeline", "--spec", write(d / "wrong-spec.json", dict(spec, **{key: value}))]
    else:
        config = dict(configs[document], **{key: value})
        argv = ["--manifest", write(tmp_path / "manifest.json", {"subcommand": document, "config": config})]
    out = tmp_path / "out"
    rc = main(["--out-dir", str(out), *argv])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("configuration error:") and repr(key) in err and "Traceback" not in err
    assert not out.exists()


def test_readme_settings_table_lists_every_key():
    """The backticked names in the first column of the README's settings table are the keys of cli._KEYS."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text[text.index("| key | value | flag |"):].split("\n\n", 1)[0]
    listed = {name for line in table.splitlines()[2:] for name in re.findall(r"`([^`]+)`", line.split("|")[1])}
    assert listed == {row.key for row in cli._KEYS}


def test_certify_manifest_tol_true_exits_2_naming_tol(tmp_path, monkeypatch, capsys):
    """"tol": true ran at tol 1.0: it certified a super candidate with exponent
    shift -0.3 (exit 0), which the recorded manifest rejects (exit 4)."""
    for battery in ("certify_subsolution", "certify_supersolution"):
        monkeypatch.setattr(f"hjbkit.cli.{battery}", _raise(AssertionError("a battery ran")))
    deflated = dict(MERTON_SUB, side="super", params=dict(MERTON_SUB["params"], exponent_shift=-0.3))
    config = {"problem": write(tmp_path / "prob.json", MERTON_SPEC), "start_box": [[0.5, 2.0]], "budget": 20000,
              "candidate": write(tmp_path / "cand.json", deflated), "tol": True}
    mpath = write(tmp_path / "manifest.json", {"subcommand": "certify", "config": config})
    assert main(["--out-dir", str(tmp_path / "out"), "--manifest", mpath]) == 2
    assert capsys.readouterr().err.startswith("configuration error: key 'tol': True does not parse")
    assert not (tmp_path / "out").exists()


# one valid document of each kind; the super candidate holds a policy document
DOCUMENTS = {
    "problem": dict(MERTON_SPEC, control_set=[[[-10.0, 10.0]]]),
    "grid": {"box": [[0.2, 5.0]], "n": [40], "spacing": "log"},
    "sub": dict(MERTON_SUB, params=dict(MERTON_SUB["params"], exponent_shift=0.0)),
    "super": {"kind": "constant", "side": "super", "value": 10.0, "growth_constant": 10.0,
              "policy": {"kind": "constant", "value": [5.0]}},
    "policy": {"kind": "constant", "value": [5.0]},
}


@pytest.fixture
def no_stage(monkeypatch):
    for stage in ("_facelift", "solve_hjb", "simulate_paths", "certify_subsolution", "certify_supersolution",
                  "bracket_report"):
        monkeypatch.setattr(f"hjbkit.cli.{stage}", _raise(AssertionError("a stage ran")))


def run_document(tmp_path, name, doc, inline):
    """main with `doc` as the `name` document of DOCUMENTS: inline in a pipeline
    spec (a policy inside the super candidate), or as the file of a solve
    (problem, grid), a certify (sub, super) or a simulate (policy)."""
    docs = dict(DOCUMENTS, **{name: doc})
    if inline:
        super_ = dict(docs["super"], policy=doc) if name == "policy" else docs["super"]
        argv = ["pipeline", "--spec", small_pipeline(tmp_path, problem=docs["problem"], grid=docs["grid"],
                                                      sub_candidate=docs["sub"], super_candidate=super_)]
    else:
        paths = {key: write(tmp_path / f"{key}.json", docs[key]) for key in ("problem", "grid", name)}
        flags = {"problem": ["solve", "--grid"], "grid": ["solve", "--grid"], "sub": ["certify", "--candidate"],
                 "super": ["certify", "--candidate"], "policy": ["simulate", "--x0", "1.0", "--policy"]}[name]
        argv = [*flags, paths["grid" if name == "problem" else name], "--problem", paths["problem"]]
    return main(["--out-dir", str(tmp_path / "out"), *argv])


# each was read leniently: a horizon true as 1.0; control_sets and spacng were
# ignored (controls on [-10, 10], a uniform grid); parms was ignored (the default
# candidate, 1.1331 at (0, 1) where T = 12 gives 4.4817); and a null
# growth_constant ended in a traceback after the whole battery
LENIENT_READS = {
    "problem-horizon-true": ("problem", dict(MERTON_SPEC, horizon=True), "key 'horizon': True does not parse"),
    "problem-control-sets": ("problem", dict(MERTON_SPEC, control_sets=[[[0, 1]]]),
                             "unknown problem key(s) 'control_sets'"),
    "grid-spacng": ("grid", {"box": [[0.2, 5.0]], "n": [40], "spacng": "log"}, "unknown grid key(s) 'spacng'"),
    "candidate-parms": ("sub", {"kind": "closed-form", "family": "merton", "side": "sub", "parms": {"T": 12.0}},
                        "unknown closed-form candidate key(s) 'parms'"),
    "growth-constant-null": ("super", dict(DOCUMENTS["super"], growth_constant=None),
                             "key 'growth_constant': None does not parse"),
    "growth-constant-list": ("super", dict(DOCUMENTS["super"], growth_constant=[5]),
                             "key 'growth_constant': [5] does not parse"),
}


@pytest.mark.parametrize("inline", [False, True], ids=["file", "pipeline"])
@pytest.mark.parametrize("case", list(LENIENT_READS))
def test_a_document_value_once_read_leniently_exits_2_naming_its_key(tmp_path, capsys, no_stage, case, inline):
    name, doc, message = LENIENT_READS[case]
    assert run_document(tmp_path, name, doc, inline) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert not (tmp_path / "out").exists()


# (document, path to a value, what the value is); a path ending in an index names the list's key
SLOTS = [
    ("problem", ("family",), "choice"), ("problem", ("params",), "object"),
    ("problem", ("params", "mu"), "number"), ("problem", ("params", "sigma"), "number"),
    ("problem", ("control_bound",), "number"), ("problem", ("horizon",), "number"),
    ("problem", ("state_domain",), "box"), ("problem", ("control_set",), "box"), ("problem", ("control_set", 0), "box"),
    ("problem", ("payoff",), "object"), ("problem", ("payoff", "family"), "choice"),
    ("problem", ("payoff", "params", "p"), "number"),
    ("problem", ("gauge",), "object"), ("problem", ("gauge", "family"), "choice"),
    ("problem", ("gauge", "params", "p"), "number"),
    ("problem", ("constraint",), "object"), ("problem", ("constraint", "family"), "choice"),
    ("grid", ("box",), "grid box"), ("grid", ("n",), "integer"), ("grid", ("spacing",), "choice"),
    ("sub", ("kind",), "choice"), ("sub", ("side",), "choice"), ("sub", ("family",), "choice"),
    ("sub", ("params",), "object"),
    *[("sub", ("params", name), "number") for name in ("mu", "sigma", "p", "T", "B", "exponent_shift")],
    ("super", ("kind",), "choice"), ("super", ("side",), "choice"), ("super", ("value",), "number"),
    ("super", ("growth_constant",), "number"), ("super", ("policy",), "object"),
    ("policy", ("kind",), "choice"), ("policy", ("value",), "numbers"),
]
SLOT_VALUES = {
    "number": [None, True, False, "0.5", [1.0], {}],
    "numbers": [None, True, "0.5", {}, [True], ["0.5"], [None], [[1.0], {}]],
    "integer": [None, 1.5, True, "30", [], [1.5], {}],
    "box": [5, True, "x", [[2.0, 0.0]], [[0.0, 1.0, 2.0]], [[True, 2.0]], [["a", 1.0]], [], {}],
    "grid box": [None, 5, True, "x", [[5.0, 0.2]], [[0.2, 5.0, 7.0]], [[True, 5.0]], [[None, 5.0]], [[0.2, math.inf]],
                 [], {}],
    "choice": [None, 5, True, "bogus", [], {}],
    "object": [None, 5, True, "x", [1]],
}
# what stderr holds for a value of each kind but choices and objects, given its key
NAMED = {"number": "key {!r}: ", "numbers": "key {!r}: ", "integer": "grid key {!r}: ", "box": "{} ",
         "grid box": "{} "}
# the objects of each document that hold keys, by their paths
OBJECTS = {"problem": [(), ("params",), ("payoff",), ("payoff", "params"), ("gauge",), ("gauge", "params"),
                       ("constraint",)],
           "grid": [()], "sub": [(), ("params",)], "super": [(), ("policy",)], "policy": [()]}


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_document_of_the_wrong_shape_exits_2_before_any_stage(tmp_path, capsys, no_stage, data):
    """A problem (with its payoff, gauge and constraint), grid, candidate or
    policy document, as a file or inline in a pipeline spec, with a value of
    another JSON type or a key it does not read: exit 2 before any stage, naming
    a number, integer or box key and the unknown key."""
    inline = data.draw(st.booleans())
    if data.draw(st.booleans()):
        name, path, kind = data.draw(st.sampled_from(SLOTS))
        value = data.draw(st.sampled_from(SLOT_VALUES[kind]))
        key = next(step for step in reversed(path) if isinstance(step, str))
        named = NAMED.get(kind, "").format(key)
    else:
        name = data.draw(st.sampled_from(list(OBJECTS)))
        path = (*data.draw(st.sampled_from(OBJECTS[name])), data.draw(st.sampled_from(["note", "parms", "Family"])))
        value, named = 1.0, repr(path[-1])
    event(f"{name} {'inline' if inline else 'file'}")
    doc = json.loads(json.dumps(DOCUMENTS[name]))
    _at(doc, path[:-1])[path[-1]] = value
    rc = run_document(tmp_path, name, doc, inline)
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("configuration error:") and named in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# CSV fuzz: grid-function and solution CSVs, and bracket points files
# ---------------------------------------------------------------------------

def _not_a_finite_number(text):
    try:
        return not math.isfinite(float(text))
    except ValueError:
        return True


# a cell that is not a finite number, written as text
NOT_A_NUMBER = st.sampled_from(["", " ", "a", "true", "0x1", "1..2", "--1", "1;2", "nan", "inf", "-inf", "1e999"]) | (
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1).filter(_not_a_finite_number))


@st.composite
def malformed_table(draw, text):
    """`text`, a grid CSV, changed so that it no longer reads as one: as utf-8 bytes."""
    header, *rows = [line.split(",") for line in text.splitlines()]
    i = draw(st.integers(0, len(rows) - 1))
    mutation = draw(st.sampled_from(["empty", "header-only", "cell", "no-value-column", "header-columns",
                                     "row-columns", "duplicate-row", "invalid-utf8"]))
    event(mutation)
    if mutation == "empty":
        return draw(st.sampled_from(["", "\n", " \n\n"])).encode()
    if mutation == "header-only":
        rows = []
    elif mutation == "cell":
        rows[i][draw(st.integers(0, len(header) - 1))] = draw(NOT_A_NUMBER)
    elif mutation == "no-value-column":
        header[header.index("value")] = draw(st.sampled_from(["Value", "val", "", "values"]))
    elif mutation == "header-columns":
        header = header[:-1] if draw(st.booleans()) else [*header, "extra"]
    elif mutation == "row-columns":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else [*rows[i], "1.0"]
    elif mutation == "duplicate-row":
        rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
    data = "".join(",".join(cells) + "\n" for cells in [header, *rows]).encode()
    if mutation == "invalid-utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


@pytest.fixture(scope="module")
def tables():
    """A small Merton problem document, and a grid-function CSV and a solution CSV on its log grid."""
    problem = specio.problem_from_spec(MERTON_SPEC)
    grid = hk.log_grid(0.2, 5.0, 5)
    g = hk.GridFunction(grid, problem.payoff(grid.nodes()).reshape(grid.shape))
    solution = hk.solve_hjb(problem, g, hk.SchemeConfig(n_time_nodes=3, control_grid_resolution=3))
    return {"grid function": g.to_csv(), "solution": solution.to_csv()}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_grid_csv_exits_2_or_3(tmp_path, capsys, no_stage, tables, data):
    """A grid-function or solution CSV that does not read as one, given as a
    grid-table or from-solution candidate or a from-solution policy: exit 2 or
    3 before any stage, and no traceback."""
    source = data.draw(st.sampled_from(sorted(tables)))
    use = data.draw(st.sampled_from(["grid-table candidate", "from-solution candidate", "from-solution policy"]))
    event(f"{source} as {use}")
    (tmp_path / "table.csv").write_bytes(data.draw(malformed_table(tables[source])))
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    kind = use.split()[0]
    if use.endswith("policy"):
        argv = ["simulate", "--x0", "1.0", "--policy", write(tmp_path / "pol.json", {"kind": kind, "csv": "table.csv"})]
    else:
        doc = {"kind": kind, "side": data.draw(st.sampled_from(["sub", "super"])), "csv": "table.csv",
               "growth_constant": 10.0}
        argv = ["certify", "--candidate", write(tmp_path / "cand.json", doc)]
    rc = main(["--out-dir", str(tmp_path / "out"), *argv, "--problem", prob])
    err = capsys.readouterr().err
    assert rc in (2, 3) and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source, row, column, cell, use", [
    ("grid function", 0, 0, "inf", "grid-table candidate"),
    ("solution", 1, 3, "inf", "from-solution policy"),
    ("solution", 2, 2, "nan", "from-solution candidate"),
], ids=["infinite-node", "infinite-control", "nan-value"])
def test_grid_csv_with_a_non_finite_cell_exits_2(tmp_path, capsys, tables, source, row, column, cell, use):
    """A non-finite cell read as a number: a grid-table candidate with an infinite
    node ran its battery, and simulate under a policy with an infinite control
    printed "value estimate 1.0 +- 0.0" and exited 0."""
    lines = tables[source].splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = cell
    lines[row + 1] = ",".join(cells)
    (tmp_path / "table.csv").write_text("\n".join(lines) + "\n")
    prob = write(tmp_path / "prob.json", MERTON_SPEC)
    kind = use.split()[0]
    if use.endswith("policy"):
        argv = ["simulate", "--x0", "1.0", "--policy", write(tmp_path / "pol.json", {"kind": kind, "csv": "table.csv"})]
    else:
        doc = {"kind": kind, "side": "sub", "csv": "table.csv", "growth_constant": 10.0}
        argv = ["certify", "--candidate", write(tmp_path / "cand.json", doc), "--budget", "500"]
    assert main(["--out-dir", str(tmp_path / "out"), *argv, "--problem", prob]) == 2
    assert "CSV cells must be finite numbers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@st.composite
def malformed_points(draw):
    """A bracket points file on the Merton problem (t in [0, 1), x > 0) holding a point it refuses."""
    lines = ["t,x", "0.0,1.0", "0.5,1.5"]
    at = draw(st.integers(1, len(lines)))
    mutation = draw(st.sampled_from(["empty", "header-only", "cell", "no-state", "two-coordinates", "time",
                                     "state", "header-not-first", "invalid-utf8"]))
    event(mutation)
    if mutation == "empty":
        return draw(st.sampled_from(["", "\n", " \n\n"])).encode()
    if mutation == "header-only":
        lines = lines[:1]
    elif mutation == "cell":
        cells = ["0.25", "1.0"]
        cells[draw(st.integers(0, 1))] = draw(NOT_A_NUMBER)
        lines.insert(at, ",".join(cells))
    elif mutation == "no-state":
        lines.insert(at, "0.25")
    elif mutation == "two-coordinates":
        lines.insert(at, "0.25,1.0,2.0")
    elif mutation == "time":
        t = draw(st.floats(max_value=0.0, exclude_max=True) | st.floats(min_value=1.0) | st.just(math.nan))
        lines.insert(at, f"{t!r},1.0")
    elif mutation == "state":
        x = draw(st.floats(max_value=0.0) | st.sampled_from([math.inf, math.nan]))
        lines.insert(at, f"0.25,{x!r}")
    elif mutation == "header-not-first":
        lines.insert(at, "t,x")
    data = "".join(line + "\n" for line in lines).encode()
    if mutation == "invalid-utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_bracket_points_file_exits_2_or_3(tmp_path, capsys, no_stage, data):
    """A bracket points file that holds a point bracket refuses, or none: exit 2
    or 3 before any simulation, and no traceback."""
    argv = _bracket_inputs(tmp_path, "")
    (tmp_path / "points.csv").write_bytes(data.draw(malformed_points()))
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (2, 3) and "Traceback" not in err
    assert not (tmp_path / "bracket.json").exists()
