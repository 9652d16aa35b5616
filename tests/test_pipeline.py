"""hjbkit.pipeline.run_pipeline on in-memory objects, against the pipeline subcommand on the equivalent spec."""

import json

import pytest

import hjbkit as hk
from hjbkit import cli
from hjbkit.cli import main
from hjbkit.pipeline import run_pipeline

MERTON_DOC = {
    "family": "linear_drift", "params": {"mu": 0.1, "sigma": 0.2}, "control_bound": 10.0,
    "state_domain": [[0.0, None]], "horizon": 1.0, "payoff": {"family": "power", "params": {"p": 0.5}},
    "gauge": {"family": "power", "params": {"p": 0.5}}, "constraint": {"family": "neg_second"},
}
MERTON_PARAMS = {"mu": 0.1, "sigma": 0.2, "p": 0.5, "T": 1.0, "B": 10.0}
POINTS = [[0.0, 1.0], [0.5, 1.5]]
SPEC = {
    "problem": MERTON_DOC,
    "grid": {"box": [[0.2, 5.0]], "n": [40], "spacing": "log"},
    "points": POINTS,
    "sub_candidate": {"kind": "closed-form", "family": "merton", "side": "sub", "params": MERTON_PARAMS},
    "super_candidate": {"kind": "closed-form", "family": "merton", "side": "super",
                        "params": dict(MERTON_PARAMS, exponent_shift=0.02)},
    "time_nodes": 20, "control_res": 21, "mc_paths": 2000, "mc_steps": 40, "budget": 5000,
    "start_box": [[0.5, 2.0]], "seed": 3,
}


def in_memory(**changes):
    """run_pipeline's arguments for SPEC, built without a document."""
    args = {
        "problem": hk.merton_problem(), "grid": hk.log_grid(0.2, 5.0, 40),
        "points": [(t, [x]) for t, x in POINTS],
        "sub": hk.merton_candidate("sub"), "super_": hk.merton_candidate("super", exponent_shift=0.02),
        "scheme": hk.SchemeConfig(n_time_nodes=20, control_grid_resolution=21),
        "certify": hk.CertifyConfig(start_box=hk.Box([0.5], [2.0]), budget=5000, seed=3),
        "bracket": hk.BracketConfig(n_paths=2000, n_steps=40, seed=3),
        "terminal": "facelift",
    }
    return {**args, **changes}


def cli_report(tmp_path, spec):
    """The exit code and report bytes of the pipeline subcommand on `spec`."""
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(spec))
    code = main(["--out-dir", str(tmp_path / "out"), "pipeline", "--spec", str(path)])
    return code, (tmp_path / "out" / "pipeline-report.json").read_bytes()


def test_in_memory_run_gives_the_cli_report_bytes(tmp_path):
    doc, error = run_pipeline(**in_memory())
    assert error is None and doc["stages"] == dict.fromkeys(("facelift", "solve", "simulate", "certify", "bracket"),
                                                            "ok")
    code, report = cli_report(tmp_path, SPEC)
    assert code == 0
    assert cli._json(doc).encode() == report


def test_in_memory_run_without_a_super_candidate_fails_the_simulate_stage(tmp_path):
    doc, error = run_pipeline(**in_memory(super_=None))
    assert isinstance(error, hk.ConfigurationError)
    assert doc["stages"] == {"facelift": "ok", "solve": "ok",
                             "simulate": "failed: the pipeline spec has no 'super_candidate'"}
    code, report = cli_report(tmp_path, {k: v for k, v in SPEC.items() if k != "super_candidate"})
    assert code == 2
    assert cli._json(doc).encode() == report


@pytest.mark.parametrize("x", [0.1999, 8.0])
def test_a_point_outside_the_grid_box_is_refused_before_any_stage(monkeypatch, x):
    """The solve's value there would be its clamped edge value."""
    monkeypatch.setattr("hjbkit.facelift.lift", lambda *args: pytest.fail("a stage ran"))
    with pytest.raises(hk.ConfigurationError, match=rf"point at t=0.0: state \[{x}\] outside the grid's box "
                                                    r"\[\[0.2, 5.0\]\]"):
        run_pipeline(**in_memory(points=[(0.0, [1.0]), (0.0, [x])]))
