"""scripts/artifact_digests.py: the digest listing, checked on a temporary directory without running a session."""

import hashlib
import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "artifact_digests.py"


@pytest.fixture(scope="module")
def artifact_digests():
    spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_listing_has_one_sorted_line_per_artifact(artifact_digests, tmp_path):
    report, table = b"{}\n", b"x,value\n"
    (tmp_path / "out" / "b" / "nested").mkdir(parents=True)
    (tmp_path / "out" / "b" / "report.json").write_bytes(report)
    (tmp_path / "out" / "b" / "nested" / "x.csv").write_bytes(table)
    (tmp_path / "out" / "a").mkdir()
    (tmp_path / "out" / "a" / "manifest.json").write_bytes(b"")
    (tmp_path / "inputs").mkdir()
    (tmp_path / "inputs" / "prob.json").write_bytes(b"not listed")

    lines = artifact_digests.listing(str(tmp_path), {"out/b": 4, "out/a": 0, "out/failed": 2})

    def sha(data):
        return hashlib.sha256(data).hexdigest()

    assert lines == [
        f"out/a/manifest.json {sha(b'')} 0",
        f"out/b/nested/x.csv {sha(table)} 4",
        f"out/b/report.json {sha(report)} 4",
        "out/failed/ - 2",
    ]


@pytest.mark.parametrize("text, seeds", [("401-450", range(401, 451)), ("7", range(7, 8)), ("3-3", range(3, 4))])
def test_seed_ranges_include_both_ends(artifact_digests, text, seeds):
    assert artifact_digests.parse_seeds(text) == seeds
