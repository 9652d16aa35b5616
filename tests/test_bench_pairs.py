"""scripts/bench_pairs.py: the aggregation of paired runs, checked without running the benchmark."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(wall, rss, failed=0):
    return {"metrics": {"wall_nominal_s": wall, "peak_rss_mb": rss}, "failed": failed, "attempted": 10,
            "correct": failed == 0, "op_nominal_s": {}}


def test_aggregate_medians_iqrs_shifts_and_wins(bench_pairs):
    better = {"wall_nominal_s": "lower", "peak_rss_mb": "lower"}
    parent = [_run(1.6, 100.0), _run(1.7, 100.0), _run(1.5, 100.0), _run(1.8, 100.0, failed=1)]
    change = [_run(1.2, 100.0), _run(1.9, 99.0), _run(1.1, 101.0), _run(1.3, 100.0)]
    entry = bench_pairs.aggregate([11, 12, 13, 14], parent, change, better)

    assert entry["seeds"] == [11, 12, 13, 14] and entry["pairs"] == 4
    wall = entry["parent"]["wall_nominal_s"]
    assert wall["runs"] == [1.6, 1.7, 1.5, 1.8]
    assert wall["median"] == pytest.approx(1.65)
    # statistics.quantiles(n=4), the exclusive method: quartiles at ranks 1.25 and 3.75 of 4
    assert wall["iqr"] == pytest.approx(1.775 - 1.525)
    assert entry["change"]["wall_nominal_s"]["median"] == pytest.approx(1.25)
    assert entry["change_vs_parent_median"]["wall_nominal_s"] == pytest.approx(1.25 / 1.65 - 1)
    assert entry["change_wins"] == {"wall_nominal_s": 3, "peak_rss_mb": 1}
    assert entry["parent"]["failed_ops"] == [0, 0, 0, 1]
    assert entry["parent"]["attempted_ops"] == [10] * 4
    assert entry["parent"]["correct"] == [True, True, True, False]
    json.dumps(entry)


def test_per_op_medians_from_a_run_record(bench_pairs):
    """A synthetic run record of two passes over three ops: each op's median
    over the passes of the untraced phase, the traced phase not read."""
    def op(name, nominal):
        return {"pass": 0, "name": name, "seconds": 9.0, "nominal_seconds": nominal}

    record = {"phases": [
        {"ops": [op("a", 0.3), op("b", 0.01), op("a", 0.1), op("b", 0.03), op("a", 0.2), op("c", 1.0)]},
        {"ops": [op("a", 5.0), op("b", 5.0), op("c", 5.0)]},
    ]}
    assert bench_pairs.op_medians(record) == {"a": 0.2, "b": pytest.approx(0.02), "c": 1.0}

    def run(wall, ops):
        return dict(_run(wall, 100.0), op_nominal_s=ops)

    parent = [run(1.0, {"a": 0.2, "b": 0.8}), run(1.2, {"a": 0.4, "b": 0.8}), run(1.1, {"a": 0.3, "b": 0.8})]
    change = [run(0.9, {"a": 0.1, "b": 0.8}), run(0.8, {"a": 0.1, "b": 0.7}), run(0.7, {"a": 0.2, "b": 0.5})]
    ops = bench_pairs.aggregate([1, 2, 3], parent, change, {"wall_nominal_s": "lower"})["op_nominal_s"]
    assert ops["parent"]["a"] == {"median": 0.3, "runs": [0.2, 0.4, 0.3]}
    assert ops["change"]["b"] == {"median": 0.7, "runs": [0.8, 0.7, 0.5]}
    assert ops["change_vs_parent_median"] == {"a": pytest.approx(0.1 / 0.3 - 1), "b": pytest.approx(0.7 / 0.8 - 1)}
    json.dumps(ops)


def test_higher_is_better_counts_the_larger_value(bench_pairs):
    entry = bench_pairs.aggregate([1, 2], [_run(1.0, 5.0), _run(1.0, 5.0)], [_run(1.0, 6.0), _run(1.0, 4.0)],
                                  {"wall_nominal_s": "lower", "peak_rss_mb": "higher"})
    assert entry["change_wins"] == {"wall_nominal_s": 0, "peak_rss_mb": 1}


def test_one_pair_has_a_zero_iqr(bench_pairs):
    entry = bench_pairs.aggregate([1], [_run(1.0, 5.0)], [_run(0.9, 5.0)], {"wall_nominal_s": "lower"})
    assert entry["parent"]["wall_nominal_s"]["iqr"] == 0.0


def test_the_schema_of_the_committed_bench_files(bench_pairs):
    """Every key BENCH_pr12.json holds for a workload and side is written."""
    root = SCRIPT.parents[1]
    committed = json.loads((root / "BENCH_pr12.json").read_text())["workloads"]["certify_pipeline"]
    better = {m["name"]: m["better"] for m in json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]}
    run = {"metrics": {name: 1.0 for name in better}, "failed": 0, "attempted": 3, "correct": True,
           "op_nominal_s": {"op": 1.0}}
    entry = bench_pairs.aggregate([1], [run], [run], better)
    assert set(committed) <= set(entry)
    assert set(committed["parent"]) == set(entry["parent"])
    assert set(committed["parent"]["wall_nominal_s"]) == set(entry["parent"]["wall_nominal_s"])


def test_a_metric_is_unresolved_only_when_the_parent_spreads_wider_than_its_bound_and_the_sides_overlap(bench_pairs):
    """setup_s had read 0.125-0.244 s on one side of facelift_batch, as wide as
    its 0.25 bound: a shift in its median was argued by hand."""
    better = {"wall_nominal_s": "lower", "peak_rss_mb": "higher"}
    bounds = {"wall_nominal_s": 0.25, "peak_rss_mb": 0.1}
    wide = [_run(0.125, 100.0), _run(0.2, 100.0), _run(0.244, 100.0), _run(0.18, 100.0)]
    cases = [
        # parent IQR / median 0.49 > 0.25, and the sides overlap
        (wide, [_run(0.19, 100.0), _run(0.21, 100.0), _run(0.15, 101.0), _run(0.2, 99.0)], False),
        # as wide, but every change run beats every parent run
        (wide, [_run(0.12, 100.0), _run(0.1, 100.0), _run(0.11, 100.0), _run(0.124, 100.0)], True),
    ]
    for parent, change, want in cases:
        entry = bench_pairs.aggregate([1, 2, 3, 4], parent, change, better)
        assert entry["parent"]["wall_nominal_s"]["iqr"] / entry["parent"]["wall_nominal_s"]["median"] > 0.25
        # peak_rss_mb does not spread on the parent side: resolved whichever side wins
        assert bench_pairs.resolved(entry, better, bounds) == {"wall_nominal_s": want, "peak_rss_mb": True}
    higher = {"wall_nominal_s": "higher"}
    entry = bench_pairs.aggregate([1, 2, 3, 4], wide, [_run(0.3, 1.0)] * 4, higher)
    assert bench_pairs.resolved(entry, higher, bounds) == {"wall_nominal_s": True}


def test_workload_argument(bench_pairs):
    assert bench_pairs._workload_pairs("certify_pipeline:12") == ("certify_pipeline", 12)
    assert bench_pairs._workload_pairs("merton_solve") == ("merton_solve", 10)


def test_a_dirty_tree_is_unpacked_like_its_parent(bench_pairs, tmp_path):
    """Uncommitted changes run from an unpacked copy, as the parent does, and
    the checkout is left as it was."""
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return bench_pairs._git("-c", "user.name=bench", "-c", "user.email=bench@example.org",
                                "-c", "commit.gpgsign=false", *args, root=str(repo))

    git("init", "-q")
    for text in ("one\n", "two\n"):
        (repo / "a.txt").write_text(text)
        git("add", "a.txt")
        git("commit", "-q", "-m", text.strip())
    (repo / "a.txt").write_text("three\n")
    status = git("status", "--porcelain")

    parent, change, label = bench_pairs.sides(str(repo))
    assert parent == git("rev-parse", "HEAD") and label.startswith("working tree")
    for commit, text in ((parent, "two\n"), (change, "three\n")):
        dest = tmp_path / commit
        dest.mkdir()
        bench_pairs.unpack(commit, str(dest), str(repo))
        assert (dest / "a.txt").read_text() == text
    assert (repo / "a.txt").read_text() == "three\n"
    assert git("status", "--porcelain") == status and git("stash", "list") == ""

    git("commit", "-q", "-am", "three")
    assert bench_pairs.sides(str(repo)) == (git("rev-parse", "HEAD~1"), git("rev-parse", "HEAD"),
                                            f"commit {git('rev-parse', 'HEAD')}")
