#!/usr/bin/env python3
"""Parent/change benchmark pairs, written to BENCH_<label>.json.

Run from anywhere inside a checkout:

    python3 scripts/bench_pairs.py --label trial certify_pipeline:10 merton_solve:5

When tracked files have uncommitted changes, the change is the checkout this
script lives in, as it stands, taken as a ``git stash create`` commit that
leaves the checkout untouched, and its parent is HEAD.  When they have none,
the change is HEAD and its parent HEAD~1.  Both sides are unpacked alike, with
``git archive`` into temporary directories whose paths have one length: runs
of one commit have read 3-6% apart from one directory to another.  Files git
does not track are not part of the change.  Each pair runs ``python3
perfbench/run.py --workload W --seed S --seconds R --trace 0``, R being the
run_seconds of BENCHMARK.json, once per side, in fresh processes and with the
same seed, and the side that runs first alternates between pairs.  A workload
is named with an optional ``:pairs`` count; its seeds are ``--first-seed``
onwards, one a pair.

The file holds, per workload and side, the median, interquartile range and
runs of each end-to-end metric of BENCHMARK.json, the failed and attempted
ops and the correctness flag of each run, the change's relative shift of each
median, the number of pairs each metric won on the change side, and whether
each metric is resolved (see ``resolved``).  Under ``op_nominal_s`` it holds,
per side and op, the runs' per-op medians of ``nominal_seconds`` over the
passes, read from the run record perfbench/out/W-seedS-trace0.json of each
run, their median, and the change's shift of that median: which ops a change
moved.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 600


def _git(*args, root=ROOT) -> str:
    return subprocess.run(["git", "-C", root, *args], check=True, capture_output=True, text=True).stdout.strip()


def sides(root=ROOT) -> tuple:
    """The parent commit, the change commit and a description of the change.
    Uncommitted changes to tracked files are the change, as a `git stash
    create` commit on HEAD; with none, the change is HEAD."""
    head = _git("rev-parse", "HEAD", root=root)
    stash = _git("stash", "create", root=root)
    if stash:
        return head, stash, f"working tree on {head[:7]}"
    return _git("rev-parse", "HEAD~1", root=root), head, f"commit {head}"


def unpack(commit: str, dest: str, root=ROOT) -> None:
    """The committed files of `commit`, extracted into `dest`."""
    archive = subprocess.Popen(["git", "-C", root, "archive", commit], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a fresh process: its metric values, ops and verdict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    with open(os.path.join(checkout, "perfbench", "out", f"{workload}-seed{seed}-trace0.json")) as fh:
        record = json.load(fh)
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "correct": result["correct"],
        "op_nominal_s": op_medians(record),
    }


def op_medians(record) -> dict:
    """Per op of a run record, the median of its nominal_seconds over the
    passes of the untraced phase, the median perfbench/run.py sums into
    wall_nominal_s."""
    seconds = {}
    for op in record["phases"][0]["ops"]:
        seconds.setdefault(op["name"], []).append(op["nominal_seconds"])
    return {name: statistics.median(ts) for name, ts in seconds.items()}


def _iqr(values) -> float:
    """Upper minus lower quartile, by statistics.quantiles(values, n=4): the
    spread perfbench/NOTES.md gives for its baseline."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def aggregate(seeds, parent_runs, change_runs, better) -> dict:
    """One workload's entry from its paired runs.

    parent_runs[i] and change_runs[i] are the run_once results of pair i;
    better maps each end-to-end metric to "lower" or "higher".
    """
    entry = {"seeds": list(seeds), "pairs": len(seeds)}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        entry[side] = {}
        for name in better:
            values = [r["metrics"][name] for r in runs]
            entry[side][name] = {"median": statistics.median(values), "iqr": _iqr(values), "runs": values}
        entry[side]["failed_ops"] = [r["failed"] for r in runs]
        entry[side]["attempted_ops"] = [r["attempted"] for r in runs]
        entry[side]["correct"] = [r["correct"] for r in runs]
    entry["change_vs_parent_median"] = {
        name: entry["change"][name]["median"] / entry["parent"][name]["median"] - 1.0 for name in better
    }
    entry["change_wins"] = {
        name: sum(
            (c["metrics"][name] < p["metrics"][name]) if way == "lower" else (c["metrics"][name] > p["metrics"][name])
            for p, c in zip(parent_runs, change_runs)
        )
        for name, way in better.items()
    }
    ops = {}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        ops[side] = {}
        for name in runs[0]["op_nominal_s"]:
            values = [r["op_nominal_s"][name] for r in runs]
            ops[side][name] = {"median": statistics.median(values), "runs": values}
    ops["change_vs_parent_median"] = {
        name: ops["change"][name]["median"] / ops["parent"][name]["median"] - 1.0
        for name in ops["parent"] if name in ops["change"]
    }
    entry["op_nominal_s"] = ops
    return entry


def resolved(entry, better, bounds) -> dict:
    """Per end-to-end metric of a workload's entry, False where the parent runs
    spread too widely to read a shift within the metric's bound: their IQR,
    relative to their median, is wider than the bound, and not every change
    run beats every parent run."""
    out = {}
    for name, way in better.items():
        parent, change = entry["parent"][name], entry["change"][name]["runs"]
        sign = 1.0 if way == "lower" else -1.0
        every_run_beats = max(sign * c for c in change) < min(sign * p for p in parent["runs"])
        out[name] = parent["iqr"] <= bounds[name] * abs(parent["median"]) or every_run_beats
    return out


def _host() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine()}


def _workload_pairs(text: str) -> tuple:
    name, _, pairs = text.partition(":")
    return name, int(pairs or 10)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="+", type=_workload_pairs, help="W or W:pairs (10 pairs by default)")
    ap.add_argument("--label", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    parent_commit, change_commit, change = sides()
    doc = {
        "label": args.label,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "method": "alternating parent/change runs in fresh processes, the same seed within a pair, "
                  "the side that runs first alternating between pairs",
        "parent_commit": parent_commit,
        "change": change,
        "host": _host(),
        "workloads": {},
    }
    parent_dir = tempfile.mkdtemp(prefix="bench-parent-")
    change_dir = tempfile.mkdtemp(prefix="bench-change-")
    try:
        unpack(parent_commit, parent_dir)
        unpack(change_commit, change_dir)
        for workload, pairs in args.workloads:
            seeds = range(args.first_seed, args.first_seed + pairs)
            runs = {change_dir: [], parent_dir: []}
            for i, seed in enumerate(seeds):
                order = (parent_dir, change_dir) if i % 2 == 0 else (change_dir, parent_dir)
                for checkout in order:
                    runs[checkout].append(run_once(checkout, workload, seed, seconds))
                p, c = runs[parent_dir][-1]["metrics"], runs[change_dir][-1]["metrics"]
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{name} {p[name]:.4g} -> {c[name]:.4g}" for name in better), flush=True)
            entry = aggregate(seeds, runs[parent_dir], runs[change_dir], better)
            entry["resolved"] = resolved(entry, better, bounds)
            doc["workloads"][workload] = entry
    finally:
        shutil.rmtree(parent_dir, ignore_errors=True)
        shutil.rmtree(change_dir, ignore_errors=True)
    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
