#!/usr/bin/env python3
"""hjbkit benchmark: one workload per fresh process, checked outputs, JSON result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload merton_solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped, scaling
each short op to a nominal host speed probed around it (see hostspeed.py).
``--trace 1`` first repeats that untraced measurement, then wraps hjbkit's
public functions (see tracer.py) and measures again; it reports the per-layer
metrics, each layer's self time and the tracing overhead.  ``--workload all``
runs every workload, each in its own process, and prints one table.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  A full record
(run record, every op, spans) goes to perfbench/out/.  See NOTES.md for the
workloads, metrics and known defects.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

# BLAS/OpenMP pools are pinned to one thread before numpy is imported.
THREAD_PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(THREAD_PINS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("merton_solve", "certify_pipeline", "facelift_batch")
SETUP_REPEATS = 7
SUBPROCESS_TIMEOUT = 170

END_TO_END = (
    ("wall_nominal_s", "s"), ("ops_per_nominal_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("solver.solve_s", "s"), ("solver.self_s", "s"), ("solver.substeps", "count"),
    ("solver.stencil_evals", "count"), ("solver.projections", "count"),
    ("solver.ns_per_stencil_eval", "ns"), ("solver.gb_moved_computed", "GB"),
    ("solver.gb_per_s_computed", "GB/s"),
    ("facelift.hull_s", "s"), ("facelift.relax_s", "s"), ("facelift.self_s", "s"),
    ("facelift.relax_sweeps", "count"), ("facelift.us_per_sweep", "us"),
    ("facelift.relax_failures", "count"),
    ("simulate.sim_s", "s"), ("simulate.self_s", "s"), ("simulate.calls", "count"),
    ("simulate.path_steps", "count"), ("simulate.ns_per_path_step", "ns"),
    ("simulate.state_mb_computed", "MB"), ("simulate.exit_fraction", "fraction"),
    ("certify.sub_s", "s"), ("certify.super_s", "s"), ("certify.bracket_s", "s"),
    ("certify.self_s", "s"), ("certify.records", "count"), ("certify.failed_records", "count"),
    ("certify.bracket_points_failed", "count"),
    ("cli.pipeline_s", "s"), ("cli.self_s", "s"),
    ("specio.write_s", "s"), ("specio.bytes_written", "bytes"),
    ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"), ("trace.overhead_s", "s"),
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: build the workload's inputs once, print the seconds taken")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hjbkit", "__init__.py")):
        print(f"perfbench: no hjbkit sources in {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, SRC)
    import hjbkit

    if os.path.dirname(os.path.abspath(hjbkit.__file__)) != os.path.join(SRC, "hjbkit"):
        print(f"perfbench: imported hjbkit from {hjbkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_probe:
            WORKLOADS[args.workload](args.seed, workdir)
            print(repr(time.perf_counter() - _T0))
            return 0
        import_s = time.perf_counter() - _T0
        return run_one(args, WORKLOADS[args.workload], workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_one(args, workload_cls, workdir, import_s):
    from tracer import Tracer

    record = run_record(args, import_s)
    setup_runs = [setup_probe(args) for _ in range(SETUP_REPEATS)]
    root_before = root_snapshot()

    workload = workload_cls(args.seed, _mkdir(workdir, "plain"))
    workload.warmup()

    if args.trace:
        untraced = measure(workload, args.seconds / 2)
        tracer = Tracer()
        traced_wl = workload_cls(args.seed, _mkdir(workdir, "traced"), tracer)
        tracer.install()
        try:
            traced = measure(traced_wl, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
    else:
        tracer = None
        phases = [measure(workload, args.seconds)]

    root_changes = root_diff(root_before, root_snapshot())
    ops = [op for phase in phases for op in phase["ops"]]
    problems = [f"{op['name']}: {p}" for op in ops for p in op["problems"]]
    if root_changes:
        problems.append(f"wrote into the checkout root: {', '.join(root_changes)}")
    attempted, failed, unsteady = op_outcomes(ops)
    problems += [f"{name}: failed in some passes and not in others" for name in unsteady]

    e2e = end_to_end(phases[0], setup_runs)
    extra = extended(phases[0], ops, failed, attempted)
    layers = per_layer(tracer, untraced, traced) if args.trace else None

    print_report(record, e2e, extra, layers, ops, problems, setup_runs)
    names = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else e2e
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }
    save(args, {
        "run": record, "result": result, "end_to_end": e2e, "extended": extra,
        "per_layer": layers, "problems": problems, "setup_runs_s": setup_runs,
        "phases": phases,
        "spans": tracer.spans if tracer else [], "counts": dict(tracer.counts) if tracer else {},
    })
    print(json.dumps(result))
    return 0


def _mkdir(parent, name):
    path = os.path.join(parent, name)
    os.makedirs(path, exist_ok=True)
    return path


def measure(workload, budget, tracer=None):
    """Whole passes over the workload's ops until the next pass would overrun the budget.

    At least one pass is measured, however long it takes.  The process stays
    on one CPU, so each op and the host-speed probes around it share a core.
    """
    import hostspeed
    from workloads import FAILURES, Verdict

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    ops, passes = [], []
    first_pass_rss_mb = None
    probe_before = hostspeed.probe()
    start = time.perf_counter()
    while True:
        pass_s = 0.0
        for op in workload.ops():
            if tracer is not None:
                tracer.op_id = len(ops)
            t0 = time.perf_counter()
            try:
                result = op.run()
                error = None
            except FAILURES as exc:
                error = exc
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.op_id = None
            probe_after = hostspeed.probe()
            if error is None:
                verdict = op.check(result)
            else:
                verdict = Verdict(failed=True, note=f"{type(error).__name__}: {error}")
            pass_s += seconds
            ops.append({
                "pass": len(passes), "name": op.name, "seconds": seconds,
                "nominal_seconds": hostspeed.nominal_seconds(seconds, probe_before, probe_after),
                "probe_before_s": probe_before, "probe_after_s": probe_after, "failed": verdict.failed,
                "problems": verdict.problems, "figures": verdict.figures, "note": verdict.note,
            })
            probe_before = probe_after
        passes.append(pass_s)
        if first_pass_rss_mb is None:
            first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - start + pass_s > budget:
            os.sched_setaffinity(0, cpus)
            return {"ops": ops, "passes": passes, "peak_rss_mb": first_pass_rss_mb}


def op_outcomes(ops):
    """Ops attempted and failed in a run, each distinct op counted once.

    Every pass repeats the same ops on the same inputs, only to time them.  An
    op counts once, as failed if any of its repeats failed, so both counts
    follow from the seed and not from how many passes the host's speed
    allowed.  The ops are deterministic, so an op whose verdict differs
    between repeats is returned as unsteady.
    """
    verdicts = {}
    for op in ops:
        verdicts.setdefault(op["name"], set()).add(op["failed"])
    unsteady = sorted(name for name, seen in verdicts.items() if len(seen) > 1)
    failed = sum(True in seen for seen in verdicts.values())
    return len(verdicts), failed, unsteady


def pass_wall(phase, key="seconds"):
    """Seconds of one pass, summed op by op from each op's median over the passes.

    A shared host runs the same op up to twice as slowly for seconds at a time;
    the median over passes keeps each op's usual time.
    """
    seconds = {}
    for op in phase["ops"]:
        seconds.setdefault(op["name"], []).append(op[key])
    return sum(statistics.median(ts) for ts in seconds.values()), len(seconds)


def end_to_end(phase, setup_runs):
    wall, ops_per_pass = pass_wall(phase)
    nominal_wall, _ = pass_wall(phase, "nominal_seconds")
    return {
        "wall_s": wall,
        "ops_per_s": ops_per_pass / wall,
        "wall_nominal_s": nominal_wall,
        "ops_per_nominal_s": ops_per_pass / nominal_wall,
        "setup_s": statistics.median(setup_runs),
        "peak_rss_mb": phase["peak_rss_mb"],
    }


def extended(phase, ops, failed, attempted):
    """The rest of the issue's end-to-end figures, where the workload defines them."""
    times = sorted(op["seconds"] for op in phase["ops"])
    out = {"fail_frac": failed / attempted, "op_samples": len(times), "op_p50_s": statistics.median(times)}
    if len(times) >= 11:
        k = len(times) - 10   # the highest order statistic with ten samples above it
        out["op_tail_s"] = times[k - 1]
        out["op_tail_percentile"] = 100.0 * k / len(times)
    for key in ("value_rel_err", "gap_frac", "hull_relax_gap", "mc_exit_fraction"):
        vals = [op["figures"][key] for op in ops if key in op["figures"]]
        if vals:
            out[key] = max(vals)
    return out


def per_layer(tracer, untraced, traced):
    n_pass = len(traced["passes"])
    total, self_time = tracer.durations()
    c = tracer.counts

    def per_pass(value):
        return value / n_pass

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    solve_s = per_pass(total["solver.solve_hjb"])
    evals = per_pass(c["solver.stencil_evals"])
    gb = per_pass(c["solver.stencil_bytes"]) / 1e9
    relax_s = per_pass(total["facelift.facelift_general"])
    sweeps = per_pass(c["on_nodes@facelift.facelift_general"])
    path_steps = per_pass(c["simulate.path_steps"])
    untraced_wall = pass_wall(untraced)[0]
    traced_wall = pass_wall(traced)[0]
    return {
        "solver.solve_s": solve_s,
        "solver.self_s": per_pass(self_time["solver"]),
        "solver.substeps": per_pass(c["solver.substeps"]),
        "solver.stencil_evals": evals,
        "solver.projections": per_pass(c["solver.projections"]),
        "solver.ns_per_stencil_eval": ratio(solve_s, evals, 1e9),
        "solver.gb_moved_computed": gb,
        "solver.gb_per_s_computed": ratio(gb, solve_s),
        "facelift.hull_s": per_pass(total["facelift.concave_envelope"]),
        "facelift.relax_s": relax_s,
        "facelift.self_s": per_pass(self_time["facelift"]),
        "facelift.relax_sweeps": sweeps,
        "facelift.us_per_sweep": ratio(relax_s, sweeps, 1e6),
        "facelift.relax_failures": per_pass(c["facelift.relax_failures"]),
        "simulate.sim_s": per_pass(total["simulate"]),
        "simulate.self_s": per_pass(self_time["simulate"]),
        "simulate.calls": per_pass(c["simulate.calls"]),
        "simulate.path_steps": path_steps,
        "simulate.ns_per_path_step": ratio(per_pass(total["simulate.simulate_paths"]), path_steps, 1e9),
        "simulate.state_mb_computed": c["simulate.state_mb_computed"],
        "simulate.exit_fraction": ratio(c["simulate.exited_paths"], c["simulate.paths"]),
        "certify.sub_s": per_pass(total["certify.certify_subsolution"]),
        "certify.super_s": per_pass(total["certify.certify_supersolution"]),
        "certify.bracket_s": per_pass(total["certify.bracket_report"]),
        "certify.self_s": per_pass(self_time["certify"]),
        "certify.records": per_pass(c["certify.records"]),
        "certify.failed_records": per_pass(c["certify.failed_records"]),
        "certify.bracket_points_failed": per_pass(c["certify.bracket_points_failed"]),
        "cli.pipeline_s": per_pass(total["cli.main"]),
        "cli.self_s": per_pass(self_time["cli"]),
        "specio.write_s": per_pass(total["specio"]),
        "specio.bytes_written": per_pass(c["specio.bytes_written"]),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }


def setup_probe(args):
    """Set-up time of a fresh process: import hjbkit and build this workload's inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# run record, hygiene, output
# ---------------------------------------------------------------------------

def run_record(args, import_s):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "thread_pins": THREAD_PINS,
        "commit": git_commit(),
        "import_s": import_s,
        "loop": "closed: one op at a time, each op starts when the previous one has returned",
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git (which would look above it)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def root_snapshot():
    snap = {}
    with os.scandir(ROOT) as it:
        for entry in it:
            if entry.is_file(follow_symlinks=False):
                st = entry.stat(follow_symlinks=False)
                snap[entry.name] = (st.st_mtime_ns, st.st_size)
            else:
                snap[entry.name] = None
    return snap


def root_diff(before, after):
    return sorted(name for name in set(before) | set(after) if before.get(name, 0) != after.get(name, 0))


def print_report(record, e2e, extra, layers, ops, problems, setup_runs):
    print("# run " + " ".join(f"{k}={v}" for k, v in record.items() if k != "thread_pins"))
    print("# thread pins " + " ".join(f"{k}={v}" for k, v in record["thread_pins"].items()))
    for name, unit in (("wall_s", "s"), ("ops_per_s", "1/s")) + END_TO_END:
        print(f"{name} = {e2e[name]:.6g} {unit}")
    print("  (*_nominal_* scale each op shorter than 10 s to the nominal host speed, "
          "probed on its core just before and after it)")
    print(f"  (setup_s is the median of {len(setup_runs)} fresh-process set-ups: "
          + ", ".join(f"{s:.4f}" for s in setup_runs) + ")")
    print(f"fail_frac = {extra['fail_frac']:.6g} fraction (distinct ops; each repeat of an op is checked)")
    print(f"op_p50_s = {extra['op_p50_s']:.6g} s (median of {extra['op_samples']} ops)")
    if "op_tail_s" in extra:
        print(f"op_tail_s = {extra['op_tail_s']:.6g} s (p{extra['op_tail_percentile']:.1f} "
              f"of {extra['op_samples']} ops, 10 above it)")
    else:
        print(f"op_tail_s = n/a (needs 11 ops for ten above a percentile; {extra['op_samples']} measured)")
    for key, unit in (("value_rel_err", "fraction"), ("gap_frac", "fraction"),
                      ("hull_relax_gap", "value"), ("mc_exit_fraction", "fraction")):
        print(f"{key} = {extra[key]:.6g} {unit}" if key in extra else f"{key} = n/a for this workload")
    failed_ops = [op for op in ops if op["failed"]]
    for op in failed_ops[:10]:
        print(f"failed op {op['name']} (pass {op['pass']}): {op['note'] or '; '.join(op['problems'])}")
    if len(failed_ops) > 10:
        print(f"... and {len(failed_ops) - 10} more failed ops")
    print("correctness: " + ("PASS" if not problems else "FAIL"))
    for p in problems[:20]:
        print(f"  {p}")
    if layers is not None:
        for name, unit in PER_LAYER:
            print(f"{name} = {layers[name]:.6g} {unit}")


def save(args, doc):
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1, default=str)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------

def run_all(args):
    results = {}
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"## {name}", flush=True)
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
        print(done.stdout, end="")
        print(done.stderr, end="", file=sys.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            ok = False
            continue
        results[name] = json.loads(lines[-1])
        ok &= results[name]["correct"]
    names = PER_LAYER if args.trace else END_TO_END
    print("## summary")
    print(f"{'metric':32s}" + "".join(f"{w:>20s}" for w in WORKLOAD_NAMES))
    for metric, unit in names:
        cells = [results[w]["metrics"][metric]["value"] if w in results else float("nan")
                 for w in WORKLOAD_NAMES]
        print(f"{metric + ' [' + unit + ']':32s}" + "".join(f"{v:20.6g}" for v in cells))
    for w in WORKLOAD_NAMES:
        if w in results:
            r = results[w]
            print(f"{w}: correct={r['correct']} failed {r['failed']} of {r['attempted']} ops")
        else:
            print(f"{w}: no result")
    print(json.dumps(results))
    return 0 if ok and len(results) == len(WORKLOAD_NAMES) else 1


if __name__ == "__main__":
    sys.exit(main())
