"""In-memory span and counter recorder wrapped around hjbkit's public functions.

Nothing in the package is edited: ``Tracer.install`` rebinds each traced
name in every hjbkit module that imported it (``hjbkit.cli.solve_hjb``,
``hjbkit.certify.simulate_paths`` and so on) to a wrapper that records a
span, and ``Tracer.uninstall`` puts the originals back.  Spans carry a name,
a layer, start and end times, the id of the enclosing span and the id of the
benchmark op that caused them; counters are read from each call's result at
the same boundary.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from collections import defaultdict

# (layer, function, modules whose global of that name is rebound)
TRACED = (
    ("cli", "main", ("hjbkit.cli",)),
    ("solver", "solve_hjb", ("hjbkit.solver", "hjbkit.cli")),
    ("solver", "extract_policy", ("hjbkit.solver", "hjbkit.cli")),
    ("facelift", "concave_envelope", ("hjbkit.facelift", "hjbkit.cli")),
    ("facelift", "facelift_general", ("hjbkit.facelift", "hjbkit.cli")),
    ("simulate", "simulate_paths", ("hjbkit.simulate", "hjbkit.certify", "hjbkit.cli")),
    ("simulate", "estimate_value", ("hjbkit.simulate", "hjbkit.certify", "hjbkit.cli")),
    ("certify", "certify_subsolution", ("hjbkit.certify", "hjbkit.cli")),
    ("certify", "certify_supersolution", ("hjbkit.certify", "hjbkit.cli")),
    ("certify", "bracket_report", ("hjbkit.certify", "hjbkit.cli")),
    ("specio", "write_manifest", ("hjbkit.specio",)),
    ("specio", "atomic_write_text", ("hjbkit.specio",)),
)


def stencil_bytes(dim: int) -> int:
    """Bytes one stencil evaluation must move, computed from array sizes.

    Each (control, interior node) pair reads a centre weight and two neighbour
    weights per axis and writes one candidate value; the value slice itself is
    small next to them.
    """
    return 8 * (2 * dim + 2)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op_id = None
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _open(self, layer, name):
        span = {
            "id": len(self.spans),
            "name": f"{layer}.{name}",
            "layer": layer,
            "op": self.op_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def count(self, key, n=1):
        self.counts[key] += n

    def innermost(self):
        return self._stack[-1]["name"] if self._stack else None

    # -- installation ------------------------------------------------------

    def install(self):
        for layer, fname, modules in TRACED:
            original = getattr(importlib.import_module(modules[0]), fname)
            wrapper = self._wrap(layer, fname, original)
            for mod_name in modules:
                mod = importlib.import_module(mod_name)
                self._saved.append((mod, fname, getattr(mod, fname)))
                setattr(mod, fname, wrapper)

    def uninstall(self):
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved.clear()

    def _wrap(self, layer, fname, fn):
        observe = getattr(self, f"_after_{fname}", None)
        fail = getattr(self, f"_failed_{fname}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer, fname)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if fail is not None:
                    fail(exc)
                raise
            finally:
                self._close(span)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # -- counters read at the boundaries -------------------------------------

    def _after_solve_hjb(self, args, kwargs, sol):
        meta = sol.metadata
        substeps = int(meta["substeps_per_interval"]) * (len(sol.times) - 1)
        interior = 1
        for n in sol.grid.shape:
            interior *= n - 2
        evals = substeps * int(meta["control_grid_size"]) * interior
        self.count("solver.substeps", substeps)
        self.count("solver.projections", int(meta["projections"]))
        self.count("solver.stencil_evals", evals)
        self.count("solver.stencil_bytes", evals * stencil_bytes(sol.grid.dim))

    def _failed_facelift_general(self, exc):
        self.count("facelift.relax_failures")

    def _after_simulate_paths(self, args, kwargs, ens):
        n_paths = ens.states.shape[0]
        self.count("simulate.calls")
        self.count("simulate.paths", n_paths)
        self.count("simulate.path_steps", n_paths * (len(ens.times) - 1))
        self.count("simulate.exited_paths", int((ens.exit_step >= 0).sum()))
        mb = ens.states.nbytes / 1e6
        self.counts["simulate.state_mb_computed"] = max(self.counts["simulate.state_mb_computed"], mb)

    def _after_certify_subsolution(self, args, kwargs, report):
        self.count("certify.records", len(report.records))
        self.count("certify.failed_records", len(report.failing()))

    _after_certify_supersolution = _after_certify_subsolution

    def _after_bracket_report(self, args, kwargs, report):
        self.count("certify.bracket_points_failed", sum(1 for p in report.points if not p.ok))

    def _after_atomic_write_text(self, args, kwargs, result):
        text = args[1] if len(args) > 1 else kwargs["text"]
        self.count("specio.bytes_written", len(text.encode("utf-8")))

    # -- summaries ---------------------------------------------------------

    def durations(self):
        """Total seconds per span name and per layer, and self seconds per layer.

        Totals count only spans whose parent is in another layer, so nested
        calls within one layer are not counted twice.  A span's self time is
        its duration minus that of its child spans.
        """
        by_id = {s["id"]: s for s in self.spans}
        total = defaultdict(float)
        self_time = defaultdict(float)
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        for s in self.spans:
            dur = s["end"] - s["start"]
            self_time[s["layer"]] += dur - child_time[s["id"]]
            parent = by_id.get(s["parent"])
            if parent is None or parent["layer"] != s["layer"]:
                total[s["name"]] += dur
                total[s["layer"]] += dur
        return total, self_time


def counting_constraint(constraint, tracer):
    """The same constraint, counting each ``on_nodes`` call under the innermost span.

    A relaxation sweep of ``facelift_general`` evaluates ``on_nodes`` exactly
    once, so the count under ``facelift.facelift_general`` is its sweep count.
    """
    base = type(constraint)

    @dataclasses.dataclass(frozen=True)
    class CountingConstraint(base):
        def on_nodes(self, t, X, P, M):
            tracer.count(f"on_nodes@{tracer.innermost()}")
            return base.on_nodes(self, t, X, P, M)

    return CountingConstraint(constraint.fn, constraint.family, constraint.params)
