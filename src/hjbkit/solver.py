"""Monotone solver for the constrained HJB equation.

Backward in time from the terminal slice, with the generator

    L^u v  = b(x,u) . D_h v + 1/2 Tr(sigma sigma^T D2_h v),

the drift always upwinded by its sign and the diffusion on central (3-point,
non-uniform) stencils, all taken from grids.AxisStencil.  It is evaluated in
difference form, the sum over the axes of  wm (v[i-1] - v[i]) + wp (v[i+1] - v[i]),
two products and one add per axis; the centre weight is -(wm + wp), so every
row sums to zero as written and a constant slice gives exactly 0.  The step
rule follows the grid's dimension:

- 1-D grids step fully implicitly, one step per output interval (or per
  internal step of a given dt):

      v(t_n) - dt * max_u  L^u v(t_n) = v(t_{n+1}).

  For every control the rows of  I - dt L^u  form a tridiagonal M-matrix, so
  the step is monotone with no CFL bound.  Howard's policy iteration solves
  the max, one Thomas solve per iteration, warm-started from the argmax
  policy of the previous slice (Forsyth & Labahn, J. Comp. Finance 2007;
  Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 2009).  The last
  elimination is kept and reused while dt and the policy are the same, so
  most steps start with a substitution alone.  Each iteration takes the
  argmax of L^u w, the first of tied controls.  Where a node's weight pairs
  (wm_u, wp_u), in control order, are the vertices of a strictly convex
  polygon (checked once per solve), L^u w is unimodal in cyclic control
  order, and a control that beats its two cyclic neighbours by more than
  twice the rounding bound of L^u w is the unique computed maximum
  (extreme-point search on a convex polygon, O'Rourke, Computational
  Geometry in C).  So each node first tests its incoming control against
  its neighbours; the nodes that fail, or are not marked, evaluate every
  control and take np.argmax.  The policy, and every byte, are those of
  the full max.
- 2-D grids step explicitly,  v(t_n) = v(t_{n+1}) + dt * max_u  L^u v(t_{n+1}),
  and the diffusion must be diagonal.  Each output interval is subdivided
  until the CFL bound is met (an explicitly supplied dt must already
  satisfy it).

The coefficients are time-homogeneous, b(x,u) and sigma(x,u), so they are
read once and the stencil weights built from them serve every step of the
solve.

Each step is followed by a constraint step that keeps the slice on the G >= 0
side: either projection onto concave functions (G = -M, 1-D) or a one-sided
penalization.  Discrete comparison holds slice by slice.  Truncation-box
edges hold Dirichlet values taken from the terminal slice; only nodes off
every edge are stepped, and the argmax policy at an edge node is copied from
its nearest interior node.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, ConvergenceError, NumericalError
from .facelift import _SWITCH_ULPS, _constraint_on_grid, upper_hull_indices
from .grids import (
    AxisStencil,
    GridFunction,
    SpatialGrid,
    tridiagonal_elimination,
    tridiagonal_substitution,
    write_grid_csv,
)

__all__ = [
    "SchemeConfig",
    "SpaceTimeSolution",
    "solve_hjb",
    "extract_policy",
    "convergence_study",
    "ConvergenceStudy",
]

_PROJECT_TRIGGER = 1e-13   # relative convexity defect that triggers re-projection
_HOWARD_MAX_ITERS = 100    # policy iterations per implicit step (about 2 are typical)
CONSTRAINT_MODES = ("auto", "project", "penalize", "off")
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny   # above the absolute rounding error of a subnormal result


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme knobs.  dt, when given, caps the internal step: each output interval
    is split into equal steps no longer than dt.  On 2-D grids dt must also
    satisfy the CFL bound of the explicit step."""

    n_time_nodes: int = 101
    dt: float | None = None
    control_grid_resolution: int = 41
    constraint_mode: str = "auto"      # one of CONSTRAINT_MODES

    def __post_init__(self):
        if self.n_time_nodes < 2:
            raise ConfigurationError("need at least 2 time nodes")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigurationError(f"dt must be positive and finite, not {self.dt!r}")
        if self.control_grid_resolution < 1:
            raise ConfigurationError(
                f"control_grid_resolution must be at least 1, not {self.control_grid_resolution!r}")
        if self.constraint_mode not in CONSTRAINT_MODES:
            raise ConfigurationError(f"unknown constraint mode {self.constraint_mode!r}")


@dataclass(frozen=True)
class SpaceTimeSolution:
    """Backward-solved value slices with the per-node argmax policy table."""

    grid: SpatialGrid
    times: np.ndarray
    values: np.ndarray          # (n_times, *grid.shape)
    policies: np.ndarray        # (n_times, *grid.shape, k)
    metadata: dict = field(default_factory=dict)

    def slice_at(self, n: int) -> GridFunction:
        return GridFunction(self.grid, self.values[n])

    def time_index(self, t):
        """Index of the latest time node <= t, clamped to the table; an index
        array for an array of times."""
        n = np.searchsorted(self.times, t, side="right") - 1
        n = np.minimum(np.maximum(n, 0), len(self.times) - 1)
        return int(n) if n.ndim == 0 else n

    def value_at(self, t: float, x) -> float:
        return self.slice_at(self.time_index(t)).interpolate(x)

    def to_csv(self) -> str:
        """The grid CSV with a leading time column and trailing argmax-control columns."""
        nodes = self.grid.nodes()
        k = self.policies.shape[-1]
        header = ["t"] + [f"x{i}" for i in range(self.grid.dim)] + ["value"] + [f"u{i}" for i in range(k)]
        rows = np.column_stack([
            np.repeat(self.times, len(nodes)),
            np.tile(nodes, (len(self.times), 1)),
            self.values.reshape(-1),
            self.policies.reshape(-1, k),
        ])
        return write_grid_csv(header, rows)


def _float_upper_envelope(x, v):
    """Fast float upper concave envelope (facelift's hull chain + float chords)."""
    hull = upper_hull_indices(x, v)
    out = v.copy()
    for a, b in zip(hull[:-1], hull[1:]):
        if b > a + 1:
            t = (x[a + 1 : b] - x[a]) / (x[b] - x[a])
            out[a + 1 : b] = v[a] + (v[b] - v[a]) * t
    np.maximum(out, v, out=out)
    return out


def _convex_polygons(xs, ys):
    """Per column, whether the points (xs[u], ys[u]), u = 0..m-1 in row order,
    are the vertices of a strictly convex polygon.

    The edges run from each point to the next and from the last back to the
    first.  Every cross product of consecutive edges must have one strict
    sign beyond its rounding bound, so every turn is strict and in one sense,
    and the edge directions must wind once: they cross the line y = 0 twice
    (a direction is up where y > 0, or y = 0 and x > 0; a float difference
    has its exact sign).  Then a linear function of the points is unimodal
    in cyclic order.  Built one row at a time over column vectors, with no
    (rows x columns) temporaries.
    """
    m, n = xs.shape
    left = np.ones(n, dtype=bool)
    right = np.ones(n, dtype=bool)
    crossings = np.zeros(n, dtype=int)
    ex, ey = xs[0] - xs[-1], ys[0] - ys[-1]
    up = (ey > 0) | ((ey == 0) & (ex > 0))
    for u in range(m):
        fx, fy = xs[(u + 1) % m] - xs[u], ys[(u + 1) % m] - ys[u]
        p, q = ex * fy, ey * fx
        cross = p - q
        bound = (4 * _EPS) * (np.abs(p) + np.abs(q)) + _TINY
        left &= cross > bound
        right &= cross < -bound
        turned = (fy > 0) | ((fy == 0) & (fx > 0))
        crossings += turned != up
        ex, ey, up = fx, fy, turned
    return (left | right) & (crossings == 2)


class _Stepper:
    """Per-control stencil weights at the interior nodes of a 1-D or 2-D grid,
    built once from the coefficients.

    weights holds (wm, wp) per axis, one row per control; the centre weight
    is -(the sum of wm + wp over the axes), so every row of L^u sums to zero,
    and rate is the largest such sum, the CFL rate of the explicit step.
    Only nodes off every edge are stepped (the edges hold Dirichlet data), and
    neighbours are read by slicing, so no value wraps around the box.
    """

    def __init__(self, problem, grid, controls):
        self.controls = controls
        dim = grid.dim
        self.core = grid.interior
        points = grid.nodes().reshape(grid.shape + (dim,))[self.core].reshape(-1, dim)
        self.lower = [self.core[:d] + (slice(None, -2),) + self.core[d + 1 :] for d in range(dim)]
        self.upper = [self.core[:d] + (slice(2, None),) + self.core[d + 1 :] for d in range(dim)]
        self.buf = np.empty((controls.shape[0],) + tuple(n - 2 for n in grid.shape))
        self.scratch = np.empty_like(self.buf)
        self._eliminated = None   # (dt, policy, elimination) of the last Howard solve
        # b and sigma sigma^T at every (control, point)
        m, n = controls.shape[0], points.shape[0]
        X = np.broadcast_to(points, (m, n, dim))
        U = np.broadcast_to(controls[:, None, :], (m, n, controls.shape[1]))
        b = np.asarray(problem.drift(X, U), dtype=float).reshape(m, n, dim)
        s = np.asarray(problem.diffusion(X, U), dtype=float).reshape(m, n, dim, problem.noise_dim)
        sst = np.einsum("mnij,mnkj->mnik", s, s)
        del s  # only sst is read below; freeing sigma keeps it out of the peak memory
        if dim > 1 and np.max(np.abs(sst[..., ~np.eye(dim, dtype=bool)])) > 1e-14:
            raise ConfigurationError("2-D solver supports diagonal diffusion only")
        self.weights = []
        for d, axis in enumerate(grid.axes):
            stencil = AxisStencil(axis, trailing=dim - 1 - d)
            wm, _, wp = stencil.weights(b[..., d].reshape(self.buf.shape), sst[..., d, d].reshape(self.buf.shape))
            off = wm + wp if d == 0 else off + wm + wp
            self.weights.append((wm, wp))
        self.rate = float(np.max(off))
        # the Howard step's neighbour test: the nodes where it decides the
        # argmax, and per node 4 eps times the largest wm and wp (both >= 0).
        # 4 eps (max wm |a| + max wp |b|) is more than twice the rounding
        # error of any computed  wm a + wp b  at that node.
        self.convex = None
        self.searched = 0   # node-iterations of the Howard step that took the full max
        if dim == 1 and controls.shape[1] == 1 and m >= 3:
            convex = _convex_polygons(wm, wp)
            if convex.any():
                self.convex = convex
                self.rounding = (4 * _EPS) * wm.max(axis=0), (4 * _EPS) * wp.max(axis=0)

    def _generator(self, v, out):
        """L^u v at the interior nodes, one row per control, in difference form:
        the sum over the axes of  wm (v[i-1] - v[i]) + wp (v[i+1] - v[i]),
        so a constant v gives exactly 0."""
        centre = v[self.core]
        for d, ((wm, wp), lo, hi) in enumerate(zip(self.weights, self.lower, self.upper)):
            if d == 0:
                np.multiply(wm, v[lo] - centre, out=out)
            else:
                out += np.multiply(wm, v[lo] - centre, out=self.scratch)
            out += np.multiply(wp, v[hi] - centre, out=self.scratch)
        return out

    def step(self, v, dt):
        """v + dt L^u v at the interior nodes, one row per control (a reused
        buffer): the explicit step of 2-D grids, monotone for dt * rate <= 1."""
        out = self._generator(v, self.buf)
        out *= dt
        out += v[self.core]
        return out

    def implicit_step(self, v, dt, policy, scale):
        """The implicit step of 1-D grids: w - dt max_u L^u w = v at the interior nodes.

        The edges of v are Dirichlet data.  Howard's policy iteration starts
        from `policy` (one control index per interior node): each iteration
        solves the tridiagonal system of the current policy, then a node
        switches to its best control only where that raises dt L^u w by more
        than a margin of _SWITCH_ULPS ulps of `scale` (the size of the values)
        times the largest absolute row sum of I - dt L^u, the rounding level
        of dt L^u w; rounding-level ties then cannot make the policy cycle.

        The best control is the argmax of L^u w, the first of tied controls.
        At a node in self.convex, L^u w is unimodal in cyclic control order,
        so the node keeps its control u when L^u w beats L^{u-1} w and
        L^{u+1} w (mod the number of controls) by more than twice their
        rounding bound: u is then the unique computed maximum.  Every other
        node evaluates all controls and takes np.argmax over them, and is
        counted in self.searched.  Both give np.argmax of the full generator
        bit for bit.  Returns (w at the interior nodes, the final policy, the
        iterations, the argmax of the last iteration's generator at w).
        """
        (wm, wp), = self.weights
        m, n = wm.shape
        cols = np.arange(n)
        margin = _SWITCH_ULPS * _EPS * scale * (1.0 + 2.0 * dt * self.rate)
        full = np.array(v, dtype=float)
        centre = v[1:-1]
        down, up = v[:-2] - centre, v[2:] - centre
        for iteration in range(1, _HOWARD_MAX_ITERS + 1):
            lower, upper = wm[policy, cols], wp[policy, cols]
            # solve for the increment w - v (zero on the edges): a slice with
            # L^u v = 0 exactly, a constant say, then stays bitwise unchanged
            rhs = dt * (lower * down + upper * up)
            full[1:-1] = centre + tridiagonal_substitution(self._elimination(dt, policy, lower, upper), rhs)
            if self.convex is None:
                search = cols
                gen = self._generator(full, self.buf)
            else:
                # the products and add of _generator, so every value has its bits
                w = full[1:-1]
                a, b = full[:-2] - w, full[2:] - w
                here = lower * a + upper * b
                tol = self.rounding[0] * np.abs(a) + self.rounding[1] * np.abs(b) + _TINY
                kept = self.convex.copy()
                for u in ((policy - 1) % m, (policy + 1) % m):
                    kept &= here - (wm[u, cols] * a + wp[u, cols] * b) > tol
                search = np.flatnonzero(~kept)
                gen = wm[:, search] * a[search] + wp[:, search] * b[search]
            self.searched += search.size
            found = np.argmax(gen, axis=0)
            best = policy.copy()
            best[search] = found
            rows = np.arange(search.size)
            switch = np.zeros(n, dtype=bool)
            switch[search] = dt * (gen[found, rows] - gen[policy[search], rows]) > margin
            if not switch.any():
                return full[1:-1], policy, iteration, best
            policy = np.where(switch, best, policy)
        raise ConvergenceError(
            f"Howard policy iteration did not converge in {_HOWARD_MAX_ITERS} iterations",
            last_iterate=full,
        )

    def _elimination(self, dt, policy, lower, upper):
        """The elimination of the rows of I - dt L^policy, lower and upper the
        policy's wm and wp.  The last one is kept with the dt and the policy
        it was built for, and reused when both match: most steps start from
        the previous step's final policy."""
        last = self._eliminated
        if last is not None and last[0] == dt and np.array_equal(last[1], policy):
            return last[2]
        elimination = tridiagonal_elimination(-dt * lower, 1.0 + dt * (lower + upper), -dt * upper)
        self._eliminated = (dt, policy.copy(), elimination)
        return elimination

    def argmax(self, v):
        """Argmax control index per interior node, the first of tied controls."""
        return np.argmax(self._generator(v, np.empty_like(self.buf)), axis=0)

    def table(self, index):
        """The controls of an argmax index; each edge node copies its nearest interior node."""
        return self.controls[np.pad(index, 1, mode="edge")]


def _penalty_step(problem, grid):
    """h_min^2 / (2 |dG/dM|), |dG/dM| the number of second-difference axes of G.

    A positive constant G has none; the floor keeps its step finite, and the
    penalty never moves a slice there since G_h > 0.
    """
    coef = max(len(problem.constraint.second_difference_axes(grid.dim)), 1e-12)
    hmin = min(float(np.min(np.diff(a))) for a in grid.axes)
    return hmin * hmin / (2.0 * coef)


def _resolve_mode(config, problem, grid):
    """auto projects on a 1-D grid where G reads the second difference (G = -M),
    penalizes where G reads second differences otherwise, and is off where it reads none."""
    axes = problem.constraint.second_difference_axes(grid.dim)
    mode = config.constraint_mode
    if mode == "auto":
        mode = ("project" if grid.dim == 1 else "penalize") if axes else "off"
    if mode == "project" and (grid.dim != 1 or not axes):
        raise ConfigurationError("projection mode requires a 1-D grid with G = -M")
    return mode


def solve_hjb(problem, terminal: GridFunction, config: SchemeConfig | None = None) -> SpaceTimeSolution:
    """Backward solve of min{-v_t - H, G} = 0 with the given terminal data."""
    if config is None:
        config = SchemeConfig()
    grid = terminal.grid
    problem.require_box_inside(grid.box, "truncation box")
    mode = _resolve_mode(config, problem, grid)
    controls = problem.control_grid(config.control_grid_resolution)
    times = np.linspace(0.0, problem.horizon, config.n_time_nodes)
    dt_out = times[1] - times[0]

    stepper = _Stepper(problem, grid, controls)
    implicit = grid.dim == 1
    if implicit:
        dt_max, m_sub = None, 1  # the implicit step has no CFL bound
    else:
        dt_max = 1.0 / stepper.rate if stepper.rate > 0 else math.inf
        if config.dt is not None and config.dt > dt_max * (1 + 1e-12):
            raise ConfigurationError(
                f"dt={config.dt:g} violates the CFL bound dt<={dt_max:g} "
                "computed over the grid and control box"
            )
        m_sub = max(1, math.ceil(dt_out / dt_max)) if math.isfinite(dt_max) else 1
    if config.dt is not None:
        m_sub = max(1, math.ceil(dt_out / config.dt - 1e-12))
    dt = dt_out / m_sub

    # penalty weight: strong enough to enforce G_h >= -tol, small enough to stay monotone
    if mode == "penalize":
        rho = 0.9 * _penalty_step(problem, grid) / dt

    n_times = len(times)
    values = np.empty((n_times,) + grid.shape)
    k = problem.control_dim
    policies = np.empty((n_times,) + grid.shape + (k,))
    v = np.array(terminal.values, dtype=float)
    values[-1] = v
    policy = stepper.argmax(v)
    policies[-1] = stepper.table(policy)

    scale = max(1.0, float(np.max(np.abs(v))))
    projections = 0
    howard_iterations = 0
    t_wall = _time.perf_counter()
    core = grid.interior
    if mode == "project":
        x = grid.axes[0]
        hm, hp = grid.stencils[0].hm, grid.stencils[0].hp
    for n in range(n_times - 2, -1, -1):
        for _ in range(m_sub):
            # the last Howard iteration's argmax is the slice's argmax while
            # nothing moves the slice after it
            best = None
            if implicit:
                v[core], policy, iterations, best = stepper.implicit_step(v, dt, policy, scale)
                howard_iterations += iterations
            else:
                v[core] = stepper.step(v, dt).max(axis=0)
            if mode == "project":
                # trigger only on a real convexity defect (cheap vectorized test)
                defect = v[2:] * hm - v[1:-1] * (hm + hp) + v[:-2] * hp
                if np.max(defect) > _PROJECT_TRIGGER * scale:
                    v = _float_upper_envelope(x, v)
                    projections += 1
                    best = None
            elif mode == "penalize":
                gh = _constraint_on_grid(problem, grid, v)
                lifted = np.maximum(v, v - (dt * rho) * gh)[core]
                if not np.array_equal(lifted, v[core]):
                    best = None
                v[core] = lifted
        if not np.all(np.isfinite(v)):
            raise NumericalError("non-finite values in slice", slice_index=n)
        values[n] = v
        policy = stepper.argmax(v) if best is None else best
        policies[n] = stepper.table(policy)

    meta = {
        "mode": mode,
        "dt_internal": dt,
        "substeps_per_interval": m_sub,
        "cfl_dt_max": dt_max,
        "control_grid_size": int(controls.shape[0]),
        "projections": projections,
        "howard_iterations": howard_iterations,
        "argmax_searched": stepper.searched,
        "wall_seconds": _time.perf_counter() - t_wall,
    }
    return SpaceTimeSolution(grid, times, values, policies, meta)


def _nearest_locator(axis):
    """Nearest node of `axis` to each x, ties to the left node.

    For a strictly increasing axis this is the rule
    j = clip(searchsorted(axis, x), 1, n - 1), then j - 1 when
    x - axis[j-1] <= axis[j] - x.  The cell c of x is guessed affinely in x,
    or in log x where that maps the nodes closer to their indices, and kept
    when axis[c] <= x <= axis[c+1]: at a node, both cells around it give that
    node.  Only the points outside their guessed cell are searched, so the
    result is exact on any axis, and only its speed depends on the guess.
    Each call returns a new index array.
    """
    n = axis.size
    maps = [np.positive] + ([np.log] if axis[0] > 0 else [])

    def misfit(f):
        pos = (f(axis) - f(axis[0])) * ((n - 1) / (f(axis[-1]) - f(axis[0])))
        return np.max(np.abs(pos - np.arange(n)))

    f = min(maps, key=misfit)
    f0, scale = f(axis[0]), (n - 1) / (f(axis[-1]) - f(axis[0]))
    lower, upper = axis[:-1], axis[1:]

    def nearest(xs):
        # clipped into the axis before the map, since log x needs x > 0; NaN
        # goes to the last node, where searchsorted puts it.  The clipped
        # point has the same nearest node.
        xc = np.maximum(xs, axis[0])
        np.fmin(xc, axis[-1], out=xc)
        dl = f(xc)      # the guess, then the distance to the cell's left node
        dl -= f0
        dl *= scale
        np.maximum(dl, 0.0, out=dl)
        np.minimum(dl, n - 2, out=dl)
        c = dl.astype(np.intp)
        # c is in range, and mode="clip" spares take its buffered copy
        lower.take(c, out=dl, mode="clip")
        dr = upper.take(c)
        np.subtract(xc, dl, out=dl)
        np.subtract(dr, xc, out=dr)
        far = np.minimum(dl, dr) < 0.0
        if far.any():
            miss = np.flatnonzero(far)
            xm = xc[miss]
            cm = np.searchsorted(axis, xm)
            np.clip(cm, 1, n - 1, out=cm)
            cm -= 1
            c[miss] = cm
            dl[miss] = xm - lower[cm]
            dr[miss] = upper[cm] - xm
        c += dl > dr
        return c

    return nearest


def extract_policy(solution: SpaceTimeSolution):
    """Feedback rule: argmax control at the nearest node, latest time node <= t.

    Each call gathers its rows from the time slice of the table at one flat
    node index per row, and returns a new (n, k) array.
    """
    from .simulate import FeedbackPolicy

    policies = solution.policies
    shape = solution.grid.shape
    tables = np.ascontiguousarray(policies).reshape(len(policies), -1, policies.shape[-1])
    locators = [_nearest_locator(a) for a in solution.grid.axes]

    def rule(t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        node = locators[0](x[:, 0])
        for d in range(1, len(shape)):
            node *= shape[d]
            node += locators[d](x[:, d])
        return tables[solution.time_index(t)].take(node, axis=0)

    return FeedbackPolicy(rule, tag="grid-table")


@dataclass(frozen=True)
class ConvergenceStudy:
    shapes: tuple
    diffs: tuple
    orders: tuple


def refined_terminals(problem, terminal: GridFunction, levels: int) -> list:
    """The terminal followed by its data on `levels` successive dyadic refinements.

    The payoff is resampled on the fine nodes when the terminal equals it on
    the coarse nodes, so interpolation error does not floor a refinement
    study; any other terminal (a face-lift, say) is interpolated.
    """
    g_vals = problem.payoff(terminal.grid.nodes()).reshape(terminal.grid.shape)
    resample = np.allclose(g_vals, terminal.values, rtol=1e-12, atol=1e-12)
    terms = [terminal]
    for _ in range(levels):
        fine = terms[-1].grid.refine()
        source = problem.payoff if resample else terms[-1].interpolate
        terms.append(GridFunction(fine, source(fine.nodes()).reshape(fine.shape)))
    return terms


def convergence_study(
    problem,
    terminal: GridFunction,
    refinements: int,
    config: SchemeConfig | None = None,
    mode: str = "space",
) -> ConvergenceStudy:
    """Dyadic refinement study; successive sup-differences on the coarse nodes.

    mode="space" refines the grid (the internal step follows the scheme's
    rule); mode="time" keeps the grid and halves dt below the base solve's
    internal step.  The refined terminals come from `refined_terminals`.
    """
    if refinements < 2:
        raise ConfigurationError("refinements must be >= 2")
    if config is None:
        config = SchemeConfig()

    slices = []
    shapes = []
    if mode == "space":
        for level, term in enumerate(refined_terminals(problem, terminal, refinements)):
            sol = solve_hjb(problem, term, config)
            sl = tuple(slice(None, None, 2**level) for _ in range(term.grid.dim))
            slices.append(sol.values[0][sl])
            shapes.append(sol.grid.shape)
    elif mode == "time":
        # the base solve is level 0: dt = dt0 gives it the same substeps and bits
        sol = solve_hjb(problem, terminal, config)
        dt0 = sol.metadata["dt_internal"]
        for level in range(refinements + 1):
            if level:
                sol = solve_hjb(problem, terminal, replace(config, dt=dt0 / 2**level))
            slices.append(sol.values[0])
            shapes.append(sol.grid.shape)
    else:
        raise ConfigurationError("mode must be 'space' or 'time'")

    diffs = tuple(
        float(np.max(np.abs(slices[i] - slices[i + 1]))) for i in range(refinements)
    )
    orders = tuple(
        math.log2(diffs[i] / diffs[i + 1]) if diffs[i + 1] > 0 else math.inf
        for i in range(refinements - 1)
    )
    return ConvergenceStudy(tuple(shapes), diffs, orders)
