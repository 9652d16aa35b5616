"""Face-lifted terminal conditions.

The face-lift of a payoff g is the smallest function above g that is a
supersolution of G = 0 at the terminal time.  For the concavity constraint
G = -M in one dimension this is the least concave majorant, computed here as
an upper convex hull.  On the grid the face-lift is the solution of the
discrete obstacle problem  min(w - g, G_h(w)) = 0.  The second differences
G reads (`Constraint.second_difference_axes`) choose the one exact route:
G linear in M goes through policy iteration, and for a G that reads none, a
positive constant, the face-lift is g itself.  A constraint outside the
built-in families is refused when it is built.

The hull route takes exact chords between float hull vertices and
canonicalizes its float output to have non-positive second differences
exactly; this makes idempotence, dominance and monotonicity hold to the last
bit, which the property suite asserts without tolerances.  Every float is an
integer times a power of two, so the exact arithmetic runs on Python ints at
one power-of-two scale per array, and each chord is rounded to float by one
correctly rounded int/int division.  The repair tries one ulp up first and
divides only when that is not enough or lands on zero, whose sign (+0.0 for
a zero chord) the division gives.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .errors import ConvergenceError
from .grids import GridFunction, solve_tridiagonal

__all__ = [
    "concave_envelope",
    "facelift_general",
    "upper_hull_indices",
    "exact_concavity_repair",
]


def upper_hull_indices(x, v) -> list:
    """Nodes on the upper convex hull of (x_i, v_i), collinear kept.

    Andrew's monotone chain in float arithmetic.  A near-collinear node may
    land on either side of a chord; concave_envelope's exact chords and
    repair make its output independent of that choice.
    """
    x = np.asarray(x, dtype=float).tolist()
    v = np.asarray(v, dtype=float).tolist()
    hull = [0]
    for k in range(1, len(x)):
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (x[j] - x[i]) * (v[k] - v[i]) - (v[j] - v[i]) * (x[k] - x[i]) > 0.0:
                hull.pop()  # j strictly below chord i-k
            else:
                break
        hull.append(k)
    return hull


def _scaled_ints(values):
    """Integers I and an exponent e >= 0 with values[i] == I[i] / 2**e exactly."""
    ratios = [float(t).as_integer_ratio() for t in values]
    e = max((d.bit_length() - 1 for _, d in ratios), default=0)
    return [n << (e - d.bit_length() + 1) for n, d in ratios], e


def exact_concavity_repair(x, v) -> np.ndarray:
    """Smallest float array >= v whose second differences are exactly <= 0.

    Correctly-rounded chord values can sit an ulp on the convex side of their
    neighbors; this lifts such nodes by the minimal representable amount
    (exact comparisons of integers at a power-of-two scale, so the result is
    canonical).  Most lifts are one ulp, so a node first tries the next float
    up: its step is an exact power of two, which one integer product against
    the chord decides.  When one ulp is not enough, or the step is finer than
    the scale, the chord is rounded by one correctly rounded division instead,
    and the scale is refined if the result needs it.  The next float up from
    -5e-324 is -0.0, so a lift to zero takes the division too, which gives
    +0.0 for a zero chord and -0.0 for a negative one.  A lift can only break
    concavity at the two neighbours, so only they are checked again.  The lift
    is monotone in the neighbours, so any order of lifts ends at the same
    least fixed point.
    """
    out = np.asarray(v, dtype=float).tolist()
    n = len(out)
    X, _ = _scaled_ints(x)
    V, e = _scaled_ints(out)
    # the chord at k times span is V[k-1] hp + V[k+1] hm (hm, hp: spacings either side)
    hm = [None] + [X[k] - X[k - 1] for k in range(1, n - 1)]
    hp = [None] + [X[k + 1] - X[k] for k in range(1, n - 1)]
    span = [None] + [X[k + 1] - X[k - 1] for k in range(1, n - 1)]
    pending = deque(range(1, n - 1))
    queued = [True] * n  # the two edges stay marked, so they are never queued
    while pending:
        k = pending.popleft()
        queued[k] = False
        num = V[k - 1] * hp[k] + V[k + 1] * hm[k]
        if V[k] * span[k] < num:
            m = math.nextafter(out[k], math.inf)
            f = math.frexp(m - out[k])[1] - 1 + e  # m - out[k] == 2**f / 2**e exactly
            if m and f >= 0 and (V[k] + (1 << f)) * span[k] >= num:
                out[k] = m
                V[k] += 1 << f
            else:
                m = num / (span[k] << e)  # one correctly rounded division
                M, d = m.as_integer_ratio()  # m = M / d, d a power of two
                if (M * span[k]) << e < num * d:
                    m = math.nextafter(m, math.inf)
                    M, d = m.as_integer_ratio()
                s = d.bit_length() - 1
                if s > e:  # m is finer than the scale: rescale every value
                    V = [t << (s - e) for t in V]
                    e = s
                out[k] = m
                V[k] = M << (e - s)
            if not queued[k - 1]:
                queued[k - 1] = True
                pending.append(k - 1)
            if not queued[k + 1]:
                queued[k + 1] = True
                pending.append(k + 1)
    return np.array(out)


def concave_envelope(g_grid: GridFunction) -> GridFunction:
    """Least concave majorant of the piecewise-linear interpolant, on the nodes.

    One-dimensional grids only; higher dimensions go through facelift_general.
    """
    if g_grid.grid.dim != 1:
        raise ValueError("concave_envelope handles 1-D grids; use facelift_general for 2-D")
    x = g_grid.grid.axes[0]
    v = g_grid.values
    hull = upper_hull_indices(x, v)
    out = np.array(v, dtype=float)
    X, _ = _scaled_ints(x)
    V, e = _scaled_ints(out.tolist())
    for a, b in zip(hull[:-1], hull[1:]):
        span = (X[b] - X[a]) << e
        for k in range(a + 1, b):
            # V[a] + (V[b] - V[a]) (X[k] - X[a]) / (X[b] - X[a]), rounded once
            out[k] = (V[a] * (X[b] - X[k]) + V[b] * (X[k] - X[a])) / span
    # exact chords lie below the real hull, so the repair starts between g and
    # its least fixed point whichever near-collinear nodes the hull kept
    np.maximum(out, v, out=out)
    out = exact_concavity_repair(x, out)
    return g_grid.with_values(out)


def _constraint_on_grid(problem, grid, w):
    """G(T, x, Dw, D2w) at every node (1-D or 2-D grids); D2w is diagonal,
    since no constraint family reads a mixed derivative."""
    if grid.dim > 2:
        raise ValueError("facelift supports 1-D and 2-D grids only")
    d = grid.dim
    P = np.empty(w.shape + (d,))
    M = np.zeros(w.shape + (d, d))
    for k, stencil in enumerate(grid.stencils):
        # swapaxes brings axis k to the front (the same as moveaxis for d <= 2)
        stencil.derivatives(w.swapaxes(k, 0), P[..., k].swapaxes(k, 0), M[..., k, k].swapaxes(k, 0))
    G = problem.constraint.on_nodes(problem.horizon, grid.nodes(), P.reshape(-1, d), M.reshape(-1, d, d))
    return G.reshape(w.shape)


# a node switches rows only when the other row is smaller by more than this
# many ulps of max|g|; rounding-level ties otherwise make the policy cycle
_SWITCH_ULPS = 64


def _shifted(a, k, s):
    """a at the interior nodes moved by s along axis k."""
    index = [slice(1, -1)] * a.ndim
    index[k] = slice(1 + s, a.shape[k] - 1 + s)
    return a[tuple(index)]


def _block_tridiagonal_solve(diag, lower, upper, left, right, rhs):
    """Solve a linear system on an (L, m) array of unknowns (a 1-D one is one line).

    Row (i, j) reads  left u[i-1, j] + lower u[i, j-1] + diag u[i, j]
    + upper u[i, j+1] + right u[i+1, j] = rhs  (couplings off the array are
    zero).  One line is one Thomas solve; for more, block elimination along
    the first axis factors one dense m x m block per line, so the full
    (L m)^2 matrix is never formed.
    """
    diag, lower, upper, left, right, rhs = map(np.atleast_2d, (diag, lower, upper, left, right, rhs))
    n_lines, m = diag.shape
    if n_lines == 1:
        return solve_tridiagonal(lower[0], diag[0], upper[0], rhs[0])[None]
    line = np.arange(m)
    carried = []  # per line: (block^-1 diag(right), block^-1 rhs) after elimination
    for i in range(n_lines):
        block = np.zeros((m, m))
        block[line, line] = diag[i]
        block[line[1:], line[:-1]] = lower[i, 1:]
        block[line[:-1], line[1:]] = upper[i, :-1]
        f = np.array(rhs[i])
        if i:
            x_prev, y_prev = carried[-1]
            block -= left[i][:, None] * x_prev
            f -= left[i] * y_prev
        if i + 1 < n_lines:
            sol = np.linalg.solve(block, np.column_stack([np.diag(right[i]), f]))
            carried.append((sol[:, :m], sol[:, m]))
        else:
            carried.append((None, np.linalg.solve(block, f)))
    u = np.empty((n_lines, m))
    u[-1] = carried[-1][1]
    for i in range(n_lines - 2, -1, -1):
        x, y = carried[i]
        u[i] = y - x @ u[i + 1]
    return u


def _policy_iteration(g_grid, problem, axes, max_iters):
    """Howard's policy iteration for min(w - g, G_h(w)) = 0, G = -sum_k d2w/dx_k^2.

    Each interior node takes either the obstacle row w = g or the operator row
    G_h(w) = 0; the edges hold g.  The policy starts on the operator row
    everywhere, and after each linear solve a node switches to whichever row is
    smaller there (the operator row divided by its diagonal, so both are in
    value units).  The iterates rise monotonically to the discrete solution
    (Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 2009).
    """
    grid = g_grid.grid
    g = g_grid.values
    inner = grid.interior
    shape = g[inner].shape
    # per axis, the weights of w[p - e_k], w[p], w[p + e_k] in d2w/dx_k^2 at interior p
    weights = {}
    for k in axes:
        view = [1] * grid.dim
        view[k] = -1
        weights[k] = [np.broadcast_to(c.reshape(view), shape) for c in grid.stencils[k].weights(0.0, 2.0)]
    centre = -sum(w0 for _, w0, _ in weights.values())  # diagonal of the rows of G_h
    margin = _SWITCH_ULPS * np.finfo(float).eps * float(np.max(np.abs(g)))
    operator = np.ones(shape, dtype=bool)
    w = np.array(g, dtype=float)
    residual = None
    for _ in range(max_iters):
        # policy evaluation: unknowns on operator rows, g everywhere else
        on_row = np.zeros(grid.shape, dtype=bool)
        on_row[inner] = operator
        known = np.where(on_row, 0.0, g)
        rhs = np.where(operator, 0.0, g[inner])
        coupling = {}
        for k, (wm, _, wp) in weights.items():
            rhs += np.where(operator, wm * _shifted(known, k, -1) + wp * _shifted(known, k, 1), 0.0)
            coupling[k] = [np.where(operator & _shifted(on_row, k, s), -c, 0.0)
                           for s, c in ((-1, wm), (1, wp))]
        # lines run along the last axis; in 2-D, axis 0 couples the lines
        zero = (np.zeros(shape),) * 2
        lower, upper = coupling.get(grid.dim - 1, zero)
        left, right = coupling.get(0, zero) if grid.dim == 2 else zero
        diag = np.where(operator, centre, 1.0)
        u = _block_tridiagonal_solve(diag, lower, upper, left, right, rhs)
        w[inner] = np.where(operator, u.reshape(shape), g[inner])
        # policy improvement
        gh = _constraint_on_grid(problem, grid, w)[inner]
        gap = w[inner] - g[inner]
        slack = gh / centre
        residual = float(np.max(np.abs(np.minimum(gap, gh))))
        switch = np.where(operator, gap < slack - margin, slack < gap - margin)
        if not switch.any():
            return g_grid.with_values(np.maximum(w, g))  # the edges already hold g
        operator ^= switch
    raise ConvergenceError(
        f"facelift policy iteration did not converge in {max_iters} iterations",
        last_iterate=g_grid.with_values(w),
        residual=residual,
    )


def facelift_general(
    g_grid: GridFunction,
    problem,
    max_iters: int | None = None,
    tol: float | None = None,
) -> GridFunction:
    """Solution of the discrete obstacle problem min(w - g, G_h(w)) = 0.

    The second differences G reads decide the route.  For G linear in M
    Howard's policy iteration solves it exactly, up to rounding;
    the result dominates g exactly and equals g on the box edges.  Running out
    of max_iters iterations raises ConvergenceError; the default, one more than
    the number of interior nodes, is more than any payoff tried has needed.
    For a G that reads none, a positive constant, every w >= g is a
    supersolution, so the face-lift is g itself.  tol is kept for older
    callers and not read.
    """
    grid = g_grid.grid
    if grid.dim > 2:
        raise ValueError("facelift supports 1-D and 2-D grids only")
    axes = problem.constraint.second_difference_axes(grid.dim)
    if not axes:
        return g_grid.with_values(np.array(g_grid.values, dtype=float))
    if max_iters is None:
        max_iters = math.prod(n - 2 for n in grid.shape) + 1
    return _policy_iteration(g_grid, problem, axes, max_iters)
