"""Face-lifted terminal conditions.

The face-lift of a payoff g is the smallest function above g that is a
supersolution of G = 0 at the terminal time.  For the concavity constraint
G = -M in one dimension this is the least concave majorant, computed here as
an upper convex hull.  For general G a clamped relaxation drives the discrete
complementarity system  min(w - g, G_h(w)) = 0  to its fixed point.

The hull route runs in exact rational arithmetic and canonicalizes its float
output to have non-positive second differences exactly; this makes
idempotence, dominance and monotonicity hold to the last bit, which the
property suite asserts without tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, GridMismatchError
from .grids import GridFunction, mixed_second

__all__ = [
    "concave_envelope",
    "facelift_general",
    "verify_facelift",
    "FaceliftVerification",
    "upper_hull_indices",
    "exact_concavity_repair",
]


def upper_hull_indices(x, v) -> list:
    """Nodes on the exact upper convex hull of (x_i, v_i), collinear kept.

    Cross products are evaluated in rational arithmetic so near-collinear
    float data cannot flip a hull decision.
    """
    xf = [Fraction(float(t)) for t in x]
    vf = [Fraction(float(t)) for t in v]
    hull: list = []
    for k in range(len(xf)):
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            cross = (xf[j] - xf[i]) * (vf[k] - vf[i]) - (vf[j] - vf[i]) * (xf[k] - xf[i])
            if cross > 0:  # j strictly below chord i-k
                hull.pop()
            else:
                break
        hull.append(k)
    return hull


def exact_concavity_repair(x, v) -> np.ndarray:
    """Smallest float array >= v whose second differences are exactly <= 0.

    Correctly-rounded chord values can sit an ulp on the convex side of their
    neighbors; this sweep lifts such nodes by the minimal representable amount
    (rational comparisons, so the result is canonical).
    """
    out = np.array(v, dtype=float)
    n = out.size
    changed = True
    while changed:
        changed = False
        for k in range(1, n - 1):
            xa, xk, xb = Fraction(float(x[k - 1])), Fraction(float(x[k])), Fraction(float(x[k + 1]))
            va, vk, vb = Fraction(out[k - 1]), Fraction(out[k]), Fraction(out[k + 1])
            chord = va + (vb - va) * (xk - xa) / (xb - xa)
            if vk < chord:
                m = float(chord)
                if Fraction(m) < chord:
                    m = math.nextafter(m, math.inf)
                out[k] = m
                changed = True
    return out


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
    xf = [Fraction(float(t)) for t in x]
    vf = [Fraction(float(t)) for t in v]
    for a, b in zip(hull[:-1], hull[1:]):
        for k in range(a + 1, b):
            t = (xf[k] - xf[a]) / (xf[b] - xf[a])
            out[k] = float(vf[a] + (vf[b] - vf[a]) * t)
    out = exact_concavity_repair(x, out)
    return g_grid.with_values(out)


def _constraint_on_grid(problem, grid, w):
    """G(T, x, Dw, D2w) at every node (1-D or 2-D grids)."""
    if grid.dim > 2:
        raise ValueError("facelift supports 1-D and 2-D grids only")
    d = grid.dim
    P = np.empty(w.shape + (d,))
    M = np.zeros(w.shape + (d, d))
    for k, stencil in enumerate(grid.stencils):
        # swapaxes brings axis k to the front (the same as moveaxis for d <= 2)
        stencil.derivatives(w.swapaxes(k, 0), P[..., k].swapaxes(k, 0), M[..., k, k].swapaxes(k, 0))
    if d == 2:
        # mixed second derivative: central, copied inward at edges
        mxy = M[..., 0, 1]
        mxy[1:-1, 1:-1] = mixed_second(w, grid.axes)
        mxy[0, :], mxy[-1, :] = mxy[1, :], mxy[-2, :]
        mxy[:, 0], mxy[:, -1] = mxy[:, 1], mxy[:, -2]
        M[..., 1, 0] = mxy
    G = problem.constraint.on_nodes(problem.horizon, grid.nodes(), P.reshape(-1, d), M.reshape(-1, d, d))
    return G.reshape(w.shape)


def _auto_relaxation(problem, grid):
    """Stable step for the clamped relaxation: h^2 / (2 |dG/dM|)."""
    # probe the sensitivity of G to the second-derivative argument
    x0 = np.array([0.5 * (a[0] + a[-1]) for a in grid.axes])
    d = grid.dim
    eps = 1.0
    base = problem.constraint(problem.horizon, x0, np.zeros(d), np.zeros((d, d)))
    coef = 0.0
    for i in range(d):
        E = np.zeros((d, d))
        E[i, i] = eps
        coef += abs(problem.constraint(problem.horizon, x0, np.zeros(d), E) - base) / eps
    coef = max(coef, 1e-12)
    hmin = min(float(np.min(np.diff(a))) for a in grid.axes)
    return hmin * hmin / (2.0 * coef)


def facelift_general(
    g_grid: GridFunction,
    problem,
    relaxation: float | None = None,
    max_iters: int = 2_000_000,
    tol: float = 1e-8,
) -> GridFunction:
    """Fixed point of the clamped obstacle relaxation for min(w-g, G_h(w)) = 0.

    Each sweep applies  w <- max(g, w - relaxation * G_h(w))  on the interior
    (a Jacobi update: violations G_h < 0 push w up, slack G_h > 0 relaxes it
    down onto the obstacle), with the box edges clamped to g.  The iteration
    stops when the geometric-decay extrapolation of the update norm bounds the
    remaining distance to the fixed point by tol.
    """
    grid = g_grid.grid
    if grid.dim > 2:
        raise ValueError("facelift supports 1-D and 2-D grids only")
    if relaxation is None:
        relaxation = _auto_relaxation(problem, grid)
    g = g_grid.values
    w = np.array(g, dtype=float)
    interior = grid.interior_mask()

    prev_update = None
    for it in range(max_iters):
        gh = _constraint_on_grid(problem, grid, w)
        w_new = np.where(interior, np.maximum(g, w - relaxation * gh), g)
        update = float(np.max(np.abs(w_new - w)))
        w = w_new
        if update == 0.0:
            return g_grid.with_values(w)
        if prev_update is not None and update < prev_update:
            q = update / prev_update
            if q < 1.0 and update * q / (1.0 - q) < tol:
                return g_grid.with_values(w)
        prev_update = update
    raise ConvergenceError(
        f"facelift relaxation did not converge in {max_iters} sweeps",
        last_iterate=g_grid.with_values(w),
        residual=prev_update,
    )


@dataclass(frozen=True)
class FaceliftVerification:
    dominates: bool
    complementarity: bool
    minimal: bool
    max_dominance_defect: float
    max_complementarity_defect: float
    n_nonminimal_nodes: int

    @property
    def ok(self) -> bool:
        return self.dominates and self.complementarity and self.minimal


def verify_facelift(
    w: GridFunction,
    g_grid: GridFunction,
    problem,
    tol: float = 1e-8,
    probe_delta: float = 1e-6,
) -> FaceliftVerification:
    """Check the three defining properties of a computed face-lift.

    (a) w >= g - tol pointwise; (b) discrete complementarity
    min(w - g, G_h(w)) in [-tol, tol] at every node; (c) minimality probe:
    lowering any interior node with w > g + tol by probe_delta must break the
    supersolution property somewhere.  Complementarity is measured in G units,
    which scale like (value tolerance) / h^2 for iteratively computed inputs.
    """
    if w.grid != g_grid.grid:
        raise GridMismatchError("face-lift and payoff must share one grid")
    wv, gv = w.values, g_grid.values
    dom_defect = float(np.max(gv - wv))
    dominates = dom_defect <= tol

    gh = _constraint_on_grid(problem, w.grid, wv)
    comp = np.minimum(wv - gv, gh)
    comp_defect = float(np.max(np.abs(comp)))
    complementarity = comp_defect <= tol

    lifted = np.argwhere(w.grid.interior_mask() & (wv > gv + tol))
    nonminimal = 0
    for idx in map(tuple, lifted):
        w_pert = np.array(wv)
        w_pert[idx] -= probe_delta
        still_super = np.all(w_pert >= gv - tol) and np.all(
            _constraint_on_grid(problem, w.grid, w_pert) >= -tol
        )
        if still_super:
            nonminimal += 1
    return FaceliftVerification(
        dominates=dominates,
        complementarity=complementarity,
        minimal=nonminimal == 0,
        max_dominance_defect=dom_defect,
        max_complementarity_defect=comp_defect,
        n_nonminimal_nodes=int(nonminimal),
    )
