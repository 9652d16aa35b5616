"""Rectangular spatial lattices, grid functions and the finite-difference stencil.

A SpatialGrid is the product of per-dimension node arrays inside a truncation
box; a GridFunction attaches one real value per node.  These are the currency
passed between the face-lift, the solver and the file formats.  AxisStencil is
the one 3-point non-uniform stencil: the solver's step weights and the
face-lift constraint G_h both difference with it.  The one tridiagonal solve
is split in two: tridiagonal_elimination factors the rows once, and
tridiagonal_substitution solves them for a right-hand side, so a caller
whose rows repeat (the solver's Howard iteration) eliminates only when they
change; solve_tridiagonal runs both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, GridMismatchError


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


class AxisStencil:
    """3-point finite differences along one axis of a strictly increasing node array.

    The difference methods take values whose first array axis runs along the
    nodes (np.moveaxis the stencil axis to the front) and return the n - 2
    interior rows.  `trailing` is the number of array axes after the stencil
    axis; the spacings are shaped to broadcast against them.
    """

    def __init__(self, a, trailing: int = 0):
        shape = (-1,) + (1,) * trailing
        self.hm = (a[1:-1] - a[:-2]).reshape(shape)
        self.hp = (a[2:] - a[1:-1]).reshape(shape)
        # denominators of the non-uniform second difference, one per neighbour
        self.dm = self.hm * (self.hm + self.hp)
        self.d0 = self.hm * self.hp
        self.dp = self.hp * (self.hm + self.hp)

    def central(self, v):
        return (v[2:] - v[:-2]) / (self.hm + self.hp)

    def second(self, v):
        """The second difference in difference form, exactly 0 on a constant."""
        centre = v[1:-1]
        return 2.0 * ((v[:-2] - centre) / self.dm + (v[2:] - centre) / self.dp)

    def weights(self, b, s2):
        """Coefficients (wm, w0, wp) of v[i-1], v[i], v[i+1] in  b v' + 1/2 s2 v''.

        The drift is upwinded by its sign, so wm, wp >= 0: the explicit step
        is monotone whenever 1 + dt w0 >= 0, and I - dt L is an M-matrix for
        every dt.
        """
        bp = np.maximum(b, 0.0)
        bm = np.minimum(b, 0.0)
        wm = s2 / self.dm - bm / self.hm
        wp = s2 / self.dp + bp / self.hp
        w0 = -(s2 / self.d0) - bp / self.hp + bm / self.hm
        return wm, w0, wp

    def derivatives(self, v, p, m):
        """First and second differences at every node along the axis, into p and m.

        Central in the interior; at each edge a one-sided first difference and
        the second difference of the shifted stencil, i.e. that of the nearest
        interior node.
        """
        p[1:-1] = self.central(v)
        p[0] = (v[1] - v[0]) / self.hm[0]
        p[-1] = (v[-1] - v[-2]) / self.hp[-1]
        m[1:-1] = self.second(v)
        m[0] = m[1]
        m[-1] = m[-2]


def tridiagonal_elimination(lower, diag, upper):
    """The Thomas elimination of the rows  lower[i] u[i-1] + diag[i] u[i] + upper[i] u[i+1].

    lower[0] and upper[-1] are not read.  No pivoting: it is stable for the
    diagonally dominant rows the solver and the face-lift build.  Returns the
    pivots and the multipliers as Python lists, laid out for
    tridiagonal_substitution; one elimination serves any number of
    right-hand sides.
    """
    a, b, c = (np.asarray(z, dtype=float).tolist() for z in (lower, diag, upper))
    beta = b[0]
    pivots = [beta]
    ratios = []
    for ai, bi, ci in zip(a[1:], b[1:], c):
        r = ci / beta
        beta = bi - ai * r
        ratios.append(r)
        pivots.append(beta)
    ratios.reverse()
    return a[1:], pivots, ratios


def tridiagonal_substitution(elimination, rhs) -> np.ndarray:
    """The solution of the eliminated rows for one right-hand side: forward,
    then back substitution, on Python floats (faster than numpy element access
    for one line)."""
    lower, pivots, ratios = elimination
    d = np.asarray(rhs, dtype=float).tolist()
    y = d[0] / pivots[0]
    forward = [y]
    for di, ai, bi in zip(d[1:], lower, pivots[1:]):
        y = (di - ai * y) / bi
        forward.append(y)
    forward.pop()
    u = [y]
    for yi, ri in zip(reversed(forward), ratios):
        y = yi - ri * y
        u.append(y)
    u.reverse()
    return np.array(u)


def solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Solve the tridiagonal system  lower[i] u[i-1] + diag[i] u[i] + upper[i] u[i+1] = rhs[i]:
    tridiagonal_elimination, then tridiagonal_substitution."""
    return tridiagonal_substitution(tridiagonal_elimination(lower, diag, upper), rhs)


@dataclass(frozen=True)
class Box:
    """Open box  prod_i (lo_i, hi_i);  edges may be +-inf."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", _frozen(np.atleast_1d(self.lo)))
        object.__setattr__(self, "hi", _frozen(np.atleast_1d(self.hi)))
        if self.lo.shape != self.hi.shape:
            raise ValueError("box bounds must have matching shapes")
        if not np.all(self.lo <= self.hi):
            raise ValueError("box must be nonempty: lo <= hi required")

    @property
    def dim(self) -> int:
        return self.lo.size

    def contains(self, x) -> bool:
        """Whether x lies in the open box."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(np.all(x > self.lo) and np.all(x < self.hi))

    def contains_box(self, other: "Box") -> bool:
        """Whether `other` sits inside the closure of self."""
        return bool(np.all(other.lo >= self.lo) and np.all(other.hi <= self.hi))

    def pairs(self) -> list:
        """The [lo, hi] pair of each dimension, as in a document."""
        return [list(pair) for pair in zip(self.lo.tolist(), self.hi.tolist())]


def number(value) -> float:
    """An int or a float, numpy reals included; float() would take True and "0.5" as 1.0 and 0.5."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"not a number but a {type(value).__name__}")
    return float(value)


def finite(value) -> float:
    """A number that is neither infinite nor NaN, which JSON's Infinity and NaN would give."""
    value = number(value)
    if not np.isfinite(value):
        raise ValueError(f"not a finite number: {value!r}")
    return value


def integer(value) -> int:
    """An int (not a bool) or an integral float such as 1e5; int() would take 1.5, True and "7" as 1, 1 and 7."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:  # nan for inf and nan
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def box_from_pairs(pairs, key="box") -> Box:
    """Box from one (lo, hi) pair of numbers per dimension; None is an infinite
    edge.  A malformed or inverted pair is a ConfigurationError naming `key`."""
    try:
        lo = [-np.inf if a is None else number(a) for a, _ in pairs]
        hi = [np.inf if b is None else number(b) for _, b in pairs]
        return Box(np.array(lo), np.array(hi))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{key} {pairs!r}: {exc}") from None


@dataclass(frozen=True)
class SpatialGrid:
    """Strictly increasing node arrays per dimension; their hull is the truncation box."""

    axes: tuple

    def __post_init__(self):
        axes = tuple(_frozen(np.atleast_1d(a)) for a in self.axes)
        object.__setattr__(self, "axes", axes)
        for a in axes:
            if a.size < 3:
                raise ValueError("need at least 3 nodes per dimension")
            if not np.all(np.diff(a) > 0):
                raise ValueError("nodes must be strictly increasing")

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(a.size for a in self.axes)

    @cached_property
    def box(self) -> Box:
        return Box(np.array([a[0] for a in self.axes]), np.array([a[-1] for a in self.axes]))

    def nodes(self) -> np.ndarray:
        """All nodes as a read-only (n_nodes, dim) array, C-order."""
        return self._nodes

    @cached_property
    def _nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return _frozen(np.stack([m.ravel() for m in mesh], axis=-1))

    @property
    def interior(self) -> tuple:
        """Index of the nodes off every edge, where a 3-point stencil fits on each axis."""
        return (slice(1, -1),) * self.dim

    @cached_property
    def stencils(self) -> tuple:
        """One AxisStencil per axis, for values with that axis moved to the front."""
        return tuple(AxisStencil(a, trailing=self.dim - 1) for a in self.axes)

    def refine(self) -> "SpatialGrid":
        """Dyadic refinement: insert midpoints, keeping all current nodes."""
        new_axes = []
        for a in self.axes:
            mid = 0.5 * (a[:-1] + a[1:])
            merged = np.empty(a.size + mid.size)
            merged[0::2] = a
            merged[1::2] = mid
            new_axes.append(merged)
        return SpatialGrid(tuple(new_axes))

    def __eq__(self, other):
        if not isinstance(other, SpatialGrid):
            return NotImplemented
        return self.shape == other.shape and all(
            np.array_equal(a, b) for a, b in zip(self.axes, other.axes)
        )


def uniform_grid(lo, hi, n) -> SpatialGrid:
    lo, hi = np.atleast_1d(np.asarray(lo, float)), np.atleast_1d(np.asarray(hi, float))
    n = np.broadcast_to(np.asarray(n), lo.shape)
    if n.dtype.kind not in "iu":
        raise ValueError(f"n must hold integer node counts, not {n.tolist()!r}")
    return SpatialGrid(tuple(np.linspace(a, b, k) for a, b, k in zip(lo, hi, n)))


def log_grid(lo, hi, n) -> SpatialGrid:
    """Geometrically spaced nodes; requires 0 < lo < hi (one dimension)."""
    if lo <= 0:
        raise ValueError("log grid needs positive bounds")
    return SpatialGrid((np.geomspace(lo, hi, n),))


@dataclass(frozen=True)
class GridFunction:
    """Values of a scalar function on a SpatialGrid."""

    grid: SpatialGrid
    values: np.ndarray = field(compare=False)

    def __post_init__(self):
        v = _frozen(self.values)
        if v.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", v)

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.grid, np.asarray(values, dtype=float))

    def interpolate(self, x):
        """Multilinear interpolation, clamped to the box.

        A single point gives a float; an (n, d) array of points gives n values.
        """
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        axes = self.grid.axes
        if len(axes) == 1:
            vals = np.interp(pts[:, 0], axes[0], self.values)
        else:
            cells, ts = [], []
            for a, xd in zip(axes, pts.T):
                xi = np.clip(xd, a[0], a[-1])
                j = np.clip(np.searchsorted(a, xi) - 1, 0, a.size - 2)
                cells.append(j)
                ts.append((xi - a[j]) / (a[j + 1] - a[j]))
            # values at the 2^d cell corners, then one linear pass per axis
            corners = np.indices((2,) * len(axes)).reshape(len(axes), -1)
            vals = self.values[tuple(j[:, None] + c for j, c in zip(cells, corners))]
            vals = vals.reshape((-1,) + (2,) * len(axes))
            for t in ts:
                t = t.reshape((-1,) + (1,) * (vals.ndim - 2))
                vals = (1 - t) * vals[:, 0] + t * vals[:, 1]
        return float(vals[0]) if x.ndim < 2 else vals

    def to_csv(self) -> str:
        header = [f"x{i}" for i in range(self.grid.dim)] + ["value"]
        return write_grid_csv(header, np.column_stack([self.grid.nodes(), self.values.ravel()]))


def write_grid_csv(header, rows) -> str:
    """The one grid-CSV writer: a header line, then one line of repr(float) cells per row."""
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in np.asarray(rows, dtype=float).tolist()]
    return "\n".join(lines) + "\n"


def read_grid_csv(text: str):
    """The one grid-CSV reader: (key axes, data of shape (*key shape, n columns)).

    The key columns are the ones before `value` (a solution's time, then the
    coordinates); the value and later columns are data.  Rows may come in any
    order but must fill the tensor grid of the key values exactly once.
    """
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    header = lines[0].split(",")
    n_keys = header.index("value")
    rows = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    if rows.ndim != 2 or rows.shape[1] != len(header):
        raise ValueError(f"CSV rows must have the {len(header)} columns of the header")
    if not np.all(np.isfinite(rows)):
        raise ValueError("CSV cells must be finite numbers")
    keys = rows[:, :n_keys].T
    axes = tuple(np.unique(k) for k in keys)
    shape = tuple(a.size for a in axes)
    flat = np.ravel_multi_index(tuple(np.searchsorted(a, k) for a, k in zip(axes, keys)), shape)
    if len(rows) != int(np.prod(shape)) or np.unique(flat).size != len(rows):
        raise ValueError("CSV rows do not fill the tensor grid exactly once")
    data = np.empty((len(rows), rows.shape[1] - n_keys))
    data[flat] = rows[:, n_keys:]
    return axes, data.reshape(shape + (-1,))


def grid_function_from_csv(text: str) -> GridFunction:
    axes, data = read_grid_csv(text)
    if data.shape[-1] != 1:
        raise ValueError("a grid-function CSV ends with its value column")
    return GridFunction(SpatialGrid(axes), data[..., 0])
