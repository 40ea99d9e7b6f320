"""Axis-aligned partitioned domains for transmission problems.

A domain is an interval (1D) or rectangle (2D) tiled by subdomains on a
tensor grid of cut positions.  Material interfaces carry a fixed normal
orientation (+x for vertical interfaces, +y for horizontal ones) so that
jump brackets are signed differences across that normal: the minus side
lies at x - t*n for small t > 0.  Interior grid crossings are the singular
vertices of the 2D problem, and the four cells around each crossing (its
sectors) are read from the cut indices while the crossings are listed.
One builder serves both dimensions: a 1D layout is the one-row case of
the 2D grid, over the degenerate y-range (0, 0).

Conventions: subdomains are numbered row-major with rows from top to
bottom and columns left to right (so the top-left cell of a 2x2 layout is
subdomain 0); singular vertices follow the same top-to-bottom, left-to-
right order.  Point location reads the same numbering off the cuts: one
sorted search per axis gives a point's column and row, so its cost does
not grow with the number of subdomains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Geometry",
    "Interface",
    "build_grid_geometry",
    "subdomain_index_many",
    "angular_trace",
    "validate_parameter",
    "validate_parameter_batch",
]


@dataclass(frozen=True)
class Interface:
    """One material interface: a point (1D) or axis-aligned segment (2D).

    ``axis`` is the axis the fixed unit normal points along (0 = +x for a
    vertical interface, 1 = +y for a horizontal one); ``position`` is the
    interface coordinate on that axis; ``span`` is the extent along the
    other axis (degenerate in 1D).  ``minus``/``plus`` are the adjacent
    subdomain indices on either side of the normal.
    """

    axis: int
    position: float
    span: tuple[float, float]
    minus: int
    plus: int

    @property
    def length(self) -> float:
        return self.span[1] - self.span[0] if self.span[1] > self.span[0] else 1.0


@dataclass(frozen=True)
class Geometry:
    """Immutable partitioned domain; safe for concurrent reads.

    `build_grid_geometry` makes its arrays read-only, so an in-place edit
    raises ValueError rather than changing a geometry that `final_solve`
    recognizes by identity.
    """

    dimension: int
    bounds: tuple[tuple[float, float], ...]
    cuts_x: tuple[float, ...]
    cuts_y: tuple[float, ...]
    subdomain_lo: np.ndarray  # (I, d) lower corners
    subdomain_hi: np.ndarray  # (I, d) upper corners
    interfaces: tuple[Interface, ...]
    singular_vertices: np.ndarray  # (N_s, 2); empty in 1D
    vertex_sectors: np.ndarray  # (N_s, 4) subdomain of each sector, see angular_trace

    @property
    def n_subdomains(self) -> int:
        return self.subdomain_lo.shape[0]

    @property
    def n_singular(self) -> int:
        return self.singular_vertices.shape[0]


def _check_cuts(cuts, lo, hi, label):
    cuts = tuple(float(c) for c in cuts)
    if any(not (lo < c < hi) for c in cuts):
        raise ValueError(f"{label} must lie strictly inside the bounds ({lo}, {hi})")
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValueError(f"{label} must be strictly increasing")
    return cuts


def build_grid_geometry(dimension, cuts_x=(), cuts_y=(), bounds=None) -> Geometry:
    """Build the tensor-grid geometry for given bounds and cut positions.

    1D: ``bounds=((a, b),)`` and ``cuts_x`` are the interface points.
    2D: ``bounds=((a, b), (c, d))``; interfaces are the segments of the
    cut lines between adjacent cells, vertices the interior crossings.
    A 1D layout is the one row of the 2D grid over the degenerate y-range
    (0, 0): its corners keep the x column alone, its interfaces are the
    vertical ones with span (0, 0) (`Interface.length` 1), and it has no
    crossings.
    """
    if dimension not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    if bounds is None:
        raise ValueError("bounds are required")
    bounds = tuple((float(a), float(b)) for a, b in bounds)
    if len(bounds) != dimension:
        raise ValueError(f"expected {dimension} bound pairs, got {len(bounds)}")
    if not np.all(np.isfinite(bounds)):
        raise ValueError("bounds must be finite")
    if any(b <= a for a, b in bounds):
        raise ValueError("empty bounds")

    (a, b), (c, d) = bounds + ((0.0, 0.0),) * (2 - dimension)
    cx = _check_cuts(cuts_x, a, b, "cuts_x")
    if dimension == 1 and cuts_y:
        raise ValueError("cuts_y is meaningless in 1D")
    cy = _check_cuts(cuts_y, c, d, "cuts_y")
    x_edges = (a,) + cx + (b,)
    y_edges = (c,) + cy + (d,)
    ncol = len(x_edges) - 1
    nrow = len(y_edges) - 1

    # Row r counts from the top: its y-range is (y_edges[nrow-1-r], y_edges[nrow-r]).
    lo, hi = [], []
    for r in range(nrow):
        y0, y1 = y_edges[nrow - 1 - r], y_edges[nrow - r]
        for col in range(ncol):
            lo.append([x_edges[col], y0])
            hi.append([x_edges[col + 1], y1])
    lo = np.array(lo)[:, :dimension]
    hi = np.array(hi)[:, :dimension]

    def sub(r, col):
        return r * ncol + col

    interfaces = []
    # Vertical interfaces (normal +x): between columns, one per row.
    for ic, cxv in enumerate(cx):
        for r in range(nrow):
            y0, y1 = y_edges[nrow - 1 - r], y_edges[nrow - r]
            interfaces.append(
                Interface(axis=0, position=cxv, span=(y0, y1), minus=sub(r, ic), plus=sub(r, ic + 1))
            )
    # Horizontal interfaces (normal +y): between rows, one per column.  The
    # plus side (larger y) is the row with the smaller top-down index.
    for ir, cyv in enumerate(cy):
        r_below = nrow - 1 - ir  # row index (from top) of the cell under the cut
        for col in range(ncol):
            interfaces.append(
                Interface(
                    axis=1,
                    position=cyv,
                    span=(x_edges[col], x_edges[col + 1]),
                    minus=sub(r_below, col),
                    plus=sub(r_below - 1, col),
                )
            )

    # Interior crossings, top row of vertices first, left to right; the cut
    # at cy[iy] has the row nrow-1-iy below it and nrow-2-iy above it, the
    # cut at cx[ix] the column ix left of it and ix+1 right of it.
    vertices, sectors = [], []
    for iy in reversed(range(len(cy))):
        above, below = nrow - 2 - iy, nrow - 1 - iy
        for ix, xv in enumerate(cx):
            vertices.append((xv, cy[iy]))
            # sectors counter-clockwise from +x: NE, NW, SW, SE
            sectors.append([sub(above, ix + 1), sub(above, ix), sub(below, ix), sub(below, ix + 1)])
    vertices = np.array(vertices).reshape(-1, 2)
    sectors = np.array(sectors, dtype=int).reshape(-1, 4)
    for array in (lo, hi, vertices, sectors):
        array.flags.writeable = False
    return Geometry(dimension, bounds, cx, cy, lo, hi, tuple(interfaces), vertices, sectors)


def subdomain_index_many(geometry: Geometry, points: np.ndarray) -> np.ndarray:
    """Index of the subdomain strictly containing each point of an (n, d) batch.

    One `np.searchsorted` per axis on the cell edges (the bounds with the
    cuts between them) gives each point's column and row; the row-major,
    top-to-bottom numbering of `build_grid_geometry` turns them into the
    index.  A point on a cut or a bound, outside the bounds or NaN raises
    ValueError.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None] if geometry.dimension == 1 else points[None, :]
    cells, ok = [], np.ones(points.shape[0], dtype=bool)
    for axis, cuts in enumerate((geometry.cuts_x, geometry.cuts_y)[: geometry.dimension]):
        edges = np.array((geometry.bounds[axis][0], *cuts, geometry.bounds[axis][1]))
        x = points[:, axis]
        # edges[i] <= x < edges[i + 1]; a NaN sorts past the last edge
        i = np.searchsorted(edges, x, side="right") - 1
        inside = (i >= 0) & (i < len(cuts) + 1)
        i[~inside] = 0
        ok &= inside & (x > edges[i])
        cells.append(i)
    if not np.all(ok):
        bad = points[~ok][0]
        raise ValueError(f"point {bad} lies on an interface or outside the bounds")
    if geometry.dimension == 1:
        return cells[0]
    col, row_up = cells
    n_rows = len(geometry.cuts_y) + 1
    return (n_rows - 1 - row_up) * (len(geometry.cuts_x) + 1) + col


def angular_trace(geometry: Geometry, params, vertex_id: int) -> list[tuple[float, float, float]]:
    """Piecewise-constant p(theta) around a singular vertex.

    Returns the four quarter-plane sectors [(theta_lo, theta_hi, p), ...]
    starting at theta = 0 (+x direction) and proceeding counter-clockwise,
    read from the geometry's static vertex-to-sector table.
    """
    if geometry.dimension != 2:
        raise ValueError("angular traces exist only around 2D singular vertices")
    if not 0 <= vertex_id < geometry.n_singular:
        raise ValueError(f"vertex {vertex_id} is not in the singular set")
    params = validate_parameter(geometry, params)
    return [
        (k * np.pi / 2, (k + 1) * np.pi / 2, float(params[sub]))
        for k, sub in enumerate(geometry.vertex_sectors[vertex_id])
    ]


class ParameterError(ValueError):
    """A diffusivity row that is not positive and finite; ``index`` is its row."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


def validate_parameter(geometry: Geometry, params) -> np.ndarray:
    """Check a diffusivity vector against the geometry: positive and finite."""
    params = np.asarray(params, dtype=float)
    if params.shape != (geometry.n_subdomains,):
        raise ValueError(
            f"parameter length {params.shape} does not match {geometry.n_subdomains} subdomains"
        )
    return validate_parameter_batch(geometry, params[None, :])[0]


def validate_parameter_batch(geometry: Geometry, params) -> np.ndarray:
    """Check every row of a (P, I) parameter batch: positive and finite.

    A row at fault raises ParameterError carrying the first such row.  A
    batch passes when its least entry is positive and its greatest below
    infinity, a NaN failing both; only a batch that fails is searched for
    the row.  That takes 2 us per call on a one-parameter query's batch,
    where the per-row masks took 6 us.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != geometry.n_subdomains:
        raise ValueError(
            f"parameter batch shape {params.shape} does not match "
            f"{geometry.n_subdomains} subdomains"
        )
    if params.size and not (params.min() > 0 and params.max() < np.inf):
        bad = np.flatnonzero(np.any(params <= 0, axis=1) | ~np.all(np.isfinite(params), axis=1))
        raise ParameterError(
            int(bad[0]), f"parameter row {bad[0]}: diffusivities must be positive and finite"
        )
    return params
