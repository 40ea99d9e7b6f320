"""Axis-aligned partitioned domains for transmission problems.

A domain is an interval (1D) or rectangle (2D) tiled by subdomains on a
tensor grid of cut positions.  Material interfaces carry a fixed normal
orientation (+x for vertical interfaces, +y for horizontal ones) so that
jump brackets are signed differences across that normal: the minus side
lies at x - t*n for small t > 0.  Interior grid crossings are the singular
vertices of the 2D problem.

Conventions: subdomains are numbered row-major with rows from top to
bottom and columns left to right (so the top-left cell of a 2x2 layout is
subdomain 0); singular vertices follow the same top-to-bottom, left-to-
right order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Geometry",
    "Interface",
    "build_grid_geometry",
    "subdomain_index",
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
    def normal(self) -> np.ndarray:
        n = np.zeros(2 if self.span[0] != self.span[1] else 1)
        if n.size == 1:
            return np.array([1.0])
        n[self.axis] = 1.0
        return n

    @property
    def length(self) -> float:
        return self.span[1] - self.span[0] if self.span[1] > self.span[0] else 1.0

    def midpoint(self) -> np.ndarray:
        if self.span[0] == self.span[1]:
            return np.array([self.position])
        mid = 0.5 * (self.span[0] + self.span[1])
        return np.array([self.position, mid] if self.axis == 0 else [mid, self.position])


@dataclass(frozen=True)
class Geometry:
    """Immutable partitioned domain; safe for concurrent reads."""

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

    @property
    def volume(self) -> float:
        widths = [b - a for a, b in self.bounds]
        return float(np.prod(widths))

    @property
    def interface_measure(self) -> float:
        """Total interface measure: segment length in 2D, point count in 1D."""
        if self.dimension == 1:
            return float(len(self.interfaces))
        return float(sum(g.length for g in self.interfaces))

    def subdomain_measures(self) -> np.ndarray:
        return np.prod(self.subdomain_hi - self.subdomain_lo, axis=1)


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
    """
    if dimension not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    if bounds is None:
        raise ValueError("bounds are required")
    bounds = tuple((float(a), float(b)) for a, b in bounds)
    if len(bounds) != dimension:
        raise ValueError(f"expected {dimension} bound pairs, got {len(bounds)}")
    if any(b <= a for a, b in bounds):
        raise ValueError("empty bounds")

    if dimension == 1:
        (a, b), = bounds
        cx = _check_cuts(cuts_x, a, b, "cuts_x")
        if cuts_y:
            raise ValueError("cuts_y is meaningless in 1D")
        edges = (a,) + cx + (b,)
        lo = np.array([[e] for e in edges[:-1]])
        hi = np.array([[e] for e in edges[1:]])
        interfaces = tuple(
            Interface(axis=0, position=c, span=(0.0, 0.0), minus=i, plus=i + 1)
            for i, c in enumerate(cx)
        )
        return Geometry(
            1, bounds, cx, (), lo, hi, interfaces, np.empty((0, 2)), np.empty((0, 4), dtype=int)
        )

    (a, b), (c, d) = bounds
    cx = _check_cuts(cuts_x, a, b, "cuts_x")
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
    lo = np.array(lo)
    hi = np.array(hi)

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

    # Interior crossings, top row of vertices first, left to right.
    vertices = [(xv, yv) for yv in reversed(cy) for xv in cx]
    geometry = Geometry(
        2, bounds, cx, cy, lo, hi, tuple(interfaces), np.array(vertices).reshape(-1, 2),
        np.empty((0, 4), dtype=int),
    )
    return replace(geometry, vertex_sectors=_probe_vertex_sectors(geometry))


def _probe_vertex_sectors(geometry: Geometry) -> np.ndarray:
    """Subdomain of each quarter-plane sector around each singular vertex.

    Sector k spans angles (k pi/2, (k+1) pi/2); it is located by a probe
    point on its bisector, a quarter of the smallest cell width away.
    """
    eps = 0.25 * min(
        float(np.min(geometry.subdomain_hi - geometry.subdomain_lo, initial=np.inf)), 1.0
    )
    angles = (np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4)
    offsets = np.array([[eps * np.cos(ang), eps * np.sin(ang)] for ang in angles])
    probes = geometry.singular_vertices[:, None, :] + offsets[None, :, :]
    return subdomain_index_many(geometry, probes.reshape(-1, 2)).reshape(-1, 4)


def subdomain_index(geometry: Geometry, x) -> int:
    """Index of the subdomain strictly containing x; interfaces are rejected."""
    idx = subdomain_index_many(geometry, np.atleast_2d(np.asarray(x, dtype=float)))
    return int(idx[0])


def subdomain_index_many(geometry: Geometry, points: np.ndarray) -> np.ndarray:
    """Vectorized subdomain_index for an (n, d) point batch."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None] if geometry.dimension == 1 else points[None, :]
    n = points.shape[0]
    out = np.full(n, -1, dtype=int)
    for i in range(geometry.n_subdomains):
        inside = np.all(points > geometry.subdomain_lo[i], axis=1) & np.all(
            points < geometry.subdomain_hi[i], axis=1
        )
        out[inside] = i
    if np.any(out < 0):
        bad = points[out < 0][0]
        raise ValueError(f"point {bad} lies on an interface or outside the bounds")
    return out


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


def validate_parameter(geometry: Geometry, params) -> np.ndarray:
    """Check a diffusivity vector against the geometry: positive and finite."""
    params = np.asarray(params, dtype=float)
    if params.shape != (geometry.n_subdomains,):
        raise ValueError(
            f"parameter length {params.shape} does not match {geometry.n_subdomains} subdomains"
        )
    if np.any(params <= 0) or not np.all(np.isfinite(params)):
        raise ValueError("diffusivities must be positive and finite")
    return params


def validate_parameter_batch(geometry: Geometry, params) -> np.ndarray:
    """Check every row of a (P, I) parameter batch as validate_parameter
    checks one vector; the error names the first row at fault."""
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != geometry.n_subdomains:
        raise ValueError(
            f"parameter batch shape {params.shape} does not match "
            f"{geometry.n_subdomains} subdomains"
        )
    bad = np.flatnonzero(np.any(params <= 0, axis=1) | ~np.all(np.isfinite(params), axis=1))
    if bad.size:
        raise ValueError(f"parameter row {bad[0]}: diffusivities must be positive and finite")
    return params
