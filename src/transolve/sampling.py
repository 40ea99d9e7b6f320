"""Parameter sampling and collocation/evaluation point generation.

Diffusivities follow the cosine-pushforward rule p = mid + cos(z)*half with
z ~ U[0, pi], which concentrates samples near both range endpoints (the
arcsine distribution).  Interior points come from one cell grid, `_cells`:
n cells per subdomain in 1D, the global n x n grid in 2D.  Training points
are grid-jittered, one uniform draw per cell, which keeps the Monte Carlo
weights of the plain uniform rule while reducing variance, and unbiased per
subdomain; training draws on a cut line are moved off it.  The evaluation
grid takes the cell centers, in 2D of the cells clipped at the cuts, so
that each piece lies in one subdomain and the subdomains' weights sum to
their areas.  Both functions
then stable-sort the interior points by subdomain (`_by_subdomain`), so
that the rows of one subdomain are one run, as `QuadratureSet` requires,
which the least-squares solve reads a run at a time; the draws
themselves do not change.  The 1D cells are already grouped, so their
order does not change.
Interface points are stratified per interface; in 1D the interfaces are the
cut points themselves and carry unit (counting-measure) weight.  The 2D
segments are placed in one call: the cell edges of every segment are one
`np.linspace` with array endpoints and the stratified draws one uniform
call over them, which takes the same numbers from the generator, in the
same order, as one call per segment would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Geometry, subdomain_index_many

__all__ = [
    "QuadratureSet",
    "sample_parameters",
    "sample_collocation",
    "midpoint_grid",
]

_INTERFACE_CLEARANCE = 1e-12
# a cut this close to a midpoint cell edge, relative to the axis's span, is that edge
_EDGE_ROUNDING = 1e-14


@dataclass(frozen=True)
class QuadratureSet:
    """Interior and interface evaluation points with their weights.

    The rows come grouped: ``interior_subdomain`` and ``interface_ids``
    are non-decreasing, so each subdomain's interior rows are one run and
    each interface's rows another, which `assembly.build_epoch_cache`
    reads as slices.  A set in any other order raises ValueError naming
    the field, at construction and through `dataclasses.replace` alike.
    `sample_collocation` and `midpoint_grid` build them so.
    """

    interior_points: np.ndarray  # (J1, d)
    interior_weights: np.ndarray  # (J1,)
    interior_subdomain: np.ndarray  # (J1,)
    interface_points: np.ndarray  # (J2, d)
    interface_weights: np.ndarray  # (J2,)
    interface_ids: np.ndarray  # (J2,) index into geometry.interfaces

    def __post_init__(self):
        for name in ("interior_subdomain", "interface_ids"):
            ids = getattr(self, name)
            if (ids[1:] < ids[:-1]).any():  # 4 us for a 1D set, against 7 us by np.any
                raise ValueError(f"{name} must be non-decreasing: the rows come grouped")

    @property
    def n_interior(self) -> int:
        return self.interior_points.shape[0]

    @property
    def n_interface(self) -> int:
        return self.interface_points.shape[0]


def sample_parameters(rng, n: int, n_subdomains: int, p_min: float, p_max: float) -> np.ndarray:
    """(n, I) parameter draws, i.i.d. cosine-weighted per component."""
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0 < p_min <= p_max < np.inf:
        raise ValueError("the parameter range must satisfy 0 < p_min <= p_max < inf")
    z = rng.uniform(0.0, np.pi, size=(n, n_subdomains))
    mid = 0.5 * (p_min + p_max)
    half = 0.5 * (p_max - p_min)
    return mid + np.cos(z) * half


def _min_interface_distance(geometry: Geometry, points: np.ndarray) -> np.ndarray:
    """Distance of each point to the nearest cut line; every cut line is an
    interface from bound to bound."""
    dist = np.full(points.shape[0], np.inf)
    for axis, cuts in enumerate((geometry.cuts_x, geometry.cuts_y)):
        for c in cuts:
            dist = np.minimum(dist, np.abs(points[:, axis] - c))
    return dist


def _cells(geometry: Geometry, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower corners and widths, each (J, d), of the interior cell grid.

    1D: n equal cells in every subdomain.  2D: the global n x n grid of
    equal cells, x-major.
    """
    if geometry.dimension == 1:
        edges = np.linspace(geometry.subdomain_lo[:, 0], geometry.subdomain_hi[:, 0], n + 1, axis=1)
        return edges[:, :-1].reshape(-1, 1), np.diff(edges, axis=1).reshape(-1, 1)
    (a, b), (c, d) = geometry.bounds
    hx, hy = (b - a) / n, (d - c) / n
    gx, gy = np.meshgrid(a + hx * np.arange(n), c + hy * np.arange(n), indexing="ij")
    corners = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return corners, np.broadcast_to([hx, hy], corners.shape)


def _jittered_interior(geometry: Geometry, n_per_axis: int, rng):
    """One uniform draw per cell of `_cells`; draws touching an interface
    are retried.  Weights are the cell measures."""
    corners, widths = _cells(geometry, n_per_axis)
    pts = corners + rng.uniform(0, 1, size=corners.shape) * widths
    weights = np.prod(widths, axis=1)
    for _ in range(100):
        bad = _min_interface_distance(geometry, pts) <= _INTERFACE_CLEARANCE
        if not np.any(bad):
            return pts, weights
        jitter = rng.uniform(-1e-9, 1e-9, size=(int(bad.sum()), pts.shape[1]))
        pts[bad] += jitter
    raise RuntimeError("could not clear interior points off the interfaces")


def _by_subdomain(geometry: Geometry, points: np.ndarray, weights: np.ndarray):
    """(points, weights, subdomain ids) of the interior points, stably
    sorted by subdomain.  The ids are cast to the smallest unsigned type
    that holds them, for which NumPy's stable sort is a radix sort, and the
    rows are gathered with ``np.take``: the sort, the cast and the gathers
    take about 20 us for the 3969 points of a 63 x 63 grid, where an int64
    argsort and fancy indexing took 73 us.  Grouped ids come back as
    they are."""
    sub = subdomain_index_many(geometry, points)
    if np.all(sub[1:] >= sub[:-1]):
        return points, weights, sub
    order = np.argsort(sub.astype(np.min_scalar_type(geometry.n_subdomains)), kind="stable")
    return np.take(points, order, axis=0), np.take(weights, order), np.take(sub, order)


def _interface_samples(geometry: Geometry, n_per_interface: int, place):
    """Interface points, weights and interface ids.

    1D: the cut points with unit (counting-measure) weight.  2D:
    ``place(lo, hi, n)`` takes the (K,) span ends of all K segments and
    puts one point in each of n equal cells of every span, (K, n) in one
    call; each point weighs its segment length over n.
    """
    if not geometry.interfaces:
        return np.zeros((0, geometry.dimension)), np.zeros(0), np.zeros(0, dtype=int)
    n_ifc = len(geometry.interfaces)
    if geometry.dimension == 1:
        points = np.array([[ifc.position] for ifc in geometry.interfaces])
        return points, np.ones(n_ifc), np.arange(n_ifc)
    axis = np.array([ifc.axis for ifc in geometry.interfaces])
    pos = np.array([ifc.position for ifc in geometry.interfaces])
    lo, hi = np.array([ifc.span for ifc in geometry.interfaces]).T
    t = place(lo, hi, n_per_interface)
    pos = np.broadcast_to(pos[:, None], t.shape)
    vertical = (axis == 0)[:, None]
    points = np.stack([np.where(vertical, pos, t), np.where(vertical, t, pos)], axis=-1)
    weights = np.repeat((hi - lo) / n_per_interface, n_per_interface)
    ids = np.repeat(np.arange(n_ifc), n_per_interface)
    return points.reshape(-1, 2), weights, ids


def sample_collocation(
    geometry: Geometry, n_interior_per_axis: int, n_per_interface: int, rng,
    rng_interface=None,
) -> QuadratureSet:
    """Fresh stochastic training points: jittered interior, stratified interfaces.

    A separate generator may drive the interface draws so the two streams
    never share state.
    """
    if n_interior_per_axis < 1 or n_per_interface < 1:
        raise ValueError("counts must be >= 1")
    interior, w, sub = _by_subdomain(
        geometry, *_jittered_interior(geometry, n_interior_per_axis, rng)
    )
    rng_ifc = rng if rng_interface is None else rng_interface

    def stratified(lo, hi, n):
        edges = np.linspace(lo, hi, n + 1, axis=1)
        return rng_ifc.uniform(edges[:, :-1], edges[:, 1:])

    ipts, iw, iid = _interface_samples(geometry, n_per_interface, stratified)
    return QuadratureSet(interior, w, sub, ipts, iw, iid)


def _axis_pieces(lo: float, hi: float, n: int, cuts) -> tuple[np.ndarray, np.ndarray]:
    """Centers and widths of the n equal cells of [lo, hi], each cell that a
    cut crosses split there into two pieces.

    A cut within rounding of a cell edge (`_EDGE_ROUNDING` of the span) is
    that edge, so a grid whose lines hit the cuts makes no sliver.  A whole
    cell keeps the corner + h / 2 and width h `_cells` gives it; a piece
    bounded by a cut has its midpoint and length."""
    h = (hi - lo) / n
    corners = lo + h * np.arange(n)
    edges = np.append(corners, hi)
    splits = [c for c in cuts if np.abs(edges - c).min() > _EDGE_ROUNDING * (hi - lo)]
    lefts = np.sort(np.concatenate([corners, splits]))
    rights = np.append(lefts[1:], hi)
    centers, widths = (lefts + rights) / 2, rights - lefts
    whole = ~(np.isin(lefts, splits) | np.isin(rights, splits))
    centers[whole], widths[whole] = lefts[whole] + h / 2, h
    return centers, widths


def midpoint_grid(geometry: Geometry, n_per_axis: int, n_per_interface: int) -> QuadratureSet:
    """Deterministic cell-center quadrature for evaluation and reporting.

    1D: the centers of the `_cells` grid, n cells per subdomain.  2D: the
    tensor product of each axis's pieces (`_axis_pieces`), the global
    n x n cells clipped at the cuts, so that every piece lies inside one
    subdomain: its center is a point and its area that point's weight.
    No center lies on a cut, and the weights of each subdomain sum to its
    area.  A grid whose lines hit every cut keeps the cells of `_cells`,
    bit for bit.  Interface midpoints carry their segment length over the
    per-interface count (1D: unit weights at the cuts).
    """
    if n_per_axis < 1 or n_per_interface < 1:
        raise ValueError("counts must be >= 1")
    if geometry.dimension == 1:
        corners, widths = _cells(geometry, n_per_axis)
        interior = corners + widths / 2
    else:
        (cx, wx), (cy, wy) = (_axis_pieces(lo, hi, n_per_axis, cuts) for (lo, hi), cuts
                              in zip(geometry.bounds, (geometry.cuts_x, geometry.cuts_y)))
        interior = np.stack([a.ravel() for a in np.meshgrid(cx, cy, indexing="ij")], axis=1)
        widths = np.stack([a.ravel() for a in np.meshgrid(wx, wy, indexing="ij")], axis=1)
    interior, w, sub = _by_subdomain(geometry, interior, np.prod(widths, axis=1))
    return QuadratureSet(
        interior, w, sub, *_interface_samples(geometry, n_per_interface, _cell_centers)
    )


def _cell_centers(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    return lo[:, None] + ((hi - lo) / n)[:, None] * (np.arange(n) + 0.5)
