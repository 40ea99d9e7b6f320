"""Parameter sampling and collocation/evaluation point generation.

Diffusivities follow the cosine-pushforward rule p = mid + cos(z)*half with
z ~ U[0, pi], which concentrates samples near both range endpoints (the
arcsine distribution).  Interior points come from one cell grid, `_cells`:
n cells per subdomain in 1D, the global n x n grid in 2D.  Training points
are grid-jittered, one uniform draw per cell, which keeps the Monte Carlo
weights of the plain uniform rule while reducing variance; the evaluation
grid takes the cell centers.  Training draws on a cut line are moved off
it, and a midpoint grid with a center on one is rejected.
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


@dataclass(frozen=True)
class QuadratureSet:
    """Interior and interface evaluation points with their weights."""

    interior_points: np.ndarray  # (J1, d)
    interior_weights: np.ndarray  # (J1,)
    interior_subdomain: np.ndarray  # (J1,)
    interface_points: np.ndarray  # (J2, d)
    interface_weights: np.ndarray  # (J2,)
    interface_ids: np.ndarray  # (J2,) index into geometry.interfaces

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
    interior, w = _jittered_interior(geometry, n_interior_per_axis, rng)
    sub = subdomain_index_many(geometry, interior)
    rng_ifc = rng if rng_interface is None else rng_interface

    def stratified(lo, hi, n):
        edges = np.linspace(lo, hi, n + 1, axis=1)
        return rng_ifc.uniform(edges[:, :-1], edges[:, 1:])

    ipts, iw, iid = _interface_samples(geometry, n_per_interface, stratified)
    return QuadratureSet(interior, w, sub, ipts, iw, iid)


def midpoint_grid(geometry: Geometry, n_per_axis: int, n_per_interface: int) -> QuadratureSet:
    """Deterministic cell-center quadrature for evaluation and reporting.

    The centers of the `_cells` grid, weight |cell| each.  Interface
    midpoints carry their segment length over the per-interface count (1D:
    unit weights at the cuts).
    """
    if n_per_axis < 1 or n_per_interface < 1:
        raise ValueError("counts must be >= 1")
    corners, widths = _cells(geometry, n_per_axis)
    interior = corners + widths / 2
    if np.any(_min_interface_distance(geometry, interior) <= _INTERFACE_CLEARANCE):
        raise ValueError(
            "midpoint grid centers fall on an interface; choose a count that "
            "keeps cell centers clear (e.g. an even count for centered cuts)"
        )
    sub = subdomain_index_many(geometry, interior)
    w = np.prod(widths, axis=1)
    return QuadratureSet(
        interior, w, sub, *_interface_samples(geometry, n_per_interface, _cell_centers)
    )


def _cell_centers(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    return lo[:, None] + ((hi - lo) / n)[:, None] * (np.arange(n) + 0.5)
