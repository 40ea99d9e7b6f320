"""Parameter sampling and collocation/evaluation point generation.

Diffusivities follow the cosine-pushforward rule p = mid + cos(z)*half with
z ~ U[0, pi], which concentrates samples near both range endpoints (the
arcsine distribution).  Training points are grid-jittered: one uniform draw
per cell of a regular partition, which keeps the Monte Carlo weights of the
plain uniform rule while reducing variance.  Interface points are
stratified per interface; in 1D the interfaces are the cut points
themselves and carry unit (counting-measure) weight.
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
    if p_min <= 0:
        raise ValueError("p_min must be positive")
    z = rng.uniform(0.0, np.pi, size=(n, n_subdomains))
    mid = 0.5 * (p_min + p_max)
    half = 0.5 * (p_max - p_min)
    return mid + np.cos(z) * half


def _min_interface_distance(geometry: Geometry, points: np.ndarray) -> np.ndarray:
    dist = np.full(points.shape[0], np.inf)
    for ifc in geometry.interfaces:
        d = np.abs(points[:, ifc.axis] - ifc.position)
        if geometry.dimension == 2:
            lo, hi = ifc.span
            other = points[:, 1 - ifc.axis]
            on_span = (other >= lo) & (other <= hi)
            d = np.where(on_span, d, np.inf)
        dist = np.minimum(dist, d)
    return dist


def _jittered_interior(geometry: Geometry, n_per_axis: int, rng):
    """One uniform draw per cell; draws touching an interface are retried.

    1D places n_per_axis cells in every subdomain; 2D uses a global
    n x n cell grid.  Weights are the cell measures (equal to Vol/J1 for
    the uniform layouts of interest).
    """
    if geometry.dimension == 1:
        cells = []
        for lo, hi in zip(geometry.subdomain_lo[:, 0], geometry.subdomain_hi[:, 0]):
            edges = np.linspace(lo, hi, n_per_axis + 1)
            cells.append(np.stack([edges[:-1], edges[1:]], axis=1))
        cells = np.concatenate(cells, axis=0)
        pts = rng.uniform(cells[:, 0], cells[:, 1])[:, None]
        weights = cells[:, 1] - cells[:, 0]
    else:
        (a, b), (c, d) = geometry.bounds
        ex = np.linspace(a, b, n_per_axis + 1)
        ey = np.linspace(c, d, n_per_axis + 1)
        gx0, gy0 = np.meshgrid(ex[:-1], ey[:-1], indexing="ij")
        wx = (b - a) / n_per_axis
        wy = (d - c) / n_per_axis
        u = rng.uniform(0, 1, size=(n_per_axis, n_per_axis, 2))
        pts = np.stack(
            [gx0 + u[:, :, 0] * wx, gy0 + u[:, :, 1] * wy], axis=2
        ).reshape(-1, 2)
        weights = np.full(pts.shape[0], wx * wy)
    for _ in range(100):
        bad = _min_interface_distance(geometry, pts) <= _INTERFACE_CLEARANCE
        if not np.any(bad):
            return pts, weights
        jitter = rng.uniform(-1e-9, 1e-9, size=(int(bad.sum()), pts.shape[1]))
        pts[bad] += jitter
    raise RuntimeError("could not clear interior points off the interfaces")


def _interface_samples(geometry: Geometry, n_per_interface: int, place):
    """Interface points, weights and interface ids.

    1D: the cut points with unit (counting-measure) weight.  2D: on every
    segment, ``place(lo, hi, n)`` puts one point in each of n equal cells of
    the span, and each point weighs the segment length over n.
    """
    if not geometry.interfaces:
        return np.zeros((0, geometry.dimension)), np.zeros(0), np.zeros(0, dtype=int)
    n_ifc = len(geometry.interfaces)
    if geometry.dimension == 1:
        points = np.array([[ifc.position] for ifc in geometry.interfaces])
        return points, np.ones(n_ifc), np.arange(n_ifc)
    points, weights = [], []
    for ifc in geometry.interfaces:
        lo, hi = ifc.span
        t = place(lo, hi, n_per_interface)
        pos = np.full(n_per_interface, ifc.position)
        points.append(np.stack([pos, t] if ifc.axis == 0 else [t, pos], axis=1))
        weights.append(np.full(n_per_interface, (hi - lo) / n_per_interface))
    ids = np.repeat(np.arange(n_ifc), n_per_interface)
    return np.concatenate(points), np.concatenate(weights), ids


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
        edges = np.linspace(lo, hi, n + 1)
        return rng_ifc.uniform(edges[:-1], edges[1:])

    ipts, iw, iid = _interface_samples(geometry, n_per_interface, stratified)
    return QuadratureSet(interior, w, sub, ipts, iw, iid)


def midpoint_grid(geometry: Geometry, n_per_axis: int, n_per_interface: int) -> QuadratureSet:
    """Deterministic cell-center quadrature for evaluation and reporting.

    2D: centers of the uniform n x n partition, weight |cell| each; 1D:
    n centers per subdomain.  Interface midpoints carry their segment
    length over the per-interface count (1D: unit weights at the cuts).
    """
    if n_per_axis < 1 or n_per_interface < 1:
        raise ValueError("counts must be >= 1")
    if geometry.dimension == 1:
        pts, weights, subs = [], [], []
        for i, (lo, hi) in enumerate(zip(geometry.subdomain_lo[:, 0], geometry.subdomain_hi[:, 0])):
            h = (hi - lo) / n_per_axis
            centers = lo + h * (np.arange(n_per_axis) + 0.5)
            pts.append(centers)
            weights.append(np.full(n_per_axis, h))
            subs.append(np.full(n_per_axis, i, dtype=int))
        interior = np.concatenate(pts)[:, None]
        w = np.concatenate(weights)
        sub = np.concatenate(subs)
        return QuadratureSet(interior, w, sub, *_interface_samples(geometry, 1, None))

    (a, b), (c, d) = geometry.bounds
    hx = (b - a) / n_per_axis
    hy = (d - c) / n_per_axis
    cx = a + hx * (np.arange(n_per_axis) + 0.5)
    cy = c + hy * (np.arange(n_per_axis) + 0.5)
    gx, gy = np.meshgrid(cx, cy, indexing="ij")
    interior = np.stack([gx.ravel(), gy.ravel()], axis=1)
    if np.any(_min_interface_distance(geometry, interior) <= _INTERFACE_CLEARANCE):
        raise ValueError(
            "midpoint grid centers fall on an interface; choose a count that "
            "keeps cell centers clear (e.g. an even count for centered cuts)"
        )
    sub = subdomain_index_many(geometry, interior)
    w = np.full(interior.shape[0], hx * hy)
    return QuadratureSet(
        interior, w, sub, *_interface_samples(geometry, n_per_interface, _cell_centers)
    )


def _cell_centers(lo: float, hi: float, n: int) -> np.ndarray:
    return lo + (hi - lo) / n * (np.arange(n) + 0.5)
