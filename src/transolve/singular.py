"""Singular trial functions r^L mu(theta) eta(r) and their residual sources.

Each singular vertex contributes one trial function per selected angular
eigenpair.  The function itself is supported on the disk r < delta2; the
residual source produced by the radial cutoff,

    S = 2 L r^(L-1) mu eta' + r^L mu (eta'' + eta'/r),

lives only on the transition annulus delta1 < r < delta2, so no Laplacian
is ever evaluated near the vertex where r^(L-2) would blow up.  The s
inside the printed source formula is the cutoff-free part r^L mu.

`polar_cache` computes, once per point set, everything about those points
that does not depend on the parameter: their polar coordinates about each
vertex, the eta jet and the FE angular basis.  `singular_evals_from_cache`
gives the sources of all columns (the least-squares rows) and `eval_s` the
values and gradients of all columns (the solution fields) from it; per
parameter only the exponents and angular coefficients enter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cutoffs import CutoffConfig, eta_jet
from .eigen import XI_PER_THETA, EigenPair, basis_matrix
from .geometry import Geometry

__all__ = ["VertexGeo", "PolarCache", "polar_cache", "singular_evals_from_cache", "eval_s"]

_GRAD_GUARD = 1e-12


@dataclass
class VertexGeo:
    """Parameter-independent factors at the points of one vertex's disk r < delta2."""

    index: np.ndarray  # indices into the point set
    annulus: np.ndarray  # (len,) bool, delta1 < r: where the source lives
    r: np.ndarray
    theta: np.ndarray  # in [0, 2pi)
    eta: np.ndarray
    eta_p: np.ndarray
    eta_pp: np.ndarray
    ang_values: np.ndarray  # (len, 16) FE angular basis at theta
    ang_derivs: np.ndarray  # (len, 16) their theta-derivatives


@dataclass
class PolarCache:
    """Per-vertex polar factors of one point set, vertex order of the geometry."""

    n_points: int
    vertices: list[VertexGeo]


def polar_cache(points, geometry: Geometry, config: CutoffConfig) -> PolarCache:
    """Factors of every point of ``points`` inside a singular vertex's disk."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    vertices = []
    for v in geometry.singular_vertices:
        dx = points[:, 0] - v[0]
        dy = points[:, 1] - v[1]
        r = np.hypot(dx, dy)
        idx = np.flatnonzero(r < config.delta2)
        ra = r[idx]
        eta, ep, epp = eta_jet(ra, config)
        theta = np.mod(np.arctan2(dy[idx], dx[idx]), 2 * np.pi)
        vals, ders = basis_matrix(theta * XI_PER_THETA)
        vertices.append(
            VertexGeo(idx, ra > config.delta1, ra, theta, eta, ep, epp, vals, ders * XI_PER_THETA)
        )
    return PolarCache(points.shape[0], vertices)


def _vertex_modes(cache: PolarCache, pairs_per_vertex: list[list[EigenPair]]):
    """Per vertex with selected pairs: its factors, its column slice, the
    exponents (m,) and the unit-L2 angular coefficient vectors (16, m)."""
    start = 0
    for geo, pairs in zip(cache.vertices, pairs_per_vertex):
        if pairs:
            lam = np.array([pair.exponent for pair in pairs])
            coef = np.stack([pair.mu_scale * pair.rho for pair in pairs], axis=1)
            yield geo, slice(start, start + len(pairs)), lam, coef
        start += len(pairs)


def singular_evals_from_cache(cache: PolarCache, pairs_per_vertex: list[list[EigenPair]]):
    """Residual sources S of all singular columns at the cached points.

    Returns (J, n_cols), columns vertex-major in pair order; zero off each
    vertex's annulus.
    """
    out = np.zeros((cache.n_points, sum(len(pairs) for pairs in pairs_per_vertex)))
    for geo, cols, lam, coef in _vertex_modes(cache, pairs_per_vertex):
        a = geo.annulus
        r = geo.r[a, None]
        eta_p = geo.eta_p[a, None]
        mu = geo.ang_values[a] @ coef
        radial = 2 * lam * r ** (lam - 1) * eta_p + r**lam * (geo.eta_pp[a, None] + eta_p / r)
        out[geo.index[a], cols] = mu * radial
    return out


def eval_s(cache: PolarCache, pairs_per_vertex: list[list[EigenPair]]):
    """Values (J, n_cols) and Cartesian gradients (J, n_cols, 2) of all
    singular trial functions at the cached points, columns as in
    `singular_evals_from_cache`.

    With exponent < 1 the gradient blows up at the vertex, so a point
    closer than 1e-12 to a vertex with selected pairs raises ValueError.
    """
    n_cols = sum(len(pairs) for pairs in pairs_per_vertex)
    values = np.zeros((cache.n_points, n_cols))
    grads = np.zeros((cache.n_points, n_cols, 2))
    for geo, cols, lam, coef in _vertex_modes(cache, pairs_per_vertex):
        if np.any(geo.r < _GRAD_GUARD):
            raise ValueError("gradient requested inside the guard radius of the vertex")
        r = geo.r[:, None]
        eta = geo.eta[:, None]
        mu = geo.ang_values @ coef
        dmu = geo.ang_derivs @ coef
        rl = r**lam
        rl1 = r ** (lam - 1)
        ds_dr = lam * rl1 * mu * eta + rl * mu * geo.eta_p[:, None]
        ds_dt_over_r = rl1 * dmu * eta
        ct, st = np.cos(geo.theta)[:, None], np.sin(geo.theta)[:, None]
        values[geo.index, cols] = rl * mu * eta
        grads[geo.index, cols, 0] = ds_dr * ct - ds_dt_over_r * st
        grads[geo.index, cols, 1] = ds_dr * st + ds_dt_over_r * ct
    return values, grads
