"""Singular trial functions r^L mu(theta) eta(r) and their residual sources.

Each singular vertex contributes one trial function per selected angular
mode.  The function itself is supported on the disk r < delta2; the
residual source produced by the radial cutoff,

    S = 2 L r^(L-1) mu eta' + r^L mu (eta'' + eta'/r),

lives only on the transition annulus delta1 < r < delta2, so no Laplacian
is ever evaluated near the vertex where r^(L-2) would blow up.  The s
inside the printed source formula is the cutoff-free part r^L mu.

`polar_cache` is the one vertex-disk table of a point set: once per point
set it finds each vertex's disk, and holds there everything about those
points that does not depend on the parameter, their offset, radius and
unit direction from the vertex and the eta jet, with the support rows,
the point indices of the disks and of the annuli.  The FE angular basis
at those points (`VertexGeo.angular`) is formed at its first read, which
only the singular columns make: the interface points' table, which only
the cutoffs read, never forms it.  The same
radius and eta serve both uses of the cutoff: the singular columns here,
and the exclusion factors phi_v = 1 - eta of `cutoffs.composition_factors`
and `cutoffs.interface_trace_factors`, which read the table's rows.  Every
singular block lives on its support rows only: `singular_evals_from_cache`
gives the sources of all columns on the annulus rows (the least-squares
rows) and `eval_s` the values and gradients of all columns on the disk
rows (the solution fields), so their size follows the annuli and disks and
not the point set.  Per parameter only the exponents and angular
coefficients enter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cutoffs import CutoffConfig, eta_jet
from .eigen import N_BASIS, XI_PER_THETA, EigenModes, basis_matrix
from .geometry import Geometry

__all__ = ["VertexGeo", "PolarCache", "polar_cache", "singular_evals_from_cache", "eval_s"]

_GRAD_GUARD = 1e-12


@dataclass
class VertexGeo:
    """Parameter-independent factors at the points of one vertex's disk
    r < delta2, its annulus points (delta1 < r) first."""

    rows: np.ndarray  # point indices of the disk, the annulus points first
    n_annulus: int  # the first n_annulus points lie on the annulus, where the source lives
    offset: np.ndarray  # (len, 2) x - x_v
    r: np.ndarray
    direction: np.ndarray  # (len, 2) unit vectors (x - x_v) / r, zero at the vertex itself
    eta: np.ndarray
    eta_p: np.ndarray
    eta_pp: np.ndarray

    @cached_property
    def angular(self) -> tuple[np.ndarray, np.ndarray]:
        """The (len, 16) FE angular basis at each point's angle theta about
        the vertex and its theta-derivatives, read-only.  Formed at the
        first read and kept: the singular columns read it, the cutoffs do
        not.  On train2d-corner's interface points that leaves out 0.17 of
        the table's 0.32 ms per epoch."""
        dx, dy = np.ascontiguousarray(self.offset.T)  # contiguous, as arctan2 read them before
        theta = np.mod(np.arctan2(dy, dx), 2 * np.pi)
        values, derivs = basis_matrix(theta * XI_PER_THETA)
        derivs *= XI_PER_THETA
        values.flags.writeable = derivs.flags.writeable = False
        return values, derivs


@dataclass
class PolarCache:
    """The vertex-disk table of one point set: per-vertex polar factors,
    vertex order of the geometry, and the number of points it indexes.

    The support rows are point indices, vertex-major in the same order as
    ``vertices``: ``disk_rows`` lists every vertex's disk points (its
    ``rows``), its annulus points first, and ``annulus_rows`` the annulus
    points alone.  The disks are disjoint, so neither lists a point twice.
    A consumer of the table checks ``n_points`` against its own points.
    """

    n_points: int
    vertices: list[VertexGeo]
    disk_rows: np.ndarray  # (D,) where the singular functions live
    annulus_rows: np.ndarray  # (R,) where their sources live, a subset of disk_rows

    def check_points(self, n: int) -> None:
        """Raise ValueError unless the table indexes ``n`` points."""
        if n != self.n_points:
            raise ValueError(f"the vertex-disk table indexes {self.n_points} points, not {n}")


def polar_cache(points, geometry: Geometry, config: CutoffConfig) -> PolarCache:
    """The vertex-disk table of ``points``: every point inside a singular
    vertex's disk r = |x - x_v| < delta2, with its radius, unit direction,
    eta jet and angular tables; no vertex in 1D.

    r is the root of dx^2 + dy^2, bit for bit as `np.linalg.norm` forms
    it, but from the two component planes rather than by a reduction over
    the short last axis, which took six times as long.  The disk rows are
    chosen from the radius eta is made from, so no row on which eta
    differs from 0 is left out: off the disk `cutoffs.eta_jet` is exactly
    0 with zero derivatives.  A point inside two vertices' disks raises
    ValueError: the default radii (`cutoffs.default_cutoff_config`) keep
    the disks apart.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    vertices = []
    for v in geometry.singular_vertices:
        dx, dy = points[:, 0] - v[0], points[:, 1] - v[1]
        r = np.sqrt(dx * dx + dy * dy)
        inside = r < config.delta2
        annulus = inside & (r > config.delta1)
        idx = np.concatenate([np.flatnonzero(annulus), np.flatnonzero(inside & ~annulus)])
        ra, offset = r[idx], np.stack([dx[idx], dy[idx]], axis=1)
        direction = offset / np.where(ra > 0, ra, 1.0)[:, None]
        vertices.append(VertexGeo(idx, np.count_nonzero(annulus), offset, ra, direction,
                                  *eta_jet(ra, config)))
    empty = np.zeros(0, dtype=np.intp)
    disk_rows = np.concatenate([empty] + [geo.rows for geo in vertices])
    if np.unique(disk_rows).size != disk_rows.size:
        raise ValueError("a point lies inside the cutoff disks of two singular vertices")
    annulus_rows = np.concatenate([empty] + [geo.rows[: geo.n_annulus] for geo in vertices])
    return PolarCache(len(points), vertices, disk_rows, annulus_rows)


def _vertex_slots(cache: PolarCache, pairs_per_p: list):
    """The column slots of a batch: their count M and, per vertex with
    slots, its factors, its slices of the disk rows, of the annulus rows
    and of the columns, the exponents (P, 1, m) and the unit-L2 angular
    coefficient vectors (P, 16, m) of its m slots, m being the most modes
    any of the P parameters has there.  A parameter's selection there (its
    `eigen.select_singular` rows) fills its first slots in mode order, its
    exponents and its coefficients rho scaled by mu_scale copied as one
    array each; the others have exponent 1 and zero coefficients, so their
    columns are zero."""
    slots, disk, annulus, col = [], 0, 0, 0
    for v, geo in enumerate(cache.vertices):
        per_p = [pairs[v] for pairs in pairs_per_p]
        m = max(map(len, per_p))
        if m:
            lam = np.ones((len(per_p), 1, m))
            coef = np.zeros((len(per_p), N_BASIS, m))
            for k, sel in enumerate(per_p):
                lam[k, 0, : len(sel)] = sel.exponent
                coef[k, :, : len(sel)] = (sel.mu_scale[:, None] * sel.rho).T
            slots.append((
                geo, slice(disk, disk + geo.r.size), slice(annulus, annulus + geo.n_annulus),
                slice(col, col + m), lam, coef,
            ))
        disk += geo.r.size
        annulus += geo.n_annulus
        col += m
    return col, slots


def singular_evals_from_cache(cache: PolarCache, pairs_per_p: list):
    """Residual sources S of a batch's singular columns on the annulus rows.

    ``pairs_per_p`` holds per parameter its selection per vertex, the
    rows of `eigen.EigenModes` that `eigen.select_singular` keeps.
    Returns one (P, R, M) block for the R points of ``cache.annulus_rows``,
    its M columns vertex-major (`_vertex_slots`), zero in a parameter's
    unused slots; S is zero at every other point.
    """
    n_cols, slots = _vertex_slots(cache, pairs_per_p)
    out = np.zeros((len(pairs_per_p), cache.annulus_rows.size, n_cols))
    for geo, _, rows, cols, lam, coef in slots:
        a = slice(geo.n_annulus)
        r = geo.r[a, None]
        # 2 L r^(L-1) eta' + r^L (eta'' + eta'/r), with r^(L-1) taken out
        radial = (2 * lam + 1) * geo.eta_p[a, None] + r * geo.eta_pp[a, None]
        out[:, rows, cols] = (geo.angular[0][a] @ coef) * r ** (lam - 1) * radial
    return out


def eval_s(cache: PolarCache, pairs_per_vertex: list[EigenModes]):
    """Values (D, n_cols) and Cartesian gradients (D, 2, n_cols) of one
    parameter's singular trial functions on the disk rows, columns as in
    `singular_evals_from_cache` for a batch of that parameter alone, so
    every slot is filled; the direction comes before the column, as in
    `assembly.evaluate_solution`.

    ``pairs_per_vertex`` holds the parameter's selection per vertex, as
    `singular_evals_from_cache` reads it.  The D points are those of
    ``cache.disk_rows``; every function is zero at every other point.  With
    exponent < 1 the gradient blows up at the vertex, so a point closer
    than 1e-12 to a vertex with selected modes raises ValueError.
    """
    n_cols, slots = _vertex_slots(cache, [pairs_per_vertex])
    values = np.zeros((cache.disk_rows.size, n_cols))
    grads = np.zeros((cache.disk_rows.size, 2, n_cols))
    for geo, rows, _, cols, (lam,), (coef,) in slots:
        if np.any(geo.r < _GRAD_GUARD):
            raise ValueError("gradient requested inside the guard radius of the vertex")
        r = geo.r[:, None]
        rl1 = r ** (lam - 1)
        ang, ang_derivs = geo.angular
        mu = ang @ coef
        mu_eta = mu * geo.eta[:, None]
        # with s = r^L mu eta: r^(1-L) ds/dr and r^(1-L) (1/r) ds/dtheta
        ds_dr = lam * mu_eta + r * mu * geo.eta_p[:, None]
        ds_dt_over_r = (ang_derivs @ coef) * geo.eta[:, None]
        ct, st = geo.direction[:, :1], geo.direction[:, 1:]
        values[rows, cols] = r * rl1 * mu_eta
        grads[rows, 0, cols] = rl1 * (ds_dr * ct - ds_dt_over_r * st)
        grads[rows, 1, cols] = rl1 * (ds_dr * st + ds_dt_over_r * ct)
    return values, grads
