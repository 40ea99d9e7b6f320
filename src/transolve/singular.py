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
points that does not depend on the parameter, as one flat table with a
row per disk point: its point index, its vertex, its offset, radius and
unit direction from the vertex and the eta jet, vertex by vertex, each
vertex's annulus rows first, with each vertex's annulus count.  The same
radius and eta serve both uses of the cutoff: the singular columns here,
and the exclusion factors phi_v = 1 - eta of `cutoffs.composition_factors`
and `cutoffs.interface_trace_factors`, which form phi on all the table's
rows at once.  The singular columns read the table's stacked disks
instead (`PolarCache.stacked`): every vertex's factors and FE angular
basis as one row of (N_s, S) arrays padded to the largest disk, gathered
from the flat rows at the first read, which only the singular columns
make, so the interface points' table, which only the cutoffs read, never
forms it.  Every singular block lives on its support rows only:
`singular_evals_from_cache` gives the sources of all columns on the
annulus rows (the least-squares rows) and `eval_s` the values and
gradients of all columns on the disk rows (the solution fields), so their
size follows the annuli and disks and not the point set.  Each evaluates
every vertex in one pass over the stack, one matmul per angular table and
the elementwise formulas over all vertices at once, and then copies each
vertex's block into its rows and columns.  Per parameter only the
exponents and angular coefficients enter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cutoffs import CutoffConfig, eta_jet
from .eigen import N_BASIS, XI_PER_THETA, EigenModes, basis_matrix
from .geometry import Geometry

__all__ = ["PolarCache", "polar_cache", "singular_evals_from_cache", "eval_s"]

_GRAD_GUARD = 1e-12


@dataclass
class StackedDisks:
    """Every vertex's disk as one row of (N_s, S) stacks, read-only.

    Row v holds vertex v's annulus points in places [0, n_annulus) and its
    inner disk points from place ``n_annulus`` on, each part padded to the
    largest of the vertices', so that the sources read the annulus points
    alone as ``[:, :n_annulus]``.  A pad place has radius 1 and zero eta
    jets, direction and angular tables, so every function of a slot is
    finite there and zero.
    ``disk_at`` lists the places of the disk rows (`PolarCache.disk_rows`)
    in the flattened (N_s * S) stack, in their order."""

    n_annulus: int  # A: places [0, A) of each row hold its annulus points
    r: np.ndarray  # (N_s, S), pad 1
    eta: np.ndarray  # (N_s, S), pad 0, as are eta_p, eta_pp, direction and the tables
    eta_p: np.ndarray
    eta_pp: np.ndarray
    direction: np.ndarray  # (N_s, S, 2)
    values: np.ndarray  # (N_s, S, 16) FE angular basis at each point's angle about the vertex
    derivs: np.ndarray  # (N_s, S, 16) its theta-derivatives
    disk_at: np.ndarray  # (D,) places of the disk rows in the flattened stack


@dataclass
class PolarCache:
    """The vertex-disk table of one point set: one row per point inside a
    singular vertex's disk r < delta2, and the number of points it indexes.

    The rows run vertex by vertex in the vertex order of the geometry, each
    vertex's annulus points (delta1 < r) first, then its inner points, each
    part in point order.  ``disk_rows`` holds each row's point index and
    ``annulus_rows`` the annulus rows' alone.  The disks are disjoint, so
    neither lists a point twice.  A consumer of the table checks
    ``n_points`` against its own points.
    """

    n_points: int
    disk_rows: np.ndarray  # (D,) point index of each row: where the singular functions live
    annulus_rows: np.ndarray  # (R,) where their sources live, a subset of disk_rows
    vertex: np.ndarray  # (D,) the vertex of each row
    n_annulus: np.ndarray  # (N_s,) per vertex: how many of its rows lie on the annulus
    offset: np.ndarray  # (D, d) x - x_v
    r: np.ndarray  # (D,)
    direction: np.ndarray  # (D, d) unit vectors (x - x_v) / r, zero at the vertex itself
    eta: np.ndarray  # (D,) as are eta_p and eta_pp
    eta_p: np.ndarray
    eta_pp: np.ndarray

    def check_points(self, n: int) -> None:
        """Raise ValueError unless the table indexes ``n`` points."""
        if n != self.n_points:
            raise ValueError(f"the vertex-disk table indexes {self.n_points} points, not {n}")

    @property
    def n_disk(self) -> np.ndarray:
        """(N_s,) the number of rows of each vertex."""
        return np.bincount(self.vertex, minlength=self.n_annulus.size)

    @cached_property
    def stacked(self) -> StackedDisks:
        """The disks stacked and padded (`StackedDisks`), formed at the
        first read and kept: the singular columns read it, the cutoffs do
        not, so the interface points' table never forms it.  The live
        places of the stack, in order, are the table's rows, so each array
        is one gather from the flat one with its pad value after it.  The
        angular tables are `eigen.basis_matrix` at all the places' angles
        in one call, zero at the pads, each point's bits those of a call on
        its vertex's points alone."""
        n_a = self.n_annulus
        n_i = self.n_disk - n_a
        a = int(n_a.max())
        place = np.arange(a + n_i.max())
        live = np.where(place < a, place < n_a[:, None], place - a < n_i[:, None])
        # the live places take the rows in order; a pad reads the pad value after the last
        at = np.where(live, np.cumsum(live).reshape(live.shape) - 1, np.count_nonzero(live))

        def gather(flat, pad):
            return np.take(np.concatenate([flat, np.full((1,) + flat.shape[1:], pad)]), at, axis=0)

        offset = gather(self.offset, 0.0).reshape(-1, 2)
        dx, dy = np.ascontiguousarray(offset.T)  # contiguous component planes for arctan2
        values, derivs = basis_matrix(np.mod(np.arctan2(dy, dx), 2 * np.pi) * XI_PER_THETA)
        derivs *= XI_PER_THETA
        values[~live.ravel()] = derivs[~live.ravel()] = 0.0
        disks = StackedDisks(a, gather(self.r, 1.0), *(gather(flat, 0.0) for flat in (
            self.eta, self.eta_p, self.eta_pp, self.direction)),
            values.reshape(at.shape + (N_BASIS,)), derivs.reshape(at.shape + (N_BASIS,)),
            np.flatnonzero(live))
        for value in vars(disks).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return disks


def polar_cache(points, geometry: Geometry, config: CutoffConfig) -> PolarCache:
    """The vertex-disk table of ``points``: every point inside a singular
    vertex's disk r = |x - x_v| < delta2, with its offset, radius, unit
    direction and eta jet; no vertex in 1D, so an empty table there.

    r is the root of dx^2 + dy^2, bit for bit as `np.linalg.norm` forms
    it, but from the two component planes of the (N_s, J) offsets of every
    vertex and point rather than by a reduction over the short last axis,
    which took six times as long.  The disk rows are chosen from the
    radius eta is made from, so no row on which eta differs from 0 is left
    out: off the disk `cutoffs.eta_jet` is exactly 0 with zero
    derivatives.  A point inside two vertices' disks raises ValueError:
    the default radii (`cutoffs.default_cutoff_config`) keep the disks
    apart.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not geometry.n_singular:  # 1D: the empty table, without reading a y column
        none, flat = np.zeros(0, dtype=np.intp), np.zeros((0, points.shape[1]))
        return PolarCache(len(points), none, none, none, none, flat, flat[:, 0], flat,
                          *[flat[:, 0]] * 3)
    dx, dy = (points[:, k] - geometry.singular_vertices[:, k, None] for k in (0, 1))  # (N_s, J)
    r = np.sqrt(dx * dx + dy * dy)
    inside = r < config.delta2
    annulus = inside & (r > config.delta1)
    # (vertex, part, point) in order: vertex by vertex, its annulus rows first
    vertex, part, rows = np.nonzero(np.stack([annulus, inside & ~annulus], axis=1))
    if np.unique(rows).size != rows.size:
        raise ValueError("a point lies inside the cutoff disks of two singular vertices")
    r = r[vertex, rows]
    offset = np.stack([dx[vertex, rows], dy[vertex, rows]], axis=1)
    direction = offset / np.where(r > 0, r, 1.0)[:, None]
    return PolarCache(len(points), rows, rows[part == 0], vertex, np.count_nonzero(annulus, axis=1),
                      offset, r, direction, *eta_jet(r, config))


def _vertex_slots(cache: PolarCache, pairs_per_p: list):
    """The column slots of a batch: their count M, per vertex with slots
    its index and its slices of the annulus rows, of the disk rows and of
    the columns, and the (P, N_s, 1, m) exponents and (P, N_s, 16, m)
    unit-L2 angular coefficient vectors of every vertex's slots.  Vertex v
    has m_v slots, the most modes any of the P parameters has there, and m
    is the largest m_v.  A parameter's selection there (its
    `eigen.select_singular` rows) fills its first slots in mode order, its
    exponents and its coefficients rho scaled by mu_scale copied as one
    array each; the other slots have exponent 1 and zero coefficients, so
    their functions are zero.  Without slots (1D, or no selected mode) the
    arrays are None."""
    most = [max(map(len, per_p)) for per_p in zip(*pairs_per_p)]  # a list: a few entries
    if not any(most):
        return 0, [], None, None
    lam = np.ones((len(pairs_per_p), len(most), 1, max(most)))
    coef = np.zeros((len(pairs_per_p), len(most), N_BASIS, lam.shape[-1]))
    for k, pairs in enumerate(pairs_per_p):
        for v, sel in enumerate(pairs):
            if n := len(sel):
                lam[k, v, 0, :n] = sel.exponent
                np.multiply(sel.rho.T, sel.mu_scale, out=coef[k, v, :, :n])
    slots, disk, annulus, col = [], 0, 0, 0
    for v, (n_d, n_a, m) in enumerate(zip(cache.n_disk.tolist(), cache.n_annulus.tolist(), most)):
        if m:
            slots.append((v, slice(annulus, annulus + n_a), slice(disk, disk + n_d),
                          slice(col, col + m)))
        disk += n_d
        annulus += n_a
        col += m
    return col, slots, lam, coef


def singular_evals_from_cache(cache: PolarCache, pairs_per_p: list):
    """Residual sources S of a batch's singular columns on the annulus rows.

    ``pairs_per_p`` holds per parameter its selection per vertex, the
    rows of `eigen.EigenModes` that `eigen.select_singular` keeps.
    Returns one (P, R, M) block for the R points of ``cache.annulus_rows``,
    its M columns vertex-major (`_vertex_slots`), zero in a parameter's
    unused slots; S is zero at every other point.  Every vertex is
    evaluated at once on the annulus places of the stacked disks
    (`PolarCache.stacked`), one matmul for the angular table, and each
    vertex's block is copied into its rows and columns.
    """
    n_cols, slots, lam, coef = _vertex_slots(cache, pairs_per_p)
    out = np.zeros((len(pairs_per_p), cache.annulus_rows.size, n_cols))
    if not slots:
        return out
    disks = cache.stacked
    a = slice(disks.n_annulus)
    r = disks.r[:, a, None]
    # 2 L r^(L-1) eta' + r^L (eta'' + eta'/r), with r^(L-1) taken out
    radial = (2 * lam + 1) * disks.eta_p[:, a, None] + r * disks.eta_pp[:, a, None]
    source = (disks.values[:, a] @ coef) * r ** (lam - 1) * radial  # (P, N_s, A, m)
    for v, rows, _, cols in slots:
        out[:, rows, cols] = source[:, v, : rows.stop - rows.start, : cols.stop - cols.start]
    return out


def eval_s(cache: PolarCache, pairs_per_vertex: list[EigenModes]):
    """Values (D, n_cols) and Cartesian gradients (D, 2, n_cols) of one
    parameter's singular trial functions on the disk rows, columns as in
    `singular_evals_from_cache` for a batch of that parameter alone, so
    every slot is filled; the direction comes before the column, as in
    `assembly.evaluate_solution`.

    ``pairs_per_vertex`` holds the parameter's selection per vertex, as
    `singular_evals_from_cache` reads it.  The D points are those of
    ``cache.disk_rows``; every function is zero at every other point.  Every
    vertex is evaluated at once on the stacked disks, one matmul per
    angular table, into one (N_s, S, 3, m) array of values and gradients,
    whose disk places are gathered into the disk rows' order and copied
    into each vertex's columns.  With exponent < 1 the gradient blows up at
    the vertex, so a point closer than 1e-12 to a vertex with selected
    modes raises ValueError.
    """
    n_cols, slots, lam, coef = _vertex_slots(cache, [pairs_per_vertex])
    values = np.zeros((cache.disk_rows.size, n_cols))
    grads = np.zeros((cache.disk_rows.size, 2, n_cols))
    if not slots:
        return values, grads
    lam, coef = lam[0], coef[0]
    disks = cache.stacked
    if np.any(disks.r[[v for v, *_ in slots]] < _GRAD_GUARD):
        raise ValueError("gradient requested inside the guard radius of the vertex")
    r, eta = disks.r[:, :, None], disks.eta[:, :, None]
    rl1 = r ** (lam - 1)
    mu = disks.values @ coef
    mu_eta = mu * eta
    # with s = r^L mu eta: r^(1-L) ds/dr and r^(1-L) (1/r) ds/dtheta
    ds_dr = lam * mu_eta + r * mu * disks.eta_p[:, :, None]
    ds_dt_over_r = (disks.derivs @ coef) * eta
    ct, st = disks.direction[:, :, :1], disks.direction[:, :, 1:]
    out = np.stack([r * rl1 * mu_eta, rl1 * (ds_dr * ct - ds_dt_over_r * st),
                    rl1 * (ds_dr * st + ds_dt_over_r * ct)], axis=2)
    placed = out.reshape(-1, 3, mu.shape[2])[disks.disk_at]  # (D, 3, m) in disk-row order
    for _, _, rows, cols in slots:
        values[rows, cols] = placed[rows, 0, : cols.stop - cols.start]
        grads[rows, :, cols] = placed[rows, 1:, : cols.stop - cols.start]
    return values, grads
