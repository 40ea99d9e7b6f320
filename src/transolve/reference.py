"""Ground-truth generators and error metrics.

The 1D benchmark has the closed-form solution sin(5x)/p_i; 2D references
come from a bilinear FEM on a uniform grid whose lines conform to the
material interfaces.  On such a grid the interior stiffness is a 9-point
stencil, assembled as its five distinct diagonals from slices of the
element p, and the load as slice-adds on the nodal grid, so no
element-by-element triplets are made.  SciPy's sparse modules are imported
by the solve itself, not with this module, which the training modules
import for `RhsSpec`.  Relative L2 errors (in percent) are evaluated on a
shared quadrature, optionally masking disks around the singular vertices
where the FEM reference is known to be unreliable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Geometry, subdomain_index_many
from .sampling import QuadratureSet

__all__ = [
    "RhsSpec",
    "FemSolution",
    "exact_1d",
    "fem_solve_2d",
    "relative_l2_errors",
]


@dataclass(frozen=True)
class RhsSpec:
    """Strong-form source of -div(p grad u) = rhs, affine in the local p.

    rhs(x) = p(x) * vertex-coupled factor + fixed part.  Built-ins:
    ``sin1d``  -> 25 sin(5x); ``corner2d`` -> p * sum_i sqrt(r_i)
    (cos(theta_i/2) - 3 sin(theta_i/2)) over the singular vertices, the
    square-root corner profile that excites the vertex singularities.
    ``vertices`` is kept as a read-only copy, so the caller's array stays
    writeable and an in-place edit of the spec's raises ValueError.
    """

    tag: str
    vertices: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))

    def __post_init__(self):
        vertices = np.array(self.vertices, dtype=float)
        vertices.flags.writeable = False
        object.__setattr__(self, "vertices", vertices)

    @staticmethod
    def for_geometry(tag: str, geometry: Geometry) -> "RhsSpec":
        if tag == "sin1d":
            if geometry.dimension != 1:
                raise ValueError("sin1d requires a 1D geometry")
            return RhsSpec("sin1d")
        if tag == "corner2d":
            if geometry.dimension != 2:
                raise ValueError("corner2d requires a 2D geometry")
            return RhsSpec("corner2d", geometry.singular_vertices)
        raise ValueError(f"unknown rhs tag {tag!r}")

    def factors(self, points: np.ndarray):
        """(p_factor, fixed) with rhs = p(x) * p_factor + fixed."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = points.shape[0]
        if self.tag == "sin1d":
            return np.zeros(n), 25.0 * np.sin(5.0 * points[:, 0])
        total = np.zeros(n)
        for vx, vy in self.vertices:
            dx = points[:, 0] - vx
            dy = points[:, 1] - vy
            r = np.hypot(dx, dy)
            theta = np.mod(np.arctan2(dy, dx), 2 * np.pi)
            total += np.sqrt(r) * (np.cos(theta / 2) - 3 * np.sin(theta / 2))
        return total, np.zeros(n)

    def evaluate(self, points: np.ndarray, p_local: np.ndarray) -> np.ndarray:
        pf, fixed = self.factors(points)
        return p_local * pf + fixed


def exact_1d(geometry: Geometry, parameter, x):
    """Closed-form solution sin(5x)/p_i and its derivative.

    It is continuous across a cut, and zero on the bounds, only where
    sin(5x) = 0, so a layout with a cut or bound elsewhere (to within
    1e-12) raises ValueError.
    """
    parameter = np.asarray(parameter, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    (a, b), = geometry.bounds
    if np.any(np.abs(np.sin(5 * np.array((a, *geometry.cuts_x, b)))) > 1e-12):
        raise ValueError("sin(5x)/p_i needs sin(5x) = 0 at every cut and bound")
    if np.any(x < a) or np.any(x > b):
        raise ValueError("point outside the domain")
    sub = subdomain_index_many(geometry, x[:, None])
    p = parameter[sub]
    return np.sin(5 * x) / p, 5 * np.cos(5 * x) / p


@dataclass
class FemSolution:
    """Bilinear nodal field on a uniform grid with element-constant p."""

    geometry: Geometry
    n: int
    values: np.ndarray  # (n+1, n+1) nodal values, [ix, iy]
    element_p: np.ndarray  # (n, n)

    def evaluate(self, points: np.ndarray):
        """Solution values and fluxes p*grad(u) by bilinear interpolation."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        (a, b), (c, d) = self.geometry.bounds
        hx = (b - a) / self.n
        hy = (d - c) / self.n
        ix = np.clip(((points[:, 0] - a) / hx).astype(int), 0, self.n - 1)
        iy = np.clip(((points[:, 1] - c) / hy).astype(int), 0, self.n - 1)
        xi = (points[:, 0] - (a + ix * hx)) / hx
        yi = (points[:, 1] - (c + iy * hy)) / hy
        v00 = self.values[ix, iy]
        v10 = self.values[ix + 1, iy]
        v01 = self.values[ix, iy + 1]
        v11 = self.values[ix + 1, iy + 1]
        u = (
            v00 * (1 - xi) * (1 - yi)
            + v10 * xi * (1 - yi)
            + v01 * (1 - xi) * yi
            + v11 * xi * yi
        )
        du_dx = ((v10 - v00) * (1 - yi) + (v11 - v01) * yi) / hx
        du_dy = ((v01 - v00) * (1 - xi) + (v11 - v10) * xi) / hy
        p = self.element_p[ix, iy]
        flux = np.stack([p * du_dx, p * du_dy], axis=1)
        return u, flux


_GAUSS2 = np.array([-1.0, 1.0]) / np.sqrt(3.0)


def fem_solve_2d(geometry: Geometry, parameter, rhs: RhsSpec, n_per_axis: int) -> FemSolution:
    """Standard bilinear FEM for -div(p grad u) = rhs with zero Dirichlet data.

    The uniform n x n grid must conform to the cuts; p is constant per
    element (taken at the element center), the load uses 2x2 Gauss points.
    On such a grid the stiffness of the m = n - 1 interior nodes per axis,
    numbered row-major, is a 9-point stencil: five distinct diagonals, at
    offsets 0, 1, m, m + 1 and m - 1 with their mirror images, each made
    from slices of the element p.  The load is four slice-adds per Gauss
    point on the nodal grid.  So no element-by-element triplets or
    restriction to the interior are made.  The SPD system is solved by one
    sparse LU factorization; a solution whose residual exceeds 1e-10 of the
    load raises RuntimeError.
    """
    # imported here: the training modules import this one for RhsSpec, and
    # would otherwise map the sparse modules in every run that solves no FEM
    from scipy import sparse
    from scipy.sparse.linalg import splu

    parameter = np.asarray(parameter, dtype=float)
    (a, b), (c, d) = geometry.bounds
    n = n_per_axis
    hx = (b - a) / n
    hy = (d - c) / n
    if abs(hx - hy) > 1e-12 * max(abs(hx), abs(hy)):
        raise ValueError("square elements required: bounds/n must give hx == hy")
    for cut in geometry.cuts_x:
        if abs(round((cut - a) / hx) * hx + a - cut) > 1e-9:
            raise ValueError(f"cut x={cut} does not align with the {n}x{n} grid")
    for cut in geometry.cuts_y:
        if abs(round((cut - c) / hy) * hy + c - cut) > 1e-9:
            raise ValueError(f"cut y={cut} does not align with the {n}x{n} grid")

    centers_x = a + hx * (np.arange(n) + 0.5)
    centers_y = c + hy * (np.arange(n) + 0.5)
    gx, gy = np.meshgrid(centers_x, centers_y, indexing="ij")
    centers = np.stack([gx.ravel(), gy.ravel()], axis=1)
    elem_p = parameter[subdomain_index_many(geometry, centers)].reshape(n, n)

    # bands[0..4] hold the couplings of interior node (i, j), 1 <= i, j <= m,
    # with itself and with (i, j + 1), (i + 1, j), (i + 1, j + 1) and
    # (i + 1, j - 1): nodes k = (i - 1) m + (j - 1) and k + offset, 0 where
    # the neighbour is a boundary node.  Element (i, j), with corners (i, j)
    # to (i + 1, j + 1), couples a corner with itself by 4 p / 6, with an
    # edge neighbour by -p / 6 and with the opposite corner by -2 p / 6, on
    # a square of any size
    sixth = elem_p * (1.0 / 6.0)
    m = n - 1
    bands = np.zeros((5, m, m))
    bands[0] = 4.0 * (sixth[:-1, :-1] + sixth[:-1, 1:] + sixth[1:, :-1] + sixth[1:, 1:])
    bands[1, :, :-1] = -(sixth[:-1, 1:-1] + sixth[1:, 1:-1])
    bands[2, :-1, :] = -(sixth[1:-1, :-1] + sixth[1:-1, 1:])
    bands[3, :-1, :-1] = -2.0 * sixth[1:-1, 1:-1]
    bands[4, :-1, 1:] = -2.0 * sixth[1:-1, 1:-1]
    size = m * m
    diagonals = {}
    for offset, band in zip((0, 1, m, m + 1, max(m - 1, 0)), bands.reshape(5, size)):
        # below n = 4, two bands may share an offset, or fall off the matrix
        if offset < size or not offset:
            diagonals[offset] = diagonals.get(offset, 0.0) + band[: size - offset]
    offsets = sorted({sign * k for k in diagonals for sign in (1, -1)})
    k_ii = sparse.diags(
        [diagonals[abs(k)] for k in offsets], offsets, shape=(size, size), format="csc"
    )

    # load: 2x2 Gauss per element, each point's share added to the element's
    # corners as four slices of the nodal grid.  A node takes its shares in
    # the order of its elements, (i - 1, j - 1), (i - 1, j), (i, j - 1) and
    # (i, j), of which it is the NE, SE, NW and SW corner
    f = np.zeros((n + 1, n + 1))
    jac = hx * hy / 4.0
    pe = elem_p.ravel()
    for gxi in _GAUSS2:
        for gyi in _GAUSS2:
            px = np.repeat(a + (np.arange(n) + 0.5 * (1 + gxi)) * hx, n)
            py = np.tile(c + (np.arange(n) + 0.5 * (1 + gyi)) * hy, n)
            vals = jac * rhs.evaluate(np.stack([px, py], axis=1), pe).reshape(n, n)
            f[1:, 1:] += vals * ((1 + gxi) * (1 + gyi) / 4.0)
            f[1:, :-1] += vals * ((1 + gxi) * (1 - gyi) / 4.0)
            f[:-1, 1:] += vals * ((1 - gxi) * (1 + gyi) / 4.0)
            f[:-1, :-1] += vals * ((1 - gxi) * (1 - gyi) / 4.0)
    f_i = f[1:-1, 1:-1].ravel()

    # minimum-degree ordering of K + K^T suits the symmetric stiffness: 40%
    # less fill than the default column ordering at n = 120
    u_i = splu(k_ii, permc_spec="MMD_AT_PLUS_A").solve(f_i)
    if np.linalg.norm(k_ii @ u_i - f_i) > 1e-10 * max(np.linalg.norm(f_i), 1e-300):
        raise RuntimeError("FEM linear solve failed its residual check")

    u = np.zeros((n + 1, n + 1))
    u[1:-1, 1:-1] = u_i.reshape(m, m)
    return FemSolution(geometry, n, u, elem_p)


def relative_l2_errors(
    approx_values,
    approx_flux,
    ref_values,
    ref_flux,
    quadrature: QuadratureSet,
    geometry: Geometry | None = None,
    mask_radius: float = 0.0,
):
    """Relative L2 errors in percent for the solution and flux fields.

    Fields must be sampled on the quadrature's J interior points: values of
    shape (J,), fluxes both (J,) or both (J, d); any other shape raises
    ValueError rather than broadcast.  With a mask radius and a 2D
    geometry, points within that distance of any singular vertex are
    excluded from both norms.
    """
    n, d = quadrature.interior_points.shape
    au = np.asarray(approx_values, dtype=float)
    ru = np.asarray(ref_values, dtype=float)
    if au.shape != (n,) or ru.shape != (n,):
        raise ValueError(f"value fields of shapes {au.shape} and {ru.shape}, expected ({n},)")
    af = np.asarray(approx_flux, dtype=float)
    rf = np.asarray(ref_flux, dtype=float)
    if af.shape != rf.shape or af.shape not in ((n,), (n, d)):
        raise ValueError(
            f"flux fields of shapes {af.shape} and {rf.shape}, expected both ({n},) or ({n}, {d})"
        )
    w = quadrature.interior_weights.copy()
    if mask_radius > 0 and geometry is not None and geometry.n_singular:
        pts = quadrature.interior_points
        for v in geometry.singular_vertices:
            w[np.hypot(pts[:, 0] - v[0], pts[:, 1] - v[1]) < mask_radius] = 0.0
    sol_ref = np.sum(w * ru**2)
    if sol_ref <= 0:
        raise ValueError("reference solution has zero norm on the quadrature")
    sol_err = np.sum(w * (au - ru) ** 2)
    if af.ndim == 1:  # scalar 1D flux
        af = af[:, None]
        rf = rf[:, None]
    flux_ref = np.sum(w * np.sum(rf**2, axis=-1))
    if flux_ref <= 0:
        raise ValueError("reference flux has zero norm on the quadrature")
    flux_err = np.sum(w * np.sum((af - rf) ** 2, axis=-1))
    return (
        100.0 * np.sqrt(sol_err / sol_ref),
        100.0 * np.sqrt(flux_err / flux_ref),
    )
