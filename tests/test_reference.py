import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

import transolve
from transolve.geometry import build_grid_geometry, subdomain_index_many
from transolve.reference import RhsSpec, exact_1d, fem_solve_2d, relative_l2_errors
from transolve.sampling import midpoint_grid

from conftest import geom_1d, geom_2x2, geom_3x3

PI = np.pi


@pytest.mark.parametrize("count", [0, -2, 2.5, True, np.float64(4.0), "4"], ids=repr)
def test_fem_rejects_a_grid_count_that_is_not_an_integer_of_at_least_one(count):
    """A grid count that is not an integer >= 1 raises a ValueError naming
    it before any element is made; a NumPy integer counts."""
    g = geom_2x2()
    with pytest.raises(ValueError, match=r"n_per_axis must be an integer >= 1, not "):
        fem_solve_2d(g, np.ones(4), RhsSpec.for_geometry("corner2d", g), count)
    sol = fem_solve_2d(g, np.ones(4), RhsSpec.for_geometry("corner2d", g), np.int64(8))
    want = fem_solve_2d(g, np.ones(4), RhsSpec.for_geometry("corner2d", g), 8)
    np.testing.assert_array_equal(sol.values, want.values)


def test_exact_1d_values():
    g = geom_1d()
    p = np.array([2.0, 1.0, 1.0, 1.0, 1.0])
    u, du = exact_1d(g, p, PI / 10)
    assert u[0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        exact_1d(g, p, -0.1)


def test_exact_1d_rejects_a_cut_where_sin_5x_is_not_zero():
    """With a cut at x = 1.0, sin(5x)/p_i jumps there: -0.959 on one side,
    -0.320 on the other for p = (1, 3)."""
    g = build_grid_geometry(1, cuts_x=[1.0], bounds=[(0, PI)])
    with pytest.raises(ValueError, match="every cut and bound"):
        exact_1d(g, np.array([1.0, 3.0]), 0.5)


def test_exact_1d_interface_continuity():
    g = geom_1d()
    p = np.array([1.0, 4.0, 0.2, 30.0, 49.0])
    for gamma in g.cuts_x:
        um, _ = exact_1d(g, p, gamma - 1e-12)
        up, _ = exact_1d(g, p, gamma + 1e-12)
        assert um[0] == pytest.approx(up[0], abs=1e-10)  # sin(5 gamma) = 0


def test_exact_1d_flux_continuity():
    g = geom_1d()
    p = np.array([1.0, 4.0, 0.2, 30.0, 49.0])
    for gamma in g.cuts_x:
        um, dm = exact_1d(g, p, gamma - 1e-12)
        up, dp = exact_1d(g, p, gamma + 1e-12)
        pm = p[int(5 * gamma / PI) - 1]
        pp = p[int(5 * gamma / PI)]
        assert pm * dm[0] == pytest.approx(pp * dp[0], rel=1e-9)


def test_exact_1d_strong_residual():
    """-(p u')' = 25 sin(5x) pointwise, via finite differences."""
    g = geom_1d()
    p = np.array([1.0, 4.0, 0.2, 30.0, 49.0])
    rng = np.random.default_rng(0)
    h = 1e-5
    for _ in range(40):
        x = rng.uniform(0.05, PI - 0.05)
        if min(abs(x - c) for c in g.cuts_x) < 2 * h:
            continue
        up, _ = exact_1d(g, p, x + h)
        u0, _ = exact_1d(g, p, x)
        um, _ = exact_1d(g, p, x - h)
        pi = p[np.searchsorted(np.array(g.cuts_x), x)]
        resid = -pi * (up[0] - 2 * u0[0] + um[0]) / h**2 - 25 * np.sin(5 * x)
        assert abs(resid) <= 1e-4  # fd truncation at h=1e-5 dominates


def test_fem_manufactured_solution():
    g = geom_2x2()

    class Manufactured(RhsSpec):
        def __init__(self):
            super().__init__("sinsin")

        def factors(self, points):
            points = np.atleast_2d(points)
            val = 2 * PI**2 * np.sin(PI * points[:, 0]) * np.sin(PI * points[:, 1])
            return np.zeros(points.shape[0]), val

    sol = fem_solve_2d(g, np.ones(4), Manufactured(), 100)
    q = midpoint_grid(g, 100, 10)
    u, flux = sol.evaluate(q.interior_points)
    u_ref = np.sin(PI * q.interior_points[:, 0]) * np.sin(PI * q.interior_points[:, 1])
    gx = PI * np.cos(PI * q.interior_points[:, 0]) * np.sin(PI * q.interior_points[:, 1])
    gy = PI * np.sin(PI * q.interior_points[:, 0]) * np.cos(PI * q.interior_points[:, 1])
    sol_pct, flux_pct = relative_l2_errors(u, flux, u_ref, np.stack([gx, gy], 1), q)
    assert sol_pct <= 0.1
    assert flux_pct <= 5.0


def test_fem_convergence_order():
    g = geom_2x2()

    class Manufactured(RhsSpec):
        def __init__(self):
            super().__init__("sinsin")

        def factors(self, points):
            points = np.atleast_2d(points)
            val = 2 * PI**2 * np.sin(PI * points[:, 0]) * np.sin(PI * points[:, 1])
            return np.zeros(points.shape[0]), val

    errs = {}
    q = midpoint_grid(g, 192, 4)  # non-nested evaluation grid
    u_ref = np.sin(PI * q.interior_points[:, 0]) * np.sin(PI * q.interior_points[:, 1])
    for n in (50, 100):
        sol = fem_solve_2d(g, np.ones(4), Manufactured(), n)
        u, _ = sol.evaluate(q.interior_points)
        errs[n] = np.sqrt(np.sum(q.interior_weights * (u - u_ref) ** 2))
    ratio = errs[50] / errs[100]
    assert 3.0 <= ratio <= 5.0


def test_fem_rotation_symmetry():
    """p1=p4, p2=p3 with a rotation-symmetric corner source: symmetric solution."""
    g = geom_2x2()

    class RadialCorner(RhsSpec):
        def __init__(self):
            super().__init__("radial")

        def factors(self, points):
            points = np.atleast_2d(points)
            r = np.hypot(points[:, 0], points[:, 1])
            return np.sqrt(r), np.zeros(points.shape[0])

    p = np.array([3.0, 1.5, 1.5, 3.0])  # invariant under 180-degree rotation
    sol = fem_solve_2d(g, p, RadialCorner(), 40)
    vals = sol.values
    rotated = vals[::-1, ::-1]
    assert np.max(np.abs(vals - rotated)) <= 1e-8 * max(np.max(np.abs(vals)), 1e-300)


def test_fem_misaligned_cuts_rejected():
    g = build_grid_geometry(2, cuts_x=[0.3], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])
    rhs = RhsSpec.for_geometry("corner2d", g)
    with pytest.raises(ValueError):
        fem_solve_2d(g, np.ones(4), rhs, 7)


# reference-square bilinear stiffness for -div(grad u), nodes (SW, SE, NE, NW)
_K_REF = (1.0 / 6.0) * np.array(
    [
        [4, -1, -2, -1],
        [-1, 4, -1, -2],
        [-2, -1, 4, -1],
        [-1, -2, -1, 4],
    ]
)


def _fem_oracle_system(geometry, parameter, rhs, n):
    """The interior stiffness K (CSR) and load f of `fem_solve_2d`'s
    discretisation, assembled element by element: COO triplets of every
    element's p * K_ref, 2x2 Gauss loads scattered with `np.add.at`, both
    restricted to the interior nodes, numbered row-major in (ix, iy)."""
    (a, b), (c, _) = geometry.bounds
    h = (b - a) / n
    ex, ey = (e.ravel() for e in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    centers = np.stack([a + h * (ex + 0.5), c + h * (ey + 0.5)], axis=1)
    pe = np.asarray(parameter, dtype=float)[subdomain_index_many(geometry, centers)]
    node = lambda ix, iy: ix * (n + 1) + iy  # noqa: E731
    conn = np.stack([node(ex, ey), node(ex + 1, ey), node(ex + 1, ey + 1), node(ex, ey + 1)], 1)
    ndof = (n + 1) ** 2
    ke = pe[:, None, None] * _K_REF[None, :, :]
    rows, cols = np.repeat(conn, 4, axis=1).ravel(), np.tile(conn, (1, 4)).ravel()
    k = sparse.coo_matrix((ke.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()
    f = np.zeros(ndof)
    for gxi in np.array([-1.0, 1.0]) / np.sqrt(3.0):
        for gyi in np.array([-1.0, 1.0]) / np.sqrt(3.0):
            shapes = np.array([(1 - gxi) * (1 - gyi), (1 + gxi) * (1 - gyi),
                               (1 + gxi) * (1 + gyi), (1 - gxi) * (1 + gyi)]) / 4.0
            pts = np.stack([a + (ex + 0.5 * (1 + gxi)) * h, c + (ey + 0.5 * (1 + gyi)) * h], 1)
            vals = rhs.evaluate(pts, pe)
            np.add.at(f, conn.ravel(), (h * h / 4.0 * vals[:, None] * shapes[None, :]).ravel())
    ix, iy = (i.ravel() for i in np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij"))
    idx = np.where((ix > 0) & (ix < n) & (iy > 0) & (iy < n))[0]
    return k[idx][:, idx].tocsr(), f[idx]


def test_fem_galerkin_residual():
    """The nodal values solve the Galerkin system assembled element by
    element (`_fem_oracle_system`): equal to its sparse LU solution, with a
    small residual in it, on the 2x2 and the benchmark's 3x3 layout, with a
    distinct p on every subdomain; the boundary values are 0, and a second
    solve gives the same values."""
    for g, parameter, sizes in (
        (geom_2x2(), [2.0, 10.0, 7.0, 1.0], (4, 10, 40)),
        (geom_3x3(), [0.3, 8.0, 1.5, 4.0, 0.7, 9.5, 2.5, 0.1, 6.0], (8, 16, 40)),
    ):
        rhs = RhsSpec.for_geometry("corner2d", g)
        for n in sizes:
            sol = fem_solve_2d(g, np.array(parameter), rhs, n)
            np.testing.assert_array_equal(fem_solve_2d(g, np.array(parameter), rhs, n).values,
                                          sol.values)
            k_ref, f_ref = _fem_oracle_system(g, parameter, rhs, n)
            u_ref = splu(k_ref.tocsc()).solve(f_ref)
            u = sol.values[1:-1, 1:-1].ravel()
            assert np.max(np.abs(u - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))
            assert np.linalg.norm(k_ref @ u - f_ref) <= 1e-10 * np.linalg.norm(f_ref)
            boundary = np.ones((n + 1, n + 1), dtype=bool)
            boundary[1:-1, 1:-1] = False
            assert not np.any(sol.values[boundary])


def test_sparse_modules_load_with_the_first_fem_solve():
    """`training` imports this module for RhsSpec, so importing scipy.sparse
    with it would map about 3.5 MB of modules in every run, the 1D ones
    that never solve a FEM included.  They load with the first solve."""
    code = textwrap.dedent(
        """
        import sys
        import numpy as np
        import transolve.training
        from transolve.geometry import build_grid_geometry
        from transolve.reference import RhsSpec, fem_solve_2d
        assert "scipy.sparse" not in sys.modules
        g = build_grid_geometry(2, cuts_x=[0.0], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])
        sol = fem_solve_2d(g, np.ones(4), RhsSpec.for_geometry("corner2d", g), 4)
        assert "scipy.sparse" in sys.modules and np.all(np.isfinite(sol.values))
        """
    )
    src = os.path.dirname(os.path.dirname(transolve.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_relative_errors_basic():
    g = geom_1d()
    q = midpoint_grid(g, 50, 1)
    p = np.array([1.0, 4.0, 0.2, 30.0, 49.0])
    u, du = exact_1d(g, p, q.interior_points[:, 0])
    flux = p[q.interior_subdomain] * du
    s, f = relative_l2_errors(u, flux, u, flux, q)
    assert s == 0.0 and f == 0.0
    s, f = relative_l2_errors(1.01 * u, flux, u, flux, q)
    assert s == pytest.approx(1.0)
    # scale awareness
    s2, f2 = relative_l2_errors(2.02 * u, 2 * flux, 2 * u, 2 * flux, q)
    assert s2 == pytest.approx(1.0)


def test_relative_errors_reject_shapes_that_broadcast():
    """A (J, 1) reference against (J,) values would broadcast to (J, J) and
    read a large error for identical fields; every such shape raises."""
    g = build_grid_geometry(1, cuts_x=[], bounds=[(0, PI)])
    q = midpoint_grid(g, 8, 1)
    x = q.interior_points[:, 0]
    u, flux = np.sin(x), np.cos(x)
    with pytest.raises(ValueError):
        relative_l2_errors(u, flux, u[:, None], flux, q)
    with pytest.raises(ValueError):
        relative_l2_errors(u[:, None], flux, u, flux, q)
    with pytest.raises(ValueError):
        relative_l2_errors(u[:4], flux, u[:4], flux, q)
    with pytest.raises(ValueError):  # flux shapes disagree
        relative_l2_errors(u, flux, u, flux[:, None], q)
    with pytest.raises(ValueError):  # flux of the wrong length or width
        relative_l2_errors(u, flux[:4], u, flux[:4], q)
    with pytest.raises(ValueError):
        relative_l2_errors(u, np.stack([flux, flux], 1), u, np.stack([flux, flux], 1), q)
    # both accepted flux layouts give the identical fields zero error
    assert relative_l2_errors(u, flux, u, flux, q) == (0.0, 0.0)
    assert relative_l2_errors(u, flux[:, None], u, flux[:, None], q) == (0.0, 0.0)


def test_relative_errors_mask():
    g = geom_2x2()
    q = midpoint_grid(g, 20, 4)
    u_ref = np.ones(q.n_interior)
    flux_ref = np.ones((q.n_interior, 2))
    u = u_ref.copy()
    # corrupt only points near the vertex; masking should hide them
    near = np.hypot(q.interior_points[:, 0], q.interior_points[:, 1]) < 0.2
    u[near] = 100.0
    s_masked, _ = relative_l2_errors(u, flux_ref, u_ref, flux_ref, q, g, mask_radius=0.2)
    assert s_masked == 0.0
    s_raw, _ = relative_l2_errors(u, flux_ref, u_ref, flux_ref, q)
    assert s_raw > 1.0


def test_rhs_corner2d_factors():
    g = geom_2x2()
    rhs = RhsSpec.for_geometry("corner2d", g)
    pts = np.array([[0.5, 0.0], [0.0, 0.25]])
    pf, fixed = rhs.factors(pts)
    np.testing.assert_allclose(fixed, 0.0)
    # theta = 0 at (0.5, 0): sqrt(r) * (cos 0 - 3 sin 0) = sqrt(0.5)
    assert pf[0] == pytest.approx(np.sqrt(0.5))
    # theta = pi/2 at (0, 0.25): sqrt(0.25) * (cos(pi/4) - 3 sin(pi/4))
    assert pf[1] == pytest.approx(0.5 * (np.cos(PI / 4) - 3 * np.sin(PI / 4)))


def _corner_from_the_angle(points, vertices):
    """sum_v sqrt(r) (cos(theta/2) - 3 sin(theta/2)), theta = arctan2 taken
    to [0, 2 pi): the corner source's factor through its angle."""
    total = np.zeros(len(points))
    for vx, vy in vertices:
        dx, dy = points[:, 0] - vx, points[:, 1] - vy
        theta = np.mod(np.arctan2(dy, dx), 2 * PI)
        total += np.sqrt(np.hypot(dx, dy)) * (np.cos(theta / 2) - 3 * np.sin(theta / 2))
    return total


def test_rhs_corner2d_half_angle_factors_equal_the_angle_form():
    """The trig-free factor equals the angle form to rounding: at random
    points around three vertices, on both sides of the branch cut theta = 0
    (dy = +-0 and +-1e-17 with dx < 0 and dx > 0, where the side of the
    cut sets the sign of cos(theta/2)), and 0 at the vertex itself.  The
    tolerance is 16 eps times the bound on the sum's terms, sqrt(r) (1 + 3)
    per vertex with r at most 3 sqrt(2) here."""
    rng = np.random.default_rng(8)
    vertices = rng.uniform(-1, 1, size=(3, 2))
    pts = rng.uniform(-2, 2, size=(2000, 2))
    want = _corner_from_the_angle(pts, vertices)
    eps = np.finfo(float).eps
    tol = 16 * eps * 4 * np.sqrt(3 * np.sqrt(2)) * len(vertices)
    np.testing.assert_allclose(RhsSpec("corner2d", vertices).factors(pts)[0], want, rtol=0,
                               atol=tol)
    origin = np.zeros((1, 2))
    cut = np.array([[dx, dy] for dy in (0.0, -0.0, 1e-17, -1e-17)
                    for dx in (-0.7, -1e-3, 1e-3, 0.7)])
    pf = RhsSpec("corner2d", origin).factors(cut)[0]
    np.testing.assert_allclose(pf, _corner_from_the_angle(cut, origin), rtol=0, atol=16 * eps * 4)
    # at dx > 0 the factor is about +sqrt(r) on the cut (theta = 0, dy = +-0)
    # and above it, and -sqrt(r) just below it, where theta/2 is nearly pi
    assert np.all(pf[[2, 3, 6, 7, 10, 11]] > 0) and np.all(pf[[14, 15]] < 0)
    assert RhsSpec("corner2d", origin).factors(origin)[0].tolist() == [0.0]


def test_rhs_unknown_tag():
    with pytest.raises(ValueError):
        RhsSpec.for_geometry("bogus", geom_1d())
    with pytest.raises(ValueError):
        RhsSpec.for_geometry("sin1d", geom_2x2())
