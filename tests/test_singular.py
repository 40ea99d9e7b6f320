import dataclasses

import numpy as np
import pytest

from transolve.cutoffs import CutoffConfig, eta_jet
from transolve.eigen import angular_eval, assemble_eigensystem, select_singular, solve_eigenpairs
from transolve.geometry import angular_trace, build_grid_geometry
from transolve.singular import eval_s, polar_cache, singular_evals_from_cache

CFG = CutoffConfig(0.225, 0.45)
G = build_grid_geometry(2, cuts_x=[0.0], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])


def make_basis(trace=(1.0, 10.0, 1.0, 10.0), n_cap=2):
    """Selected pairs per vertex of the 2x2 layout G (one vertex)."""
    pairs = solve_eigenpairs(assemble_eigensystem(np.asarray(trace)))
    return [select_singular(pairs, n_cap)]


def values(pairs, pts, col=0):
    """Values of one singular column at ``pts``."""
    return eval_s(polar_cache(pts, G, CFG), pairs)[0][:, col]


def gradients(pairs, pts, col=0):
    return eval_s(polar_cache(pts, G, CFG), pairs)[1][:, col]


def sources(pairs, pts, col=0):
    return singular_evals_from_cache(polar_cache(pts, G, CFG), pairs)[:, col]


def fourier_basis():
    """Constant-p first mode: the cos(theta)-aligned member of its eigenspace.

    Exponent 1 is a double eigenvalue for constant p, so a solver may return
    any rotation of the pair.  The combination with mu(pi/2) = 0 and
    mu(0) > 0 is the same whichever rotation comes back.
    """
    pairs = solve_eigenpairs(assemble_eigensystem(np.ones(4)))
    a, b = [p for p in pairs if abs(p.exponent - 1.0) < 1e-3]
    mu_a, _ = angular_eval(a, np.array([0.0, np.pi / 2]))
    mu_b, _ = angular_eval(b, np.array([0.0, np.pi / 2]))
    c = np.array([mu_b[1], -mu_a[1]]) / np.hypot(mu_a[1], mu_b[1])
    if c[0] * mu_a[0] + c[1] * mu_b[0] < 0:
        c = -c
    # a and b are orthonormal in L2(0, 2pi), so the combination stays unit
    rho = c[0] * a.mu_scale * a.rho + c[1] * b.mu_scale * b.rho
    mode = dataclasses.replace(a, rho=rho, mu_scale=1.0)
    return [[mode]]


def test_support_outside_delta2():
    b = make_basis()
    pts = np.array([[0.5, 0.3], [0.9, 0.0], [-0.6, 0.6]])
    val, grad = eval_s(polar_cache(pts, G, CFG), b)
    np.testing.assert_allclose(val, 0.0)
    np.testing.assert_allclose(grad, 0.0)
    np.testing.assert_allclose(singular_evals_from_cache(polar_cache(pts, G, CFG), b), 0.0)


def test_source_zero_inside_delta1():
    b = make_basis()
    pts = np.array([[0.05, 0.05], [0.0, 0.1], [-0.1, -0.05]])
    np.testing.assert_allclose(singular_evals_from_cache(polar_cache(pts, G, CFG), b), 0.0)


def test_homogeneity_near_vertex():
    b = make_basis()
    lam = b[0][0].exponent
    rng = np.random.default_rng(0)
    for _ in range(10):
        ang = rng.uniform(0, 2 * np.pi)
        r = rng.uniform(0.02, CFG.delta1 / 2)
        p1 = np.array([[r * np.cos(ang), r * np.sin(ang)]])
        p2 = 2 * p1
        v1 = values(b, p1)
        v2 = values(b, p2)
        assert v2[0] / v1[0] == pytest.approx(2**lam, abs=1e-10)


def test_value_continuity_across_sector_boundary():
    b = make_basis()
    r = 0.3
    for k in range(4):
        t = k * np.pi / 2
        pm = np.array([[r * np.cos(t - 1e-12), r * np.sin(t - 1e-12)]])
        pp = np.array([[r * np.cos(t + 1e-12), r * np.sin(t + 1e-12)]])
        vm = values(b, pm)
        vp = values(b, pp)
        assert abs(vm[0] - vp[0]) <= 1e-11


def test_gradient_guard_at_vertex():
    b = make_basis()
    for pt in ([1e-14, 0.0], [0.0, 0.0]):
        with pytest.raises(ValueError):
            eval_s(polar_cache(np.array([pt]), G, CFG), b)
    # the sources do not need the gradient: zero there, not an error
    pts = np.array([[0.0, 0.0], [1e-14, 0.0]])
    np.testing.assert_array_equal(sources(b, pts), 0.0)


def test_gradient_matches_fd_on_annulus():
    b = make_basis()
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(10):
        ang = rng.uniform(0.1, np.pi / 2 - 0.1)  # stay inside one sector
        r = rng.uniform(CFG.delta1 * 1.1, CFG.delta2 * 0.9)
        x = np.array([r * np.cos(ang), r * np.sin(ang)])
        grad = gradients(b, x[None, :])
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            vp = values(b, (x + e)[None, :])[0]
            vm = values(b, (x - e)[None, :])[0]
            assert grad[0, k] == pytest.approx((vp - vm) / (2 * h), rel=1e-5, abs=1e-8)


def test_constant_p_mode_matches_x_eta_closed_form():
    """First Fourier mode: s is proportional to a rotated coordinate times eta."""
    b = fourier_basis()
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.44, 0.44, size=(300, 2))
    val = values(b, pts)
    r = np.hypot(pts[:, 0], pts[:, 1])
    eta, _, _ = eta_jet(r, CFG)
    # fit val ~ (a*x + b*y) * eta by least squares, then compare
    design = np.stack([pts[:, 0] * eta, pts[:, 1] * eta], axis=1)
    coef, *_ = np.linalg.lstsq(design, val, rcond=None)
    fit = design @ coef
    scale = np.max(np.abs(val))
    assert np.max(np.abs(val - fit)) <= 1e-3 * scale


def test_radial_source_formula_matches_fd_laplacian_of_closed_form():
    """With mu = cos(theta), lam = 1 the source is Lap(x * eta) exactly.

    x is harmonic, so the annulus source 2 eta' cos + r cos (eta'' + eta'/r)
    must reproduce the dense finite-difference Laplacian of x*eta(r).
    """

    def f(x):
        r = np.hypot(x[0], x[1])
        eta, _, _ = eta_jet(np.array([r]), CFG)
        return x[0] * eta[0]

    rng = np.random.default_rng(3)
    h = 1e-4
    for _ in range(15):
        ang = rng.uniform(0, 2 * np.pi)
        r = rng.uniform(CFG.delta1 * 1.15, CFG.delta2 * 0.85)
        x = np.array([r * np.cos(ang), r * np.sin(ang)])
        lap = 0.0
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            lap += (f(x + e) - 2 * f(x) + f(x - e)) / h**2
        _, deta, ddeta = eta_jet(np.array([r]), CFG)
        src = 2 * np.cos(ang) * deta[0] + r * np.cos(ang) * (ddeta[0] + deta[0] / r)
        assert src == pytest.approx(lap, rel=1e-4, abs=1e-6)


def test_source_consistent_with_fd_laplacian_of_fe_mode():
    """The source tracks Lap of the value; the gap is the FE non-harmonicity."""
    b = fourier_basis()

    def s_value(x):
        return values(b, x[None, :])[0]

    rng = np.random.default_rng(5)
    h = 1e-4
    for _ in range(8):
        ang = rng.uniform(0.2, np.pi / 2 - 0.2)
        r = rng.uniform(CFG.delta1 * 1.15, CFG.delta2 * 0.85)
        x = np.array([r * np.cos(ang), r * np.sin(ang)])
        lap = sum(
            (s_value(x + e) - 2 * s_value(x) + s_value(x - e)) / h**2
            for e in (np.array([h, 0.0]), np.array([0.0, h]))
        )
        src = sources(b, x[None, :])[0]
        assert src == pytest.approx(lap, rel=5e-3, abs=5e-3)


def test_singular_columns_stacking():
    """All columns at once equal the blocks of one vertex at a time, placed
    vertex-major in pair order, on a layout with four vertices."""
    g = build_grid_geometry(2, cuts_x=[-0.5, 0.25], cuts_y=[-0.25, 0.5], bounds=[(-1, 1), (-1, 1)])
    cfg = CutoffConfig(0.1, 0.2)
    p = np.random.default_rng(6).uniform(0.1, 10.0, size=g.n_subdomains)
    pairs = []
    for vid in range(g.n_singular):
        trace = np.array([s[2] for s in angular_trace(g, p, vid)])
        pairs.append(select_singular(solve_eigenpairs(assemble_eigensystem(trace)), 2))
    assert sum(map(len, pairs)) > 1
    pts = np.random.default_rng(4).uniform(-1, 1, size=(400, 2))
    polar = polar_cache(pts, g, cfg)
    src = singular_evals_from_cache(polar, pairs)
    val, grad = eval_s(polar, pairs)
    assert src.shape == val.shape == (400, sum(map(len, pairs)))
    assert grad.shape == val.shape + (2,)
    start = 0
    for vid, sel in enumerate(pairs):
        alone = [sel if k == vid else [] for k in range(g.n_singular)]
        cols = slice(start, start + len(sel))
        np.testing.assert_array_equal(src[:, cols], singular_evals_from_cache(polar, alone))
        v, gr = eval_s(polar, alone)
        np.testing.assert_array_equal(val[:, cols], v)
        np.testing.assert_array_equal(grad[:, cols], gr)
        start += len(sel)


def test_empty_singular_block():
    pairs = solve_eigenpairs(assemble_eigensystem(np.ones(4)))
    b = [select_singular(pairs, 3)]
    assert b == [[]]
    polar = polar_cache(np.array([[0.1, 0.1]]), G, CFG)
    assert singular_evals_from_cache(polar, b).shape == (1, 0)
    val, grad = eval_s(polar, b)
    assert val.shape == (1, 0) and grad.shape == (1, 0, 2)
