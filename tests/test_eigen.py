import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transolve.eigen import (
    angular_eval,
    assemble_eigensystem,
    basis_matrix,
    select_singular,
    semi_analytic_exponents,
    solve_eigenpairs,
)
from transolve.geometry import angular_trace, build_grid_geometry

CHECKERBOARD = np.array([1.0, 10.0, 1.0, 10.0])


def test_basis_properties():
    vals, _ = basis_matrix(np.array([0.0, 1.0, 2.0, 3.0]))
    # bubbles vanish at element endpoints
    np.testing.assert_allclose(vals[:, :12], 0.0, atol=1e-15)
    # hats peak at their node with height 1/4 and wrap periodically
    for e in range(4):
        v, _ = basis_matrix(np.array([float(e)]))
        assert v[0, 12 + e] == pytest.approx(0.25)
    v0, _ = basis_matrix(np.array([3.5]))
    assert v0[0, 12] == pytest.approx(0.125)  # hat at node 0 seen across the wrap


def test_basis_linear_independence():
    xi = np.linspace(0, 4, 200, endpoint=False)
    vals, _ = basis_matrix(xi)
    assert np.linalg.matrix_rank(vals) == 16


def test_assembly_symmetry_and_scaling():
    sys1 = assemble_eigensystem(np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_allclose(sys1.stiffness, sys1.stiffness.T, atol=1e-14)
    np.testing.assert_allclose(sys1.mass, sys1.mass.T, atol=1e-14)
    sys2 = assemble_eigensystem(np.array([3.0, 6.0, 9.0, 12.0]))
    np.testing.assert_allclose(sys2.stiffness, 3 * sys1.stiffness, rtol=1e-14)
    np.testing.assert_allclose(sys2.mass, 3 * sys1.mass, rtol=1e-14)


def test_assembly_rejects_nonpositive():
    with pytest.raises(ValueError):
        assemble_eigensystem(np.array([1.0, -1.0, 1.0, 1.0]))


def test_hat_block_mass_against_simpson():
    """Total mass of the hat block for constant p matches a dense quadrature."""
    sys1 = assemble_eigensystem(np.ones(4))
    n = 40001
    theta = np.linspace(0, 2 * np.pi, n)
    vals, _ = basis_matrix(theta * 2 / np.pi)
    hat_sum = vals[:, 12:].sum(axis=1)
    from scipy.integrate import simpson

    ref = simpson(hat_sum**2, x=theta)
    assert sys1.mass[12:, 12:].sum() == pytest.approx(ref, abs=1e-12)


def test_quadrature_exactness_vs_10pt():
    """5-point Gauss assembly equals a 10-point reference assembly."""
    from transolve import eigen as eig

    p = np.array([2.0, 5.0, 1.0, 7.0])
    sys5 = assemble_eigensystem(p)
    nodes10, weights10 = np.polynomial.legendre.leggauss(10)
    g = np.zeros((16, 16))
    b = np.zeros((16, 16))
    for e in range(4):
        xi = e + 0.5 * (nodes10 + 1)
        w = 0.5 * weights10
        vals, ders = basis_matrix(xi)
        b += p[e] * (np.pi / 2) * np.einsum("q,qi,qj->ij", w, vals, vals)
        g += p[e] * (2 / np.pi) ** 2 * (np.pi / 2) * np.einsum("q,qi,qj->ij", w, ders, ders)
    np.testing.assert_allclose(sys5.stiffness, g, atol=1e-14 * np.abs(g).max())
    np.testing.assert_allclose(sys5.mass, b, atol=1e-14 * np.abs(b).max())


def test_constant_trace_modes():
    pairs = solve_eigenpairs(assemble_eigensystem(np.ones(4)))
    exps = np.array([p.exponent for p in pairs[:5]])
    assert exps[0] == pytest.approx(0.0, abs=1e-6)
    assert exps[1] == pytest.approx(1.0, abs=1e-6)
    assert exps[2] == pytest.approx(1.0, abs=1e-6)
    # second pair carries genuine discretization error of the quartic space
    assert exps[3] == pytest.approx(2.0, abs=1e-3)
    assert exps[4] == pytest.approx(2.0, abs=1e-3)


def test_checkerboard_matches_transfer_matrix_oracle():
    pairs = solve_eigenpairs(assemble_eigensystem(CHECKERBOARD))
    roots = semi_analytic_exponents(CHECKERBOARD)
    assert roots, "oracle found no exponents"
    smallest_fe = min(p.exponent for p in pairs if p.exponent > 1e-6)
    assert abs(smallest_fe - roots[0]) <= 1e-4


def test_oracle_constant_roots():
    roots = semi_analytic_exponents(np.ones(4))
    np.testing.assert_allclose(roots, [1.0, 2.0], atol=1e-6)


def test_oracle_continuity_to_constant():
    for r in (1.1, 1.01, 1.001):
        roots = semi_analytic_exponents(np.array([1.0, r, 1.0, r]))
        assert roots[0] == pytest.approx(1.0, abs=2 * (r - 1))


def test_oracle_refinement_stable():
    coarse = semi_analytic_exponents(CHECKERBOARD, step=1e-3)
    fine = semi_analytic_exponents(CHECKERBOARD, step=2.5e-4)
    assert abs(coarse[0] - fine[0]) <= 1e-10


def test_b_orthonormality():
    sysm = assemble_eigensystem(CHECKERBOARD)
    pairs = solve_eigenpairs(sysm)
    rhos = np.array([p.rho for p in pairs])
    gram = rhos @ sysm.mass @ rhos.T
    np.testing.assert_allclose(gram, np.eye(16), atol=1e-10)


def test_eigen_residuals():
    pairs = solve_eigenpairs(assemble_eigensystem(CHECKERBOARD))
    for p in pairs:
        if p.exponent > 0.1:
            assert p.residual <= 1e-10


def test_scaling_invariance_of_exponents():
    p1 = solve_eigenpairs(assemble_eigensystem(CHECKERBOARD))
    p2 = solve_eigenpairs(assemble_eigensystem(7.5 * CHECKERBOARD))
    for a, b in zip(p1, p2):
        if a.exponent > 0.1:
            assert a.exponent == pytest.approx(b.exponent, abs=1e-9)
        else:  # sqrt amplifies rounding noise near the zero mode
            assert b.exponent < 1e-6


def test_select_singular():
    pairs = solve_eigenpairs(assemble_eigensystem(np.ones(4)))
    assert select_singular(pairs, 3) == []
    pairs = solve_eigenpairs(assemble_eigensystem(CHECKERBOARD))
    sel = select_singular(pairs, 3)
    assert sel and all(0 < p.exponent < 1 for p in sel)
    with pytest.raises(ValueError):
        select_singular(pairs, -1)  # picked[:-1] would drop the last pair
    # exponent within 1e-9 of 1 is excluded by the strict band
    fake = [type(pairs[0])(1.0 - 5e-10, 1.0, pairs[0].rho, 1.0, 0.0)]
    assert select_singular(fake, 3) == []


def test_angular_eval_unit_l2():
    pairs = solve_eigenpairs(assemble_eigensystem(CHECKERBOARD))
    theta = np.linspace(0, 2 * np.pi, 20001)
    from scipy.integrate import simpson

    for p in pairs[1:4]:
        mu, _ = angular_eval(p, theta)
        assert simpson(mu**2, x=theta) == pytest.approx(1.0, abs=1e-8)


def test_angular_eval_continuity_at_sector_boundaries():
    pairs = solve_eigenpairs(assemble_eigensystem(CHECKERBOARD))
    p = pairs[1]
    for k in range(4):
        t = k * np.pi / 2
        mu_m, _ = angular_eval(p, t - 1e-13)
        mu_p, _ = angular_eval(p, t + 1e-13)
        assert abs(mu_m - mu_p) <= 1e-11


def test_angular_eval_constant_first_mode_is_sinusoid():
    pairs = solve_eigenpairs(assemble_eigensystem(np.ones(4)))
    mode = pairs[1]
    theta = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    mu, _ = angular_eval(mode, theta)
    # fit a*cos(theta + phase) by least squares on (cos, sin)
    design = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    coef, *_ = np.linalg.lstsq(design, mu, rcond=None)
    fit = design @ coef
    assert np.max(np.abs(mu - fit)) <= 1e-3


def test_angular_eval_derivative_fd():
    pairs = solve_eigenpairs(assemble_eigensystem(CHECKERBOARD))
    p = pairs[1]
    rng = np.random.default_rng(1)
    thetas = rng.uniform(0.1, np.pi / 2 - 0.1, size=10)  # interior of sector 0
    h = 1e-6
    mu_p, _ = angular_eval(p, thetas + h)
    mu_m, _ = angular_eval(p, thetas - h)
    _, dmu = angular_eval(p, thetas)
    np.testing.assert_allclose(dmu, (mu_p - mu_m) / (2 * h), rtol=1e-5, atol=1e-8)


def test_geometry_trace_feeds_eigensolver():
    g = build_grid_geometry(2, cuts_x=[0.0], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])
    trace = [s[2] for s in angular_trace(g, [1.0, 10.0, 10.0, 1.0], 0)]
    pairs = solve_eigenpairs(assemble_eigensystem(trace))
    assert len(pairs) == 16


P_SECTOR = st.lists(st.floats(0.1, 10.0), min_size=4, max_size=4)


@settings(max_examples=30, deadline=None)
@given(traces=st.lists(P_SECTOR, min_size=1, max_size=4))
def test_batched_solve_properties(traces):
    """Over p_sector in [0.1, 10]^4: orthonormality, residuals, the constant
    mode, the oracle, and a stacked call agreeing with single calls."""
    traces = np.array(traces)
    stacked = solve_eigenpairs(assemble_eigensystem(traces))
    assert len(stacked) == len(traces)
    for trace, pairs in zip(traces, stacked):
        system = assemble_eigensystem(trace)
        rhos = np.array([p.rho for p in pairs])
        np.testing.assert_allclose(rhos @ system.mass @ rhos.T, np.eye(16), atol=1e-12)
        assert max(p.residual for p in pairs[1:]) <= 1e-10
        assert pairs[0].exponent < 1e-6  # select_singular's band keeps it out

        single = solve_eigenpairs(system)
        np.testing.assert_allclose(
            [p.eigenvalue for p in pairs], [p.eigenvalue for p in single], rtol=1e-12, atol=1e-12
        )

        selected = np.array([p.exponent for p in select_singular(pairs, 2)])
        roots = np.array(semi_analytic_exponents(trace, lam_max=1.0))
        inside = roots[(roots > 0) & (roots < 1)][:2]
        n = min(selected.size, inside.size)
        np.testing.assert_allclose(selected[:n], inside[:n], atol=1e-5)
        # the counts may differ only by a root within FE error of the band edge at 1
        assert np.all(np.abs(1 - np.concatenate([selected[n:], inside[n:]])) <= 1e-5)
