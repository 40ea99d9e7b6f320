import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from transolve.eigen import (
    SELECT_BAND,
    EigenModes,
    angular_eval,
    assemble_eigensystem,
    basis_matrix,
    select_singular,
    semi_analytic_exponents,
    solve_eigenpairs,
)
from transolve.geometry import angular_trace

from conftest import geom_2x2, geom_3x3

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
    assert len(select_singular(pairs, 3)) == 0
    pairs = solve_eigenpairs(assemble_eigensystem(CHECKERBOARD))
    sel = select_singular(pairs, 3)
    assert sel and all(0 < p.exponent < 1 for p in sel)
    with pytest.raises(ValueError):
        select_singular(pairs, -1)  # picked[:-1] would drop the last pair
    # made-up exponents: within 1e-9 of 1 or 1e-6 of 0 is outside the strict
    # band; the kept modes come in ascending order up to the cap (an FE trace
    # of four sectors has one mode in the band, so only made-up modes test
    # the order and a cap above 1)
    exps = np.array([0.0, 5e-7, 0.3, 0.5, 0.9, 1.0 - 5e-10, 1.0, 1.5])
    fake = EigenModes(exps, pairs.rho[:8], np.ones(8), np.zeros(8))
    assert len(select_singular(fake[5:], 3)) == 0
    assert [p.exponent for p in select_singular(fake, 2)] == [0.3, 0.5]
    assert [p.exponent for p in select_singular(fake, 8)] == [0.3, 0.5, 0.9]


def test_selection_equals_the_band_filter_over_every_mode():
    """The mask over the exponent array keeps the modes, fields and order
    that filtering all 16 modes one by one through the band keeps."""
    traces = np.vstack([np.ones(4), np.random.default_rng(8).uniform(0.1, 10.0, size=(64, 4))])
    stacked = solve_eigenpairs(assemble_eigensystem(traces))
    n_selected = 0
    for k in range(len(traces)):
        modes = stacked[k]
        assert isinstance(modes, EigenModes) and modes.exponent.shape == (16,)
        for n_cap in range(4):
            want = [m for m in range(16) if SELECT_BAND < modes.exponent[m] < 1.0 - SELECT_BAND]
            got = select_singular(modes, n_cap)
            assert len(got) == len(want[:n_cap])
            n_selected += len(got)
            for a, m in zip(got, want):
                assert (a.exponent, a.mu_scale, a.residual) == (
                    modes.exponent[m], modes.mu_scale[m], modes.residual[m])
                assert np.array_equal(a.rho, modes.rho[m])
    assert len(select_singular(stacked[0], 3)) == 0  # the uniform trace has no singular mode
    assert n_selected > 0


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
    g = geom_2x2()
    trace = [s[2] for s in angular_trace(g, [1.0, 10.0, 10.0, 1.0], 0)]
    modes = solve_eigenpairs(assemble_eigensystem(trace))
    assert modes.exponent.shape == modes.mu_scale.shape == modes.residual.shape == (16,)
    assert modes.rho.shape == (16, 16)


P_SECTOR = st.lists(st.floats(0.1, 10.0), min_size=4, max_size=4)


@settings(max_examples=30, deadline=None)
@given(traces=st.lists(P_SECTOR, min_size=1, max_size=4))
def test_batched_solve_properties(traces):
    """Over p_sector in [0.1, 10]^4: orthonormality, residuals, the constant
    mode, the oracle, and a stacked call agreeing with single calls."""
    traces = np.array(traces)
    stacked = solve_eigenpairs(assemble_eigensystem(traces))
    assert stacked.exponent.shape == (len(traces), 16)
    assert stacked.rho.shape == (len(traces), 16, 16)
    for k, trace in enumerate(traces):
        modes = stacked[k]
        system = assemble_eigensystem(trace)
        np.testing.assert_allclose(modes.rho @ system.mass @ modes.rho.T, np.eye(16), atol=1e-12)
        assert modes.residual[1:].max() <= 1e-10
        assert modes.exponent[0] < 1e-6  # select_singular's band keeps it out

        # the squares, the eigenvalues: the square root amplifies the zero
        # mode's rounding, which the stacked and single solves round apart
        single = solve_eigenpairs(system)
        np.testing.assert_allclose(modes.exponent**2, single.exponent**2, rtol=1e-12, atol=1e-12)

        selected = np.array([p.exponent for p in select_singular(modes, 2)])
        roots = np.array(semi_analytic_exponents(trace, lam_max=1.0))
        inside = roots[(roots > 0) & (roots < 1)][:2]
        n = min(selected.size, inside.size)
        np.testing.assert_allclose(selected[:n], inside[:n], atol=1e-5)
        # the counts may differ only by a root within FE error of the band edge at 1
        assert np.all(np.abs(1 - np.concatenate([selected[n:], inside[n:]])) <= 1e-5)


def test_eigenvalues_match_scipy_generalized_eigh():
    traces = np.vstack([CHECKERBOARD, np.random.default_rng(4).uniform(0.1, 10.0, size=(31, 4))])
    system = assemble_eigensystem(traces)
    stacked = solve_eigenpairs(system)
    for g, b, exponent in zip(system.stiffness, system.mass, stacked.exponent):
        want = np.maximum(scipy.linalg.eigh(g, b, eigvals_only=True), 0.0)
        np.testing.assert_allclose(exponent**2, want, rtol=1e-10, atol=1e-10 * want.max())


def test_selection_from_a_vertex_stack_equals_the_single_solve():
    """`select_singular` on ``modes[k, v]`` of a (P, N_s, 4) stack keeps the
    pairs it keeps on that trace solved alone.  The two solves round apart,
    and an eigenvector's sign is free, so rho is compared up to sign."""
    g = geom_3x3()
    params = np.random.default_rng(5).uniform(0.1, 10.0, size=(8, g.n_subdomains))
    traces = params[:, g.vertex_sectors]
    stacked = solve_eigenpairs(assemble_eigensystem(traces))
    assert stacked.exponent.shape == (8, g.n_singular, 16)
    n_selected = 0
    for k, v in np.ndindex(traces.shape[:2]):
        single = solve_eigenpairs(assemble_eigensystem(traces[k, v]))
        for cap in (1, 2):
            got, want = select_singular(stacked[k, v], cap), select_singular(single, cap)
            assert len(got) == len(want)
            n_selected += len(got)
            for a, b in zip(got, want):
                assert a.exponent == pytest.approx(b.exponent, abs=1e-12)
                assert a.mu_scale == pytest.approx(b.mu_scale, rel=1e-10)
                assert a.residual == pytest.approx(b.residual, abs=1e-12)
                sign = np.sign(a.rho @ b.rho)
                np.testing.assert_allclose(sign * a.rho, b.rho, rtol=0,
                                           atol=1e-10 * np.abs(b.rho).max())
    assert n_selected > 0


def _basis_at(x):
    """Reference: the 16 basis values and xi-derivatives at one point."""
    x = x % 4.0
    e = min(int(x), 3)
    u = x - e
    w, dw = u * (1 - u), 1 - 2 * u
    vals, ders = np.zeros(16), np.zeros(16)
    vals[3 * e : 3 * e + 3] = w, 5 * w * (u - 0.5), 20 * w * (u - 0.5) ** 2
    ders[3 * e : 3 * e + 3] = (
        dw, 5 * (dw * (u - 0.5) + w), 20 * (dw * (u - 0.5) ** 2 + 2 * w * (u - 0.5))
    )
    for node in range(4):
        dist = min(abs(x - node), 4.0 - abs(x - node))
        if dist < 1.0:
            vals[12 + node] = 0.25 * (1.0 - dist)
            ders[12 + node] = -0.25 * np.sign((x - node + 2.0) % 4.0 - 2.0)
    return vals, ders


def test_basis_matrix_matches_per_point_reference():
    xi = np.concatenate([
        np.random.default_rng(6).uniform(-2.0, 6.0, 500),
        [0.0, 0.5, 1.0, 2.0, 3.0, 3.999, 4.0, -0.25, 7.5],
    ])
    vals, ders = basis_matrix(xi)
    want = [_basis_at(x) for x in xi]
    np.testing.assert_allclose(vals, [v for v, _ in want], rtol=0, atol=1e-15)
    np.testing.assert_allclose(ders, [d for _, d in want], rtol=0, atol=1e-15)
