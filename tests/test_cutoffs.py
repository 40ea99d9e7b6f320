import numpy as np
import pytest

from transolve.cutoffs import (
    CutoffConfig,
    _axis_lines,
    _factor_index,
    _phi_list,
    boundary_cutoff_jet,
    composition_factors,
    default_cutoff_config,
    eta_jet,
    interface_trace_factors,
    jump_adf_jet,
)
from transolve.geometry import build_grid_geometry
from transolve.nets import Jets

PI = np.pi
CFG = CutoffConfig(0.2, 0.5)


def geom_1d():
    return build_grid_geometry(1, cuts_x=[PI / 5, 2 * PI / 5, 3 * PI / 5, 4 * PI / 5], bounds=[(0, PI)])


def geom_2x2():
    return build_grid_geometry(2, cuts_x=[0.0], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_laplacian(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    out = 0.0
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        out += (f(x + e) - 2 * f(x) + f(x - e)) / h**2
    return out


# ----------------------------- eta ---------------------------------------


def test_eta_plateau_and_zero():
    eta, d1, d2 = eta_jet([0.0, 0.1, 0.5, 0.7], CFG)
    np.testing.assert_allclose(eta, [1, 1, 0, 0])
    np.testing.assert_allclose(d1, 0)
    np.testing.assert_allclose(d2, 0)


def test_eta_midpoint_half():
    eta, _, _ = eta_jet(0.5 * (CFG.delta1 + CFG.delta2), CFG)
    assert eta == pytest.approx(0.5)


def test_eta_negative_radius_rejected():
    with pytest.raises(ValueError):
        eta_jet(-0.1, CFG)


def test_eta_derivatives_match_fd():
    r = CFG.delta1 + 0.3 * (CFG.delta2 - CFG.delta1)
    h = 1e-6
    em, _, _ = eta_jet(r - h, CFG)
    ep, _, _ = eta_jet(r + h, CFG)
    e0, d1, d2 = eta_jet(r, CFG)
    assert d1 == pytest.approx((ep - em) / (2 * h), rel=1e-8)
    h = 1e-4  # second difference needs a larger step to beat roundoff
    em, _, _ = eta_jet(r - h, CFG)
    ep, _, _ = eta_jet(r + h, CFG)
    assert d2 == pytest.approx((ep - 2 * e0 + em) / h**2, rel=1e-6)


def test_eta_c2_at_transition_points():
    # one-sided finite differences agree across delta1 and delta2
    for r0 in (CFG.delta1, CFG.delta2):
        h = 1e-7
        for order in range(3):
            left = [eta_jet(r0 - k * h, CFG)[order] for k in (1, 2)]
            right = [eta_jet(r0 + k * h, CFG)[order] for k in (1, 2)]
            lim_l = 2 * left[0] - left[1]
            lim_r = 2 * right[0] - right[1]
            assert abs(lim_l - lim_r) <= 1e-6


# ------------------------- boundary cutoff --------------------------------


def test_boundary_cutoff_zero_on_boundary():
    g = geom_2x2()
    pts = np.array([[-1, 0.3], [1, -0.2], [0.4, 1.0], [0.4, -1.0]])
    jet = boundary_cutoff_jet(pts, g)
    np.testing.assert_allclose(jet.value, 0.0, atol=1e-15)


def test_boundary_cutoff_normalized_max():
    g1 = geom_1d()
    jet = boundary_cutoff_jet(np.array([[PI / 2]]), g1)
    assert jet.value[0] == pytest.approx(1.0)
    g2 = geom_2x2()
    jet = boundary_cutoff_jet(np.array([[0.0, 0.0]]), g2)
    assert jet.value[0] == pytest.approx(1.0)


def test_boundary_cutoff_gradient_fd():
    g = geom_2x2()
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.9, 0.9, size=(20, 2))
    jet = boundary_cutoff_jet(pts, g)

    def f(x):
        return boundary_cutoff_jet(x[None, :], g).value[0]

    for i, x in enumerate(pts):
        fd = fd_gradient(f, x)
        np.testing.assert_allclose(jet.gradient[i], fd, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(jet.laplacian[i], fd_laplacian(f, x), rtol=1e-4)


# ----------------------------- psi ---------------------------------------


def test_psi_single_interface_is_distance():
    jet = jump_adf_jet(np.array([[0.3], [0.9]]), [(0, 0.6)])
    np.testing.assert_allclose(jet.value, [0.3, 0.3])


def test_psi_2d_single_line_abs_x():
    jet = jump_adf_jet(np.array([[0.25, 0.7], [-0.4, -0.1]]), [(0, 0.0)])
    np.testing.assert_allclose(jet.value, [0.25, 0.4])


def test_psi_one_sided_slopes():
    g = geom_1d()
    lines = _axis_lines(g)[0]
    gamma = PI / 5
    h = 1e-6
    vp = jump_adf_jet(np.array([[gamma + h]]), lines).value[0]
    vm = jump_adf_jet(np.array([[gamma - h]]), lines).value[0]
    assert vp / h == pytest.approx(1.0, abs=1e-4)
    assert -vm / -h == pytest.approx(1.0, abs=1e-4)  # slope from the left is -1
    assert (vm - 0.0) / (-h) == pytest.approx(-1.0, abs=1e-4)


def test_psi_vanishes_on_interfaces():
    g = geom_1d()
    lines = _axis_lines(g)[0]
    for _, gamma in lines:
        for h in (1e-5, 1e-6):
            v = jump_adf_jet(np.array([[gamma + h]]), lines).value[0]
            assert abs(v) <= h * (1 + 10 * h)


def test_psi_on_line_rejected():
    with pytest.raises(ValueError):
        jump_adf_jet(np.array([[0.0, 0.3]]), [(0, 0.0)])


def test_psi_jets_match_fd():
    g = geom_1d()
    lines = _axis_lines(g)[0]
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.05, PI - 0.05, size=(30, 1))
    pts = pts[np.min(np.abs(pts - np.array([l[1] for l in lines])[None, :]), axis=1) > 0.05]
    jet = jump_adf_jet(pts, lines)

    def f(x):
        return jump_adf_jet(x[None, :], lines).value[0]

    for i, x in enumerate(pts):
        np.testing.assert_allclose(jet.gradient[i], fd_gradient(f, x), rtol=1e-6)
        lap = fd_laplacian(f, x)
        np.testing.assert_allclose(jet.laplacian[i], lap, rtol=1e-4)


# ------------------------- exclusion vectors ------------------------------


def exclusion_columns(points, g, cfg, n1, n2):
    """The exclusion factor of every w and every v column, as two jet lists."""
    phis = _phi_list(np.asarray(points, dtype=float), g, cfg)
    idx = _factor_index(g, n1, n2) % len(phis)
    return [phis[i] for i in idx[:n1]], [phis[i] for i in idx[n1:]]


def test_exclusion_all_ones_in_1d():
    """Phi1 and Phi2 are all ones in 1D: the w factors are B, the v factors B * psi."""
    g = geom_1d()
    pts = np.array([[0.5], [1.5]])
    fac = composition_factors(pts, g, CFG, 10, 40)
    assert fac.value.shape == (2, 50)
    bjet = boundary_cutoff_jet(pts, g)
    bpsi = bjet * jump_adf_jet(pts, _axis_lines(g)[0])
    for jet, cols in ((bjet, range(10)), (bpsi, range(10, 50))):
        for n in cols:
            np.testing.assert_allclose(fac.value[:, n], jet.value)
            np.testing.assert_allclose(fac.gradient[:, n], jet.gradient)
            np.testing.assert_allclose(fac.laplacian[:, n], jet.laplacian)


def test_exclusion_zero_at_vertex_one_far():
    g = geom_2x2()
    cfg = default_cutoff_config(g)
    pts = np.array([[0.0, 0.0], [0.9, 0.9]])
    phi1, phi2 = exclusion_columns(pts, g, cfg, 4, 6)
    assert len(phi1) == 4 and len(phi2) == 6
    for jet in phi1 + phi2:
        assert jet.value[0] == pytest.approx(0.0, abs=1e-15)
        assert jet.value[1] == pytest.approx(1.0)


def test_exclusion_block_layout():
    """Phi1 is phi_n in blocks of n1/N_s; Phi2 is two copies of the
    n2/2-long block vector, one per interface axis."""
    g = build_grid_geometry(2, cuts_x=[-0.3, 0.3], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])
    cfg = default_cutoff_config(g)
    at_first_vertex = g.singular_vertices[:1]
    phi1, phi2 = exclusion_columns(at_first_vertex, g, cfg, 4, 8)
    np.testing.assert_allclose([j.value[0] for j in phi1], [0, 0, 1, 1], atol=1e-15)
    np.testing.assert_allclose([j.value[0] for j in phi2], [0, 0, 1, 1] * 2, atol=1e-15)


def test_exclusion_divisibility_enforced():
    g = geom_2x2()
    with pytest.raises(ValueError):
        composition_factors(np.array([[0.1, 0.1]]), g, CFG, 4, 5)
    g4 = build_grid_geometry(
        2, cuts_x=[-0.5, 0, 0.5], cuts_y=[-0.5, 0, 0.5], bounds=[(-1, 1), (-1, 1)]
    )
    with pytest.raises(ValueError):
        composition_factors(np.array([[0.1, 0.1]]), g4, CutoffConfig(0.05, 0.1), 10, 36)


@pytest.mark.parametrize("axis", [0, 1])
def test_one_axis_cuts_odd_n2_column_plan(axis):
    """2D cuts on one axis only: no vertex, so every exclusion factor is 1.
    The first n2//2 v columns take the vertical-line psi and the rest the
    horizontal-line psi; the axis without cuts gives psi = 1, for odd n2 too."""
    cuts = dict(cuts_x=[0.2]) if axis == 0 else dict(cuts_y=[-0.3])
    g = build_grid_geometry(2, bounds=[(-1, 1), (-1, 1)], **cuts)
    pts = np.array([[0.5, 0.4], [-0.7, 0.1], [0.0, -0.8]])
    n1, n2 = 2, 5
    fac = composition_factors(pts, g, CFG, n1, n2)
    bjet = boundary_cutoff_jet(pts, g)
    bpsi = bjet * jump_adf_jet(pts, _axis_lines(g)[axis])
    kinked = [n1 + c for c in range(n2) if (c >= n2 // 2) == axis]
    assert len(kinked) == (2 if axis == 0 else 3)
    for n in range(n1 + n2):
        jet = bpsi if n in kinked else bjet
        np.testing.assert_array_equal(fac.value[:, n], jet.value)
        np.testing.assert_array_equal(fac.gradient[:, n], jet.gradient)
        np.testing.assert_array_equal(fac.laplacian[:, n], jet.laplacian)


def test_exclusion_gradient_fd():
    g = geom_2x2()
    cfg = default_cutoff_config(g)
    r = 0.5 * (cfg.delta1 + cfg.delta2)
    for ang in (0.3, 2.0, 4.4):
        x = np.array([r * np.cos(ang), r * np.sin(ang)])

        def f(y):
            return exclusion_columns(y[None, :], g, cfg, 1, 2)[0][0].value[0]

        jet = exclusion_columns(x[None, :], g, cfg, 1, 2)[0][0]
        np.testing.assert_allclose(jet.gradient[0], fd_gradient(f, x), rtol=1e-6)
        np.testing.assert_allclose(jet.laplacian[0], fd_laplacian(f, x), rtol=1e-4)


# ------------------------- composition ------------------------------------


def _random_raw(rng, n_pts, n_out, d):
    """Synthetic smooth raw outputs: sin/cos mixtures with exact jets."""
    freqs = rng.uniform(0.5, 2.0, size=(n_out, d))
    phases = rng.uniform(0, 2 * PI, size=n_out)

    def jets(points):
        z = points @ freqs.T + phases[None, :]
        val = np.sin(z)
        grad = np.cos(z)[:, :, None] * freqs[None, :, :]
        lap = -np.sin(z) * np.sum(freqs**2, axis=1)[None, :]
        return Jets(val, grad, lap)

    return jets


def _composed(jets, points, g, cfg, n1, n2):
    return composition_factors(points, g, cfg, n1, n2) * jets(points)


def test_apply_cutoffs_zero_on_boundary():
    g = geom_2x2()
    cfg = default_cutoff_config(g)
    rng = np.random.default_rng(5)
    jets = _random_raw(rng, 3, 3, 2)
    pts = np.array([[-1.0, 0.2], [0.3, 1.0], [1.0, -0.7]])
    np.testing.assert_allclose(_composed(jets, pts, g, cfg, 1, 2).value, 0.0, atol=1e-14)


def test_apply_cutoffs_laplacian_fd():
    g = geom_2x2()
    cfg = default_cutoff_config(g)
    rng = np.random.default_rng(6)
    jets = _random_raw(rng, 10, 3, 2)

    def composed_value(x, col):
        return _composed(jets, x[None, :], g, cfg, 1, 2).value[0, col]

    pts = []
    while len(pts) < 10:
        x = rng.uniform(-0.95, 0.95, size=2)
        if min(abs(x[0]), abs(x[1])) > 0.05:
            pts.append(x)
    for x in pts:
        lap = _composed(jets, x[None, :], g, cfg, 1, 2).laplacian
        for col in range(3):
            fd = fd_laplacian(lambda y: composed_value(y, col), x, h=1e-4)
            assert lap[0, col] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_apply_cutoffs_dimension_mismatch():
    g = geom_2x2()
    cfg = default_cutoff_config(g)
    rng = np.random.default_rng(7)
    jets = _random_raw(rng, 2, 4, 2)
    pts = np.array([[0.3, 0.4], [0.2, -0.6]])
    with pytest.raises(ValueError):
        _composed(jets, pts, g, cfg, 1, 2)


def _traces(points, axes, raw, g, cfg, n1, n2):
    """One-sided normal traces (minus, plus): n . (F_pm * raw).gradient."""
    sides = interface_trace_factors(points, axes, g, cfg, n1, n2)
    rows = np.arange(len(axes))
    return tuple((f * raw).gradient[rows, :, axes] for f in sides)


def test_interface_trace_one_sided_limit_identity():
    """One-sided normal derivative of v_n tends to +-B*vbar*Phi2 on the interface."""
    g = geom_2x2()
    cfg = default_cutoff_config(g)
    rng = np.random.default_rng(8)
    jets = _random_raw(rng, 1, 3, 2)
    x = np.array([0.0, 0.62])  # on the vertical interface
    tr_minus, tr_plus = _traces(x[None, :], np.array([0]), jets(x[None, :]), g, cfg, 1, 2)

    h = 1e-7
    for col, sided in ((1, True), (2, False)):  # col1: psi1 kinks here; col2 smooth
        vals = {}
        for s, side in ((+1, "p"), (-1, "m")):
            xp = x + np.array([s * h, 0.0])
            v1 = _composed(jets, xp[None, :], g, cfg, 1, 2).value
            xp2 = x + np.array([2 * s * h, 0.0])
            v2 = _composed(jets, xp2[None, :], g, cfg, 1, 2).value
            # one-sided derivative, first order from the interface value (v=0 on own line)
            vals[side] = (v1[0, col], v2[0, col])
        von = 0.0 if sided else None
        if sided:
            dp = (4 * vals["p"][0] - vals["p"][1]) / (2 * h)  # 2nd-order one-sided
            dm = (-4 * vals["m"][0] + vals["m"][1]) / (2 * h)
            assert dp == pytest.approx(tr_plus[0, col], abs=1e-3)
            assert dm == pytest.approx(tr_minus[0, col], abs=1e-3)
        else:
            dp = (vals["p"][0] - vals["m"][0]) / (2 * h)
            assert dp == pytest.approx(tr_plus[0, col], abs=1e-3)
            assert tr_plus[0, col] == pytest.approx(tr_minus[0, col])


def test_jump_bracket_scales_linearly_in_raw_value():
    g = geom_1d()
    cfg = default_cutoff_config(g)
    x = np.array([[PI / 5]])
    for scale in (0.0, 0.5, 2.0):
        raw = Jets(np.full((1, 5), scale), np.zeros((1, 5, 1)), np.zeros((1, 5)))
        tm, tp = _traces(x, np.array([0]), raw, g, cfg, 2, 3)
        bracket = tp - tm
        # v columns (index >= 2): bracket = 2*B*phi*raw, zero iff raw zero, linear in raw
        expected = 2 * scale * boundary_cutoff_jet(x, g).value[0]
        np.testing.assert_allclose(bracket[0, 2:], expected, atol=1e-14)


def test_default_config_respects_containment():
    g4 = build_grid_geometry(
        2, cuts_x=[-0.5, 0, 0.5], cuts_y=[-0.5, 0, 0.5], bounds=[(-1, 1), (-1, 1)]
    )
    cfg = default_cutoff_config(g4)
    assert cfg.delta2 == pytest.approx(0.45 * 0.5)
    assert cfg.delta1 == pytest.approx(cfg.delta2 / 2)
