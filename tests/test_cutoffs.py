import numpy as np
import pytest

from transolve import cutoffs
from transolve.assembly import build_epoch_cache
from transolve.cutoffs import (
    CutoffConfig,
    _axis_lines,
    _psi_jets,
    boundary_cutoff_jet,
    composition_factors,
    default_cutoff_config,
    eta_jet,
    factor_index,
    interface_trace_factors,
    jump_adf_jet,
)
from transolve.geometry import build_grid_geometry
from transolve.nets import Jets
from transolve.reference import RhsSpec
from transolve.sampling import sample_collocation

from conftest import disk_table, geom_1d, geom_2x2, geom_3x3, vertex_runs

PI = np.pi
CFG = CutoffConfig(0.2, 0.5)


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


@pytest.fixture
def exclusion_factors(monkeypatch):
    """phi_v at every point, per singular vertex v, as the factor builders
    form it from the points' vertex-disk table; one all-ones jet without a
    vertex.  With B = 1 the factors B * phi_v, the first group of
    `cutoffs._distinct_factors`, are phi_v bit for bit: the product rule
    only adds exact zeros.  Without jump cutoffs the points may lie on the
    interface lines, the vertices included."""
    monkeypatch.setattr(cutoffs, "boundary_cutoff_jet",
                        lambda points, g: Jets.ones(len(points), points.shape[1]))

    def phis(points, g, cfg):
        points = np.asarray(points, dtype=float)
        stack = cutoffs._distinct_factors(points, g, disk_table(points, g, cfg), [])
        return [stack.rows((slice(None), v)) for v in range(max(g.n_singular, 1))]

    return phis


@pytest.fixture
def exclusion_columns(exclusion_factors):
    """The exclusion factor of every w and every v column, as two jet lists."""

    def columns(points, g, cfg, n1, n2):
        phis = exclusion_factors(points, g, cfg)
        idx = factor_index(g, n1, n2) % len(phis)
        return [phis[i] for i in idx[:n1]], [phis[i] for i in idx[n1:]]

    return columns


def test_exclusion_all_ones_in_1d():
    """Phi1 and Phi2 are all ones in 1D: the w factors are B, the v factors B * psi."""
    g = geom_1d()
    pts = np.array([[0.5], [1.5]])
    fac = composition_factors(pts, g, disk_table(pts, g, CFG)).columns(factor_index(g, 10, 40))
    assert fac.value.shape == (2, 50)
    bjet = boundary_cutoff_jet(pts, g)
    bpsi = bjet * jump_adf_jet(pts, _axis_lines(g)[0])
    for jet, cols in ((bjet, range(10)), (bpsi, range(10, 50))):
        for n in cols:
            np.testing.assert_allclose(fac.value[:, n], jet.value)
            np.testing.assert_allclose(fac.gradient[:, n], jet.gradient)
            np.testing.assert_allclose(fac.laplacian[:, n], jet.laplacian)


def test_exclusion_zero_at_vertex_one_far(exclusion_columns):
    g = geom_2x2()
    cfg = default_cutoff_config(g)
    pts = np.array([[0.0, 0.0], [0.9, 0.9]])
    phi1, phi2 = exclusion_columns(pts, g, cfg, 4, 6)
    assert len(phi1) == 4 and len(phi2) == 6
    for jet in phi1 + phi2:
        assert jet.value[0] == pytest.approx(0.0, abs=1e-15)
        assert jet.value[1] == pytest.approx(1.0)


def test_exclusion_block_layout(exclusion_columns):
    """Phi1 is phi_n in blocks of n1/N_s; Phi2 is two copies of the
    n2/2-long block vector, one per interface axis."""
    g = build_grid_geometry(2, cuts_x=[-0.3, 0.3], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])
    cfg = default_cutoff_config(g)
    at_first_vertex = g.singular_vertices[:1]
    phi1, phi2 = exclusion_columns(at_first_vertex, g, cfg, 4, 8)
    np.testing.assert_allclose([j.value[0] for j in phi1], [0, 0, 1, 1], atol=1e-15)
    np.testing.assert_allclose([j.value[0] for j in phi2], [0, 0, 1, 1] * 2, atol=1e-15)


def test_composition_factors_are_the_distinct_stack_and_its_index():
    """F = (1 + d) * N_s distinct factors and the index of every output's;
    gathering a subset of the points before the outputs gives the same
    factors as after."""
    g = geom_3x3()
    pts = np.random.default_rng(4).uniform(-1, 1, size=(20, 2))
    stack = composition_factors(pts, g, disk_table(pts, g))
    cols = factor_index(g, 16, 32)
    assert stack.value.shape == (20, 3 * 4)
    assert cols.shape == (48,) and set(cols) == set(range(12))
    tile = slice(5, 13)
    gathered, whole = stack.rows(tile).columns(cols), stack.columns(cols).rows(tile)
    for name in ("value", "gradient", "laplacian"):
        np.testing.assert_array_equal(getattr(gathered, name), getattr(whole, name))


@pytest.mark.parametrize("layout, n1, n2", [(geom_1d, 10, 40), (geom_3x3, 16, 32)])
def test_columns_equal_the_take_gather(layout, n1, n2):
    """`Jets.columns`, the product with the one-hot matrix of the index,
    equals an ``np.take`` gather of every jet plane under ==, so +0 and -0
    match, on a tile of the 1D benchmark's F = 2 stack and of the 2D
    one's F = 12, points on the disks and the boundary included; its
    gradient stays component-major."""
    g = layout()
    rng = np.random.default_rng(6)
    lo, hi = g.bounds[0]
    pts = rng.uniform(lo, hi, size=(300, g.dimension))
    pts[:3] = [lo] * g.dimension  # on the boundary: B and its Laplacian's terms are 0
    if g.n_singular:
        pts[3:40] = g.singular_vertices[0] + rng.uniform(-0.1, 0.1, size=(37, 2))
    stack = composition_factors(pts, g, disk_table(pts, g)).rows(slice(0, 256))
    cols = factor_index(g, n1, n2)
    assert stack.value.shape[1] == (2 if g.dimension == 1 else 12)
    gathered = stack.columns(cols)
    for name in ("value", "gradient", "laplacian"):
        want = np.take(getattr(stack, name), cols, axis=1)
        assert np.all(getattr(gathered, name) == want), name
    assert gathered.gradient.transpose(2, 0, 1).flags.c_contiguous


@pytest.mark.parametrize("layout, n1, n2", [(geom_1d, 10, 40), (geom_2x2, 4, 8), (geom_3x3, 16, 32)])
def test_factor_index_is_uniform_runs_within_each_block(layout, n1, n2):
    """`factor_index` is non-decreasing, and within the n1 block and within
    the n2 block its runs of one factor are all of one length, through
    consecutive factors."""
    g = layout()
    cols = factor_index(g, n1, n2)
    assert np.all(np.diff(cols) >= 0)
    for block in (cols[:n1], cols[n1:]):
        factors, counts = np.unique(block, return_counts=True)
        assert len(set(counts.tolist())) == 1
        np.testing.assert_array_equal(factors, np.arange(factors[0], factors[-1] + 1))


def _dense_factors(points, g, cfg, psis):
    """The reference stack: every B * phi_v and B * psi_a * phi_v formed at
    every point, phi_v = 1 - eta(|x - x_v|) from `eta_jet` at all of them
    (one all-ones factor without a vertex), in `factor_index` order."""
    n, d = points.shape
    bjet = boundary_cutoff_jet(points, g)
    phis = []
    for vx in g.singular_vertices:
        dx = points - vx[None, :]
        r = np.linalg.norm(dx, axis=1)
        eta, deta, ddeta = eta_jet(r, cfg)
        safe_r = np.where(r > 1e-300, r, 1.0)
        grad = -deta[:, None] * (dx / safe_r[:, None])
        lap = -ddeta - (d - 1) * deta / safe_r
        flat = r <= cfg.delta1
        grad[flat] = 0.0
        lap[flat] = 0.0
        phis.append(Jets(1.0 - eta, grad, lap))
    phis = phis or [Jets.ones(n, d)]
    jets = [bjet * phi for phi in phis] + [bjet * psi * phi for psi in psis for phi in phis]
    return [np.stack([getattr(j, name) for j in jets], axis=1)
            for name in ("value", "gradient", "laplacian")]


def _at_radius(vertex, target, direction):
    """The points a few ulps from vertex + target * direction whose
    `np.linalg.norm` distance to ``vertex`` is exactly ``target``, a zero
    component of ``direction`` held at the vertex's."""
    base = vertex + target * direction
    steps = np.arange(-40, 41)
    offsets = [steps * np.spacing(b) if c else np.zeros(1) for b, c in zip(base, direction)]
    grid = np.stack(np.meshgrid(*offsets, indexing="ij"), axis=-1).reshape(-1, len(base))
    candidates = base + grid
    return candidates[np.linalg.norm(candidates - vertex[None, :], axis=1) == target]


@pytest.mark.parametrize("layout", ["1d", "2x2", "3x3"])
def test_factors_equal_the_dense_stack_bit_for_bit(layout):
    """`composition_factors` and `interface_trace_factors` form the products
    with phi_v on vertex v's disk r < delta2 alone; they equal the stack
    that forms every product at every point, `np.array_equal`.  The points
    include, per vertex, radii exactly at delta2, one ulp either side of
    it, at delta1 and inside delta1 off the lines, and on the lines through
    the vertex wherever the grid of floats holds such a radius, delta2 and
    its two neighbours at least once."""
    g = {"1d": geom_1d, "2x2": geom_2x2, "3x3": geom_3x3}[layout]()
    cfg = default_cutoff_config(g)
    d = g.dimension
    lo, hi = np.array(g.bounds).T
    inner = [np.random.default_rng(6).uniform(lo, hi, size=(40, d))]
    on_lines = [np.array(g.cuts_x)[:, None]] if d == 1 else []
    on_axes = [0] * sum(len(p) for p in on_lines)
    radii = [cfg.delta2, np.nextafter(cfg.delta2, 0), np.nextafter(cfg.delta2, 1),
             cfg.delta1, 0.4 * cfg.delta1]
    for vx in g.singular_vertices:
        for r in radii:
            for angle in (0.3, 2.2, 4.0):
                hits = _at_radius(vx, r, np.array([np.cos(angle), np.sin(angle)]))
                assert len(hits), (vx, r, angle)
                inner.append(hits[:2])
            for axis, direction in ((0, (0, 1)), (0, (0, -1)), (1, (1, 0)), (1, (-1, 0))):
                hits = _at_radius(vx, r, np.array(direction, dtype=float))[:2]
                on_lines.append(hits)
                on_axes += [axis] * len(hits)
    points, ifc_points, axes = np.concatenate(inner), np.concatenate(on_lines), np.array(on_axes)
    if g.n_singular:
        r = np.min([np.linalg.norm(ifc_points - vx, axis=1) for vx in g.singular_vertices], axis=0)
        assert set(radii[:3]) <= set(r)

    stack = composition_factors(points, g, disk_table(points, g))
    want = _dense_factors(points, g, cfg, _psi_jets(points, np.full(len(points), -1), g))
    plus, _ = interface_trace_factors(ifc_points, axes, g, disk_table(ifc_points, g))
    want_plus = _dense_factors(ifc_points, g, cfg, _psi_jets(ifc_points, axes, g))
    for got, ref in ((stack, want), (plus, want_plus)):
        for name, array in zip(("value", "gradient", "laplacian"), ref):
            assert np.array_equal(getattr(got, name), array), name


def test_exclusion_divisibility_enforced():
    g = geom_2x2()
    with pytest.raises(ValueError, match=r"N2=5 must be divisible by 2\*1"):
        factor_index(g, 4, 5)
    g4 = build_grid_geometry(
        2, cuts_x=[-0.5, 0, 0.5], cuts_y=[-0.5, 0, 0.5], bounds=[(-1, 1), (-1, 1)]
    )
    with pytest.raises(ValueError, match="N1=10 must be divisible by the 9 singular vertices"):
        factor_index(g4, 10, 36)


@pytest.mark.parametrize("axis", [0, 1])
def test_one_axis_cuts_odd_n2_column_plan(axis):
    """2D cuts on one axis only: no vertex, so every exclusion factor is 1.
    The first n2//2 v columns take the vertical-line psi and the rest the
    horizontal-line psi; the axis without cuts gives psi = 1, for odd n2 too."""
    cuts = dict(cuts_x=[0.2]) if axis == 0 else dict(cuts_y=[-0.3])
    g = build_grid_geometry(2, bounds=[(-1, 1), (-1, 1)], **cuts)
    pts = np.array([[0.5, 0.4], [-0.7, 0.1], [0.0, -0.8]])
    n1, n2 = 2, 5
    fac = composition_factors(pts, g, disk_table(pts, g, CFG)).columns(factor_index(g, n1, n2))
    bjet = boundary_cutoff_jet(pts, g)
    bpsi = bjet * jump_adf_jet(pts, _axis_lines(g)[axis])
    kinked = [n1 + c for c in range(n2) if (c >= n2 // 2) == axis]
    assert len(kinked) == (2 if axis == 0 else 3)
    for n in range(n1 + n2):
        jet = bpsi if n in kinked else bjet
        np.testing.assert_array_equal(fac.value[:, n], jet.value)
        np.testing.assert_array_equal(fac.gradient[:, n], jet.gradient)
        np.testing.assert_array_equal(fac.laplacian[:, n], jet.laplacian)


def test_exclusion_gradient_fd(exclusion_factors):
    """On the transition annulus of every vertex of the 2x2 and 3x3 layouts,
    phi_v's gradient -eta' u and Laplacian -eta'' - eta'/r match central
    differences of 1 - eta(|x - x_v|)."""
    for g in (geom_2x2(), geom_3x3()):
        cfg = default_cutoff_config(g)
        for v, vx in enumerate(g.singular_vertices):

            def f(y):
                return 1.0 - eta_jet(np.linalg.norm(y - vx), cfg)[0]

            for frac in (0.2, 0.5, 0.8):
                r = cfg.delta1 + frac * (cfg.delta2 - cfg.delta1)
                for ang in (0.3, 2.0, 4.4):
                    x = vx + r * np.array([np.cos(ang), np.sin(ang)])
                    jet = exclusion_factors(x[None, :], g, cfg)[v]
                    np.testing.assert_allclose(jet.gradient[0], fd_gradient(f, x), rtol=1e-6)
                    np.testing.assert_allclose(jet.laplacian[0], fd_laplacian(f, x), rtol=1e-4)


@pytest.mark.parametrize("layout", [geom_2x2, geom_3x3], ids=["2x2", "3x3"])
def test_phi_is_one_minus_eta_on_the_table_rows_and_one_off_them(layout, exclusion_factors):
    """On vertex v's rows of the vertex-disk table phi_v equals 1 - eta of
    the `np.linalg.norm` radius bit for bit; off them it is exactly 1 with
    zero gradient and Laplacian.  The points include, per vertex, radii
    exactly at delta1 and at delta2 and one ulp either side of each: the
    rows are exactly the points with r < delta2."""
    g = layout()
    cfg = default_cutoff_config(g)
    radii = [r for r0 in (cfg.delta1, cfg.delta2)
             for r in (np.nextafter(r0, 0), r0, np.nextafter(r0, 1))]
    points = [np.random.default_rng(9).uniform(-1, 1, size=(200, 2))]
    for vx in g.singular_vertices:
        for r in radii:
            for angle in (0.3, 2.2, 4.0):
                hits = _at_radius(vx, r, np.array([np.cos(angle), np.sin(angle)]))
                assert len(hits), (vx, r, angle)
                points.append(hits[:2])
    points = np.concatenate(points)
    table = disk_table(points, g)
    phis = exclusion_factors(points, g, cfg)
    runs = vertex_runs(table)
    assert len(runs) == len(phis) == g.n_singular
    for vx, geo, phi in zip(g.singular_vertices, runs, phis):
        r = np.linalg.norm(points - vx, axis=1)
        on = geo.rows
        np.testing.assert_array_equal(np.sort(on), np.flatnonzero(r < cfg.delta2))
        assert set(radii[:4]) <= set(r[on]) and not set(radii[4:]) & set(r[on])
        np.testing.assert_array_equal(phi.value[on], 1.0 - eta_jet(r[on], cfg)[0])
        off = np.setdiff1d(np.arange(len(points)), on)
        np.testing.assert_array_equal(phi.value[off], 1.0)
        np.testing.assert_array_equal(phi.gradient[off], 0.0)
        np.testing.assert_array_equal(phi.laplacian[off], 0.0)


def test_a_table_of_another_point_count_raises():
    """Both factor builders and `build_epoch_cache` reject a vertex-disk
    table made for another number of points."""
    g = geom_2x2()
    quad = sample_collocation(g, 6, 4, np.random.default_rng(3))
    pts, ifc = quad.interior_points, quad.interface_points
    axes = np.array([g.interfaces[k].axis for k in quad.interface_ids])
    lap, trace = np.zeros((quad.n_interior, 5)), np.zeros((quad.n_interface, 3))
    calls = [
        lambda: composition_factors(pts, g, disk_table(pts[:-1], g)),
        lambda: interface_trace_factors(ifc, axes, g, disk_table(ifc[1:], g)),
        lambda: build_epoch_cache(g, disk_table(pts[1:], g), quad, lap, trace,
                                  np.ones_like(trace), RhsSpec.for_geometry("corner2d", g)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="vertex-disk table indexes"):
            call()


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
    stack = composition_factors(points, g, disk_table(points, g, cfg))
    return stack.columns(factor_index(g, n1, n2)) * jets(points)


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
    """One-sided normal traces (minus, plus): the plus side's
    n . (F * raw).gradient, and its negative on the outputs that the mask
    row of the point's axis marks."""
    stack, mask = interface_trace_factors(points, axes, g, disk_table(points, g, cfg))
    cols = factor_index(g, n1, n2)
    plus = (stack.columns(cols) * raw).gradient[np.arange(len(axes)), :, axes]
    return np.where(mask[axes][:, cols], -plus, plus), plus


def test_interface_trace_one_sided_limit_identity():
    """One-sided normal derivative of every output tends to its trace on
    that side: +-B*vbar*Phi2 where psi kinks on the line, the same value
    on both sides elsewhere.  Each side is checked against a second-order
    one-sided difference from three points off the line, at points on a
    vertical (axis 0) and a horizontal (axis 1) interface of the 2x2 and
    the 3x3 layout; on the 3x3 one both lie in the transition annulus of a
    vertex."""
    cases = [("2x2", (0.0, 0.62), 0), ("2x2", (0.55, 0.0), 1), ("3x3", (-0.5, -0.1), 0),
             ("3x3", (0.1, 0.5), 1)]
    for layout, point, axis in cases:
        g, (n1, n2) = (geom_2x2(), (1, 2)) if layout == "2x2" else (geom_3x3(), (4, 8))
        cfg = default_cutoff_config(g)
        jets = _random_raw(np.random.default_rng(8), 1, n1 + n2, 2)
        x, normal = np.array(point), np.eye(2)[axis]
        tr_minus, tr_plus = _traces(x[None, :], np.array([axis]), jets(x[None, :]), g, cfg, n1, n2)
        kinks = factor_index(g, n1, n2) // max(g.n_singular, 1) == 1 + axis
        assert kinks.any() and not kinks.all()
        np.testing.assert_array_equal(tr_minus[0, ~kinks], tr_plus[0, ~kinks])

        h = 1e-6
        for s, trace in ((+1, tr_plus), (-1, tr_minus)):
            v1, v2, v3 = (
                _composed(jets, (x + k * s * h * normal)[None, :], g, cfg, n1, n2).value[0]
                for k in (1, 2, 3)
            )
            # d/dn from the side s, exact to second order without the value on the line
            fd = s * (-2.5 * v1 + 4 * v2 - 1.5 * v3) / h
            np.testing.assert_allclose(trace[0], fd, rtol=0, atol=1e-3, err_msg=f"{layout} {point}")


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
