import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transolve.cutoffs import CutoffConfig, default_cutoff_config, eta_jet
from transolve.eigen import (
    N_BASIS,
    XI_PER_THETA,
    EigenModes,
    angular_eval,
    assemble_eigensystem,
    basis_matrix,
    select_singular,
    solve_eigenpairs,
)
from transolve.geometry import angular_trace, build_grid_geometry
from transolve.sampling import midpoint_grid, sample_parameters
from transolve.singular import eval_s, polar_cache, singular_evals_from_cache
from transolve.training import vertex_eigenpairs

from conftest import geom_2x2, geom_3x3

CFG = CutoffConfig(0.225, 0.45)
G = geom_2x2()


def make_basis(trace=(1.0, 10.0, 1.0, 10.0), n_cap=2):
    """Selected pairs per vertex of the 2x2 layout G (one vertex)."""
    pairs = solve_eigenpairs(assemble_eigensystem(np.asarray(trace)))
    return [select_singular(pairs, n_cap)]


def on_points(rows, block, n_points):
    """A support-row block scattered to all ``n_points`` points, zero elsewhere."""
    out = np.zeros((n_points,) + block.shape[1:])
    out[rows] = block
    return out


def values(pairs, pts, col=0):
    """Values of one singular column at ``pts``."""
    polar = polar_cache(pts, G, CFG)
    return on_points(polar.disk_rows, eval_s(polar, pairs)[0], len(pts))[:, col]


def gradients(pairs, pts, col=0):
    polar = polar_cache(pts, G, CFG)
    return on_points(polar.disk_rows, eval_s(polar, pairs)[1], len(pts))[:, :, col]


def sources(pairs, pts, col=0):
    polar = polar_cache(pts, G, CFG)
    (src,) = singular_evals_from_cache(polar, [pairs])
    return on_points(polar.annulus_rows, src, len(pts))[:, col]


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
    # the one vertex's selection: that one mode, as one row of EigenModes
    return [EigenModes(np.array([a.exponent]), rho[None], np.ones(1), np.array([a.residual]))]


def test_support_outside_delta2():
    b = make_basis()
    pts = np.array([[0.5, 0.3], [0.9, 0.0], [-0.6, 0.6]])
    val, grad = eval_s(polar_cache(pts, G, CFG), b)
    np.testing.assert_allclose(val, 0.0)
    np.testing.assert_allclose(grad, 0.0)
    np.testing.assert_allclose(singular_evals_from_cache(polar_cache(pts, G, CFG), [b]), 0.0)


def test_source_zero_inside_delta1():
    b = make_basis()
    pts = np.array([[0.05, 0.05], [0.0, 0.1], [-0.1, -0.05]])
    np.testing.assert_allclose(singular_evals_from_cache(polar_cache(pts, G, CFG), [b]), 0.0)


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


def test_gradient_guard_only_at_vertices_with_selected_pairs():
    """On the four-vertex layout with pairs selected at one vertex alone, a
    point on that vertex raises, and a point on any other vertex evaluates:
    every function is 0 there, and so is its gradient."""
    g = geom_3x3()
    cfg = default_cutoff_config(g)
    p = np.random.default_rng(6).uniform(0.1, 10.0, size=g.n_subdomains)
    pairs = []
    for vid in range(g.n_singular):
        trace = np.array([s[2] for s in angular_trace(g, p, vid)])
        pairs.append(select_singular(solve_eigenpairs(assemble_eigensystem(trace)), 2))
    chosen = next(v for v, sel in enumerate(pairs) if sel)
    only = [sel if v == chosen else sel[:0] for v, sel in enumerate(pairs)]
    for vid, vertex in enumerate(g.singular_vertices):
        polar = polar_cache(vertex[None, :], g, cfg)
        if vid == chosen:
            with pytest.raises(ValueError, match="guard radius"):
                eval_s(polar, only)
            continue
        val, grad = eval_s(polar, only)
        assert val.shape == (1, len(pairs[chosen]))
        np.testing.assert_array_equal(val, 0.0)
        np.testing.assert_array_equal(grad, 0.0)


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
    g = geom_3x3()
    cfg = CutoffConfig(0.1, 0.2)
    p = np.random.default_rng(6).uniform(0.1, 10.0, size=g.n_subdomains)
    pairs = []
    for vid in range(g.n_singular):
        trace = np.array([s[2] for s in angular_trace(g, p, vid)])
        pairs.append(select_singular(solve_eigenpairs(assemble_eigensystem(trace)), 2))
    assert sum(map(len, pairs)) > 1
    pts = np.random.default_rng(4).uniform(-1, 1, size=(400, 2))
    polar = polar_cache(pts, g, cfg)
    (src,) = singular_evals_from_cache(polar, [pairs])
    val, grad = eval_s(polar, pairs)
    n_cols = sum(map(len, pairs))
    assert src.shape == (polar.annulus_rows.size, n_cols)
    assert val.shape == (polar.disk_rows.size, n_cols)
    assert grad.shape == (polar.disk_rows.size, 2, n_cols)
    start = 0
    for vid, sel in enumerate(pairs):
        alone = [sel if k == vid else pairs[k][:0] for k in range(g.n_singular)]
        cols = slice(start, start + len(sel))
        np.testing.assert_array_equal(src[:, cols], singular_evals_from_cache(polar, [alone])[0])
        v, gr = eval_s(polar, alone)
        np.testing.assert_array_equal(val[:, cols], v)
        np.testing.assert_array_equal(grad[:, :, cols], gr)
        start += len(sel)


def test_batch_block_places_each_parameters_columns_in_its_slots():
    """A batch's block holds m_v slots at vertex v, the most modes any
    parameter has there.  A parameter's row holds its own columns, its
    block alone, in its first slots at each vertex, and zeros in the
    rest.  The selections are drawn by hand from three junctions' modes,
    so that a vertex holds up to two.  The columns agree to rounding: where
    a vertex has more slots than the parameter has modes, the angular
    product runs as another BLAS call."""
    g = geom_3x3()
    traces = ((1.0, 10.0, 1.0, 10.0), (1.0, 100.0, 1.0, 100.0), (1.0, 1.0, 1.0, 100.0))
    # the three modes as the rows of one EigenModes: a selection is rows of it
    chosen = [make_basis(trace, 1)[0] for trace in traces]
    modes = EigenModes(*(np.concatenate([getattr(sel, f.name) for sel in chosen])
                         for f in dataclasses.fields(EigenModes)))
    a, b, c = range(3)
    pairs_per_p = [
        [modes[[a, b]], modes[[]], modes[[c]], modes[[]]],
        [modes[[a]], modes[[b, c]], modes[[]], modes[[]]],
        [modes[[]], modes[[]], modes[[]], modes[[]]],
        [modes[[c, a]], modes[[b]], modes[[a]], modes[[c]]],
    ]
    counts = np.array([[len(sel) for sel in pairs] for pairs in pairs_per_p])
    most = counts.max(axis=0)
    assert most.tolist() == [2, 2, 1, 1]
    pts = np.random.default_rng(4).uniform(-1, 1, size=(400, 2))
    polar = polar_cache(pts, g, CutoffConfig(0.1, 0.2))
    block = singular_evals_from_cache(polar, pairs_per_p)
    assert block.shape == (len(pairs_per_p), polar.annulus_rows.size, most.sum())
    for k, pairs in enumerate(pairs_per_p):
        (own,) = singular_evals_from_cache(polar, [pairs])
        assert own.shape[1] == counts[k].sum()
        starts, own_starts = np.cumsum(most) - most, np.cumsum(counts[k]) - counts[k]
        for start, own_start, m, n in zip(starts, own_starts, most, counts[k]):
            np.testing.assert_allclose(block[k, :, start : start + n],
                                       own[:, own_start : own_start + n], rtol=1e-13, atol=0)
            np.testing.assert_array_equal(block[k, :, start + n : start + m], 0.0)
        assert np.all(np.any(own != 0, axis=0))


def test_empty_singular_block():
    pairs = solve_eigenpairs(assemble_eigensystem(np.ones(4)))
    b = [select_singular(pairs, 3)]
    assert len(b[0]) == 0 and b[0].rho.shape == (0, 16)
    polar = polar_cache(np.array([[0.1, 0.1]]), G, CFG)  # inside delta1: disk, not annulus
    assert singular_evals_from_cache(polar, [b]).shape == (1, 0, 0)
    val, grad = eval_s(polar, b)
    assert val.shape == (1, 0) and grad.shape == (1, 2, 0)


@settings(max_examples=25, deadline=None)
@given(ncx=st.integers(1, 4), ncy=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_support_rows_on_random_layouts(ncx, ncy, seed):
    """On non-uniform layouts with the default radii, each vertex's block of
    the disk rows is exactly its disk points, annulus points first, and its
    block of the annulus rows exactly its annulus points; so the annulus
    rows lie inside the disk rows and no row belongs to two vertices.  The
    block is the vertex's own ``rows``, with the radius `np.linalg.norm`
    gives bit for bit and the unit direction (x - x_v) / r."""
    rng = np.random.default_rng(seed)
    bounds = [(-1.0, 2.0), (-0.5, 0.5)]
    cx = np.sort(rng.uniform(*bounds[0], size=ncx))
    cy = np.sort(rng.uniform(*bounds[1], size=ncy))
    edges_x = np.concatenate([[bounds[0][0]], cx, [bounds[0][1]]])
    edges_y = np.concatenate([[bounds[1][0]], cy, [bounds[1][1]]])
    if min(np.diff(edges_x).min(), np.diff(edges_y).min()) < 1e-3:
        return
    g = build_grid_geometry(2, cuts_x=cx, cuts_y=cy, bounds=bounds)
    cfg = default_cutoff_config(g)
    # uniform points, and points on rings around the vertices so that every
    # disk and annulus holds some
    radii = rng.uniform(0, 1.2 * cfg.delta2, size=(g.n_singular, 40))
    angles = rng.uniform(0, 2 * np.pi, size=radii.shape)
    rings = g.singular_vertices[:, None, :] + radii[..., None] * np.stack(
        [np.cos(angles), np.sin(angles)], axis=-1
    )
    pts = np.concatenate([
        rng.uniform([b[0] for b in bounds], [b[1] for b in bounds], size=(300, 2)),
        rings.reshape(-1, 2),
    ])
    polar = polar_cache(pts, g, cfg)
    assert np.isin(polar.annulus_rows, polar.disk_rows).all()
    assert np.unique(polar.disk_rows).size == polar.disk_rows.size
    disk = annulus = 0
    for v, geo in zip(g.singular_vertices, polar.vertices):
        r = np.linalg.norm(pts - v, axis=1)
        in_disk = np.flatnonzero(r < cfg.delta2)
        in_annulus = np.flatnonzero((cfg.delta1 < r) & (r < cfg.delta2))
        assert in_annulus.size > 0 and in_disk.size > in_annulus.size
        block = polar.disk_rows[disk : disk + geo.r.size]
        np.testing.assert_array_equal(np.sort(block), in_disk)
        np.testing.assert_array_equal(block[: geo.n_annulus], in_annulus)
        np.testing.assert_array_equal(
            polar.annulus_rows[annulus : annulus + geo.n_annulus], in_annulus
        )
        np.testing.assert_array_equal(geo.rows, block)
        np.testing.assert_array_equal(geo.r, r[block])
        np.testing.assert_array_equal(geo.direction, (pts[block] - v) / r[block, None])
        disk += geo.r.size
        annulus += geo.n_annulus
    assert (disk, annulus) == (polar.disk_rows.size, polar.annulus_rows.size)


def test_overlapping_disks_raise():
    g = build_grid_geometry(2, cuts_x=[-0.1, 0.1], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])
    with pytest.raises(ValueError, match="two singular vertices"):
        polar_cache(np.array([[0.0, 0.01]]), g, CutoffConfig(0.05, 0.15))
    polar_cache(np.array([[0.0, 0.01]]), g, default_cutoff_config(g))


# ---------------- the stacked pass against one vertex at a time ----------


def _angular(geo):
    """A vertex's (len, 16) angular table and its theta-derivatives."""
    dx, dy = np.ascontiguousarray(geo.offset.T)
    values, derivs = basis_matrix(np.mod(np.arctan2(dy, dx), 2 * np.pi) * XI_PER_THETA)
    return values, derivs * XI_PER_THETA


def _slots_per_vertex(polar, pairs_per_p, width=None):
    """Per vertex with slots: its factors (r, eta, eta', eta'', direction,
    angular tables), rows slices of the disk and annulus rows, its columns
    and its (P, 1, m) exponents and (P, 16, m) coefficients.  m is the
    vertex's own slot count, or ``width`` at every vertex with slots."""
    slots, disk, annulus, col = [], 0, 0, 0
    for v, geo in enumerate(polar.vertices):
        per_p = [pairs[v] for pairs in pairs_per_p]
        m = max(map(len, per_p))
        if m:
            k = width or m
            lam, coef = np.ones((len(per_p), 1, k)), np.zeros((len(per_p), N_BASIS, k))
            for j, sel in enumerate(per_p):
                lam[j, 0, : len(sel)] = sel.exponent
                coef[j, :, : len(sel)] = (sel.mu_scale[:, None] * sel.rho).T
            slots.append((geo, _angular(geo), slice(disk, disk + geo.r.size),
                          slice(annulus, annulus + geo.n_annulus), slice(col, col + m), lam, coef))
        disk += geo.r.size
        annulus += geo.n_annulus
        col += m
    return col, slots


def sources_per_vertex(polar, pairs_per_p, width=None):
    """The batch's (P, R, M) sources, one vertex at a time."""
    n_cols, slots = _slots_per_vertex(polar, pairs_per_p, width)
    out = np.zeros((len(pairs_per_p), polar.annulus_rows.size, n_cols))
    for geo, (ang, _), _, rows, cols, lam, coef in slots:
        a = slice(geo.n_annulus)
        r = geo.r[a, None]
        radial = (2 * lam + 1) * geo.eta_p[a, None] + r * geo.eta_pp[a, None]
        source = (ang[a] @ coef) * r ** (lam - 1) * radial
        out[:, rows, cols] = source[..., : cols.stop - cols.start]
    return out


def fields_per_vertex(polar, pairs, width=None):
    """One parameter's (D, M) values and (D, 2, M) gradients, one vertex
    at a time."""
    n_cols, slots = _slots_per_vertex(polar, [pairs], width)
    values = np.zeros((polar.disk_rows.size, n_cols))
    grads = np.zeros((polar.disk_rows.size, 2, n_cols))
    for geo, (ang, ang_derivs), rows, _, cols, (lam,), (coef,) in slots:
        m = cols.stop - cols.start
        r = geo.r[:, None]
        rl1 = r ** (lam - 1)
        mu = ang @ coef
        mu_eta = mu * geo.eta[:, None]
        ds_dr = lam * mu_eta + r * mu * geo.eta_p[:, None]
        ds_dt_over_r = (ang_derivs @ coef) * geo.eta[:, None]
        ct, st = geo.direction[:, :1], geo.direction[:, 1:]
        values[rows, cols] = (r * rl1 * mu_eta)[:, :m]
        grads[rows, 0, cols] = (rl1 * (ds_dr * ct - ds_dt_over_r * st))[:, :m]
        grads[rows, 1, cols] = (rl1 * (ds_dr * st + ds_dt_over_r * ct))[:, :m]
    return values, grads


@pytest.mark.parametrize("grid", [64, 96])
def test_stacked_pass_equals_one_vertex_at_a_time_on_the_query_grids(grid):
    """On the benchmark layout's 64^2 and 96^2 query grids, the sources of
    1- and 8-parameter batches and each parameter's values and gradients,
    every vertex at once on the stacked disks, equal bit for bit those
    formed one vertex at a time from its own factors and angular table."""
    g = geom_3x3()
    polar = polar_cache(midpoint_grid(g, grid, grid).interior_points, g,
                        default_cutoff_config(g))
    params = sample_parameters(np.random.default_rng(grid), 8, g.n_subdomains, 0.1, 10.0)
    pairs_per_p = vertex_eigenpairs(g, params, 2)
    assert all(len(sel) for pairs in pairs_per_p for sel in pairs)
    for size in (1, 8):
        batch = pairs_per_p[:size]
        assert np.array_equal(singular_evals_from_cache(polar, batch),
                              sources_per_vertex(polar, batch))
    for pairs in pairs_per_p:
        for got, want in zip(eval_s(polar, pairs), fields_per_vertex(polar, pairs)):
            assert np.array_equal(got, want)


def test_stacked_pass_with_mixed_slot_counts_equals_one_vertex_at_a_time():
    """With the hand-drawn selections of
    `test_batch_block_places_each_parameters_columns_in_its_slots`, two
    slots at two vertices and one at the others, on the 64^2 query grid,
    the stacked pass equals bit for bit the one-vertex loop run at the
    width of the stack: every slot column and the unused slots' zeros, in
    its vertex's rows and columns.  At a vertex's own width of one slot
    the loop's angular product would run as a GEMV, which rounds apart
    from the GEMM the stack runs; the batch test holds the two to 1e-13."""
    g = geom_3x3()
    traces = ((1.0, 10.0, 1.0, 10.0), (1.0, 100.0, 1.0, 100.0), (1.0, 1.0, 1.0, 100.0))
    chosen = [make_basis(trace, 1)[0] for trace in traces]
    modes = EigenModes(*(np.concatenate([getattr(sel, f.name) for sel in chosen])
                         for f in dataclasses.fields(EigenModes)))
    a, b, c = range(3)
    pairs_per_p = [
        [modes[[a, b]], modes[[]], modes[[c]], modes[[]]],
        [modes[[a]], modes[[b, c]], modes[[]], modes[[]]],
        [modes[[]], modes[[]], modes[[]], modes[[]]],
        [modes[[c, a]], modes[[b]], modes[[a]], modes[[c]]],
    ]
    polar = polar_cache(midpoint_grid(g, 64, 64).interior_points, g, default_cutoff_config(g))
    block = singular_evals_from_cache(polar, pairs_per_p)
    assert block.shape[2] == 6
    assert np.array_equal(block, sources_per_vertex(polar, pairs_per_p, width=2))
    for pairs in pairs_per_p:
        width = max(map(len, pairs)) or None
        for got, want in zip(eval_s(polar, pairs), fields_per_vertex(polar, pairs, width)):
            assert np.array_equal(got, want)


def test_stacked_disks_hold_each_vertex_and_pad_the_rest():
    """On disks of unequal sizes, the stacked table holds each vertex's
    annulus points from place 0 and its inner points from place A, the
    largest annulus, with the vertex's own radius, eta jet, direction and
    angular tables bit for bit; every pad place has radius 1 and zeros
    elsewhere; and ``disk_at`` gathers the flattened stack into the disk
    rows' order."""
    g = geom_3x3()
    pts = np.random.default_rng(4).uniform(-1, 1, size=(400, 2))
    polar = polar_cache(pts, g, CutoffConfig(0.1, 0.2))
    assert len({(geo.n_annulus, geo.r.size) for geo in polar.vertices}) == g.n_singular
    disks = polar.stacked
    assert disks is polar.stacked  # formed once
    a = disks.n_annulus
    assert a == max(geo.n_annulus for geo in polar.vertices)
    live = np.zeros(disks.r.shape, dtype=bool)
    for v, geo in enumerate(polar.vertices):
        places = np.r_[: geo.n_annulus, a : a + geo.r.size - geo.n_annulus]
        live[v, places] = True
        for name in ("r", "eta", "eta_p", "eta_pp", "direction"):
            assert np.array_equal(getattr(disks, name)[v, places], getattr(geo, name)), name
        for got, want in zip((disks.values[v, places], disks.derivs[v, places]), _angular(geo)):
            assert np.array_equal(got, want)
    assert np.all(disks.r[~live] == 1.0)
    for name in ("eta", "eta_p", "eta_pp", "direction", "values", "derivs"):
        assert np.all(getattr(disks, name)[~live] == 0.0), name
    np.testing.assert_array_equal(disks.disk_at, np.flatnonzero(live))
    flat_r = disks.r.reshape(-1)[disks.disk_at]
    np.testing.assert_array_equal(flat_r, np.concatenate([geo.r for geo in polar.vertices]))
    for name in ("r", "direction", "values"):
        assert not getattr(disks, name).flags.writeable
