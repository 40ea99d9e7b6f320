import tracemalloc

import numpy as np
import pytest

from transolve.assembly import (
    BLOCK,
    CoefficientVector,
    SolveError,
    assemble_system,
    build_epoch_cache,
    evaluate_solution,
    solve_normal_equations,
    solve_parameter_batch,
)
from transolve.cutoffs import (
    composition_factors,
    default_cutoff_config,
    eta_jet,
    interface_trace_factors,
)
from transolve.eigen import angular_eval, assemble_eigensystem, select_singular, solve_eigenpairs
from transolve.geometry import angular_trace, build_grid_geometry
from transolve.nets import NetConfig, forward_jets, init_params
from transolve.reference import RhsSpec
from transolve.sampling import sample_collocation
from transolve.singular import singular_evals_from_cache
from transolve.training import vertex_eigenpairs

PI = np.pi


def geom_1d():
    return build_grid_geometry(1, cuts_x=[PI / 5, 2 * PI / 5, 3 * PI / 5, 4 * PI / 5], bounds=[(0, PI)])


def geom_2x2():
    return build_grid_geometry(2, cuts_x=[0.0], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])


def raw_rows(geometry, net_cfg, seed=0, n_int=12, n_ifc=6):
    """Cutoff config, quadrature, and the unweighted Laplacians and traces."""
    cfg = default_cutoff_config(geometry)
    quad = sample_collocation(geometry, n_int, n_ifc, np.random.default_rng(seed))
    params = init_params(net_cfg, seed + 1)
    stack, cols = composition_factors(quad.interior_points, geometry, cfg, net_cfg.n1, net_cfg.n2)
    lap = (stack.columns(cols) * forward_jets(params, quad.interior_points)).laplacian
    ifc_axes = np.array([geometry.interfaces[k].axis for k in quad.interface_ids])
    sides = interface_trace_factors(
        quad.interface_points, ifc_axes, geometry, cfg, net_cfg.n1, net_cfg.n2
    )
    ifc_jets = forward_jets(params, quad.interface_points)
    # the normal component of each side's gradient
    rows = np.arange(quad.n_interface)
    tr_minus, tr_plus = ((f * ifc_jets).gradient[rows, :, ifc_axes] for f in sides)
    return cfg, quad, lap, tr_minus, tr_plus


def make_cache(geometry, net_cfg, seed=0, n_int=12, n_ifc=6, theta=1.0):
    rhs = RhsSpec.for_geometry("sin1d" if geometry.dimension == 1 else "corner2d", geometry)
    rows = raw_rows(geometry, net_cfg, seed, n_int, n_ifc)
    return build_epoch_cache(geometry, *rows, rhs, theta=theta)


def test_cache_shapes_toy():
    g = build_grid_geometry(1, cuts_x=[0.5], bounds=[(0, 1)])
    cfg = NetConfig(1, (3,), 1, 1)
    cache = make_cache(g, cfg, n_int=3, n_ifc=1)
    assert cache.wlap.shape == (6, 2)  # 3 per subdomain
    assert cache.wtrace_minus.shape == (1, 2)
    assert cache.wtrace_plus.shape == (1, 2)


def test_cache_deterministic():
    g = geom_1d()
    cfg = NetConfig(1, (4,), 2, 3)
    c1 = make_cache(g, cfg, seed=5)
    c2 = make_cache(g, cfg, seed=5)
    np.testing.assert_array_equal(c1.wlap, c2.wlap)
    np.testing.assert_array_equal(c1.wtrace_plus, c2.wtrace_plus)


def test_direct_assembly_equals_cache_based():
    """The cache-based matrix equals a pointwise direct assembly bit-for-bit."""
    g = geom_1d()
    cfg = NetConfig(1, (5,), 2, 4)
    rows = raw_rows(g, cfg, seed=2)
    cut, quad, lap, tr_minus, tr_plus = rows
    theta = 1.0
    # the cache weights its Laplacian in place: the oracle below reads the raw one
    cache = build_epoch_cache(
        g, cut, quad, lap.copy(), tr_minus, tr_plus, RhsSpec.for_geometry("sin1d", g), theta=theta
    )
    rng = np.random.default_rng(3)
    p = rng.uniform(0.5, 5.0, size=5)
    sys_cache = assemble_system(cache, p, None, theta)

    # direct oracle: recompute each entry from the raw jets without the
    # row-block structure
    j1 = quad.n_interior
    direct = np.zeros_like(sys_cache.matrix)
    for j in range(j1):
        pj = p[quad.interior_subdomain[j]]
        direct[j] = np.sqrt(quad.interior_weights[j]) * pj * lap[j]
    for k in range(quad.n_interface):
        ifc = g.interfaces[quad.interface_ids[k]]
        direct[j1 + k] = np.sqrt(theta * quad.interface_weights[k]) * (
            p[ifc.plus] * tr_plus[k] - p[ifc.minus] * tr_minus[k]
        )
    scale = np.abs(direct) + np.finfo(float).tiny
    assert np.max(np.abs(direct - sys_cache.matrix) / scale) <= 4 * np.finfo(float).eps


def test_theta_zero_kills_jump_rows():
    g = geom_1d()
    cfg = NetConfig(1, (5,), 2, 4)
    cache = make_cache(g, cfg, theta=0.0)
    sys0 = assemble_system(cache, np.ones(5), None, 0.0)
    np.testing.assert_array_equal(sys0.matrix[cache.quad.n_interior :], 0.0)
    np.testing.assert_array_equal(sys0.rhs[cache.quad.n_interior :], 0.0)


def test_jump_block_affine_in_parameter():
    g = build_grid_geometry(1, cuts_x=[0.5], bounds=[(0, 1)])
    cfg = NetConfig(1, (4,), 1, 2)
    cache = make_cache(g, cfg, n_int=5, n_ifc=1)
    mats = {}
    for p2 in (1.0, 2.0, 3.0):
        mats[p2] = assemble_system(cache, np.array([1.0, p2]), None, 1.0).matrix
    lo, mid, hi = mats[1.0], mats[2.0], mats[3.0]
    np.testing.assert_allclose(mid, 0.5 * (lo + hi), atol=1e-12 * np.abs(hi).max())


def test_parameter_length_validated():
    g = geom_1d()
    cfg = NetConfig(1, (4,), 1, 2)
    cache = make_cache(g, cfg)
    with pytest.raises(ValueError):
        assemble_system(cache, np.ones(4), None, 1.0)


def test_solve_identity_system():
    b = np.eye(2)
    l = np.array([3.0, 4.0])
    y, res = solve_normal_equations((b, l), ridge=0.0)
    np.testing.assert_allclose(y, [3.0, 4.0])
    assert res == pytest.approx(0.0, abs=1e-28)


def test_solve_matches_svd_oracle():
    rng = np.random.default_rng(7)
    b = rng.normal(size=(50, 10))
    l = rng.normal(size=50)
    y, res = solve_normal_equations((b, l))
    y_svd, *_ = np.linalg.lstsq(b, l, rcond=None)
    np.testing.assert_allclose(y, y_svd, rtol=1e-8)
    assert res == pytest.approx(np.sum((b @ y_svd - l) ** 2), rel=1e-10)


def test_solve_zero_matrix_ridge_fixpoint():
    b = np.zeros((4, 3))
    l = np.array([1.0, 2.0, 3.0, 4.0])
    y, res = solve_normal_equations((b, l), ridge=1e-8)
    np.testing.assert_allclose(y, 0.0)
    assert res == pytest.approx(np.sum(l**2))


def test_residual_optimality():
    rng = np.random.default_rng(8)
    b = rng.normal(size=(40, 8))
    l = rng.normal(size=40)
    y, res = solve_normal_equations((b, l), ridge=0.0)
    base = np.linalg.norm(b @ y - l)
    for _ in range(100):
        delta = rng.normal(size=8) * 0.1
        assert np.linalg.norm(b @ (y + delta) - l) >= base - 1e-12


def test_batch_matches_explicit_solve_1d():
    g = geom_1d()
    cfg = NetConfig(1, (6,), 3, 5)
    cache = make_cache(g, cfg, seed=4, n_int=20, theta=1.0)
    rng = np.random.default_rng(9)
    params = rng.uniform(0.5, 10.0, size=(7, 5))
    batch = solve_parameter_batch(cache, params)
    for k in range(7):
        sysk = assemble_system(cache, params[k], None, 1.0)
        y, res = solve_normal_equations(sysk)
        np.testing.assert_allclose(batch.y_nn[k], y, rtol=1e-6, atol=1e-10)
        assert batch.losses[k] == pytest.approx(res, rel=1e-8, abs=1e-14)


def test_batch_matches_explicit_solve_2d_with_singular():
    g = geom_2x2()
    cfg = NetConfig(2, (8,), 2, 4)
    cache = make_cache(g, cfg, seed=11, n_int=14, n_ifc=5, theta=200.0)
    rng = np.random.default_rng(12)
    params = rng.uniform(1.0, 10.0, size=(4, 4))
    sing_per_p = []
    for p in params:
        pairs = solve_eigenpairs(assemble_eigensystem([s[2] for s in angular_trace(g, p, 0)]))
        sel = [select_singular(pairs, 1)]
        sing_per_p.append(singular_evals_from_cache(cache.polar, sel))
    batch = solve_parameter_batch(cache, params, singular_evals_per_p=sing_per_p)
    for k in range(4):
        sysk = assemble_system(cache, params[k], sing_per_p[k], 200.0)
        y, res = solve_normal_equations(sysk)
        n = cache.n_basis
        np.testing.assert_allclose(batch.y_nn[k], y[:n], rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(batch.y_sing[k], y[n:], rtol=1e-5, atol=1e-8)
        assert batch.losses[k] == pytest.approx(res, rel=1e-6)


def test_batch_mixes_singular_column_counts():
    """Parameters with 0, 1, 2 and 4 singular columns share one batch; each
    matches the explicit solve of its own system."""
    g = build_grid_geometry(2, cuts_x=[-0.4, 0.3], cuts_y=[-0.3, 0.4], bounds=[(-1, 1), (-1, 1)])
    cfg = NetConfig(2, (8,), 4, 8)
    theta = 3.0
    cache = make_cache(g, cfg, seed=18, n_int=8, n_ifc=4, theta=theta)
    params = np.full((5, 9), 2.0)  # uniform: no exponent in (0, 1)
    params[1, 0] = 20.0  # a corner cell touches one vertex
    params[2, 1] = 20.0  # an edge cell touches two
    params[3, 4] = 0.2  # the centre cell touches all four
    params[4] = [1.0, 10.0, 1.0, 10.0, 1.0, 10.0, 1.0, 10.0, 1.0]
    sing = [
        singular_evals_from_cache(cache.polar, pairs)
        for pairs in vertex_eigenpairs(g, params, 2)
    ]
    counts = [s.shape[1] for s in sing]
    assert counts[:4] == [0, 1, 2, 4], counts
    batch = solve_parameter_batch(cache, params, singular_evals_per_p=sing)
    n = cache.n_basis
    for k in range(len(params)):
        y, res = solve_normal_equations(assemble_system(cache, params[k], sing[k], theta))
        # tight enough to fail a ridge taken from the padded size (off by 1e-9 here)
        tol = 1e-11 * np.abs(y).max()
        assert batch.y_sing[k].shape == (counts[k],)
        np.testing.assert_allclose(batch.y_nn[k], y[:n], rtol=0, atol=tol)
        np.testing.assert_allclose(batch.y_sing[k], y[n:], rtol=0, atol=tol)
        assert batch.losses[k] == pytest.approx(res, rel=1e-12)


def test_batch_support_rows_match_the_scattered_dense_system():
    """Blocks of 0, 2 and 4 singular columns on the annulus rows: scattered
    to all J1 interior rows they give assemble_system's singular columns,
    and at the batch's coefficients that dense system has the batch's
    losses, and its residuals give the batch's row adjoints."""
    g = build_grid_geometry(2, cuts_x=[-0.4, 0.3], cuts_y=[-0.3, 0.4], bounds=[(-1, 1), (-1, 1)])
    cfg = NetConfig(2, (8,), 4, 8)
    theta = 3.0
    cache = make_cache(g, cfg, seed=19, n_int=10, n_ifc=4, theta=theta)
    params = np.full((3, 9), 2.0)  # uniform: no exponent in (0, 1)
    params[1, 1] = 20.0  # an edge cell touches two vertices
    params[2, 4] = 0.2  # the centre cell touches all four
    sing = [
        singular_evals_from_cache(cache.polar, pairs)
        for pairs in vertex_eigenpairs(g, params, 1)
    ]
    assert [s.shape[1] for s in sing] == [0, 2, 4]
    rows = cache.polar.annulus_rows
    assert 0 < rows.size < cache.quad.n_interior
    batch = solve_parameter_batch(cache, params, singular_evals_per_p=sing, adjoint=True)
    j1, n = cache.quad.n_interior, cache.n_basis
    expected = [np.zeros_like(cache.wlap), np.zeros_like(cache.wtrace_minus)]
    expected.append(np.zeros_like(cache.wtrace_plus))
    atol = 0.0
    for k, p in enumerate(params):
        dense = np.zeros((j1, sing[k].shape[1]))
        dense[rows] = sing[k]
        system = assemble_system(cache, p, sing[k], theta)
        p_int = p[cache.quad.interior_subdomain]
        np.testing.assert_array_equal(
            system.matrix[:j1, n:], (p_int * cache.sqrt_w)[:, None] * dense
        )
        r = system.matrix @ np.concatenate([batch.y_nn[k], batch.y_sing[k]]) - system.rhs
        assert batch.losses[k] == pytest.approx(r @ r, rel=1e-12)
        # the seeds of parameter k: the halved derivatives of its loss in the raw rows
        r_jump = cache.sqrt_theta_w * r[j1:]
        seeds = (
            cache.sqrt_w * p_int * r[:j1],
            -p[cache.ifc_minus_sub] * r_jump,
            p[cache.ifc_plus_sub] * r_jump,
        )
        for total, seed in zip(expected, seeds):
            total += np.outer(seed, batch.y_nn[k])
        # each seed to 1e-12 of its largest residual, carried through y_k
        atol += 1e-12 * np.abs(r).max() * np.abs(batch.y_nn[k]).max()
    for name, total in zip(("bar_lap", "bar_minus", "bar_plus"), expected):
        np.testing.assert_allclose(getattr(batch, name), total, rtol=0, atol=atol, err_msg=name)
    plain = solve_parameter_batch(cache, params, singular_evals_per_p=sing)
    assert (plain.bar_lap, plain.bar_minus, plain.bar_plus) == (None, None, None)
    np.testing.assert_array_equal(plain.losses, batch.losses)


def test_blocked_batch_matches_each_parameter_solved_alone():
    """A batch of 2 BLOCK + 3 parameters runs in three blocks whose largest
    singular counts differ (4, 4 and 1), with mixed counts on both sides of
    each block edge: every parameter's coefficients and loss match its
    own batch of one."""
    g = build_grid_geometry(2, cuts_x=[-0.4, 0.3], cuts_y=[-0.3, 0.4], bounds=[(-1, 1), (-1, 1)])
    cfg = NetConfig(2, (8,), 4, 8)
    theta = 3.0
    cache = make_cache(g, cfg, seed=18, n_int=8, n_ifc=4, theta=theta)
    templates = np.full((5, 9), 2.0)  # uniform: no exponent in (0, 1)
    templates[1, 0] = 20.0  # a corner cell touches one vertex
    templates[2, 1] = 20.0  # an edge cell touches two
    templates[3, 4] = 0.2  # the centre cell touches all four
    templates[4] = [1.0, 10.0, 1.0, 10.0, 1.0, 10.0, 1.0, 10.0, 1.0]
    rng = np.random.default_rng(20)
    kinds = rng.integers(0, 5, size=2 * BLOCK + 3)
    kinds[[BLOCK - 1, BLOCK, 2 * BLOCK - 1]] = [3, 0, 2]
    kinds[2 * BLOCK :] = [1, 0, 1]
    # a common factor per parameter leaves its exponents, and so its count, as they are
    params = templates[kinds] * rng.uniform(0.5, 2.0, size=(kinds.size, 1))
    sing = [
        singular_evals_from_cache(cache.polar, pairs)
        for pairs in vertex_eigenpairs(g, params, 2)
    ]
    counts = np.array([s.shape[1] for s in sing])
    assert counts[BLOCK - 1] != counts[BLOCK] and counts[2 * BLOCK - 1] != counts[2 * BLOCK]
    assert [counts[s : s + BLOCK].max() for s in range(0, kinds.size, BLOCK)] == [4, 4, 1]
    batch = solve_parameter_batch(cache, params, singular_evals_per_p=sing)
    for k in range(kinds.size):
        alone = solve_parameter_batch(cache, params[k : k + 1], singular_evals_per_p=[sing[k]])
        y = np.concatenate([alone.y_nn[0], alone.y_sing[0]])
        tol = 1e-11 * np.abs(y).max()
        assert batch.y_sing[k].shape == (counts[k],)
        np.testing.assert_allclose(batch.y_nn[k], alone.y_nn[0], rtol=0, atol=tol)
        np.testing.assert_allclose(batch.y_sing[k], alone.y_sing[0], rtol=0, atol=tol)
        assert batch.losses[k] == pytest.approx(alone.losses[0], rel=1e-12)


def test_batch_solve_holds_no_normal_matrix_stack():
    """The tracemalloc peak of a solve of 8 BLOCK parameters with the row
    adjoints stays below half the (P, N, N) normal-matrix stack alone: the
    batch is solved one block at a time.  Solving it whole read above 1x."""
    g = geom_1d()
    cache = make_cache(g, NetConfig(1, (8,), 10, 40), seed=4, n_int=20)
    n_p, n = 8 * BLOCK, cache.n_basis
    params = np.random.default_rng(9).uniform(0.5, 10.0, size=(n_p, 5))
    tracemalloc.start()
    try:
        batch = solve_parameter_batch(cache, params, adjoint=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.bar_lap.shape == (cache.quad.n_interior, n)
    assert peak < 0.5 * n_p * n * n * 8


def test_batch_dead_singular_column_is_per_system():
    """Under the default ridge a dead (all-zero) singular column solves to 0,
    and the other parameters of the batch solve as they do alone."""
    g = geom_1d()
    cache = make_cache(g, NetConfig(1, (6,), 3, 5), seed=4, n_int=20)
    params = np.random.default_rng(9).uniform(0.5, 10.0, size=(3, 5))
    dead = np.zeros((cache.polar.annulus_rows.size, 1))
    batch = solve_parameter_batch(cache, params, [None, dead, None])
    alone = solve_parameter_batch(cache, params)
    # cond(A) is about 2e8 here: padding moves y by 1e-8, a ridge of 1e-10 by 4e-5
    for k in (0, 2):
        tol = 1e-6 * np.abs(alone.y_nn[k]).max()
        np.testing.assert_allclose(batch.y_nn[k], alone.y_nn[k], rtol=0, atol=tol)
        assert batch.losses[k] == pytest.approx(alone.losses[k], rel=1e-12)
    assert batch.y_sing[1].tolist() == [0.0]
    assert batch.losses[1] == pytest.approx(alone.losses[1], rel=1e-6)


def test_batch_zero_basis_solves_to_zero():
    """A zero normal matrix has mean diagonal 0; its ridge is RIDGE_REL, so
    the solve gives y = 0 and the loss of the zero candidate."""
    g = geom_1d()
    quad = sample_collocation(g, 6, 1, np.random.default_rng(0))
    lap, trace = np.zeros((quad.n_interior, 3)), np.zeros((quad.n_interface, 3))
    rhs = RhsSpec.for_geometry("sin1d", g)
    cache = build_epoch_cache(g, default_cutoff_config(g), quad, lap, trace, trace, rhs)
    params = np.random.default_rng(1).uniform(0.5, 10.0, size=(2, 5))
    batch = solve_parameter_batch(cache, params)
    assert batch.y_nn.tolist() == [[0.0] * 3] * 2
    for k in range(2):
        l = assemble_system(cache, params[k], None, 1.0).rhs
        assert batch.losses[k] == pytest.approx(l @ l, rel=1e-14)


def test_batch_singular_system_raises_named():
    """With ridge 0 a dead singular column makes its system singular: the
    solve raises and names that system by its index in the whole batch,
    in the first block or a later one, and no ridge is retried."""
    g = geom_1d()
    cache = make_cache(g, NetConfig(1, (6,), 3, 5), seed=4, n_int=20)
    for n_p, bad in ((3, 1), (2 * BLOCK + 3, BLOCK + 5)):
        params = np.random.default_rng(9).uniform(0.5, 10.0, size=(n_p, 5))
        sing = [None] * n_p
        sing[bad] = np.zeros((cache.polar.annulus_rows.size, 1))
        with pytest.raises(SolveError, match=f"system {bad} ") as err:
            solve_parameter_batch(cache, params, sing, ridge=0.0)
        assert err.value.index == bad
        solve_parameter_batch(cache, params, ridge=0.0)  # the live systems alone solve


def test_batch_rejects_singular_block_of_another_length():
    """A singular block must have one row per annulus point; one of shape
    (1, m) is not broadcast over the R rows, and one of J1 rows is not
    read as dense."""
    g = geom_2x2()
    cache = make_cache(g, NetConfig(2, (6,), 1, 2), seed=3, n_int=6, n_ifc=3)
    params = np.random.default_rng(5).uniform(0.5, 10.0, size=(2, 4))
    assert cache.polar.annulus_rows.size > 1
    s = np.random.default_rng(6).normal(size=(cache.polar.annulus_rows.size, 2))
    solve_parameter_batch(cache, params, [s, None])
    dense = np.zeros((cache.quad.n_interior, 2))
    for bad in (s[:1], s[:-1], np.concatenate([s, s]), dense):
        with pytest.raises(ValueError, match="annulus rows"):
            solve_parameter_batch(cache, params, [bad, None])
        with pytest.raises(ValueError, match="annulus rows"):
            assemble_system(cache, params[0], bad, 1.0)


def test_assemble_system_rejects_another_theta():
    cache = make_cache(geom_1d(), NetConfig(1, (4,), 1, 2), theta=2.0)
    with pytest.raises(ValueError, match="theta"):
        assemble_system(cache, np.ones(5), None, 1.0)


@pytest.mark.parametrize("bad", [-3.0, 0.0, np.nan, np.inf])
def test_batch_rejects_nonphysical_row(bad):
    """A row that assemble_system would reject fails the whole batch, named."""
    g = geom_1d()
    cache = make_cache(g, NetConfig(1, (4,), 1, 2))
    params = np.ones((4, 5))
    params[2, 3] = bad
    with pytest.raises(ValueError):
        assemble_system(cache, params[2], None, 1.0)
    with pytest.raises(ValueError, match="row 2"):
        solve_parameter_batch(cache, params)


def test_singular_evals_cache_matches_direct():
    """The cached sources equal the source formula evaluated point by point."""
    g = geom_2x2()
    cfg = NetConfig(2, (5,), 1, 2)
    cache = make_cache(g, cfg, seed=13, n_int=16, n_ifc=4)
    p = np.array([1.0, 10.0, 10.0, 1.0])
    pairs = solve_eigenpairs(assemble_eigensystem([s[2] for s in angular_trace(g, p, 0)]))
    sel = [select_singular(pairs, 2)]
    fast = singular_evals_from_cache(cache.polar, sel)
    cut = cache.cutoff_config
    direct = np.zeros((cache.quad.n_interior, len(sel[0])))
    for j, (x, y) in enumerate(cache.quad.interior_points - g.singular_vertices[0]):
        r = np.hypot(x, y)
        if not cut.delta1 < r < cut.delta2:
            continue
        _, deta, ddeta = eta_jet(r, cut)
        for k, pair in enumerate(sel[0]):
            lam = pair.exponent
            mu, _ = angular_eval(pair, np.arctan2(y, x))
            direct[j, k] = 2 * lam * r ** (lam - 1) * mu * deta + r**lam * mu * (ddeta + deta / r)
    assert np.count_nonzero(direct) > 0
    assert fast.shape == (cache.polar.annulus_rows.size, len(sel[0]))
    dense = np.zeros_like(direct)
    dense[cache.polar.annulus_rows] = fast
    np.testing.assert_allclose(dense, direct, rtol=1e-12, atol=1e-12)


def test_singular_columns_zero_on_jump_rows():
    g = geom_2x2()
    cfg = NetConfig(2, (5,), 1, 2)
    cache = make_cache(g, cfg, seed=14, n_int=10, n_ifc=4, theta=5.0)
    p = np.array([1.0, 8.0, 8.0, 1.0])
    pairs = solve_eigenpairs(assemble_eigensystem([s[2] for s in angular_trace(g, p, 0)]))
    sing = singular_evals_from_cache(cache.polar, [select_singular(pairs, 1)])
    sysk = assemble_system(cache, p, sing, 5.0)
    np.testing.assert_array_equal(
        sysk.matrix[cache.quad.n_interior :, cache.n_basis :], 0.0
    )


def test_manufactured_exact_recovery_1d():
    """Inject per-subdomain sin(5x) indicators: LS recovers 1/p_i exactly."""
    g = geom_1d()
    rhs = RhsSpec.for_geometry("sin1d", g)
    quad = sample_collocation(g, 30, 1, np.random.default_rng(15))
    j1 = quad.n_interior
    n_sub = 5
    lap = np.zeros((j1, n_sub))
    for i in range(n_sub):
        rows = quad.interior_subdomain == i
        x = quad.interior_points[rows, 0]
        lap[rows, i] = -25.0 * np.sin(5 * x)
    # traces: d/dx of chi_i sin(5x) at the interfaces, one-sided
    tr_minus = np.zeros((quad.n_interface, n_sub))
    tr_plus = np.zeros((quad.n_interface, n_sub))
    for k, gamma in enumerate(g.cuts_x):
        tr_minus[k, k] = 5 * np.cos(5 * gamma)  # left column owns the minus side
        tr_plus[k, k + 1] = 5 * np.cos(5 * gamma)
    from transolve.cutoffs import CutoffConfig

    cache = build_epoch_cache(
        g, CutoffConfig(0.1, 0.2), quad, lap, tr_minus, tr_plus, rhs, theta=1.0
    )
    p = np.array([1.0, 4.0, 0.2, 30.0, 49.0])
    sysk = assemble_system(cache, p, None, 1.0)
    y, res = solve_normal_equations(sysk, ridge=0.0)
    np.testing.assert_allclose(y, 1.0 / p, rtol=1e-10)
    scale = np.sum(sysk.rhs**2)
    assert res <= 1e-16 * scale


def test_evaluate_solution_and_exact_recovery():
    rng = np.random.default_rng(16)
    vals = rng.normal(size=(20, 6))
    grads = rng.normal(size=(20, 2, 6))
    y = rng.normal(size=(3, 6))
    u, gu = evaluate_solution(y, vals, grads)
    assert u.shape == (3, 20) and gu.shape == (3, 20, 2)
    for k in range(3):
        np.testing.assert_allclose(u[k], vals @ y[k])
        np.testing.assert_allclose(gu[k], np.einsum("jdn,n->jd", grads, y[k]))
    u0, g0 = evaluate_solution(np.zeros(6), vals, grads)
    np.testing.assert_array_equal(u0, 0)
    with pytest.raises(ValueError):
        evaluate_solution(np.zeros(5), vals, grads)


def test_consistent_system_exact_recovery():
    rng = np.random.default_rng(17)
    b = rng.normal(size=(30, 6))
    y_star = rng.normal(size=6)
    l = b @ y_star
    y, res = solve_normal_equations((b, l), ridge=0.0)
    np.testing.assert_allclose(y, y_star, rtol=1e-9)
    assert res <= 1e-18 * np.sum(l**2)


def test_coefficient_vector_split():
    y = np.arange(10.0)
    cv = CoefficientVector.split(y, 3, 5)
    assert cv.a.tolist() == [0, 1, 2]
    assert cv.b.tolist() == [3, 4, 5, 6, 7]
    assert cv.c.tolist() == [8, 9]
    np.testing.assert_array_equal(cv.stacked, y)
