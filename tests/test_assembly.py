import dataclasses
import tracemalloc

import numpy as np
import pytest

from transolve import assembly
from transolve.assembly import (
    BLOCK,
    CoefficientVector,
    LsSystem,
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
    factor_index,
    interface_trace_factors,
)
from transolve.eigen import angular_eval, assemble_eigensystem, select_singular, solve_eigenpairs
from transolve.geometry import angular_trace, build_grid_geometry, subdomain_index_many
from transolve.nets import NetConfig, forward_jets, init_params
from transolve.reference import RhsSpec
from transolve.sampling import QuadratureSet, sample_collocation
from transolve.singular import singular_evals_from_cache
from transolve.training import vertex_eigenpairs

from conftest import disk_table, geom_1d, geom_2x2, kinked_sin_rows

def raw_rows(geometry, net_cfg, seed=0, n_int=12, n_ifc=6):
    """The interior points' vertex-disk table, quadrature, and the
    unweighted Laplacians, plus-side traces and the sign that gives the
    minus side's."""
    quad = sample_collocation(geometry, n_int, n_ifc, np.random.default_rng(seed))
    params = init_params(net_cfg, seed + 1)
    cols = factor_index(geometry, net_cfg.n1, net_cfg.n2)
    polar = disk_table(quad.interior_points, geometry)
    stack = composition_factors(quad.interior_points, geometry, polar)
    lap = (stack.columns(cols) * forward_jets(params, quad.interior_points)).laplacian
    ifc_axes = np.array([geometry.interfaces[k].axis for k in quad.interface_ids])
    ifc_stack, mask = interface_trace_factors(
        quad.interface_points, ifc_axes, geometry, disk_table(quad.interface_points, geometry)
    )
    ifc_jets = forward_jets(params, quad.interface_points)
    # the normal component of the plus side's gradient; the minus side
    # flips the sign of the outputs whose factor vanishes on the line
    rows = np.arange(quad.n_interface)
    trace = (ifc_stack.columns(cols) * ifc_jets).gradient[rows, :, ifc_axes]
    return polar, quad, lap, trace, np.where(mask[:, cols], -1.0, 1.0)


def make_cache(geometry, net_cfg, seed=0, n_int=12, n_ifc=6, theta=1.0):
    rhs = RhsSpec.for_geometry("sin1d" if geometry.dimension == 1 else "corner2d", geometry)
    rows = raw_rows(geometry, net_cfg, seed, n_int, n_ifc)
    return build_epoch_cache(geometry, *rows, rhs, theta=theta)


def adjoint_arrays(cache, fill=0.0):
    """(bar_lap, bar_trace) of the cache's row shapes, each filled with
    ``fill``: handed to `solve_parameter_batch` as ``out``, they ask for the
    row adjoints."""
    return tuple(np.full(a.shape, fill) for a in (cache.wlap, cache.wtrace))


def filled_slots(pairs_per_p):
    """(P, M) mask of the singular slots that each parameter's pairs fill:
    vertex-major, as many slots per vertex as the most pairs any parameter
    has there, a parameter's pairs in the first of them."""
    n_v = len(pairs_per_p[0])
    most = [max(len(pairs[v]) for pairs in pairs_per_p) for v in range(n_v)]
    return np.array([
        np.concatenate([np.arange(m) < len(pairs[v]) for v, m in enumerate(most)])
        for pairs in pairs_per_p
    ]).reshape(len(pairs_per_p), sum(most))


def test_cache_shapes_toy():
    g = build_grid_geometry(1, cuts_x=[0.5], bounds=[(0, 1)])
    cfg = NetConfig(1, (3,), 1, 1)
    cache = make_cache(g, cfg, n_int=3, n_ifc=1)
    assert cache.wlap.shape == (6, 2)  # 3 per subdomain
    assert cache.wtrace.shape == (1, 2)
    assert cache.sign.shape == (1, 2)


def test_cache_deterministic():
    g = geom_1d()
    cfg = NetConfig(1, (4,), 2, 3)
    c1 = make_cache(g, cfg, seed=5)
    c2 = make_cache(g, cfg, seed=5)
    np.testing.assert_array_equal(c1.wlap, c2.wlap)
    np.testing.assert_array_equal(c1.wtrace, c2.wtrace)
    np.testing.assert_array_equal(c1.sign, c2.sign)


def test_direct_assembly_equals_cache_based():
    """The cache-based matrix equals a pointwise direct assembly, whose
    jump rows take each side's trace apart, to 4 ulp."""
    g = geom_1d()
    cfg = NetConfig(1, (5,), 2, 4)
    rows = raw_rows(g, cfg, seed=2)
    polar, quad, lap, tr_plus, sign = rows
    tr_minus = sign * tr_plus
    theta = 1.0
    # the cache weights its Laplacian in place: the oracle below reads the raw one
    cache = build_epoch_cache(
        g, polar, quad, lap.copy(), tr_plus, sign, RhsSpec.for_geometry("sin1d", g), theta=theta
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


def test_solve_identity_system(monkeypatch):
    monkeypatch.setattr(assembly, "RIDGE_REL", 0.0)
    b = np.eye(2)
    l = np.array([3.0, 4.0])
    y, res = solve_normal_equations(LsSystem(b, l))
    np.testing.assert_allclose(y, [3.0, 4.0])
    assert res == pytest.approx(0.0, abs=1e-28)


def test_solve_matches_svd_oracle():
    rng = np.random.default_rng(7)
    b = rng.normal(size=(50, 10))
    l = rng.normal(size=50)
    y, res = solve_normal_equations(LsSystem(b, l))
    y_svd, *_ = np.linalg.lstsq(b, l, rcond=None)
    np.testing.assert_allclose(y, y_svd, rtol=1e-8)
    assert res == pytest.approx(np.sum((b @ y_svd - l) ** 2), rel=1e-10)


def test_solve_zero_matrix_ridge_fixpoint():
    """A zero normal matrix has mean diagonal 0; its ridge is RIDGE_REL, as
    in the batch, so the solve gives y = 0 and the loss of the zero
    candidate."""
    b = np.zeros((4, 3))
    l = np.array([1.0, 2.0, 3.0, 4.0])
    y, res = solve_normal_equations(LsSystem(b, l))
    np.testing.assert_allclose(y, 0.0)
    assert res == pytest.approx(np.sum(l**2))


def test_solve_raises_on_a_singular_system_without_retry(monkeypatch):
    """Under ridge 0 a matrix of repeated columns, whose diagonal is not
    zero, is not positive definite: the one Cholesky solve raises
    SolveError, and no larger ridge is tried."""
    monkeypatch.setattr(assembly, "RIDGE_REL", 0.0)
    b = np.ones((4, 3))
    with pytest.raises(SolveError, match="system 0 is not positive definite"):
        solve_normal_equations(LsSystem(b, np.ones(4)))


def test_residual_optimality(monkeypatch):
    monkeypatch.setattr(assembly, "RIDGE_REL", 0.0)
    rng = np.random.default_rng(8)
    b = rng.normal(size=(40, 8))
    l = rng.normal(size=40)
    y, res = solve_normal_equations(LsSystem(b, l))
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
    sel = []
    for p in params:
        pairs = solve_eigenpairs(assemble_eigensystem([s[2] for s in angular_trace(g, p, 0)]))
        sel.append([select_singular(pairs, 1)])
    sing = singular_evals_from_cache(cache.polar, sel)
    batch = solve_parameter_batch(cache, params, singular_evals_per_p=sing)
    assert batch.y_sing.shape == (4, 1)
    for k in range(4):
        sysk = assemble_system(cache, params[k], sing[k], 200.0)
        y, res = solve_normal_equations(sysk)
        n = cache.n_basis
        np.testing.assert_allclose(batch.y_nn[k], y[:n], rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(batch.y_sing[k], y[n:], rtol=1e-5, atol=1e-8)
        assert batch.losses[k] == pytest.approx(res, rel=1e-6)


def test_batch_mixes_singular_column_counts():
    """Parameters with 0, 1, 2 and 4 filled singular slots share one batch;
    each matches the explicit solve of its own system, built from its
    filled columns alone, and its empty slots solve to exactly 0."""
    g = build_grid_geometry(2, cuts_x=[-0.4, 0.3], cuts_y=[-0.3, 0.4], bounds=[(-1, 1), (-1, 1)])
    cfg = NetConfig(2, (8,), 4, 8)
    theta = 3.0
    cache = make_cache(g, cfg, seed=18, n_int=8, n_ifc=4, theta=theta)
    params = np.full((5, 9), 2.0)  # uniform: no exponent in (0, 1)
    params[1, 0] = 20.0  # a corner cell touches one vertex
    params[2, 1] = 20.0  # an edge cell touches two
    params[3, 4] = 0.2  # the centre cell touches all four
    params[4] = [1.0, 10.0, 1.0, 10.0, 1.0, 10.0, 1.0, 10.0, 1.0]
    pairs_per_p = vertex_eigenpairs(g, params, 2)
    sing = singular_evals_from_cache(cache.polar, pairs_per_p)
    filled = filled_slots(pairs_per_p)
    assert filled.sum(axis=1)[:4].tolist() == [0, 1, 2, 4]
    assert not np.any(sing.transpose(0, 2, 1)[~filled])  # empty slots are zero columns
    batch = solve_parameter_batch(cache, params, singular_evals_per_p=sing)
    assert batch.y_sing.shape == sing.shape[::2]
    n = cache.n_basis
    for k in range(len(params)):
        own = sing[k][:, filled[k]]
        y, res = solve_normal_equations(assemble_system(cache, params[k], own, theta))
        # tight enough to fail a ridge that counts the empty slots (off by 1e-9 here)
        tol = 1e-11 * np.abs(y).max()
        np.testing.assert_allclose(batch.y_nn[k], y[:n], rtol=0, atol=tol)
        np.testing.assert_allclose(batch.y_sing[k, filled[k]], y[n:], rtol=0, atol=tol)
        assert batch.y_sing[k, ~filled[k]].tolist() == [0.0] * int(np.sum(~filled[k]))
        assert batch.losses[k] == pytest.approx(res, rel=1e-12)


def test_batch_support_rows_match_the_scattered_dense_system():
    """Rows of 0, 2 and 4 filled singular slots on the annulus rows: scattered
    to all J1 interior rows they give assemble_system's singular columns,
    and at the batch's coefficients that dense system has the batch's
    losses, and its residuals give the batch's row adjoints, written into
    the arrays the caller hands in whatever they held.  The trace's adjoint
    is the two sides' adjoints, summed over the batch apart and then
    folded through the sign.  The result carries no adjoint."""
    g = build_grid_geometry(2, cuts_x=[-0.4, 0.3], cuts_y=[-0.3, 0.4], bounds=[(-1, 1), (-1, 1)])
    cfg = NetConfig(2, (8,), 4, 8)
    theta = 3.0
    cache = make_cache(g, cfg, seed=19, n_int=10, n_ifc=4, theta=theta)
    params = np.full((3, 9), 2.0)  # uniform: no exponent in (0, 1)
    params[1, 1] = 20.0  # an edge cell touches two vertices
    params[2, 4] = 0.2  # the centre cell touches all four
    pairs_per_p = vertex_eigenpairs(g, params, 1)
    sing = singular_evals_from_cache(cache.polar, pairs_per_p)
    assert filled_slots(pairs_per_p).sum(axis=1).tolist() == [0, 2, 4]
    rows = cache.polar.annulus_rows
    assert 0 < rows.size < cache.quad.n_interior
    out = adjoint_arrays(cache)
    batch = solve_parameter_batch(cache, params, singular_evals_per_p=sing, out=out)
    j1, n = cache.quad.n_interior, cache.n_basis
    expected = [np.zeros_like(cache.wlap), np.zeros_like(cache.wtrace), np.zeros_like(cache.wtrace)]
    atol = 0.0
    for k, p in enumerate(params):
        dense = np.zeros((j1, sing.shape[2]))
        dense[rows] = sing[k]
        system = assemble_system(cache, p, sing[k], theta)
        p_int = p[cache.quad.interior_subdomain]
        np.testing.assert_array_equal(
            system.matrix[:j1, n:], (p_int * cache.sqrt_w)[:, None] * dense
        )
        r = system.matrix @ np.concatenate([batch.y_nn[k], batch.y_sing[k]]) - system.rhs
        assert batch.losses[k] == pytest.approx(r @ r, rel=1e-12)
        # the seeds of parameter k: the halved derivatives of its loss in
        # the raw rows, the Laplacians' and each trace side's
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
    bar_lap, bar_minus, bar_plus = expected
    folded = bar_plus + cache.sign * bar_minus
    for name, got, total in (("bar_lap", out[0], bar_lap), ("bar_trace", out[1], folded)):
        np.testing.assert_allclose(got, total, rtol=0, atol=atol, err_msg=name)
    assert [f.name for f in dataclasses.fields(batch)] == ["y_nn", "y_sing", "losses"]
    plain = solve_parameter_batch(cache, params, singular_evals_per_p=sing)
    np.testing.assert_array_equal(plain.losses, batch.losses)
    # adjoint arrays handed in are zeroed and written, whatever they held
    into = adjoint_arrays(cache, np.nan)
    solve_parameter_batch(cache, params, singular_evals_per_p=sing, out=into)
    for name, array, want in zip(("bar_lap", "bar_trace"), into, out):
        np.testing.assert_array_equal(array, want, err_msg=name)
    with pytest.raises(ValueError, match="adjoint arrays of shapes"):
        solve_parameter_batch(cache, params, sing, out=(out[0], out[0]))


def test_blocked_batch_matches_each_parameter_solved_alone():
    """A batch of 2 BLOCK + 3 parameters runs in three blocks whose largest
    filled-slot counts differ (4, 4 and 1), with mixed counts on both sides
    of each block edge: every parameter's coefficients and loss match its
    own batch of one, which has only its own filled slots."""
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
    pairs_per_p = vertex_eigenpairs(g, params, 2)
    sing = singular_evals_from_cache(cache.polar, pairs_per_p)
    filled = filled_slots(pairs_per_p)
    counts = filled.sum(axis=1)
    assert counts[BLOCK - 1] != counts[BLOCK] and counts[2 * BLOCK - 1] != counts[2 * BLOCK]
    assert [counts[s : s + BLOCK].max() for s in range(0, kinds.size, BLOCK)] == [4, 4, 1]
    batch = solve_parameter_batch(cache, params, singular_evals_per_p=sing)
    for k in range(kinds.size):
        own = singular_evals_from_cache(cache.polar, pairs_per_p[k : k + 1])
        assert own.shape[2] == counts[k]
        alone = solve_parameter_batch(cache, params[k : k + 1], singular_evals_per_p=own)
        y = np.concatenate([alone.y_nn[0], alone.y_sing[0]])
        tol = 1e-11 * np.abs(y).max()
        np.testing.assert_allclose(batch.y_nn[k], alone.y_nn[0], rtol=0, atol=tol)
        np.testing.assert_allclose(batch.y_sing[k, filled[k]], alone.y_sing[0], rtol=0, atol=tol)
        assert not np.any(batch.y_sing[k, ~filled[k]])
        assert batch.losses[k] == pytest.approx(alone.losses[0], rel=1e-12)


def test_batch_solve_holds_no_normal_matrix_stack():
    """The tracemalloc peak of a solve of 8 BLOCK parameters with the row
    adjoints stays below half the (P, N, N) normal-matrix stack alone: the
    batch is solved one block at a time.  Solving it whole read above 1x."""
    g = geom_1d()
    cache = make_cache(g, NetConfig(1, (8,), 10, 40), seed=4, n_int=20)
    n_p, n = 8 * BLOCK, cache.n_basis
    params = np.random.default_rng(9).uniform(0.5, 10.0, size=(n_p, 5))
    out = adjoint_arrays(cache)
    tracemalloc.start()
    try:
        solve_parameter_batch(cache, params, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.any(a != 0) for a in out)
    assert peak < 0.5 * n_p * n * n * 8


def test_batch_dead_singular_column_is_per_system():
    """Under the default ridge a dead (all-zero) singular column solves to 0,
    and every parameter of the batch solves as it does without it: the
    dead column is left out of the mean that sets the ridge."""
    g = geom_1d()
    cache = make_cache(g, NetConfig(1, (6,), 3, 5), seed=4, n_int=20)
    params = np.random.default_rng(9).uniform(0.5, 10.0, size=(3, 5))
    dead = np.zeros((3, cache.polar.annulus_rows.size, 1))
    batch = solve_parameter_batch(cache, params, dead)
    alone = solve_parameter_batch(cache, params)
    # cond(A) is about 2e8 here: a ridge of 1e-10 moves y by 4e-5
    for k in range(3):
        tol = 1e-6 * np.abs(alone.y_nn[k]).max()
        np.testing.assert_allclose(batch.y_nn[k], alone.y_nn[k], rtol=0, atol=tol)
        assert batch.losses[k] == pytest.approx(alone.losses[k], rel=1e-12)
    assert batch.y_sing.tolist() == [[0.0]] * 3


def test_batch_zero_basis_solves_to_zero():
    """Every column of a zero normal matrix is dead: each gets a unit
    diagonal, so the solve gives y = 0 and the loss of the zero
    candidate."""
    g = geom_1d()
    quad = sample_collocation(g, 6, 1, np.random.default_rng(0))
    lap, trace = np.zeros((quad.n_interior, 3)), np.zeros((quad.n_interface, 3))
    rhs = RhsSpec.for_geometry("sin1d", g)
    cache = build_epoch_cache(g, disk_table(quad.interior_points, g), quad, lap, trace,
                              np.ones_like(trace), rhs)
    params = np.random.default_rng(1).uniform(0.5, 10.0, size=(2, 5))
    batch = solve_parameter_batch(cache, params)
    assert batch.y_nn.tolist() == [[0.0] * 3] * 2
    for k in range(2):
        l = assemble_system(cache, params[k], None, 1.0).rhs
        assert batch.losses[k] == pytest.approx(l @ l, rel=1e-14)


def exact_cache():
    """A cache on the 2x2 layout whose arithmetic is exact: one interior
    point of unit weight in each cell, off the vertex's disk, where network
    column i's Laplacian is 1 in cell i and 0 elsewhere, then one point on
    the annulus, where every network column is 0; no interface point.  A
    system's network block is diag(p_i^2), its border is zero, and its
    singular block is the product of the annulus row's weighted sources."""
    g = geom_2x2()
    points = np.array([[-0.5, -0.5], [0.5, -0.5], [-0.5, 0.5], [0.5, 0.5], [0.25, 0.1]])
    sub = subdomain_index_many(g, points)
    quad = QuadratureSet(points, np.ones(5), sub, np.zeros((0, 2)), np.zeros(0),
                         np.zeros(0, dtype=int))
    lap = np.zeros((5, 4))
    lap[np.arange(4), sub[:4]] = 1.0
    trace = np.zeros((0, 4))
    cache = build_epoch_cache(g, disk_table(quad.interior_points, g), quad, lap, trace, trace,
                              RhsSpec.for_geometry("corner2d", g))
    assert cache.polar.annulus_rows.tolist() == [4]
    return cache


def test_batch_singular_system_raises_named(monkeypatch):
    """With ridge 0, two equal singular columns make their system singular:
    the solve raises and names that system by its index in the whole
    batch, in the first block or a later one, and no ridge is retried.
    The other systems' slots are empty, which does not make them
    singular.  With p = 2 the equal columns' block is 4 times ones, whose
    second Cholesky pivot is 4 - 2^2 = 0 exactly, on any BLAS."""
    monkeypatch.setattr(assembly, "RIDGE_REL", 0.0)
    cache = exact_cache()
    for n_p, bad in ((3, 1), (2 * BLOCK + 3, BLOCK + 5)):
        params = np.full((n_p, 4), 2.0)
        sing = np.zeros((n_p, 1, 2))
        sing[bad] = 1.0
        with pytest.raises(SolveError, match=f"system {bad} ") as err:
            solve_parameter_batch(cache, params, sing)
        assert err.value.index == bad
        sing[bad, :, 1] = 0.0
        solve_parameter_batch(cache, params, sing)  # a system of distinct columns solves


def test_batch_rejects_singular_block_of_another_length():
    """The singular block must be one (P, R, M) array, one row per
    parameter and R per annulus point: one of shape (P, 1, M) is not
    broadcast over the R rows, one of J1 rows is not read as dense, and
    neither a list of per-parameter blocks nor one block for the batch is
    taken.  A parameter's (R, M) row must match the annulus rows in
    `assemble_system` too."""
    g = geom_2x2()
    cache = make_cache(g, NetConfig(2, (6,), 1, 2), seed=3, n_int=6, n_ifc=3)
    params = np.random.default_rng(5).uniform(0.5, 10.0, size=(2, 4))
    assert cache.polar.annulus_rows.size > 1
    s = np.random.default_rng(6).normal(size=(2, cache.polar.annulus_rows.size, 2))
    solve_parameter_batch(cache, params, s)
    dense = np.zeros((2, cache.quad.n_interior, 2))
    for bad in (s[:, :1], s[:, :-1], np.concatenate([s, s], axis=1), dense, s[:1], s[0], list(s)):
        with pytest.raises(ValueError, match="annulus rows"):
            solve_parameter_batch(cache, params, bad)
    for bad in (s[0, :1], s[0, :-1], dense[0]):
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
    (fast,) = singular_evals_from_cache(cache.polar, [sel])
    cut = default_cutoff_config(g)
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
    (sing,) = singular_evals_from_cache(cache.polar, [[select_singular(pairs, 1)]])
    sysk = assemble_system(cache, p, sing, 5.0)
    np.testing.assert_array_equal(
        sysk.matrix[cache.quad.n_interior :, cache.n_basis :], 0.0
    )


def test_manufactured_exact_recovery_1d(monkeypatch):
    """Inject columns sin(5x) s_j(x) that kink at the cuts (`kinked_sin_rows`):
    LS recovers sin(5x) / p_i on each subdomain i exactly."""
    monkeypatch.setattr(assembly, "RIDGE_REL", 0.0)
    g = geom_1d()
    rhs = RhsSpec.for_geometry("sin1d", g)
    quad = sample_collocation(g, 30, 1, np.random.default_rng(15))
    signs, lap, trace, sign = kinked_sin_rows(g, quad)
    cache = build_epoch_cache(g, disk_table(quad.interior_points, g), quad, lap, trace, sign, rhs,
                              theta=1.0)
    p = np.array([1.0, 4.0, 0.2, 30.0, 49.0])
    sysk = assemble_system(cache, p, None, 1.0)
    y, res = solve_normal_equations(sysk)
    np.testing.assert_allclose(signs @ y, 1.0 / p, rtol=1e-10)
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


def test_consistent_system_exact_recovery(monkeypatch):
    monkeypatch.setattr(assembly, "RIDGE_REL", 0.0)
    rng = np.random.default_rng(17)
    b = rng.normal(size=(30, 6))
    y_star = rng.normal(size=6)
    l = b @ y_star
    y, res = solve_normal_equations(LsSystem(b, l))
    np.testing.assert_allclose(y, y_star, rtol=1e-9)
    assert res <= 1e-18 * np.sum(l**2)


def test_coefficient_vector_split():
    y = np.arange(10.0)
    cv = CoefficientVector.split(y, 3, 5)
    assert cv.a.tolist() == [0, 1, 2]
    assert cv.b.tolist() == [3, 4, 5, 6, 7]
    assert cv.c.tolist() == [8, 9]
    np.testing.assert_array_equal(cv.stacked, y)


def test_sign_runs_list_each_run_of_equal_rows():
    """`_sign_runs` gives each run of consecutive equal sign rows once,
    with its row and slice, in order; no interface row, no run."""
    a, b = np.array([1.0, -1.0]), np.array([-1.0, -1.0])
    sign = np.array([a, a, b, a, a, a])
    runs = assembly._sign_runs(sign)
    assert [(list(row), rows) for row, rows in runs] == [
        (list(a), slice(0, 2)), (list(b), slice(2, 3)), (list(a), slice(3, 6))
    ]
    assert assembly._sign_runs(np.ones((0, 2))) == ()


def test_minus_side_through_the_sign_runs_equals_the_dense_sign():
    """On the 1D layout, whose kinked columns flip sign per interface, the
    batched losses and trace adjoints equal those formed through the dense
    (J2, N) sign, to rounding."""
    rng = np.random.default_rng(5)
    g = geom_1d()
    quad = sample_collocation(g, 12, 3, rng)
    _, lap, trace, sign = kinked_sin_rows(g, quad)
    lap = lap + 0.1 * rng.standard_normal(lap.shape)
    trace = trace + 0.1 * rng.standard_normal(trace.shape)
    cache = build_epoch_cache(g, disk_table(quad.interior_points, g), quad, lap, trace, sign,
                              RhsSpec.for_geometry("sin1d", g))
    assert len(cache.sign_runs) > 1
    parameters = rng.uniform(0.5, 5.0, size=(6, g.n_subdomains))
    out = (np.empty_like(cache.wlap), np.empty_like(cache.wtrace))
    batch = solve_parameter_batch(cache, parameters, out=out)
    y = batch.y_nn
    p_plus, p_minus = parameters.T[cache.ifc_plus_sub], parameters.T[cache.ifc_minus_sub]
    r_jump = p_plus * (cache.wtrace @ y.T) - p_minus * ((cache.sign * cache.wtrace) @ y.T)
    p_int = parameters.T[quad.interior_subdomain]
    r_int = p_int * (cache.wlap @ y.T + cache.wrhs_p[:, None]) + cache.wrhs_fixed[:, None]
    np.testing.assert_allclose(batch.losses, np.sum(r_int**2, 0) + np.sum(r_jump**2, 0),
                               rtol=1e-12)
    seeds = cache.sqrt_theta_w[:, None] * r_jump
    bar_trace = (p_plus * seeds) @ y - cache.sign * ((p_minus * seeds) @ y)
    np.testing.assert_allclose(out[1], bar_trace, rtol=1e-10, atol=1e-12 * np.abs(bar_trace).max())
