"""The offline/online split of queries: `QueryBasis` and the basis
`final_solve` holds between calls."""

import gc
import weakref

import numpy as np
import pytest

from transolve.cutoffs import CutoffConfig, default_cutoff_config
from transolve.geometry import build_grid_geometry
from transolve.nets import NetConfig, init_params
from transolve.reference import RhsSpec
from transolve.sampling import sample_parameters
from transolve.training import QueryBasis, final_solve, query_basis

RTOL = 1e-12
# The coefficients solve normal equations whose condition number is about
# 2.5e5 on this basis (cond(B) about 500), so rounding differences between
# a batch's GEMMs and a single row's move them by up to cond * eps, 5e-11;
# measured 3e-12.  The fields and residuals are not amplified.
COEF_RTOL = 1e-10
N_SINGULAR = 2
GRID = 24


def problem():
    g = build_grid_geometry(2, cuts_x=[0.0], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])
    rhs = RhsSpec.for_geometry("corner2d", g)
    return g, rhs, default_cutoff_config(g), init_params(NetConfig(2, (10, 10), 4, 8), 5)


def assert_close(got, want, name, rtol=RTOL):
    """Equal to ``rtol`` relative to the largest entry of ``want``."""
    np.testing.assert_allclose(got, want, rtol=0, atol=rtol * np.abs(want).max(), err_msg=name)


def assert_same_query(got, want):
    (c_got, f_got), (c_want, f_want) = got, want
    for key in ("values", "gradients", "flux"):
        assert_close(f_got[key], f_want[key], key)
    assert_close(c_got.stacked, c_want.stacked, "coefficients", COEF_RTOL)
    for key in ("residual_sq", "rel_residual"):
        assert f_got[key] == pytest.approx(f_want[key], rel=RTOL), key


def assert_identical_query(got, want):
    (c_got, f_got), (c_want, f_want) = got, want
    for key in ("values", "gradients", "flux"):
        np.testing.assert_array_equal(f_got[key], f_want[key], err_msg=key)
    np.testing.assert_array_equal(c_got.stacked, c_want.stacked)
    for key in ("residual_sq", "rel_residual"):
        assert f_got[key] == f_want[key], key


def test_batch_solve_matches_single_solves_on_fresh_bases():
    g, rhs, cut, params = problem()
    parameters = sample_parameters(np.random.default_rng(3), 4, g.n_subdomains, 0.1, 10.0)
    parameters[1] = 2.0  # constant p: fewer singular columns than the other rows
    batch = QueryBasis.build(params, g, rhs, cut, 2.0, GRID).solve(parameters, N_SINGULAR)
    assert len(batch) == 4
    assert len({c.c.size for c, _ in batch}) > 1
    for k in range(4):
        basis = QueryBasis.build(params, g, rhs, cut, 2.0, GRID)
        single = basis.solve(parameters[k : k + 1], N_SINGULAR)
        assert len(single) == 1
        assert_same_query(batch[k], single[0])


def test_reused_final_solve_is_bit_identical_to_a_rebuild():
    g, rhs, cut, params = problem()
    p = np.array([1.0, 10.0, 10.0, 1.0])
    first = final_solve(params, g, p, rhs, cut, 1.0, GRID, n_singular=N_SINGULAR)
    held = query_basis(params, g, rhs, cut, 1.0, GRID)
    again = final_solve(params, g, p, rhs, cut, 1.0, GRID, n_singular=N_SINGULAR)
    assert query_basis(params, g, rhs, cut, 1.0, GRID) is held
    fresh = QueryBasis.build(params, g, rhs, cut, 1.0, GRID).solve(p[None, :], N_SINGULAR)[0]
    assert fresh[0].c.size > 0
    assert_identical_query(first, fresh)
    assert_identical_query(again, fresh)


def _weight_edited_in_place(g, rhs, cut, params):
    params.layers[0][0][0, 0] += 0.25
    return params, g, rhs, cut, 1.0, GRID


CHANGES = {
    "weight in place": _weight_edited_in_place,
    "grid": lambda g, rhs, cut, params: (params, g, rhs, cut, 1.0, GRID + 2),
    "theta": lambda g, rhs, cut, params: (params, g, rhs, cut, 3.0, GRID),
    "rhs": lambda g, rhs, cut, params: (
        params, g, RhsSpec("corner2d", g.singular_vertices + 0.1), cut, 1.0, GRID),
    "cutoff": lambda g, rhs, cut, params: (
        params, g, rhs, CutoffConfig(0.8 * cut.delta1, 0.9 * cut.delta2), 1.0, GRID),
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_a_changed_input_rebuilds_the_basis(change):
    g, rhs, cut, params = problem()
    p = np.array([1.0, 10.0, 10.0, 1.0])
    before = final_solve(params, g, p, rhs, cut, 1.0, GRID, n_singular=N_SINGULAR)
    old = weakref.ref(query_basis(params, g, rhs, cut, 1.0, GRID))
    args = CHANGES[change](g, rhs, cut, params)
    params_, g_, rhs_, cut_, theta, grid = args
    after = final_solve(params_, g_, p, rhs_, cut_, theta, grid, n_singular=N_SINGULAR)
    assert query_basis(*args) is not old()
    fresh = QueryBasis.build(*args).solve(p[None, :], N_SINGULAR)[0]
    assert_same_query(after, fresh)
    if grid == GRID:
        assert not np.allclose(after[1]["values"], before[1]["values"], rtol=1e-6, atol=0)


def test_the_held_basis_dies_with_its_weights():
    g, rhs, cut, params = problem()
    final_solve(params, g, np.ones(g.n_subdomains), rhs, cut, 1.0, GRID)
    held = weakref.ref(query_basis(params, g, rhs, cut, 1.0, GRID))
    assert held() is not None
    del params
    gc.collect()
    assert held() is None


def test_writing_into_returned_fields_cannot_change_a_later_query():
    g, rhs, cut, params = problem()
    p = np.array([1.0, 10.0, 10.0, 1.0])
    coeffs, fields = final_solve(params, g, p, rhs, cut, 1.0, GRID, n_singular=N_SINGULAR)
    kept = {key: fields[key].copy() for key in ("values", "gradients", "flux")}
    kept_y = coeffs.stacked.copy()
    for key in kept:
        fields[key][...] = 0.0
    coeffs.a[...] = 0.0
    with pytest.raises(ValueError):
        fields["quad"].interior_weights[0] = 0.0
    coeffs, fields = final_solve(params, g, p, rhs, cut, 1.0, GRID, n_singular=N_SINGULAR)
    for key, value in kept.items():
        np.testing.assert_array_equal(fields[key], value)
    np.testing.assert_array_equal(coeffs.stacked, kept_y)
