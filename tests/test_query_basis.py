"""The offline/online split of queries: `QueryBasis` and the basis
`final_solve` holds between calls."""

import dataclasses
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from transolve import training
from transolve.assembly import build_epoch_cache, evaluate_solution
from transolve.cutoffs import (
    CutoffConfig,
    composition_factors,
    default_cutoff_config,
    eta_jet,
    factor_index,
    interface_trace_factors,
)
from transolve.eigen import angular_eval
from transolve.geometry import ParameterError, build_grid_geometry
from transolve.nets import TILE, NetConfig, PassWeights, forward_jets, init_params
from transolve.reference import RhsSpec
from transolve.sampling import sample_parameters
from transolve.singular import eval_s, polar_cache
from transolve.training import (
    QueryBasis,
    TrainConfig,
    final_solve,
    init_train_state,
    run_epoch,
    vertex_eigenpairs,
)

from conftest import dense_sign, geom_1d, geom_2x2, geom_3x3, interior_rows

RTOL = 1e-12
N_SINGULAR = 2
GRID = 24


def problem():
    g = geom_2x2()
    rhs = RhsSpec.for_geometry("corner2d", g)
    return g, rhs, default_cutoff_config(g), init_params(NetConfig(2, (10, 10), 4, 8), 5)


def assert_close(got, want, name, rtol=RTOL):
    """Equal to ``rtol`` relative to the largest entry of ``want``."""
    np.testing.assert_allclose(got, want, rtol=0, atol=rtol * np.abs(want).max(), err_msg=name)


def assert_identical_query(got, want):
    (c_got, f_got), (c_want, f_want) = got, want
    for key in ("values", "gradients", "flux"):
        np.testing.assert_array_equal(f_got[key], f_want[key], err_msg=key)
    np.testing.assert_array_equal(c_got.stacked, c_want.stacked)
    for key in ("residual_sq", "rel_residual"):
        assert f_got[key] == f_want[key], key


class Builds(list):
    """Weak references to the bases `QueryBasis.build` made, in order, and
    for each build whether a basis an earlier one made was still alive when
    it started."""

    def __init__(self):
        super().__init__()
        self.overlapped = []


@pytest.fixture
def builds(monkeypatch):
    """Observes every `QueryBasis.build` call through a counting wrapper."""
    build = QueryBasis.build.__func__
    made = Builds()

    def counting_build(cls, *args, **kwargs):
        made.overlapped.append(any(ref() is not None for ref in made))
        basis = build(cls, *args, **kwargs)
        made.append(weakref.ref(basis))
        return basis

    monkeypatch.setattr(QueryBasis, "build", classmethod(counting_build))
    return made


def test_successive_solves_on_one_basis_match_fresh_bases():
    """A solve leaves its basis as it found it: each of several solves on
    one basis equals the same solve on a basis of its own."""
    g, rhs, cut, params = problem()
    parameters = sample_parameters(np.random.default_rng(3), 4, g.n_subdomains, 0.1, 10.0)
    parameters[1] = 2.0  # constant p: fewer singular columns than the other rows
    basis = QueryBasis.build(params, g, rhs, cut, 2.0, GRID)
    reused = [basis.solve(p, N_SINGULAR) for p in parameters]
    assert len({c.c.size for c, _ in reused}) > 1
    for p, got in zip(parameters, reused):
        fresh = QueryBasis.build(params, g, rhs, cut, 2.0, GRID).solve(p, N_SINGULAR)
        assert_identical_query(got, fresh)


def test_query_fields_equal_the_dense_singular_sum():
    """The singular fields, added on the disk rows, equal the network fields
    plus a dense S y_sing: S holds r^L mu(theta) eta(r) at every grid point,
    and the gradients are eval_s scattered to the grid."""
    g, rhs, cut, params = problem()
    p = np.array([1.0, 10.0, 10.0, 1.0])
    basis = QueryBasis.build(params, g, rhs, cut, 2.0, GRID)
    coeffs, fields = basis.solve(p, N_SINGULAR)
    pairs = vertex_eigenpairs(g, p[None, :], N_SINGULAR)[0]
    assert coeffs.c.size == len(pairs[0]) > 0
    polar = basis.cache.polar
    points = basis.cache.quad.interior_points
    rel = points - g.singular_vertices[0]
    r = np.hypot(rel[:, 0], rel[:, 1])
    assert polar.annulus_rows.size < polar.disk_rows.size < len(points)
    dense = np.stack(
        [r**pair.exponent * angular_eval(pair, np.arctan2(rel[:, 1], rel[:, 0]))[0]
         for pair in pairs[0]], axis=1,
    ) * eta_jet(r, cut)[0][:, None]
    dense_grads = np.zeros((len(points), 2, coeffs.c.size))
    dense_grads[polar.disk_rows] = eval_s(polar, pairs)[1]
    y_nn = np.concatenate([coeffs.a, coeffs.b])
    u, grad_u = evaluate_solution(y_nn, basis.values, basis.gradients)
    assert_close(fields["values"], u[0] + dense @ coeffs.c, "values")
    assert_close(
        fields["gradients"], grad_u[0] + dense_grads @ coeffs.c, "gradients"
    )


def test_repeated_final_solves_build_once(builds):
    g, rhs, cut, params = problem()
    for p in ([1.0, 10.0, 10.0, 1.0], [2.0, 1.0, 3.0, 1.0], [1.0, 10.0, 10.0, 1.0]):
        final_solve(params, g, np.array(p), rhs, cut, 1.0, GRID, n_singular=N_SINGULAR)
    assert builds.overlapped == [False]
    assert builds[0]() is not None


def test_reused_final_solve_is_bit_identical_to_a_rebuild(builds):
    g, rhs, cut, params = problem()
    p = np.array([1.0, 10.0, 10.0, 1.0])
    first = final_solve(params, g, p, rhs, cut, 1.0, GRID, n_singular=N_SINGULAR)
    again = final_solve(params, g, p, rhs, cut, 1.0, GRID, n_singular=N_SINGULAR)
    assert len(builds) == 1
    fresh = QueryBasis.build(params, g, rhs, cut, 1.0, GRID).solve(p, N_SINGULAR)
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
def test_a_changed_input_rebuilds_the_basis(change, builds):
    """A changed input rebuilds the basis, and the old one is dropped
    before the build, so that two bases never coexist."""
    g, rhs, cut, params = problem()
    p = np.array([1.0, 10.0, 10.0, 1.0])
    before = final_solve(params, g, p, rhs, cut, 1.0, GRID, n_singular=N_SINGULAR)
    args = CHANGES[change](g, rhs, cut, params)
    params_, g_, rhs_, cut_, theta, grid = args
    after = final_solve(params_, g_, p, rhs_, cut_, theta, grid, n_singular=N_SINGULAR)
    assert builds.overlapped == [False, False]
    fresh = QueryBasis.build(*args).solve(p, N_SINGULAR)
    assert_identical_query(after, fresh)
    if grid == GRID:
        assert not np.allclose(after[1]["values"], before[1]["values"], rtol=1e-6, atol=0)


@pytest.mark.parametrize("theta", [-1.0, np.nan, np.inf])
def test_a_bad_jump_weight_raises_and_leaves_no_basis_held(monkeypatch, theta):
    """A negative or non-finite theta raises ValueError in the build, not
    NaN fields, and the basis held before it is gone; theta = 0 solves."""
    monkeypatch.setattr(training, "_kept", threading.local())
    g, rhs, cut, params = problem()
    p = np.array([1.0, 10.0, 10.0, 1.0])
    final_solve(params, g, p, rhs, cut, 1.0, 16)
    assert "basis" in vars(training._kept)
    with pytest.raises(ValueError, match="theta"):
        final_solve(params, g, p, rhs, cut, theta, 16)
    assert "basis" not in vars(training._kept)
    _, fields = final_solve(params, g, p, rhs, cut, 0.0, 16)
    assert np.all(np.isfinite(fields["values"]))


def test_an_epoch_drops_the_held_basis_before_it_samples(monkeypatch, builds):
    """The epoch replaces the weights the held basis was built from, so
    `run_epoch` drops it before `prepare_epoch`, though the old weights
    object is still alive here."""
    g, rhs, cut, _ = problem()
    config = TrainConfig(iterations=2, lr_start=1e-3, lr_end=1e-3, theta=1.0, n_params=2,
                         n_interior=8, n_interface=4, p_min=0.5, p_max=5.0)
    state = init_train_state(g, NetConfig(2, (10, 10), 4, 8), config)
    old_params = state.params
    final_solve(old_params, g, np.ones(g.n_subdomains), rhs, cut, 1.0, GRID)
    assert len(builds) == 1
    held = builds[0]
    assert held() is not None
    prepare = training.prepare_epoch
    alive_at_prepare = []

    def prepare_epoch(*args, **kwargs):
        alive_at_prepare.append(held() is not None)
        return prepare(*args, **kwargs)

    monkeypatch.setattr(training, "prepare_epoch", prepare_epoch)
    run_epoch(state, config, g, rhs, cut)
    assert alive_at_prepare == [False]
    assert held() is None
    assert state.params is not old_params


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


def _writeable_arrays(obj, path, seen):
    """The paths of the writeable arrays reachable from ``obj`` through
    dataclass fields, lists and tuples."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [path] if obj.flags.writeable else []
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        items = [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    elif isinstance(obj, (list, tuple)):
        items = list(enumerate(obj))
    else:
        return []
    return [p for key, value in items for p in _writeable_arrays(value, f"{path}.{key}", seen)]


def test_no_array_reachable_from_the_held_basis_is_writeable(monkeypatch):
    """The held basis, the inputs it is keyed on and the run tables, the
    sign rows the minus side reads among them, are all read-only, so no
    write through them can change a later query."""
    monkeypatch.setattr(training, "_kept", threading.local())
    g, rhs, cut, params = problem()
    final_solve(params, g, np.array([1.0, 10.0, 10.0, 1.0]), rhs, cut, 1.0, GRID,
                n_singular=N_SINGULAR)
    held = vars(training._kept)["basis"]
    cache = held[3].cache
    assert len(cache.interface_runs) == 4 and len(cache.axis_runs) == 2
    assert _writeable_arrays(held, "held", set()) == []


@pytest.mark.parametrize("owner, name", [
    ("geometry", "subdomain_lo"), ("geometry", "subdomain_hi"),
    ("geometry", "singular_vertices"), ("geometry", "vertex_sectors"), ("rhs", "vertices"),
])
def test_an_in_place_edit_of_a_basis_key_raises(owner, name):
    """`final_solve` recognizes the geometry and rhs by identity, so their
    arrays are read-only: an in-place edit raises rather than leaving the
    held basis stale.  The array a spec's vertices were copied from stays
    the caller's to write."""
    g, rhs, _, _ = problem()
    array = getattr({"geometry": g, "rhs": rhs}[owner], name)
    with pytest.raises(ValueError, match="read-only"):
        array += 1
    mine = np.array([[0.1, 0.2]])
    spec = RhsSpec("corner2d", mine)
    mine += 1.0
    np.testing.assert_array_equal(spec.vertices, [[0.1, 0.2]])


def test_zero_right_hand_side_reads_zero_relative_residual():
    """A layered medium has no crossing, so the corner source is zero there.
    The solve gives y = 0 with residual 0, and the relative residual reads
    0, not 0/0."""
    g = build_grid_geometry(2, cuts_x=[0.0], cuts_y=[], bounds=[(-1, 1), (-1, 1)])
    rhs = RhsSpec.for_geometry("corner2d", g)
    params = init_params(NetConfig(2, (8,), 4, 4), 0)
    cut = default_cutoff_config(g)
    coeffs, fields = final_solve(params, g, np.array([1.0, 2.0]), rhs, cut, 1.0, 16)
    np.testing.assert_array_equal(coeffs.stacked, 0.0)
    assert fields["residual_sq"] == 0.0
    assert fields["rel_residual"] == 0.0


def _untiled_basis(params, g, rhs, cut, theta, quad):
    """The basis arrays from one composition over all points at once: the
    factors of every point, the network at every point and their product."""
    cfg, weights = params.config, PassWeights.of(params)
    cols = factor_index(g, cfg.n1, cfg.n2)
    polar = polar_cache(quad.interior_points, g, cut)
    stack = composition_factors(quad.interior_points, g, polar)
    composed = stack.columns(cols) * forward_jets(weights, quad.interior_points)
    axes = np.array([g.interfaces[k].axis for k in quad.interface_ids], dtype=int)
    ifc_stack, mask = interface_trace_factors(quad.interface_points, axes, g,
                                              polar_cache(quad.interface_points, g, cut))
    ifc = forward_jets(weights, quad.interface_points)
    trace = (ifc_stack.columns(cols) * ifc).gradient[np.arange(quad.n_interface), :, axes]
    sign = np.where(mask[:, cols], -1.0, 1.0)  # (d, N), one row per axis
    cache = build_epoch_cache(g, polar, quad, interior_rows(composed.laplacian), trace, sign, rhs,
                              theta=theta)
    return composed.value, np.moveaxis(composed.gradient, -1, 1), cache


def problem_1d():
    g = geom_1d()
    rhs = RhsSpec.for_geometry("sin1d", g)
    return g, rhs, default_cutoff_config(g), init_params(NetConfig(1, (10, 10), 4, 8), 5)


# 2D: 40^2 = 6 * 256 + 64 interior points; 1D: 5 subdomains of 60, 256 + 44
@pytest.mark.parametrize("make, grid", [(problem, 40), (problem_1d, 60)], ids=["2d", "1d"])
def test_tiled_build_is_bit_identical_to_one_composition(make, grid):
    """The build composes one tile of TILE points at a time, the last one
    ragged; every basis array equals the composition over all points at
    once, bit for bit."""
    g, rhs, cut, params = make()
    basis = QueryBasis.build(params, g, rhs, cut, 2.0, grid)
    quad = basis.cache.quad
    assert quad.n_interior > TILE and quad.n_interior % TILE
    values, gradients, cache = _untiled_basis(params, g, rhs, cut, 2.0, quad)
    np.testing.assert_array_equal(basis.values, values)
    np.testing.assert_array_equal(basis.gradients, gradients)
    for name in ("wlap", "wtrace"):
        np.testing.assert_array_equal(getattr(basis.cache, name), getattr(cache, name), name)
    np.testing.assert_array_equal(dense_sign(basis.cache), dense_sign(cache))


def test_build_holds_little_beyond_the_basis_it_keeps():
    """The tracemalloc peak of a 96^2 build at the benchmark's network stays
    within 2.5x the arrays it keeps.  Composing the whole grid at once, with
    grid-sized raw, factor and product jets, read 4.4x."""
    g = geom_3x3()
    rhs = RhsSpec.for_geometry("corner2d", g)
    cut = default_cutoff_config(g)
    params = init_params(NetConfig(2, (30, 30, 30), 16, 32), 7)
    tracemalloc.start()
    try:
        basis = QueryBasis.build(params, g, rhs, cut, 1.0, 96)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = basis.values.nbytes + basis.gradients.nbytes + basis.cache.wlap.nbytes
    assert peak <= 2.5 * kept


# each makes a malformed parameter for I subdomains
MALFORMED_PARAMETERS = {
    "length I - 1": lambda n: np.ones(n - 1),
    "length I + 1": lambda n: np.ones(n + 1),
    "shape (1, I)": lambda n: np.ones((1, n)),
    "0-d": lambda n: np.array(1.0),
    "NaN": lambda n: np.r_[np.ones(n - 1), np.nan],
    "0": lambda n: np.r_[0.0, np.ones(n - 1)],
    "-1": lambda n: np.r_[np.ones(n - 1), -1.0],
}
# the faults in a value rather than the shape: a ParameterError of row 0
VALUE_FAULTS = {"NaN", "0", "-1"}


@pytest.mark.parametrize("make", [problem, problem_1d], ids=["2x2", "1d"])
def test_a_malformed_parameter_raises_in_both_entry_points(make, builds):
    """A parameter of the wrong shape, or with a NaN, zero or negative
    diffusivity, raises ValueError from `final_solve` and from
    `QueryBasis.solve` alike, a bad value as ParameterError naming row 0.
    `final_solve` raises on the basis it holds, without a rebuild."""
    g, rhs, cut, params = make()
    n = g.n_subdomains
    final_solve(params, g, np.ones(n), rhs, cut, 1.0, 16)
    basis = builds[0]()
    for fault, bad in sorted(MALFORMED_PARAMETERS.items()):
        for solve in (basis.solve, lambda p: final_solve(params, g, p, rhs, cut, 1.0, 16)):
            with pytest.raises(ValueError) as info:
                solve(bad(n))
            if fault in VALUE_FAULTS:
                assert isinstance(info.value, ParameterError) and info.value.index == 0, fault
    assert len(builds) == 1


def test_a_malformed_parameter_raises_before_a_build(monkeypatch, builds):
    """With no basis held, `final_solve` checks the parameter before it
    builds one: each malformed parameter raises ValueError, no basis is
    built, and the arrays the last epoch kept in the holder survive."""
    monkeypatch.setattr(training, "_kept", threading.local())
    g, rhs, cut, _ = problem()
    config = TrainConfig(iterations=2, lr_start=1e-3, lr_end=1e-3, theta=1.0, n_params=2,
                         n_interior=8, n_interface=4, p_min=0.5, p_max=5.0)
    state = init_train_state(g, NetConfig(2, (10, 10), 4, 8), config)
    run_epoch(state, config, g, rhs, cut)
    kept = dict(vars(training._kept))
    assert sorted(kept) == ["bar_lap", "bar_trace", "jets", "lap"]
    for fault, bad in sorted(MALFORMED_PARAMETERS.items()):
        with pytest.raises(ValueError):
            final_solve(state.params, g, bad(g.n_subdomains), rhs, cut, 1.0, 16)
        assert len(builds) == 0, fault
        assert list(vars(training._kept)) == list(kept)
        assert all(vars(training._kept)[name] is held for name, held in kept.items())
