import json
import threading
import tracemalloc
import types

import numpy as np
import pytest

from transolve import assembly, cutoffs, nets, training
from transolve.assembly import (
    assemble_system,
    build_epoch_cache,
    solve_normal_equations,
    solve_parameter_batch,
)
from transolve.cutoffs import (
    CutoffConfig,
    composition_factors,
    default_cutoff_config,
    factor_index,
)
from transolve.eigen import assemble_eigensystem, select_singular, solve_eigenpairs
from transolve.geometry import ParameterError, angular_trace, build_grid_geometry
from transolve.nets import Jets, MlpParams, NetConfig, PassWeights, forward_jets, init_params
from transolve.reference import RhsSpec, exact_1d, fem_solve_2d, relative_l2_errors
from transolve.sampling import midpoint_grid, sample_collocation, sample_parameters
from transolve.singular import singular_evals_from_cache
from transolve.training import (
    EpochData,
    EpochError,
    QueryBasis,
    Seeds,
    _composed_cache,
    TrainConfig,
    final_solve,
    init_train_state,
    load_checkpoint,
    loss_and_param_gradient,
    make_validation_set,
    prepare_epoch,
    run_epoch,
    save_checkpoint,
    train,
    validation_loss,
    vertex_eigenpairs,
)

from conftest import (
    dense_sign,
    disk_table,
    geom_1d,
    geom_1d_pair,
    geom_2x2,
    geom_3x3,
    interior_rows,
    jump_rows,
    kinked_sin_rows,
)

PI = np.pi


def small_config(**kw):
    base = dict(
        iterations=5,
        lr_start=1e-2,
        lr_end=1e-3,
        theta=1.0,
        n_params=8,
        n_interior=10,
        n_interface=1,
        p_min=0.5,
        p_max=5.0,
        seeds=Seeds(10, 11, 12, 13),
        val_every=2,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_loss_nonnegative_and_epoch_runs():
    g = geom_1d()
    cfg = small_config()
    net = NetConfig(1, (6, 6), 3, 6)
    rhs = RhsSpec.for_geometry("sin1d", g)
    cut = default_cutoff_config(g)
    state = init_train_state(g, net, cfg)
    val = make_validation_set(g, cfg)
    for _ in range(4):
        loss, vloss = run_epoch(state, cfg, g, rhs, cut, val)
        assert loss >= 0
    assert state.iteration == 4
    assert state.best_val is not None  # val cadence 2 must have fired


@pytest.mark.parametrize(
    "bad",
    [
        dict(val_every=0), dict(p_min=5.0, p_max=1.0), dict(p_min=0.0), dict(n_singular=-1),
        dict(theta=np.nan), dict(theta=np.inf), dict(theta=-1.0),
        dict(n_params=0), dict(n_interior=0), dict(n_interface=0), dict(p_max=np.inf),
        dict(lr_start=np.inf),
        dict(iterations=2.5), dict(n_params=2.5), dict(n_interior=3.5), dict(n_interface=1.5),
        dict(n_singular=1.5), dict(val_every=2.5), dict(n_singular=True),
        dict(iterations=np.float64(5.0)), dict(n_params="8"),
        dict(theta="1"), dict(lr_end="1e-4"), dict(p_min=None), dict(lr_start=True),
        dict(p_max=True),
        dict(seeds=(0, 1, 2, 3)), dict(seeds=Seeds(params=-1)), dict(seeds=Seeds(params=1.5)),
        dict(seeds=Seeds(init="x")), dict(seeds=Seeds(interior=True)),
        dict(seeds=Seeds(interface=np.float64(2.0))),
    ],
)
def test_config_rejects_bad_values_when_built(bad):
    """Caught when the config is built: val_every=0 would divide by zero at
    the first validation, p_min > p_max would draw from [p_max, p_min],
    n_singular=-1 would keep every eligible exponent but the last, a NaN or
    infinite theta would show only as NaN losses, a zero count would fail
    only at the first epoch, p_max=inf would draw inf and NaN
    diffusivities, and lr_start=inf would make Adam's weights non-finite,
    failing only at the next forward pass.  A count that is not an integer
    (a fraction, a bool, a float that holds one, a string) would raise a
    bare TypeError in the first draw or range, or from select_singular's
    slice, or at val_every=2.5 train on silently.  A rate, theta or
    parameter bound that is not a number (a string, None) would raise a
    bare TypeError in the checks below, and a bool would be taken as 0 or
    1.  Seeds that are not a `Seeds` of nonnegative integers would raise
    an AttributeError, TypeError or NumPy's ValueError only in
    `init_train_state`."""
    with pytest.raises(ValueError):
        small_config(**bad)


def test_config_takes_numpy_integer_counts(tmp_path):
    """Every count and seed may be a NumPy integer as well as a Python one,
    and every rate, theta and parameter bound a Python or NumPy integer or
    float.  They are stored as ``int`` and ``float``, so the config saves
    to a checkpoint and loads back equal."""
    counts = ("iterations", "n_params", "n_interior", "n_interface", "n_singular", "val_every")
    reals = dict(lr_start=np.float32(0.5), lr_end=np.float64(0.25), theta=2, p_min=np.int32(1),
                 p_max=np.float64(3.0))
    seeds = Seeds(np.int64(4), np.uint32(5), np.int8(6), 7)
    config = small_config(**{name: np.int64(2) for name in counts}, **reals, seeds=seeds)
    assert all(type(getattr(config, name)) is int and getattr(config, name) == 2
               for name in counts)
    assert all(type(getattr(config, name)) is float and getattr(config, name) == value
               for name, value in reals.items())
    assert config.seeds == Seeds(4, 5, 6, 7)
    assert all(type(getattr(config.seeds, name)) is int for name in ("params", "interior",
                                                                     "interface", "init"))
    state = init_train_state(geom_1d(), NetConfig(1, (4,), 2, 3), config)
    save_checkpoint(tmp_path / "numpy.npz", state, config)
    _, loaded, _ = load_checkpoint(tmp_path / "numpy.npz")
    assert loaded == config


@pytest.mark.parametrize(
    "cuts, net",
    [
        (dict(cuts_x=[-0.5, 0.25], cuts_y=[-0.25, 0.5]), NetConfig(2, (4,), 6, 8)),
        (dict(cuts_x=[0.0], cuts_y=[0.0]), NetConfig(2, (4,), 2, 3)),
    ],
    ids=["3x3-n1", "2x2-n2"],
)
def test_init_train_state_rejects_outputs_the_layout_cannot_compose(cuts, net):
    """n1 must be divisible by the N_s singular vertices and n2 by 2 N_s:
    n1 = 6 over the 4 vertices of the 3x3 layout, n2 = 3 over 2 * 1 on the
    2x2 one.  Caught where the state is built, not in the first epoch."""
    g = build_grid_geometry(2, bounds=[(-1, 1), (-1, 1)], **cuts)
    with pytest.raises(ValueError, match="must be divisible"):
        init_train_state(g, net, small_config())


def test_run_epoch_wraps_singular_solve_in_epoch_error(monkeypatch):
    """A solve that raises surfaces as EpochError with the epoch and the
    failing system named.  The basis repeats its columns under ridge 0: a
    network of zero weights and unit output biases gives every output the
    raw value 1, so the outputs of one cutoff factor (8 of each in 1D)
    compose to equal columns, whose diagonal is not zero.  Each repeat's
    Cholesky pivot is a rounding error of either sign, and with 14 repeats
    per system one comes out not positive; which system fails first is
    left to the rounding."""
    g = geom_1d()
    cfg = small_config()
    net = NetConfig(1, (4,), 8, 8)
    state = init_train_state(g, net, cfg)
    state.params = MlpParams.from_flat(net, np.zeros(state.params.n_params))
    state.params.layers[-1][1][:] = 1.0
    monkeypatch.setattr(assembly, "RIDGE_REL", 0.0)
    rhs = RhsSpec.for_geometry("sin1d", g)
    named = r"epoch 0, parameter (\d+): least-squares system \1 "
    with pytest.raises(EpochError, match=named) as err:
        run_epoch(state, cfg, g, rhs, default_cutoff_config(g), None)
    assert 0 <= err.value.param_index < cfg.n_params


def test_empty_parameter_batch_rejected():
    g = geom_1d()
    net = NetConfig(1, (4,), 2, 3)
    rhs = RhsSpec.for_geometry("sin1d", g)
    cut = default_cutoff_config(g)
    quad = sample_collocation(g, 5, 1, np.random.default_rng(0))
    data = EpochData(g, cut, rhs, quad, np.empty((0, 5)), [], 1.0)
    from transolve.nets import init_params

    with pytest.raises(ValueError):
        loss_and_param_gradient(init_params(net, 0), data)


def test_danskin_gradient_matches_total_loss_fd():
    """Directional fd of the full epoch loss vs the adjoint gradient.

    Single-subdomain toy (no interfaces), one parameter sample, frozen
    quadrature: the LS minimizer is smooth, so the envelope derivative is
    exact wherever the normal matrix is well conditioned.
    """
    g = build_grid_geometry(1, cuts_x=[], bounds=[(0, PI)])
    net = NetConfig(1, (5,), 2, 2)
    rhs = RhsSpec.for_geometry("sin1d", g)
    cut = CutoffConfig(0.1, 0.2)
    quad = sample_collocation(g, 25, 1, np.random.default_rng(3))
    params_batch = np.array([[2.0]])
    data = EpochData(g, cut, rhs, quad, params_batch, [[]], 1.0)
    from transolve.nets import init_params

    params = init_params(net, 21)
    loss0, grad = loss_and_param_gradient(params, data)

    # condition guard: skip if the normal matrix is pathological
    cache, *_ = _composed_cache(PassWeights.of(params), data)
    system = assemble_system(cache, params_batch[0], None, 1.0)
    cond = np.linalg.cond(system.matrix.T @ system.matrix)
    if cond > 1e10:
        pytest.skip(f"normal matrix condition {cond:.2e} too high for the fd check")

    rng = np.random.default_rng(4)
    direction = rng.normal(size=grad.size)
    direction /= np.linalg.norm(direction)
    h = 1e-5
    flat = params.to_flat()

    def loss_at(v):
        p = MlpParams.from_flat(net, v)
        l, _ = loss_and_param_gradient(p, data, need_gradient=False)
        return l

    fd = (loss_at(flat + h * direction) - loss_at(flat - h * direction)) / (2 * h)
    analytic = float(grad @ direction)
    assert analytic == pytest.approx(fd, rel=1e-3, abs=1e-10)


def test_danskin_gradient_fd_multi_subdomain():
    g = geom_1d()
    net = NetConfig(1, (5,), 2, 4)
    rhs = RhsSpec.for_geometry("sin1d", g)
    cut = default_cutoff_config(g)
    quad = sample_collocation(g, 12, 1, np.random.default_rng(5))
    params_batch = np.array([[1.0, 2.0, 0.7, 3.0, 1.4], [2.0, 1.0, 1.5, 0.8, 2.5]])
    data = EpochData(g, cut, rhs, quad, params_batch, [[], []], 1.0)
    from transolve.nets import init_params

    params = init_params(net, 31)
    _, grad = loss_and_param_gradient(params, data)
    rng = np.random.default_rng(6)
    flat = params.to_flat()
    h = 1e-5

    def loss_at(v):
        return loss_and_param_gradient(MlpParams.from_flat(net, v), data, need_gradient=False)[0]

    for _ in range(3):
        direction = rng.normal(size=grad.size)
        direction /= np.linalg.norm(direction)
        fd = (loss_at(flat + h * direction) - loss_at(flat - h * direction)) / (2 * h)
        assert float(grad @ direction) == pytest.approx(fd, rel=2e-3, abs=1e-10)


def test_danskin_gradient_fd_2d_with_singular_columns():
    """2D: non-unit interface weights, Theta != 1 and singular columns all
    enter the adjoint seeds."""
    g = geom_2x2()
    net = NetConfig(2, (6,), 2, 4)
    rhs = RhsSpec.for_geometry("corner2d", g)
    quad = sample_collocation(g, 10, 6, np.random.default_rng(7))
    params_batch = np.array([[1.0, 8.0, 8.0, 1.0], [2.0, 0.5, 1.0, 3.0]])
    pairs = vertex_eigenpairs(g, params_batch, 1)
    assert any(pairs[0])
    data = EpochData(g, default_cutoff_config(g), rhs, quad, params_batch, pairs, 4.0)
    params = init_params(net, 41)
    _, grad = loss_and_param_gradient(params, data)
    rng = np.random.default_rng(8)
    flat = params.to_flat()
    h = 1e-5

    def loss_at(v):
        return loss_and_param_gradient(MlpParams.from_flat(net, v), data, need_gradient=False)[0]

    for _ in range(3):
        direction = rng.normal(size=grad.size)
        direction /= np.linalg.norm(direction)
        fd = (loss_at(flat + h * direction) - loss_at(flat - h * direction)) / (2 * h)
        assert float(grad @ direction) == pytest.approx(fd, rel=2e-3, abs=1e-10)


def _corner_epoch_data(n_interior=10, n_interface=6):
    g = geom_2x2()
    rhs = RhsSpec.for_geometry("corner2d", g)
    quad = sample_collocation(g, n_interior, n_interface, np.random.default_rng(7))
    parameters = np.array([[1.0, 8.0, 8.0, 1.0], [2.0, 0.5, 1.0, 3.0]])
    pairs = vertex_eigenpairs(g, parameters, 1)
    return EpochData(g, default_cutoff_config(g), rhs, quad, parameters, pairs, 4.0)


def _recording(monkeypatch, name, calls):
    fn = getattr(training, name)

    def wrapper(*args, **kwargs):
        calls.append((args, fn(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(training, name, wrapper)


class _Served:
    """Seeds for `backward_jets` that serve rows of a (J, N) `Jets` set."""

    def __init__(self, jets):
        self.jets, self.shape = jets, jets.value.shape

    def add(self, rows, out):
        for k in ("value", "gradient", "laplacian"):
            target = getattr(out, k)
            target += getattr(self.jets, k)[rows]


class _Part:
    """The rows start:stop of seeds for `backward_jets`, served as seeds
    of their own."""

    def __init__(self, seeds, start, stop):
        self.seeds, self.start, self.shape = seeds, start, (stop - start, seeds.shape[1])

    def add(self, rows, out):
        self.seeds.add(slice(rows.start + self.start, rows.stop + self.start), out)


def test_one_forward_and_one_backward_pass_per_gradient(monkeypatch):
    """One gradient evaluation runs the network forward once and backward
    once, each over all J1 + J2 points, the interior ones first."""
    data = _corner_epoch_data()
    quad = data.quad
    points = np.concatenate([quad.interior_points, quad.interface_points])
    calls = {"forward_jets": [], "backward_jets": []}
    for name, record in calls.items():
        _recording(monkeypatch, name, record)
    params = init_params(NetConfig(2, (6,), 2, 4), 41)
    _, grad = loss_and_param_gradient(params, data)
    assert [len(c) for c in calls.values()] == [1, 1]
    (forward_args, jets), = calls["forward_jets"]
    (backward_args, result), = calls["backward_jets"]
    np.testing.assert_array_equal(forward_args[1], points)
    np.testing.assert_array_equal(backward_args[1], points)
    assert backward_args[2] is jets
    assert result is grad


def test_one_backward_pass_equals_the_interior_and_interface_passes(monkeypatch):
    """With a tile that straddles the last interior and the first interface
    point, the one pass over all points gives the sum of a pass over the
    interior rows and one over the interface rows."""
    data = _corner_epoch_data()
    n_int = data.quad.n_interior
    monkeypatch.setattr(nets, "TILE", 7)
    assert n_int % nets.TILE != 0
    calls = []
    _recording(monkeypatch, "backward_jets", calls)
    params = init_params(NetConfig(2, (6, 5), 2, 4), 43)
    _, grad = loss_and_param_gradient(params, data)
    (params_, points, jets, seeds), one = calls[0]
    n = len(points)
    apart = sum(
        nets.backward_jets(
            params_, points[start:stop], jets.rows(slice(start, stop)),
            _Part(seeds, start, stop),
        )
        for start, stop in ((0, n_int), (n_int, n))
    )
    np.testing.assert_allclose(one, apart, rtol=1e-13, atol=1e-13 * np.max(np.abs(apart)))


def _row_adjoints(cache):
    """Arrays of the cache's row shapes: as ``out`` of
    `solve_parameter_batch`, they ask for the row adjoints."""
    return tuple(np.empty(a.shape) for a in (cache.wlap, cache.wtrace))


def _whole_batch_seeds(params, data):
    """The mean loss, the network's jets and the loss's seeds on them as
    one (J, N) set: the product's adjoint of the row adjoints over the
    whole interior and the whole interface at once."""
    cache, jets, cols, stack, ifc_stack, normals = _composed_cache(PassWeights.of(params), data)
    sing = singular_evals_from_cache(cache.polar, data.pairs_per_p)
    bar_lap, bar_trace = out = _row_adjoints(cache)
    batch = solve_parameter_batch(cache, data.parameters, sing, out=out)
    for w in out:
        w *= 2.0 / len(data.parameters)
    shape, n_int = jets.value.shape, data.quad.n_interior
    seeds = Jets(np.zeros(shape), np.zeros(shape + (normals.shape[1],)), np.zeros(shape))
    interior = seeds.rows(slice(None, n_int))
    stack.columns(cols).adjoint(Jets(None, None, bar_lap), out=interior)
    ifc_stack.columns(cols).adjoint(
        Jets(None, bar_trace[:, :, None] * normals[:, None, :], None),
        out=seeds.rows(slice(n_int, None)),
    )
    return float(np.mean(batch.losses)), jets, seeds


def _layout_epoch_data(layout):
    if layout == "2x2":
        return _corner_epoch_data(), NetConfig(2, (6, 5), 2, 4)
    g = geom_1d()
    quad = sample_collocation(g, 12, 1, np.random.default_rng(3))
    parameters = sample_parameters(np.random.default_rng(4), 3, g.n_subdomains, 0.5, 5.0)
    data = EpochData(g, default_cutoff_config(g), RhsSpec.for_geometry("sin1d", g), quad,
                     parameters, [[]] * 3, 2.0)
    return data, NetConfig(1, (6, 5), 3, 6)


def _interface_axes(geometry, quad):
    return np.array([geometry.interfaces[k].axis for k in quad.interface_ids], dtype=int)


def _minus_side_factors(points, axes, geometry, cut):
    """The minus side's distinct factors, built point by point: at a point
    on a line of axis a, psi_a is the minus-side limit of |h| (value 0,
    gradient -e_a, Laplacian 0); elsewhere it is `jump_adf_jet` over the
    lines of axis a, or 1 where that axis has none."""
    d = points.shape[1]
    psis = []
    for a, lines in enumerate(cutoffs._axis_lines(geometry)):
        rows = [
            Jets(np.zeros(1), -np.eye(d)[None, a], np.zeros(1)) if axis == a
            else cutoffs.jump_adf_jet(x[None, :], lines) if lines else Jets.ones(1, d)
            for x, axis in zip(points, axes)
        ]
        psis.append(Jets(*(np.concatenate([getattr(r, k) for r in rows])
                           for k in ("value", "gradient", "laplacian"))))
    return cutoffs._distinct_factors(points, geometry, disk_table(points, geometry, cut), psis)


_TRACE_LAYOUTS = {
    "1d": (geom_1d, 0),
    "2x2": (geom_2x2, 1),
    "3x3": (geom_3x3, 4),
    "x-cuts only": (lambda: build_grid_geometry(2, cuts_x=[-0.3, 0.4], cuts_y=[],
                                                bounds=[(-1, 1), (-1, 1)]), 0),
}


@pytest.mark.parametrize("layout", sorted(_TRACE_LAYOUTS))
def test_minus_side_equals_an_explicit_minus_side_product(layout):
    """The cache's minus-side traces, its weighted trace times the sign row
    of each interface run, equal bit for bit the weighted traces of an
    explicit minus-side product: factors whose own-axis psi has gradient
    -e_a, times the network jets.  So do the factors: the minus side's are
    the plus side's times -1 on the masked factors."""
    make, n_s = _TRACE_LAYOUTS[layout]
    g = make()
    assert g.n_singular == n_s
    cut = default_cutoff_config(g)
    rhs = RhsSpec.for_geometry("sin1d" if g.dimension == 1 else "corner2d", g)
    quad = sample_collocation(g, 3, 5, np.random.default_rng(11))
    net = NetConfig(g.dimension, (6,), 2 * max(n_s, 1), 4 * max(n_s, 1))
    cols = factor_index(g, net.n1, net.n2)
    ifc = forward_jets(PassWeights.of(init_params(net, 13)), quad.interface_points)
    lap = np.zeros((quad.n_interior, net.n_outputs + 2))  # interior rows: build_epoch_cache
    polar = disk_table(quad.interior_points, g, cut)
    cache, plus, _ = training._interface_rows(ifc, lap, polar, quad, g, cut, cols, rhs, 1.0)
    sign = dense_sign(cache)
    minus = sign * cache.wtrace
    axes = _interface_axes(g, quad)
    explicit = _minus_side_factors(quad.interface_points, axes, g, cut)
    want = (explicit.columns(cols) * ifc).gradient[np.arange(len(axes)), :, axes]
    assert np.any(sign < 0) and np.any(sign > 0) and not np.array_equal(minus, cache.wtrace)
    assert np.array_equal(minus, cache.sqrt_theta_w[:, None] * want)
    _, mask = cutoffs.interface_trace_factors(quad.interface_points, axes, g,
                                              disk_table(quad.interface_points, g, cut))
    flip = np.where(mask[axes], -1.0, 1.0)
    assert np.array_equal(flip * plus.value, explicit.value)
    assert np.array_equal(flip[:, :, None] * plus.gradient, explicit.gradient)
    assert np.array_equal(flip * plus.laplacian, explicit.laplacian)


@pytest.mark.parametrize("layout", ["1d", "2x2"])
def test_the_folded_trace_adjoint_equals_the_two_sides_apart(layout):
    """The solve folds the minus-side rows' adjoint into the trace's through
    their sign.  A reference that takes each side's adjoint apart, from the
    residuals of each parameter's explicit system (`assemble_system`),
    through its own factors, the minus side's built by hand, gives the same
    loss and the gradient to rtol 1e-12 of its largest entry."""
    data, net = _layout_epoch_data(layout)
    params = init_params(net, 59)
    loss, grad = loss_and_param_gradient(params, data)

    cache, jets, cols, stack, plus, normals = _composed_cache(PassWeights.of(params), data)
    sing = singular_evals_from_cache(cache.polar, data.pairs_per_p)
    bar_lap, _ = out = _row_adjoints(cache)
    batch = solve_parameter_batch(cache, data.parameters, sing, out=out)
    scale = 2.0 / len(data.parameters)
    quad, n_int = data.quad, data.quad.n_interior
    # each side's halved derivative of the summed losses in its raw traces
    bar_minus, bar_plus = np.zeros_like(cache.wtrace), np.zeros_like(cache.wtrace)
    minus_sub, plus_sub, _ = jump_rows(data.geometry, quad)
    for k, p in enumerate(data.parameters):
        system = assemble_system(cache, p, sing[k], data.theta)
        y = np.concatenate([batch.y_nn[k], batch.y_sing[k]])
        r_jump = cache.sqrt_theta_w * (system.matrix @ y - system.rhs)[n_int:]
        bar_minus -= np.outer(p[minus_sub] * r_jump, batch.y_nn[k])
        bar_plus += np.outer(p[plus_sub] * r_jump, batch.y_nn[k])
    minus = _minus_side_factors(quad.interface_points, _interface_axes(data.geometry, quad),
                                data.geometry, data.cutoff_config)
    shape = jets.value.shape
    seeds = Jets(np.zeros(shape), np.zeros(shape + (normals.shape[1],)), np.zeros(shape))
    stack.columns(cols).adjoint(Jets(None, None, scale * bar_lap),
                                out=seeds.rows(slice(None, n_int)))
    for side, bar in ((minus, bar_minus), (plus, bar_plus)):
        side.columns(cols).adjoint(Jets(None, scale * bar[:, :, None] * normals[:, None, :], None),
                                   out=seeds.rows(slice(n_int, None)))
    points = np.concatenate([quad.interior_points, quad.interface_points])
    want = nets.backward_jets(PassWeights.of(params), points, jets, _Served(seeds))
    assert loss == float(np.mean(batch.losses))
    # the 1D gradient spans four decades, and entries far below its largest
    # carry the rounding of the large ones: the bound is relative to it too
    np.testing.assert_allclose(grad, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("tile", [7, nets.TILE])
@pytest.mark.parametrize("layout", ["1d", "2x2"])
def test_tile_seeds_equal_the_whole_batch_seeds(layout, tile, monkeypatch):
    """The seeds each backward tile composes give the loss and gradient,
    to the bit, of one (J, N) seed set built from the same row adjoints,
    also where a tile of 7 straddles the interior and the interface rows."""
    data, net = _layout_epoch_data(layout)
    assert tile != 7 or data.quad.n_interior % tile
    monkeypatch.setattr(nets, "TILE", tile)
    monkeypatch.setattr(training, "TILE", tile)
    params = init_params(net, 53)
    loss, grad = loss_and_param_gradient(params, data)
    want_loss, jets, seeds = _whole_batch_seeds(params, data)
    points = np.concatenate([data.quad.interior_points, data.quad.interface_points])
    want = nets.backward_jets(PassWeights.of(params), points, jets, _Served(seeds))
    assert loss == want_loss
    assert np.array_equal(grad, want)


def test_tiles_of_the_composition_do_not_change_the_gradient(monkeypatch):
    """The interior factors are gathered, composed and taken back through
    the product's adjoint a tile at a time: ragged tiles of 7 points give
    the loss and gradient of one tile of all points."""
    data = _corner_epoch_data()
    params = init_params(NetConfig(2, (6, 5), 2, 4), 47)
    results = []
    for tile in (7, 10**9):
        monkeypatch.setattr(training, "TILE", tile)
        results.append(loss_and_param_gradient(params, data))
    (loss7, grad7), (loss1, grad1) = results
    assert loss7 == pytest.approx(loss1, rel=1e-13)
    np.testing.assert_allclose(grad7, grad1, rtol=1e-13, atol=1e-13 * np.max(np.abs(grad1)))


def test_epochs_keep_their_arrays_and_a_query_build_empties_them(monkeypatch):
    """`run_epoch` keeps its fixed-shape arrays in `training._kept` from one
    epoch to the next, validation epochs included, and pops the basis
    `final_solve` holds there; a basis build empties the holder.  Epochs on
    kept arrays step the weights to the bit as epochs whose holder is
    emptied before each one."""
    monkeypatch.setattr(training, "_kept", threading.local())
    g = geom_1d()
    cfg = small_config(val_every=1)
    net = NetConfig(1, (6, 6), 3, 6)
    rhs = RhsSpec.for_geometry("sin1d", g)
    cut = default_cutoff_config(g)
    val = make_validation_set(g, cfg)
    weights = []
    for empty in (False, True):
        state = init_train_state(g, net, cfg)
        final_solve(state.params, g, np.ones(g.n_subdomains), rhs, cut, 1.0, 8)
        assert list(vars(training._kept)) == ["basis"]
        held = None
        for _ in range(3):
            if empty:
                vars(training._kept).clear()
            run_epoch(state, cfg, g, rhs, cut, val)
            assert "basis" not in vars(training._kept)
            kept = {name: arrays for name, (_, arrays) in vars(training._kept).items()}
            assert sorted(kept) == ["bar_lap", "bar_trace", "jets", "lap"]
            if held is not None and not empty:
                assert all(kept[name] is arrays for name, arrays in held.items())
            held = kept
        weights.append(state.params.to_flat())
        final_solve(state.params, g, np.ones(g.n_subdomains), rhs, cut, 1.0, 8)
        assert list(vars(training._kept)) == ["basis"]
    assert np.array_equal(*weights)


def test_kept_jets_are_keyed_by_dimension(monkeypatch):
    """The holder keys the epoch's jets by their gradient's shape, d
    included: a 2D epoch after a 1D one in the same process, of equal
    J1 + J2 = 1004 and N = 50, gets jets of its own dimension rather than
    the 1D ones, which its forward pass cannot fill."""
    monkeypatch.setattr(training, "_kept", threading.local())
    runs = [
        (geom_1d(), small_config(n_interior=200), NetConfig(1, (8,), 10, 40), "sin1d"),
        (geom_2x2(), small_config(n_interior=30, n_interface=26), NetConfig(2, (8,), 10, 40),
         "corner2d"),
    ]
    shapes = []
    for g, cfg, net, rhs in runs:
        state = init_train_state(g, net, cfg)
        loss, _ = run_epoch(state, cfg, g, RhsSpec.for_geometry(rhs, g), default_cutoff_config(g))
        assert np.isfinite(loss)
        shapes.append(vars(training._kept)["jets"][1].gradient.shape)
    assert shapes == [(1004, 50, 1), (1004, 50, 2)]


def _off_line_points(g, cut, quad, margin=0.05):
    """The interface points at least ``margin`` away from every line of
    the other axis and from every vertex disk, with their axes."""
    pts = quad.interface_points
    axes = np.array([g.interfaces[k].axis for k in quad.interface_ids], dtype=int)
    keep = np.ones(len(pts), dtype=bool)
    if pts.shape[1] == 2:
        lines = [np.asarray(g.cuts_y), np.asarray(g.cuts_x)]  # crossing an x-line, a y-line
        for a in (0, 1):
            along = pts[axes == a, 1 - a]
            keep[axes == a] &= np.abs(along[:, None] - lines[a]).min(axis=1) > margin
        r = np.linalg.norm(pts[:, None, :] - g.singular_vertices, axis=2).min(axis=1)
        keep &= r > cut.delta2 + margin
    return keep, axes


@pytest.mark.parametrize("dim", [1, 2])
def test_cache_traces_are_one_sided_differences_of_the_composed_basis(dim):
    """The cache's minus and plus traces, each interface run's sign row
    times its rows of wtrace and wtrace itself, unweighted, are the
    one-sided normal derivatives of the composed basis fac * raw, here
    from second-order differences of its values at 1, 2 and 3 steps h off
    the line on each side, h = 1e-4 (the truncation error reads 4e-7
    relative).  The points keep away from the other axis's lines and from
    the vertex disks, where the basis kinks or steepens."""
    if dim == 1:
        g, net, rhs_name = geom_1d(), NetConfig(1, (6, 6), 3, 6), "sin1d"
    else:
        g, net, rhs_name = geom_3x3(), NetConfig(2, (8, 8), 4, 8), "corner2d"
    cut = default_cutoff_config(g)
    params = init_params(net, 3)
    quad = sample_collocation(g, 6, 12, np.random.default_rng(5))
    data = EpochData(
        g, cut, RhsSpec.for_geometry(rhs_name, g), quad, np.ones((1, g.n_subdomains)), [[]], 1.0
    )
    cache, *_ = _composed_cache(PassWeights.of(params), data)
    keep, axes = _off_line_points(g, cut, quad)
    assert keep.sum() >= 4
    weight = cache.sqrt_theta_w[keep, None]
    minus, plus = (dense_sign(cache) * cache.wtrace)[keep] / weight, cache.wtrace[keep] / weight
    pts, normals = quad.interface_points[keep], np.eye(dim)[axes[keep]]

    def composed(x):
        factors = composition_factors(x, g, disk_table(x, g, cut)).columns(
            factor_index(g, net.n1, net.n2))
        return (factors * forward_jets(PassWeights.of(params), x)).value

    h = 1e-4
    f = {t: composed(pts + t * h * normals) for t in (-3, -2, -1, 1, 2, 3)}
    want_minus = (1.5 * f[-3] - 4.0 * f[-2] + 2.5 * f[-1]) / h
    want_plus = (-2.5 * f[1] + 4.0 * f[2] - 1.5 * f[3]) / h
    scale = np.abs(want_minus).max()
    assert np.abs(want_plus - want_minus).max() > 0.5 * scale  # the sides differ
    np.testing.assert_allclose(minus, want_minus, rtol=0, atol=1e-5 * scale)
    np.testing.assert_allclose(plus, want_plus, rtol=0, atol=1e-5 * scale)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gradient_keeps_no_whole_batch_tape():
    """The backward pass recomputes the network and composes the seeds tile
    by tile, and a loss-only pass evaluates the network one tile at a time.
    So the gradient costs the loss-only peak plus the (J, N) output jets it
    must keep for the backward pass, and a bounded share more: on this
    batch 1.24-1.29x with the backward pass split over two threads, each
    holding a tile's arrays, and 1.22x on one CPU.  A tape of every
    layer's jets at all points, a (J, N) seed set, or a loss-only pass
    that fills whole-batch jets again fails it."""
    g = geom_3x3()
    rhs = RhsSpec.for_geometry("corner2d", g)
    quad = sample_collocation(g, 60, 20, np.random.default_rng(12))
    assert quad.n_interior + quad.n_interface >= 8 * nets.TILE
    parameters = sample_parameters(np.random.default_rng(13), 8, g.n_subdomains, 0.1, 10.0)
    data = EpochData(g, default_cutoff_config(g), rhs, quad, parameters,
                     vertex_eigenpairs(g, parameters, 2), 1.0)
    params = init_params(NetConfig(2, (30, 30, 30), 16, 32), 7)
    # value, two gradient components and Laplacian of every output at every point
    jets_nbytes = (quad.n_interior + quad.n_interface) * params.config.n_outputs * 4 * 8
    loss_only = _peak_bytes(lambda: loss_and_param_gradient(params, data, need_gradient=False))
    with_gradient = _peak_bytes(lambda: loss_and_param_gradient(params, data))
    assert loss_only + jets_nbytes <= with_gradient <= 1.4 * (loss_only + jets_nbytes)


@pytest.mark.parametrize("layout, tag, net, n_interior, rtol", [
    (geom_1d, "sin1d", NetConfig(1, (10, 10), 4, 6), 121, 0.0),
    (geom_2x2, "corner2d", NetConfig(2, (12, 12), 4, 8), 47, 0.0),
    (geom_3x3, "corner2d", NetConfig(2, (12, 12), 8, 8), 31, 0.0),
    (geom_1d, "sin1d", NetConfig(1, (30, 30, 30), 10, 40), 200, 1e-7),
], ids=["1d", "2x2", "3x3", "train1d-sin"])
def test_loss_only_pass_equals_the_gradient_paths_loss(layout, tag, net, n_interior, rtol):
    """A loss-only pass evaluates the network per tile of interior points
    and then at the interface points, the gradient path at all points at
    once, with a ragged last interior tile.  A point's jets depend on its
    tile only through rounding, so the two losses agree to rounding, and
    bit for bit where the tiles round alike, as on the first three cases
    (rtol 0).  On the 1D benchmark's network and point counts (J1 = 1000,
    J2 = 4) the interface points' jets alone differ from theirs inside the
    last tile by one rounding, which the ill-conditioned solve amplifies
    to 3e-10 to 6e-9 of the loss here."""
    g = layout()
    rhs = RhsSpec.for_geometry(tag, g)
    for seed in range(3):
        quad = sample_collocation(g, n_interior, 7, np.random.default_rng(seed))
        assert quad.n_interior > nets.TILE and quad.n_interior % nets.TILE
        parameters = sample_parameters(np.random.default_rng(seed + 10), 4, g.n_subdomains,
                                       0.1, 10.0)
        data = EpochData(g, default_cutoff_config(g), rhs, quad, parameters,
                         vertex_eigenpairs(g, parameters, 2), 1.0)
        params = init_params(net, seed)
        loss_only, grad = loss_and_param_gradient(params, data, need_gradient=False)
        assert grad is None
        assert loss_only == pytest.approx(loss_and_param_gradient(params, data)[0], rel=rtol, abs=0)


def test_determinism_bit_identical_losses():
    g = geom_1d()
    cfg = small_config(iterations=3)
    net = NetConfig(1, (5,), 2, 4)
    rhs = RhsSpec.for_geometry("sin1d", g)
    runs = []
    for _ in range(2):
        _, history = train(g, net, cfg, rhs, with_validation=False)
        runs.append([row[1] for row in history])
    assert runs[0] == runs[1]


def test_lr_schedule_applied():
    g = geom_1d()
    cfg = small_config(iterations=4, lr_start=1e-2, lr_end=1e-4)
    net = NetConfig(1, (4,), 2, 3)
    rhs = RhsSpec.for_geometry("sin1d", g)
    state = init_train_state(g, net, cfg)
    cut = default_cutoff_config(g)
    before = state.params.to_flat().copy()
    run_epoch(state, cfg, g, rhs, cut, None)
    after = state.params.to_flat()
    # first Adam step magnitude is bounded by lr_start
    assert np.max(np.abs(after - before)) <= 1e-2 * 1.01


def test_exact_solution_injection_drives_epoch_loss_to_zero(monkeypatch):
    """Columns sin(5x) and sin(5x) s(x), the second kinking at the cut
    (`kinked_sin_rows`), span the exact solution for every p."""
    monkeypatch.setattr(assembly, "RIDGE_REL", 0.0)
    g = geom_1d_pair()
    rhs = RhsSpec.for_geometry("sin1d", g)
    quad = sample_collocation(g, 40, 1, np.random.default_rng(7))
    _, lap, trace, sign = kinked_sin_rows(g, quad)
    cache = build_epoch_cache(g, disk_table(quad.interior_points, g), quad, interior_rows(lap),
                              trace, sign, rhs, theta=1.0)
    rng = np.random.default_rng(8)
    params = rng.uniform(0.01, 50.0, size=(64, 2))
    batch = solve_parameter_batch(cache, params)
    # problem scale: the loss of the zero candidate, mean ||l||^2 over the batch
    f0 = cache.wrhs_fixed
    scale = float(np.sum(f0**2))
    assert np.mean(batch.losses) <= 1e-16 * scale


def test_checkpoint_roundtrip(tmp_path):
    g = geom_1d()
    cfg = small_config(iterations=5, val_every=2)
    net = NetConfig(1, (5,), 2, 4)
    rhs = RhsSpec.for_geometry("sin1d", g)
    cut = default_cutoff_config(g)
    state = init_train_state(g, net, cfg)
    val = make_validation_set(g, cfg)
    for _ in range(2):
        run_epoch(state, cfg, g, rhs, cut, val)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, state, cfg, extra={"note": 1})
    loaded, cfg2, extra = load_checkpoint(path)
    assert extra == {"note": 1}
    assert cfg2 == cfg
    assert loaded.iteration == state.iteration
    np.testing.assert_array_equal(loaded.params.to_flat(), state.params.to_flat())
    np.testing.assert_array_equal(loaded.adam.m, state.adam.m)
    np.testing.assert_array_equal(loaded.adam.v, state.adam.v)
    assert loaded.best_val[0] == state.best_val[0] and loaded.best_val[2] == state.best_val[2]
    np.testing.assert_array_equal(loaded.best_val[1], state.best_val[1])
    # resumed run matches a continuous one, bit for bit
    for _ in range(3):
        l1, v1 = run_epoch(state, cfg, g, rhs, cut, val)
        l2, v2 = run_epoch(loaded, cfg2, g, rhs, cut, val)
        assert (l1, v1) == (l2, v2)


def test_checkpoint_load_rejects_pickle_without_unpickling(tmp_path):
    """A pickled file is refused before any of it is unpickled: unpickling
    this payload would create a directory."""
    import os
    import pickle

    marker = tmp_path / "unpickled"

    class Payload:
        def __reduce__(self):
            return (os.mkdir, (str(marker),))

    path = tmp_path / "ck.pkl"
    with open(path, "wb") as fh:
        pickle.dump({"version": 2, "payload": Payload()}, fh)
    with pytest.raises(ValueError):
        load_checkpoint(path)
    assert not marker.exists()


# each edit changes the arrays in place and returns the header to write
def _header_slot(header, path):
    """The part of ``header`` that holds the last key of ``path``, and that key."""
    *outer, last = path
    for key in outer:
        header = header[key]
    return header, last


def _drop_header_field(*path):
    def edit(header, arrays):
        inner, last = _header_slot(header, path)
        del inner[last]
        return header
    return edit


def _drop_array(name):
    def edit(header, arrays):
        del arrays[name]
        return header
    return edit


def _replace_array(name, make):
    def edit(header, arrays):
        arrays[name] = make(arrays[name])
        return header
    return edit


def _set_header(value, *path):
    def edit(header, arrays):
        inner, last = _header_slot(header, path)
        inner[last] = value
        return header
    return edit


MALFORMED = {
    "no net_config": _drop_header_field("net_config"),
    "no seeds": _drop_header_field("train_config", "seeds"),
    "no rng state": _drop_header_field("rng", "rng_interior"),
    "no flat_params": _drop_array("flat_params"),
    "no best_params": _drop_array("best_params"),
    "header a list": lambda header, arrays: [1, 2],
    "header a number": lambda header, arrays: 2,
    # each of these loaded and trained silently: (1,) moments broadcast to
    # every weight, and a fractional iteration went on counting from 1.5
    "adam_m of shape (1,)": _replace_array("adam_m", lambda a: a[:1]),
    "adam_v of shape (1,)": _replace_array("adam_v", lambda a: a[:1]),
    "best_params one short": _replace_array("best_params", lambda a: a[:-1]),
    "adam_m a column": _replace_array("adam_m", lambda a: a[:, None]),
    "iteration 1.5": _set_header(1.5, "iteration"),
    "adam_t 0.5": _set_header(0.5, "adam_t"),
    "iteration negative": _set_header(-1, "iteration"),
    "adam_t a boolean": _set_header(True, "adam_t"),
    # all but the one-entry and bare-number best_val loaded: a string loss
    # raised a bare TypeError at the first validation, best weights without
    # a best_val were dropped, and a fractional iteration count failed only
    # in the training loop's range
    "best_val ['nan', -2.5]": _set_header(["nan", -2.5], "best_val"),
    "best_val loss a boolean": _set_header([True, 1], "best_val"),
    "best_val iteration 0.5": _set_header([1.0, 0.5], "best_val"),
    "best_val iteration negative": _set_header([1.0, -1], "best_val"),
    "best_val after the iteration": _set_header([1.0, 2], "best_val"),
    "best_val one entry": _set_header([1.0], "best_val"),
    "best_val a number": _set_header(1.0, "best_val"),
    "best_params without best_val": _set_header(None, "best_val"),
    "iterations 2.5": _set_header(2.5, "train_config", "iterations"),
    # loaded, and a learning rate of True trained as 1.0
    "lr_start true": _set_header(True, "train_config", "lr_start"),
}


@pytest.mark.parametrize("fault", sorted(MALFORMED))
def test_checkpoint_load_rejects_a_malformed_archive(tmp_path, fault):
    """A version-2 archive with a field or array missing, an Adam or
    best-weight array that is not a vector of the weights, an iteration
    or Adam step that is not a nonnegative integer, a best_val that is not
    null or [a real loss, an integer iteration up to the state's], best
    weights without a best_val, a configuration TrainConfig rejects, or a
    header that is not a JSON object, raises ValueError and nothing else."""
    g = geom_1d()
    cfg = small_config(iterations=2, val_every=1)
    state = init_train_state(g, NetConfig(1, (5,), 2, 4), cfg)
    # the best loss of iteration 1, recorded at iteration 1
    state.iteration = 1
    state.best_val = (1.0, state.params.to_flat().copy(), 1)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, state, cfg)
    load_checkpoint(path)
    with np.load(path) as archive:
        header = json.loads(str(archive["header"]))
        arrays = {name: archive[name] for name in archive.files if name != "header"}
    header = MALFORMED[fault](header, arrays)
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(json.dumps(header)), **arrays)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_final_solve_deterministic_and_grid_stable():
    g = geom_1d()
    cfg = small_config(iterations=12, n_interior=40, n_params=40)
    net = NetConfig(1, (8, 8), 4, 12)
    rhs = RhsSpec.for_geometry("sin1d", g)
    state, _ = train(g, net, cfg, rhs, with_validation=False)
    cut = default_cutoff_config(g)
    p0 = np.array([1.0, 4.0, 0.2, 30.0, 49.0])
    c1, f1 = final_solve(state.params, g, p0, rhs, cut, 1.0, 50)
    c2, f2 = final_solve(state.params, g, p0, rhs, cut, 1.0, 50)
    np.testing.assert_array_equal(f1["values"], f2["values"])

    # error changes by < 2x between evaluation grids (discretization invariance)
    errs = {}
    for n in (50, 100):
        _, fields = final_solve(state.params, g, p0, rhs, cut, 1.0, n)
        q = fields["quad"]
        u_ref, du_ref = exact_1d(g, p0, q.interior_points[:, 0])
        flux_ref = p0[q.interior_subdomain] * du_ref
        s, _ = relative_l2_errors(
            fields["values"], fields["flux"][:, 0], u_ref, flux_ref, q
        )
        errs[n] = s
    hi, lo = max(errs.values()), min(errs.values())
    assert hi <= 2.0 * lo + 1e-12


def test_final_solve_2d_matches_explicit_reference():
    """final_solve with singular columns: coefficients and residual equal
    those of assemble_system on the same grid, solved by
    solve_normal_equations."""
    g = geom_2x2()
    rhs = RhsSpec.for_geometry("corner2d", g)
    cut = default_cutoff_config(g)
    net = NetConfig(2, (10, 10), 4, 8)
    params = init_params(net, 5)
    p = np.array([1.0, 10.0, 10.0, 1.0])
    theta = 2.0
    coeffs, fields = final_solve(params, g, p, rhs, cut, theta, 24, n_singular=2)

    quad = midpoint_grid(g, 24, 24)
    pairs = vertex_eigenpairs(g, p[None, :], 2)[0]
    data = EpochData(g, cut, rhs, quad, p[None, :], [pairs], theta)
    cache, *_ = _composed_cache(PassWeights.of(params), data)
    (sing,) = singular_evals_from_cache(cache.polar, [pairs])
    assert sing.shape[1] > 0
    system = assemble_system(cache, p, sing, theta)
    y, res = solve_normal_equations(system)
    assert coeffs.c.shape == (sing.shape[1],)
    np.testing.assert_allclose(coeffs.stacked, y, rtol=1e-6, atol=1e-8)
    assert fields["residual_sq"] == pytest.approx(res, rel=1e-8)
    # the error estimate: the residual relative to the system's right-hand side
    assert np.isfinite(fields["rel_residual"])
    expected = np.sqrt(fields["residual_sq"] / np.sum(system.rhs**2))
    assert fields["rel_residual"] == pytest.approx(expected, rel=1e-12)


def test_validation_tracks_training():
    g = geom_1d()
    cfg = small_config(iterations=20, n_interior=30, n_params=20, val_every=5)
    net = NetConfig(1, (6, 6), 3, 9)
    rhs = RhsSpec.for_geometry("sin1d", g)
    state, history = train(g, net, cfg, rhs)
    vals = [(i, v) for i, l, v in history if v is not None]
    assert vals, "validation never evaluated"
    train_losses = {i: l for i, l, _ in history}
    for i, v in vals[len(vals) // 2 :]:
        assert v <= 10 * train_losses[i] + 1e-12


def test_vertex_eigenpairs_batch_matches_per_vertex_solves():
    g = geom_3x3()
    params = sample_parameters(np.random.default_rng(0), 5, g.n_subdomains, 0.1, 10.0)
    batch = vertex_eigenpairs(g, params, 2)
    assert len(batch) == 5 and all(len(per_p) == g.n_singular for per_p in batch)
    for k in range(5):
        for vid in range(g.n_singular):
            trace = [s[2] for s in angular_trace(g, params[k], vid)]
            ref = select_singular(solve_eigenpairs(assemble_eigensystem(trace)), 2)
            np.testing.assert_allclose(
                [p.exponent for p in batch[k][vid]], [p.exponent for p in ref], atol=1e-12
            )


def test_vertex_eigenpairs_makes_pairs_only_for_the_selected_modes(monkeypatch):
    """No mode is copied out of the one batched eigensolve: each
    parameter's selection at a vertex is a view of rows of the stacked
    `EigenModes`, at most the cap long, and holds what `select_singular`
    keeps of that system's modes."""
    g = geom_3x3()
    params = sample_parameters(np.random.default_rng(2), 8, g.n_subdomains, 0.1, 10.0)
    solved, solve = [], training.solve_eigenpairs
    monkeypatch.setattr(training, "solve_eigenpairs",
                        lambda system: solved.append(solve(system)) or solved[-1])
    batch = vertex_eigenpairs(g, params, 2)
    (modes,) = solved
    per_vertex = [len(pairs) for per_p in batch for pairs in per_p]
    assert len(per_vertex) == 8 * g.n_singular and max(per_vertex) <= 2 and sum(per_vertex) > 0
    for k, v in np.ndindex(8, g.n_singular):
        want = select_singular(modes[k, v], 2)
        for name in ("exponent", "rho", "mu_scale", "residual"):
            got, stacked = getattr(batch[k][v], name), getattr(modes, name)[k, v]
            assert np.array_equal(got, getattr(want, name))
            assert got.size == 0 or np.shares_memory(got, stacked)


def test_vertex_eigenpairs_failure_names_the_parameter():
    g = geom_2x2()
    params = np.ones((4, g.n_subdomains))
    params[2, 1] = -1.0
    with pytest.raises(ParameterError) as err:
        vertex_eigenpairs(g, params, 1)
    assert err.value.index == 2


def test_run_epoch_names_the_epoch_and_the_bad_parameter_row(monkeypatch):
    """A bad row of the sampled batch fails in the eigen work, which names
    the row; `run_epoch` adds the epoch."""
    g = geom_2x2()
    cfg = small_config(n_params=4, n_interface=2)
    state = init_train_state(g, NetConfig(2, (4,), 2, 4), cfg)
    rhs = RhsSpec.for_geometry("corner2d", g)
    cut = default_cutoff_config(g)
    run_epoch(state, cfg, g, rhs, cut)
    sample = training.sample_parameters

    def with_bad_row(*args):
        parameters = sample(*args)
        parameters[3, 0] = np.nan
        return parameters

    monkeypatch.setattr(training, "sample_parameters", with_bad_row)
    with pytest.raises(EpochError, match="epoch 1, parameter 3: parameter row 3") as err:
        run_epoch(state, cfg, g, rhs, cut)
    assert (err.value.epoch, err.value.param_index) == (1, 3)


def _final_errors(params, g, p, rhs, cut, n_per_axis, reference, mask_radius=0.0):
    _, fields = final_solve(params, g, p, rhs, cut, 1.0, n_per_axis)
    q = fields["quad"]
    ref_u, ref_flux = reference(q)
    return np.array(
        relative_l2_errors(
            fields["values"], fields["flux"], ref_u, ref_flux, q, g, mask_radius=mask_radius
        )
    )


def test_2d_training_reduces_fem_error_on_checkerboard():
    """Accuracy gate: 30 epochs on a 2x2 checkerboard lower the final_solve
    error against the FEM reference, disks of radius delta1 around the
    vertex masked.  Measured ratios after/init over seeds 0-7: 0.85-0.92 (u),
    0.85-0.89 (flux); 0.869 and 0.862 at the seed used here."""
    g = geom_2x2()
    rhs = RhsSpec.for_geometry("corner2d", g)
    cut = default_cutoff_config(g)
    net = NetConfig(2, (10, 10), 4, 8)
    p = np.array([1.0, 10.0, 10.0, 1.0])
    fem = fem_solve_2d(g, p, rhs, 60)
    cfg = small_config(
        iterations=30, n_params=8, n_interior=20, n_interface=8, p_min=1.0, p_max=10.0,
        seeds=Seeds(0, 1, 2, 3),
    )

    def errors(params):
        return _final_errors(params, g, p, rhs, cut, 32,
                             lambda q: fem.evaluate(q.interior_points), cut.delta1)

    before = errors(init_params(net, cfg.seeds.init))
    state, _ = train(g, net, cfg, rhs, cut, with_validation=False)
    after = errors(state.params)
    assert np.all(after <= 0.95 * before), (before, after)


def _benchmark_2d_errors(seed: int) -> np.ndarray:
    """The median (u, flux) error (%) of the 2D benchmark's training
    workload (train2d-corner) at ``seed``, whose streams the benchmark
    seeds from SeedSequence([seed, 2]) (2: the workload's place among the
    sorted workload names) and whose weights from 7: the benchmark
    3x3 layout, a (30, 30, 30) network with n1, n2 = 16, 32, 5 epochs of 8
    parameters in [0.1, 10] with 60 interior points per axis and 20 per
    interface, 2 singular modes, a rate of 2e-3 down to 1e-3 and Theta = 1.
    Then `final_solve` on a 64^2 grid at its 4 held-out parameters, against
    FEM 120^2 with the vertex disks (radius delta1) masked."""
    g = geom_3x3()
    rhs = RhsSpec.for_geometry("corner2d", g)
    cut = default_cutoff_config(g)
    streams = np.random.SeedSequence([seed, 2]).generate_state(3)
    cfg = TrainConfig(
        iterations=5, lr_start=2e-3, lr_end=1e-3, theta=1.0, n_params=8, n_interior=60,
        n_interface=20, p_min=0.1, p_max=10.0, n_singular=2,
        seeds=Seeds(*(int(s) for s in streams), 7),
    )
    state, _ = train(g, NetConfig(2, (30, 30, 30), 16, 32), cfg, rhs, cut, with_validation=False)
    errors = []
    for p in sample_parameters(np.random.default_rng(11), 4, g.n_subdomains, 0.1, 10.0):
        fem = fem_solve_2d(g, p, rhs, 120)
        _, fields = final_solve(state.params, g, p, rhs, cut, 1.0, 64, n_singular=2)
        q = fields["quad"]
        errors.append(relative_l2_errors(
            fields["values"], fields["flux"], *fem.evaluate(q.interior_points), q, g,
            mask_radius=cut.delta1,
        ))
    return np.median(errors, axis=0)


def test_2d_training_error_at_the_benchmark_sizes():
    """Accuracy gate at the 2D benchmark's sizes (`_benchmark_2d_errors`).
    Over seeds 1-10 the median errors of the least-squares query read
    39.7-44.8% (u) and 36.8-41.4% (flux), from 101.9% and 89.7% untrained
    at seed 1; seed 1, used here, reads 42.35% and 39.05%, as the
    benchmark does.  The bounds are the ten-seed maxima, rounded up."""
    u_err, flux_err = _benchmark_2d_errors(1)
    assert u_err <= 45.0 and flux_err <= 41.5, (u_err, flux_err)


def test_1d_training_error_after_fixed_budget():
    """Accuracy gate: the error against exact_1d after 100 epochs.  Measured
    over seeds 0-5: u 75-108%, flux 60-74% (from 207-257% and 108-125% at
    initialisation); 108% and 74% at the seed used here."""
    g = geom_1d()
    rhs = RhsSpec.for_geometry("sin1d", g)
    cut = default_cutoff_config(g)
    net = NetConfig(1, (10, 10), 4, 12)
    p = np.array([1.0, 4.0, 0.5, 8.0, 2.0])
    cfg = small_config(
        iterations=100, n_params=16, n_interior=20, p_min=0.5, p_max=10.0,
        seeds=Seeds(0, 1, 2, 3),
    )

    def exact(q):
        u, du = exact_1d(g, p, q.interior_points[:, 0])
        return u, (p[q.interior_subdomain] * du)[:, None]

    state, _ = train(g, net, cfg, rhs, cut, with_validation=False)
    u_err, flux_err = _final_errors(state.params, g, p, rhs, cut, 50, exact)
    assert u_err <= 130.0 and flux_err <= 90.0, (u_err, flux_err)


def _benchmark_1d_errors(seed: int) -> np.ndarray:
    """The median (u, flux) error (%) after 30 epochs at the 1D benchmark's
    sizes (train1d-sin) at ``seed``, whose streams the benchmark seeds from
    SeedSequence([seed, 1]) (1: the workload's place among the sorted
    workload names) and whose weights from 7: the pi/5 layout, a
    (30, 30, 30) network with n1, n2 = 10, 40, epochs of 256 parameters in
    [0.1, 10] with 200 interior points per subdomain and 1 per interface, a
    rate of 1e-3 down to 1e-4 over the 30 epochs and Theta = 1.  Then
    `final_solve` on a grid of 100 points per subdomain at the benchmark's
    first 8 held-out parameters, against `exact_1d`."""
    g = geom_1d()
    rhs = RhsSpec.for_geometry("sin1d", g)
    cut = default_cutoff_config(g)
    streams = np.random.SeedSequence([seed, 1]).generate_state(3)
    cfg = TrainConfig(
        iterations=30, lr_start=1e-3, lr_end=1e-4, theta=1.0, n_params=256, n_interior=200,
        n_interface=1, p_min=0.1, p_max=10.0, n_singular=1,
        seeds=Seeds(*(int(s) for s in streams), 7),
    )
    state, _ = train(g, NetConfig(1, (30, 30, 30), 10, 40), cfg, rhs, cut, with_validation=False)
    errors = []
    for p in sample_parameters(np.random.default_rng(11), 8, g.n_subdomains, 0.1, 10.0):
        _, fields = final_solve(state.params, g, p, rhs, cut, 1.0, 100)
        q = fields["quad"]
        u, du = exact_1d(g, p, q.interior_points[:, 0])
        errors.append(relative_l2_errors(
            fields["values"], fields["flux"], u, (p[q.interior_subdomain] * du)[:, None], q, g,
        ))
    return np.median(errors, axis=0)


def test_1d_training_error_at_the_benchmark_sizes():
    """Accuracy gate at the 1D benchmark's sizes (`_benchmark_1d_errors`).
    Over seeds 1-10 the median errors of the least-squares query read
    63.6-64.3% (u) and 43.7-44.0% (flux), from 101.7% and 67.5% untrained;
    seed 1, used here, reads 63.8% and 43.8%.  The bounds are the
    ten-seed maxima, rounded up to the next half percent."""
    u_err, flux_err = _benchmark_1d_errors(1)
    assert u_err <= 64.5 and flux_err <= 44.5, (u_err, flux_err)


def test_tile_by_tile_passes_check_the_weights_once(monkeypatch):
    """A gradient checks the weights once for its forward and its backward
    pass, which read one `nets.PassWeights`; a loss-only pass and a query
    basis build evaluate the network one tile at a time, but check its
    weights once for all the tiles: the validation set's interior tiles
    and its interface points, and the grid's tiles.  The check is counted
    by the arrays `nets` hands to ``np.isfinite``, through a copy of
    NumPy's namespace in place of the module's ``np``."""
    checked = []

    def isfinite(x, *args, **kwargs):
        checked.append(x)
        return np.isfinite(x, *args, **kwargs)

    counting = types.ModuleType("numpy")
    counting.__dict__.update(vars(np), isfinite=isfinite)
    monkeypatch.setattr(nets, "np", counting)
    g, rhs = geom_2x2(), RhsSpec.for_geometry("corner2d", geom_2x2())
    cut = default_cutoff_config(g)
    config = TrainConfig(iterations=1, lr_start=1e-3, lr_end=1e-3, theta=1.0, n_params=2,
                         n_interior=40, n_interface=6, p_min=0.5, p_max=2.0)
    params = init_params(NetConfig(2, (8,), 4, 8), 3)
    arrays = [w for layer in params.layers for w in layer]
    validation = make_validation_set(g, config)
    assert validation.quad.n_interior > 4 * nets.TILE
    data = EpochData(g, cut, rhs, validation.quad, validation.parameters,
                     validation.pairs_per_p, validation.theta)
    for run in (lambda: loss_and_param_gradient(params, data),
                lambda: validation_loss(params, validation, g, rhs, cut),
                lambda: QueryBasis.build(params, g, rhs, cut, 1.0, 40)):
        checked.clear()
        run()
        assert len(checked) == len(arrays) and all(a is b for a, b in zip(checked, arrays))


def test_trainings_in_two_threads_keep_their_own_arrays(monkeypatch):
    """Two trainings of equal shapes, one per thread, step their weights
    to the bit as each does alone.  A barrier inside the solve holds each
    epoch until both threads have written their jets, Laplacian and row
    adjoints, so with one holder for the process one thread's backward
    pass would read the other's; each thread has a holder of its own."""
    monkeypatch.setattr(training, "_kept", threading.local())
    g = geom_1d()
    net = NetConfig(1, (6,), 3, 6)
    rhs = RhsSpec.for_geometry("sin1d", g)
    cut = default_cutoff_config(g)
    configs = [small_config(iterations=3, seeds=Seeds(10 + k, 11 + k, 12 + k, 13 + k))
               for k in (0, 4)]

    def weights(config):
        state, _ = train(g, net, config, rhs, cut, with_validation=False)
        return state.params.to_flat()

    alone = [weights(config) for config in configs]
    assert not np.array_equal(*alone)
    barrier, solve = threading.Barrier(2, timeout=60), training.solve_parameter_batch

    def waiting(*args, **kwargs):
        barrier.wait()
        return solve(*args, **kwargs)

    monkeypatch.setattr(training, "solve_parameter_batch", waiting)
    together = [None, None]

    def run(k):
        together[k] = weights(configs[k])

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(together, alone):
        assert got is not None and np.array_equal(got, want)


def test_an_epoch_stacks_the_interior_disks_and_never_the_interface_points(monkeypatch):
    """An epoch makes two vertex-disk tables: the interior points' one,
    whose singular columns form its stacked disks (`PolarCache.stacked`),
    and the interface points' one, which only the cutoffs read and which
    never forms them."""
    g = geom_3x3()
    cfg = small_config(n_params=4, n_interface=3, n_singular=2)
    state = init_train_state(g, NetConfig(2, (4,), 4, 8), cfg)
    build, made = training.polar_cache, []

    def recording(points, geometry, config):
        made.append(build(points, geometry, config))
        return made[-1]

    monkeypatch.setattr(training, "polar_cache", recording)
    run_epoch(state, cfg, g, RhsSpec.for_geometry("corner2d", g), default_cutoff_config(g))
    interior, interface = made
    assert interior.n_points > interface.n_points
    assert "stacked" in vars(interior) and "stacked" not in vars(interface)
