import tracemalloc

import numpy as np
import pytest

from transolve import nets
from transolve.assembly import (
    assemble_system,
    build_epoch_cache,
    solve_normal_equations,
    solve_parameter_batch,
)
from transolve.cutoffs import CutoffConfig, default_cutoff_config
from transolve.eigen import assemble_eigensystem, select_singular, solve_eigenpairs
from transolve.geometry import angular_trace, build_grid_geometry
from transolve.nets import MlpParams, NetConfig, init_params
from transolve.reference import RhsSpec, exact_1d, fem_solve_2d, relative_l2_errors
from transolve.sampling import midpoint_grid, sample_collocation, sample_parameters
from transolve.singular import singular_evals_from_cache
from transolve.training import (
    EpochData,
    EpochError,
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
    vertex_eigenpairs,
)

PI = np.pi


def geom_1d():
    return build_grid_geometry(1, cuts_x=[PI / 5, 2 * PI / 5, 3 * PI / 5, 4 * PI / 5], bounds=[(0, PI)])


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
    ],
)
def test_config_rejects_bad_values_when_built(bad):
    """Caught when the config is built: val_every=0 would divide by zero at
    the first validation, p_min > p_max would draw from [p_max, p_min],
    n_singular=-1 would keep every eligible exponent but the last, a NaN or
    infinite theta would show only as NaN losses, a zero count would fail
    only at the first epoch, and p_max=inf would draw inf and NaN
    diffusivities."""
    with pytest.raises(ValueError):
        small_config(**bad)


def test_run_epoch_wraps_singular_solve_in_epoch_error(monkeypatch):
    """A solve that raises (a zero basis under ridge 0) surfaces as
    EpochError with the epoch and the failing system named."""
    g = geom_1d()
    cfg = small_config()
    net = NetConfig(1, (4,), 2, 3)
    state = init_train_state(g, net, cfg)
    state.params = MlpParams.from_flat(net, np.zeros(state.params.n_params))
    monkeypatch.setattr(
        "transolve.training.solve_parameter_batch",
        lambda *args, **kw: solve_parameter_batch(*args, **kw, ridge=0.0),
    )
    rhs = RhsSpec.for_geometry("sin1d", g)
    with pytest.raises(EpochError, match="epoch 0, parameter 0: least-squares system 0 ") as err:
        run_epoch(state, cfg, g, rhs, default_cutoff_config(g), None)
    assert err.value.param_index == 0


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
    cache, *_ = _composed_cache(params, data)
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
    g = build_grid_geometry(2, cuts_x=[0.0], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])
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


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gradient_keeps_no_whole_batch_tape():
    """The backward pass recomputes the network tile by tile, so asking for
    the gradient costs a bounded share of the loss-only peak.  A tape of
    every layer's jets at all points made it 3x on this batch."""
    g = build_grid_geometry(2, cuts_x=[-0.5, 0.25], cuts_y=[-0.25, 0.5], bounds=[(-1, 1), (-1, 1)])
    rhs = RhsSpec.for_geometry("corner2d", g)
    quad = sample_collocation(g, 60, 20, np.random.default_rng(12))
    assert quad.n_interior + quad.n_interface >= 8 * nets.TILE
    parameters = sample_parameters(np.random.default_rng(13), 8, g.n_subdomains, 0.1, 10.0)
    data = EpochData(g, default_cutoff_config(g), rhs, quad, parameters,
                     vertex_eigenpairs(g, parameters, 2), 1.0)
    params = init_params(NetConfig(2, (30, 30, 30), 16, 32), 7)
    loss_only = _peak_bytes(lambda: loss_and_param_gradient(params, data, need_gradient=False))
    with_gradient = _peak_bytes(lambda: loss_and_param_gradient(params, data))
    assert with_gradient <= 1.6 * loss_only


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


def test_exact_solution_injection_drives_epoch_loss_to_zero():
    """Subdomain indicators of sin(5x) span the exact solution for every p."""
    g = geom_1d()
    rhs = RhsSpec.for_geometry("sin1d", g)
    quad = sample_collocation(g, 40, 1, np.random.default_rng(7))
    n_sub = 5
    lap = np.zeros((quad.n_interior, n_sub))
    for i in range(n_sub):
        rows = quad.interior_subdomain == i
        lap[rows, i] = -25.0 * np.sin(5 * quad.interior_points[rows, 0])
    tr_minus = np.zeros((quad.n_interface, n_sub))
    tr_plus = np.zeros((quad.n_interface, n_sub))
    for k, gamma in enumerate(g.cuts_x):
        tr_minus[k, k] = 5 * np.cos(5 * gamma)
        tr_plus[k, k + 1] = 5 * np.cos(5 * gamma)
    cache = build_epoch_cache(
        g, CutoffConfig(0.1, 0.2), quad, lap, tr_minus, tr_plus, rhs, theta=1.0
    )
    rng = np.random.default_rng(8)
    params = rng.uniform(0.01, 50.0, size=(64, 5))
    batch = solve_parameter_batch(cache, params, ridge=0.0)
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
    g = build_grid_geometry(2, cuts_x=[0.0], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])
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
    cache, *_ = _composed_cache(params, data)
    sing = singular_evals_from_cache(cache.polar, pairs)
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
    g = build_grid_geometry(2, cuts_x=[-0.5, 0.25], cuts_y=[-0.25, 0.5], bounds=[(-1, 1), (-1, 1)])
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


def test_vertex_eigenpairs_failure_names_the_parameter():
    g = build_grid_geometry(2, cuts_x=[0.0], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])
    params = np.ones((4, g.n_subdomains))
    params[2, 1] = -1.0
    with pytest.raises(EpochError) as err:
        vertex_eigenpairs(g, params, 1, epoch=7)
    assert (err.value.epoch, err.value.param_index) == (7, 2)


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
    g = build_grid_geometry(2, cuts_x=[0.0], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])
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
