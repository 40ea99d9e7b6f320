import numpy as np
import pytest

from transolve.nets import (
    AdamState,
    MlpParams,
    NetConfig,
    adam_step,
    backward_jets,
    forward_jets,
    init_params,
    linear_lr,
)


def test_init_deterministic():
    cfg = NetConfig(1, (10, 10, 10), 10, 40)
    p1 = init_params(cfg, 123)
    p2 = init_params(cfg, 123)
    np.testing.assert_array_equal(p1.to_flat(), p2.to_flat())
    assert not np.array_equal(p1.to_flat(), init_params(cfg, 124).to_flat())


def test_param_count_matches_shape_arithmetic():
    cfg = NetConfig(1, (10, 10, 10), 10, 40)
    p = init_params(cfg, 0)
    assert p.n_params == 1 * 10 + 10 + 2 * (10 * 10 + 10) + 10 * 50 + 50 == 790


def test_glorot_limits_and_zero_biases():
    cfg = NetConfig(2, (8,), 3, 5)
    p = init_params(cfg, 7)
    for a, b in p.layers:
        limit = np.sqrt(6.0 / (a.shape[0] + a.shape[1]))
        assert np.max(np.abs(a)) <= limit
        np.testing.assert_array_equal(b, 0.0)


def test_flat_roundtrip():
    cfg = NetConfig(2, (4, 5), 2, 3)
    p = init_params(cfg, 3)
    flat = p.to_flat()
    q = MlpParams.from_flat(cfg, flat)
    for (a1, b1), (a2, b2) in zip(p.layers, q.layers):
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)
    with pytest.raises(ValueError):
        MlpParams.from_flat(cfg, flat[:-1])


def test_single_layer_identity_jets():
    cfg = NetConfig(1, (), 1, 1)
    # one affine+tanh layer with A rows [1], [1], b = 0
    p = MlpParams(cfg, [(np.ones((2, 1)), np.zeros(2))])
    jets = forward_jets(p, np.array([[0.0]]))
    np.testing.assert_allclose(jets.value, 0.0)
    np.testing.assert_allclose(jets.gradient[:, :, 0], 1.0)
    np.testing.assert_allclose(jets.laplacian, 0.0, atol=1e-15)


def test_zero_weights_give_zero_jets():
    cfg = NetConfig(2, (4,), 2, 2)
    p = init_params(cfg, 0)
    p.layers = [(np.zeros_like(a), np.zeros_like(b)) for a, b in p.layers]
    jets = forward_jets(p, np.random.default_rng(0).uniform(-1, 1, (5, 2)))
    np.testing.assert_allclose(jets.value, 0.0)
    np.testing.assert_allclose(jets.gradient, 0.0)
    np.testing.assert_allclose(jets.laplacian, 0.0)


def test_nonfinite_params_rejected():
    cfg = NetConfig(1, (3,), 1, 1)
    p = init_params(cfg, 0)
    p.layers[0][0][0, 0] = np.nan
    with pytest.raises(ValueError):
        forward_jets(p, np.array([[0.5]]))


@pytest.mark.parametrize("dim", [1, 2])
def test_jets_match_finite_differences(dim):
    cfg = NetConfig(dim, (7, 6), 3, 4)
    p = init_params(cfg, 42)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(20, dim))
    jets = forward_jets(p, pts)
    h = 1e-4
    for j in range(pts.shape[0]):
        x = pts[j]
        grad_fd = np.zeros((cfg.n_outputs, dim))
        lap_fd = np.zeros(cfg.n_outputs)
        f0 = forward_jets(p, x[None, :]).value[0]
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = h
            fp = forward_jets(p, (x + e)[None, :]).value[0]
            fm = forward_jets(p, (x - e)[None, :]).value[0]
            grad_fd[:, k] = (fp - fm) / (2 * h)
            lap_fd += (fp - 2 * f0 + fm) / h**2
        np.testing.assert_allclose(jets.gradient[j], grad_fd, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(jets.laplacian[j], lap_fd, rtol=1e-4, atol=1e-6)


def test_backward_matches_finite_difference():
    """Adjoint gradient of a random linear functional of the jets."""
    cfg = NetConfig(2, (5, 4), 2, 3)
    p = init_params(cfg, 11)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(6, 2))
    cv = rng.normal(size=(6, cfg.n_outputs))
    cg = rng.normal(size=(6, cfg.n_outputs, 2))
    cl = rng.normal(size=(6, cfg.n_outputs))

    def objective(flat):
        q = MlpParams.from_flat(cfg, flat)
        jets = forward_jets(q, pts)
        return (
            np.sum(cv * jets.value)
            + np.sum(cg * jets.gradient)
            + np.sum(cl * jets.laplacian)
        )

    jets, tape = forward_jets(p, pts, need_tape=True)
    grad = backward_jets(p, tape, cv, cg, cl)
    flat = p.to_flat()
    h = 1e-6
    idx = rng.choice(flat.size, size=25, replace=False)
    for i in idx:
        e = np.zeros_like(flat)
        e[i] = h
        fd = (objective(flat + e) - objective(flat - e)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=2e-5, abs=1e-8)


def test_adam_zero_gradient_no_move():
    st = AdamState.zeros(4)
    x = np.array([1.0, -2.0, 3.0, 0.5])
    x2 = adam_step(st, x, np.zeros(4), lr=0.1)
    np.testing.assert_array_equal(x, x2)


def test_adam_constant_gradient_step_size():
    st = AdamState.zeros(1)
    x = np.array([0.0])
    g = np.array([0.3])
    for _ in range(500):
        x = adam_step(st, x, g, lr=0.01)
    # with a constant gradient the per-step move approaches lr in magnitude
    x_prev = x.copy()
    x = adam_step(st, x, g, lr=0.01)
    assert abs(x - x_prev)[0] == pytest.approx(0.01, rel=1e-3)


def test_linear_lr_midpoint():
    assert linear_lr(1e-2, 1e-4, 500, 1000) == pytest.approx(0.00505)
    assert linear_lr(1e-2, 1e-4, 0, 1000) == pytest.approx(1e-2)
    assert linear_lr(1e-2, 1e-4, 1000, 1000) == pytest.approx(1e-4)
