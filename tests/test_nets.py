import numpy as np
import pytest

from transolve import nets
from transolve.nets import (
    AdamState,
    Jets,
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


def _plane_wave_jets(points, a, b):
    """Jets of f = sin(a.x) and g = exp(b.x); a, b of shape (..., d) broadcast
    against the points (J, 1, d) or (J, d)."""
    za, zb = np.sum(points * a, axis=-1), np.sum(points * b, axis=-1)
    f = Jets(np.sin(za), np.cos(za)[..., None] * a, -np.sin(za) * np.sum(a * a, axis=-1))
    g = Jets(np.exp(zb), np.exp(zb)[..., None] * b, np.exp(zb) * np.sum(b * b, axis=-1))
    return f, g, za, zb


@pytest.mark.parametrize("n_fields", [None, 4])
def test_jets_product_matches_closed_form(n_fields):
    """sin(a.x) exp(b.x) has gradient (a cos + b sin) e and Laplacian
    ((|b|^2 - |a|^2) sin + 2 a.b cos) e, at shapes (J,) and (J, N)."""
    rng = np.random.default_rng(0)
    points = rng.uniform(-1, 1, size=(6, 2))
    if n_fields is None:
        a, b = rng.normal(size=2), rng.normal(size=2)
    else:
        a, b = rng.normal(size=(n_fields, 2)), rng.normal(size=(n_fields, 2))
        points = points[:, None, :]
    f, g, za, zb = _plane_wave_jets(points, a, b)
    prod = f * g
    shape = (6,) if n_fields is None else (6, n_fields)
    assert prod.value.shape == prod.laplacian.shape == shape
    s, c, e = np.sin(za), np.cos(za), np.exp(zb)
    np.testing.assert_allclose(prod.value, s * e, rtol=1e-14)
    np.testing.assert_allclose(
        prod.gradient, (a * c[..., None] + b * s[..., None]) * e[..., None], rtol=1e-13, atol=1e-15
    )
    a2, b2, ab = (np.sum(u * v, axis=-1) for u, v in ((a, a), (b, b), (a, b)))
    lap = ((b2 - a2) * s + 2 * ab * c) * e
    np.testing.assert_allclose(prod.laplacian, lap, rtol=1e-13, atol=1e-15)
    np.testing.assert_array_equal(f.product_laplacian(g), prod.laplacian)
    ones = Jets.ones(shape, 2)
    np.testing.assert_array_equal((ones * f).laplacian, f.laplacian)
    with pytest.raises(ValueError):
        f * g.rows(slice(None, 1))  # would broadcast without the check


def _dot(a, b):
    return sum(np.sum(getattr(a, k) * getattr(b, k)) for k in ("value", "gradient", "laplacian"))


@pytest.mark.parametrize("seed_on", ["value", "gradient", "laplacian"])
@pytest.mark.parametrize("shape", [(6,), (6, 4)])
def test_jets_adjoint_is_the_products_transpose(shape, seed_on):
    """<bar, f * dg> = <f.adjoint(bar), dg>: the product is linear in g."""
    rng = np.random.default_rng(1)

    def random_jets():
        return Jets(rng.normal(size=shape), rng.normal(size=shape + (2,)), rng.normal(size=shape))

    f, dg, bar = random_jets(), random_jets(), random_jets()
    for k in ("value", "gradient", "laplacian"):
        if k != seed_on:
            getattr(bar, k)[...] = 0.0
    back = f.adjoint(bar)
    assert back.value.shape == back.laplacian.shape == shape
    assert back.gradient.shape == shape + (2,)
    assert _dot(bar, f * dg) == pytest.approx(_dot(back, dg), rel=1e-12)
    if seed_on != "gradient":  # None stands for the zero gradient seed
        no_grad = f.adjoint(Jets(bar.value, None, bar.laplacian))
        assert _dot(no_grad, dg) == _dot(back, dg)
    if seed_on != "value":  # and for the zero value seed
        no_value = f.adjoint(Jets(None, bar.gradient, bar.laplacian))
        assert _dot(no_value, dg) == _dot(back, dg)


def test_jets_columns_gathers_fields_component_major():
    rng = np.random.default_rng(3)
    jets = Jets(rng.normal(size=(5, 4)), rng.normal(size=(5, 4, 2)), rng.normal(size=(5, 4)))
    cols = np.array([3, 0, 0, 2, 1, 3])
    out = jets.columns(cols)
    expected = jets.rows((slice(None), cols))
    for k in ("value", "gradient", "laplacian"):
        np.testing.assert_array_equal(getattr(out, k), getattr(expected, k))
    assert np.moveaxis(out.gradient, -1, 0).flags.c_contiguous


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


def test_backward_matches_finite_difference(monkeypatch):
    """Adjoint gradient of a random linear functional of the jets, over
    tiles of 4 of the 6 points."""
    monkeypatch.setattr(nets, "TILE", 4)
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

    grad = backward_jets(p, pts, cv, cg, cl)
    flat = p.to_flat()
    h = 1e-6
    idx = rng.choice(flat.size, size=25, replace=False)
    for i in idx:
        e = np.zeros_like(flat)
        e[i] = h
        fd = (objective(flat + e) - objective(flat - e)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=2e-5, abs=1e-8)


def _random_seeds(rng, n_points, cfg):
    shape = (n_points, cfg.n_outputs)
    return rng.normal(size=shape), rng.normal(size=shape + (cfg.input_dim,)), rng.normal(size=shape)


def test_tiling_does_not_change_the_jets_or_the_gradient(monkeypatch):
    """Ragged tiles of 7 and one tile of all 45 points give the same jets
    and weight gradient, up to the order of the tile sums."""
    cfg = NetConfig(2, (6, 5), 3, 4)
    p = init_params(cfg, 5)
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1, 1, size=(45, 2))
    seeds = _random_seeds(rng, 45, cfg)
    results = []
    for tile in (7, 10**9):
        monkeypatch.setattr(nets, "TILE", tile)
        results.append((forward_jets(p, pts), backward_jets(p, pts, *seeds)))
    (jets7, grad7), (jets1, grad1) = results
    for k in ("value", "gradient", "laplacian"):
        a, b = getattr(jets7, k), getattr(jets1, k)
        np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-14 * np.max(np.abs(b)))
    np.testing.assert_allclose(grad7, grad1, rtol=1e-13, atol=1e-13 * np.max(np.abs(grad1)))


@pytest.mark.parametrize("bad", ["extra_row", "wrong_outputs"])
def test_backward_rejects_seeds_of_another_shape(bad):
    """Each tile slices the seeds by point, so a seed row beyond the points
    would be dropped without the check."""
    cfg = NetConfig(2, (4,), 2, 3)
    p = init_params(cfg, 0)
    rng = np.random.default_rng(10)
    pts = rng.uniform(-1, 1, size=(5, 2))
    if bad == "extra_row":
        seeds = _random_seeds(rng, 6, cfg)
    else:
        seeds = _random_seeds(rng, 5, NetConfig(2, (4,), 2, 4))
    for k in range(3):
        mixed = list(_random_seeds(rng, 5, cfg))
        mixed[k] = seeds[k]
        with pytest.raises(ValueError, match="seeds of shapes"):
            backward_jets(p, pts, *mixed)


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
    # past the schedule (a resumed run) the rate stays at its end, never below
    assert linear_lr(2e-3, 1e-3, 30, 10) == pytest.approx(1e-3)
    assert linear_lr(1e-2, 1e-4, 1001, 1000) == pytest.approx(1e-4)
