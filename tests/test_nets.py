import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from transolve import nets
from transolve.nets import (
    AdamState,
    Jets,
    MlpParams,
    NetConfig,
    PassWeights,
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


def _zeros(shape, d=2):
    return Jets(np.zeros(shape), np.zeros(shape + (d,)), np.zeros(shape))


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
    back = f.adjoint(bar, out=_zeros(shape))
    assert _dot(bar, f * dg) == pytest.approx(_dot(back, dg), rel=1e-12)
    if seed_on != "gradient":  # None stands for the zero gradient seed
        no_grad = f.adjoint(Jets(bar.value, None, bar.laplacian), out=_zeros(shape))
        assert _dot(no_grad, dg) == _dot(back, dg)
    if seed_on != "value":  # and for the zero value seed
        no_value = f.adjoint(Jets(None, bar.gradient, bar.laplacian), out=_zeros(shape))
        assert _dot(no_value, dg) == _dot(back, dg)
    if seed_on != "laplacian":  # and for the zero Laplacian seed
        no_lap = f.adjoint(Jets(bar.value, bar.gradient, None), out=_zeros(shape))
        assert _dot(no_lap, dg) == _dot(back, dg)


def test_jets_adjoint_adds_into_out():
    """The seeds are added into row blocks of a larger set in place: each
    block reads its old entries plus the product's adjoint."""
    rng = np.random.default_rng(4)

    def random_jets(n):
        return Jets(rng.normal(size=(n, 3)), rng.normal(size=(n, 3, 2)), rng.normal(size=(n, 3)))

    f, bar, start = random_jets(4), random_jets(4), random_jets(7)
    seeds = _zeros((7, 3))
    for k in ("value", "gradient", "laplacian"):
        getattr(seeds, k)[...] = getattr(start, k)
    block = seeds.rows(slice(2, 6))
    assert f.adjoint(bar, out=block) is block
    alone = f.adjoint(bar, out=_zeros((4, 3)))
    for k in ("value", "gradient", "laplacian"):
        want = getattr(start, k).copy()
        want[2:6] += getattr(alone, k)
        # the same sums, added in another order
        np.testing.assert_allclose(getattr(seeds, k), want, rtol=1e-14, atol=1e-14)


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
    jets = forward_jets(PassWeights.of(p), np.array([[0.0]]))
    np.testing.assert_allclose(jets.value, 0.0)
    np.testing.assert_allclose(jets.gradient[:, :, 0], 1.0)
    np.testing.assert_allclose(jets.laplacian, 0.0, atol=1e-15)


def test_zero_weights_give_zero_jets():
    cfg = NetConfig(2, (4,), 2, 2)
    p = init_params(cfg, 0)
    p.layers = [(np.zeros_like(a), np.zeros_like(b)) for a, b in p.layers]
    jets = forward_jets(PassWeights.of(p), np.random.default_rng(0).uniform(-1, 1, (5, 2)))
    np.testing.assert_allclose(jets.value, 0.0)
    np.testing.assert_allclose(jets.gradient, 0.0)
    np.testing.assert_allclose(jets.laplacian, 0.0)


def test_nonfinite_params_rejected():
    """The one finiteness check of the weights is the snapshot's: the
    passes take only a `PassWeights`, which cannot be made of a non-finite
    weight or bias."""
    for layer, array, bad in [(0, 0, np.nan), (1, 0, np.inf), (1, 1, np.nan), (0, 1, -np.inf)]:
        p = init_params(NetConfig(1, (3,), 1, 1), 0)
        p.layers[layer][array].flat[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            PassWeights.of(p)


@pytest.mark.parametrize("dim", [1, 2])
def test_pass_weights_give_the_jets_of_the_weights(dim):
    """The snapshot holds each layer's own A and b and a C-contiguous copy
    of A^T, and one snapshot handed to each tile's `forward_jets` gives,
    bit for bit, the jets of the whole point set."""
    cfg = NetConfig(dim, (7, 6), 3, 4)
    p = init_params(cfg, 8)
    weights = PassWeights.of(p)
    assert weights.config == cfg and len(weights.layers) == len(p.layers)
    for (a, at, b), (a_own, b_own) in zip(weights.layers, p.layers):
        assert a is a_own and b is b_own
        assert at.flags.c_contiguous and np.array_equal(at, a.T)
    pts = np.random.default_rng(2).uniform(-1, 1, size=(nets.TILE + 40, dim))
    whole = forward_jets(weights, pts)
    for rows in (slice(0, nets.TILE), slice(nets.TILE, None)):
        tile = forward_jets(weights, pts[rows])
        for k in ("value", "gradient", "laplacian"):
            np.testing.assert_array_equal(getattr(tile, k), getattr(whole, k)[rows])
    with pytest.raises(ValueError, match="points must have shape"):
        forward_jets(weights, np.zeros((2, dim + 1)))


@pytest.mark.parametrize("dim", [1, 2])
def test_jets_match_finite_differences(dim):
    cfg = NetConfig(dim, (7, 6), 3, 4)
    p = init_params(cfg, 42)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(20, dim))
    jets = forward_jets(PassWeights.of(p), pts)
    h = 1e-4
    for j in range(pts.shape[0]):
        x = pts[j]
        grad_fd = np.zeros((cfg.n_outputs, dim))
        lap_fd = np.zeros(cfg.n_outputs)
        f0 = forward_jets(PassWeights.of(p), x[None, :]).value[0]
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = h
            fp = forward_jets(PassWeights.of(p), (x + e)[None, :]).value[0]
            fm = forward_jets(PassWeights.of(p), (x - e)[None, :]).value[0]
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
        jets = forward_jets(PassWeights.of(q), pts)
        return (
            np.sum(cv * jets.value)
            + np.sum(cg * jets.gradient)
            + np.sum(cl * jets.laplacian)
        )

    grad = backward_jets(PassWeights.of(p), pts, forward_jets(PassWeights.of(p), pts), _Served(cv, cg, cl))
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


class _Served:
    """Seeds for `backward_jets` that serve rows of (J, N) value and
    Laplacian and (J, N, d) gradient arrays."""

    def __init__(self, value, gradient, laplacian):
        assert gradient.shape[:-1] == value.shape == laplacian.shape
        self.arrays = (value, gradient, laplacian)
        self.shape = value.shape

    def add(self, rows, out):
        for k, array in zip(("value", "gradient", "laplacian"), self.arrays):
            target = getattr(out, k)
            target += array[rows]


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
        jets = forward_jets(PassWeights.of(p), pts)
        results.append((jets, backward_jets(PassWeights.of(p), pts, jets, _Served(*seeds))))
    (jets7, grad7), (jets1, grad1) = results
    for k in ("value", "gradient", "laplacian"):
        a, b = getattr(jets7, k), getattr(jets1, k)
        np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-14 * np.max(np.abs(b)))
    np.testing.assert_allclose(grad7, grad1, rtol=1e-13, atol=1e-13 * np.max(np.abs(grad1)))


def test_forward_writes_into_out(monkeypatch):
    """With ``out`` the jets go into the caller's arrays, which come back
    with the numbers of new ones, whatever they held; arrays of another
    shape are refused."""
    monkeypatch.setattr(nets, "TILE", 4)
    cfg = NetConfig(2, (5, 4), 2, 3)
    p = init_params(cfg, 12)
    pts = np.random.default_rng(6).uniform(-1, 1, size=(10, 2))
    fresh = forward_jets(PassWeights.of(p), pts)
    out = Jets.empty((10, cfg.n_outputs), 2)
    for k in ("value", "gradient", "laplacian"):
        getattr(out, k)[...] = np.nan
    assert forward_jets(PassWeights.of(p), pts, out=out) is out
    for k in ("value", "gradient", "laplacian"):
        np.testing.assert_array_equal(getattr(out, k), getattr(fresh, k))
    with pytest.raises(ValueError, match="out of shapes"):
        forward_jets(PassWeights.of(p), pts[:9], out=out)


@pytest.mark.parametrize("bad", ["extra_row", "wrong_outputs"])
def test_backward_rejects_seeds_of_another_shape(bad):
    """Each tile asks the seeds for its points' rows, so a seed row beyond
    the points would be dropped without the check."""
    cfg = NetConfig(2, (4,), 2, 3)
    p = init_params(cfg, 0)
    rng = np.random.default_rng(10)
    pts = rng.uniform(-1, 1, size=(5, 2))
    if bad == "extra_row":
        seeds = _random_seeds(rng, 6, cfg)
    else:
        seeds = _random_seeds(rng, 5, NetConfig(2, (4,), 2, 4))
    with pytest.raises(ValueError, match="seeds of shape"):
        backward_jets(PassWeights.of(p), pts, forward_jets(PassWeights.of(p), pts), _Served(*seeds))


@pytest.mark.parametrize("bad", ["extra_row", "wrong_outputs", "flat_gradient"])
def test_backward_rejects_outputs_of_another_shape(bad):
    """The output layer's jets are read tile by tile from the outputs
    passed in, so outputs of other points or of another network fail."""
    cfg = NetConfig(2, (4,), 2, 3)
    p = init_params(cfg, 0)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, size=(5, 2))
    seeds = _random_seeds(rng, 5, cfg)
    if bad == "extra_row":
        outputs = forward_jets(PassWeights.of(p), rng.uniform(-1, 1, size=(6, 2)))
    elif bad == "wrong_outputs":
        outputs = forward_jets(PassWeights.of(init_params(NetConfig(2, (4,), 2, 4), 0)), pts)
    else:
        jets = forward_jets(PassWeights.of(p), pts)
        outputs = Jets(jets.value, jets.gradient[..., 0], jets.laplacian)
    with pytest.raises(ValueError, match="outputs of shapes"):
        backward_jets(PassWeights.of(p), pts, outputs, _Served(*seeds))


def _record_layers(params, points):
    """The forward of one tile as the reverse pass once recorded it: per
    layer (x, zg, zl, t, t1, t2, |zg|^2) and the stacked output jets."""
    d = points.shape[1]
    x = points
    for layer, (a, b) in enumerate(params.layers):
        if layer == 0:
            z0 = points @ a.T
            zg, zl = a.T[:, None, :], None
        else:
            z = (x.reshape(-1, a.shape[1]) @ a.T).reshape(2 + d, -1, a.shape[0])
            z0, zg, zl = z[0], z[1 : 1 + d], z[1 + d]
        z0 = z0 + b
        t = np.tanh(z0)
        t1 = 1.0 - t * t
        t2 = -2.0 * t * t1
        q = np.sum(zg * zg, axis=0)
        out = np.empty((2 + d,) + z0.shape)
        out[0] = t
        out[1 : 1 + d] = t1 * zg
        out[1 + d] = t2 * q + (0.0 if zl is None else t1 * zl)
        yield (x, zg, zl, t, t1, t2, q), out
        x = out


def _record_backward(params, points, bar_value, bar_grad, bar_lap):
    """The reverse pass through the pre-activation records, with the
    chain rule in zg, zl, t2 and t3 = -2 (t1^2 + t t2): the reference."""
    n, d = points.shape
    grads = [(np.zeros_like(a), np.zeros_like(b)) for a, b in params.layers]
    saved = [record for record, _ in _record_layers(params, points)]
    y = np.concatenate(
        [bar_value[None], np.moveaxis(bar_grad, -1, 0), bar_lap[None]], axis=0
    )
    for layer in range(len(params.layers) - 1, -1, -1):
        a = params.layers[layer][0]
        a_bar, b_bar = grads[layer]
        x, zg, zl, t, t1, t2, q = saved[layer]
        yv, yg, yl = y[0], y[1 : 1 + d], y[1 + d]
        t3 = -2.0 * (t1 * t1 + t * t2)
        z_bar = np.empty_like(y)
        z_bar[0] = yv * t1 + t2 * np.sum(yg * zg, axis=0) + yl * (
            t3 * q + (0.0 if zl is None else t2 * zl)
        )
        z_bar[1 : 1 + d] = yg * t1 + 2.0 * yl * t2 * zg
        z_bar[1 + d] = yl * t1
        b_bar += z_bar[0].sum(axis=0)
        if layer == 0:
            a_bar += z_bar[0].T @ points
            a_bar += z_bar[1 : 1 + d].sum(axis=1).T
            continue
        m_out, m_in = a.shape
        a_bar += z_bar.reshape(-1, m_out).T @ x.reshape(-1, m_in)
        y = (z_bar.reshape(-1, m_out) @ a).reshape(2 + d, -1, m_in)
    return np.concatenate([np.concatenate([a_bar.ravel(), b_bar]) for a_bar, b_bar in grads])


# the networks of the 1D and 2D benchmark workloads
NET_1D = NetConfig(1, (30, 30, 30), 10, 40)
NET_2D = NetConfig(2, (30, 30, 30), 16, 32)


@pytest.mark.parametrize(
    "cfg, tile, saturated",
    [
        pytest.param(NetConfig(dim, (7, 6, 5), 3, 4), 16, saturated, id=f"{dim}-{saturated}")
        for dim in (1, 2)
        for saturated in (False, True)
    ]
    + [
        pytest.param(NET_1D, nets.TILE, False, id="net1d"),
        pytest.param(NET_2D, nets.TILE, False, id="net2d"),
    ],
)
def test_backward_matches_the_record_reverse_pass(cfg, tile, saturated, monkeypatch):
    """The passes, NN products on A^T and GEMV sums, give the jets and the
    gradient of the record formulation, NT products ``x @ a.T`` and
    ``.sum`` over the points, with the reverse pass from the output jets
    and t1 alone: over two full tiles and a ragged one, on small networks
    and on the benchmark ones at the default tile, and on the small ones
    with units held saturated by biases of +-20 (t1 below 1e-15 there)."""
    monkeypatch.setattr(nets, "TILE", tile)
    dim = cfg.input_dim
    p = init_params(cfg, 17 + dim)
    rng = np.random.default_rng(30 + dim)
    if saturated:
        for _, b in p.layers:
            b[::2] = 20.0 * rng.choice([-1.0, 1.0], size=b[::2].shape)
    n = 2 * tile + 13
    pts = rng.uniform(-1, 1, size=(n, dim))
    seeds = _random_seeds(rng, n, cfg)
    records = list(_record_layers(p, pts))
    if saturated:
        for record, _ in records:
            assert np.all(record[4][:, ::2] < 1e-15)
    jets = forward_jets(PassWeights.of(p), pts)
    want_jets = records[-1][1]
    got_jets = (jets.value, np.moveaxis(jets.gradient, -1, 0), jets.laplacian)
    for got, want in zip(got_jets, (want_jets[0], want_jets[1 : 1 + dim], want_jets[1 + dim])):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))
    want = _record_backward(p, pts, *seeds)
    got = backward_jets(PassWeights.of(p), pts, jets, _Served(*seeds))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))


def _both_passes(cfg, n, seed):
    """The jets and the weight gradient of random seeds at n points."""
    p = init_params(cfg, seed)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(n, cfg.input_dim))
    jets = forward_jets(PassWeights.of(p), pts)
    return jets, backward_jets(PassWeights.of(p), pts, jets, _Served(*_random_seeds(rng, n, cfg)))


def _assert_same_passes(got, want):
    (jets, grad), (want_jets, want_grad) = got, want
    for k in ("value", "gradient", "laplacian"):
        assert np.array_equal(getattr(jets, k), getattr(want_jets, k))
    assert np.array_equal(grad, want_grad)


def _tile_starts(n):
    starts = range(0, n, nets.TILE)
    return starts, (len(starts) + 1) // 2


@pytest.mark.parametrize("cfg", [NET_1D, NET_2D], ids=["net1d", "net2d"])
@pytest.mark.parametrize("tiles, ragged", [(nets.SPLIT_TILES - 1, 0), (nets.SPLIT_TILES, 0),
                                           (nets.SPLIT_TILES, 37)], ids=["below", "at", "ragged"])
def test_split_passes_equal_the_serial_loop(cfg, tiles, ragged, split_worker, monkeypatch):
    """Split over the caller and the worker, the passes give the jets and
    the gradient of the serial loop bit for bit: the worker's tiles'
    gradient terms are added after the caller's, in tile order.  One tile
    short of the threshold the pass stays serial; with a ragged last tile
    the worker takes it."""
    n = tiles * nets.TILE + ragged
    split = _both_passes(cfg, n, 23)
    monkeypatch.setattr(nets, "_worker", lambda: None)
    _assert_same_passes(split, _both_passes(cfg, n, 23))
    starts, half = _tile_starts(n)
    want = [] if len(starts) < nets.SPLIT_TILES else [starts[half:]] * 2
    assert split_worker.halves == want


class _SeedError(Exception):
    pass


class _Failing(_Served):
    """Seeds that raise on the tile that starts at row ``bad`` and note the
    start of every tile they serve; each tile takes 2 ms, so that a pass
    which returned before its other half stopped would be seen."""

    def __init__(self, bad, *arrays):
        super().__init__(*arrays)
        self.bad = bad
        self.served = []

    def add(self, rows, out):
        if rows.start == self.bad:
            raise _SeedError(rows.start)
        time.sleep(0.002)
        super().add(rows, out)
        self.served.append(rows.start)


@pytest.mark.parametrize("side", ["worker", "caller"])
def test_split_backward_raises_once_both_halves_stop(side, split_worker):
    """A seed error on the first tile of either half is raised by the
    call, once the other half has served all of its tiles and not before:
    no tile writes into the caller's arrays after the call raises."""
    cfg = NET_2D
    n = nets.SPLIT_TILES * nets.TILE
    p = init_params(cfg, 4)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(n, 2))
    starts, half = _tile_starts(n)
    bad, other = (starts[half], starts[:half]) if side == "worker" else (0, starts[half:])
    seeds = _Failing(bad, *_random_seeds(rng, n, cfg))
    with pytest.raises(_SeedError):
        backward_jets(PassWeights.of(p), pts, forward_jets(PassWeights.of(p), pts), seeds)
    served = list(seeds.served)
    time.sleep(0.05)
    assert seeds.served == served == list(other)
    assert len(split_worker.halves) == 2  # the forward pass's and the backward pass's


def test_split_passes_from_concurrent_callers(split_worker, monkeypatch):
    """Three threads on two or fewer cores run split passes at once through
    the one worker, with the interpreter switching threads every 10 us:
    each gets the serial loop's jets and gradient.  A seed stack or a sum
    shared between calls or halves would lose updates here."""
    monkeypatch.setattr(nets, "_worker", lambda: None)
    want = _both_passes(NET_2D, nets.SPLIT_TILES * nets.TILE, 31)
    monkeypatch.setattr(nets, "_worker", lambda: split_worker)
    results = [None] * 3

    def run(k):
        results[k] = [_both_passes(NET_2D, nets.SPLIT_TILES * nets.TILE, 31) for _ in range(2)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for runs in results:
        for got in runs:
            _assert_same_passes(got, want)
    assert len(split_worker.halves) == 3 * 2 * 2


@pytest.fixture
def fresh_pool(monkeypatch):
    """The module's own worker made anew, with no thread started yet, as in
    a new process; shut down after the test, and the old one put back."""
    monkeypatch.setattr(nets, "_pool", nets._pool)
    nets._make_pool()
    yield
    nets._pool.shutdown(wait=True)


@pytest.mark.parametrize("cpus", [1, 8])
def test_the_pool_has_one_worker_whatever_the_cpu_count(cpus, fresh_pool, monkeypatch):
    """With 8 CPUs in the affinity, split passes start exactly one worker
    thread; with 1 none is started and the passes stay serial."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    before = set(threading.enumerate())
    for _ in range(2):
        _both_passes(NET_2D, nets.SPLIT_TILES * nets.TILE, 5)
    started = set(threading.enumerate()) - before
    assert len(started) == (cpus > 1)
    assert all(thread.name.startswith("transolve-tiles") for thread in started)


def _child_jets(params, points, conn):
    jets = forward_jets(PassWeights.of(params), points)
    workers = [t for t in threading.enumerate() if t.name.startswith("transolve-tiles")]
    conn.send((jets.value, jets.gradient, jets.laplacian, len(workers)))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_splits_passes_with_its_own_worker(fresh_pool, monkeypatch):
    """A child forked after a split pass has no copy of the parent's worker
    thread.  Its split pass starts a worker of its own, and returns the
    parent's jets within the timeout; sent to the inherited executor, it
    would wait forever."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    p = init_params(NET_2D, 6)
    pts = np.random.default_rng(6).uniform(-1, 1, size=(nets.SPLIT_TILES * nets.TILE, 2))
    want = forward_jets(PassWeights.of(p), pts)
    assert any(t.name.startswith("transolve-tiles") for t in threading.enumerate())
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_child_jets, args=(p, pts, sender))
    child.start()
    sender.close()
    try:
        assert receiver.poll(10), "the forked child's split pass did not return in 10 s"
        value, gradient, laplacian, workers = receiver.recv()
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert workers == 1
    for got, k in zip((value, gradient, laplacian), ("value", "gradient", "laplacian")):
        assert np.array_equal(got, getattr(want, k))


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
