"""Multi-output tanh network with exact spatial jets and a hand reverse pass.

The forward pass propagates (value, gradient, Laplacian) through each
affine+tanh layer with the exact tanh chain rule, so every output carries an
analytic spatial gradient and Laplacian.  The companion reverse pass
back-propagates adjoint seeds placed on those jets to the weights and
biases; together they support residual losses that involve Laplacians and
one-sided interface traces without any autodiff framework.

The loss reads no mixed second derivative, so none is formed: the
Laplacian of a layer's output needs only the Laplacian and the gradient of
its input ("forward Laplacian", Li et al. 2023).  Both passes walk the
points in tiles of `TILE` points.  In a tile the jets of a layer are
stacked into one (2 + d, T, m) array, so its affine map is a single matrix
product, and every buffer of the tile stays in cache.  The first layer is
done analytically: the points' own gradient rows are the unit vectors and
their Laplacian is 0, so its pre-activation gradient is the columns of A1
and one (T, d) x (d, m) product gives its value row.

Nothing is kept from `forward_jets` for the reverse pass: `backward_jets`
takes the points themselves, recomputes each tile's forward (keeping t,
t1, t2 and |zg|^2 of every layer for the tile), back-propagates it at once
and sums the weight gradients over the tiles ("Training Deep Nets with
Sublinear Memory Cost", Chen et al. 2016).  Its memory is a tile's, not a
tape of every layer at every point.

`Jets` is the one (value, gradient, Laplacian) type of the package: the
network returns its outputs as `Jets`, the cutoff fields are `Jets`, and
`Jets.__mul__` is the one second-order product rule, which both builds the
cutoff factors and applies them to the network outputs, interior and
one-sided interface factors alike.  Its Laplacian is `product_laplacian`,
which a caller that reads only the Laplacian calls alone; `Jets.adjoint` is
the product's transpose, which carries every loss row's seeds back to the
network outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NetConfig",
    "MlpParams",
    "Jets",
    "AdamState",
    "init_params",
    "forward_jets",
    "backward_jets",
    "adam_step",
    "linear_lr",
]

# Points per tile of the jet passes, so that a tile's per-layer buffers stay
# in cache: with the 2D benchmark's network 128 and 256 ran alike and 512
# was slower.
TILE = 256


@dataclass(frozen=True)
class NetConfig:
    input_dim: int
    hidden: tuple[int, ...]
    n1: int
    n2: int

    def __post_init__(self):
        if self.input_dim not in (1, 2):
            raise ValueError("input dimension must be 1 or 2")
        if any(w < 1 for w in self.hidden) or self.n1 < 1 or self.n2 < 1:
            raise ValueError("all widths must be >= 1")

    @property
    def n_outputs(self) -> int:
        return self.n1 + self.n2

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.n_outputs)


@dataclass
class MlpParams:
    """Per-layer weights/biases; flat layout is [A1, b1, A2, b2, ...]."""

    config: NetConfig
    layers: list[tuple[np.ndarray, np.ndarray]]

    @property
    def n_params(self) -> int:
        return sum(a.size + b.size for a, b in self.layers)

    def to_flat(self) -> np.ndarray:
        return np.concatenate([np.concatenate([a.ravel(), b]) for a, b in self.layers])

    @classmethod
    def from_flat(cls, config: NetConfig, flat: np.ndarray) -> "MlpParams":
        widths = config.widths
        layers = []
        pos = 0
        for m_in, m_out in zip(widths[:-1], widths[1:]):
            a = flat[pos : pos + m_in * m_out].reshape(m_out, m_in)
            pos += m_in * m_out
            b = flat[pos : pos + m_out]
            pos += m_out
            layers.append((a.copy(), b.copy()))
        if pos != flat.size:
            raise ValueError("flat vector length does not match the configuration")
        return cls(config, layers)


def init_params(config: NetConfig, seed: int) -> MlpParams:
    """Glorot-uniform weights, zero biases, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    layers = []
    widths = config.widths
    for m_in, m_out in zip(widths[:-1], widths[1:]):
        limit = np.sqrt(6.0 / (m_in + m_out))
        a = rng.uniform(-limit, limit, size=(m_out, m_in))
        layers.append((a, np.zeros(m_out)))
    return MlpParams(config, layers)


@dataclass
class Jets:
    """Values, gradients and Laplacians of fields at a point batch.

    The leading shape (...) is any, points first: (J,) for one scalar
    field, (J, N) for N fields.  The gradient adds a trailing axis of
    length d.  Where many fields are made at once (the network's outputs,
    the gathered cutoff factors) the gradient is component-major, a view
    of a (d, ...) array, so that its products with (...)-shaped arrays run
    over contiguous planes; the numbers do not depend on the layout.
    """

    value: np.ndarray  # (...)
    gradient: np.ndarray  # (..., d)
    laplacian: np.ndarray  # (...)

    def rows(self, index) -> "Jets":
        """The jets at a subset of the points, or of the fields (any numpy
        index into the leading axes)."""
        return Jets(self.value[index], self.gradient[index], self.laplacian[index])

    def columns(self, index: np.ndarray) -> "Jets":
        """A copy of the fields at the integer positions ``index`` of the
        last leading axis, with a component-major gradient."""
        components = np.moveaxis(self.gradient, -1, 0)
        return Jets(
            np.take(self.value, index, axis=-1),
            np.moveaxis(np.take(components, index, axis=-1), 0, -1),
            np.take(self.laplacian, index, axis=-1),
        )

    @staticmethod
    def ones(shape, d: int) -> "Jets":
        """The constant field 1 on a leading shape, in d dimensions."""
        value = np.ones(shape)
        return Jets(value, np.zeros(value.shape + (d,)), np.zeros(value.shape))

    def __mul__(self, other: "Jets") -> "Jets":
        """Pointwise product by the second-order product rule:
        grad(fg) = f grad g + g grad f, lap(fg) as `product_laplacian`.
        """
        lap = self.product_laplacian(other)
        f, g = self.value, other.value
        return Jets(f * g, f[..., None] * other.gradient + g[..., None] * self.gradient, lap)

    def product_laplacian(self, other: "Jets") -> np.ndarray:
        """The Laplacian of the pointwise product alone,
        lap(fg) = f lap g + 2 grad f . grad g + g lap f."""
        if self.value.shape != other.value.shape:
            raise ValueError(
                f"jets of shape {self.value.shape} and {other.value.shape} do not match"
            )
        lap = self.value * other.laplacian
        cross = _dot(self.gradient, other.gradient)
        cross *= 2.0
        lap += cross
        lap += np.multiply(other.value, self.laplacian, out=cross)
        return lap

    def adjoint(self, bar: "Jets") -> "Jets":
        """Transpose of the product's derivative in its second factor.

        For seeds ``bar`` on the value, gradient and Laplacian of
        ``self * g``, the seeds on g's: the g-derivative of
        sum(bar.value * fg) + sum(bar.gradient . grad(fg)) + sum(bar.laplacian * lap(fg)).
        A value or gradient seed of None is zero and costs no pass over
        its arrays: interior loss rows seed the Laplacian only, interface
        rows the gradient and no value.
        """
        f = self.value
        value = bar.laplacian * self.laplacian
        if bar.value is not None:
            value += bar.value * f
        gradient = 2.0 * bar.laplacian[..., None] * self.gradient
        if bar.gradient is not None:
            value += _dot(bar.gradient, self.gradient)
            gradient += f[..., None] * bar.gradient
        return Jets(value, gradient, bar.laplacian * f)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the last (gradient) axis of a * b, one component plane at a
    time: the planes of a component-major gradient are contiguous, where an
    einsum would loop over the d components innermost."""
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
    return out


def _checked_points(params: MlpParams, points) -> np.ndarray:
    """The points as a (J, d) float array, once the weights are finite."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = params.config.input_dim
    if points.shape[1] != d:
        raise ValueError(f"points must have shape (J, {d})")
    for a, b in params.layers:
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("non-finite network parameters")
    return points


def _tile_layers(params: MlpParams, points: np.ndarray):
    """The forward pass of one tile of T points, layer by layer.

    Yields per layer what the reverse pass reads, (x, zg, zl, t, t1, t2, q):
    the layer's input, the gradient and Laplacian rows zg and zl of its
    pre-activation, and t, t1, t2 and |zg|^2; and with it the layer's
    stacked (2 + d, T, m) output jets.  The first layer's input is the
    (T, d) points themselves: their gradient rows are the unit vectors and
    their Laplacian 0, so its zg is the constant columns of A1, as
    (d, 1, m), and its zl is None.  A caller that keeps no record holds
    one layer at a time.
    """
    d = points.shape[1]
    x = points
    for layer, (a, b) in enumerate(params.layers):
        if layer == 0:
            z0 = points @ a.T
            zg, zl = a.T[:, None, :], None
        else:
            z = (x.reshape(-1, a.shape[1]) @ a.T).reshape(2 + d, -1, a.shape[0])
            z0, zg, zl = z[0], z[1 : 1 + d], z[1 + d]
        z0 += b
        out = np.empty((2 + d,) + z0.shape)
        t = np.tanh(z0, out=out[0])
        t1 = np.multiply(t, t)
        np.subtract(1.0, t1, out=t1)
        t2 = np.multiply(t, -2.0)
        t2 *= t1
        q = zg[0] * zg[0]
        for k in range(1, d):
            q += zg[k] * zg[k]
        np.multiply(t1, zg, out=out[1 : 1 + d])
        lap = np.multiply(t2, q, out=out[1 + d])
        if zl is not None:
            lap += t1 * zl
        yield (x, zg, zl, t, t1, t2, q), out
        x = out


def forward_jets(params: MlpParams, points: np.ndarray) -> Jets:
    """Exact (value, gradient, Laplacian) of every output at every point.

    Per layer and tile, the stacked jets X go through one product X @ A^T
    (the bias enters the value row only), then through tanh:
    value t, gradient t1 zg, Laplacian t2 |zg|^2 + t1 zl.
    """
    points = _checked_points(params, points)
    n, d = points.shape
    shape = (n, params.config.n_outputs)
    value, components, laplacian = np.empty(shape), np.empty((d,) + shape), np.empty(shape)
    for s in range(0, n, TILE):
        for _, x in _tile_layers(params, points[s : s + TILE]):
            pass  # each layer's arrays are dropped as the next one is made
        value[s : s + TILE] = x[0]
        components[:, s : s + TILE] = x[1 : 1 + d]
        laplacian[s : s + TILE] = x[1 + d]
    return Jets(value, np.moveaxis(components, 0, -1), laplacian)


def backward_jets(
    params: MlpParams,
    points: np.ndarray,
    bar_value: np.ndarray,
    bar_grad: np.ndarray,
    bar_lap: np.ndarray,
) -> np.ndarray:
    """Adjoint pass: gradient of sum(bar . output jets) w.r.t. flat parameters.

    The seeds, of shapes (J, N), (J, N, d) and (J, N), are the partial
    derivatives of a scalar objective with respect to the output values,
    gradients and Laplacians that forward_jets gives at the J points.  Each
    tile's forward is recomputed and back-propagated at once, and the
    weight gradients are summed over the tiles.
    """
    points = _checked_points(params, points)
    n, d = points.shape
    shape = (n, params.config.n_outputs)
    if bar_value.shape != shape or bar_grad.shape != shape + (d,) or bar_lap.shape != shape:
        raise ValueError(
            f"seeds of shapes {bar_value.shape}, {bar_grad.shape} and {bar_lap.shape} "
            f"do not match {shape}, {shape + (d,)} and {shape}"
        )
    grads = [(np.zeros_like(a), np.zeros_like(b)) for a, b in params.layers]
    for s in range(0, n, TILE):
        pts = points[s : s + TILE]
        saved = [record for record, _ in _tile_layers(params, pts)]
        y = np.empty((2 + d, len(pts), shape[1]))
        y[0] = bar_value[s : s + TILE]
        y[1 : 1 + d] = np.moveaxis(bar_grad[s : s + TILE], -1, 0)
        y[1 + d] = bar_lap[s : s + TILE]
        for layer in range(len(params.layers) - 1, -1, -1):
            a = params.layers[layer][0]
            a_bar, b_bar = grads[layer]
            x, zg, zl, t, t1, t2, q = saved[layer]
            yv, yg, yl = y[0], y[1 : 1 + d], y[1 + d]

            # through the tanh: value t, gradient t1 zg, Laplacian t2 |zg|^2 + t1 zl
            z_bar = np.empty_like(y)
            zv_bar = np.multiply(yv, t1, out=z_bar[0])
            tmp = yg[0] * zg[0]
            for k in range(1, d):
                tmp += yg[k] * zg[k]
            tmp *= t2
            zv_bar += tmp  # + t2 (yg . zg)
            np.multiply(t1, t1, out=tmp)
            tmp += t * t2
            tmp *= -2.0  # t3, the derivative of t2: -2 (t1^2 + t t2)
            tmp *= q
            if zl is not None:
                tmp += t2 * zl
            tmp *= yl
            zv_bar += tmp  # + yl (t3 |zg|^2 + t2 zl)
            zg_bar = np.multiply(yg, t1, out=z_bar[1 : 1 + d])
            np.multiply(yl, t2, out=tmp)
            tmp *= 2.0
            zg_bar += tmp * zg  # + 2 yl t2 zg

            # through the affine map z = x A^T (+ b on the value row)
            b_bar += zv_bar.sum(axis=0)
            if layer == 0:
                # the points' own jets: value rows x, gradient rows e_k, Laplacian 0
                a_bar += zv_bar.T @ pts
                a_bar += z_bar[1 : 1 + d].sum(axis=1).T
                continue
            np.multiply(yl, t1, out=z_bar[1 + d])
            m_out, m_in = a.shape
            a_bar += z_bar.reshape(-1, m_out).T @ x.reshape(-1, m_in)
            y = (z_bar.reshape(-1, m_out) @ a).reshape(2 + d, -1, m_in)
    return np.concatenate([np.concatenate([a_bar.ravel(), b_bar]) for a_bar, b_bar in grads])


@dataclass
class AdamState:
    """First/second moment accumulators aligned with the flat layout."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n_params: int) -> "AdamState":
        return cls(np.zeros(n_params), np.zeros(n_params), 0)


def adam_step(
    state: AdamState,
    flat_params: np.ndarray,
    grad: np.ndarray,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> np.ndarray:
    """One Adam update with bias correction; mutates the state, returns params."""
    state.t += 1
    state.m = beta1 * state.m + (1 - beta1) * grad
    state.v = beta2 * state.v + (1 - beta2) * grad * grad
    m_hat = state.m / (1 - beta1**state.t)
    v_hat = state.v / (1 - beta2**state.t)
    return flat_params - lr * m_hat / (np.sqrt(v_hat) + eps)


def linear_lr(lr_start: float, lr_end: float, iteration: int, total: int) -> float:
    """Linear interpolation over the iteration count (0-based iteration),
    held at lr_end past the schedule."""
    frac = min(max(iteration / total, 0.0), 1.0) if total > 0 else 1.0
    return lr_start + (lr_end - lr_start) * frac
