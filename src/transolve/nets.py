"""Multi-output tanh network with exact spatial jets and a hand reverse pass.

The forward pass propagates (value, gradient, Laplacian) through each
affine+tanh layer with the exact tanh chain rule, so every output carries an
analytic spatial gradient and Laplacian.  The companion reverse pass
back-propagates adjoint seeds placed on those jets to the weights and
biases; together they support residual losses that involve Laplacians and
one-sided interface traces without any autodiff framework.

The loss reads no mixed second derivative, so none is formed: the
Laplacian of a layer's output needs only the Laplacian and the gradient of
its input ("forward Laplacian", Li et al. 2023).  The jets of a layer are
stacked into one (2 + d, J, m) array, so its affine map is a single matrix
product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NetConfig",
    "MlpParams",
    "RawJets",
    "AdamState",
    "init_params",
    "forward_jets",
    "backward_jets",
    "adam_step",
    "linear_lr",
]


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
class RawJets:
    """Values, gradients and Laplacians of all outputs at a point batch."""

    value: np.ndarray  # (J, N)
    gradient: np.ndarray  # (J, N, d)
    laplacian: np.ndarray  # (J, N)

    def rows(self, index) -> "RawJets":
        """The jets at a subset of the points (any numpy row index)."""
        return RawJets(self.value[index], self.gradient[index], self.laplacian[index])


@dataclass
class Tape:
    """Intermediates retained for the reverse pass, one entry per layer.

    Jets are stacked along a leading axis of length 2 + d: the value, the d
    gradient components, the Laplacian.
    """

    inputs: list = field(default_factory=list)  # (2+d, J, m_in) jets entering the layer
    pre: list = field(default_factory=list)  # (2+d, J, m_out) pre-activation jets
    t: list = field(default_factory=list)  # (J, m_out) tanh of the pre-activation


def forward_jets(params: MlpParams, points: np.ndarray, need_tape: bool = False):
    """Exact (value, gradient, Laplacian) of every output at every point.

    Per layer, the stacked jets X go through one product X @ A^T (the bias
    enters the value row only), then through tanh:
    value t, gradient t1 zg, Laplacian t2 |zg|^2 + t1 zl.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = params.config.input_dim
    if points.shape[1] != d:
        raise ValueError(f"points must have shape (J, {d})")
    for a, b in params.layers:
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("non-finite network parameters")
    n = points.shape[0]
    x = np.zeros((2 + d, n, d))
    x[0] = points
    for k in range(d):
        x[1 + k, :, k] = 1.0
    tape = Tape() if need_tape else None
    for a, b in params.layers:
        z = x @ a.T
        z[0] += b
        t = np.tanh(z[0])
        t1 = 1.0 - t * t
        t2 = -2.0 * t * t1
        zg = z[1 : 1 + d]
        out = np.empty_like(z)
        out[0] = t
        out[1 : 1 + d] = t1 * zg
        out[1 + d] = t2 * np.sum(zg * zg, axis=0) + t1 * z[1 + d]
        if need_tape:
            tape.inputs.append(x)
            tape.pre.append(z)
            tape.t.append(t)
        x = out
    jets = RawJets(x[0], np.moveaxis(x[1 : 1 + d], 0, -1), x[1 + d])
    return (jets, tape) if need_tape else jets


def backward_jets(
    params: MlpParams,
    tape: Tape,
    bar_value: np.ndarray,
    bar_grad: np.ndarray,
    bar_lap: np.ndarray,
) -> np.ndarray:
    """Adjoint pass: gradient of sum(bar . output jets) w.r.t. flat parameters.

    The seeds, of shapes (J, N), (J, N, d) and (J, N), are the partial
    derivatives of a scalar objective with respect to the output values,
    gradients and Laplacians produced by forward_jets on the same points.
    """
    d = params.config.input_dim
    y = np.concatenate([bar_value[None], np.moveaxis(bar_grad, -1, 0), bar_lap[None]])
    grads = []
    for layer in range(len(params.layers) - 1, -1, -1):
        a, _ = params.layers[layer]
        t, z, x = tape.t[layer], tape.pre[layer], tape.inputs[layer]
        t1 = 1.0 - t * t
        t2 = -2.0 * t * t1
        t3 = -2.0 * (t1 * t1 + t * t2)
        zg, zl = z[1 : 1 + d], z[1 + d]
        yv, yg, yl = y[0], y[1 : 1 + d], y[1 + d]

        # through the tanh: value t, gradient t1 zg, Laplacian t2 |zg|^2 + t1 zl
        z_bar = np.empty_like(y)
        z_bar[0] = (
            yv * t1
            + np.sum(yg * zg, axis=0) * t2
            + yl * (t3 * np.sum(zg * zg, axis=0) + t2 * zl)
        )
        z_bar[1 : 1 + d] = yg * t1 + (2.0 * yl * t2) * zg
        z_bar[1 + d] = yl * t1

        # through the affine map z = x A^T (+ b on the value row)
        m_out, m_in = a.shape
        a_bar = z_bar.reshape(-1, m_out).T @ x.reshape(-1, m_in)
        b_bar = z_bar[0].sum(axis=0)
        grads.append(np.concatenate([a_bar.ravel(), b_bar]))

        if layer > 0:
            y = z_bar @ a
    return np.concatenate(grads[::-1])


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
    """Linear interpolation over the iteration count (0-based iteration)."""
    frac = iteration / total if total > 0 else 1.0
    return lr_start + (lr_end - lr_start) * frac
