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

The reverse pass reads only what the forward produces: the step back
through a tanh layer needs the layer's output jets and t1 = 1 - t^2, no
pre-activation record (see `backward_jets`).  The output layer's jets are
the ones `forward_jets` returned, which the caller holds for its loss, so
`backward_jets` takes them and recomputes only the hidden layers of each
tile, back-propagates the tile at once and sums the weight gradients over
the tiles ("Training Deep Nets with Sublinear Memory Cost", Chen et al.
2016).  Its memory is a tile's, not a tape of every layer at every point.
The seeds come a tile at a time too: the caller adds each tile's rows of
them into one tile-sized stack, which the pass zeroes per tile and reads
as its input and overwrites with each layer's seeds in turn, so no seed
set of all the points is made.  `forward_jets` writes into the caller's
arrays when given them, so a caller that evaluates points of one count
again and again keeps its output arrays.

What a product of the passes costs depends on its operands' layout,
which picks the OpenBLAS kernel that runs it (Goto & van de Geijn,
"Anatomy of high-performance matrix multiplication", 2008).  Both passes
read the weights as a `PassWeights`, which lays every layer's A^T out
C-contiguous once per gradient, for its forward and its backward pass,
so a tile's products X @ A^T are NN GEMMs, about twice as fast as the NT
GEMMs of ``x @ a.T`` (`_tile_layers`).  The reverse pass's seed product
z_bar A is NN on the weights as they are stored, its weight gradient
z_bar^T X is a TN GEMM, and the sums of the bias seeds and of the first
layer's gradient rows over a tile's points are GEMVs, 1^T z_bar
(`backward_jets`).  The docstrings of both give the measured times and
the layouts that lost.

Since each tile recomputes its own forward, the tiles of a pass are
independent, and a tile's products are BLAS calls, which release the GIL.
So a pass of at least `SPLIT_TILES` tiles runs the first half of them in
the calling thread and the second half at once in the module's one
worker thread (`_over_tiles`); a shorter pass, or a process allowed one
CPU, runs the tiles in turn in the calling thread.  Each half returns
its tiles' weight-gradient terms, and `backward_jets` adds the caller's
and then the worker's into the sums in tile order: the sums of the
serial loop, bit for bit.  The comment on `SPLIT_TILES` gives the
measured threshold and why there are two threads at most.

`Jets` is the one (value, gradient, Laplacian) type of the package: the
network returns its outputs as `Jets`, the cutoff fields are `Jets`, and
`Jets.__mul__` is the one second-order product rule, which both builds the
cutoff factors and applies them to the network outputs.  Its Laplacian is
`product_laplacian`, which a caller that reads only the Laplacian calls
alone; the plus-side interface traces are the normal component of its
gradient, which `training._interface_rows` forms alone, term for term in
the same order, and the minus side's are those times the sign row of
the interface's axis (see `cutoffs`).  `Jets.adjoint` is the product's
transpose, which carries every loss row's seeds back to the network
outputs, adding them into row blocks of a backward tile's seeds.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = [
    "NetConfig",
    "MlpParams",
    "PassWeights",
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
# was slower.  Against 256, train2d-corner's raw epoch time read +2.0% at 192
# and +9.5% at 384 (medians of 10 alternating pairs, BLAS on one thread).
TILE = 256

# A pass of at least SPLIT_TILES tiles runs the first half of them in the
# calling thread and the second half at once in one worker thread
# (`_over_tiles`).  Much of a tile is short NumPy calls that hold the GIL,
# so the two threads keep about 1.4 cores busy, not 2.  A forward and
# backward pass of k tiles on the 2D benchmark network (BLAS on one
# thread) ran 11-21% faster split at k = 2 and 4..10, but only 1% at
# k = 3, whose halves are 2 tiles and 1; on the 1D one, 5% slower at
# k = 2 and 3 and 3-13% faster from k = 4.  In whole epochs the split
# gains less: split from 4 tiles, train1d-sin's 4-tile passes made its
# raw epoch 2.5% faster for 18% more CPU time.  At 8 they stay serial,
# and train2d-corner's 15-tile passes (-15% raw epoch time) split.
# There is one worker whatever the CPU count, because each tile in flight
# holds its own buffers: one tile's backward share is 1.97 MB on the batch
# of `test_gradient_keeps_no_whole_batch_tape`, whose peak with two tiles
# in flight reads 13.9-14.5 MB against its 15.68 MB bound, where a first
# pool sized from the CPU affinity read 17.6-18.3 MB with four.  Two fit
# because `_tanh_adjoint` writes its seeds over its input's and
# `_tile_terms` drops a tile's arrays as it goes; a tile's share was
# 3.15 MB before.
SPLIT_TILES = 8


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
        last leading axis, with a component-major gradient.

        The gather is the product with the (F, len(index)) one-hot matrix
        of ``index``, one GEMM per jet plane: each entry is its field's
        times 1 plus zeros, exact up to the sign of a zero, where
        ``np.take`` copied element by element.  On the tiles of `TILE`
        points that training gathers it took 36 against 69 us with the 2D
        benchmark's F = 12 factors and 22 against 54 us with the 1D one's
        F = 2 (BLAS on one thread).  A non-finite field spreads to the
        other columns of its row (0 * inf is nan)."""
        select = np.zeros((self.value.shape[-1], len(index)))  # C-ordered: the NN kernel
        select[index, np.arange(len(index))] = 1.0
        return Jets(
            self.value @ select,
            _gradient(_components(self.gradient) @ select),
            self.laplacian @ select,
        )

    @staticmethod
    def ones(shape, d: int) -> "Jets":
        """The constant field 1 on a leading shape, in d dimensions."""
        value = np.ones(shape)
        return Jets(value, np.zeros(value.shape + (d,)), np.zeros(value.shape))

    @staticmethod
    def empty(shape, d: int) -> "Jets":
        """Uninitialised arrays for fields on a leading shape, in d
        dimensions, with a component-major gradient: what `forward_jets`
        writes into."""
        return Jets(np.empty(shape), _gradient(np.empty((d,) + tuple(shape))), np.empty(shape))

    def __mul__(self, other: "Jets") -> "Jets":
        """Pointwise product by the second-order product rule:
        grad(fg) = f grad g + g grad f, lap(fg) as `product_laplacian`.
        """
        lap = self.product_laplacian(other)
        f, g = self.value, other.value
        return Jets(f * g, f[..., None] * other.gradient + g[..., None] * self.gradient, lap)

    def _check_match(self, other: "Jets") -> None:
        if self.value.shape != other.value.shape:
            raise ValueError(
                f"jets of shape {self.value.shape} and {other.value.shape} do not match"
            )

    def product_laplacian(self, other: "Jets") -> np.ndarray:
        """The Laplacian of the pointwise product alone,
        lap(fg) = f lap g + 2 grad f . grad g + g lap f."""
        self._check_match(other)
        lap = self.value * other.laplacian
        cross = _dot(self.gradient, other.gradient)
        cross *= 2.0
        lap += cross
        lap += np.multiply(other.value, self.laplacian, out=cross)
        return lap

    def adjoint(self, bar: "Jets", out: "Jets") -> "Jets":
        """Transpose of the product's derivative in its second factor.

        For seeds ``bar`` on the value, gradient and Laplacian of
        ``self * g``, the seeds on g's: the g-derivative of
        sum(bar.value * fg) + sum(bar.gradient . grad(fg)) + sum(bar.laplacian * lap(fg)).
        A seed of None is zero and costs no pass over its arrays: interior
        loss rows seed the Laplacian only, interface rows the gradient only.
        The seeds are added into ``out``, which is returned.  So several
        products' seeds sum into row blocks of one tile's seed stack, with
        no copy of their own.
        """
        f = self.value
        d = self.gradient.shape[-1]
        if bar.value is not None:
            out.value += bar.value * f
        if bar.gradient is not None:
            out.value += _dot(bar.gradient, self.gradient)
            for k in range(d):  # one plane at a time, as `_dot`
                out.gradient[..., k] += f * bar.gradient[..., k]
        if bar.laplacian is not None:
            out.value += bar.laplacian * self.laplacian
            out.laplacian += bar.laplacian * f
            twice = 2.0 * bar.laplacian
            for k in range(d):
                out.gradient[..., k] += twice * self.gradient[..., k]
        return out


def _components(gradient: np.ndarray) -> np.ndarray:
    """The (d, ...) component planes of a (..., d) gradient, a view.  A
    direct transpose: the jet passes take such views once per tile, where
    `np.moveaxis`'s axis checks cost more than the transpose itself."""
    return gradient.transpose(gradient.ndim - 1, *range(gradient.ndim - 1))


def _gradient(components: np.ndarray) -> np.ndarray:
    """The (..., d) gradient view of (d, ...) component planes, the inverse
    of `_components`."""
    return components.transpose(*range(1, components.ndim), 0)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the last (gradient) axis of a * b, one component plane at a
    time: the planes of a component-major gradient are contiguous, where an
    einsum would loop over the d components innermost."""
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
    return out


def _checked_points(config: NetConfig, points) -> np.ndarray:
    """The points as a (J, d) float array for the network of ``config``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = config.input_dim
    if points.shape[1] != d:
        raise ValueError(f"points must have shape (J, {d})")
    return points


@dataclass(frozen=True)
class PassWeights:
    """A network's weights as the jet passes read them: checked finite,
    each layer as (A, A^T, b), A^T a C-contiguous (m_in, m_out) copy.

    `forward_jets` and `backward_jets` take only these.  A caller makes
    one per set of weights (`PassWeights.of`) and hands it to every pass
    over them, so the check and the layout are paid once and not once per
    pass or per tile: `training.loss_and_param_gradient` makes one per
    gradient, read by its forward and its backward pass, and a caller that
    evaluates one tile of points at a time hands the same one to each
    tile's `forward_jets`.  The check alone took 15.7 us a call on the 2D
    benchmark network, and a loss-only pass on train2d-corner's validation
    set makes 17 forward calls.  The A^T are copies and A and b the
    weights' own, so it serves while the weights do not change.
    """

    config: NetConfig
    layers: list  # (A, A^T, b) per layer

    @classmethod
    def of(cls, params: MlpParams) -> "PassWeights":
        """The weights of ``params``; ValueError if any is not finite."""
        for a, b in params.layers:
            if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
                raise ValueError("non-finite network parameters")
        return cls(params.config, [(a, np.ascontiguousarray(a.T), b) for a, b in params.layers])


def _tile_layers(layers, points: np.ndarray):
    """The forward pass of ``layers``, (A, A^T, b) each as `PassWeights`
    lays them out, on one tile of T points.

    Yields per layer its stacked (2 + d, T, m) output jets and t1 = 1 - t^2,
    what the reverse pass reads of it.  The first layer's input is the
    (T, d) points themselves: their gradient rows are the unit vectors and
    their Laplacian 0, so its pre-activation gradient zg is the constant
    rows of A1^T, as (d, 1, m), and its zl is 0.  A caller that keeps no
    output holds one layer at a time.

    A hidden layer's product is X @ A^T, the (2 + d) T x m_in stacked jets
    times the contiguous A^T: an NN dgemm.  The same product as ``x @ a.T``
    on the (m_out, m_in) weights is an NT dgemm, which OpenBLAS (one
    thread) runs in 43.6 us on the 2D tile, (1024 x 30) (30 x 30), against
    22.8 us as NN, and in 32.8 against 17.2 us on the 1D tile of 768 rows;
    the product runs twice per tile in the forward pass and twice more in
    the backward pass's recompute.  Each layer's arrays are new per tile:
    per-layer workspaces kept across the tiles and written through
    ``matmul(..., out=...)`` ran alike on train2d-corner and made
    train1d-sin's epochs 8.5% slower, with twice the page faults.
    """
    d = points.shape[1]
    x = points
    for layer, (_, at, b) in enumerate(layers):
        if layer == 0:
            z0 = points @ at
            zg, zl = at[:, None, :], None
        else:
            z = (x.reshape(-1, at.shape[0]) @ at).reshape(2 + d, -1, at.shape[1])
            z0, zg, zl = z[0], z[1 : 1 + d], z[1 + d]
        z0 += b
        out = np.empty((2 + d,) + z0.shape)
        t = np.tanh(z0, out=out[0])
        t1 = np.multiply(t, t)
        np.subtract(1.0, t1, out=t1)
        q = zg[0] * zg[0]
        for k in range(1, d):
            q += zg[k] * zg[k]
        # t2 |zg|^2 + t1 zl with t2 = -2 t t1, as t1 (zl - 2 t |zg|^2)
        lap = np.multiply(t, q, out=out[1 + d])
        lap *= -2.0
        if zl is not None:
            lap += zl
        lap *= t1
        np.multiply(t1, zg, out=out[1 : 1 + d])
        yield out, t1
        x = out


def _check_jets(name: str, jets: Jets, shape: tuple, d: int) -> None:
    """ValueError unless ``jets`` are of the (J, N) leading ``shape`` in d
    dimensions."""
    v, g, lap = jets.value.shape, jets.gradient.shape, jets.laplacian.shape
    if v != shape or g != shape + (d,) or lap != shape:
        raise ValueError(
            f"{name} of shapes {v}, {g} and {lap} "
            f"do not match {shape}, {shape + (d,)} and {shape}"
        )


def _make_pool() -> None:
    """The one worker thread of the split passes, as an executor that
    starts it at its first task.  Made at import, and again in a forked
    child: the parent's worker thread is not in the child, so a task sent
    to the copy of its executor would wait forever."""
    global _pool
    _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="transolve-tiles")


_make_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_make_pool)


def _worker() -> ThreadPoolExecutor | None:
    """The worker, or None where the process may use one CPU only."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return _pool if (cpus or 1) > 1 else None


def _over_tiles(n: int, work) -> list:
    """Run a pass of n points over its tiles: ``work(starts)`` on all the
    tile starts in the calling thread, or, for a pass of at least
    SPLIT_TILES tiles with a worker, on the first half of them while the
    worker runs it on the second half.  Returns each half's result in tile
    order, the caller's first: one result serially, two split.  Whichever
    half raises, the call raises only once both have stopped, so no tile
    writes into the caller's arrays after it returns."""
    starts = range(0, n, TILE)
    pool = _worker() if len(starts) >= SPLIT_TILES else None
    if pool is None:
        return [work(starts)]
    half = (len(starts) + 1) // 2
    future = pool.submit(work, starts[half:])
    try:
        first = work(starts[:half])
    finally:
        wait((future,))
    return [first, future.result()]


def forward_jets(weights: PassWeights, points: np.ndarray, out: Jets | None = None) -> Jets:
    """Exact (value, gradient, Laplacian) of every output at every point.

    ``weights`` are the checked and laid-out `PassWeights` of the network.

    Per layer and tile, the stacked jets X go through one product X @ A^T
    (the bias enters the value row only), then through tanh:
    value t, gradient t1 zg, Laplacian t2 |zg|^2 + t1 zl, with
    t1 = 1 - t^2 and t2 = -2 t t1.  The jets are written into ``out``, of
    the (J, N) outputs' shape, which is returned; without it into new
    arrays (`Jets.empty`).  A caller that evaluates points of one count
    again and again keeps its arrays so.  A pass of `SPLIT_TILES` tiles or
    more writes half of them from a worker thread, and returns once both
    halves are written.
    """
    points = _checked_points(weights.config, points)
    n, d = points.shape
    shape = (n, weights.config.n_outputs)
    if out is None:
        out = Jets.empty(shape, d)
    _check_jets("out", out, shape, d)
    _over_tiles(n, partial(_forward_tiles, weights.layers, points, out))
    return out


def _forward_tiles(layers, points: np.ndarray, out: Jets, starts: range) -> None:
    """`forward_jets` on the tiles that begin at ``starts``, into ``out``."""
    d = points.shape[1]
    components = _components(out.gradient)
    for s in starts:
        for x, _ in _tile_layers(layers, points[s : s + TILE]):
            pass  # each layer's arrays are dropped as the next one is made
        out.value[s : s + TILE] = x[0]
        components[:, s : s + TILE] = x[1 : 1 + d]
        out.laplacian[s : s + TILE] = x[1 + d]


def _tanh_adjoint(y: np.ndarray, t, g, lap, t1) -> np.ndarray:
    """The seeds on a tanh layer's stacked (2 + d, T, m) pre-activation
    jets, from the seeds ``y`` on its output jets: value ``t``, gradient
    rows ``g`` (d, T, m) and Laplacian ``lap``, with t1 = 1 - t^2.  See
    `backward_jets` for the formulas.  They are written over ``y``, which
    is returned: each row is overwritten once nothing else reads it, so the
    numbers are those of a new array, and a tile holds one seed stack per
    layer, not two."""
    d = g.shape[0]
    yv, yg, yl = y[0], y[1 : 1 + d], y[1 + d]
    # value row: yv t1 - 2 t (yg . g) - 2 yl (|g|^2 + t l)
    dot = yg[0] * g[0]
    sq = g[0] * g[0]
    for k in range(1, d):
        dot += yg[k] * g[k]
        sq += g[k] * g[k]
    dot *= t
    sq += t * lap
    sq *= yl
    dot += sq
    dot *= -2.0
    yv *= t1
    yv += dot
    # gradient rows: yg t1 - 4 t yl g
    np.multiply(t, yl, out=dot)
    dot *= 4.0
    yg *= t1
    yg -= dot * g
    # Laplacian row: yl t1
    yl *= t1
    return y


def backward_jets(weights: PassWeights, points: np.ndarray, outputs: Jets, seeds) -> np.ndarray:
    """Adjoint pass: gradient of sum(seeds . output jets) w.r.t. flat parameters.

    ``weights`` are the `PassWeights` that the forward pass read, so the
    pass neither checks them nor lays out an A^T of its own, and
    ``outputs`` are the jets `forward_jets` gave at the J points.  The
    seeds, the partial derivatives of a scalar objective with respect to
    them, are served a tile at a time: ``seeds.shape`` is the (J, N) they
    cover, and ``seeds.add(rows, out)`` adds those of the points ``rows``
    (a slice) into ``out``, a `Jets` view with a component-major gradient
    of the tile's (2 + d, T, N) seed stack, zeroed before the call.  That
    stack is made once and is the reverse pass's input, so no seed array
    spans the J points and none is copied into the tile.  Each tile's
    hidden layers are recomputed, the output layer's jets read from
    ``outputs``, the tile back-propagated at once, and the weight gradients
    summed over the tiles, in tile order also when the pass is split over
    two threads (`SPLIT_TILES`): each half returns its terms, and the
    caller's are added before the worker's.

    A layer's output is t = tanh z, g = t1 zg and l = t2 |zg|^2 + t1 zl,
    with t1 = 1 - t^2, t2 = -2 t t1 and t3 = t2' = -2 (t1^2 + t t2).  The
    chain rule gives the pre-activation seeds
    z_v = y_v t1 + t2 (y_g . zg) + y_l (t3 |zg|^2 + t2 zl),
    z_g = y_g t1 + 2 y_l t2 zg and z_l = y_l t1.  In the output jets,
    t2 zg = -2 t g, and t3 |zg|^2 + t2 zl = -2 |g|^2 - 2 t l: the terms in
    1/t1 that zg = g / t1 would bring cancel exactly.  So
        z_v = y_v t1 - 2 t (y_g . g) - 2 y_l (|g|^2 + t l),
        z_g = y_g t1 - 4 t y_l g,
        z_l = y_l t1,
    which read a layer's output jets and t1 alone, saturated units
    (t1 = 0) included.

    Per tile and layer, with Z_bar the (2 + d) T x m_out seeds and X the
    layer's (2 + d) T x m_in input, the products are BLAS calls (OpenBLAS,
    one thread, T = 256 and m = 30; 2D times, 1D in parentheses):
    the recompute's X @ A^T, an NN dgemm as in the forward pass
    (`_tile_layers`); the weight gradient Z_bar^T X, a TN dgemm, 32.4 us
    (24.2 us); the input seeds Z_bar A, NN on the stored weights, 22.9 us
    (17.3 us); the bias gradient 1^T z_v_bar, a dgemv, 1.6 us against
    5.6 us for ``z_bar[0].sum(axis=0)``; and on the first layer the
    gradient rows' sums 1^T z_g_bar, 2.8 us against 10.5 us for
    ``.sum(axis=1)`` (1.8 against 5.8 us).  The sums move the gradient
    by rounding alone.  Two other layouts were tried in train2d-corner
    epochs (sets of 10 alternating pairs).  The weight gradient as
    (X^T Z_bar)^T ran alike in isolation, 32.4 us, and two sets read a raw
    epoch time -2.0% and +0.1%, within their spread, so the plain form
    stays.  The seeds as (A^T Z_bar^T)^T take 29.2 us in isolation and
    read +33%.
    """
    points = _checked_points(weights.config, points)
    n, d = points.shape
    shape = (n, weights.config.n_outputs)
    _check_jets("outputs", outputs, shape, d)
    if tuple(seeds.shape) != shape:
        raise ValueError(f"seeds of shape {tuple(seeds.shape)} do not match {shape}")
    layers = weights.layers
    grads = [np.zeros_like(w) for a, _, b in layers for w in (a, b)]
    for terms in _over_tiles(n, partial(_tile_gradients, layers, points, outputs, seeds)):
        for i, term in terms:
            grads[i] += term
    return np.concatenate([g.ravel() for g in grads])


def _tile_gradients(layers, points: np.ndarray, outputs: Jets, seeds, starts: range) -> list:
    """The reverse pass of `backward_jets` on the tiles that begin at
    ``starts``.  Returns each weight-gradient term as (i, term), i its
    array's place in the flat [A1, b1, A2, b2, ...] order, in the order
    they are summed: tile by tile, the output layer first.  The tile seed
    stack and the ones of the GEMV sums are made once per call."""
    n, d = points.shape
    components = _components(outputs.gradient)
    tile_seeds = np.empty((2 + d, min(TILE, n), outputs.value.shape[1]))
    ones = np.ones(min(TILE, n))
    terms = []
    for s in starts:
        rows = slice(s, min(s + TILE, n))
        y = tile_seeds[:, : rows.stop - s]
        y.fill(0.0)
        seeds.add(rows, Jets(y[0], _gradient(y[1 : 1 + d]), y[1 + d]))
        top = (outputs.value[rows], components[:, rows], outputs.laplacian[rows])
        terms.extend(_tile_terms(layers, points[rows], y, top, ones))
    return terms


def _tile_terms(layers, pts: np.ndarray, y: np.ndarray, top: tuple, ones: np.ndarray):
    """`_tile_gradients` on one tile of points ``pts``, from the seeds ``y``
    on its output jets ``top``: value, (d, T, N) gradient rows and
    Laplacian.  Each hidden layer's recomputed jets are dropped once the
    pass is below them, and all of the tile's arrays when it ends."""
    d = pts.shape[1]
    saved = list(_tile_layers(layers[:-1], pts))
    sums = ones[: len(pts)]
    for layer in range(len(layers) - 1, -1, -1):
        if layer == len(layers) - 1:
            t, g, lap = top
            t1 = 1.0 - t * t
        else:
            out, t1 = saved.pop()
            t, g, lap = out[0], out[1 : 1 + d], out[1 + d]
        z_bar = _tanh_adjoint(y, t, g, lap, t1)

        # through the affine map z = x A^T (+ b on the value row)
        yield 2 * layer + 1, sums @ z_bar[0]
        if layer == 0:
            # the points' own jets: value rows x, gradient rows e_k, Laplacian 0
            yield 0, z_bar[0].T @ pts
            yield 0, (sums @ z_bar[1 : 1 + d]).T
            return
        a = layers[layer][0]
        m_out, m_in = a.shape
        x = saved[-1][0]
        yield 2 * layer, z_bar.reshape(-1, m_out).T @ x.reshape(-1, m_in)
        y = (z_bar.reshape(-1, m_out) @ a).reshape(2 + d, -1, m_in)


@dataclass
class AdamState:
    """First/second moment accumulators aligned with the flat layout."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n_params: int) -> "AdamState":
        return cls(np.zeros(n_params), np.zeros(n_params), 0)


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(state: AdamState, flat_params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """One Adam update with bias correction; mutates the state, returns params."""
    state.t += 1
    state.m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * grad
    state.v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * grad * grad
    m_hat = state.m / (1 - ADAM_BETA1**state.t)
    v_hat = state.v / (1 - ADAM_BETA2**state.t)
    return flat_params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def linear_lr(lr_start: float, lr_end: float, iteration: int, total: int) -> float:
    """Linear interpolation over the iteration count (0-based iteration),
    held at lr_end past the schedule."""
    frac = min(max(iteration / total, 0.0), 1.0) if total > 0 else 1.0
    return lr_start + (lr_end - lr_start) * frac
