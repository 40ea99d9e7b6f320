"""Training loop: sample, solve the per-parameter LS systems, step the net.

Each epoch draws a parameter batch and fresh collocation points, solves the
angular eigenproblems the batch needs (2D) in one `eigen.solve_eigenpairs`
call, one LAPACK call per system, that gives one stacked `EigenModes`, of
which `select_singular` keeps each system's singular modes as a view of
their rows, and evaluates the network's jets
(`nets.Jets`) once at all interior and interface points; the validation
set is the same draw (`_draw`) from streams of its own.  Only what the
loss reads is composed with the cutoff factors: the interior
Laplacians of the product ``fac * raw`` (`Jets.product_laplacian`), the
factors gathered from the distinct stack of `cutoffs.composition_factors`,
and the plus-side interface traces n . grad(F * raw), formed from the
normal components of the factors from `cutoffs.interface_trace_factors`
and of the network jets alone, in `Jets.__mul__`'s order (see
`_interface_rows`), both gathered with one
`cutoffs.factor_index` per composition.  Each point set's vertex-disk
table (`singular.polar_cache`), the disk rows, radius and eta about each
junction, is built once: the interior points' by `_composed_cache` (and
`QueryBasis.build`), which hands it to both the factor stack and the epoch
cache, where the singular columns read it, and the interface points' by
`_interface_rows`.  The minus-side traces are the
plus side's times a sign, -1 where the factor vanishes on the point's own
line and +1 elsewhere, so one product and one trace serve both sides.
The sign depends on the line's axis alone: the epoch cache keeps that
trace and, with each interface's run of rows, the sign row of its axis,
and no minus-side array is stored.  The singular sources of the whole
batch are one dense (P, R, M) block on the R annulus points, built in one
`singular_evals_from_cache` call: its M columns are slots laid out vertex
by vertex, zero where a parameter has fewer modes at a vertex than the
batch's most.  The sampled points come grouped, by subdomain and by
interface, and the composed Laplacians are written into the first N
columns of the cache's (J1, N + 2) interior rows, beside the source's two
factors.
`assembly.solve_parameter_batch` solves every parameter's least-squares
system block by block, then forms the residuals of the whole batch one
run of equal subdomain at a time, then the jump rows', and writes the row
adjoints from them: (J1, N) for the Laplacians and (J2, N) for the trace,
which the minus side's seeds reach through the sign.  The mean squared
residual is back-propagated with the solved coefficients held fixed (the
derivative of a minimum is the partial derivative at the minimizer).  One
`nets.backward_jets` pass goes over every point in the order
`forward_jets` saw them, tile by tile, reading the output jets the forward
gave and recomputing only the hidden layers, from the one
`nets.PassWeights` that the gradient's forward pass read: the weights are
checked and laid out once per gradient.  It asks `_ComposedSeeds` for
each tile's seeds, which takes the tile's rows of the scaled adjoints
through `Jets.adjoint` (the product's transpose) into the tile's seed
stack, so no seed set of the whole batch is made.  Adam with a linearly
interpolated learning rate closes the loop.  Validation runs the same
path without the adjoints or the whole-batch jets: it evaluates the
network one tile of interior points at a time, composes that tile's
Laplacians and drops its jets, then evaluates the interface points, so no
(J1 + J2, N) jets exist; the weights are checked and laid out once for
the pass, not once per tile.  A point's jets depend
on its tile only through rounding (the interface points alone round apart
from inside the last interior tile), so the loss agrees with the gradient
path's to rounding, and bit for bit only where the tiles round alike: on
the 1D benchmark's network the ill-conditioned solve amplifies that one
rounding to about 1e-9 of the loss.

Everything that outlives a call lives in one holder per thread, `_kept`,
so that trainings in two threads share no arrays.  The arrays whose
shapes the configuration fixes, the network's output jets, the composed
Laplacian that the cache weights in place and the two row adjoints, are
written by `forward_jets`, the composition and `solve_parameter_batch`
into arrays that `run_epoch` keeps in the calling thread's holder from one
epoch to the next, so that an epoch reuses memory the last one touched
rather than making, freeing and faulting it in again.  Validation and
direct callers of `loss_and_param_gradient` get fresh arrays.

Queries are split into an offline and an online stage.  Offline,
`QueryBasis.build` does everything about a midpoint grid that does not
depend on the parameter, once per trained network: the quadrature, the
weighted rows with their Gram blocks and polar cache, and the composed
basis values and gradients.  The grid may be much finer than the training
points, so the build composes one tile of `nets.TILE` points at a time,
from weights checked once for the build, into arrays made once, and hands
its Laplacian, the first N columns of the interior rows, to the cache,
which weights it in place.  Online, `QueryBasis.solve` takes one
parameter through one eigensolve, one `solve_parameter_batch` on its
batch of one, whose singular slots its own modes fill, and one GEMM per
field, plus
`singular.eval_s` when it has singular columns: the paper's
low-dimensional least-squares problem per parameter.  The singular columns
stay on their support rows throughout: their sources on the annulus rows of
the polar cache, and their values and gradients on its disk rows, so the
singular work of a query grows with the junction annuli and disks, not with
the grid.  `final_solve` solves against the one basis it holds between
calls, the calling thread's holder's ``"basis"`` entry, rebuilt when the
weights, grid or problem change and popped when an epoch of that thread
starts; a build first empties the holder, so the basis and an epoch's kept
arrays are never alive together in one thread.
Checkpoints are ``.npz`` arrays with a JSON header and load without
unpickling anything.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, field, fields

import numpy as np

# assemble_system and solve_normal_equations are the explicit reference, and
# angular_trace the per-vertex form of the trace gather; none is called
# here, but perfbench/spans.py looks up every layer it times, these three
# included, on this module.
from .assembly import (  # noqa: F401
    CoefficientVector,
    EpochCache,
    SolveError,
    assemble_system,
    build_epoch_cache,
    evaluate_solution,
    solve_normal_equations,
    solve_parameter_batch,
)
from .cutoffs import (
    CutoffConfig,
    composition_factors,
    default_cutoff_config,
    factor_index,
    interface_trace_factors,
)
from .eigen import assemble_eigensystem, select_singular, solve_eigenpairs
from .geometry import (  # noqa: F401
    Geometry,
    angular_trace,
    validate_parameter,
    validate_parameter_batch,
)
from .nets import (
    TILE,
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
from .reference import RhsSpec
from .sampling import QuadratureSet, midpoint_grid, sample_collocation, sample_parameters
from .singular import PolarCache, eval_s, polar_cache, singular_evals_from_cache

__all__ = [
    "Seeds",
    "TrainConfig",
    "TrainState",
    "EpochData",
    "EpochError",
    "init_train_state",
    "prepare_epoch",
    "loss_and_param_gradient",
    "run_epoch",
    "train",
    "QueryBasis",
    "final_solve",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 2
# extra points per axis (and, in 2D, per interface) of the validation set
VALIDATION_EXTRA = 3


@dataclass(frozen=True)
class Seeds:
    params: int = 0
    interior: int = 1
    interface: int = 2
    init: int = 3

    def stream(self, which: str) -> np.random.Generator:
        base = getattr(self, which)
        return np.random.default_rng(np.random.SeedSequence((base, 0x5EED)))

    def validation_stream(self, which: str) -> np.random.Generator:
        base = getattr(self, which)
        return np.random.default_rng(np.random.SeedSequence((base, 0xA11)))


@dataclass
class TrainConfig:
    iterations: int
    lr_start: float
    lr_end: float
    theta: float
    n_params: int
    n_interior: int
    n_interface: int
    p_min: float
    p_max: float
    n_singular: int = 1
    seeds: Seeds = field(default_factory=Seeds)
    val_every: int = 10

    def __post_init__(self):
        """Checks every field and stores counts and seeds as ``int`` and
        reals as ``float``, so that a config given NumPy scalars saves to
        JSON."""
        counts = ("iterations", "n_params", "n_interior", "n_interface", "n_singular", "val_every")
        reals = ("lr_start", "lr_end", "theta", "p_min", "p_max")
        if not isinstance(self.seeds, Seeds):
            raise ValueError(f"seeds must be a Seeds, not {self.seeds!r}")
        seeds, integer, number = asdict(self.seeds), (int, np.integer), (float, np.floating)
        # vars(self) holds this config's fields by name: each is written back cast
        for values, names, kinds, cast in ((vars(self), counts, integer, int),
                                           (vars(self), reals, integer + number, float),
                                           (seeds, list(seeds), integer, int)):
            for name in names:
                if isinstance(values[name], bool) or not isinstance(values[name], kinds):
                    what = "an integer" if cast is int else "a number"
                    raise ValueError(f"{name} must be {what}, not {values[name]!r}")
                values[name] = cast(values[name])
        self.seeds = Seeds(**seeds)
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if not (np.isfinite(self.lr_start) and self.lr_start >= self.lr_end > 0):
            raise ValueError("learning rates must be finite with lr_start >= lr_end > 0")
        if not (np.isfinite(self.theta) and self.theta >= 0):
            raise ValueError("theta must be finite and nonnegative")
        if min(self.n_params, self.n_interior, self.n_interface) < 1:
            raise ValueError("n_params, n_interior and n_interface must be at least 1")
        if not 0 < self.p_min <= self.p_max < np.inf:
            raise ValueError("the parameter range must satisfy 0 < p_min <= p_max < inf")
        if self.val_every < 1:
            raise ValueError("val_every must be at least 1")
        if min(self.n_singular, *seeds.values()) < 0:
            raise ValueError("n_singular and the seeds must be nonnegative")


@dataclass
class TrainState:
    params: MlpParams
    adam: AdamState
    iteration: int
    rng_params: np.random.Generator
    rng_interior: np.random.Generator
    rng_interface: np.random.Generator
    best_val: tuple[float, np.ndarray, int] | None = None


class EpochError(RuntimeError):
    """LS or eigen failure, tagged with the epoch and parameter index."""

    def __init__(self, epoch: int, param_index: int | None, message: str):
        self.epoch = epoch
        self.param_index = param_index
        where = f"epoch {epoch}" + ("" if param_index is None else f", parameter {param_index}")
        super().__init__(f"{where}: {message}")


@dataclass
class EpochData:
    """One epoch's parameter batch, quadrature and singular data."""

    geometry: Geometry
    cutoff_config: CutoffConfig
    rhs: RhsSpec
    quad: QuadratureSet
    parameters: np.ndarray  # (P, I)
    pairs_per_p: list  # [k][vertex]: the selected EigenModes rows (2D), see vertex_eigenpairs
    theta: float


def init_train_state(geometry: Geometry, net_config: NetConfig, config: TrainConfig) -> TrainState:
    """A fresh state; raises ValueError when the layout cannot compose
    ``net_config``'s outputs (`factor_index`)."""
    factor_index(geometry, net_config.n1, net_config.n2)
    params = init_params(net_config, config.seeds.init)
    return TrainState(
        params=params,
        adam=AdamState.zeros(params.n_params),
        iteration=0,
        rng_params=config.seeds.stream("params"),
        rng_interior=config.seeds.stream("interior"),
        rng_interface=config.seeds.stream("interface"),
    )


def vertex_eigenpairs(geometry: Geometry, parameters, n_singular: int):
    """Selected singular modes per parameter and vertex, ``[k][vertex]``.

    The batch is validated once, and the angular traces of all P
    parameters at all N_s vertices are one gather through the geometry's
    vertex-to-sector table, a (P, N_s, 4) stack solved by one
    `solve_eigenpairs` call into one `EigenModes` of (P, N_s, 16) arrays.  One
    `select_singular` per parameter and vertex keeps at most
    ``n_singular`` modes of ``modes[k, v]``, a view of the stack's rows:
    no mode is copied here.  A parameter row at fault raises
    ParameterError naming it, a failed eigensolve ValueError.
    """
    parameters = np.asarray(parameters, dtype=float)
    n_p = parameters.shape[0]
    if geometry.n_singular == 0:
        return [[] for _ in range(n_p)]
    parameters = validate_parameter_batch(geometry, parameters)
    modes = solve_eigenpairs(assemble_eigensystem(parameters[:, geometry.vertex_sectors]))
    return [[select_singular(modes[k, v], n_singular) for v in range(geometry.n_singular)]
            for k in range(n_p)]


def _draw(geometry, config: TrainConfig, rng_params, rng_interior, rng_interface, extra: int):
    """(quad, parameters, pairs_per_p): the configured parameter batch with
    its eigenpairs, and points ``extra`` more per axis and per interface
    than configured (a 1D interface is its cut, whatever the count)."""
    parameters = sample_parameters(
        rng_params, config.n_params, geometry.n_subdomains, config.p_min, config.p_max
    )
    quad = sample_collocation(
        geometry, config.n_interior + extra, config.n_interface + extra, rng_interior,
        rng_interface=rng_interface,
    )
    return quad, parameters, vertex_eigenpairs(geometry, parameters, config.n_singular)


def prepare_epoch(
    state: TrainState, config: TrainConfig, geometry: Geometry, rhs: RhsSpec,
    cutoff_config: CutoffConfig,
) -> EpochData:
    """Sample the batch and fresh points; solve the eigenproblems it needs."""
    quad, parameters, pairs_per_p = _draw(
        geometry, config, state.rng_params, state.rng_interior, state.rng_interface, 0
    )
    return EpochData(geometry, cutoff_config, rhs, quad, parameters, pairs_per_p, config.theta)


def _tiles(n: int) -> list[slice]:
    """The row slices of `TILE` points that cover n points, the last one
    ragged."""
    return [slice(s, min(s + TILE, n)) for s in range(0, n, TILE)]


def _interface_rows(
    ifc: Jets, lap: np.ndarray, polar: PolarCache, quad: QuadratureSet, geometry: Geometry,
    cutoff_config: CutoffConfig, cols: np.ndarray, rhs: RhsSpec, theta: float,
):
    """The cache of ``quad`` (`build_epoch_cache`), from its (J1, N + 2)
    interior rows ``lap``, the composed basis's Laplacians at its interior
    points in the first N columns, which the cache fills and weights in
    place, and their vertex-disk table ``polar``, which it keeps, and its
    normal traces at its interface points, made here from the network's
    jets ``ifc`` there and the outputs' `factor_index` ``cols``.

    The trace is the component of the gradient of the plus-side product
    F * raw along the point's interface axis, the unit normal n, with F
    gathered from the plus side's distinct stack
    (`cutoffs.interface_trace_factors`), whose phi_v come from the
    interface points' own vertex-disk table, built here from
    ``cutoff_config``.  It is formed from the normal components alone,
    F (n . grad raw) + raw (n . grad F), in the order
    `Jets.__mul__` forms its gradient, so it equals that product's normal
    component bit for bit, and the product's value, Laplacian and other
    gradient component are never made.  The minus side's is that trace
    times the sign row of the point's axis, from the (d, N) table given
    to the cache: -1 on the outputs whose factor holds the psi of that
    axis and +1 elsewhere, since such a factor F is 0 on the line, so
    n . grad(F * raw) = raw (n . grad F), and n . grad F flips sign across
    it.  Returns the cache, the plus side's distinct factor stack and the
    (J2, d) unit normals at the interface points.
    """
    ifc_axes = np.array([ifc.axis for ifc in geometry.interfaces], dtype=int)[quad.interface_ids]
    normals = np.eye(geometry.dimension)[ifc_axes]
    ifc_polar = polar_cache(quad.interface_points, geometry, cutoff_config)
    stack, mask = interface_trace_factors(quad.interface_points, ifc_axes, geometry, ifc_polar)
    sign = np.where(mask[:, cols], -1.0, 1.0)  # (d, N), one row per axis
    rows = np.arange(len(ifc_axes))
    trace = stack.value[:, cols] * ifc.gradient[rows, :, ifc_axes]
    trace += ifc.value * stack.gradient[rows, :, ifc_axes][:, cols]
    cache = build_epoch_cache(geometry, polar, quad, lap, trace, sign, rhs, theta=theta)
    return cache, stack, normals


def _keep(kept: dict | None, name: str, shape: tuple, make):
    """The arrays ``kept`` holds as ``name`` if they were made for
    ``shape``; else ``make(shape)``, held there in their place.  Without a
    holder, ``make(shape)`` alone."""
    if kept is None:
        return make(shape)
    held = kept.get(name)
    if held is None or held[0] != shape:
        held = kept[name] = (shape, make(shape))
    return held[1]


def _composed_cache(
    weights: PassWeights, data: EpochData, kept: dict | None = None, keep_jets: bool = True,
):
    """The epoch cache of ``data``, with the interior Laplacians of the
    composed basis formed alone (`Jets.product_laplacian`).

    ``weights`` are the network's, checked and laid out once
    (`nets.PassWeights`) for every pass over them.  With
    ``keep_jets`` the network is evaluated once, at all J1 + J2 points,
    the interior ones first, into jets the adjoint reads again; without
    it, one tile of the interior points at a time and then at the
    interface points, so that no (J1 + J2, N) jets exist and the returned
    jets are None.  The cutoff factors of the interior points are gathered
    to the outputs one tile of `TILE` points at a time, each tile's
    Laplacians written into the first N columns of one (J1, N + 2) array,
    the cache's interior rows, which it fills and weights in place.  The
    kept jets and that array are taken from the holder ``kept``
    (`_keep`), or made new without one.  Returns the cache
    (`_interface_rows`) and what the loss's adjoint reads: the network's
    jets at all the points, the outputs' `factor_index`, the interior
    factor stack (`cutoffs.composition_factors`), the plus-side interface
    factor stack and the (J2, d) unit normals at the interface points.
    The gathered (J1, N) factors are not kept, so `_ComposedSeeds` gathers
    them again: each gather is `Jets.columns`, one GEMM per jet plane with
    the one-hot matrix of the index, about 36 us per tile in 2D and 22 us
    in 1D (BLAS on one thread), where ``np.take`` took 69 and 54 us.  Two
    other gathers lost to ``np.take`` in epochs (10 alternating pairs):
    fancy indexing, +0.9% on train2d-corner; and each factor broadcast
    over its run of outputs (`factor_index` is in runs of one length per
    block), flat on train2d-corner (-0.2%, 4 of 10 pairs lower) and +3.5%
    on train1d-sin, whose two blocks of one run each double the NumPy
    calls.
    """
    cfg = weights.config
    quad = data.quad
    n_int = quad.n_interior
    cols = factor_index(data.geometry, cfg.n1, cfg.n2)
    jets = None
    if keep_jets:
        points = np.concatenate([quad.interior_points, quad.interface_points])
        d = points.shape[1]
        # keyed by the gradient's shape: a 1D and a 2D batch of equal (J, N)
        # must not share jets
        jets = forward_jets(weights, points, out=_keep(
            kept, "jets", (len(points), cfg.n_outputs, d), lambda shape: Jets.empty(shape[:2], d)
        ))
    polar = polar_cache(quad.interior_points, data.geometry, data.cutoff_config)
    stack = composition_factors(quad.interior_points, data.geometry, polar)
    n = cfg.n_outputs
    lap = _keep(kept, "lap", (n_int, n + 2), np.empty)
    for rows in _tiles(n_int):
        raw = jets.rows(rows) if keep_jets else forward_jets(weights, quad.interior_points[rows])
        lap[rows, :n] = stack.rows(rows).columns(cols).product_laplacian(raw)
    if keep_jets:
        ifc = jets.rows(slice(n_int, None))
    else:
        ifc = forward_jets(weights, quad.interface_points)
    cache, ifc_stack, normals = _interface_rows(
        ifc, lap, polar, quad, data.geometry, data.cutoff_config, cols, data.rhs, data.theta,
    )
    return cache, jets, cols, stack, ifc_stack, normals


@dataclass(frozen=True)
class _ComposedSeeds:
    """The loss's seeds on the network outputs at the J1 + J2 points,
    interior rows first, served a tile at a time to `backward_jets`.

    A tile's rows take the product's adjoint (`Jets.adjoint`) of their
    scaled row adjoints: the interior rows seed the Laplacian of fac * raw,
    the interface rows the normal component of the plus side's gradient,
    the one trace, whose adjoint the solve has already given the minus
    side's rows through their sign, with the factors gathered for the
    tile's rows alone.  So the seeds of the whole batch never exist at
    once.
    """

    cols: np.ndarray  # (N,) factor_index of the outputs
    stack: Jets  # (J1, F) interior factor stack
    ifc_stack: Jets  # (J2, F) plus-side interface factor stack
    normals: np.ndarray  # (J2, d) unit normals at the interface points
    bar_lap: np.ndarray  # (J1, N) adjoint of the interior Laplacians
    bar_trace: np.ndarray  # (J2, N) adjoint of the trace, both sides' rows

    @property
    def shape(self) -> tuple:
        return (len(self.bar_lap) + len(self.normals), len(self.cols))

    def add(self, rows: slice, out: Jets) -> None:
        n_int = len(self.bar_lap)
        inner = slice(rows.start, min(rows.stop, n_int))
        k = max(inner.stop - inner.start, 0)
        if k:
            self.stack.rows(inner).columns(self.cols).adjoint(
                Jets(None, None, self.bar_lap[inner]), out=out.rows(slice(None, k))
            )
        outer = slice(max(rows.start, n_int) - n_int, rows.stop - n_int)
        if outer.start < outer.stop:
            bar = Jets(None, self.bar_trace[outer, :, None] * self.normals[outer, None, :], None)
            self.ifc_stack.rows(outer).columns(self.cols).adjoint(bar, out=out.rows(slice(k, None)))


def loss_and_param_gradient(
    params: MlpParams, data: EpochData, need_gradient: bool = True, kept: dict | None = None
):
    """Mean squared LS residual over the batch and its gradient in the weights.

    The gradient treats every parameter's solved coefficient vector as a
    constant.  The weights are checked and laid out once
    (`nets.PassWeights.of`), for the forward and the backward pass.  The
    blocked solve writes the row adjoints of the basis
    Laplacians and of its one trace, summed over the batch, and only those
    are back-propagated, in one backward pass over all the points that
    composes each tile's seeds from them (`_ComposedSeeds`).  Without
    ``need_gradient`` (validation) none is formed, and neither are the
    network's jets at all the points, which only the backward pass reads:
    the Laplacians are composed from the jets of one tile at a time
    (`_composed_cache`), to the same loss up to rounding (bit for bit
    where the tiles round alike).  The arrays whose shapes the
    batch fixes (the network's jets, the composed Laplacian, the row
    adjoints) come from the holder ``kept``, which `run_epoch` keeps
    between epochs; without it (validation, direct callers) they are made
    new.
    """
    if data.parameters.shape[0] < 1:
        raise ValueError("empty parameter batch")
    weights = PassWeights.of(params)
    cache, jets, cols, stack, ifc_stack, normals = _composed_cache(
        weights, data, kept, keep_jets=need_gradient
    )
    if not need_gradient:  # read by the adjoint alone: not held through the solve
        stack = ifc_stack = None
    sing = singular_evals_from_cache(cache.polar, data.pairs_per_p)
    adjoints = None
    if need_gradient:  # each of the shape of the rows it seeds
        rows = {"bar_lap": cache.wlap, "bar_trace": cache.wtrace}
        adjoints = tuple(_keep(kept, name, a.shape, np.empty) for name, a in rows.items())
    batch = solve_parameter_batch(cache, data.parameters, singular_evals_per_p=sing, out=adjoints)
    loss = float(np.mean(batch.losses))
    if not need_gradient:
        return loss, None
    del cache, sing, batch  # the backward pass reads none of them

    # the row adjoints, scaled in place to the mean loss, seed the composed
    # rows: the interior Laplacians and the normal component of the plus
    # side's gradient.  The backward pass composes them tile by tile
    # through the product's adjoint, in the order `forward_jets` saw the
    # points
    for w in adjoints:
        w *= 2.0 / data.parameters.shape[0]
    seeds = _ComposedSeeds(cols, stack, ifc_stack, normals, *adjoints)
    quad = data.quad
    points = np.concatenate([quad.interior_points, quad.interface_points])
    grad = backward_jets(weights, points, jets, seeds)
    return loss, grad


def run_epoch(
    state: TrainState,
    config: TrainConfig,
    geometry: Geometry,
    rhs: RhsSpec,
    cutoff_config: CutoffConfig,
    validation: "ValidationSet | None" = None,
):
    """One Algorithm-step: sample, solve, differentiate, update.

    Returns (train_loss, val_loss or None); the state advances in place.
    A ValueError or SolveError of the sampling, eigen or least-squares
    work raises EpochError naming the epoch and, where one parameter row
    is at fault, its index.

    The arrays whose shapes the configuration fixes (the network's output
    jets, the composed Laplacian that the cache weights in place, the two
    row adjoints) live from one epoch to the next in the calling thread's
    holder `_kept`, so that an epoch writes into memory the last one
    touched instead of making and freeing it, and a training in another
    thread has arrays of its own.  Each tile's seeds are composed inside
    the backward pass, so no seed set of the batch is made.  The same
    holder keeps the basis `final_solve` holds, as its ``"basis"`` entry:
    an epoch pops it, and `final_solve` empties the holder before it
    builds one, so the two never coexist.  Validation makes fresh arrays.
    """
    epoch = state.iteration
    kept = vars(_kept)  # this thread's
    # the epoch replaces the weights the held basis was built from: drop it
    # now, so that it does not add to the epoch's peak
    kept.pop("basis", None)
    try:
        data = prepare_epoch(state, config, geometry, rhs, cutoff_config)
        loss, grad = loss_and_param_gradient(state.params, data, kept=kept)
    except (ValueError, SolveError) as exc:
        raise EpochError(epoch, getattr(exc, "index", None), str(exc)) from exc
    lr = linear_lr(config.lr_start, config.lr_end, epoch, config.iterations)
    flat = adam_step(state.adam, state.params.to_flat(), grad, lr)
    state.params = MlpParams.from_flat(state.params.config, flat)
    state.iteration += 1

    val_loss = None
    if validation is not None and (
        state.iteration % config.val_every == 0 or state.iteration == config.iterations
    ):
        val_loss = validation_loss(state.params, validation, data.geometry, rhs, cutoff_config)
        if state.best_val is None or val_loss < state.best_val[0]:
            state.best_val = (val_loss, state.params.to_flat().copy(), state.iteration)
    return loss, val_loss


@dataclass
class ValidationSet:
    """Frozen validation quadrature, parameters and their eigen data."""

    quad: QuadratureSet
    parameters: np.ndarray
    pairs_per_p: list
    theta: float


def make_validation_set(geometry: Geometry, config: TrainConfig) -> ValidationSet:
    """Frozen validation data: the training rule with VALIDATION_EXTRA more
    points per axis and per 2D interface, and a parameter batch of the
    training size with its eigenpairs.

    A pure function of the configuration; its draws come from the
    validation streams of ``config.seeds``, apart from every training draw,
    one generator for the interior and the interface points.
    """
    rng_pts = config.seeds.validation_stream("interior")
    quad, parameters, pairs = _draw(
        geometry, config, config.seeds.validation_stream("params"), rng_pts, rng_pts,
        VALIDATION_EXTRA,
    )
    return ValidationSet(quad, parameters, pairs, config.theta)


def validation_loss(
    params: MlpParams,
    validation: ValidationSet,
    geometry: Geometry,
    rhs: RhsSpec,
    cutoff_config: CutoffConfig,
) -> float:
    data = EpochData(
        geometry, cutoff_config, rhs, validation.quad, validation.parameters,
        validation.pairs_per_p, validation.theta,
    )
    loss, _ = loss_and_param_gradient(params, data, need_gradient=False)
    return loss


def train(
    geometry: Geometry,
    net_config: NetConfig,
    config: TrainConfig,
    rhs: RhsSpec,
    cutoff_config: CutoffConfig | None = None,
    on_epoch=None,
    with_validation: bool = True,
) -> tuple[TrainState, list]:
    """Full training run; returns the final state and the loss history.

    History rows are (iteration, train_loss, val_loss or None).  The
    optional on_epoch callback receives each row as it is produced.
    """
    cutoff_config = cutoff_config or default_cutoff_config(geometry)
    state = init_train_state(geometry, net_config, config)
    validation = make_validation_set(geometry, config) if with_validation else None
    history = []
    for _ in range(config.iterations):
        loss, val = run_epoch(state, config, geometry, rhs, cutoff_config, validation)
        row = (state.iteration, loss, val)
        history.append(row)
        if on_epoch is not None:
            on_epoch(row)
    return state, history


@dataclass(frozen=True, eq=False)
class QueryBasis:
    """The parameter-free half of a query: one trained network on one grid.

    Holds only what `solve` reads, every array read-only: the cache (the
    midpoint quadrature, the weighted rows, the Gram blocks and the polar
    cache) and the composed basis values and gradients, each written tile
    by tile by `build` into an array made once.  `build` freezes the arrays
    in the fields of these dataclasses; the run tables come read-only from
    `build_epoch_cache` (the annulus rows of ``cache.interior_runs`` and the
    sign rows of ``cache.interface_runs`` and ``cache.axis_runs``), and the
    geometry's arrays from `build_grid_geometry`.  The composed Laplacian
    lives on only weighted, in ``cache.wlap``.  `solve` checks and answers
    one parameter per call.  `final_solve` holds one basis between calls,
    beside the inputs it was built from.
    """

    net_config: NetConfig
    cache: EpochCache
    values: np.ndarray  # (J1, N) composed basis values
    gradients: np.ndarray  # (J1, d, N) composed basis gradients, see evaluate_solution

    @classmethod
    def build(
        cls, params: MlpParams, geometry: Geometry, rhs: RhsSpec, cutoff_config: CutoffConfig,
        theta: float, n_per_axis: int,
    ) -> "QueryBasis":
        """The basis on the midpoint grid of ``n_per_axis`` points per axis
        and per 2D interface.

        The distinct cutoff factors are made once on the grid.  The network
        jets and their product with the gathered factors are made one tile
        of `TILE` points at a time and written into the kept arrays, so the
        (J, n1 + n2) network jets, factors and products of the whole grid
        never exist; the weights are checked once for all the tiles
        (`nets.PassWeights`).  The composed Laplacian, written into the
        first N columns of the interior rows, goes to `build_epoch_cache`,
        which weights it in place and keeps it as ``cache.wlap``, through
        the `_interface_rows` that epochs use.
        """
        cfg = params.config
        quad = midpoint_grid(geometry, n_per_axis, n_per_axis)
        points = quad.interior_points
        cols = factor_index(geometry, cfg.n1, cfg.n2)
        weights = PassWeights.of(params)  # checked and laid out once for all the tiles
        polar = polar_cache(points, geometry, cutoff_config)
        stack = composition_factors(points, geometry, polar)
        n, d = points.shape
        n_out = cfg.n_outputs
        values, laplacian = np.empty((n, n_out)), np.empty((n, n_out + 2))
        gradients = np.empty((n, d, n_out))
        for t in _tiles(n):
            part = stack.rows(t).columns(cols) * forward_jets(weights, points[t])
            values[t] = part.value
            gradients[t] = part.gradient.transpose(0, 2, 1)
            laplacian[t, :n_out] = part.laplacian
        del stack  # not kept: freed before the cache is built
        cache, *_ = _interface_rows(
            forward_jets(weights, quad.interface_points), laplacian, polar, quad, geometry,
            cutoff_config, cols, rhs, theta,
        )
        basis = cls(cfg, cache, values, gradients)
        for holder in (basis, cache, quad, cache.gram, cache.polar, *cache.polar.vertices):
            for f in fields(holder):
                value = getattr(holder, f.name)
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
        return basis

    def solve(self, parameter, n_singular: int = 1):
        """Solve one (I,) parameter on this basis; returns (coefficients,
        fields) as `final_solve`."""
        cache = self.cache
        quad = cache.quad
        parameter = validate_parameter(cache.geometry, parameter)
        pairs = vertex_eigenpairs(cache.geometry, parameter[None, :], n_singular)[0]
        sing = singular_evals_from_cache(cache.polar, [pairs])
        batch = solve_parameter_batch(cache, parameter[None, :], sing)
        (u,), (grad_u,) = evaluate_solution(batch.y_nn, self.values, self.gradients)
        (y_sing,) = batch.y_sing
        if y_sing.size:  # the singular fields live on the disk rows only
            sing_vals, sing_grads = eval_s(cache.polar, pairs)
            disk = cache.polar.disk_rows
            u[disk] += sing_vals @ y_sing
            step = (sing_grads.reshape(-1, y_sing.size) @ y_sing).reshape(disk.size, -1)
            for axis in range(step.shape[1]):  # 1-D scatters: a row scatter is slower
                grad_u[disk, axis] += step[:, axis]
        p_int = parameter[quad.interior_subdomain]
        # the interior right-hand side l; the jump rows' is zero
        l_int = p_int * cache.wrhs_p
        l_int += cache.wrhs_fixed
        l_sq = l_int @ l_int
        residual_sq = float(batch.losses[0])
        # a zero right-hand side solves to y = 0 with residual 0
        rel_residual = float(np.sqrt(residual_sq / l_sq)) if l_sq > 0 else 0.0
        y = np.concatenate([batch.y_nn[0], y_sing])
        return CoefficientVector.split(y, self.net_config.n1, self.net_config.n2), {
            "quad": quad,
            "values": u,
            "gradients": grad_u,
            "flux": p_int[:, None] * grad_u,
            "residual_sq": residual_sq,
            "rel_residual": rel_residual,
        }


# What outlives a call, by name, in one holder per thread: ``vars(_kept)``
# is the calling thread's dict, so two trainings or queries in two threads
# share nothing.  The arrays run_epoch keeps between epochs: (shape,
# arrays), see `_keep`.  "basis", the basis final_solve holds: (the
# geometry, rhs and cutoff config objects, (theta, grid count, network
# configuration), a read-only copy of the weights, the basis built from
# them); an epoch pops it, and final_solve empties the holder before a build.
_kept = threading.local()


def final_solve(
    params: MlpParams,
    geometry: Geometry,
    parameter,
    rhs: RhsSpec,
    cutoff_config: CutoffConfig,
    theta: float,
    n_per_axis: int,
    n_singular: int = 1,
):
    """Solve one parameter on a midpoint evaluation grid.

    The grid has ``n_per_axis`` points per axis and per 2D interface.  The
    parameter is checked and solved by `QueryBasis.solve` on the one basis
    held between calls, the ``"basis"`` entry of the calling thread's
    holder `_kept`.  It is reused while the geometry, rhs and cutoff config
    objects (by identity), theta, the grid count and the network
    configuration (by value) and the weights (by content, so an in-place
    edit shows) are unchanged, and rebuilt otherwise; the first query of a
    network pays for the basis and the others for their own least-squares
    solve only.  `run_epoch` pops it, as the epoch replaces the weights,
    and a build first empties the holder, the arrays `run_epoch` keeps
    between epochs included, so that they do not add to the build's peak.
    A malformed parameter raises ValueError (ParameterError for a value
    that is not positive and finite): checked here before a build, so
    that it neither builds nor empties the holder, and by
    `QueryBasis.solve` on a held basis.
    Returns (coefficients, fields) where fields carries the grid, solution
    values, gradients and fluxes, the squared residual and the relative
    least-squares residual sqrt(residual_sq / |l|^2) (0 when l = 0).  It
    measures how well the basis fits the equations, not the error: it can
    read well below the energy error against a reference.
    The trained basis is discretization invariant, so the grid may be much
    finer than the training points.
    """
    objects, values = (geometry, rhs, cutoff_config), (theta, n_per_axis, params.config)
    kept = vars(_kept)  # this thread's
    held = kept.get("basis")
    if held is None or not (
        all(a is b for a, b in zip(held[0], objects))
        and held[1] == values
        and np.array_equal(held[2], params.to_flat())
    ):
        validate_parameter(geometry, parameter)
        # before the build, so that no basis coexists with another or with
        # the epoch's arrays
        held = None
        kept.clear()
        basis = QueryBasis.build(params, geometry, rhs, cutoff_config, theta, n_per_axis)
        weights = params.to_flat()
        weights.flags.writeable = False
        held = kept["basis"] = (objects, values, weights, basis)
    return held[3].solve(parameter, n_singular)


_RNG_NAMES = ("rng_params", "rng_interior", "rng_interface")


def save_checkpoint(path, state: TrainState, config: TrainConfig, extra: dict | None = None):
    """Write the training state to ``path`` as an ``.npz`` archive.

    The parameter and Adam vectors are stored as arrays.  Everything else
    (the version, both configurations, the Adam step, the iteration, the
    RNG states, the best validation loss and ``extra``, which must be
    JSON-serialisable) goes into one JSON header.
    """
    header = {
        "version": CHECKPOINT_VERSION,
        "net_config": asdict(state.params.config),
        "train_config": asdict(config),
        "adam_t": state.adam.t,
        "iteration": state.iteration,
        "rng": {name: getattr(state, name).bit_generator.state for name in _RNG_NAMES},
        "best_val": None if state.best_val is None else [state.best_val[0], state.best_val[2]],
        "extra": extra or {},
    }
    arrays = {
        "flat_params": state.params.to_flat(),
        "adam_m": state.adam.m,
        "adam_v": state.adam.v,
    }
    if state.best_val is not None:
        arrays["best_params"] = state.best_val[1]
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(json.dumps(header)), **arrays)


def load_checkpoint(path):
    """Read a checkpoint written by save_checkpoint; returns (state, config, extra).

    Nothing in the file is unpickled: a file that is not a version-2
    archive raises ValueError, and so does one whose Adam moments or best
    weights are not vectors of the network's parameter count, whose
    iteration or Adam step is not a nonnegative integer, whose ``best_val``
    is neither null nor [a real loss, an integer iteration from 0 to the
    state's], whose best weights are present when ``best_val`` is null or
    missing when it is not, or whose configuration `TrainConfig` rejects.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            header = json.loads(str(archive["header"]))
            arrays = {name: archive[name] for name in archive.files if name != "header"}
        if not isinstance(header, dict) or header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"not a version-{CHECKPOINT_VERSION} checkpoint header")
        nc = header["net_config"]
        net_config = NetConfig(nc["input_dim"], tuple(nc["hidden"]), nc["n1"], nc["n2"])
        train_fields = dict(header["train_config"])
        seeds = Seeds(**train_fields.pop("seeds"))
        config = TrainConfig(**train_fields, seeds=seeds)
        params = MlpParams.from_flat(net_config, arrays["flat_params"])
        # every array is a vector of the weights: the weights, the two Adam
        # moments and the best weights
        if any(a.shape != (params.n_params,) for a in arrays.values()):
            raise ValueError("malformed checkpoint: an array is not a weight vector")
        if not all(type(header[k]) is int and header[k] >= 0 for k in ("iteration", "adam_t")):
            raise ValueError("malformed checkpoint: a counter is not a nonnegative integer")
        # null, or [a real loss, an integer iteration no later than the state's]
        best = header["best_val"]
        if best is not None and not (
            type(best) is list and len(best) == 2 and type(best[0]) in (int, float)
            and type(best[1]) is int and 0 <= best[1] <= header["iteration"]
        ):
            raise ValueError("malformed checkpoint: best_val is not [loss, iteration]")
        if (best is None) == ("best_params" in arrays):
            raise ValueError("malformed checkpoint: best_params without best_val, or the reverse")
        best_val = None if best is None else (best[0], arrays["best_params"], best[1])
        state = TrainState(
            params=params,
            adam=AdamState(arrays["adam_m"], arrays["adam_v"], header["adam_t"]),
            iteration=header["iteration"],
            rng_params=config.seeds.stream("params"),
            rng_interior=config.seeds.stream("interior"),
            rng_interface=config.seeds.stream("interface"),
            best_val=best_val,
        )
        for name in _RNG_NAMES:
            getattr(state, name).bit_generator.state = header["rng"][name]
        return state, config, header["extra"]
    except (KeyError, TypeError) as exc:  # a missing or mistyped field or array
        raise ValueError(f"malformed checkpoint: {exc!r}") from exc
