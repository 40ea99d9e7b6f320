"""Training loop: sample, solve the per-parameter LS systems, step the net.

Each epoch draws a parameter batch and fresh collocation points, solves the
angular eigenproblems the batch needs (2D), and evaluates the network's
value, gradient and Laplacian once at all interior and interface points.
`cutoffs.compose` turns the interior jets into the Laplacians of the
composed basis and `cutoffs.compose_traces` the interface jets into its
one-sided normal traces.  `assembly.solve_parameter_batch` then solves
every parameter's least-squares system, singular columns included, in one
batched call through the cached Gram blocks, and the mean squared residual
is back-propagated to the network weights with the solved coefficients
held fixed (the derivative of a minimum is the partial derivative at the
minimizer, so the coefficients contribute no gradient term): the solve
returns the adjoint seeds of its raw rows, each seed times the
coefficients gives the adjoint of one composition, and those seed
`nets.backward_jets`.  The row weights stay inside `assembly`.  Adam with
a linearly interpolated learning rate closes the loop.  Validation runs the
same path without the gradient, and `final_solve` runs it for one parameter
on a midpoint grid, then evaluates the solution with `singular.eval_s` on
the same polar cache.  Checkpoints are ``.npz`` arrays with a JSON header
and load without unpickling anything.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

# assemble_system and solve_normal_equations are the explicit reference and
# are not called here; perfbench/spans.py looks up every layer it times,
# these two included, on this module.
from . import assembly
from .assembly import (  # noqa: F401
    CoefficientVector,
    assemble_system,
    build_epoch_cache,
    evaluate_solution,
    solve_normal_equations,
    solve_parameter_batch,
)
from .cutoffs import (
    CutoffConfig,
    compose,
    compose_traces,
    composition_factors,
    default_cutoff_config,
    interface_trace_factors,
)
from .eigen import assemble_eigensystem, sector_values, select_singular, solve_eigenpairs
from .geometry import Geometry, angular_trace, validate_parameter
from .nets import (
    AdamState,
    MlpParams,
    NetConfig,
    adam_step,
    backward_jets,
    forward_jets,
    init_params,
    linear_lr,
)
from .reference import RhsSpec
from .sampling import QuadratureSet, midpoint_grid, sample_collocation, sample_parameters
from .singular import eval_s, singular_evals_from_cache

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
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if not (self.lr_start >= self.lr_end > 0):
            raise ValueError("learning-rate endpoints must satisfy lr_start >= lr_end > 0")
        if self.theta < 0:
            raise ValueError("theta must be nonnegative")
        if not 0 < self.p_min <= self.p_max:
            raise ValueError("the parameter range must satisfy 0 < p_min <= p_max")
        if self.val_every < 1:
            raise ValueError("val_every must be at least 1")


@dataclass
class TrainState:
    net_config: NetConfig
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
    pairs_per_p: list  # per parameter: list per vertex of EigenPairs (2D)
    theta: float


def init_train_state(geometry: Geometry, net_config: NetConfig, config: TrainConfig) -> TrainState:
    params = init_params(net_config, config.seeds.init)
    return TrainState(
        net_config=net_config,
        params=params,
        adam=AdamState.zeros(params.n_params),
        iteration=0,
        rng_params=config.seeds.stream("params"),
        rng_interior=config.seeds.stream("interior"),
        rng_interface=config.seeds.stream("interface"),
    )


def vertex_eigenpairs(geometry: Geometry, parameters, n_singular: int, epoch: int = -1):
    """Selected singular eigenpairs per parameter and vertex, ``[k][vertex]``.

    The angular traces of all P parameters at all N_s vertices are stacked
    into one (P*N_s, 4) array and solved in one batched eigensolve.  A
    failure raises EpochError tagged with ``epoch`` and, where the trace of
    one parameter is at fault, its index.
    """
    parameters = np.asarray(parameters, dtype=float)
    n_p, n_v = parameters.shape[0], geometry.n_singular
    if n_v == 0:
        return [[] for _ in range(n_p)]
    traces = np.empty((n_p, n_v, 4))
    for k in range(n_p):
        try:
            for vid in range(n_v):
                traces[k, vid] = sector_values(angular_trace(geometry, parameters[k], vid))
        except ValueError as exc:
            raise EpochError(epoch, k, f"eigen solve failed: {exc}") from exc
    try:
        pairs = solve_eigenpairs(assemble_eigensystem(traces))
    except ValueError as exc:
        raise EpochError(epoch, None, f"eigen solve failed: {exc}") from exc
    return [[select_singular(per_vertex, n_singular) for per_vertex in per_p] for per_p in pairs]


def prepare_epoch(
    state: TrainState, config: TrainConfig, geometry: Geometry, rhs: RhsSpec,
    cutoff_config: CutoffConfig,
) -> EpochData:
    """Sample the batch and fresh points; solve the eigenproblems it needs."""
    if config.n_params < 1:
        raise ValueError("empty parameter batch")
    parameters = sample_parameters(
        state.rng_params, config.n_params, geometry.n_subdomains, config.p_min, config.p_max
    )
    quad = sample_collocation(
        geometry, config.n_interior, config.n_interface, state.rng_interior,
        rng_interface=state.rng_interface,
    )
    pairs_per_p = vertex_eigenpairs(geometry, parameters, config.n_singular, state.iteration)
    return EpochData(geometry, cutoff_config, rhs, quad, parameters, pairs_per_p, config.theta)


def _composed_cache(params: MlpParams, data: EpochData, need_tape: bool):
    """Network jets at all points of ``data``, composed with the cutoffs.

    Returns the epoch cache, the interior and interface cutoff factors, the
    composed interior (values, gradients) and the tape (None unless
    ``need_tape``).
    """
    cfg = params.config
    quad = data.quad
    n_int = quad.n_interior
    pts = np.concatenate([quad.interior_points, quad.interface_points], axis=0)
    if need_tape:
        jets, tape = forward_jets(params, pts, need_tape=True)
    else:
        jets = forward_jets(params, pts)
        tape = None
    fac = composition_factors(
        quad.interior_points, data.geometry, data.cutoff_config, cfg.n1, cfg.n2
    )
    values, grads, laps = compose(fac, jets.rows(slice(None, n_int)))
    ifc_axes = np.array([data.geometry.interfaces[k].axis for k in quad.interface_ids], dtype=int)
    tf = interface_trace_factors(
        quad.interface_points, ifc_axes, data.geometry, data.cutoff_config, cfg.n1, cfg.n2
    )
    tr_minus, tr_plus = compose_traces(tf, jets.rows(slice(n_int, None)))
    cache = build_epoch_cache(
        data.geometry, data.cutoff_config, quad, laps, tr_minus, tr_plus, data.rhs,
        theta=data.theta,
    )
    return cache, fac, tf, (values, grads), tape


def loss_and_param_gradient(params: MlpParams, data: EpochData, need_gradient: bool = True):
    """Mean squared LS residual over the batch and its gradient in the weights.

    The gradient treats every parameter's solved coefficient vector as a
    constant and back-propagates the solve's adjoint seeds through the
    basis Laplacians and one-sided traces only.
    """
    if data.parameters.shape[0] < 1:
        raise ValueError("empty parameter batch")
    cache, fac, tf, jets, tape = _composed_cache(params, data, need_tape=need_gradient)
    sing_per_p = [
        singular_evals_from_cache(cache.polar, pairs) if pairs else None
        for pairs in data.pairs_per_p
    ]
    batch = solve_parameter_batch(cache, data.parameters, singular_evals_per_p=sing_per_p)
    n_p = data.parameters.shape[0]
    loss = float(np.mean(batch.losses))
    if not need_gradient:
        return loss, None

    quad = data.quad
    n_int = quad.n_interior
    scale = 2.0 / n_p
    w_lap = scale * (batch.seed_int @ batch.y_nn)
    w_plus = scale * (batch.seed_plus @ batch.y_nn)
    w_minus = scale * (batch.seed_minus @ batch.y_nn)

    n_out = params.config.n_outputs
    d = params.config.input_dim
    n_pts = n_int + quad.n_interface
    bar_value = np.empty((n_pts, n_out))
    bar_grad = np.empty((n_pts, n_out, d))
    bar_lap = np.zeros((n_pts, n_out))
    # interior rows, the adjoint of compose: lap(c*raw) = c lap_raw
    # + 2 grad_c . grad_raw + raw lap_c
    bar_value[:n_int] = w_lap * fac.laplacian
    bar_grad[:n_int] = 2.0 * w_lap[:, :, None] * fac.gradient
    bar_lap[:n_int] = w_lap * fac.value
    # jump rows, the adjoint of compose_traces: trace_pm = a_pm*raw + d_coef . grad_raw
    bar_value[n_int:] = w_plus * tf.a_plus + w_minus * tf.a_minus
    bar_grad[n_int:] = (w_plus + w_minus)[:, :, None] * tf.d_coef
    grad = backward_jets(params, tape, bar_value, bar_grad, bar_lap)
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
    """
    epoch = state.iteration
    data = prepare_epoch(state, config, geometry, rhs, cutoff_config)
    try:
        loss, grad = loss_and_param_gradient(state.params, data)
    except EpochError:
        raise
    except RuntimeError as exc:
        raise EpochError(epoch, None, str(exc)) from exc
    lr = linear_lr(config.lr_start, config.lr_end, epoch, config.iterations)
    flat = adam_step(state.adam, state.params.to_flat(), grad, lr)
    state.params = MlpParams.from_flat(state.net_config, flat)
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
    validation streams of ``config.seeds``, apart from every training draw.
    """
    rng_pts = config.seeds.validation_stream("interior")
    n_ifc = config.n_interface + (VALIDATION_EXTRA if geometry.dimension == 2 else 0)
    quad = sample_collocation(
        geometry, config.n_interior + VALIDATION_EXTRA, n_ifc, rng_pts
    )
    rng_par = config.seeds.validation_stream("params")
    parameters = sample_parameters(
        rng_par, config.n_params, geometry.n_subdomains, config.p_min, config.p_max
    )
    pairs = vertex_eigenpairs(geometry, parameters, config.n_singular)
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

    The grid has ``n_per_axis`` points per axis and per 2D interface.  Its
    least-squares system is solved by `solve_parameter_batch` with a batch
    of one, as in training.  Returns (coefficients, fields)
    where fields carries the grid, solution values, gradients and fluxes,
    and the squared residual.  The trained basis is discretization
    invariant, so the grid may be much finer than the training points.
    """
    parameter = validate_parameter(geometry, parameter)
    quad = midpoint_grid(geometry, n_per_axis, n_per_axis)
    cfg = params.config
    pairs = vertex_eigenpairs(geometry, parameter[None, :], n_singular)[0]
    data = EpochData(geometry, cutoff_config, rhs, quad, parameter[None, :], [pairs], theta)
    cache, _, _, (values, grads), _ = _composed_cache(params, data, need_tape=False)
    sing = singular_evals_from_cache(cache.polar, pairs) if pairs else None
    # called through its module: perfbench/run.py keeps every call made
    # through this module's name, cache included, until the next epoch,
    # which would keep every query's grid-sized cache alive
    batch = assembly.solve_parameter_batch(cache, parameter[None, :], [sing])
    y = np.concatenate([batch.y_nn[0], batch.y_sing[0]])
    coeffs = CoefficientVector.split(y, cfg.n1, cfg.n2)
    sing_vals = sing_grads = None
    if batch.y_sing[0].size:
        sing_vals, sing_grads = eval_s(cache.polar, pairs)
    u, grad_u = evaluate_solution(y, values, grads, sing_vals, sing_grads)
    p_local = parameter[quad.interior_subdomain]
    flux = p_local[:, None] * grad_u
    fields = {
        "quad": quad,
        "values": u,
        "gradients": grad_u,
        "flux": flux,
        "residual_sq": float(batch.losses[0]),
    }
    return coeffs, fields


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
        "net_config": {
            "input_dim": state.net_config.input_dim,
            "hidden": list(state.net_config.hidden),
            "n1": state.net_config.n1,
            "n2": state.net_config.n2,
        },
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
    archive raises ValueError.
    """
    with np.load(path, allow_pickle=False) as archive:
        header = json.loads(str(archive["header"]))
        arrays = {name: archive[name] for name in archive.files if name != "header"}
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {header.get('version')}")
    nc = header["net_config"]
    net_config = NetConfig(nc["input_dim"], tuple(nc["hidden"]), nc["n1"], nc["n2"])
    train_fields = dict(header["train_config"])
    seeds = Seeds(**train_fields.pop("seeds"))
    config = TrainConfig(**train_fields, seeds=seeds)
    best_val = None
    if header["best_val"] is not None:
        loss, iteration = header["best_val"]
        best_val = (loss, arrays["best_params"], iteration)
    state = TrainState(
        net_config=net_config,
        params=MlpParams.from_flat(net_config, arrays["flat_params"]),
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
