"""Training loop: sample, solve the per-parameter LS systems, step the net.

Each epoch draws a parameter batch and fresh collocation points, solves the
angular eigenproblems the batch needs (2D), and evaluates the network's
jets (`nets.Jets`) once at all interior and interface points.  Only what
the loss reads is composed with the cutoff factors: the interior
Laplacians of the product ``fac * raw`` (`Jets.product_laplacian`), the
factors gathered from the distinct stack of `cutoffs.composition_factors`,
and the one-sided interface traces n . (F_pm * raw).gradient, the factors
from `cutoffs.interface_trace_factors`.  `assembly.solve_parameter_batch`
solves every parameter's least-squares system block by block and sums each
block's row seeds times its coefficients into the row adjoints: (J1, N) for
the Laplacians and (J2, N) per trace side.  The mean squared residual is
back-propagated with the solved coefficients held fixed (the derivative of
a minimum is the partial derivative at the minimizer): scaled in place,
the adjoints go through `Jets.adjoint` (the product's transpose) to the
network outputs and seed `nets.backward_jets`, which recomputes the network
tile by tile, once for the interior and once for the interface rows.  Adam
with a linearly interpolated learning rate closes the loop.  Validation
runs the same path without the adjoints.

Queries are split into an offline and an online stage.  Offline,
`QueryBasis.build` does everything about a midpoint grid that does not
depend on the parameter, once per trained network: the quadrature, the
weighted rows with their Gram blocks and polar cache, and the composed
basis values and gradients.  The grid may be much finer than the training
points, so the build composes one tile of `nets.TILE` points at a time
into arrays made once, and hands its Laplacian to the cache, which weights
it in place.  Online, `QueryBasis.solve` takes a (Q, I) parameter batch
through one eigensolve, one `solve_parameter_batch` and one GEMM per field,
plus `singular.eval_s` for the queries with singular columns: the paper's
low-dimensional least-squares problem per parameter.  The singular columns
stay on their support rows throughout: their sources on the annulus rows of
the polar cache, and their values and gradients on its disk rows, so the
singular work of a query grows with the junction annuli and disks, not with
the grid.  `final_solve` is a batch of one against the basis `query_basis`
holds; it keeps at most one, rebuilt when the weights, grid or problem
change and dropped when the weights object is collected or an epoch starts.
Checkpoints are ``.npz`` arrays with a JSON header and load without
unpickling anything.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import asdict, dataclass, field, fields

import numpy as np

# assemble_system and solve_normal_equations are the explicit reference, and
# angular_trace the per-vertex form of the trace gather; none is called
# here, but perfbench/spans.py looks up every layer it times, these three
# included, on this module.
from . import assembly
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
    interface_trace_factors,
)
from .eigen import assemble_eigensystem, select_singular, solve_eigenpairs
from .geometry import (  # noqa: F401
    Geometry,
    ParameterError,
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
    "QueryBasis",
    "query_basis",
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
        if not (np.isfinite(self.theta) and self.theta >= 0):
            raise ValueError("theta must be finite and nonnegative")
        if min(self.n_params, self.n_interior, self.n_interface) < 1:
            raise ValueError("n_params, n_interior and n_interface must be at least 1")
        if not 0 < self.p_min <= self.p_max < np.inf:
            raise ValueError("the parameter range must satisfy 0 < p_min <= p_max < inf")
        if self.val_every < 1:
            raise ValueError("val_every must be at least 1")
        if self.n_singular < 0:
            raise ValueError("n_singular must be nonnegative")


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

    The batch is validated once, and the angular traces of all P
    parameters at all N_s vertices are one gather through the geometry's
    vertex-to-sector table, a (P, N_s, 4) stack solved in one batched
    eigensolve.  A failure raises EpochError tagged with ``epoch`` and,
    where one parameter is at fault, its index.
    """
    parameters = np.asarray(parameters, dtype=float)
    n_p = parameters.shape[0]
    if geometry.n_singular == 0:
        return [[] for _ in range(n_p)]
    try:
        parameters = validate_parameter_batch(geometry, parameters)
    except ParameterError as exc:
        raise EpochError(epoch, exc.index, f"eigen solve failed: {exc}") from exc
    traces = parameters[:, geometry.vertex_sectors]
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
    parameters = sample_parameters(
        state.rng_params, config.n_params, geometry.n_subdomains, config.p_min, config.p_max
    )
    quad = sample_collocation(
        geometry, config.n_interior, config.n_interface, state.rng_interior,
        rng_interface=state.rng_interface,
    )
    pairs_per_p = vertex_eigenpairs(geometry, parameters, config.n_singular, state.iteration)
    return EpochData(geometry, cutoff_config, rhs, quad, parameters, pairs_per_p, config.theta)


def _interface_rows(
    ifc: Jets, quad: QuadratureSet, geometry: Geometry, cutoff_config: CutoffConfig,
    config: NetConfig,
):
    """The one-sided normal traces of the composed basis at the interface
    points of ``quad``, from the network's jets ``ifc`` there.

    Of each side's product with the network jets only the normal component
    of the gradient is kept.  Returns the one-sided (minus, plus) interface
    factors, the (J2, d) unit normals at the interface points and the
    (minus, plus) traces, each (J2, N).
    """
    ifc_axes = np.array([geometry.interfaces[k].axis for k in quad.interface_ids], dtype=int)
    normals = np.eye(config.input_dim)[ifc_axes]
    sides = interface_trace_factors(
        quad.interface_points, ifc_axes, geometry, cutoff_config, config.n1, config.n2
    )
    traces = [np.einsum("jnd,jd->jn", (f * ifc).gradient, normals) for f in sides]
    return sides, normals, traces


def _composed_cache(params: MlpParams, data: EpochData):
    """The epoch cache of ``data``, with the interior Laplacians of the
    composed basis formed alone (`Jets.product_laplacian`).

    The network is evaluated once, at all points, and the cutoff factors
    of every interior point are gathered to the outputs at once.  Returns
    the cache, the interior cutoff factors, the one-sided (minus, plus)
    interface factors and the (J2, d) unit normals at the interface points:
    what the loss's adjoint reads.
    """
    cfg = params.config
    quad = data.quad
    n_int = quad.n_interior
    jets = forward_jets(params, np.concatenate([quad.interior_points, quad.interface_points]))
    stack, cols = composition_factors(
        quad.interior_points, data.geometry, data.cutoff_config, cfg.n1, cfg.n2
    )
    fac = stack.columns(cols)
    lap = fac.product_laplacian(jets.rows(slice(None, n_int)))
    sides, normals, traces = _interface_rows(
        jets.rows(slice(n_int, None)), quad, data.geometry, data.cutoff_config, cfg
    )
    cache = build_epoch_cache(
        data.geometry, data.cutoff_config, quad, lap, *traces, data.rhs, theta=data.theta
    )
    return cache, fac, sides, normals


def loss_and_param_gradient(params: MlpParams, data: EpochData, need_gradient: bool = True):
    """Mean squared LS residual over the batch and its gradient in the weights.

    The gradient treats every parameter's solved coefficient vector as a
    constant.  The blocked solve returns the row adjoints of the basis
    Laplacians and one-sided traces, summed over the batch, and only those
    are back-propagated; without ``need_gradient`` none is formed.
    """
    if data.parameters.shape[0] < 1:
        raise ValueError("empty parameter batch")
    cache, fac, sides, normals = _composed_cache(params, data)
    sing_per_p = [
        singular_evals_from_cache(cache.polar, pairs) if pairs else None
        for pairs in data.pairs_per_p
    ]
    batch = solve_parameter_batch(
        cache, data.parameters, singular_evals_per_p=sing_per_p, adjoint=need_gradient
    )
    loss = float(np.mean(batch.losses))
    if not need_gradient:
        return loss, None

    # the row adjoints, scaled in place to the mean loss, seed the composed
    # rows: the interior Laplacians and the normal component of each side's
    # gradient; the product's adjoint takes them to the network outputs
    for w in (batch.bar_lap, batch.bar_minus, batch.bar_plus):
        w *= 2.0 / data.parameters.shape[0]
    inner = fac.adjoint(Jets(None, None, batch.bar_lap))
    minus, plus = (
        f.adjoint(Jets(None, w[:, :, None] * normals[:, None, :], np.zeros_like(w)))
        for f, w in zip(sides, (batch.bar_minus, batch.bar_plus))
    )
    ifc = Jets(*(getattr(minus, k) + getattr(plus, k) for k in ("value", "gradient", "laplacian")))
    del minus, plus
    # the backward pass is linear in its seeds: the interior and the
    # interface rows go through it apart, and no stacked copy of the seeds
    # of all points is made
    quad = data.quad
    grad = backward_jets(params, quad.interior_points, inner.value, inner.gradient, inner.laplacian)
    grad += backward_jets(params, quad.interface_points, ifc.value, ifc.gradient, ifc.laplacian)
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
    # the epoch replaces the weights the held basis was built from: drop it
    # now, so that it does not add to the epoch's peak
    _release_basis()
    data = prepare_epoch(state, config, geometry, rhs, cutoff_config)
    try:
        loss, grad = loss_and_param_gradient(state.params, data)
    except SolveError as exc:
        raise EpochError(epoch, exc.index, str(exc)) from exc
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


@dataclass(frozen=True, eq=False)
class QueryBasis:
    """The parameter-free half of a query: one trained network on one grid.

    Holds only what `solve` reads, every array read-only: the cache (the
    midpoint quadrature, the weighted rows, the Gram blocks and the polar
    cache) and the composed basis values and gradients, each written tile
    by tile by `build` into an array made once.  The composed Laplacian
    lives on only weighted, in ``cache.wlap``.  ``flat_params``
    is a copy of the weights it was built from, and the geometry, rhs and
    cutoff config are the objects themselves, for `serves`.
    """

    net_config: NetConfig
    flat_params: np.ndarray
    geometry: Geometry
    rhs: RhsSpec
    cutoff_config: CutoffConfig
    theta: float
    n_per_axis: int
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
        never exist.  The composed Laplacian goes to `build_epoch_cache`,
        which weights it in place and keeps it as ``cache.wlap``.
        """
        cfg = params.config
        quad = midpoint_grid(geometry, n_per_axis, n_per_axis)
        points = quad.interior_points
        stack, cols = composition_factors(points, geometry, cutoff_config, cfg.n1, cfg.n2)
        n, d = points.shape
        values, laplacian = np.empty((n, cfg.n_outputs)), np.empty((n, cfg.n_outputs))
        gradients = np.empty((n, d, cfg.n_outputs))
        for s in range(0, n, TILE):
            t = slice(s, s + TILE)
            part = stack.rows(t).columns(cols) * forward_jets(params, points[t])
            values[t] = part.value
            gradients[t] = np.moveaxis(part.gradient, -1, 1)
            laplacian[t] = part.laplacian
        del stack  # not kept: freed before the cache is built
        traces = _interface_rows(
            forward_jets(params, quad.interface_points), quad, geometry, cutoff_config, cfg
        )[2]
        cache = build_epoch_cache(
            geometry, cutoff_config, quad, laplacian, *traces, rhs, theta=theta
        )
        basis = cls(
            cfg, params.to_flat(), geometry, rhs, cutoff_config, float(theta),
            n_per_axis, cache, values, gradients,
        )
        for holder in (basis, cache, quad, cache.gram, cache.polar, *cache.polar.vertices):
            for f in fields(holder):
                value = getattr(holder, f.name)
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
        return basis

    def serves(
        self, params: MlpParams, geometry: Geometry, rhs: RhsSpec, cutoff_config: CutoffConfig,
        theta: float, n_per_axis: int,
    ) -> bool:
        """Whether `build` with these inputs would make this basis.

        The weights are compared by content, so an in-place edit shows; the
        geometry, rhs and cutoff config by identity, as this basis holds them.
        """
        return (
            geometry is self.geometry
            and rhs is self.rhs
            and cutoff_config is self.cutoff_config
            and theta == self.theta
            and n_per_axis == self.n_per_axis
            and params.config == self.net_config
            and np.array_equal(params.to_flat(), self.flat_params)
        )

    def solve(self, parameters, n_singular: int = 1) -> list:
        """Solve every row of a (Q, I) parameter batch on this basis.

        Returns one (coefficients, fields) pair per row, as `final_solve`.
        """
        cache = self.cache
        quad = cache.quad
        parameters = validate_parameter_batch(self.geometry, np.atleast_2d(parameters))
        pairs_per_q = vertex_eigenpairs(self.geometry, parameters, n_singular)
        sing = [
            singular_evals_from_cache(cache.polar, pairs) if pairs else None
            for pairs in pairs_per_q
        ]
        # called through its module: perfbench/run.py keeps every call made
        # through this module's name, cache included, until the next epoch,
        # which would keep every query's arrays and a replaced basis alive
        batch = assembly.solve_parameter_batch(cache, parameters, sing)
        values, gradients = evaluate_solution(batch.y_nn, self.values, self.gradients)
        p_int = parameters[:, quad.interior_subdomain]
        # the interior right-hand side l; the jump rows' is zero
        l_sq = np.sum((p_int * cache.wrhs_p + cache.wrhs_fixed) ** 2, axis=1)
        out = []
        for k, pairs in enumerate(pairs_per_q):
            u, grad_u, y_sing = values[k], gradients[k], batch.y_sing[k]
            if y_sing.size:  # the singular fields live on the disk rows only
                sing_vals, sing_grads = eval_s(cache.polar, pairs)
                disk = cache.polar.disk_rows
                u[disk] += sing_vals @ y_sing
                step = (sing_grads.reshape(-1, y_sing.size) @ y_sing).reshape(disk.size, -1)
                for axis in range(step.shape[1]):  # 1-D scatters: a row scatter is slower
                    grad_u[disk, axis] += step[:, axis]
            y = np.concatenate([batch.y_nn[k], y_sing])
            residual_sq = float(batch.losses[k])
            # a zero right-hand side solves to y = 0 with residual 0
            rel_residual = float(np.sqrt(residual_sq / l_sq[k])) if l_sq[k] > 0 else 0.0
            out.append((
                CoefficientVector.split(y, self.net_config.n1, self.net_config.n2),
                {
                    "quad": quad,
                    "values": u,
                    "gradients": grad_u,
                    "flux": p_int[k][:, None] * grad_u,
                    "residual_sq": residual_sq,
                    "rel_residual": rel_residual,
                },
            ))
        return out


# The basis query_basis holds, and the finalizer that drops it when the
# weights object it was built from is collected.
_held: dict = {}


def _release_basis() -> None:
    finalizer = _held.pop("finalizer", None)
    if finalizer is not None:
        finalizer.detach()
    _held.pop("basis", None)


def query_basis(
    params: MlpParams, geometry: Geometry, rhs: RhsSpec, cutoff_config: CutoffConfig,
    theta: float, n_per_axis: int,
) -> QueryBasis:
    """The held basis if it serves these inputs, else a new one that replaces it.

    At most one basis is held, and only while ``params`` lives, and
    `run_epoch` drops it before it samples: the epoch replaces the weights
    it was built from, so a basis built before an epoch does not live
    through it.  A basis never changes once built, so concurrent callers
    still get correct results; a race can only cost a rebuild.
    """
    basis = _held.get("basis")
    if basis is not None and basis.serves(params, geometry, rhs, cutoff_config, theta, n_per_axis):
        return basis
    _release_basis()  # before the build, so that two bases never coexist
    basis = QueryBasis.build(params, geometry, rhs, cutoff_config, theta, n_per_axis)
    _held["basis"] = basis
    _held["finalizer"] = weakref.finalize(params, _release_basis)
    return basis


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
    parameter is solved as a batch of one against `query_basis`, which
    reuses the last basis while the weights (by content), the grid count,
    theta, the network configuration and the geometry, rhs and cutoff
    config objects are unchanged; the first query of a network pays for
    the basis and the others for their own least-squares solve only.
    Returns (coefficients, fields) where fields carries the grid, solution
    values, gradients and fluxes, the squared residual and the relative
    residual sqrt(residual_sq / |l|^2), an error estimate (0 when l = 0).
    The trained basis is discretization invariant, so the grid may be much
    finer than the training points.
    """
    parameter = validate_parameter(geometry, parameter)
    basis = query_basis(params, geometry, rhs, cutoff_config, theta, n_per_axis)
    return basis.solve(parameter[None, :], n_singular)[0]


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
