"""Stacked least-squares systems for the residual-plus-flux-jump loss.

Row layout: J1 interior rows carrying sqrt(weight) * p(x) * (Laplacians of
the composed basis | singular sources) against the loss-side right-hand
side, then J2 jump rows carrying sqrt(Theta * weight) times the signed
flux-jump bracket of the basis traces (singular columns are zero there).

`build_epoch_cache` weights the parameter-free rows once, in place; the
row weights are known to this module alone.  The interior rows are one
(J1, N + 2) array, the Laplacians beside the source's two factors, into
whose first N columns the caller composes the Laplacians, so no second
(J1, N) array is made.  The rows come grouped (`sampling.QuadratureSet`):
one run of interior rows per subdomain, on which every row's diffusivity
is one p_i, and one run of jump rows per interface, and the cache lists
both as slices.  It keeps the interior points' vertex-disk table
(`singular.polar_cache`), which its caller builds once and also hands to
the cutoff factors, for the rows of the singular columns, and the
weighted Laplacians on their annulus rows, which the singular border
reads; it needs nothing else of the cutoff.  The jump rows keep one trace
per column, the plus side's: the minus side's is that trace times a sign
row s of +-1, which depends only on the interface's axis, so the cache
holds one weighted trace and, in each interface's run, the (N,) sign row
of its axis; the interfaces of an axis come one after another, and the
solve forms the minus side's products over each axis's rows.  Every entry
of the network columns is affine in the diffusivity vector p, so their
block of B^T B is a quadratic polynomial in p whose coefficient matrices,
the Gram blocks, the cache holds, each block from its runs' rows.  `solve_parameter_batch`, the
one solve of training, validation and `final_solve`, solves the batch in
blocks of BLOCK parameters.  The batch's singular columns come as one
dense (P, R, M) block of sources on the annulus rows
(`singular.PolarCache.annulus_rows`: a source is zero off its vertex's
annulus), a parameter's unused slots zero.  Per block, one GEMM combines
the Gram blocks, the block's rows of the singular block border each
normal matrix from the annulus rows alone, and `_cholesky_solve` ridges
each system and solves it with one LAPACK dposv call, raising if it is
not positive definite.  The residuals of the whole batch then come a run
of equal subdomain at a time, with that run's p_i folded into the small
operand of one GEMM (Goto & van de Geijn, "Anatomy of high-performance
matrix multiplication", 2008): rows[run] @ F_i, F_i = [p_i Y^T; p_i; 1]
for the batch's (P, N) coefficients Y, plus the singular sources on the
run's annulus rows, which the solve lays out run by run once per batch,
so that each run's are one slice.  The jump residuals follow: the plus
side's products of every row in one GEMM and the minus side's one axis at
a time, each scaled by its row's p.  Their column norms give the losses.
A caller that hands in the (J1, N) and (J2, N) adjoints of the Laplacians
and of the trace that the gradient reads (``out``, which it may keep
between batches) asks for them.  A run's rows of the Laplacians' adjoint,
sqrt(w) r^T (p_i Y), take the cheaper of two orders: once the batch
outgrows the basis, from the small operand too, sqrt(w) rows[run] @
(F_i F_i[:N]^T) with the (N + 2, N) Gram of the run's factor, plus the
singular sources' share on its annulus rows, so that no GEMM runs over
the batch and the run's rows at once; else, as for the 2D benchmark's
batches of 8, from the residuals themselves.  The jump residuals give the
trace's, into which the minus side's seeds fold through the sign.  No
array spans the batch times the interior rows, no pass gathers p per
interior row or runs elementwise over them for the batch, and none holds
the normal matrices of the whole batch: every block writes them into one
workspace and every run its residuals into one buffer, each made once per
solve.
`assemble_system` and `solve_normal_equations` build and solve one
parameter's explicit system, the reference the batched solve is checked
against, through the same `_cholesky_solve`, which alone holds the ridge
rule and the unit diagonal of a column that is zero on every row, such as
an unused singular slot.  `assemble_system` is the one place a singular
block is scattered to all J1 interior rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv as _dposv

from .geometry import Geometry, validate_parameter, validate_parameter_batch
from .reference import RhsSpec
from .sampling import QuadratureSet
from .singular import PolarCache

__all__ = [
    "EpochCache",
    "LsSystem",
    "CoefficientVector",
    "BatchSolveResult",
    "SolveError",
    "build_epoch_cache",
    "assemble_system",
    "solve_normal_equations",
    "solve_parameter_batch",
    "evaluate_solution",
]

RIDGE_REL = 1e-10
# Parameters per block of `solve_parameter_batch`, which sizes the one
# workspace of normal matrices that every block of a solve writes into; the
# residuals and adjoints come a run of the interior rows at a time after all
# the blocks, each run's residuals into one buffer.  When each block made its
# own normal matrices and residuals, blocks of 64 read train1d-sin epoch_s
# -3.5% at +2.8% peak_rss_mb, and one block of all 256 -11% at +11% (P = 256,
# N = 50, J1 = 1000; 10 alternating pairs, BLAS on one thread), mostly in page
# faults: glibc trimmed the freed blocks off the heap top and the next block
# or epoch faulted them in again.  The per-solve workspaces end that churn at
# this size's memory: over 100 seed-1 epochs without validation, 279-281
# minor page faults per epoch, 143-180 of them in the solve, fell to 0.  So
# 32 stays.  A solve of that size peaks at 1.60 MB under tracemalloc, where
# fresh blocks took 1.80 MB, the blocks' residuals 1.96 MB and the whole
# batch at once 11.5 MB.
BLOCK = 32


@dataclass
class GramBlocks:
    """Stacked parameter-independent pieces of B^T B and B^T l.

    A(p) = coefficients(p) @ combined, the sum of p_i^2 times the squared
    block of subdomain i and p_minus(g) p_plus(g) times the cross block of
    interface g, with the theta jump weight already folded in; b(p)
    decomposes into per-subdomain quadratic/linear vectors.  Each row of
    ``combined`` holds its N x N block transposed, so the rows of the
    product are normal matrices in Fortran order, the order LAPACK reads
    without a copy.  The blocks are symmetric only up to rounding; the
    transpose keeps the lower triangle that the solve reads.
    """

    theta: float
    combined: np.ndarray  # (I+G, N*N) squared blocks, then cross blocks, each transposed
    cross_pairs: np.ndarray  # (G, 2) minus/plus subdomain ids per interface
    b_sq: np.ndarray  # (I, N)
    b_lin: np.ndarray  # (I, N)

    def coefficients(self, parameters: np.ndarray) -> np.ndarray:
        """(P, I+G) monomials [p_i^2 | p_minus p_plus] matching ``combined``."""
        psq = parameters**2
        if not self.cross_pairs.size:
            return psq
        pcross = parameters[:, self.cross_pairs[:, 0]] * parameters[:, self.cross_pairs[:, 1]]
        return np.concatenate([psq, pcross], axis=1)


@dataclass
class EpochCache:
    """Everything parameter-independent about one epoch's quadrature points,
    with every row already weighted.

    The interior rows are one (J1, N + 2) array ``rows``, the weighted
    Laplacians, rhs factor and fixed rhs side by side; ``wlap``,
    ``wrhs_p`` and ``wrhs_fixed`` are views of it.  ``interior_runs``
    holds one run per subdomain, which `solve_parameter_batch` multiplies
    one at a time, and ``interface_runs`` one per interface: its minus
    and plus subdomains, the read-only (N,) sign row of its axis, with
    which its minus-side traces are s * wtrace[run], and its rows, which
    the Gram blocks and `assemble_system` read.  The interfaces of one axis
    come one after another and share that row, and ``axis_runs`` lists
    the rows of each such run, over which the solve forms the minus side's
    products.  No minus-side array is stored."""

    geometry: Geometry
    quad: QuadratureSet
    sqrt_w: np.ndarray  # (J1,) interior row weights sqrt(w)
    sqrt_theta_w: np.ndarray  # (J2,) jump row weights sqrt(Theta w)
    rows: np.ndarray  # (J1, N+2) sqrt(w) * [Laplacians | strong-form source factor | fixed source]
    interior_runs: tuple  # (subdomain, rows slice, its annulus rows, their slice in run order)
    annulus_order: np.ndarray  # (R,) places in polar.annulus_rows, run by run
    annulus_lap: np.ndarray  # (R, N) wlap on polar.annulus_rows, read by the singular border
    wtrace: np.ndarray  # (J2, N) sqrt(Theta w) * plus-side normal traces
    interface_runs: tuple  # (minus subdomain, plus subdomain, (N,) sign row, rows slice)
    axis_runs: tuple  # ((N,) sign row, rows slice) per run of consecutive interfaces of one axis
    polar: PolarCache  # interior points around the singular vertices
    gram: GramBlocks

    @property
    def n_basis(self) -> int:
        return self.rows.shape[1] - 2

    @property
    def wlap(self) -> np.ndarray:
        """(J1, N) sqrt(w) * Laplacians of the composed basis."""
        return self.rows[:, :-2]

    @property
    def wrhs_p(self) -> np.ndarray:
        """(J1,) sqrt(w) * the strong-form source's factor of p; the source
        is p * factor + fixed."""
        return self.rows[:, -2]

    @property
    def wrhs_fixed(self) -> np.ndarray:
        """(J1,) sqrt(w) * the source's fixed part."""
        return self.rows[:, -1]


@dataclass
class LsSystem:
    """One parameter's stacked system B y = l."""

    matrix: np.ndarray  # (J1+J2, n_nn + n_sing)
    rhs: np.ndarray


@dataclass
class CoefficientVector:
    """LS solution split into smooth / jump / singular coefficients."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @property
    def stacked(self) -> np.ndarray:
        return np.concatenate([self.a, self.b, self.c])

    @staticmethod
    def split(y: np.ndarray, n1: int, n2: int) -> "CoefficientVector":
        return CoefficientVector(y[:n1], y[n1 : n1 + n2], y[n1 + n2 :])


def build_epoch_cache(
    geometry: Geometry,
    polar: PolarCache,
    quad: QuadratureSet,
    rows: np.ndarray,
    trace: np.ndarray,
    sign: np.ndarray,
    rhs: RhsSpec,
    theta: float = 1.0,
) -> EpochCache:
    """Cache the weighted interior rows, the trace and the Gram blocks.

    ``rows`` is a (J1, N + 2) array whose first N columns hold the
    Laplacians of the composed basis at the quadrature's interior points;
    the cache writes the source's two factors into its last two columns,
    weights it in place and keeps it as ``rows``, so a caller that still
    needs the raw Laplacians passes a copy.  The plus-side normal traces
    ``trace`` are (J2, N) at the interface points, and ``sign`` is the
    (d, N) table of the axes: its row a is -1 where a column's minus-side
    trace on an interface of axis a is its plus-side trace negated and +1
    where the two are equal.  The trace is a weighted copy, and the runs
    read views of a read-only copy of ``sign``.  ``polar`` is the
    vertex-disk table of the interior points (`singular.polar_cache`),
    kept as given for the singular columns' rows; a table made for another
    number of points raises ValueError.  The jump weight ``theta`` must be
    finite and nonnegative, the quadrature's subdomain and interface ids
    must index the geometry's, and the geometry's interfaces must come
    axis by axis, as `geometry.build_grid_geometry` lists them
    (ValueError).
    """
    if not (np.isfinite(theta) and theta >= 0):
        raise ValueError(f"theta must be finite and nonnegative, got {theta}")
    if rows.ndim != 2 or rows.shape[0] != quad.n_interior or rows.shape[1] < 2:
        raise ValueError("interior rows do not match the interior points")
    polar.check_points(quad.n_interior)
    n = rows.shape[1] - 2
    if trace.shape != (quad.n_interface, n) or sign.shape != (geometry.dimension, n):
        raise ValueError("trace shapes do not match the interface points and the axes")
    rows[:, n], rows[:, n + 1] = rhs.factors(quad.interior_points)
    sw = np.sqrt(quad.interior_weights)
    sj = np.sqrt(theta) * np.sqrt(quad.interface_weights)
    rows *= sw[:, None]  # in place: no second (J1, N) array
    wtrace = sj[:, None] * trace
    interior_runs, order = _interior_runs(quad.interior_subdomain, geometry.n_subdomains,
                                          polar.annulus_rows)
    ifc_rows = _offsets(quad.interface_ids, len(geometry.interfaces), "interface")
    sign = np.array(sign, dtype=float)  # read-only, and so are the runs' views of its rows
    sign.flags.writeable = False
    interface_runs = tuple((ifc.minus, ifc.plus, sign[ifc.axis], run)
                           for ifc, run in zip(geometry.interfaces, ifc_rows))
    axes = np.array([ifc.axis for ifc in geometry.interfaces], dtype=int)
    axis_runs = tuple(zip(sign, _offsets(axes[quad.interface_ids], geometry.dimension, "axis")))
    gram = _build_gram(geometry.n_subdomains, rows, interior_runs, wtrace, interface_runs, theta)
    return EpochCache(
        geometry, quad, sw, sj, rows, interior_runs, order, rows[polar.annulus_rows, :n], wtrace,
        interface_runs, axis_runs, polar, gram,
    )


def _offsets(ids: np.ndarray, count: int, what: str) -> list:
    """The runs of ``ids``, one rows slice per id in range(count), empty
    where no row has it.  Ids that decrease somewhere or fall outside that
    range raise ValueError."""
    if len(ids) and not (0 <= ids[0] and ids[-1] < count and np.all(ids[1:] >= ids[:-1])):
        raise ValueError(f"{what} ids must be non-decreasing and in [0, {count})")
    bounds = np.searchsorted(ids, np.arange(count + 1)).tolist()
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _interior_runs(sub: np.ndarray, n_sub: int, annulus_rows: np.ndarray):
    """One (subdomain, rows slice, local, at) run per subdomain of the
    grouped interior rows, and the (R,) order that lays the annulus rows
    out run by run.  ``local`` are the run's annulus rows, counted from its
    first row and read-only, and ``at`` the slice of their places in
    ``annulus_rows[order]``.  A stable sort by run keeps each run's
    annulus rows in their order in ``annulus_rows``."""
    runs = _offsets(sub, n_sub, "subdomain")
    order = np.argsort(sub[annulus_rows], kind="stable")
    placed = annulus_rows[order]
    local = placed - np.searchsorted(sub, sub[placed])  # counted from the run's first row
    at = _offsets(sub[placed], n_sub, "subdomain")
    order.flags.writeable = local.flags.writeable = False
    return tuple((i, run, local[a], a) for i, (run, a) in enumerate(zip(runs, at))), order


def _build_gram(n_sub, rows, interior_runs, t, interface_runs, theta) -> GramBlocks:
    """The Gram blocks of the weighted interior rows, Laplacians beside
    the rhs factors, and of the plus-side traces t, whose minus side is
    s * t, one cross block per interface, each from its runs' rows.  Each
    run's interior columns are copied contiguous before the products: a
    slice of the (J1, N + 2) rows is a BLAS operand of another leading
    dimension, whose products may round apart, and y's bits follow the
    Gram's."""
    n = rows.shape[1] - 2
    sq, b_sq, b_lin = np.zeros((n_sub, n, n)), np.zeros((n_sub, n)), np.zeros((n_sub, n))
    for i, run, _, _ in interior_runs:
        ci, f1, f0 = (np.ascontiguousarray(rows[run, k]) for k in (slice(n), n, n + 1))
        sq[i] = ci.T @ ci
        b_sq[i] = -ci.T @ f1
        b_lin[i] = -ci.T @ f0

    cross = np.empty((len(interface_runs), n, n))
    for k, (minus, plus, s, run) in enumerate(interface_runs):
        tpg = t[run]
        tmg = s * tpg
        sq[plus] += tpg.T @ tpg
        sq[minus] += tmg.T @ tmg
        cross[k] = -(tmg.T @ tpg + tpg.T @ tmg)
    blocks = np.concatenate([sq, cross])
    combined = blocks.transpose(0, 2, 1).reshape(len(blocks), n * n)
    cross_pairs = np.array([run[:2] for run in interface_runs], dtype=int)
    return GramBlocks(theta, combined, cross_pairs.reshape(-1, 2), b_sq, b_lin)


def assemble_system(cache: EpochCache, parameter, singular_evals, theta: float) -> LsSystem:
    """Explicit stacked matrix for one parameter (cache-based assembly).

    ``singular_evals`` is the (R, n_s) source block on the cache's annulus
    rows, the parameter's row of the batch block that
    `singular.singular_evals_from_cache` gives, unused slots included, or
    None.  This reference scatters it into a dense (J1, n_s) block, the
    only place one is made.  The jump rows carry the cache's Theta, so
    ``theta`` must equal it.
    """
    parameter = validate_parameter(cache.geometry, parameter)
    if theta != cache.gram.theta:
        raise ValueError(f"theta {theta} differs from the cache's {cache.gram.theta}")
    j1 = cache.quad.n_interior
    j2 = cache.quad.n_interface
    rows = cache.polar.annulus_rows
    if singular_evals is None:
        singular_evals = np.zeros((rows.size, 0))
    if singular_evals.shape[0] != rows.size:
        raise ValueError("singular evaluations do not match the annulus rows")
    n_sing = singular_evals.shape[1]
    dense = np.zeros((j1, n_sing))
    dense[rows] = singular_evals
    p_int = parameter[cache.quad.interior_subdomain]
    top = np.concatenate(
        [p_int[:, None] * cache.wlap, (p_int * cache.sqrt_w)[:, None] * dense], axis=1
    )
    # loss-side rhs: the residual p*Lap(u) - l must vanish at the solution
    # of -div(p grad u) = rhs, so l = -(p*factor + fixed) row-weighted
    rhs_top = -(p_int * cache.wrhs_p + cache.wrhs_fixed)
    jump = np.empty_like(cache.wtrace)
    for minus, plus, s, run in cache.interface_runs:
        jump[run] = (parameter[plus] - parameter[minus] * s) * cache.wtrace[run]
    bottom = np.concatenate([jump, np.zeros((j2, n_sing))], axis=1)
    matrix = np.concatenate([top, bottom], axis=0)
    rhs = np.concatenate([rhs_top, np.zeros(j2)])
    return LsSystem(matrix, rhs)


def solve_normal_equations(system: LsSystem):
    """Solve min ||B y - l|| through the normal equations, ridged and
    Cholesky-solved by `_cholesky_solve`, the ridge rule of
    `solve_parameter_batch`; raises SolveError (index 0) if that matrix is
    not positive definite.  Returns (y, residual norm squared), the
    residual formed explicitly."""
    b, l = system.matrix, system.rhs
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(l))):
        raise ValueError("non-finite system")
    y = _cholesky_solve((b.T @ b)[None], (b.T @ l)[None], 0)[0]
    residual = b @ y - l
    return y, float(residual @ residual)


@dataclass
class BatchSolveResult:
    """Per-batch LS solutions; the row adjoints go to the caller's ``out``."""

    y_nn: np.ndarray  # (P, N) network-column coefficients
    y_sing: np.ndarray  # (P, M) singular coefficients, zero in unused slots
    losses: np.ndarray  # (P,) residual norms squared


class SolveError(RuntimeError):
    """A system of a batch that is not positive definite; ``index`` is its
    position in the batch."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


def _cholesky_solve(a: np.ndarray, b: np.ndarray, first: int) -> np.ndarray:
    """Solve every ridged system of a stack of normal equations a[k] y = b[k].

    The one ridge rule of both solves adds RIDGE_REL times the mean of the
    nonzero diagonal entries of a[k] (RIDGE_REL where there is none) to
    the whole diagonal.  An exactly-zero diagonal entry is a column that
    is zero on every row, such as an unused singular slot: it also gets a
    unit diagonal and, its row of b[k] being zero, solves to zero.  So a
    system's ridge and solution depend on its own live columns alone, and
    a parameter solves in a batch as it does alone.  The rule reads and
    writes the diagonals through one writeable view of them.  Each
    system is one LAPACK dposv call on the lower triangle, which overwrites
    a[k] with its factor and b[k] with the solution; a Fortran-ordered a[k]
    (as `solve_parameter_batch` makes them) is factored where it lies, a
    C-ordered one is copied first.  The loop stays because the
    alternatives measured slower (one core of a 2-core Xeon, BLAS on one
    thread): on a (256, 50, 50) stack NumPy's batched np.linalg.cholesky
    alone took 7.6-9.1 ms and np.linalg.solve 9.8-10.2 ms, against
    5.6-5.9 ms for this loop, and scipy.linalg.solve(assume_a='pos') took
    1.6-1.8 ms on (32, 50, 50) against 0.7 ms; NumPy's batched Cholesky
    also does not say which system failed.  LAPACK's packed dppsv on the
    lower triangles took 579 against 436 us per block of 32 (N = 50), the
    Gram combination included, and one banded dpbsv over the
    block-diagonal batch of 256 systems 4.7 against 3.3 ms.  Nor does the
    network's worker thread pay here: split 16 and 16 over two threads,
    the 256 systems in blocks of 32 took 4.0 against 2.7 ms, although
    forty 400 x 400 systems split so took 41.0 against 56.8 ms; at N = 50
    a call is too short.  A system that is not positive
    definite raises SolveError naming it by its index in the whole batch,
    ``first + k``.  Returns the solutions, ``b`` itself when it is a
    C-contiguous float array.
    """
    diag = np.einsum("kii->ki", a)  # a writeable view of every diagonal
    dead = diag == 0
    mean_diag = diag.sum(axis=1) / np.maximum(np.sum(~dead, axis=1), 1)
    ridge = RIDGE_REL * np.where(mean_diag > 0, mean_diag, 1.0)
    diag += dead + ridge[:, None]
    y = np.ascontiguousarray(b, dtype=float)
    for k in range(len(a)):
        _, _, info = _dposv(a[k], y[k], lower=1, overwrite_a=1, overwrite_b=1)
        if info:
            raise SolveError(first + k, f"least-squares system {first + k} is not positive "
                                        f"definite (ridge {ridge[k]:.3g})")
    return y


def solve_parameter_batch(
    cache: EpochCache,
    parameters: np.ndarray,
    singular_evals_per_p: np.ndarray | None = None,
    out: tuple | None = None,
) -> BatchSolveResult:
    """Least-squares solve of every parameter of a batch through the Gram blocks.

    ``singular_evals_per_p`` is the batch's (P, R, M) block of singular
    sources on the cache's annulus rows
    (`singular.singular_evals_from_cache`), or None for none.  Each normal
    matrix is the Gram combination bordered by its parameter's row of the
    block, in Fortran order so that LAPACK reads it in place; every block
    writes its Gram combinations, one GEMM, into one (BLOCK, N^2)
    workspace and its bordered systems into another, both made once per
    call.  A lone parameter's Gram products are formed beside a zero row:
    BLAS runs a one-row product as a GEMV, which rounds apart from a
    GEMM's rows, so without singular columns a parameter's y has the same
    bits in any batch.  The border reads the annulus rows alone, so no
    singular array spans the J1 interior rows.  A parameter's unused slots are zero columns,
    which `_cholesky_solve` leaves out of the ridge and solves to zero.
    The loss of parameter k is ||B y - l||^2 over its interior and jump
    rows, and ``y_sing`` holds the (P, M) singular coefficients.

    Once every block is solved, the residuals of the whole batch are
    formed a run of ``cache.interior_runs`` at a time.  On a run of
    subdomain i, where every row's diffusivity is p_i, the residuals r are
    one GEMM into the one residual buffer, rows[run] @ F_i with
    F_i = [p_i Y^T; p_i; 1] and Y the (P, N) network coefficients, plus
    the singular sources on the run's annulus rows, a slice r_sing[:, at]
    of the batch's (P, R) sources laid out run by run once.  Their halved
    derivative in the run's raw Laplacians, sqrt(w) r^T (p_i Y), takes the
    order of fewer flops.  Where (N + 2) (P + L) < P L it is
    sqrt(w) rows[run] @ (F_i F_i[:N]^T) plus r_sing[:, at]^T (p_i Y) on
    the run's annulus rows: two GEMMs on the (N + 2, N) Gram of the factor
    in place of one over the (P, L) residuals, 2 (N + 2) (P + L) N against
    2 L P N flops, which on train1d-sin (P = 256, L = 200, N = 50) drops
    13.7 of the solve's ~64 MFLOP.  Elsewhere, as on the 2D benchmark's
    runs (P = 8, N = 48, hundreds of rows), where the Gram's order would
    take about six times the flops, it is the one GEMM
    sqrt(w) (r^T (p_i Y)).  The two agree to rounding, and the losses read
    the residuals either way.  No array spans the batch times the interior
    rows, and no pass gathers p per row.  The jump residuals are p_plus (wtrace Y^T) -
    p_minus (wtrace (s Y)^T), the minus side's GEMM on the rows of each run
    of ``cache.axis_runs`` with its sign row s, so no (J2, N) temporary of
    the sign times an array is made.  Each GEMM spans an axis's rows
    rather than one interface's: a product of one row, as every 1D
    interface has, takes BLAS's GEMV path and rounds apart, and the
    two-sided reference that tier-1 holds the 1D gradient to admits 1e-12
    of its largest entry, less than that rounding (an
    exactly rounded trace adjoint misses it too).  Handing in ``out``, a
    (bar_lap, bar_trace) pair of arrays of the (J1, N) and (J2, N) row
    shapes, asks for those row adjoints: each is overwritten with the
    halved derivative of the summed losses in its raw rows,
    d(sum_k loss_k) / d lap[j, n] = 2 bar_lap[j, n] and likewise bar_trace
    for the plus-side traces, into which the minus side's rows, s times
    the plus side's, add through the sign, r (s Y) on each axis's rows.
    Without ``out`` none is formed.  A caller that solves batches of one
    shape again and again keeps its adjoint arrays so.
    """
    gram = cache.gram
    parameters = validate_parameter_batch(cache.geometry, np.atleast_2d(parameters))
    n_p, n_sub = parameters.shape
    n = cache.n_basis
    rows = cache.polar.annulus_rows
    f1, f0 = cache.wrhs_p, cache.wrhs_fixed
    sing = np.zeros((n_p, rows.size, 0)) if singular_evals_per_p is None else singular_evals_per_p
    if not isinstance(sing, np.ndarray) or sing.ndim != 3 or sing.shape[:2] != (n_p, rows.size):
        raise ValueError(f"singular evaluations must be one (P, R, M) array on the {n_p} "
                         f"parameters and the {rows.size} annulus rows")
    m = sing.shape[2]
    y_nn, y_sing = np.empty((n_p, n)), np.empty((n_p, m))
    if out is not None:
        shapes = [a.shape for a in (cache.wlap, cache.wtrace)]
        if [a.shape for a in out] != shapes:
            raise ValueError(f"adjoint arrays of shapes {[a.shape for a in out]} "
                             f"do not match the rows' {shapes}")
        bar_lap, bar_trace = out
    # the singular columns' share of the residuals, (P, R) on the annulus rows
    r_sing = np.empty((n_p, rows.size)) if m else None
    # the workspaces of every block's normal matrices
    gram_ws = np.empty((max(min(n_p, BLOCK), 2), n * n))
    full_ws = np.empty((min(n_p, BLOCK), n + m, n + m)) if m else None
    for s in range(0, n_p, BLOCK):
        p = parameters[s : s + BLOCK]
        size = len(p)
        # BLAS runs a product of one row as a GEMV, which rounds apart from a
        # GEMM's rows: a lone parameter's are formed beside a zero row
        padded = np.concatenate([p, np.zeros((max(2 - size, 0), n_sub))])
        # one GEMM: (P, K) monomial coefficients against the fused (K, N*N) blocks
        coef = gram.coefficients(padded)
        a_nn = np.matmul(coef, gram.combined, out=gram_ws[: len(coef)])[:size]
        a_nn = a_nn.reshape(size, n, n).transpose(0, 2, 1)  # Fortran-ordered
        b_nn = (coef[:, :n_sub] @ gram.b_sq + padded @ gram.b_lin)[:size]
        if m == 0:
            a, rhs = a_nn, b_nn
        else:
            p_rows = np.take(p, cache.quad.interior_subdomain[rows], axis=1)  # (P, R), C-ordered
            # (P, R, M) weighted, p-scaled
            us = (cache.sqrt_w[rows] * p_rows)[:, :, None] * sing[s : s + BLOCK]
            border = np.matmul(cache.annulus_lap.T, p_rows[:, :, None] * us)  # (P, N, M)
            a = full_ws[:size].transpose(0, 2, 1)
            a[:, :n, :n] = a_nn
            a[:, :n, n:] = border
            a[:, n:, :n] = border.transpose(0, 2, 1)
            a[:, n:, n:] = us.transpose(0, 2, 1) @ us
            l_rows = p_rows * f1[rows] + f0[rows]  # (P, R)
            rhs = np.concatenate([b_nn, -(l_rows[:, None, :] @ us)[:, 0]], axis=1)
        y = _cholesky_solve(a, rhs, s)
        y_nn[s : s + BLOCK] = y[:, :n]
        y_sing[s : s + BLOCK] = y[:, n:]
        if m:  # laid out run by run: each run's are one slice
            r_sing[s : s + BLOCK] = (us @ y[:, n:, None])[:, cache.annulus_order, 0]

    # the interior residuals, a run of subdomain i at a time: rows[run] @
    # [p_i Y^T; p_i; 1], the top two blocks one product p_i [Y^T; 1].  Each
    # run's are formed transposed, (P, L), so that each parameter's squared
    # norm is a contiguous dot product (np.vecdot): 7.2 us on a (256, 200)
    # run against 12.7 us for the column sums of the (200, 256) one
    yt = np.ones((n + 1, n_p))
    yt[:n] = y_nn.T
    factor = np.ones((n + 2, n_p))
    # each run's squared residual norms, then the jump rows'
    sums = np.empty((len(cache.interior_runs) + 1, n_p))
    r_ws = np.empty(n_p * max(run.stop - run.start for _, run, _, _ in cache.interior_runs))
    for k, (i, run, local, at) in enumerate(cache.interior_runs):
        np.multiply(yt, parameters[:, i], out=factor[: n + 1])
        r = np.matmul(factor.T, cache.rows[run].T, out=r_ws[: n_p * (run.stop - run.start)]
                      .reshape(n_p, -1))
        if m and local.size:
            r[:, local] += r_sing[:, at]
        np.vecdot(r, r, out=sums[k])
        if out is not None:
            # r^T (p_i Y) in the cheaper order: through the (N + 2, N) Gram of
            # the run's factor when the batch outgrows the basis, else from r
            if (n + 2) * (n_p + r.shape[1]) < n_p * r.shape[1]:
                seeds = np.matmul(cache.rows[run], factor @ factor[:n].T, out=bar_lap[run])
                if m and local.size:
                    seeds[local] += r_sing[:, at].T @ factor[:n].T
            else:
                seeds = np.matmul(r.T, factor[:n].T, out=bar_lap[run])
            seeds *= cache.sqrt_w[run, None]
    # the jump residuals, the minus side's product through the sign row of
    # each axis on that axis's rows, each side's p gathered per row from its
    # interface
    p_minus, p_plus = parameters.T[gram.cross_pairs[cache.quad.interface_ids].T]
    wtrace = cache.wtrace
    r_jump = wtrace @ yt[:n]
    r_jump *= p_plus
    for s_row, run in cache.axis_runs:
        r_minus = wtrace[run] @ (s_row[:, None] * yt[:n])
        r_minus *= p_minus[run]
        r_jump[run] -= r_minus
    np.einsum("jk,jk->k", r_jump, r_jump, out=sums[-1])
    if out is not None:  # in place, the residuals become the seeds, times Y into out
        r_jump *= cache.sqrt_theta_w[:, None]
        np.matmul(p_plus * r_jump, y_nn, out=bar_trace)
        r_jump *= p_minus
        for s_row, run in cache.axis_runs:
            bar_trace[run] -= r_jump[run] @ (s_row * y_nn)
    return BatchSolveResult(y_nn, y_sing, sums.sum(axis=0))


def evaluate_solution(y_nn, basis_values, basis_grads):
    """Network part u = a.w + b.v of Q fields and its gradient, one GEMM each.

    ``y_nn`` is (Q, N), one row of network coefficients per field;
    ``basis_values`` is (J, N) and ``basis_grads`` (J, d, N), the direction
    before the column, so that the J*d gradient rows are one matrix.
    Returns the values (Q, J) and the gradients (Q, J, d).
    """
    y_nn = np.atleast_2d(y_nn)
    j, d, n = basis_grads.shape
    if basis_values.shape != (j, n) or y_nn.shape[1] != n:
        raise ValueError("coefficient length does not match the basis")
    u = y_nn @ basis_values.T
    grad = y_nn @ basis_grads.reshape(j * d, n).T
    return u, grad.reshape(-1, j, d)
