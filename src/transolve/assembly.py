"""Stacked least-squares systems for the residual-plus-flux-jump loss.

Row layout: J1 interior rows carrying sqrt(weight) * p(x) * (Laplacians of
the composed basis | singular sources) against the loss-side right-hand
side, then J2 jump rows carrying sqrt(Theta * weight) times the signed
flux-jump bracket of the basis traces (singular columns are zero there).

`build_epoch_cache` weights the parameter-free rows once, the Laplacians in
place; the row weights are known to this module alone.  It keeps the
interior points' vertex-disk table (`singular.polar_cache`), which its
caller builds once and also hands to the cutoff factors, for the rows of
the singular columns; it needs nothing else of the cutoff.  The jump rows
keep one trace per column, the plus side's: the minus side's is that trace
times a (J2, N) sign of +-1, so the cache holds one weighted trace and its
sign, and each minus-side product is formed from the two where it is
needed.  A row of the sign depends only on its interface's axis, so the
sign is a few runs of equal rows s, which the cache lists, and the solve
forms the minus side's products as wtrace (s * y), with no (J2, N)
product of the sign.
Every entry of the network columns is affine in the diffusivity vector p,
so their block of B^T B is a quadratic polynomial in p whose coefficient
matrices, the Gram blocks, the cache holds.  `solve_parameter_batch`, the
one solve of training, validation and `final_solve`, walks the batch in
blocks of BLOCK parameters.  The batch's singular columns come as one
dense (P, R, M) block of sources on the annulus rows
(`singular.PolarCache.annulus_rows`: a source is zero off its vertex's
annulus), a parameter's unused slots zero.  Per block, one GEMM combines
the Gram blocks, the block's rows of the singular block border each
normal matrix from the annulus rows alone, `_cholesky_solve` ridges each
system and solves it with one LAPACK dposv call, raising if it is not
positive definite, and the residuals give the losses.  A caller that
hands in the (J1, N) and (J2, N) adjoints of the Laplacians and of the
trace that the gradient reads (``out``, which it may keep between
batches) asks for them: the residuals also give the row seeds, whose
products with the coefficients are added into them, the minus side's
through the sign.  No array spans the batch times the interior or jump
rows (the singular block spans the annulus rows alone), nor holds the
normal matrices of the whole batch.  `assemble_system` and
`solve_normal_equations` build and solve one parameter's explicit system,
the reference the batched solve is checked against, through the same
`_cholesky_solve`, which alone holds the ridge rule and the unit diagonal
of a column that is zero on every row, such as an unused singular slot.
`assemble_system` is the one place a singular block is scattered to all
J1 interior rows.
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
# Parameters per block of `solve_parameter_batch`.  On train1d-sin (P = 256,
# N = 50, J1 = 1000; 10 alternating pairs, BLAS on one thread) blocks of 64
# read epoch_s -3.5% at +2.8% peak_rss_mb, and one block of all 256 -11% at
# +11%.  Most of that gain is page faults: with one block an epoch faults in
# no page, against about 700 with 32, the pages glibc trims off the heap top
# after one epoch and the next faults in again.  32 stays: that churn is the
# allocator's to mend, at no memory cost, where bigger blocks buy the time
# with memory; 32 kept the solve's tracemalloc peak at 2.5 MB, where the
# whole batch at once took 11.5 MB.
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
    with every row already weighted."""

    geometry: Geometry
    quad: QuadratureSet
    sqrt_w: np.ndarray  # (J1,) interior row weights sqrt(w)
    sqrt_theta_w: np.ndarray  # (J2,) jump row weights sqrt(Theta w)
    wlap: np.ndarray  # (J1, N) sqrt(w) * Laplacians of the composed basis
    wrhs_p: np.ndarray  # (J1,) sqrt(w) * strong-form source = p*factor + fixed
    wrhs_fixed: np.ndarray  # (J1,)
    wtrace: np.ndarray  # (J2, N) sqrt(Theta w) * plus-side normal traces
    sign: np.ndarray  # (J2, N) +-1: the minus-side traces are sign * wtrace
    sign_runs: tuple  # (read-only (N,) row, rows slice) per run of equal rows of sign
    ifc_minus_sub: np.ndarray  # (J2,)
    ifc_plus_sub: np.ndarray  # (J2,)
    polar: PolarCache  # interior points around the singular vertices
    gram: GramBlocks

    @property
    def n_basis(self) -> int:
        return self.wlap.shape[1]


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
    lap: np.ndarray,
    trace: np.ndarray,
    sign: np.ndarray,
    rhs: RhsSpec,
    theta: float = 1.0,
) -> EpochCache:
    """Cache the weighted Laplacian, trace and rhs rows and the Gram blocks.

    ``lap`` and the plus-side normal traces ``trace`` must be evaluated at
    exactly the quadrature's interior/interface points (shapes (J1, N) and
    (J2, N)); ``sign`` is (J2, N), -1 where a column's minus-side trace is
    its plus-side trace negated and +1 where the two are equal.  The cache
    owns ``lap``: it is weighted in place and kept, so a caller that still
    needs the raw Laplacians passes a copy.  The trace is a weighted copy,
    and ``sign`` is kept as given.  ``polar`` is the vertex-disk table of
    the interior points (`singular.polar_cache`), kept as given for the
    singular columns' rows; a table made for another number of points
    raises ValueError.  The jump weight ``theta`` must be finite and
    nonnegative (ValueError).
    """
    if not (np.isfinite(theta) and theta >= 0):
        raise ValueError(f"theta must be finite and nonnegative, got {theta}")
    if lap.shape[0] != quad.n_interior:
        raise ValueError("Laplacian rows do not match the interior points")
    polar.check_points(quad.n_interior)
    if trace.shape != (quad.n_interface, lap.shape[1]) or sign.shape != trace.shape:
        raise ValueError("trace shapes do not match the interface points")
    pf, fixed = rhs.factors(quad.interior_points)
    sw = np.sqrt(quad.interior_weights)
    sj = np.sqrt(theta) * np.sqrt(quad.interface_weights)
    minus_sub = np.array([geometry.interfaces[k].minus for k in quad.interface_ids], dtype=int)
    plus_sub = np.array([geometry.interfaces[k].plus for k in quad.interface_ids], dtype=int)
    lap *= sw[:, None]  # in place: no second (J1, N) array
    wrhs_p, wrhs_fixed = sw * pf, sw * fixed
    wtrace = sj[:, None] * trace
    gram = _build_gram(geometry, quad, lap, wrhs_p, wrhs_fixed, wtrace, sign, theta)
    return EpochCache(
        geometry, quad, sw, sj, lap, wrhs_p, wrhs_fixed, wtrace, sign, _sign_runs(sign),
        minus_sub, plus_sub, polar, gram,
    )


def _sign_runs(sign: np.ndarray) -> tuple:
    """The runs of consecutive equal rows of a (J2, N) ``sign``, as ((N,)
    row, rows slice) pairs.  The rows of one interface are one run, and in
    the epochs and the queries a row depends only on its interface's axis,
    whose interfaces come one after another: one run in 1D, two in 2D.
    Each row is a read-only view of ``sign``: freezing ``sign`` later does
    not reach a view made before, and nothing writes through a run."""
    starts = np.flatnonzero(np.any(sign[1:] != sign[:-1], axis=1)) + 1
    bounds = [0, *starts.tolist(), len(sign)] if len(sign) else []
    runs = tuple((sign[a], slice(a, b)) for a, b in zip(bounds[:-1], bounds[1:]))
    for row, _ in runs:
        row.flags.writeable = False
    return runs


def _build_gram(geometry, quad, c, f1, f0, t, sign, theta) -> GramBlocks:
    """The Gram blocks of the weighted rows: Laplacians c, rhs factors f1
    and f0, and plus-side traces t, whose minus side is sign * t, one cross
    block per interface."""
    n_sub, n = geometry.n_subdomains, c.shape[1]
    sq = np.zeros((n_sub, n, n))
    b_sq = np.zeros((n_sub, n))
    b_lin = np.zeros((n_sub, n))
    sub = quad.interior_subdomain
    for i in range(n_sub):
        rows = sub == i
        ci = c[rows]
        sq[i] = ci.T @ ci
        b_sq[i] = -ci.T @ f1[rows]
        b_lin[i] = -ci.T @ f0[rows]

    cross = np.empty((len(geometry.interfaces), n, n))
    for k, ifc in enumerate(geometry.interfaces):
        rows = quad.interface_ids == k
        tpg = t[rows]
        tmg = sign[rows] * tpg
        sq[ifc.plus] += tpg.T @ tpg
        sq[ifc.minus] += tmg.T @ tmg
        cross[k] = -(tmg.T @ tpg + tpg.T @ tmg)
    blocks = np.concatenate([sq, cross])
    combined = blocks.transpose(0, 2, 1).reshape(len(blocks), n * n)
    cross_pairs = np.array([(g.minus, g.plus) for g in geometry.interfaces], dtype=int)
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
    p_minus = parameter[cache.ifc_minus_sub]
    p_plus = parameter[cache.ifc_plus_sub]
    jump = (p_plus[:, None] - p_minus[:, None] * cache.sign) * cache.wtrace
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
    a parameter solves in a batch as it does alone.  Each
    system is one LAPACK dposv call on the lower triangle, which overwrites
    a[k] with its factor and b[k] with the solution; a Fortran-ordered a[k]
    (as `solve_parameter_batch` makes them) is factored where it lies, a
    C-ordered one is copied first.  The loop stays because the batched
    alternatives measured slower (one core of a 2-core Xeon, BLAS on one
    thread): on a (256, 50, 50) stack NumPy's batched np.linalg.cholesky
    alone took 7.6-9.1 ms and np.linalg.solve 9.8-10.2 ms, against
    5.6-5.9 ms for this loop, and scipy.linalg.solve(assume_a='pos') took
    1.6-1.8 ms on (32, 50, 50) against 0.7 ms; NumPy's batched Cholesky
    also does not say which system failed.  A system that is not positive
    definite raises SolveError naming it by its index in the whole batch,
    ``first + k``.  Returns the solutions, ``b`` itself when it is a
    C-contiguous float array.
    """
    diag = np.arange(a.shape[-1])
    dead = a[:, diag, diag] == 0
    mean_diag = np.trace(a, axis1=-2, axis2=-1) / np.maximum(np.sum(~dead, axis=1), 1)
    ridge = RIDGE_REL * np.where(mean_diag > 0, mean_diag, 1.0)
    a[:, diag, diag] += dead + ridge[:, None]
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
    block, allocated in Fortran order so that LAPACK reads it in place;
    the border reads the annulus rows alone, so no singular array spans
    the J1 interior rows.  A parameter's unused slots are zero columns,
    which `_cholesky_solve` leaves out of the ridge and solves to zero.
    The loss of parameter k is ||B y - l||^2 over its interior and jump
    rows, and ``y_sing`` holds the (P, M) singular coefficients.
    Handing in ``out``, a (bar_lap, bar_trace) pair of arrays of the
    (J1, N) and (J2, N) row shapes, asks for the row adjoints: each is
    zeroed and then holds the halved derivative of the summed losses in
    its raw rows, d(sum_k loss_k) / d lap[j, n] = 2 bar_lap[j, n] and
    likewise bar_trace for the plus-side traces, into which the minus
    side's rows, sign times the plus side's, add through the sign.  The
    minus side's products go through the sign row s of each run of
    ``cache.sign_runs``: wtrace (s * y) for the residual, kept on the
    run's rows, and r (s * y) for the seeds of those rows, so no (J2, N)
    temporary of the sign times an array is made.
    Without ``out`` none is formed.  A caller that solves batches of one
    shape again and again keeps its adjoint arrays so.
    """
    gram = cache.gram
    parameters = validate_parameter_batch(cache.geometry, np.atleast_2d(parameters))
    n_p, n_sub = parameters.shape
    n = cache.n_basis
    rows = cache.polar.annulus_rows
    c, f1, f0 = cache.wlap, cache.wrhs_p, cache.wrhs_fixed
    sing = np.zeros((n_p, rows.size, 0)) if singular_evals_per_p is None else singular_evals_per_p
    if not isinstance(sing, np.ndarray) or sing.ndim != 3 or sing.shape[:2] != (n_p, rows.size):
        raise ValueError(f"singular evaluations must be one (P, R, M) array on the {n_p} "
                         f"parameters and the {rows.size} annulus rows")
    m = sing.shape[2]
    y_nn, y_sing, losses = np.empty((n_p, n)), np.empty((n_p, m)), np.empty(n_p)
    if out is not None:
        shapes = [a.shape for a in (c, cache.wtrace)]
        if [a.shape for a in out] != shapes:
            raise ValueError(f"adjoint arrays of shapes {[a.shape for a in out]} "
                             f"do not match the rows' {shapes}")
        for a in out:
            a.fill(0.0)
        bar_lap, bar_trace = out
    for s in range(0, n_p, BLOCK):
        p = parameters[s : s + BLOCK]
        # one GEMM: (P, K) monomial coefficients against the fused (K, N*N) blocks
        coef = gram.coefficients(p)
        a_nn = (coef @ gram.combined).reshape(-1, n, n).transpose(0, 2, 1)  # Fortran-ordered
        b_nn = coef[:, :n_sub] @ gram.b_sq + p @ gram.b_lin
        if m == 0:
            a, rhs = a_nn, b_nn
        else:
            p_rows = p[:, cache.quad.interior_subdomain[rows]]  # (P, R)
            # (P, R, M) weighted, p-scaled
            us = (cache.sqrt_w[rows] * p_rows)[:, :, None] * sing[s : s + BLOCK]
            border = np.matmul(c[rows].T, p_rows[:, :, None] * us)  # (P, N, M)
            a = np.empty((len(p), n + m, n + m)).transpose(0, 2, 1)
            a[:, :n, :n] = a_nn
            a[:, :n, n:] = border
            a[:, n:, :n] = border.transpose(0, 2, 1)
            a[:, n:, n:] = us.transpose(0, 2, 1) @ us
            l_rows = p_rows * f1[rows] + f0[rows]  # (P, R)
            rhs = np.concatenate([b_nn, -(l_rows[:, None, :] @ us)[:, 0]], axis=1)
        y = _cholesky_solve(a, rhs, s)
        y_nn[s : s + BLOCK] = y_b = y[:, :n]
        y_sing[s : s + BLOCK] = y[:, n:]
        # the block's residuals, one column per parameter
        p_int = p.T[cache.quad.interior_subdomain]  # (J1, P)
        p_plus, p_minus = p.T[cache.ifc_plus_sub], p.T[cache.ifc_minus_sub]
        r_int = c @ y_b.T
        r_int += f1[:, None]
        r_int *= p_int
        r_int += f0[:, None]
        if m:
            r_int[rows] += (us @ y[:, n:, None])[:, :, 0].T
        r_jump = cache.wtrace @ y_b.T
        r_jump *= p_plus
        # the minus side, (sign * wtrace) y, as wtrace (s * y) for the sign
        # row s of each run, kept on its rows: no (J2, N) product of the
        # sign is made.  The product spans every row, so that each row's
        # sum runs as in one product over all of them
        r_minus = np.empty_like(r_jump)
        for s_row, run in cache.sign_runs:
            r_minus[run] = (cache.wtrace @ (s_row[:, None] * y_b.T))[run]
        r_minus *= p_minus
        r_jump -= r_minus
        losses[s : s + BLOCK] = np.einsum("jk,jk->k", r_int, r_int)
        losses[s : s + BLOCK] += np.einsum("jk,jk->k", r_jump, r_jump)
        if out is not None:  # in place, the residuals become the seeds, times y into out
            r_int *= p_int
            r_int *= cache.sqrt_w[:, None]
            bar_lap += r_int @ y_b
            r_jump *= cache.sqrt_theta_w[:, None]
            bar_trace += (p_plus * r_jump) @ y_b
            r_jump *= p_minus
            for s_row, run in cache.sign_runs:
                bar_trace[run] -= r_jump[run] @ (s_row * y_b)
    return BatchSolveResult(y_nn, y_sing, losses)


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
