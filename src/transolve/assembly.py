"""Stacked least-squares systems for the residual-plus-flux-jump loss.

Row layout: J1 interior rows carrying sqrt(weight) * p(x) * (Laplacians of
the composed basis | singular sources) against the loss-side right-hand
side, then J2 jump rows carrying sqrt(Theta * weight) times the signed
flux-jump bracket of the basis traces (singular columns are zero there).

`build_epoch_cache` weights the parameter-free rows once, the Laplacians in
place; the row weights are known to this module alone.  Every entry of the
network columns is affine in the diffusivity vector p, so their block of
B^T B is a quadratic polynomial in p whose coefficient matrices, the Gram
blocks, the cache holds.  `solve_parameter_batch`, the one solve of
training, validation and `final_solve`, walks the batch in blocks of BLOCK
parameters.  Per block, one GEMM combines the Gram blocks, the singular
columns border each normal matrix from the annulus rows alone
(`singular.PolarCache.annulus_rows`: a source is zero off its vertex's
annulus), one LAPACK dposv call solves each ridged system and raises if it
is not positive definite, and the residuals give the losses and, if asked
for, the row seeds times the coefficients, added into the (J1, N) and
(J2, N) row adjoints that the gradient reads.  No array spans the batch
times the rows, nor holds the normal matrices of the whole batch.
`assemble_system` and `solve_normal_equations` build and solve one
parameter's explicit system, the reference the batched solve is checked
against; `assemble_system` is the one place a singular block is scattered
to all J1 interior rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dposv as _dposv

from .cutoffs import CutoffConfig
from .geometry import Geometry, validate_parameter, validate_parameter_batch
from .reference import RhsSpec
from .sampling import QuadratureSet
from .singular import PolarCache, polar_cache

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
# Parameters per block of `solve_parameter_batch`.  Blocks of 32 and 64 ran
# alike in time on the 1D benchmark (P = 256, N = 50, J1 = 1000); 32 kept the
# solve's tracemalloc peak at 2.5 MB, where the whole batch at once took 11.5 MB.
BLOCK = 32


@dataclass
class GramBlocks:
    """Stacked parameter-independent pieces of B^T B and B^T l.

    A(p) = coefficients(p) @ combined, the sum of p_i^2 times the squared
    block of subdomain i and p_minus(g) p_plus(g) times the cross block of
    interface g, with the theta jump weight already folded in; b(p)
    decomposes into per-subdomain quadratic/linear vectors.
    """

    theta: float
    combined: np.ndarray  # (I+G, N*N) squared blocks, then cross blocks
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
    cutoff_config: CutoffConfig
    quad: QuadratureSet
    sqrt_w: np.ndarray  # (J1,) interior row weights sqrt(w)
    sqrt_theta_w: np.ndarray  # (J2,) jump row weights sqrt(Theta w)
    wlap: np.ndarray  # (J1, N) sqrt(w) * Laplacians of the composed basis
    wrhs_p: np.ndarray  # (J1,) sqrt(w) * strong-form source = p*factor + fixed
    wrhs_fixed: np.ndarray  # (J1,)
    wtrace_minus: np.ndarray  # (J2, N) sqrt(Theta w) * one-sided normal traces
    wtrace_plus: np.ndarray  # (J2, N)
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
    cutoff_config: CutoffConfig,
    quad: QuadratureSet,
    lap: np.ndarray,
    trace_minus: np.ndarray,
    trace_plus: np.ndarray,
    rhs: RhsSpec,
    theta: float = 1.0,
) -> EpochCache:
    """Cache the weighted Laplacian, trace and rhs rows and the Gram blocks.

    ``lap`` and the traces must be evaluated at exactly the quadrature's
    interior/interface points (shapes (J1, N) and (J2, N)).  The cache owns
    ``lap``: it is weighted in place and kept, so a caller that still needs
    the raw Laplacians passes a copy.  The traces are weighted copies.
    """
    if lap.shape[0] != quad.n_interior:
        raise ValueError("Laplacian rows do not match the interior points")
    if trace_minus.shape != (quad.n_interface, lap.shape[1]) or trace_plus.shape != trace_minus.shape:
        raise ValueError("trace shapes do not match the interface points")
    pf, fixed = rhs.factors(quad.interior_points)
    sw = np.sqrt(quad.interior_weights)
    sj = np.sqrt(theta) * np.sqrt(quad.interface_weights)
    minus_sub = np.array([geometry.interfaces[k].minus for k in quad.interface_ids], dtype=int)
    plus_sub = np.array([geometry.interfaces[k].plus for k in quad.interface_ids], dtype=int)
    lap *= sw[:, None]  # in place: no second (J1, N) array
    wrhs_p, wrhs_fixed = sw * pf, sw * fixed
    wtrace_minus, wtrace_plus = sj[:, None] * trace_minus, sj[:, None] * trace_plus
    polar = polar_cache(quad.interior_points, geometry, cutoff_config)
    gram = _build_gram(geometry, quad, lap, wrhs_p, wrhs_fixed, wtrace_minus, wtrace_plus, theta)
    return EpochCache(
        geometry, cutoff_config, quad, sw, sj, lap, wrhs_p, wrhs_fixed, wtrace_minus,
        wtrace_plus, minus_sub, plus_sub, polar, gram,
    )


def _build_gram(geometry, quad, c, f1, f0, tm, tp, theta) -> GramBlocks:
    """The Gram blocks of the weighted rows: Laplacians c, rhs factors f1
    and f0, and traces tm and tp, one cross block per interface."""
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
        tpg, tmg = tp[rows], tm[rows]
        sq[ifc.plus] += tpg.T @ tpg
        sq[ifc.minus] += tmg.T @ tmg
        cross[k] = -(tmg.T @ tpg + tpg.T @ tmg)
    combined = np.concatenate([sq.reshape(n_sub, n * n), cross.reshape(-1, n * n)])
    cross_pairs = np.array([(g.minus, g.plus) for g in geometry.interfaces], dtype=int)
    return GramBlocks(theta, combined, cross_pairs.reshape(-1, 2), b_sq, b_lin)


def assemble_system(cache: EpochCache, parameter, singular_evals, theta: float) -> LsSystem:
    """Explicit stacked matrix for one parameter (cache-based assembly).

    ``singular_evals`` is the (R, n_s) source block on the cache's annulus
    rows, as `singular.singular_evals_from_cache` gives it, or None.  This
    reference scatters it into a dense (J1, n_s) block, the only place one
    is made.  The jump rows carry the cache's Theta, so ``theta`` must
    equal it.
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
    jump = p_plus[:, None] * cache.wtrace_plus - p_minus[:, None] * cache.wtrace_minus
    bottom = np.concatenate([jump, np.zeros((j2, n_sing))], axis=1)
    matrix = np.concatenate([top, bottom], axis=0)
    rhs = np.concatenate([rhs_top, np.zeros(j2)])
    return LsSystem(matrix, rhs)


def solve_normal_equations(system, ridge: float | None = None):
    """Solve min ||B y - l|| through the ridged normal equations.

    Default ridge is 1e-10 * trace(B^T B)/ncols; a failed Cholesky
    factorization escalates the ridge a hundredfold, up to three times.
    Returns (y, residual norm squared), the residual formed explicitly.
    """
    if isinstance(system, LsSystem):
        b, l = system.matrix, system.rhs
    else:
        b, l = system
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(l))):
        raise ValueError("non-finite system")
    a = b.T @ b
    rhs = b.T @ l
    ncols = a.shape[0]
    lam = RIDGE_REL * np.trace(a) / ncols if ridge is None else ridge
    for attempt in range(4):
        try:
            factor = cho_factor(a + lam * np.eye(ncols), lower=True)
            y = cho_solve(factor, rhs)
            break
        except np.linalg.LinAlgError:
            if attempt == 3:
                raise RuntimeError(
                    f"normal-equation Cholesky failed; trace={np.trace(a):.3e}, "
                    f"last ridge={lam:.3e}"
                )
            lam = lam * 100.0 if lam > 0 else RIDGE_REL * max(np.trace(a), 1.0) / ncols
    residual = b @ y - l
    return y, float(residual @ residual)


@dataclass
class BatchSolveResult:
    """Per-batch LS solutions and, if asked for, the row adjoints.

    Each adjoint is the halved derivative of the summed losses in one set
    of raw rows: d(sum_k loss_k) / d lap[j, n] = 2 bar_lap[j, n], and
    likewise bar_minus (bar_plus) for the minus (plus) traces.
    """

    y_nn: np.ndarray  # (P, N) network-column coefficients
    y_sing: list  # per-parameter singular coefficient vectors
    losses: np.ndarray  # (P,) residual norms squared
    bar_lap: np.ndarray | None = None  # (J1, N)
    bar_minus: np.ndarray | None = None  # (J2, N)
    bar_plus: np.ndarray | None = None  # (J2, N)


class SolveError(RuntimeError):
    """A system of a batch that is not positive definite; ``index`` is its
    position in the batch."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


def _cholesky_solve(a: np.ndarray, b: np.ndarray, ridge: np.ndarray, first: int) -> np.ndarray:
    """Solve every system (a[k] + ridge[k] I) y[k] = b[k] of an SPD stack.

    Each system is one LAPACK dposv call: NumPy's batched Cholesky does not
    say which system failed, and it has no batched triangular solve.  A
    system that is not positive definite raises SolveError naming it by its
    index in the whole batch, ``first + k``; ``a`` is overwritten.
    """
    n = a.shape[-1]
    diag = np.arange(n)
    a[:, diag, diag] += ridge[:, None]
    y = np.empty(b.shape)
    for k in range(len(a)):
        _, y[k], info = _dposv(a[k], b[k], lower=1)
        if info:
            raise SolveError(first + k, f"least-squares system {first + k} is not positive "
                                        f"definite (ridge {ridge[k]:.3g})")
    return y


def solve_parameter_batch(
    cache: EpochCache,
    parameters: np.ndarray,
    singular_evals_per_p: list | None = None,
    ridge: float | None = None,
    adjoint: bool = False,
) -> BatchSolveResult:
    """Least-squares solve of every parameter of a batch through the Gram blocks.

    ``singular_evals_per_p`` holds one (R, n_s) source block per parameter
    on the cache's annulus rows (None for none); the counts n_s may differ.
    Each normal matrix is the Gram combination bordered by its parameter's
    singular columns, padded to its block's largest count with an identity
    block and a zero right-hand side, which solve to zero.  The border
    reads the annulus rows alone, so no singular array spans the J1
    interior rows.  The ridge of each system is RIDGE_REL times the mean
    diagonal of its unpadded matrix (RIDGE_REL where that mean is 0), or
    ``ridge``.  The loss of parameter k is ||B y - l||^2 over its interior
    and jump rows.  The row adjoints are summed only under ``adjoint``.
    """
    gram = cache.gram
    parameters = validate_parameter_batch(cache.geometry, np.atleast_2d(parameters))
    n_p, n_sub = parameters.shape
    n = cache.n_basis
    rows = cache.polar.annulus_rows
    c, f1, f0 = cache.wlap, cache.wrhs_p, cache.wrhs_fixed
    sing = singular_evals_per_p or [None] * n_p
    if len(sing) != n_p:
        raise ValueError("one singular block per parameter is needed")
    if any(s is not None and s.shape[0] != rows.size for s in sing):
        raise ValueError("singular evaluations do not match the annulus rows")
    all_counts = [0 if s is None else s.shape[1] for s in sing]
    y_nn, losses, y_sing = np.empty((n_p, n)), np.empty(n_p), []
    bar_lap, bar_minus, bar_plus = (
        np.zeros(a.shape) if adjoint else None for a in (c, cache.wtrace_minus, cache.wtrace_plus)
    )
    for s in range(0, n_p, BLOCK):
        p = parameters[s : s + BLOCK]
        # one GEMM: (P, K) monomial coefficients against the fused (K, N*N) blocks
        coef = gram.coefficients(p)
        a_nn = (coef @ gram.combined).reshape(-1, n, n)
        b_nn = coef[:, :n_sub] @ gram.b_sq + p @ gram.b_lin
        counts = np.array(all_counts[s : s + BLOCK])
        m = int(counts.max())
        if m == 0:
            a, rhs = a_nn, b_nn
        else:
            padded = np.zeros((len(p), rows.size, m))
            for k in np.flatnonzero(counts):
                padded[k, :, : counts[k]] = sing[s + k]
            p_rows = p[:, cache.quad.interior_subdomain[rows]]  # (P, R)
            us = (cache.sqrt_w[rows] * p_rows)[:, :, None] * padded  # (P, R, M) weighted, p-scaled
            border = np.matmul(c[rows].T, p_rows[:, :, None] * us)  # (P, N, M)
            a = np.empty((len(p), n + m, n + m))
            a[:, :n, :n] = a_nn
            a[:, :n, n:] = border
            a[:, n:, :n] = border.transpose(0, 2, 1)
            a[:, n:, n:] = us.transpose(0, 2, 1) @ us
            l_rows = p_rows * f1[rows] + f0[rows]  # (P, R)
            rhs = np.concatenate([b_nn, -(l_rows[:, None, :] @ us)[:, 0]], axis=1)
        if ridge is None:
            mean_diag = np.trace(a, axis1=-2, axis2=-1) / (n + counts)
            ridge_vec = RIDGE_REL * np.where(mean_diag > 0, mean_diag, 1.0)
        else:
            ridge_vec = np.full(len(p), float(ridge))
        if m:  # unit diagonal on the padded slots, after the trace was taken
            pad = n + np.arange(m)
            a[:, pad, pad] += np.arange(m) >= counts[:, None]
        y = _cholesky_solve(a, rhs, ridge_vec, s)
        y_nn[s : s + BLOCK] = y_b = y[:, :n]
        y_sing += [y[k, n : n + count] for k, count in enumerate(counts.tolist())]
        # the block's residuals, one column per parameter
        p_int = p.T[cache.quad.interior_subdomain]  # (J1, P)
        p_plus, p_minus = p.T[cache.ifc_plus_sub], p.T[cache.ifc_minus_sub]
        r_int = c @ y_b.T
        r_int += f1[:, None]
        r_int *= p_int
        r_int += f0[:, None]
        if m:
            r_int[rows] += (us @ y[:, n:, None])[:, :, 0].T
        r_jump = cache.wtrace_plus @ y_b.T
        r_jump *= p_plus
        r_jump -= p_minus * (cache.wtrace_minus @ y_b.T)
        losses[s : s + BLOCK] = np.einsum("jk,jk->k", r_int, r_int)
        losses[s : s + BLOCK] += np.einsum("jk,jk->k", r_jump, r_jump)
        if adjoint:  # in place, the residuals become the seeds, times y into the adjoints
            r_int *= p_int
            r_int *= cache.sqrt_w[:, None]
            bar_lap += r_int @ y_b
            r_jump *= cache.sqrt_theta_w[:, None]
            bar_plus += (p_plus * r_jump) @ y_b
            r_jump *= p_minus
            bar_minus -= r_jump @ y_b
    return BatchSolveResult(y_nn, y_sing, losses, bar_lap, bar_minus, bar_plus)


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
