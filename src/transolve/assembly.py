"""Stacked least-squares systems for the residual-plus-flux-jump loss.

Row layout: J1 interior rows carrying sqrt(weight) * p(x) * (Laplacians of
the composed basis | singular sources) against the loss-side right-hand
side, then J2 jump rows carrying sqrt(Theta * weight) times the signed
flux-jump bracket of the basis traces (singular columns are zero there).

`build_epoch_cache` weights the parameter-free rows once: sqrt(w) times the
basis Laplacians and the two right-hand-side factors, sqrt(Theta w) times
the two traces.  Everything below reads only these weighted rows, and the
row weights are known to this module alone.

Every entry of the network columns is affine in the diffusivity vector p,
so their block of the normal-equation matrix B^T B is a quadratic
polynomial in p with parameter-independent coefficient matrices.  Those
Gram blocks are precomputed once per epoch.  `solve_parameter_batch` is the
one solve that training, validation and `final_solve` use: it combines the
Gram blocks for the whole batch in one GEMM, borders every parameter's
normal matrix with its singular columns in one batched step, and solves
each ridged system with one LAPACK dposv call; a system that is not
positive definite raises.  A singular column's source is zero off its
vertex's annulus, so each singular block holds the cache's annulus rows
only (`singular.PolarCache.annulus_rows`), and the border reads just those
rows of the Laplacians, right-hand side and residual.  It returns the
adjoint seeds of the raw rows, so the gradient is three products with the
coefficients.  `assemble_system` and `solve_normal_equations` build and
solve one parameter's explicit system; they are the reference the batched
solve is checked against, and `assemble_system` is the one place a
singular block is scattered to all J1 interior rows.
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
    interior/interface points (shapes (J1, N) and (J2, N)); only their
    weighted copies are kept.
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
    wlap, wrhs_p, wrhs_fixed = sw[:, None] * lap, sw * pf, sw * fixed
    wtrace_minus, wtrace_plus = sj[:, None] * trace_minus, sj[:, None] * trace_plus
    polar = polar_cache(quad.interior_points, geometry, cutoff_config)
    gram = _build_gram(geometry, quad, wlap, wrhs_p, wrhs_fixed, wtrace_minus, wtrace_plus, theta)
    return EpochCache(
        geometry, cutoff_config, quad, sw, sj, wlap, wrhs_p, wrhs_fixed, wtrace_minus,
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
    """Per-batch LS solutions with the adjoint seeds the gradient needs.

    The seeds are the derivatives of the losses in the raw rows, halved:
    d loss_k / d lap[j, n] = 2 seed_int[j, k] y_nn[k, n], and likewise
    seed_plus (seed_minus) for the plus (minus) traces of the jump rows.
    """

    y_nn: np.ndarray  # (P, N) network-column coefficients
    y_sing: list  # per-parameter singular coefficient vectors
    losses: np.ndarray  # (P,) residual norms squared
    seed_int: np.ndarray  # (J1, P) sqrt(w) p r_int
    seed_plus: np.ndarray  # (J2, P) sqrt(Theta w) p_plus r_jump
    seed_minus: np.ndarray  # (J2, P) -sqrt(Theta w) p_minus r_jump


class SolveError(RuntimeError):
    """A system of a batch that is not positive definite; ``index`` is its
    position in the batch."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


def _cholesky_solve(a: np.ndarray, b: np.ndarray, ridge: np.ndarray) -> np.ndarray:
    """Solve every system (a[k] + ridge[k] I) y[k] = b[k] of an SPD stack.

    Each system is one LAPACK dposv call: NumPy's batched Cholesky does not
    say which system failed, and it has no batched triangular solve.  A
    system that is not positive definite raises SolveError naming it.
    ``a`` is overwritten.
    """
    n = a.shape[-1]
    diag = np.arange(n)
    a[:, diag, diag] += ridge[:, None]
    y = np.empty(b.shape)
    for k in range(len(a)):
        _, y[k], info = _dposv(a[k], b[k], lower=1)
        if info:
            raise SolveError(
                k, f"least-squares system {k} is not positive definite (ridge {ridge[k]:.3g})"
            )
    return y


def solve_parameter_batch(
    cache: EpochCache,
    parameters: np.ndarray,
    singular_evals_per_p: list | None = None,
    ridge: float | None = None,
) -> BatchSolveResult:
    """Least-squares solve of every parameter of a batch through the Gram blocks.

    ``singular_evals_per_p`` holds one (R, n_s) source block per parameter
    on the cache's annulus rows (None for none); the counts n_s may differ.
    Each normal matrix is the Gram combination bordered by its parameter's
    singular columns, padded to the batch's largest count with an identity
    block and a zero right-hand side, which solve to zero.  The border
    reads the Laplacian, right-hand-side and residual rows of the annulus
    alone, so no singular array spans the J1 interior rows.  The ridge of
    each system is RIDGE_REL times the mean diagonal of its unpadded matrix
    (RIDGE_REL where that mean is 0), or ``ridge``.  The loss of parameter
    k is ||B y - l||^2 over its interior and jump rows.
    """
    gram = cache.gram
    parameters = validate_parameter_batch(cache.geometry, np.atleast_2d(parameters))
    n_p, n_sub = parameters.shape
    n = cache.n_basis
    rows = cache.polar.annulus_rows

    # one GEMM: (P, K) monomial coefficients against the fused (K, N*N) blocks
    coef = gram.coefficients(parameters)
    a_nn = (coef @ gram.combined).reshape(n_p, n, n)
    b_nn = coef[:, :n_sub] @ gram.b_sq + parameters @ gram.b_lin

    c, f1, f0 = cache.wlap, cache.wrhs_p, cache.wrhs_fixed
    p_int = parameters[:, cache.quad.interior_subdomain].T  # (J1, P)
    p_plus = parameters[:, cache.ifc_plus_sub].T
    p_minus = parameters[:, cache.ifc_minus_sub].T

    sing = singular_evals_per_p or [None] * n_p
    if len(sing) != n_p:
        raise ValueError("one singular block per parameter is needed")
    if any(s is not None and s.shape[0] != rows.size for s in sing):
        raise ValueError("singular evaluations do not match the annulus rows")
    counts = np.array([0 if s is None else s.shape[1] for s in sing])
    m = int(counts.max(initial=0))
    if m == 0:
        a, rhs = a_nn, b_nn
    else:
        padded = np.zeros((n_p, rows.size, m))
        for k in np.flatnonzero(counts):
            padded[k, :, : counts[k]] = sing[k]
        p_rows = parameters[:, cache.quad.interior_subdomain[rows]]  # (P, R)
        us = (cache.sqrt_w[rows] * p_rows)[:, :, None] * padded  # (P, R, M) weighted, p-scaled
        border = np.matmul(c[rows].T, p_rows[:, :, None] * us)  # (P, N, M)
        a = np.empty((n_p, n + m, n + m))
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
        ridge_vec = np.full(n_p, float(ridge))
    if m:  # unit diagonal on the padded slots, after the trace was taken
        pad = n + np.arange(m)
        a[:, pad, pad] += np.arange(m) >= counts[:, None]
    y = _cholesky_solve(a, rhs, ridge_vec)

    y_nn = y[:, :n]
    r_int = c @ y_nn.T  # (J1, P)
    r_int += f1[:, None]
    r_int *= p_int
    r_int += f0[:, None]
    if m:
        r_int[rows] += (us @ y[:, n:, None])[:, :, 0].T
    r_jump = cache.wtrace_plus @ y_nn.T
    r_jump *= p_plus
    r_jump -= p_minus * (cache.wtrace_minus @ y_nn.T)
    losses = np.sum(r_int**2, axis=0) + np.sum(r_jump**2, axis=0)
    r_int *= p_int  # in place: the residuals become the seeds
    r_int *= cache.sqrt_w[:, None]
    r_jump *= cache.sqrt_theta_w[:, None]
    y_sing = [y[k, n : n + c] for k, c in enumerate(counts.tolist())]
    return BatchSolveResult(y_nn, y_sing, losses, r_int, p_plus * r_jump, -p_minus * r_jump)


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
