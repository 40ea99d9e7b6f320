"""Stacked least-squares systems for the residual-plus-flux-jump loss.

Row layout: J1 interior rows carrying sqrt(weight) * p(x) * (Laplacians of
the composed basis | singular sources) against the loss-side right-hand
side, then J2 jump rows carrying sqrt(Theta * weight) times the signed
flux-jump bracket of the basis traces (singular columns are zero there).

Every entry is affine in the diffusivity vector p, so the normal-equation
matrix B^T B is a quadratic polynomial in p with parameter-independent
coefficient matrices.  Those Gram blocks are precomputed once per epoch,
which makes the per-parameter work a small coefficient combination plus a
Cholesky solve and keeps epoch cost nearly independent of the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .cutoffs import CutoffConfig, eta_jet
from .eigen import XI_PER_THETA, EigenPair, basis_matrix
from .geometry import Geometry, validate_parameter
from .reference import RhsSpec
from .sampling import QuadratureSet

__all__ = [
    "EpochCache",
    "LsSystem",
    "CoefficientVector",
    "BatchSolveResult",
    "build_epoch_cache",
    "assemble_system",
    "singular_evals_from_cache",
    "solve_normal_equations",
    "solve_parameter_batch",
    "evaluate_solution",
]

RIDGE_REL = 1e-10

from scipy.linalg.lapack import dpotrf as _dpotrf
from scipy.linalg.lapack import dpotrs as _dpotrs


def _chol_solve_stack(a_stack, b_stack, y, ok):
    """Cholesky-solve every stacked SPD system via raw LAPACK calls.

    Writes solutions into ``y`` and success flags into ``ok``; failed
    factorizations leave their slot untouched for the ridge retry.
    """
    for p in range(a_stack.shape[0]):
        c, info = _dpotrf(a_stack[p], lower=1)
        if info != 0:
            ok[p] = False
            continue
        y[p], info = _dpotrs(c, b_stack[p], lower=1)
        ok[p] = info == 0


@dataclass
class VertexGeo:
    """Parameter-independent geometric factors of one vertex's annulus."""

    index: np.ndarray  # interior-point indices with delta1 < r < delta2
    r: np.ndarray
    eta_p: np.ndarray
    eta_pp: np.ndarray
    angular_basis: np.ndarray  # (len, 16) FE basis values at theta


@dataclass
class GramBlocks:
    """Stacked parameter-independent pieces of B^T B, B^T l and l^T l.

    A(p) = sum_i p_i^2 sq[i] + sum_g p_minus(g) p_plus(g) cross[g], with
    the theta jump weight already folded in; b(p) decomposes into per-
    subdomain quadratic/linear vectors.
    """

    theta: float
    sq: np.ndarray  # (I, N, N)
    cross: np.ndarray  # (G, N, N)
    cross_pairs: np.ndarray  # (G, 2) minus/plus subdomain ids
    b_sq: np.ndarray  # (I, N)
    b_lin: np.ndarray  # (I, N)
    combined: np.ndarray = None  # (I+G, N*N) fused blocks for one-GEMM combination

    def __post_init__(self):
        if self.combined is None:
            n = self.sq.shape[-1]
            flat_cross = self.cross.reshape(len(self.cross), n * n)
            self.combined = np.concatenate([self.sq.reshape(len(self.sq), -1), flat_cross])

    def coefficients(self, parameters: np.ndarray) -> np.ndarray:
        """(P, I+G) monomials [p_i^2 | p_minus p_plus] matching ``combined``."""
        psq = parameters**2
        if not self.cross_pairs.size:
            return psq
        pcross = parameters[:, self.cross_pairs[:, 0]] * parameters[:, self.cross_pairs[:, 1]]
        return np.concatenate([psq, pcross], axis=1)


@dataclass
class EpochCache:
    """Everything parameter-independent about one epoch's quadrature points."""

    geometry: Geometry
    cutoff_config: CutoffConfig
    quad: QuadratureSet
    lap: np.ndarray  # (J1, N) Laplacians of composed basis functions
    trace_minus: np.ndarray  # (J2, N) one-sided normal traces
    trace_plus: np.ndarray  # (J2, N)
    rhs_p_factor: np.ndarray  # (J1,) strong-form source = p*factor + fixed
    rhs_fixed: np.ndarray  # (J1,)
    ifc_minus_sub: np.ndarray  # (J2,)
    ifc_plus_sub: np.ndarray  # (J2,)
    vertex_geo: list[VertexGeo] = field(default_factory=list)
    gram: GramBlocks | None = None

    @property
    def n_basis(self) -> int:
        return self.lap.shape[1]

    @property
    def sqrt_w_int(self) -> np.ndarray:
        return np.sqrt(self.quad.interior_weights)

    @property
    def sqrt_w_ifc(self) -> np.ndarray:
        return np.sqrt(self.quad.interface_weights)


@dataclass
class LsSystem:
    """One parameter's stacked system B y = l with its column split."""

    matrix: np.ndarray  # (J1+J2, n_nn + n_sing)
    rhs: np.ndarray
    n_interior: int
    n_nn: int
    n_sing: int
    theta: float


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
    """Cache composed Laplacians, traces, rhs factors and Gram blocks.

    ``lap`` and the traces must be evaluated at exactly the quadrature's
    interior/interface points (shapes (J1, N) and (J2, N)).
    """
    if lap.shape[0] != quad.n_interior:
        raise ValueError("Laplacian rows do not match the interior points")
    if trace_minus.shape != (quad.n_interface, lap.shape[1]) or trace_plus.shape != trace_minus.shape:
        raise ValueError("trace shapes do not match the interface points")
    pf, fixed = rhs.factors(quad.interior_points)
    minus_sub = np.array([geometry.interfaces[k].minus for k in quad.interface_ids], dtype=int)
    plus_sub = np.array([geometry.interfaces[k].plus for k in quad.interface_ids], dtype=int)
    cache = EpochCache(
        geometry,
        cutoff_config,
        quad,
        np.asarray(lap, dtype=float),
        np.asarray(trace_minus, dtype=float),
        np.asarray(trace_plus, dtype=float),
        pf,
        fixed,
        minus_sub,
        plus_sub,
    )
    cache.vertex_geo = _vertex_geometry(geometry, cutoff_config, quad)
    cache.gram = _build_gram(cache, theta)
    return cache


def _vertex_geometry(geometry, config, quad) -> list[VertexGeo]:
    out = []
    pts = quad.interior_points
    for v in geometry.singular_vertices:
        dx = pts[:, 0] - v[0]
        dy = pts[:, 1] - v[1]
        r = np.hypot(dx, dy)
        idx = np.where((r > config.delta1) & (r < config.delta2))[0]
        ra = r[idx]
        _, ep, epp = eta_jet(ra, config)
        theta = np.mod(np.arctan2(dy[idx], dx[idx]), 2 * np.pi)
        vals, _ = basis_matrix(theta * XI_PER_THETA)
        out.append(VertexGeo(idx, ra, ep, epp, vals))
    return out


def _build_gram(cache: EpochCache, theta: float) -> GramBlocks:
    geometry = cache.geometry
    n_sub = geometry.n_subdomains
    n = cache.n_basis
    c = cache.sqrt_w_int[:, None] * cache.lap  # (J1, N)
    f1 = cache.sqrt_w_int * cache.rhs_p_factor
    f0 = cache.sqrt_w_int * cache.rhs_fixed

    sq = np.zeros((n_sub, n, n))
    b_sq = np.zeros((n_sub, n))
    b_lin = np.zeros((n_sub, n))
    sub = cache.quad.interior_subdomain
    for i in range(n_sub):
        rows = sub == i
        ci = c[rows]
        sq[i] = ci.T @ ci
        b_sq[i] = -ci.T @ f1[rows]
        b_lin[i] = -ci.T @ f0[rows]

    tm = cache.sqrt_w_ifc[:, None] * cache.trace_minus
    tp = cache.sqrt_w_ifc[:, None] * cache.trace_plus
    pairs_map: dict[tuple[int, int], list[int]] = {}
    for k in range(cache.quad.n_interface):
        key = (int(cache.ifc_minus_sub[k]), int(cache.ifc_plus_sub[k]))
        pairs_map.setdefault(key, []).append(k)
    cross, cross_pairs = [], []
    for (im, ip), rows in pairs_map.items():
        rows = np.array(rows)
        tpg = tp[rows]
        tmg = tm[rows]
        sq[ip] += theta * tpg.T @ tpg
        sq[im] += theta * tmg.T @ tmg
        cross.append(-theta * (tmg.T @ tpg + tpg.T @ tmg))
        cross_pairs.append((im, ip))
    cross = np.array(cross) if cross else np.zeros((0, n, n))
    cross_pairs = (
        np.array(cross_pairs, dtype=int) if cross_pairs else np.zeros((0, 2), dtype=int)
    )
    return GramBlocks(theta, sq, cross, cross_pairs, b_sq, b_lin)


def singular_evals_from_cache(cache: EpochCache, pairs_per_vertex: list[list[EigenPair]]):
    """S-source columns at the cached interior points for one parameter.

    Uses the cached annulus geometry, so only the angular combination and
    the exponent-dependent radial profile are recomputed per parameter.
    """
    j1 = cache.quad.n_interior
    cols = []
    for geo, pairs in zip(cache.vertex_geo, pairs_per_vertex):
        for pair in pairs:
            col = np.zeros(j1)
            lam = pair.exponent
            mu = geo.angular_basis @ (pair.mu_scale * pair.rho)
            radial = 2 * lam * geo.r ** (lam - 1) * geo.eta_p + geo.r**lam * (
                geo.eta_pp + geo.eta_p / geo.r
            )
            col[geo.index] = mu * radial
            cols.append(col)
    if not cols:
        return np.zeros((j1, 0))
    return np.stack(cols, axis=1)


def assemble_system(cache: EpochCache, parameter, singular_evals, theta: float) -> LsSystem:
    """Explicit stacked matrix for one parameter (cache-based assembly)."""
    parameter = validate_parameter(cache.geometry, parameter)
    j1, n = cache.lap.shape
    j2 = cache.quad.n_interface
    if singular_evals is None:
        singular_evals = np.zeros((j1, 0))
    if singular_evals.shape[0] != j1:
        raise ValueError("singular evaluations do not match the interior points")
    n_sing = singular_evals.shape[1]
    p_int = parameter[cache.quad.interior_subdomain]
    scale_int = cache.sqrt_w_int * p_int
    top = np.concatenate(
        [scale_int[:, None] * cache.lap, scale_int[:, None] * singular_evals], axis=1
    )
    # loss-side rhs: the residual p*Lap(u) - l must vanish at the solution
    # of -div(p grad u) = rhs, so l = -(p*factor + fixed) row-weighted
    rhs_top = -cache.sqrt_w_int * (p_int * cache.rhs_p_factor + cache.rhs_fixed)
    sw = np.sqrt(theta) * cache.sqrt_w_ifc
    p_minus = parameter[cache.ifc_minus_sub]
    p_plus = parameter[cache.ifc_plus_sub]
    jump = sw[:, None] * (
        p_plus[:, None] * cache.trace_plus - p_minus[:, None] * cache.trace_minus
    )
    bottom = np.concatenate([jump, np.zeros((j2, n_sing))], axis=1)
    matrix = np.concatenate([top, bottom], axis=0)
    rhs = np.concatenate([rhs_top, np.zeros(j2)])
    return LsSystem(matrix, rhs, j1, n, n_sing, theta)


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
    """Per-batch LS solutions with the residual fields the gradient needs."""

    y_nn: np.ndarray  # (P, N) network-column coefficients
    y_sing: list  # per-parameter singular coefficient vectors
    losses: np.ndarray  # (P,) residual norms squared
    r_int: np.ndarray  # (J1, P) weighted interior residuals
    r_jump: np.ndarray  # (J2, P) weighted jump residuals
    p_int: np.ndarray  # (J1, P) local diffusivity per point and parameter
    p_plus: np.ndarray  # (J2, P)
    p_minus: np.ndarray  # (J2, P)


def _cholesky_solve_batch(a_stack: np.ndarray, b_stack: np.ndarray, ridge=None) -> np.ndarray:
    """Batched SPD solve by Cholesky with ridge escalation."""
    n = a_stack.shape[-1]
    n_batch = a_stack.shape[0]
    if ridge is None:
        ridge = RIDGE_REL * np.trace(a_stack, axis1=-2, axis2=-1) / n
    else:
        ridge = np.full(n_batch, float(ridge))
    y = np.empty((n_batch, n))
    ok = np.zeros(n_batch, dtype=np.bool_)
    diag = np.arange(n)
    for attempt in range(4):
        work = a_stack.copy()
        work[:, diag, diag] += ridge[:, None]
        _chol_solve_stack(work, b_stack, y, ok)
        if np.all(ok):
            return y
        if attempt == 3:
            raise RuntimeError("batched Cholesky failed after ridge escalation")
        ridge = np.where(ok, ridge, np.where(ridge > 0, ridge * 100.0, RIDGE_REL))
    raise AssertionError("unreachable")


def solve_parameter_batch(
    cache: EpochCache,
    parameters: np.ndarray,
    singular_evals_per_p: list | None = None,
    ridge: float | None = None,
) -> BatchSolveResult:
    """Assemble-and-solve for a whole parameter batch via the Gram blocks.

    Without singular columns everything is batched; singular borders are
    added per parameter (cheap, and they depend on that parameter's
    eigenpairs anyway).  Residuals are the rows of B y - l, so the loss of
    parameter p is exactly ||r_int[:, p]||^2 + ||r_jump[:, p]||^2.
    """
    if cache.gram is None:
        raise ValueError("cache was built without Gram blocks")
    gram = cache.gram
    theta = gram.theta
    parameters = np.asarray(parameters, dtype=float)
    if parameters.ndim == 1:
        parameters = parameters[None, :]
    n_p, n_sub = parameters.shape
    if n_sub != cache.geometry.n_subdomains:
        raise ValueError("parameter length does not match the subdomain count")
    n = cache.n_basis

    # one GEMM: (P, K) monomial coefficients against the fused (K, N*N) blocks
    coef = gram.coefficients(parameters)
    a_stack = (coef @ gram.combined).reshape(n_p, n, n)
    psq = coef[:, :n_sub]
    b_stack = psq @ gram.b_sq + parameters @ gram.b_lin

    sw_int = cache.sqrt_w_int
    c = sw_int[:, None] * cache.lap
    f1 = sw_int * cache.rhs_p_factor
    f0 = sw_int * cache.rhs_fixed
    p_int = parameters[:, cache.quad.interior_subdomain].T  # (J1, P)
    p_plus = parameters[:, cache.ifc_plus_sub].T
    p_minus = parameters[:, cache.ifc_minus_sub].T
    sw_j = np.sqrt(theta) * cache.sqrt_w_ifc

    have_sing = singular_evals_per_p is not None and any(
        s is not None and s.shape[1] for s in singular_evals_per_p
    )
    y_sing: list = [np.zeros(0)] * n_p
    if not have_sing:
        # fast path: factor a_stack in place; rebuild only if a ridge bump
        # is needed (near-singular early-training bases)
        ridge_vec = (
            RIDGE_REL * np.trace(a_stack, axis1=-2, axis2=-1) / n
            if ridge is None
            else np.full(n_p, float(ridge))
        )
        diag = np.arange(n)
        a_stack[:, diag, diag] += ridge_vec[:, None]
        y_nn = np.empty((n_p, n))
        ok = np.zeros(n_p, dtype=np.bool_)
        _chol_solve_stack(a_stack, b_stack, y_nn, ok)
        if not np.all(ok):
            a_stack = (coef @ gram.combined).reshape(n_p, n, n)
            y_nn = _cholesky_solve_batch(a_stack, b_stack, ridge)
        u = c @ y_nn.T  # (J1, P), reused as the residual buffer
        u += f1[:, None]
        u *= p_int
        u += f0[:, None]
        r_int = u
        up = (sw_j[:, None] * cache.trace_plus) @ y_nn.T
        um = (sw_j[:, None] * cache.trace_minus) @ y_nn.T
        up *= p_plus
        um *= p_minus
        up -= um
        r_jump = up
    else:
        y_nn = np.zeros((n_p, n))
        r_int = np.zeros((cache.quad.n_interior, n_p))
        r_jump = np.zeros((cache.quad.n_interface, n_p))
        for k in range(n_p):
            s = singular_evals_per_p[k]
            s = np.zeros((cache.quad.n_interior, 0)) if s is None else s
            pc = p_int[:, k]
            us = (sw_int * pc)[:, None] * s  # weighted, p-scaled singular block
            cp = pc[:, None] * c
            n_s = s.shape[1]
            a_full = np.empty((n + n_s, n + n_s))
            a_full[:n, :n] = a_stack[k]
            a_full[:n, n:] = cp.T @ us
            a_full[n:, :n] = a_full[:n, n:].T
            a_full[n:, n:] = us.T @ us
            b_full = np.concatenate([b_stack[k], -us.T @ (pc * f1 + f0)])
            y = _cholesky_solve_batch(a_full[None], b_full[None], ridge)[0]
            y_nn[k] = y[:n]
            y_sing[k] = y[n:]
            r_int[:, k] = pc * (c @ y[:n] + f1) + f0 + us @ y[n:]
            up = sw_j * (cache.trace_plus @ y[:n])
            um = sw_j * (cache.trace_minus @ y[:n])
            r_jump[:, k] = p_plus[:, k] * up - p_minus[:, k] * um
    losses = np.sum(r_int**2, axis=0) + np.sum(r_jump**2, axis=0)
    return BatchSolveResult(y_nn, y_sing, losses, r_int, r_jump, p_int, p_plus, p_minus)


def evaluate_solution(coeffs, basis_values, basis_grads, sing_values=None, sing_grads=None):
    """Field u = a.w + b.v (+ c.s) and its gradient at evaluation points."""
    y = coeffs.stacked if isinstance(coeffs, CoefficientVector) else np.asarray(coeffs)
    n_nn = basis_values.shape[1]
    n_sing = 0 if sing_values is None else sing_values.shape[1]
    if y.size != n_nn + n_sing:
        raise ValueError("coefficient length does not match the basis")
    u = basis_values @ y[:n_nn]
    grad = np.einsum("jnd,n->jd", basis_grads, y[:n_nn])
    if n_sing:
        u = u + sing_values @ y[n_nn:]
        grad = grad + np.einsum("jnd,n->jd", sing_grads, y[n_nn:])
    return u, grad
