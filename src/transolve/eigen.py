"""Periodic Sturm-Liouville eigenproblem around a singular vertex.

The angular coefficient p(theta) is piecewise constant on the four
quarter-plane sectors.  On the reference coordinate xi in [0, 4] (one unit
per sector, d theta/d xi = pi/2) the space is spanned by sixteen functions:
per element three internal quartic bubbles in the local coordinate
u = xi - e,

    u(1-u),   5 u(1-u)(u-1/2),   20 u(1-u)(u-1/2)^2,

plus four C0 hat functions (1/4) max(0, 1-|xi-e|) that wrap periodically.
Stiffness/mass assembly uses 5-point Gauss-Legendre per element, exact for
the degree-8 integrands.  Both matrices are linear in the four sector
values, so they are contractions of the trace with per-sector unit blocks
computed once at import.  The generalized problem G rho = lambda B rho is
reduced through the Cholesky factor of B to a standard symmetric one and
solved by LAPACK for a whole stack of traces at once; singular exponents are
the square roots of the generalized eigenvalues, selected in (0, 1).

A semi-analytic transfer-matrix oracle (piecewise trigonometric modes
propagated sector to sector, periodicity enforced as a root problem) is
included for validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenSystem",
    "EigenPair",
    "basis_matrix",
    "assemble_eigensystem",
    "solve_eigenpairs",
    "select_singular",
    "angular_eval",
    "semi_analytic_exponents",
]

N_ELEMENTS = 4
N_BASIS = 16
XI_PER_THETA = 2.0 / np.pi  # d xi / d theta
SECTOR = np.pi / 2


def _bubble(u, k):
    w = u * (1 - u)
    if k == 0:
        return w
    if k == 1:
        return 5 * w * (u - 0.5)
    return 20 * w * (u - 0.5) ** 2


def _bubble_deriv(u, k):
    if k == 0:
        return 1 - 2 * u
    if k == 1:
        return 5 * ((1 - 2 * u) * (u - 0.5) + u * (1 - u))
    return 20 * ((1 - 2 * u) * (u - 0.5) ** 2 + 2 * u * (1 - u) * (u - 0.5))


def basis_matrix(xi) -> tuple[np.ndarray, np.ndarray]:
    """Values and xi-derivatives of all 16 basis functions at given xi.

    Bubbles are element-local; hats are tents of height 1/4 centered on the
    element nodes xi = 0..3 with periodic wrap at xi in {0, 4}.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    xi = np.mod(xi, 4.0)
    n = xi.size
    vals = np.zeros((n, N_BASIS))
    ders = np.zeros((n, N_BASIS))
    elem = np.minimum(xi.astype(int), N_ELEMENTS - 1)
    u = xi - elem
    for e in range(N_ELEMENTS):
        mask = elem == e
        if not np.any(mask):
            continue
        ue = u[mask]
        for k in range(3):
            vals[mask, 3 * e + k] = _bubble(ue, k)
            ders[mask, 3 * e + k] = _bubble_deriv(ue, k)
    for e in range(N_ELEMENTS):
        dist = np.abs(xi - e)
        dist = np.minimum(dist, 4.0 - dist)  # periodic wrap
        inside = dist < 1.0
        vals[inside, 12 + e] = 0.25 * (1.0 - dist[inside])
        # slope sign: negative moving away from the center, wrapped
        diff = np.mod(xi - e + 2.0, 4.0) - 2.0
        ders[inside, 12 + e] = -0.25 * np.sign(diff[inside])
    return vals, ders


@dataclass
class EigenSystem:
    """Assembled 16x16 stiffness and mass matrices with their angular trace.

    A stack of traces of shape (..., 4) gives matrices of shape
    (..., 16, 16).
    """

    stiffness: np.ndarray
    mass: np.ndarray
    trace: np.ndarray  # p per quarter sector, last axis of length 4


def _transpose(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _unit_blocks() -> tuple[np.ndarray, np.ndarray]:
    """Per-sector stiffness and mass blocks for p = 1 on that sector only."""
    nodes, weights = np.polynomial.legendre.leggauss(5)
    w = 0.5 * weights
    g = np.zeros((N_ELEMENTS, N_BASIS, N_BASIS))
    b = np.zeros((N_ELEMENTS, N_BASIS, N_BASIS))
    for e in range(N_ELEMENTS):
        vals, ders = basis_matrix(e + 0.5 * (nodes + 1.0))
        # measures: d theta = (pi/2) d xi;  d/d theta = (2/pi) d/d xi
        b[e] = SECTOR * np.einsum("q,qi,qj->ij", w, vals, vals)
        g[e] = (XI_PER_THETA**2) * SECTOR * np.einsum("q,qi,qj->ij", w, ders, ders)
    return 0.5 * (g + _transpose(g)), 0.5 * (b + _transpose(b))


_UNIT_STIFFNESS, _UNIT_MASS = _unit_blocks()
_MASS_CONSTANT_P = _UNIT_MASS.sum(axis=0)  # L2(0, 2pi) inner product of the basis


def assemble_eigensystem(p_sector) -> EigenSystem:
    """Stiffness/mass matrices of one trace or of a stack of traces.

    ``p_sector`` holds the p values of the four sectors, shape (..., 4).
    """
    p_sector = np.asarray(p_sector, dtype=float)
    if p_sector.ndim < 1 or p_sector.shape[-1] != N_ELEMENTS:
        raise ValueError("angular trace must provide 4 sector values")
    if not np.all(np.isfinite(p_sector)) or np.any(p_sector <= 0):
        raise ValueError("angular trace must be positive and finite")
    shape = p_sector.shape[:-1] + (N_BASIS, N_BASIS)
    g = (p_sector @ _UNIT_STIFFNESS.reshape(N_ELEMENTS, -1)).reshape(shape)
    b = (p_sector @ _UNIT_MASS.reshape(N_ELEMENTS, -1)).reshape(shape)
    return EigenSystem(g, b, p_sector)


@dataclass
class EigenPair:
    """One angular mode: exponent, B-orthonormal coefficients, unit-L2 scale.

    ``rho`` diagonalizes the generalized problem with rho^T B^p rho = 1;
    ``mu_scale`` rescales the reconstructed angular function to unit L2 norm
    on (0, 2pi), which is the normalization used by the singular basis.
    ``residual`` is the relative residual of the generalized eigenproblem.
    """

    exponent: float
    eigenvalue: float
    rho: np.ndarray
    mu_scale: float
    residual: float


def solve_eigenpairs(system: EigenSystem):
    """All eigenpairs of G rho = lambda B rho, sorted by exponent.

    Reduction (LAPACK dsygv): B = L L^T, then the symmetric eigenproblem
    L^-1 G L^-T y = lambda y, and rho = L^-T y.  Exponents are
    sqrt(max(lambda, 0)).  One system gives a list of 16 pairs; a stack of
    shape (..., 16, 16) is solved in one batched call and gives nested lists
    with the stack's leading shape, one list of pairs per system.
    """
    lead = system.stiffness.shape[:-2]
    g = system.stiffness.reshape(-1, N_BASIS, N_BASIS)
    b = system.mass.reshape(-1, N_BASIS, N_BASIS)
    try:
        chol = np.linalg.cholesky(b)
    except np.linalg.LinAlgError as exc:
        raise ValueError("mass matrix is not positive definite") from exc
    reduced = np.linalg.solve(chol, _transpose(np.linalg.solve(chol, g)))
    lams, y = np.linalg.eigh(reduced)
    rho = np.linalg.solve(_transpose(chol), y)  # column k belongs to lams[:, k]

    g_rho = g @ rho
    res = np.linalg.norm(g_rho - (b @ rho) * lams[:, None, :], axis=1)
    gnorm = np.linalg.norm(g, axis=(1, 2))[:, None]
    bnorm = np.linalg.norm(b, axis=(1, 2))[:, None]
    rho_norm = np.linalg.norm(rho, axis=1)
    scale = np.maximum(np.linalg.norm(g_rho, axis=1), np.abs(lams) * bnorm * rho_norm)
    res /= np.maximum(scale, gnorm * 1e-14)
    lams = np.maximum(lams, 0.0)  # eigh's order is kept, so exponents ascend
    mu_scale = np.einsum("nik,ij,njk->nk", rho, _MASS_CONSTANT_P, rho) ** -0.5
    rho_rows = np.ascontiguousarray(_transpose(rho))

    out = [
        [
            EigenPair(
                exponent=float(np.sqrt(lams[n, k])),
                eigenvalue=float(lams[n, k]),
                rho=rho_rows[n, k],
                mu_scale=float(mu_scale[n, k]),
                residual=float(res[n, k]),
            )
            for k in range(N_BASIS)
        ]
        for n in range(g.shape[0])
    ]
    if not lead:
        return out[0]
    for size in reversed(lead[1:]):  # regroup the flat stack by leading axes
        out = [out[i:i + size] for i in range(0, len(out), size)]
    return out


def select_singular(pairs: list[EigenPair], n_cap: int, band: float = 1e-6) -> list[EigenPair]:
    """At most n_cap smallest-exponent pairs with exponent strictly in (0, 1).

    Guard bands keep out the constant mode (exponent ~ 0 up to FE noise)
    and the regular modes whose exponent is 1 up to discretization error.
    A negative cap raises ValueError.
    """
    if n_cap < 0:
        raise ValueError(f"the singular cap must be nonnegative, got {n_cap}")
    picked = [p for p in pairs if band < p.exponent < 1.0 - band]
    return picked[:n_cap]


def angular_eval(pair: EigenPair, theta):
    """Unit-L2 angular function mu(theta) and its one-sided derivative."""
    theta = np.asarray(theta, dtype=float)
    xi = np.mod(theta, 2 * np.pi) * XI_PER_THETA
    vals, ders = basis_matrix(xi)
    mu = pair.mu_scale * (vals @ pair.rho)
    dmu = pair.mu_scale * (ders @ pair.rho) * XI_PER_THETA
    return mu.reshape(theta.shape), dmu.reshape(theta.shape)


def _transfer_matrix(lam: float, p_sector: np.ndarray) -> np.ndarray:
    """Propagate (mu, p mu') across the four sectors at trial exponent lam."""
    t = np.eye(2)
    c, s = np.cos(lam * SECTOR), np.sin(lam * SECTOR)
    for p in p_sector:
        tk = np.array([[c, s / (lam * p)], [-p * lam * s, c]])
        t = tk @ t
    return t


def semi_analytic_exponents(p_sector, lam_max=2.0, step=1e-3, tol=1e-12):
    """Exponents of the sector problem with sector values ``p_sector`` (4,)
    by transfer-matrix root finding.

    On each constant sector modes are A cos(lam theta) + B sin(lam theta);
    periodicity of (mu, p mu') requires det(T(lam) - I) = 0, i.e.
    tr T = 2 since det T = 1.  Roots of f = tr T - 2 on (0, lam_max] are
    located by sign scanning plus bisection; tangential (double) roots,
    where f touches zero from below, are refined by ternary maximization.
    """
    p_sector = np.asarray(p_sector, dtype=float)

    def f(lam):
        return np.trace(_transfer_matrix(lam, p_sector)) - 2.0

    # scan a little past lam_max so tangential roots at the edge are seen
    grid = np.arange(step, lam_max + 3 * step, step)
    fv = np.array([f(x) for x in grid])
    roots = []

    def add_root(x):
        if x <= lam_max + step and not any(abs(x - r) < 1e-9 for r in roots):
            roots.append(x)

    for i in range(len(grid) - 1):
        a, b = grid[i], grid[i + 1]
        fa, fb = fv[i], fv[i + 1]
        if fa == 0.0:
            add_root(a)
            continue
        if fa * fb < 0:
            while b - a > tol:
                m = 0.5 * (a + b)
                fm = f(m)
                if fa * fm <= 0:
                    b = m
                else:
                    a, fa = m, fm
            add_root(0.5 * (a + b))
        elif 0 < i and fv[i] < 0 and fv[i] > fv[i - 1] and fv[i] >= fb:
            # negative local max: candidate tangential (double) root
            a, b = grid[i - 1], grid[i + 1]
            while b - a > tol:
                m1 = a + (b - a) / 3
                m2 = b - (b - a) / 3
                if f(m1) < f(m2):
                    a = m1
                else:
                    b = m2
            x = 0.5 * (a + b)
            if abs(f(x)) <= 1e-8:
                add_root(x)
    return sorted(roots)
