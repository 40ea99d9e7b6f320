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
reduced through the Cholesky factor L of B to a standard symmetric one and
solved by LAPACK for a whole stack of traces at once: L is inverted once per
system (one batched call), and the reduction L^-1 G L^-T and the
back-transform rho = L^-T y are matrix products.  Exponents are the square
roots of the generalized eigenvalues.  The modes of the whole stack stay
in the arrays of one `EigenModes`, indexed by the stack's leading axes, and
`select_singular` keeps those of one system with exponent in (0, 1) by one
mask over its exponents, so an `EigenPair` is made only for a kept mode.
The basis table at a batch of points is built with array operations, with
no loop over the elements.

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
    "EigenModes",
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
# guard band of select_singular: exponents within it of 0 or 1 are not singular
SELECT_BAND = 1e-6


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
    element nodes xi = 0..3 with periodic wrap at xi in {0, 4}.  Every
    point's three bubbles are written to its own element's columns with
    one index, and the four hats are one (n, 4) table.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    xi = np.mod(xi, 4.0)
    n = xi.size
    vals = np.zeros((n, N_BASIS))
    ders = np.zeros((n, N_BASIS))
    elem = np.minimum(xi.astype(int), N_ELEMENTS - 1)
    u = xi - elem
    cols = 3 * elem[:, None] + np.arange(3)
    rows = np.arange(n)[:, None]
    vals[rows, cols] = np.stack([_bubble(u, k) for k in range(3)], axis=1)
    ders[rows, cols] = np.stack([_bubble_deriv(u, k) for k in range(3)], axis=1)
    nodes = np.arange(N_ELEMENTS)
    dist = np.abs(xi[:, None] - nodes)
    dist = np.minimum(dist, 4.0 - dist)  # periodic wrap
    inside = dist < 1.0
    vals[:, 12:] = np.where(inside, 0.25 * (1.0 - dist), 0.0)
    # slope sign: negative moving away from the center, wrapped
    diff = np.mod(xi[:, None] - nodes + 2.0, 4.0) - 2.0
    ders[:, 12:] = np.where(inside, -0.25 * np.sign(diff), 0.0)
    return vals, ders


@dataclass
class EigenSystem:
    """Assembled 16x16 stiffness and mass matrices of an angular trace.

    A stack of traces of shape (..., 4) gives matrices of shape
    (..., 16, 16).
    """

    stiffness: np.ndarray
    mass: np.ndarray


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
    return EigenSystem(g, b)


@dataclass
class EigenPair:
    """One angular mode: exponent, B-orthonormal coefficients, unit-L2 scale.

    ``rho`` diagonalizes the generalized problem with rho^T B^p rho = 1;
    ``mu_scale`` rescales the reconstructed angular function to unit L2 norm
    on (0, 2pi), which is the normalization used by the singular basis.
    ``residual`` is the relative residual of the generalized eigenproblem.
    """

    exponent: float
    rho: np.ndarray
    mu_scale: float
    residual: float


@dataclass(eq=False)
class EigenModes:
    """The modes of a stack of systems as arrays, exponents ascending.

    Each array has the stack's leading shape, then one axis of M modes;
    ``rho`` has one more of 16 coefficients, so one system gives (16,)
    arrays and a (16, 16) ``rho``.  Indexing applies to the leading axes of all four arrays:
    ``modes[k, v]`` are the modes of one system of a (P, N_s) stack.
    The fields are those of `EigenPair`, which `select_singular` makes
    for the kept modes of one system.
    """

    exponent: np.ndarray  # (..., M)
    rho: np.ndarray  # (..., M, 16), row m the coefficients of mode m
    mu_scale: np.ndarray  # (..., M)
    residual: np.ndarray  # (..., M)

    def __getitem__(self, k) -> "EigenModes":
        return EigenModes(self.exponent[k], self.rho[k], self.mu_scale[k], self.residual[k])


def solve_eigenpairs(system: EigenSystem) -> EigenModes:
    """All modes of G rho = lambda B rho, sorted by exponent.

    Reduction (Golub & Van Loan, Matrix Computations, 8.7): B = L L^T, then
    the symmetric eigenproblem L^-1 G L^-T y = lambda y, and rho = L^-T y,
    with L^-1 formed once per system by a batched inverse so that the
    reduction and the back-substitution are matrix products.  Exponents are
    sqrt(max(lambda, 0)).  A stack of shape (..., 16, 16) is solved in one
    batched call and gives one `EigenModes` whose arrays have the stack's
    leading shape; one system gives (16,) arrays.
    """
    shape = system.stiffness.shape[:-2] + (N_BASIS,)  # leading axes, then modes
    g = system.stiffness.reshape(-1, N_BASIS, N_BASIS)
    b = system.mass.reshape(-1, N_BASIS, N_BASIS)
    try:
        chol = np.linalg.cholesky(b)
    except np.linalg.LinAlgError as exc:
        raise ValueError("mass matrix is not positive definite") from exc
    # one batched inverse of the 16 x 16 factor, then GEMMs: cheaper than
    # three batched triangular solves on a stack of small systems
    inv_t = _transpose(np.linalg.inv(chol))
    lams, y = np.linalg.eigh(_transpose(inv_t) @ g @ inv_t)
    rho = inv_t @ y  # column k belongs to lams[:, k]

    g_rho = g @ rho
    res = np.linalg.norm(g_rho - (b @ rho) * lams[:, None, :], axis=1)
    gnorm = np.linalg.norm(g, axis=(1, 2))[:, None]
    bnorm = np.linalg.norm(b, axis=(1, 2))[:, None]
    rho_norm = np.linalg.norm(rho, axis=1)
    scale = np.maximum(np.linalg.norm(g_rho, axis=1), np.abs(lams) * bnorm * rho_norm)
    res /= np.maximum(scale, gnorm * 1e-14)
    # eigh's order is kept, so exponents ascend
    exponent = np.sqrt(np.maximum(lams, 0.0))
    # rho^T M rho per mode, with M @ rho one GEMM: the three-operand einsum
    # makes no BLAS call and took 17x as long on a (32, 16, 16) stack
    mu_scale = np.einsum("nik,nik->nk", rho, _MASS_CONSTANT_P @ rho) ** -0.5
    rho_rows = np.ascontiguousarray(_transpose(rho))
    return EigenModes(exponent.reshape(shape), rho_rows.reshape(shape + (N_BASIS,)),
                      mu_scale.reshape(shape), res.reshape(shape))


def select_singular(modes: EigenModes, n_cap: int) -> list[EigenPair]:
    """At most n_cap smallest-exponent pairs with exponent strictly in (0, 1).

    ``modes`` are those of one system, (M,) exponents.  Guard bands of
    `SELECT_BAND` keep out the constant mode (exponent ~ 0 up to FE noise)
    and the regular modes whose exponent is 1 up to discretization error.
    One mask over the exponent array picks the modes, in their ascending
    order; only the kept ones become `EigenPair`s, their ``rho`` a row of
    ``modes.rho``.  A negative cap raises ValueError.
    """
    if n_cap < 0:
        raise ValueError(f"the singular cap must be nonnegative, got {n_cap}")
    e = modes.exponent
    picked = ((e > SELECT_BAND) & (e < 1.0 - SELECT_BAND)).nonzero()[0][:n_cap]
    return [EigenPair(e.item(k), modes.rho[k], modes.mu_scale.item(k), modes.residual.item(k))
            for k in picked.tolist()]


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
