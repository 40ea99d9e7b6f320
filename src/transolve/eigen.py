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
computed once at import.  The generalized problem G rho = lambda B rho of
each trace of a stack is one call of LAPACK's generalized symmetric
eigensolver dsygv, which reduces it through the Cholesky factor of B to a standard
symmetric one, solves that and transforms back.  Exponents are the square
roots of the generalized eigenvalues.  The modes of the whole stack stay
in the arrays of one `EigenModes`, indexed by the stack's leading axes, and
`select_singular` keeps those of one system with exponent in (0, 1) as the
run of its rows they form, a view of the stack's arrays: no mode is
copied out of them.
The basis table at a batch of points is built with array operations, with
no loop over the elements.

A semi-analytic transfer-matrix oracle (piecewise trigonometric modes
propagated sector to sector, periodicity enforced as a root problem) is
included for validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsygv as _dsygv

__all__ = [
    "EigenSystem",
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
    return 0.5 * (g + g.transpose(0, 2, 1)), 0.5 * (b + b.transpose(0, 2, 1))


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


@dataclass(eq=False)
class EigenModes:
    """The modes of a stack of systems as arrays, exponents ascending.

    Each array has the stack's leading shape, then one axis of M modes;
    ``rho`` has one more of 16 coefficients, so one system gives (16,)
    arrays and a (16, 16) ``rho``.  Per mode: the exponent; ``rho``, the
    coefficients that diagonalize the generalized problem with
    rho^T B^p rho = 1; ``mu_scale``, which rescales the reconstructed
    angular function to unit L2 norm on (0, 2pi), the normalization of
    the singular basis; and ``residual``, the relative residual of the
    generalized eigenproblem.  Indexing and ``len`` apply to the first
    axes of all four arrays: ``modes[k, v]`` are the modes of one system
    of a (P, N_s) stack, and on one system's modes ``modes[m]`` is mode m,
    ``modes[a:b]`` a run of them, and iteration goes mode by mode.
    """

    exponent: np.ndarray  # (..., M)
    rho: np.ndarray  # (..., M, 16), row m the coefficients of mode m
    mu_scale: np.ndarray  # (..., M)
    residual: np.ndarray  # (..., M)

    def __getitem__(self, k) -> "EigenModes":
        return EigenModes(self.exponent[k], self.rho[k], self.mu_scale[k], self.residual[k])

    def __len__(self) -> int:
        return len(self.exponent)


def solve_eigenpairs(system: EigenSystem) -> EigenModes:
    """All modes of G rho = lambda B rho, sorted by exponent.

    Each 16 x 16 system is one call of LAPACK's generalized symmetric
    eigensolver dsygv (itype 1, lower triangle), which reduces it through the
    Cholesky factor of B and returns the eigenvalues ascending with
    rho^T B rho = 1 (Golub & Van Loan, Matrix Computations, 8.7).  Against
    NumPy's batched Cholesky, 16 x 16 inverse, two reductions, eigh and
    back-substitution, the loop took 108 against 172 us on 4 systems and
    831 against 1055 us on 32 (one core of a 2-core Xeon, BLAS on one
    thread); 16 x 16 is too small for the batched calls to pay.  Exponents are sqrt(max(lambda, 0)).  A stack of shape
    (..., 16, 16) gives one `EigenModes` whose arrays have the stack's
    leading shape; one system gives (16,) arrays.  A mass matrix that is
    not positive definite, or an eigensolve that does not converge, raises
    ValueError through dsygv's info.
    """
    shape = system.stiffness.shape[:-2] + (N_BASIS,)  # leading axes, then modes
    g = system.stiffness.reshape(-1, N_BASIS, N_BASIS)
    b = system.mass.reshape(-1, N_BASIS, N_BASIS)
    lams = np.empty((len(g), N_BASIS))
    rho = np.empty((len(g), N_BASIS, N_BASIS))  # row m the coefficients of mode m
    for k in range(len(g)):
        lams[k], v, info = _dsygv(g[k], b[k], itype=1, uplo="L")
        if info > N_BASIS:
            raise ValueError(f"mass matrix {k} is not positive definite")
        if info:
            raise ValueError(f"the eigensolve of system {k} did not converge")
        rho[k] = v.T
    # G and B are symmetric, so row m of rho @ G is (G rho_m)^T
    g_rho = rho @ g
    res = g_rho - (rho @ b) * lams[:, :, None]
    res = np.sqrt(np.vecdot(res, res))
    gnorm, bnorm = (np.sqrt(np.vecdot(a, a))[:, None] for a in (g.reshape(len(g), -1),
                                                             b.reshape(len(b), -1)))
    rho_norm = np.sqrt(np.vecdot(rho, rho))
    scale = np.maximum(np.sqrt(np.vecdot(g_rho, g_rho)), np.abs(lams) * bnorm * rho_norm)
    res /= np.maximum(scale, gnorm * 1e-14)
    exponent = np.sqrt(np.maximum(lams, 0.0))
    # rho^T M rho per mode, M the L2 Gram of the basis
    mu_scale = np.vecdot(rho, rho @ _MASS_CONSTANT_P) ** -0.5
    return EigenModes(exponent.reshape(shape), rho.reshape(shape + (N_BASIS,)),
                      mu_scale.reshape(shape), res.reshape(shape))


def select_singular(modes: EigenModes, n_cap: int) -> EigenModes:
    """At most n_cap smallest-exponent modes with exponent strictly in (0, 1).

    ``modes`` are those of one system, (M,) exponents.  Guard bands of
    `SELECT_BAND` keep out the constant mode (exponent ~ 0 up to FE noise)
    and the regular modes whose exponent is 1 up to discretization error.
    The exponents ascend, so the band's modes are one run of rows, and the
    kept ones are returned as ``modes[a:b]``, (m,) and (m, 16) views of
    ``modes``' arrays, m = ``len`` of the result, 0 where none is kept.  A
    negative cap raises ValueError.
    """
    if n_cap < 0:
        raise ValueError(f"the singular cap must be nonnegative, got {n_cap}")
    e = modes.exponent
    first = e.searchsorted(SELECT_BAND, side="right")
    return modes[first : min(e.searchsorted(1.0 - SELECT_BAND), first + n_cap)]


def angular_eval(mode: EigenModes, theta):
    """Unit-L2 angular function mu(theta) and its one-sided derivative, of
    one mode: ``mode`` is a row of a system's `EigenModes`, ``modes[m]``."""
    theta = np.asarray(theta, dtype=float)
    xi = np.mod(theta, 2 * np.pi) * XI_PER_THETA
    vals, ders = basis_matrix(xi)
    mu = mode.mu_scale * (vals @ mode.rho)
    dmu = mode.mu_scale * (ders @ mode.rho) * XI_PER_THETA
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
