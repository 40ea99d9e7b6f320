"""Cutoff fields that imprint the required regularity on raw network outputs.

Four families, all with analytic value, gradient and Laplacian:

* boundary cutoff B(x): normalized tensor-product parabola vanishing on the
  outer boundary;
* gradient-jump cutoffs psi: normalized approximate-distance compositions
  (sum d^-2)^(-1/2) over a set of interface lines, zero on each line with
  one-sided normal slopes of exactly +-1 in the limit;
* singularity-exclusion vectors Phi1/Phi2 built from 1 - eta(|x - x_n|),
  block-constant so each output group is tied to one vertex;
* the radial transition eta itself, a C^2 quintic smoothstep equal to 1
  inside delta1 and 0 outside delta2.

Composed basis functions are w = B * (wbar ⊙ Phi1) and
v = B * (vbar ⊙ Psi ⊙ Phi2).  Output n is c_n * raw_n with a composite
cutoff scalar c_n.  Only a few of the c_n are distinct, B * phi_v per vertex
v and B * psi_a * phi_v per interface axis a and vertex v, so each is built
once and gathered to the outputs with one index array.  `compose` applies
the exact second-order product rule to raw network jets at interior
points, and `compose_traces` gives the one-sided normal traces at
interface points, where Psi kinks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Geometry

__all__ = [
    "CutoffConfig",
    "ScalarJet",
    "default_cutoff_config",
    "eta_jet",
    "boundary_cutoff_jet",
    "jump_adf_jet",
    "exclusion_vectors_jet",
    "composition_factors",
    "interface_trace_factors",
    "compose",
    "compose_traces",
    "interface_lines",
]


@dataclass(frozen=True)
class CutoffConfig:
    """Transition radii of the radial cutoff around singular vertices."""

    delta1: float
    delta2: float

    def __post_init__(self):
        if not 0 < self.delta1 < self.delta2:
            raise ValueError("need 0 < delta1 < delta2")


@dataclass
class ScalarJet:
    """Value, gradient and Laplacian of a scalar field at points."""

    value: np.ndarray  # (J,)
    gradient: np.ndarray  # (J, d)
    laplacian: np.ndarray  # (J,)

    def __mul__(self, other: "ScalarJet") -> "ScalarJet":
        v = self.value * other.value
        g = self.value[:, None] * other.gradient + other.value[:, None] * self.gradient
        lap = (
            self.value * other.laplacian
            + other.value * self.laplacian
            + 2.0 * np.sum(self.gradient * other.gradient, axis=1)
        )
        return ScalarJet(v, g, lap)

    @staticmethod
    def ones(n: int, d: int) -> "ScalarJet":
        return ScalarJet(np.ones(n), np.zeros((n, d)), np.zeros(n))


def default_cutoff_config(geometry: Geometry) -> CutoffConfig:
    """delta2 = 0.45 * (closest other vertex or outer boundary), delta1 = delta2/2.

    Keeps every transition ball strictly inside the subdomains touching its
    vertex and disjoint from all other balls, for any grid layout.
    """
    if geometry.dimension == 1 or geometry.n_singular == 0:
        return CutoffConfig(0.25, 0.5)  # unused in 1D; placeholder radii
    verts = geometry.singular_vertices
    dmin = np.inf
    for i, (vx, vy) in enumerate(verts):
        for a, b in [geometry.bounds[0]]:
            dmin = min(dmin, vx - a, b - vx)
        for a, b in [geometry.bounds[1]]:
            dmin = min(dmin, vy - a, b - vy)
        for j, (ux, uy) in enumerate(verts):
            if j != i:
                dmin = min(dmin, float(np.hypot(ux - vx, uy - vy)))
    d2 = 0.45 * dmin
    return CutoffConfig(d2 / 2, d2)


def eta_jet(r, config: CutoffConfig):
    """Radial cutoff eta(r) with first and second derivatives.

    eta = 1 for r <= delta1, 0 for r >= delta2 and the C^2 quintic
    smoothstep 1 - (10 t^3 - 15 t^4 + 6 t^5) in between, t normalized to
    the transition annulus.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    d1, d2 = config.delta1, config.delta2
    width = d2 - d1
    t = np.clip((r - d1) / width, 0.0, 1.0)
    s = 10 * t**3 - 15 * t**4 + 6 * t**5
    ds = (30 * t**2 - 60 * t**3 + 30 * t**4) / width
    dds = (60 * t - 180 * t**2 + 120 * t**3) / width**2
    return 1.0 - s, -ds, -dds


def boundary_cutoff_jet(points: np.ndarray, geometry: Geometry) -> ScalarJet:
    """Tensor-product parabola vanishing on the outer boundary, max 1."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    facs, dfacs, ddfacs = [], [], []
    for k, (a, b) in enumerate(geometry.bounds):
        x = points[:, k]
        norm = ((b - a) / 2) ** 2
        facs.append((x - a) * (b - x) / norm)
        dfacs.append((a + b - 2 * x) / norm)
        ddfacs.append(np.full(n, -2.0 / norm))
    value = np.prod(facs, axis=0)
    grad = np.empty((n, d))
    lap = np.zeros(n)
    for k in range(d):
        others = np.prod([facs[m] for m in range(d) if m != k], axis=0) if d > 1 else 1.0
        grad[:, k] = dfacs[k] * others
        lap += ddfacs[k] * others
    return ScalarJet(value, grad, lap)


def interface_lines(geometry: Geometry, axis=None) -> list[tuple[int, float]]:
    """Distinct interface carrier lines as (axis, position) pairs.

    ``axis=0`` selects vertical lines, ``axis=1`` horizontal ones, ``None``
    all of them (the 1D case, where every interface is a point on axis 0).
    """
    seen = []
    for ifc in geometry.interfaces:
        key = (ifc.axis, ifc.position)
        if (axis is None or ifc.axis == axis) and key not in seen:
            seen.append(key)
    return seen


def jump_adf_jet(points: np.ndarray, lines: list[tuple[int, float]]) -> ScalarJet:
    """Normalized approximate distance psi = (sum_g d_g^-2)^(-1/2).

    d_g is the perpendicular distance to interface line g.  psi vanishes on
    every line of the set with one-sided normal slopes +-1; evaluation
    exactly on a line is rejected (use the trace identities instead).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    if not lines:
        raise ValueError("need at least one interface line")
    s = np.zeros(n)
    ds = np.zeros((n, d))
    lap_s = np.zeros(n)
    for axis, pos in lines:
        h = points[:, axis] - pos
        if np.any(np.abs(h) < 1e-300):
            raise ValueError("point lies exactly on an interface line of the subset")
        s += h**-2
        ds[:, axis] += -2 * h**-3
        lap_s += 6 * h**-4
    value = s**-0.5
    grad = -0.5 * s[:, None] ** -1.5 * ds
    lap = 0.75 * s**-2.5 * np.sum(ds * ds, axis=1) - 0.5 * s**-1.5 * lap_s
    return ScalarJet(value, grad, lap)


def _phi_jets(points: np.ndarray, geometry: Geometry, config: CutoffConfig) -> list[ScalarJet]:
    """phi_n = 1 - eta(|x - x_n|) for every singular vertex, full jets."""
    points = np.atleast_2d(points)
    n, d = points.shape
    jets = []
    for vx in geometry.singular_vertices:
        dx = points - vx[None, :]
        r = np.linalg.norm(dx, axis=1)
        eta, deta, ddeta = eta_jet(r, config)
        safe_r = np.where(r > 1e-300, r, 1.0)
        grad = -deta[:, None] * (dx / safe_r[:, None])
        # radial Laplacian eta'' + (d - 1) eta' / r, with phi = 1 - eta
        lap = -ddeta - (d - 1) * deta / safe_r
        # inside r <= delta1 eta is identically 1, all derivatives vanish
        flat = r <= config.delta1
        grad[flat] = 0.0
        lap[flat] = 0.0
        jets.append(ScalarJet(1.0 - eta, grad, lap))
    return jets


def _block_sizes(n1: int, n2: int, n_singular: int) -> tuple[int, int]:
    if n_singular == 0:
        return 0, 0
    if n1 % n_singular:
        raise ValueError(f"N1={n1} must be divisible by the {n_singular} singular vertices")
    if n2 % (2 * n_singular):
        raise ValueError(f"N2={n2} must be divisible by 2*{n_singular}")
    return n1 // n_singular, n2 // (2 * n_singular)


def _phi_list(points: np.ndarray, geometry: Geometry, config: CutoffConfig) -> list[ScalarJet]:
    """The distinct exclusion factors: phi_v per vertex, or one all-ones jet
    when there is no singular vertex (always in 1D)."""
    if geometry.dimension == 1 or geometry.n_singular == 0:
        return [ScalarJet.ones(*points.shape)]
    return _phi_jets(points, geometry, config)


def _column_vertices(geometry: Geometry, n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """Index into `_phi_list` of the exclusion factor of each w and v column.

    Phi1 repeats phi_v in blocks of n1/N_s; Phi2 is two copies of the
    analogous n2/2 block vector.
    """
    if geometry.dimension == 1 or geometry.n_singular == 0:
        return np.zeros(n1, dtype=int), np.zeros(n2, dtype=int)
    b1, b2 = _block_sizes(n1, n2, geometry.n_singular)
    return np.arange(n1) // b1, (np.arange(n2) % (n2 // 2)) // b2


def _column_axes(geometry: Geometry, n2: int) -> np.ndarray:
    """Interface axis whose lines the jump cutoff of each v column kinks on.

    In 2D the first n2//2 columns kink on the vertical lines and the rest on
    the horizontal ones; in 1D every column kinks on every interface point.
    """
    if geometry.dimension == 1:
        return np.zeros(n2, dtype=int)
    return (np.arange(n2) >= n2 // 2).astype(int)


def exclusion_vectors_jet(points, geometry: Geometry, config: CutoffConfig, n1: int, n2: int):
    """Block-constant exclusion vectors Phi1 (length n1) and Phi2 (length n2).

    Phi1 repeats phi_n in blocks of n1/N_s; Phi2 is two copies of the
    analogous n2/2 block vector.  1D geometries return all-ones vectors.
    Returns two lists of ScalarJet, one per output component.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    phi = _phi_list(points, geometry, config)
    w_idx, v_idx = _column_vertices(geometry, n1, n2)
    return [phi[i] for i in w_idx], [phi[i] for i in v_idx]


@dataclass
class CompositionFactors:
    """Composite cutoff scalar c_n per output with gradient and Laplacian.

    For output n the composed basis is c_n * raw_n, so
    grad = c grad_raw + raw grad_c and lap = c lap_raw + 2 grad_c.grad_raw
    + raw lap_c.
    """

    value: np.ndarray  # (J, N)
    gradient: np.ndarray  # (J, N, d)
    laplacian: np.ndarray  # (J, N)


def _distinct_factors(points, geometry, config, psis, n1, n2):
    """Every distinct cutoff factor, stacked, and the factor of each output.

    The factors are B * phi_v per vertex v, then B * psi_a * phi_v per
    interface axis a and vertex v, for the jump cutoffs ``psis`` (one per
    axis).  Returns the stack as CompositionFactors of shape (J, F, ...)
    and the (n1 + n2,) index of each output's factor in it.
    """
    bjet = boundary_cutoff_jet(points, geometry)
    phis = _phi_list(points, geometry, config)
    jets = [bjet * phi for phi in phis] + [bjet * psi * phi for psi in psis for phi in phis]
    w_idx, v_idx = _column_vertices(geometry, n1, n2)
    cols = np.concatenate([w_idx, len(phis) * (1 + _column_axes(geometry, n2)) + v_idx])
    stack = CompositionFactors(
        np.stack([j.value for j in jets], axis=1),
        np.stack([j.gradient for j in jets], axis=1),
        np.stack([j.laplacian for j in jets], axis=1),
    )
    return stack, cols


def _axis_lines(geometry: Geometry) -> list[list[tuple[int, float]]]:
    """Interface lines per axis: the vertical ones, then (2D) the horizontal."""
    return [interface_lines(geometry, axis=a) for a in range(geometry.dimension)]


def composition_factors(
    points, geometry: Geometry, config: CutoffConfig, n1: int, n2: int
) -> CompositionFactors:
    """Cutoff factors for all n1 + n2 outputs at interior points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    psis = [
        jump_adf_jet(points, lines) if lines else ScalarJet.ones(n, d)
        for lines in _axis_lines(geometry)
    ]
    stack, cols = _distinct_factors(points, geometry, config, psis, n1, n2)
    return CompositionFactors(
        stack.value[:, cols], stack.gradient[:, cols], stack.laplacian[:, cols]
    )


@dataclass
class InterfaceTraceFactors:
    """Affine sensitivities of one-sided normal traces at interface points.

    trace_pm[k, n] = a_pm[k, n] * raw_value[k, n] + d_coef[k, n, :] . raw_grad[k, n, :]

    For outputs whose jump cutoff kinks on the interface the trace is
    +-(B * Phi2)(x) * raw, so a_plus = -a_minus and d_coef = 0; smooth
    outputs share both coefficients across sides.
    """

    a_minus: np.ndarray  # (J2, N)
    a_plus: np.ndarray  # (J2, N)
    d_coef: np.ndarray  # (J2, N, d)


def interface_trace_factors(
    points, interface_axes, geometry: Geometry, config: CutoffConfig, n1: int, n2: int
) -> InterfaceTraceFactors:
    """Trace coefficients at points lying on interfaces with the given axes."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    interface_axes = np.asarray(interface_axes, dtype=int)
    n, d = points.shape
    normals = np.zeros((n, d))
    normals[np.arange(n), interface_axes] = 1.0

    # A point on a line of psi_a's own set is where psi_a kinks.
    on_own = np.stack([interface_axes == a for a in range(geometry.dimension)], axis=1)
    psis = [
        _safe_psi_jet(points, lines, on_own[:, a]) if lines else ScalarJet.ones(n, d)
        for a, lines in enumerate(_axis_lines(geometry))
    ]
    stack, cols = _distinct_factors(points, geometry, config, psis, n1, n2)
    # smooth outputs: trace = d(c raw)/dn = (dc/dn) raw + c (d raw/dn) on both sides
    a_smooth = np.einsum("jfd,jd->jf", stack.gradient, normals)[:, cols]
    d_coef = stack.value[:, cols, None] * normals[:, None, :]
    # kinked outputs: psi = 0 with slope +-1, trace = +-(B * Phi2)(x) * raw;
    # d_coef is already 0 there, as the masked psi is
    w_idx, v_idx = _column_vertices(geometry, n1, n2)
    kink = np.zeros((n, n1 + n2), dtype=bool)
    kink[:, n1:] = on_own[:, _column_axes(geometry, n2)]
    smooth_value = stack.value[:, np.concatenate([w_idx, v_idx])]
    a_plus = np.where(kink, smooth_value, a_smooth)
    a_minus = np.where(kink, -smooth_value, a_smooth)
    return InterfaceTraceFactors(a_minus, a_plus, d_coef)


def _safe_psi_jet(points, lines, on_own_mask) -> ScalarJet:
    """psi jet where own-line points (psi = 0, kink) are masked out."""
    pts = points.copy()
    if np.any(on_own_mask):
        pts[on_own_mask] += 1.0e6  # push off the line; entries unused downstream
    jet = jump_adf_jet(pts, lines)
    jet.value[on_own_mask] = 0.0
    jet.gradient[on_own_mask] = 0.0
    jet.laplacian[on_own_mask] = 0.0
    return jet


def compose(factors: CompositionFactors, jets):
    """Apply the cutoffs to raw network jets at the factors' (interior) points.

    ``jets`` carries the raw ``value`` (J, N), ``gradient`` (J, N, d) and
    ``laplacian`` (J, N), as `nets.RawJets` does.  Returns the composed
    (values, gradients, laplacians) of c_n * raw_n by the product rule;
    boundary points yield exact zeros.
    """
    if jets.value.shape != factors.value.shape:
        raise ValueError(
            f"raw jets of shape {jets.value.shape} do not match the cutoff factors "
            f"{factors.value.shape}"
        )
    c, raw = factors.value, jets.value
    values = c * raw
    grads = c[:, :, None] * jets.gradient + raw[:, :, None] * factors.gradient
    laps = (
        c * jets.laplacian
        + 2.0 * np.einsum("jnd,jnd->jn", factors.gradient, jets.gradient)
        + raw * factors.laplacian
    )
    return values, grads, laps


def compose_traces(factors: InterfaceTraceFactors, jets):
    """One-sided normal traces (minus, plus) of the composed basis from raw
    network jets at the factors' interface points."""
    if jets.value.shape != factors.a_plus.shape:
        raise ValueError(
            f"raw jets of shape {jets.value.shape} do not match the trace factors "
            f"{factors.a_plus.shape}"
        )
    shared = np.einsum("jnd,jnd->jn", factors.d_coef, jets.gradient)
    return factors.a_minus * jets.value + shared, factors.a_plus * jets.value + shared
