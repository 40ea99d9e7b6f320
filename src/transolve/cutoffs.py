"""Cutoff fields that imprint the required regularity on raw network outputs.

Four families, all with analytic value, gradient and Laplacian:

* boundary cutoff B(x): normalized tensor-product parabola vanishing on the
  outer boundary;
* gradient-jump cutoffs psi: normalized approximate-distance compositions
  (sum d^-2)^(-1/2) over the interface lines of one axis, zero on each line
  with one-sided normal slopes of exactly +-1 in the limit.  The lines are
  the cuts themselves, ``geometry.cuts_x`` (and in 2D ``cuts_y``);
* singularity-exclusion vectors Phi1/Phi2 built from 1 - eta(|x - x_n|),
  block-constant so each output group is tied to one vertex;
* the radial transition eta itself, a C^2 quintic smoothstep equal to 1
  inside delta1 and 0 outside delta2.  Its default radii come from the
  smallest cell width of the tensor grid.

Every field is a `nets.Jets`.  Composed basis functions are
w = B * (wbar ⊙ Phi1) and v = B * (vbar ⊙ Psi ⊙ Phi2).  Output n is
c_n * raw_n with a composite cutoff scalar c_n.  Only a few of the c_n are
distinct, B * phi_v per vertex v and B * psi_a * phi_v per interface axis a
and vertex v, so each is built once, by the `Jets` product, and gathered to
the outputs with one index array, `_factor_index`.  `composition_factors`
returns the (J, n1 + n2) jets of the c_n at interior points, and their product
``factors * raw`` with the network jets is the composed basis there.
At interface points, where Psi kinks, `interface_trace_factors` feeds the
same product the one-sided jets of psi on its own line and returns the
minus and plus factors; n . (F_pm * raw).gradient is the one-sided normal
trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Geometry
from .nets import Jets

__all__ = [
    "CutoffConfig",
    "default_cutoff_config",
    "eta_jet",
    "boundary_cutoff_jet",
    "jump_adf_jet",
    "composition_factors",
    "interface_trace_factors",
]


@dataclass(frozen=True)
class CutoffConfig:
    """Transition radii of the radial cutoff around singular vertices."""

    delta1: float
    delta2: float

    def __post_init__(self):
        if not 0 < self.delta1 < self.delta2:
            raise ValueError("need 0 < delta1 < delta2")


def default_cutoff_config(geometry: Geometry) -> CutoffConfig:
    """delta2 = 0.45 * (smallest cell width), delta1 = delta2/2.

    On a tensor grid a crossing's nearest other crossing or outer boundary
    lies along its row or column, one cell width away, so every transition
    ball stays strictly inside the cells touching its vertex and disjoint
    from all other balls.
    """
    if geometry.n_singular == 0:
        return CutoffConfig(0.25, 0.5)  # unused without vertices; placeholder radii
    d2 = 0.45 * float(np.min(geometry.subdomain_hi - geometry.subdomain_lo))
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


def boundary_cutoff_jet(points: np.ndarray, geometry: Geometry) -> Jets:
    """Tensor-product parabola vanishing on the outer boundary, max 1: the
    product of one parabola per axis."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    jet = Jets.ones(n, d)
    for k, (a, b) in enumerate(geometry.bounds):
        x = points[:, k]
        norm = ((b - a) / 2) ** 2
        grad = np.zeros((n, d))
        grad[:, k] = (a + b - 2 * x) / norm
        jet = jet * Jets((x - a) * (b - x) / norm, grad, np.full(n, -2.0 / norm))
    return jet


def jump_adf_jet(points: np.ndarray, lines: list[tuple[int, float]]) -> Jets:
    """Normalized approximate distance psi = (sum_g d_g^-2)^(-1/2).

    d_g is the perpendicular distance to interface line g.  psi vanishes on
    every line of the set with one-sided normal slopes +-1; evaluation
    exactly on a line is rejected (`interface_trace_factors` takes the
    one-sided limits there).
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
    return Jets(value, grad, lap)


def _phi_list(points: np.ndarray, geometry: Geometry, config: CutoffConfig) -> list[Jets]:
    """The distinct exclusion factors: phi_v = 1 - eta(|x - x_v|) per
    singular vertex v, full jets, or one all-ones jet when there is no
    singular vertex (always in 1D)."""
    n, d = points.shape
    if geometry.n_singular == 0:
        return [Jets.ones(n, d)]
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
        jets.append(Jets(1.0 - eta, grad, lap))
    return jets


def _factor_index(geometry: Geometry, n1: int, n2: int) -> np.ndarray:
    """Index of each of the n1 + n2 outputs' factor in `_distinct_factors`.

    With F = max(N_s, 1) exclusion factors, factor v < F is B * phi_v and
    factor F (1 + a) + v is B * psi_a * phi_v.  Phi1 repeats phi_v in
    blocks of n1/N_s; Phi2 is two copies of the analogous n2/2 block
    vector.  In 2D the first n2//2 v columns kink on the vertical lines
    (a = 0) and the rest on the horizontal ones (a = 1); in 1D every v
    column kinks on every cut point.
    """
    n_s = geometry.n_singular
    w, v = np.zeros(n1, dtype=int), np.zeros(n2, dtype=int)
    if n_s:
        if n1 % n_s:
            raise ValueError(f"N1={n1} must be divisible by the {n_s} singular vertices")
        if n2 % (2 * n_s):
            raise ValueError(f"N2={n2} must be divisible by 2*{n_s}")
        w = np.arange(n1) // (n1 // n_s)
        v = (np.arange(n2) % (n2 // 2)) // (n2 // (2 * n_s))
    axes = np.arange(n2) >= n2 // 2 if geometry.dimension == 2 else 0
    return np.concatenate([w, max(n_s, 1) * (1 + axes) + v])


def _distinct_factors(points, geometry, config, psis, n1, n2):
    """Every distinct cutoff factor, stacked, and the factor of each output.

    The factors are B * phi_v per vertex v, then B * psi_a * phi_v per
    interface axis a and vertex v, for the jump cutoffs ``psis`` (one per
    axis).  Returns the stack as (J, F) Jets and the (n1 + n2,) index of
    each output's factor in it.
    """
    bjet = boundary_cutoff_jet(points, geometry)
    phis = _phi_list(points, geometry, config)
    jets = [bjet * phi for phi in phis] + [bjet * psi * phi for psi in psis for phi in phis]
    stack = Jets(
        np.stack([j.value for j in jets], axis=1),
        np.stack([j.gradient for j in jets], axis=1),
        np.stack([j.laplacian for j in jets], axis=1),
    )
    return stack, _factor_index(geometry, n1, n2)


def _axis_lines(geometry: Geometry) -> list[list[tuple[int, float]]]:
    """Interface lines per axis, as (axis, position) pairs: the cuts, the
    vertical ones, then (2D) the horizontal."""
    cuts = (geometry.cuts_x, geometry.cuts_y)[: geometry.dimension]
    return [[(a, c) for c in positions] for a, positions in enumerate(cuts)]


def composition_factors(
    points, geometry: Geometry, config: CutoffConfig, n1: int, n2: int
) -> Jets:
    """(J, n1 + n2) jets of the cutoff factors c_n at interior points.

    The composed basis there is ``factors * raw`` for (J, n1 + n2) raw
    network jets; boundary points give exact zeros.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    psis = [
        jump_adf_jet(points, lines) if lines else Jets.ones(n, d)
        for lines in _axis_lines(geometry)
    ]
    stack, cols = _distinct_factors(points, geometry, config, psis, n1, n2)
    return stack.columns(cols)


def interface_trace_factors(
    points, interface_axes, geometry: Geometry, config: CutoffConfig, n1: int, n2: int
) -> tuple[Jets, Jets]:
    """One-sided (minus, plus) cutoff factors at points on interfaces with
    the given axes, each (J, n1 + n2) jets.

    On its own line psi_a = |h| kinks: it has value 0 and one-sided
    gradient -n (minus side) or +n (plus side), with n the unit normal
    e_a, and one-sided Laplacian 0.  Fed those jets, the product rule gives
    the one-sided factors F_pm, and the one-sided normal trace of the
    composed basis is ``n . (F_pm * raw).gradient``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    # every point twice: the minus side, then the plus side
    both = np.concatenate([points, points])
    axes = np.tile(np.asarray(interface_axes, dtype=int), 2)
    side = np.repeat([-1.0, 1.0], n)
    psis = []
    for a, lines in enumerate(_axis_lines(geometry)):
        psi = Jets.ones(2 * n, d)
        on = axes == a
        if lines and not np.all(on):
            off = jump_adf_jet(both[~on], lines)
            for name in ("value", "gradient", "laplacian"):
                getattr(psi, name)[~on] = getattr(off, name)
        psi.value[on] = 0.0
        psi.gradient[on, a] = side[on]
        psis.append(psi)
    stack, cols = _distinct_factors(both, geometry, config, psis, n1, n2)
    return stack.rows(slice(None, n)).columns(cols), stack.rows(slice(n, None)).columns(cols)
