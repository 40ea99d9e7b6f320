"""Cutoff fields that imprint the required regularity on raw network outputs.

Four families, all with analytic value, gradient and Laplacian:

* boundary cutoff B(x): normalized tensor-product parabola vanishing on the
  outer boundary;
* gradient-jump cutoffs psi: normalized approximate-distance compositions
  (sum d^-2)^(-1/2) over the interface lines of one axis, zero on each line
  with one-sided normal slopes of exactly +-1 in the limit.  The lines are
  the cuts themselves, ``geometry.cuts_x`` (and in 2D ``cuts_y``);
* singularity-exclusion vectors Phi1/Phi2 built from the factors
  phi_v = 1 - eta(|x - x_v|), block-constant so each output group is tied
  to one vertex;
* the radial transition eta itself, a C^2 quintic smoothstep equal to 1
  inside delta1 and 0 outside delta2.  Its default radii come from the
  smallest cell width of the tensor grid.

Every field is a `nets.Jets`.  Composed basis functions are
w = B * (wbar ⊙ Phi1) and v = B * (vbar ⊙ Psi ⊙ Phi2).  Output n is
c_n * raw_n with a composite cutoff scalar c_n.  Only a few of the c_n are
distinct, B * phi_v per vertex v and B * psi_a * phi_v per interface axis a
and vertex v, so each is built once, by the `Jets` product, and gathered to
the outputs with one index array, `factor_index`, the one place that maps
outputs to factors.  `composition_factors` returns the (J, F) stack of the
F distinct factors at interior points; ``stack.columns(index)`` is the
(J, n1 + n2) jets of the c_n, and their product ``factors * raw`` with the
network jets is the composed basis there.  A caller that composes a few
points at a time gathers only those rows, ``stack.rows(tile).columns(index)``,
so the (J, n1 + n2) factors of every point need never exist at once.
At interface points, where Psi kinks, `interface_trace_factors` feeds the
same product the plus-side jets of psi on its own line and returns the
plus side's distinct factors, gathered with the same index;
n . (F * raw).gradient is the plus-side normal trace.  The factors that
hold the psi of the point's own axis vanish on its line, so their jets,
and the traces through them, flip sign across it: the minus side is the
plus side times -1 on those factors, which it returns as a mask.  Interior
and interface points take psi from one builder, `_psi_jets`.

Each factor is formed only on the rows where it differs from its base.
The bases B and B * psi_a are made at every point and fill every column of
their group.  phi_v is exactly 1, with zero gradient and Laplacian, off
vertex v's disk r >= delta2, where B * phi_v is B and B * psi_a * phi_v is
B * psi_a bit for bit, so only the rows on that disk (about 4% of the
points per vertex on the 2D benchmark layout) take the products
(`_distinct_factors`).  The disks are not found here: both factor
builders take the points' vertex-disk table (`singular.polar_cache`), the
one place that finds each vertex's disk rows and evaluates its radius and
eta, and form phi_v on the table's rows from its eta jet, so the
exclusion factors and the singular columns read the same radius and eta.
Without a singular vertex (1D) no phi product is formed.  The stacks
equal, bit for bit, ones that form every product at every point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import Geometry
from .nets import Jets

if TYPE_CHECKING:  # singular imports this module for the radii and eta
    from .singular import PolarCache

__all__ = [
    "CutoffConfig",
    "default_cutoff_config",
    "eta_jet",
    "boundary_cutoff_jet",
    "jump_adf_jet",
    "factor_index",
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
    t2 = t * t
    s = t2 * t * (10 + t * (6 * t - 15))
    ds = t2 * (30 + t * (30 * t - 60)) / width
    dds = t * (60 + t * (120 * t - 180)) / (width * width)
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
    plus-side limit there).
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
        inv = 1.0 / h
        inv2 = inv * inv
        s += inv2
        ds[:, axis] -= 2 * inv2 * inv
        lap_s += 6 * inv2 * inv2
    value = 1.0 / np.sqrt(s)  # s^-1/2; then s^-3/2 and s^-5/2 by division
    v3 = value / s
    grad = -0.5 * v3[:, None] * ds
    lap = 0.75 * (v3 / s) * np.sum(ds * ds, axis=1) - 0.5 * v3 * lap_s
    return Jets(value, grad, lap)


def factor_index(geometry: Geometry, n1: int, n2: int) -> np.ndarray:
    """Index of each of the n1 + n2 outputs' factor in the distinct stack.

    With F = max(N_s, 1) exclusion factors, factor v < F is B * phi_v and
    factor F (1 + a) + v is B * psi_a * phi_v.  Phi1 repeats phi_v in
    blocks of n1/N_s; Phi2 is two copies of the analogous n2/2 block
    vector.  In 2D the first n2//2 v columns kink on the vertical lines
    (a = 0) and the rest on the horizontal ones (a = 1); in 1D every v
    column kinks on every cut point.  Raises ValueError when n1 is not
    divisible by N_s or n2 by 2 N_s.
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


def _distinct_factors(points, geometry, polar, psis) -> Jets:
    """Every distinct cutoff factor, stacked as (J, F) Jets: B * phi_v per
    vertex v, then B * psi_a * phi_v per interface axis a and vertex v, for
    the jump cutoffs ``psis`` (one per axis), in the order of
    `factor_index`, with a component-major gradient.

    The bases B and B * psi_a are made once at all points and written into
    every column of their group of max(N_s, 1) factors.  Only the rows on
    vertex v's disk, the rows of its entry in the vertex-disk table
    ``polar`` (`singular.polar_cache`), are then overwritten with the
    products B * phi_v and B * psi_a * phi_v, phi_v = 1 - eta formed from
    the table's radius r, unit direction u and eta jet: gradient -eta' u
    and Laplacian -eta'' - eta'/r.  Off the disk phi_v is exactly 1 with
    zero derivatives, so there the product rule gives the base itself, bit
    for bit up to the sign of a zero: the stack equals the one that forms
    every product at every point.  Without a singular vertex (1D) each
    group is its base alone.  A table made for another number of points
    raises ValueError.
    """
    polar.check_points(len(points))
    bjet = boundary_cutoff_jet(points, geometry)
    bases = [bjet] + [bjet * psi for psi in psis]
    n, d = points.shape
    n_v = max(geometry.n_singular, 1)
    shape = (n, len(bases) * n_v)
    value, components, lap = np.empty(shape), np.empty((d,) + shape), np.empty(shape)
    for g, base in enumerate(bases):
        group = slice(g * n_v, (g + 1) * n_v)
        value[:, group] = base.value[:, None]
        components[:, :, group] = base.gradient.T[:, :, None]
        lap[:, group] = base.laplacian[:, None]
    for v, geo in enumerate(polar.vertices):
        disk = geo.rows
        # eta' = 0 wherever r <= delta1, so a point at the vertex divides 0 by 1
        phi_lap = -geo.eta_pp - geo.eta_p / np.where(geo.r > 0, geo.r, 1.0)
        phi = Jets(1.0 - geo.eta, -geo.eta_p[:, None] * geo.direction, phi_lap)
        for g, base in enumerate(bases):
            k = g * n_v + v
            jet = base.rows(disk) * phi
            value[disk, k] = jet.value
            components[:, disk, k] = jet.gradient.T
            lap[disk, k] = jet.laplacian
    return Jets(value, components.transpose(1, 2, 0), lap)


def _axis_lines(geometry: Geometry) -> list[list[tuple[int, float]]]:
    """Interface lines per axis, as (axis, position) pairs: the cuts, the
    vertical ones, then (2D) the horizontal."""
    cuts = (geometry.cuts_x, geometry.cuts_y)[: geometry.dimension]
    return [[(a, c) for c in positions] for a, positions in enumerate(cuts)]


def _psi_jets(points: np.ndarray, axes: np.ndarray, geometry: Geometry):
    """Yields the jump cutoff psi_a of each interface axis a, as (J,) jets.

    Off its lines psi_a is `jump_adf_jet` over them, and the constant 1
    where axis a has no line.  At a point whose ``axes`` entry is a, on a
    line of axis a where psi_a = |h| kinks, it is the plus-side limit:
    value 0, gradient +e_a, Laplacian 0.  Interior points pass an axis of
    -1, on no line; a point said to lie on a line of an axis without one
    raises ValueError (`jump_adf_jet`).
    """
    n, d = points.shape
    for a, lines in enumerate(_axis_lines(geometry)):
        on = axes == a
        if not on.any():  # no point on a line of axis a: no masked copies
            yield jump_adf_jet(points, lines) if lines else Jets.ones(n, d)
            continue
        psi, off = Jets.ones(n, d), jump_adf_jet(points[~on], lines)
        for name in ("value", "gradient", "laplacian"):
            getattr(psi, name)[~on] = getattr(off, name)
        psi.value[on] = 0.0
        psi.gradient[on, a] = 1.0
        yield psi


def composition_factors(points, geometry: Geometry, polar: PolarCache) -> Jets:
    """The distinct cutoff factors at interior points, as (J, F) jets,
    phi_v read from the points' vertex-disk table ``polar``
    (`singular.polar_cache`), which must index exactly these points
    (ValueError).

    The composed basis there is ``stack.columns(index) * raw`` for
    (J, n1 + n2) raw network jets and the `factor_index` of the outputs,
    and on a subset of the points ``stack.rows(subset).columns(index) *
    raw_subset``; boundary points give exact zeros.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    psis = _psi_jets(points, np.full(len(points), -1), geometry)
    return _distinct_factors(points, geometry, polar, psis)


def interface_trace_factors(
    points, interface_axes, geometry: Geometry, polar: PolarCache
) -> tuple[Jets, np.ndarray]:
    """The plus-side distinct cutoff factors at points on interfaces with
    the given axes, as (J, F) jets in the order of `factor_index`, and the
    (J, F) mask of the factors that hold the psi of the point's own axis.
    phi_v is read from the points' vertex-disk table ``polar``
    (`singular.polar_cache`), which must index exactly these points
    (ValueError).

    On its own line psi_a = |h| kinks: it has value 0, one-sided gradient
    +n on the plus side and -n on the minus side, with n the unit normal
    e_a, and one-sided Laplacian 0.  Fed the plus side's jets, the product
    rule gives the plus-side factors F = ``stack.columns(index)``, and the
    plus-side normal trace of the composed basis is
    ``n . (F * raw).gradient``.  A masked factor is 0 on the line, so
    there n . grad(F * raw) = raw (n . grad F), and its jets flip sign
    across the line: the minus-side factors and traces are the plus
    side's times -1 on the masked columns, +1 elsewhere.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    axes = np.asarray(interface_axes, dtype=int)
    stack = _distinct_factors(points, geometry, polar, _psi_jets(points, axes, geometry))
    # factor k is B * psi_a * phi_v for a = k // max(N_s, 1) - 1 (a = -1: B * phi_v)
    axis_of = np.arange(stack.value.shape[1]) // max(geometry.n_singular, 1) - 1
    return stack, axis_of[None, :] == axes[:, None]
