"""Checks of the program's outputs against computations made apart from it.

- least squares: the program's per-parameter loss against the optimum that
  `np.linalg.lstsq` reaches on the explicitly assembled system;
- singular exponents: the selected FE exponents against the roots of the
  transfer-matrix condition tr T(lambda) = 2, found here by a vectorised
  sign scan and bisection (the program's own `semi_analytic_exponents`
  settles the rare case the scan cannot, such as a tangential double root);
- quadrature: per-segment interface weights against the segment lengths;
- losses: finite and non-negative.
"""

from __future__ import annotations

import numpy as np

from transolve.assembly import assemble_system
from transolve.eigen import semi_analytic_exponents

LS_RTOL = 1e-6
EXPONENT_ATOL = 1e-5
WEIGHT_RTOL = 1e-9
SELECT_BAND = 1e-6  # select_singular's default guard band

_SCAN = np.arange(1, 1001) * 1e-3  # lambda grid on (0, 1]


def ls_excess(cache, parameter, singular_evals, program_loss: float) -> float:
    """Relative excess of the program's loss over the lstsq optimum."""
    system = assemble_system(cache, parameter, singular_evals, cache.gram.theta)
    y = np.linalg.lstsq(system.matrix, system.rhs, rcond=None)[0]
    r = system.matrix @ y - system.rhs
    optimum = float(r @ r)
    floor = 1e-12 * float(system.rhs @ system.rhs)
    return (program_loss - optimum) / max(optimum, floor)


def _trace_minus_two(lam: np.ndarray, p_sector: np.ndarray) -> np.ndarray:
    """tr T(lambda) - 2 for the four-sector transfer matrix, vectorised."""
    c = np.cos(lam * np.pi / 2)
    s = np.sin(lam * np.pi / 2)
    t = np.broadcast_to(np.eye(2), (lam.size, 2, 2))
    for p in p_sector:
        tk = np.empty((lam.size, 2, 2))
        tk[:, 0, 0] = c
        tk[:, 0, 1] = s / (lam * p)
        tk[:, 1, 0] = -p * lam * s
        tk[:, 1, 1] = c
        t = tk @ t
    return t[:, 0, 0] + t[:, 1, 1] - 2.0


def oracle_exponents(p_sector) -> np.ndarray:
    """Roots of tr T(lambda) = 2 in (0, 1) by sign scan plus bisection."""
    p_sector = np.asarray(p_sector, dtype=float)
    f = _trace_minus_two(_SCAN, p_sector)
    idx = np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)[0]
    lo, hi = _SCAN[idx], _SCAN[idx + 1]
    f_lo = f[idx]
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        f_mid = _trace_minus_two(mid, p_sector)
        left = np.sign(f_mid) == np.sign(f_lo)
        lo = np.where(left, mid, lo)
        f_lo = np.where(left, f_mid, f_lo)
        hi = np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def exponent_error(p_sector, selected: list[float], cap: int) -> float:
    """Largest distance of the selected exponents from the oracle roots.

    The selection must be the `cap` smallest roots inside the band; a
    missing or extra exponent counts as an infinite error.
    """
    selected = np.asarray(selected, dtype=float)
    err = _match(oracle_exponents(p_sector), selected, cap)
    if err > EXPONENT_ATOL:
        roots = np.asarray(semi_analytic_exponents(np.asarray(p_sector), lam_max=1.0))
        err = min(err, _match(roots, selected, cap))
    return err


def _match(roots: np.ndarray, selected: np.ndarray, cap: int) -> float:
    inside = roots[(roots > SELECT_BAND) & (roots < 1.0 - SELECT_BAND)][:cap]
    if inside.size != selected.size:
        return np.inf
    return float(np.max(np.abs(inside - selected), initial=0.0))


def segment_weight_errors(geometry, quad) -> np.ndarray:
    """Relative error of each interface's weight sum against its length."""
    n = len(geometry.interfaces)
    sums = np.bincount(quad.interface_ids, weights=quad.interface_weights, minlength=n)
    lengths = np.array([ifc.length for ifc in geometry.interfaces])
    return np.abs(sums - lengths) / lengths


def loss_ok(value) -> bool:
    values = np.atleast_1d(np.asarray(value, dtype=float))
    return bool(np.all(np.isfinite(values)) and np.all(values >= 0))
