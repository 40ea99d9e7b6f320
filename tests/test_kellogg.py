"""A closed-form 2D reference at a strong singularity: Kellogg's
checkerboard, where the vertex exponent is 0.1.

On (-1, 1)^2 cut at 0, with p = (R, 1, R, 1) in the sectors around the
crossing (NE, NW, SW, SE), u* = eta(r) r^lam mu(theta) solves
-div(p grad u*) = p g with g = -mu r^(lam - 1) ((2 lam + 1) eta' + r eta''):
r^lam mu is p-harmonic in each sector, with u and p du/dn continuous
across the cuts, so only the radial cutoff eta (the code's own `eta_jet`)
leaves a source, on its annulus.  The source scales with p, so u* solves
every parameter c p* of the ray.  mu comes from the transfer matrix of
(mu, p mu') across the sectors, not from the FE eigensolver under test.
(R. B. Kellogg, Applicable Analysis 4, 1975; Morin, Nochetto & Siebert,
SIAM J. Numer. Anal. 2000.)
"""

from dataclasses import dataclass

import numpy as np
import pytest

from transolve.cutoffs import CutoffConfig, default_cutoff_config, eta_jet
from transolve.nets import NetConfig, init_params
from transolve.reference import RhsSpec, relative_l2_errors
from transolve.training import final_solve

from conftest import geom_2x2

R = 161.4476387975881
LAM = 0.1
SECTOR = np.pi / 2
P_SECTOR = np.array([R, 1.0, R, 1.0])  # NE, NW, SW, SE
# measured 1.8e-6 % (u) and 1.2e-7 % (flux); the FE angular modes set it
ERR_PCT = 1e-2


def _start_states() -> np.ndarray:
    """(mu, p mu') at the start of each sector, (4, 2).

    The first is the null vector of T(lam) - I, T the product of the sector
    transfer matrices: T has a Jordan block here, so it is not (1, 0).
    """
    c, s = np.cos(LAM * SECTOR), np.sin(LAM * SECTOR)
    mats = [np.array([[c, s / (LAM * p)], [-p * LAM * s, c]]) for p in P_SECTOR]
    _, sv, vt = np.linalg.svd(np.linalg.multi_dot(mats[::-1]) - np.eye(2))
    assert sv[1] < 1e-10 * sv[0]  # lam is an exponent of these sectors
    states = [vt[1]]
    for m in mats:
        states.append(m @ states[-1])
    np.testing.assert_allclose(states[-1], states[0], atol=1e-10)  # periodic
    return np.array(states[:4])


STATES = _start_states()


def mu_jet(theta):
    """mu(theta) and mu'(theta), theta in [0, 2 pi)."""
    k = np.minimum((theta // SECTOR).astype(int), 3)
    phi = LAM * (theta - k * SECTOR)
    a, b = STATES[k, 0], STATES[k, 1] / (LAM * P_SECTOR[k])
    return a * np.cos(phi) + b * np.sin(phi), LAM * (b * np.cos(phi) - a * np.sin(phi))


def polar(points):
    x, y = points[:, 0], points[:, 1]
    return np.hypot(x, y), np.mod(np.arctan2(y, x), 2 * np.pi)


@dataclass(frozen=True)
class KelloggRhs(RhsSpec):
    """The source p g of u*, for the cutoff radii ``cut``."""

    cut: CutoffConfig = None

    def factors(self, points):
        r, theta = polar(np.atleast_2d(points))
        _, eta_p, eta_pp = eta_jet(r, self.cut)
        mu, _ = mu_jet(theta)
        return -mu * r ** (LAM - 1) * ((2 * LAM + 1) * eta_p + r * eta_pp), np.zeros(r.size)


def exact(points, cut):
    """u* and its gradient (J, 2) at points off the vertex."""
    r, theta = polar(points)
    eta, eta_p, _ = eta_jet(r, cut)
    mu, mu_p = mu_jet(theta)
    rl1 = r ** (LAM - 1)
    du_dr = (LAM * eta + r * eta_p) * rl1 * mu
    du_dt_over_r = eta * rl1 * mu_p
    ct, st = np.cos(theta), np.sin(theta)
    grad = np.stack([du_dr * ct - du_dt_over_r * st, du_dr * st + du_dt_over_r * ct], axis=1)
    return eta * r * rl1 * mu, grad


@pytest.mark.parametrize("c", [1.0, 0.05])
def test_an_untrained_query_recovers_the_kellogg_solution(c):
    """The singular column alone spans u*: with an untrained network the
    query on a 64^2 grid recovers u and its flux, unmasked."""
    g = geom_2x2()
    cut = default_cutoff_config(g)
    rhs = KelloggRhs("kellogg", g.singular_vertices.copy(), cut)
    params = init_params(NetConfig(2, (10, 10), 4, 8), 0)
    p = np.empty(g.n_subdomains)
    p[g.vertex_sectors[0]] = c * P_SECTOR
    coeffs, fields = final_solve(params, g, p, rhs, cut, 1.0, 64)
    quad = fields["quad"]
    u, grad = exact(quad.interior_points, cut)
    flux = p[quad.interior_subdomain][:, None] * grad
    err_u, err_flux = relative_l2_errors(fields["values"], fields["flux"], u, flux, quad)
    assert coeffs.c.size == 1
    assert err_u <= ERR_PCT and err_flux <= ERR_PCT, (err_u, err_flux)
