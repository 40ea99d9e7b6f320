"""The layouts that several test modules share, one copy each.

Test modules import them by name (``from conftest import geom_1d``): pytest
puts this directory on the import path.
"""

import numpy as np

from transolve.cutoffs import default_cutoff_config
from transolve.geometry import build_grid_geometry
from transolve.singular import polar_cache

PI = np.pi


def geom_1d():
    """[0, pi] cut at pi/5, 2 pi/5, 3 pi/5 and 4 pi/5: five subdomains."""
    return build_grid_geometry(1, cuts_x=[PI / 5, 2 * PI / 5, 3 * PI / 5, 4 * PI / 5], bounds=[(0, PI)])


def geom_2x2():
    """[-1, 1]^2 cut at x = 0 and y = 0: one singular vertex."""
    return build_grid_geometry(2, cuts_x=[0.0], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])


def geom_3x3():
    """The non-uniform layout of the 2D benchmark, with 4 singular vertices."""
    return build_grid_geometry(2, cuts_x=[-0.5, 0.25], cuts_y=[-0.25, 0.5], bounds=[(-1, 1), (-1, 1)])


def disk_table(points, geometry, config=None):
    """The vertex-disk table of ``points`` (`singular.polar_cache`), at the
    layout's default radii unless ``config`` is given."""
    return polar_cache(points, geometry, config or default_cutoff_config(geometry))


def kinked_sin_rows(geometry, quad):
    """Laplacian and trace rows of I columns that span sin(5x) / p_i on
    subdomain i, for any p, on a 1D layout whose cuts are zeros of sin(5x)
    (`geom_1d`).

    Column j is sin(5x) s_j(x), where s_j is -1 on subdomain j and +1
    elsewhere: continuous, with a kink at each cut of subdomain j, so its
    minus-side trace is its plus-side trace times ``sign``.  Returns the
    (I, I) matrix ``signs`` of the s_j, whose column j holds s_j on each
    subdomain (the coefficients y of sin(5x) / p_i solve signs @ y = 1 / p),
    the (J1, I) Laplacians, and the (J2, I) plus-side traces and signs.
    """
    n = geometry.n_subdomains
    signs = np.ones((n, n)) - 2 * np.eye(n)  # invertible: eigenvalues n - 2 and -2
    lap = -25.0 * np.sin(5 * quad.interior_points[:, :1]) * signs[quad.interior_subdomain]
    ifcs = [geometry.interfaces[k] for k in quad.interface_ids]
    minus, plus = (signs[[getattr(ifc, side) for ifc in ifcs]] for side in ("minus", "plus"))
    trace = 5 * np.cos(5 * quad.interface_points[:, :1]) * plus
    return signs, lap, trace, minus * plus
