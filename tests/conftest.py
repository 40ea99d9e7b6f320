"""The layouts and the fixtures that several test modules share, one copy
each.

Test modules import the layouts by name (``from conftest import geom_1d``):
pytest puts this directory on the import path.
"""

from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from transolve import nets
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


def vertex_runs(table):
    """Each vertex's run of the vertex-disk table (`singular.PolarCache`),
    the rows whose vertex is v in table order, as a namespace of their
    point indices ``rows``, ``offset``, ``r``, ``direction`` and eta jets,
    with the vertex's annulus count ``n_annulus``."""
    names = ("offset", "r", "direction", "eta", "eta_p", "eta_pp")
    return [SimpleNamespace(rows=table.disk_rows[on], n_annulus=int(n_annulus),
                            **{name: getattr(table, name)[on] for name in names})
            for on, n_annulus in zip(table.vertex == np.arange(len(table.n_annulus))[:, None],
                                     table.n_annulus)]


def interior_rows(lap):
    """The (J1, N + 2) interior rows `build_epoch_cache` takes: a copy of
    the (J1, N) Laplacians ``lap`` in the first N columns, then two
    columns that the cache fills with the source's factors."""
    return np.concatenate([lap, np.zeros((len(lap), 2))], axis=1)


def geom_1d_pair():
    """[0, 2 pi/5] cut at pi/5: two subdomains, the cut a zero of sin(5x)."""
    return build_grid_geometry(1, cuts_x=[PI / 5], bounds=[(0, 2 * PI / 5)])


def kinked_sin_rows(geometry, quad):
    """Laplacian and trace rows of two columns that span sin(5x) / p_i on
    subdomain i, for any p, on the two-subdomain layout `geom_1d_pair`.

    Column 0 is sin(5x), smooth across the cut; column 1 is sin(5x) s(x),
    with s -1 on subdomain 0 and +1 on subdomain 1, which kinks there, so
    its minus-side trace is its plus-side trace negated: the (1, 2) sign
    table of the one axis is [1, -1].  No such columns span sin(5x) / p_i
    on three or more subdomains: a column's minus-side trace is its
    plus-side trace times one sign on every interface of an axis, and the
    columns sin(5x) c(x), c constant on each subdomain, that keep it are
    those with c constant or alternating.  Returns the (2, 2) matrix
    ``signs``, whose column j holds column j's factor on each subdomain
    (the coefficients y of sin(5x) / p_i solve signs @ y = 1 / p), the
    (J1, 2) Laplacians, the (J2, 2) plus-side traces and the sign table.
    """
    assert geometry.n_subdomains == 2
    signs = np.array([[1.0, -1.0], [1.0, 1.0]])
    lap = -25.0 * np.sin(5 * quad.interior_points[:, :1]) * signs[quad.interior_subdomain]
    plus = signs[[geometry.interfaces[k].plus for k in quad.interface_ids]]
    trace = 5 * np.cos(5 * quad.interface_points[:, :1]) * plus
    return signs, lap, trace, np.array([[1.0, -1.0]])


def jump_rows(geometry, quad):
    """The per-row form of the jump rows that the cache's interface runs
    replace: each interface point's minus and plus subdomains and axis,
    (J2,) each; ``sign[axes]`` is the (J2, N) sign of a (d, N) table."""
    ifcs = [geometry.interfaces[k] for k in quad.interface_ids]
    return tuple(np.array([getattr(ifc, name) for ifc in ifcs], dtype=int)
                 for name in ("minus", "plus", "axis"))


def dense_sign(cache):
    """The cache's (J2, N) per-row sign: each interface run's sign row on
    that run's rows."""
    sign = np.empty_like(cache.wtrace)
    for _, _, row, run in cache.interface_runs:
        sign[run] = row
    return sign


class _CountingWorker(ThreadPoolExecutor):
    """A worker for the split jet passes that notes the tile starts of
    each half it is sent."""

    def __init__(self):
        super().__init__(max_workers=1, thread_name_prefix="test-tiles")
        self.halves = []

    def submit(self, fn, starts):
        self.halves.append(starts)
        return super().submit(fn, starts)


@pytest.fixture
def split_worker(monkeypatch):
    """The worker the jet passes use, on any host, one CPU included: a
    pass of `nets.SPLIT_TILES` tiles or more is split.  Its ``halves`` are
    the tile starts of the halves sent to it."""
    worker = _CountingWorker()
    monkeypatch.setattr(nets, "_worker", lambda: worker)
    yield worker
    worker.shutdown(wait=True)
