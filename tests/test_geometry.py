import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transolve.geometry import (
    Interface,
    angular_trace,
    build_grid_geometry,
    subdomain_index_many,
    validate_parameter,
)

from conftest import geom_1d, geom_2x2, geom_3x3

PI = np.pi


def geom_4x4():
    cuts = [-0.5, 0.0, 0.5]
    return build_grid_geometry(2, cuts_x=cuts, cuts_y=cuts, bounds=[(-1, 1), (-1, 1)])


def test_1d_layout_counts():
    g = geom_1d()
    assert g.n_subdomains == 5
    assert len(g.interfaces) == 4
    assert g.n_singular == 0


# bounds, cuts: the pi/5 layout, one cut, no cut
LAYOUTS_1D = {
    "pi/5": ((0.0, PI), (PI / 5, 2 * PI / 5, 3 * PI / 5, 4 * PI / 5)),
    "one cut": ((-1.0, 2.0), (0.25,)),
    "no cut": ((0.5, 1.5), ()),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS_1D))
def test_1d_layout_fields(layout):
    """Every field of a 1D layout against hand-written values: (I, 1)
    corners, point interfaces of axis 0 with a degenerate span (length 1)
    between cells i and i + 1, no singular vertices and no cuts_y."""
    (a, b), cuts = LAYOUTS_1D[layout]
    g = build_grid_geometry(1, cuts_x=list(cuts), bounds=[(a, b)])
    edges = [a, *cuts, b]
    assert g.dimension == 1
    assert g.bounds == ((a, b),)
    assert g.cuts_x == cuts and g.cuts_y == ()
    for got, want in ((g.subdomain_lo, edges[:-1]), (g.subdomain_hi, edges[1:])):
        assert got.dtype == float and got.shape == (len(cuts) + 1, 1)
        np.testing.assert_array_equal(got[:, 0], want)
    assert g.interfaces == tuple(
        Interface(axis=0, position=c, span=(0.0, 0.0), minus=i, plus=i + 1)
        for i, c in enumerate(cuts)
    )
    assert all(ifc.length == 1.0 for ifc in g.interfaces)
    assert g.singular_vertices.dtype == float and g.singular_vertices.shape == (0, 2)
    assert g.vertex_sectors.dtype == np.dtype(int) and g.vertex_sectors.shape == (0, 4)
    assert g.n_subdomains == len(cuts) + 1 and g.n_singular == 0
    with pytest.raises(ValueError, match="cuts_y is meaningless in 1D"):
        build_grid_geometry(1, cuts_x=list(cuts), cuts_y=[0.0], bounds=[(a, b)])


def test_2x2_layout_counts():
    g = geom_2x2()
    assert g.n_subdomains == 4
    assert len(g.interfaces) == 4
    assert g.n_singular == 1
    np.testing.assert_allclose(g.singular_vertices, [[0.0, 0.0]])


def test_4x4_layout_counts():
    g = geom_4x4()
    assert g.n_subdomains == 16
    assert len(g.interfaces) == 24
    assert g.n_singular == 9


def test_subdomain_index_top_left_is_first():
    pts = np.array([(-0.5, 0.5), (0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)])
    np.testing.assert_array_equal(subdomain_index_many(geom_2x2(), pts), [0, 1, 2, 3])


def test_subdomain_index_1d_first_interval():
    np.testing.assert_array_equal(subdomain_index_many(geom_1d(), [PI / 10]), [0])


def test_point_on_interface_rejected():
    with pytest.raises(ValueError):
        subdomain_index_many(geom_2x2(), (0.0, 0.3))
    with pytest.raises(ValueError):
        subdomain_index_many(geom_2x2(), (1.5, 0.3))


def test_bad_cuts_rejected():
    with pytest.raises(ValueError):
        build_grid_geometry(1, cuts_x=[2.0, 1.0], bounds=[(0, 3)])
    with pytest.raises(ValueError):
        build_grid_geometry(1, cuts_x=[0.5], bounds=[(1, 1)])
    with pytest.raises(ValueError):
        build_grid_geometry(2, cuts_x=[5.0], cuts_y=[0.0], bounds=[(-1, 1), (-1, 1)])
    for bounds in ([(0, np.inf)], [(np.nan, 1.0)]):
        with pytest.raises(ValueError, match="finite"):
            build_grid_geometry(1, bounds=bounds)


def test_angular_trace_quadrants_2x2():
    g = geom_2x2()
    p = (11.0, 22.0, 33.0, 44.0)
    sectors = angular_trace(g, p, 0)
    # Quadrant I (up-right) touches subdomain 1, II subdomain 0, III 2, IV 3.
    assert [s[2] for s in sectors] == [22.0, 11.0, 33.0, 44.0]
    starts = [s[0] for s in sectors]
    np.testing.assert_allclose(starts, [0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_angular_trace_constant():
    g = geom_2x2()
    sectors = angular_trace(g, np.full(4, 7.0), 0)
    assert all(s[2] == 7.0 for s in sectors)


def _assert_trace_matches_point_queries(g, p, eps=1e-6):
    for vid in range(g.n_singular):
        vx, vy = g.singular_vertices[vid]
        for lo, hi, pval in angular_trace(g, p, vid):
            mid = 0.5 * (lo + hi)
            probe = (vx + eps * np.cos(mid), vy + eps * np.sin(mid))
            assert pval == p[subdomain_index_many(g, probe)[0]]


def test_angular_trace_4x4_matches_point_queries():
    g = geom_4x4()
    rng = np.random.default_rng(0)
    _assert_trace_matches_point_queries(g, rng.uniform(1, 10, size=16))


@settings(max_examples=25, deadline=None)
@given(
    ncx=st.integers(1, 4),
    ncy=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_angular_trace_random_layouts_match_point_queries(ncx, ncy, seed):
    """The static vertex-to-sector table agrees with point location on
    non-uniform layouts with non-square bounds."""
    rng = np.random.default_rng(seed)
    bounds = [(-1.0, 2.0), (-0.5, 0.5)]
    cx = np.sort(rng.uniform(*bounds[0], size=ncx))
    cy = np.sort(rng.uniform(*bounds[1], size=ncy))
    edges_x = np.concatenate([[bounds[0][0]], cx, [bounds[0][1]]])
    edges_y = np.concatenate([[bounds[1][0]], cy, [bounds[1][1]]])
    if min(np.diff(edges_x).min(), np.diff(edges_y).min()) < 1e-4:
        return
    g = build_grid_geometry(2, cuts_x=cx, cuts_y=cy, bounds=bounds)
    assert g.vertex_sectors.shape == (ncx * ncy, 4)
    _assert_trace_matches_point_queries(g, rng.uniform(0.1, 10, size=g.n_subdomains))


def test_angular_trace_requires_singular_vertex():
    with pytest.raises(ValueError):
        angular_trace(geom_2x2(), np.ones(4), 1)
    with pytest.raises(ValueError):
        angular_trace(geom_1d(), np.ones(5), 0)


def test_angular_sectors_cover_circle():
    sectors = angular_trace(geom_4x4(), np.arange(1.0, 17.0), 4)
    assert sectors[0][0] == 0.0
    assert sectors[-1][1] == pytest.approx(2 * np.pi)
    for (_, hi, _), (lo, _, _) in zip(sectors, sectors[1:]):
        assert hi == pytest.approx(lo)


@settings(max_examples=25, deadline=None)
@given(
    ncx=st.integers(0, 4),
    ncy=st.integers(0, 4),
    seed=st.integers(0, 10_000),
)
def test_tiling_and_vertex_count(ncx, ncy, seed):
    rng = np.random.default_rng(seed)
    cx = np.sort(rng.uniform(-0.9, 0.9, size=ncx))
    cy = np.sort(rng.uniform(-0.9, 0.9, size=ncy))
    if len(np.unique(np.round(cx, 12))) < ncx or len(np.unique(np.round(cy, 12))) < ncy:
        return
    g = build_grid_geometry(2, cuts_x=cx, cuts_y=cy, bounds=[(-1, 1), (-1, 1)])
    areas = np.prod(g.subdomain_hi - g.subdomain_lo, axis=1)
    assert abs(areas.sum() - 4.0) <= 1e-12 * 4.0
    assert g.n_singular == ncx * ncy
    # every interior crossing appears exactly once
    crossings = {(round(x, 12), round(y, 12)) for x in cx for y in cy}
    listed = {(round(x, 12), round(y, 12)) for x, y in g.singular_vertices}
    assert crossings == listed


def test_interface_sides_match_normal_orientation():
    g = geom_4x4()
    for ifc in g.interfaces:
        n = np.zeros(2)
        n[ifc.axis] = 1.0
        mid = ifc.position * n + 0.5 * sum(ifc.span) * (1.0 - n)
        step = 1e-6
        assert subdomain_index_many(g, mid + step * n) == ifc.plus
        assert subdomain_index_many(g, mid - step * n) == ifc.minus


def test_interface_pairs_unique_and_shared():
    g = geom_4x4()
    pairs = {(ifc.minus, ifc.plus) for ifc in g.interfaces}
    assert len(pairs) == len(g.interfaces)
    assert all(m != p for m, p in pairs)


def test_validate_parameter():
    g = geom_1d()
    with pytest.raises(ValueError):
        validate_parameter(g, np.ones(4))
    with pytest.raises(ValueError):
        validate_parameter(g, [1, 2, -3, 4, 5])
    with pytest.raises(ValueError):
        validate_parameter(g, [1, 2, np.inf, 4, 5])
    np.testing.assert_array_equal(validate_parameter(g, [1, 2, 3, 4, 5]), [1, 2, 3, 4, 5])


def test_subdomain_index_many_matches_scalar():
    g = geom_4x4()
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.99, 0.99, size=(200, 2))
    keep = np.all(np.abs(np.abs(pts) - 0.5) > 1e-6, axis=1) & np.all(np.abs(pts) > 1e-6, axis=1)
    pts = pts[keep]
    many = subdomain_index_many(g, pts)
    for x, idx in zip(pts, many):
        assert subdomain_index_many(g, x[None, :]) == [idx]


def geom_2x3():
    """Two rows of three columns, no cut centered or evenly spaced."""
    return build_grid_geometry(2, cuts_x=[-0.7, 0.1], cuts_y=[0.35], bounds=[(-1, 1.5), (0, 2)])


# keyed by the test ids, the names the layout builders had
LOOKUP_LAYOUTS = {"geom_bench_2d": geom_3x3, "geom_1d": geom_1d, "geom_2x3": geom_2x3}


def _box_lookup(g, pts):
    """The subdomain whose open box holds each point, by testing every box."""
    inside = np.all(pts[:, None, :] > g.subdomain_lo, axis=2) & np.all(
        pts[:, None, :] < g.subdomain_hi, axis=2
    )
    assert np.all(inside.sum(axis=1) == 1)
    return np.argmax(inside, axis=1)


@pytest.mark.parametrize("layout", LOOKUP_LAYOUTS.values(), ids=LOOKUP_LAYOUTS.keys())
def test_subdomain_index_many_matches_box_test(layout):
    g = layout()
    lo, hi = np.array(g.bounds).T
    pts = np.random.default_rng(5).uniform(lo, hi, size=(10_000, g.dimension))
    np.testing.assert_array_equal(subdomain_index_many(g, pts), _box_lookup(g, pts))


@pytest.mark.parametrize("layout", LOOKUP_LAYOUTS.values(), ids=LOOKUP_LAYOUTS.keys())
def test_subdomain_index_many_rejects_cuts_bounds_outside_and_nan(layout):
    g = layout()
    cuts = (g.cuts_x, g.cuts_y)
    # inside the first cell of every axis, so clear of every cut
    clear = np.array([0.5 * (lo + cuts[k][0]) for k, (lo, _) in enumerate(g.bounds)])
    subdomain_index_many(g, clear[None, :])
    for axis, (lo, hi) in enumerate(g.bounds):
        for bad in (cuts[axis][0], cuts[axis][-1], lo, hi, hi + 0.1, lo - 1.0, np.nan):
            pts = np.stack([clear, clear])
            pts[1, axis] = bad
            with pytest.raises(ValueError, match="interface or outside"):
                subdomain_index_many(g, pts)


def test_subdomain_index_single_point_forms():
    g1, g2 = geom_1d(), geom_2x3()
    assert subdomain_index_many(g1, [PI / 10]) == [0]
    assert subdomain_index_many(g1, [0.9 * PI]) == [4]
    assert subdomain_index_many(g1, np.array([[0.5 * PI]])) == [2]
    np.testing.assert_array_equal(subdomain_index_many(g1, np.array([0.1, 3.0])), [0, 4])
    # top row first: the top-right cell is 2, the bottom-left one 3
    assert subdomain_index_many(g2, (1.0, 1.5)) == [2]
    assert subdomain_index_many(g2, [-0.9, 0.1]) == [3]
    assert subdomain_index_many(g2, np.array([[0.0, 1.0]])) == [1]
    np.testing.assert_array_equal(subdomain_index_many(g2, np.array([0.0, 0.1])), [4])
    with pytest.raises(ValueError):
        subdomain_index_many(g2, (0.1, 1.0))
