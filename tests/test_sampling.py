import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from transolve.geometry import build_grid_geometry, subdomain_index_many
from transolve.sampling import QuadratureSet, midpoint_grid, sample_collocation, sample_parameters
from transolve.training import Seeds, TrainConfig, make_validation_set

from conftest import geom_1d, geom_2x2, geom_3x3

PI = np.pi


def volume(g):
    return float(np.prod([b - a for a, b in g.bounds]))


def interface_measure(g):
    """Segment length in 2D, point count in 1D (`Interface.length` is 1)."""
    return float(sum(ifc.length for ifc in g.interfaces))


# ------------------------- parameter sampling ------------------------------


def test_parameter_endpoints():
    class FixedRng:
        def __init__(self, z):
            self.z = z

        def uniform(self, lo, hi, size=None):
            return np.full(size, self.z)

    p = sample_parameters(FixedRng(0.0), 1, 3, 0.01, 50.0)
    np.testing.assert_allclose(p, 50.0)
    p = sample_parameters(FixedRng(np.pi / 2), 1, 3, 0.01, 50.0)
    np.testing.assert_allclose(p, 0.5 * (0.01 + 50.0))


def test_parameter_range_and_validity():
    rng = np.random.default_rng(0)
    p = sample_parameters(rng, 2000, 5, 0.01, 50.0)
    assert p.shape == (2000, 5)
    assert np.all(p >= 0.01) and np.all(p <= 50.0)
    with pytest.raises(ValueError):
        sample_parameters(rng, 0, 5, 0.01, 50.0)
    with pytest.raises(ValueError):
        sample_parameters(rng, 5, 5, 0.0, 50.0)
    for p_min, p_max in ((5.0, 1.0), (1.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="parameter range"):
            sample_parameters(rng, 5, 5, p_min, p_max)


def test_parameter_arcsine_cdf_ks():
    rng = np.random.default_rng(1)
    p_min, p_max = 0.01, 50.0
    draws = sample_parameters(rng, 100_000, 1, p_min, p_max).ravel()

    def cdf(p):
        u = (2 * p - p_min - p_max) / (p_max - p_min)
        return 1 - np.arccos(np.clip(u, -1, 1)) / np.pi

    d, _ = stats.kstest(draws, cdf)
    assert d <= 0.01


# ------------------------- collocation ------------------------------------


def test_collocation_counts_2d():
    g = geom_2x2()
    q = sample_collocation(g, 40, 40, np.random.default_rng(0))
    assert q.n_interior == 1600
    assert q.n_interface == 4 * 40
    np.testing.assert_allclose(q.interior_weights, volume(g) / 1600)
    np.testing.assert_allclose(q.interface_weights, interface_measure(g) / q.n_interface)


def test_collocation_counts_1d():
    g = geom_1d()
    q = sample_collocation(g, 100, 1, np.random.default_rng(0))
    assert q.n_interior == 500
    assert q.n_interface == 4
    np.testing.assert_allclose(q.interface_weights, 1.0)
    np.testing.assert_allclose(q.interior_weights.sum(), volume(g))


def test_collocation_subdomain_ids_consistent():
    g = geom_2x2()
    q = sample_collocation(g, 20, 10, np.random.default_rng(3))
    np.testing.assert_array_equal(q.interior_subdomain, subdomain_index_many(g, q.interior_points))


def test_collocation_interface_points_on_carriers():
    g = geom_2x2()
    q = sample_collocation(g, 10, 15, np.random.default_rng(4))
    for pt, k in zip(q.interface_points, q.interface_ids):
        ifc = g.interfaces[k]
        assert pt[ifc.axis] == ifc.position
        lo, hi = ifc.span
        assert lo <= pt[1 - ifc.axis] <= hi


@st.composite
def layouts_2d(draw):
    """Random boxes with up to three cuts per axis at distinct ninths."""
    x0, y0 = draw(st.floats(-2.0, 1.0)), draw(st.floats(-2.0, 1.0))
    x1, y1 = x0 + draw(st.floats(0.5, 3.0)), y0 + draw(st.floats(0.5, 3.0))
    fractions = st.lists(st.integers(1, 8), max_size=3, unique=True)
    cuts_x = [x0 + (x1 - x0) * k / 9 for k in sorted(draw(fractions))]
    cuts_y = [y0 + (y1 - y0) * k / 9 for k in sorted(draw(fractions))]
    return build_grid_geometry(2, cuts_x=cuts_x, cuts_y=cuts_y, bounds=[(x0, x1), (y0, y1)])


@settings(max_examples=40, deadline=None)
@given(g=layouts_2d(), n=st.integers(1, 7), seed=st.integers(0, 2**16))
def test_interface_weights_sum_to_segment_lengths(g, n, seed):
    q = sample_collocation(g, 4, n, np.random.default_rng(seed))
    sums = np.bincount(q.interface_ids, weights=q.interface_weights, minlength=len(g.interfaces))
    lengths = np.array([ifc.length for ifc in g.interfaces])
    np.testing.assert_allclose(sums, lengths, rtol=0, atol=1e-12)
    assert q.interface_points.shape == (len(g.interfaces) * n, 2)


def test_different_seeds_disjoint():
    g = geom_2x2()
    q1 = sample_collocation(g, 15, 10, np.random.default_rng(10))
    q2 = sample_collocation(g, 15, 10, np.random.default_rng(11))
    common = set(map(tuple, np.round(q1.interior_points, 14))) & set(
        map(tuple, np.round(q2.interior_points, 14))
    )
    assert not common


def _validation_config(n_interior, n_interface, seed):
    return TrainConfig(
        iterations=1, lr_start=1e-3, lr_end=1e-3, theta=1.0, n_params=2,
        n_interior=n_interior, n_interface=n_interface, p_min=0.5, p_max=2.0,
        seeds=Seeds(seed, seed, seed, seed),
    )


def test_validation_counts_and_freezing():
    g2 = geom_2x2()
    v = make_validation_set(g2, _validation_config(40, 40, 99)).quad
    assert v.n_interior == 43 * 43
    assert v.n_interface == 4 * 43
    v2 = make_validation_set(g2, _validation_config(40, 40, 99)).quad
    np.testing.assert_array_equal(v.interior_points, v2.interior_points)
    np.testing.assert_array_equal(v.interface_points, v2.interface_points)
    g1 = geom_1d()
    v1 = make_validation_set(g1, _validation_config(100, 1, 7)).quad
    assert v1.n_interior == 103 * 5


def test_validation_disjoint_from_training_stream():
    g = geom_1d()
    cfg = _validation_config(50, 1, 0)
    q = sample_collocation(g, 50, 1, cfg.seeds.stream("interior"))
    v = make_validation_set(g, cfg).quad
    # same master seed but a dedicated stream: no point is shared
    common = set(map(tuple, np.round(q.interior_points, 14))) & set(
        map(tuple, np.round(v.interior_points, 14))
    )
    assert not common


# ------------------------- midpoint grids ---------------------------------


def test_midpoint_2x2_n2():
    g = geom_2x2()
    q = midpoint_grid(g, 2, 2)
    pts = sorted(map(tuple, q.interior_points))
    assert pts == [(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)]
    np.testing.assert_allclose(q.interior_weights, 1.0)
    assert q.interior_weights.sum() == pytest.approx(4.0)


def test_midpoint_integrates_constants_exactly():
    g = geom_2x2()
    q = midpoint_grid(g, 10, 5)
    assert q.interior_weights.sum() == pytest.approx(volume(g))
    assert q.interface_weights.sum() == pytest.approx(interface_measure(g))


def test_midpoint_odd_symmetry():
    g = geom_2x2()
    q = midpoint_grid(g, 16, 4)
    f = np.sin(PI * q.interior_points[:, 0]) * np.sin(PI * q.interior_points[:, 1])
    assert abs(np.sum(f * q.interior_weights)) <= 1e-12


def test_midpoint_at_an_odd_count_reads_exact_areas():
    """At n = 3 every cell of the 2x2 layout is cut through its center by
    a cut line: the pieces lie on either side, none on a cut, and each
    subdomain's weights sum to its area."""
    g = geom_2x2()
    q = midpoint_grid(g, 3, 2)
    assert q.n_interior == 16
    np.testing.assert_array_equal(subdomain_index_many(g, q.interior_points), q.interior_subdomain)
    assert np.all(_distance_to_cuts(g, q.interior_points) > 0)
    np.testing.assert_allclose(_weight_sums(g, q), _areas(g), rtol=1e-13, atol=0)


def _areas(g):
    return np.prod(g.subdomain_hi - g.subdomain_lo, axis=1)


def _weight_sums(g, q):
    """Each subdomain's weights summed exactly (math.fsum), so that the
    check reads the weights and not the rounding of a long sum: a
    sequential sum of the 2500 weights of a subdomain at n = 99 is off by
    1e-13 relative on its own."""
    return np.array([math.fsum(q.interior_weights[q.interior_subdomain == i])
                     for i in range(g.n_subdomains)])


def _distance_to_cuts(g, pts):
    cuts = [(axis, c) for axis, cs in enumerate((g.cuts_x, g.cuts_y)) for c in cs]
    return np.min([np.abs(pts[:, axis] - c) for axis, c in cuts], axis=0)


AREA_LAYOUTS = {
    "benchmark": lambda: build_grid_geometry(
        2, cuts_x=[-0.5, 0.25], cuts_y=[-0.25, 0.5], bounds=[(-1, 1), (-1, 1)]
    ),
    "2x2-irrational": lambda: build_grid_geometry(
        2, cuts_x=[np.sqrt(2) - 1], cuts_y=[np.pi / 10], bounds=[(-1, 1), (-1, 1)]
    ),
}


@pytest.mark.parametrize("layout", AREA_LAYOUTS)
def test_midpoint_weights_sum_to_the_subdomain_areas_at_every_count(layout):
    """For every n from 2 to 130 the cells clipped at the cuts give each
    subdomain its area to 1e-13 relative, and no center lies on a cut.  On
    the benchmark layout the global cells at n = 63 and 65 put areas off
    by up to 5.2 % and n = 100 put centers on the cuts."""
    g = AREA_LAYOUTS[layout]()
    areas = _areas(g)
    for n in range(2, 131):
        q = midpoint_grid(g, n, 2)
        np.testing.assert_allclose(_weight_sums(g, q), areas, rtol=1e-13, atol=0,
                                   err_msg=f"n = {n}")
        assert np.all(_distance_to_cuts(g, q.interior_points) > 0), n


def test_midpoint_converges_at_second_order_on_grids_that_miss_the_cuts():
    """A smooth integrand per subdomain, discontinuous across the cuts: on
    counts whose lines miss the irrational cuts, the midpoint rule on the
    clipped cells converges at second order or faster (a fitted slope of
    -3.2 in log n), where the global cells, which credit each cut cell to
    one side, converge at first order."""
    g = AREA_LAYOUTS["2x2-irrational"]()
    scale = 1.0 + np.arange(g.n_subdomains)

    def integral(n):
        q = midpoint_grid(g, n, 1)
        x, y = q.interior_points.T
        return np.sum(scale[q.interior_subdomain] * np.exp(x) * np.cos(y) * q.interior_weights)

    # the exact integral of exp(x) cos(y) over each subdomain's box
    exact = sum(scale[i] * (np.exp(hi[0]) - np.exp(lo[0])) * (np.sin(hi[1]) - np.sin(lo[1]))
                for i, (lo, hi) in enumerate(zip(g.subdomain_lo, g.subdomain_hi)))
    sizes = [9, 17, 33, 65]
    errors = [abs(integral(n) - exact) for n in sizes]
    slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
    assert slope < -1.8, (errors, slope)


def test_midpoint_rejects_zero_interface_count():
    with pytest.raises(ValueError):
        midpoint_grid(geom_2x2(), 4, 0)


def test_midpoint_2d_without_cuts_has_empty_interface_arrays():
    q = midpoint_grid(build_grid_geometry(2, bounds=[(-1, 1), (-1, 1)]), 4, 2)
    assert q.interface_points.shape == (0, 2)
    assert q.interface_weights.shape == (0,) and q.interface_weights.dtype.kind == "f"
    assert q.interface_ids.shape == (0,) and q.interface_ids.dtype.kind == "i"


def test_midpoint_1d_per_subdomain():
    g = geom_1d()
    q = midpoint_grid(g, 10, 1)
    assert q.n_interior == 50
    assert q.interior_weights.sum() == pytest.approx(PI)
    np.testing.assert_array_equal(q.interior_subdomain, np.repeat(np.arange(5), 10))


def test_stratified_mc_rate_at_least_sqrt():
    """RMS integration error decays at least like J^-1/2 (stratified is faster)."""
    g = geom_2x2()

    def f(x):
        return np.exp(0.3 * x[:, 0]) * np.cos(1.7 * x[:, 1]) + x[:, 0] ** 2

    # exact integral by high-order midpoint reference
    ref_q = midpoint_grid(g, 400, 1)
    ref = np.sum(f(ref_q.interior_points) * ref_q.interior_weights)
    sizes = [8, 16, 32, 64]
    rms = []
    for n in sizes:
        errs = []
        for seed in range(12):
            q = sample_collocation(g, n, 1, np.random.default_rng(1000 + seed))
            errs.append(np.sum(f(q.interior_points) * q.interior_weights) - ref)
        rms.append(np.sqrt(np.mean(np.square(errs))))
    slope = np.polyfit(np.log([n * n for n in sizes]), np.log(rms), 1)[0]
    assert slope <= -0.5 + 0.15


# ------------------ one-call draws against the per-segment loop -----------


def _loop_cells(g, n):
    """Reference: the interior cell grid, one linspace per 1D subdomain."""
    if g.dimension == 1:
        spans = zip(g.subdomain_lo[:, 0], g.subdomain_hi[:, 0])
        edges = [np.linspace(lo, hi, n + 1) for lo, hi in spans]
        corner = np.concatenate([e[:-1] for e in edges])
        return corner[:, None], np.concatenate([np.diff(e) for e in edges])[:, None]
    (a, b), (c, d) = g.bounds
    hx, hy = (b - a) / n, (d - c) / n
    gx, gy = np.meshgrid(a + hx * np.arange(n), c + hy * np.arange(n), indexing="ij")
    corners = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return corners, np.broadcast_to([hx, hy], corners.shape)


def _loop_interfaces(g, n, place):
    """Reference: interface points, weights and ids, one segment at a time."""
    if g.dimension == 1:
        k = len(g.interfaces)
        return np.array([[i.position] for i in g.interfaces]), np.ones(k), np.arange(k)
    points, weights = [], []
    for ifc in g.interfaces:
        lo, hi = ifc.span
        t = place(lo, hi, n)
        pos = np.full(n, ifc.position)
        points.append(np.stack([pos, t] if ifc.axis == 0 else [t, pos], axis=1))
        weights.append(np.full(n, (hi - lo) / n))
    ids = np.repeat(np.arange(len(g.interfaces)), n)
    return np.concatenate(points), np.concatenate(weights), ids


def _grouped(g, pts, weights):
    """Reference: the interior points and weights in a stable sort by
    subdomain, the order both builders give."""
    order = np.argsort(subdomain_index_many(g, pts), kind="stable")
    return pts[order], weights[order]


def _loop_collocation(g, n_int, n_ifc, rng, rng_ifc):
    corners, widths = _loop_cells(g, n_int)
    pts = corners + rng.uniform(0, 1, size=corners.shape) * widths
    cuts = [(axis, c) for axis, cs in enumerate((g.cuts_x, g.cuts_y)) for c in cs]
    for _ in range(100):
        dist = np.min([np.abs(pts[:, axis] - c) for axis, c in cuts], axis=0)
        bad = dist <= 1e-12
        if not np.any(bad):
            break
        pts[bad] += rng.uniform(-1e-9, 1e-9, size=(int(bad.sum()), pts.shape[1]))

    def stratified(lo, hi, n):
        edges = np.linspace(lo, hi, n + 1)
        return rng_ifc.uniform(edges[:-1], edges[1:])

    return (*_grouped(g, pts, np.prod(widths, axis=1)), *_loop_interfaces(g, n_ifc, stratified))


def _loop_midpoint_cells(g, n):
    """Reference: the midpoint cells of each axis one cell at a time, a
    cell that a cut crosses beyond rounding split into its pieces, then
    their tensor product one pair at a time."""
    if g.dimension == 1:
        corners, widths = _loop_cells(g, n)
        return corners + widths / 2, widths
    per_axis = []
    for (lo, hi), cuts in zip(g.bounds, (g.cuts_x, g.cuts_y)):
        h = (hi - lo) / n
        centers, widths = [], []
        for k in range(n):
            left = lo + h * k
            right = hi if k == n - 1 else lo + h * (k + 1)
            inside = sorted(c for c in cuts
                            if left + 1e-14 * (hi - lo) < c < right - 1e-14 * (hi - lo))
            if not inside:
                centers.append(left + h / 2)
                widths.append(h)
                continue
            bounds = [left, *inside, right]
            for a, b in zip(bounds[:-1], bounds[1:]):
                centers.append((a + b) / 2)
                widths.append(b - a)
        per_axis.append((centers, widths))
    (cx, wx), (cy, wy) = per_axis
    pts = np.array([(x, y) for x in cx for y in cy])
    return pts, np.array([(a, b) for a in wx for b in wy])


def _loop_midpoints(g, n, n_ifc):
    pts, widths = _loop_midpoint_cells(g, n)

    def centers(lo, hi, n):
        return lo + (hi - lo) / n * (np.arange(n) + 0.5)

    return (*_grouped(g, pts, np.prod(widths, axis=1)), *_loop_interfaces(g, n_ifc, centers))


DRAW_LAYOUTS = {
    "1d": geom_1d,
    "2x2": geom_2x2,
    "benchmark-2d": geom_3x3,
    "2x3": lambda: build_grid_geometry(
        2, cuts_x=[-0.7, 0.1], cuts_y=[0.35], bounds=[(-1, 1.5), (0, 2)]
    ),
}


def _assert_bits(got: QuadratureSet, want):
    fields = (
        "interior_points", "interior_weights", "interface_points", "interface_weights",
        "interface_ids",
    )
    for name, ref in zip(fields, want):
        value = getattr(got, name)
        assert value.shape == ref.shape and value.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("layout", DRAW_LAYOUTS)
@pytest.mark.parametrize("seed", [0, 7])
def test_collocation_bits_equal_the_per_segment_loop(layout, seed):
    g = DRAW_LAYOUTS[layout]()
    for shared in (True, False):
        rng = np.random.default_rng(seed)
        rng_ifc = rng if shared else np.random.default_rng(seed + 1)
        want = _loop_collocation(g, 17, 9, rng, rng_ifc)
        rng = np.random.default_rng(seed)
        got = sample_collocation(
            g, 17, 9, rng, rng_interface=None if shared else np.random.default_rng(seed + 1)
        )
        _assert_bits(got, want)


@pytest.mark.parametrize("layout", DRAW_LAYOUTS)
def test_midpoint_bits_equal_the_per_segment_loop(layout):
    g = DRAW_LAYOUTS[layout]()
    q = midpoint_grid(g, 16, 6)
    _assert_bits(q, _loop_midpoints(g, 16, 6))
    if g.dimension == 2:
        sums = np.bincount(q.interface_ids, weights=q.interface_weights)
        np.testing.assert_allclose(sums, [i.length for i in g.interfaces], rtol=0, atol=1e-12)


@pytest.mark.parametrize("layout", DRAW_LAYOUTS)
def test_both_builders_group_the_interior_rows_by_subdomain(layout):
    """Each builder gives a non-decreasing ``interior_subdomain``, each
    subdomain's rows one run, that names each point's own subdomain; the
    1D cells come grouped, so their points keep the cell order."""
    g = DRAW_LAYOUTS[layout]()
    for q in (sample_collocation(g, 17, 9, np.random.default_rng(3)), midpoint_grid(g, 16, 6)):
        sub = q.interior_subdomain
        assert np.all(np.diff(sub) >= 0)
        np.testing.assert_array_equal(sub, subdomain_index_many(g, q.interior_points))
        assert np.unique(sub).size == g.n_subdomains
        if g.dimension == 1:
            assert np.all(np.diff(q.interior_points[:, 0]) > 0)
