"""Tests for chart atlases, quadrature, differential forms, and connections."""
import gc
import weakref

import numpy as np
import pytest

from oracles import area_form, bump, bump_values, descent_residual, exterior_derivative
from gerbedex import geometry
from gerbedex.geometry import (
    Chart,
    ChartAtlas,
    FormField,
    ModuleConnection,
    OverlapMap,
    composite_gauss_legendre,
    connection_difference,
    curvature,
    integrate_top,
    tensor_connection,
    _CellPlan,
)
from gerbedex.registry import SphereBenchmark, perturbed_connection


# ---------------------------------------------------------------- helpers

def single_chart_atlas(order=12, panels=2):
    chart = Chart("main", (0.0, 0.0), (1.0, 1.0), 1, order=order, panels=panels)
    return ChartAtlas("box", 2, [chart], {})


def flat_pair_atlas(order=16, panels=4):
    """Two flat charts glued along the strip 1 < x < 2 by the identity map."""
    left = Chart("left", (0.0, 0.0), (2.0, 1.0), 1, order=order, panels=panels)
    right = Chart("right", (1.0, 0.0), (3.0, 1.0), 1, order=order, panels=panels)

    def ident(x, y):
        return x, y

    def ident_jac(x, y):
        return np.broadcast_to(np.eye(2), x.shape + (2, 2))

    overlaps = {
        ("left", "right"): OverlapMap(ident, ident_jac, lambda x, y: x > 1.0),
        ("right", "left"): OverlapMap(ident, ident_jac, lambda x, y: x < 2.0),
    }
    return ChartAtlas("strip", 2, [left, right], overlaps)


def sphere_atlas(order=32, panels=6, box=1.2):
    """Round unit sphere: two stereographic charts glued by inversion."""
    north = Chart("north", (-box, -box), (box, box), 1, order=order, panels=panels)
    south = Chart("south", (-box, -box), (box, box), -1, order=order, panels=panels)

    def invert(x, y):
        r2 = x * x + y * y
        return x / r2, y / r2

    def invert_jac(x, y):
        r2 = x * x + y * y
        jac = np.empty(x.shape + (2, 2))
        jac[..., 0, 0] = (y * y - x * x) / r2 ** 2
        jac[..., 0, 1] = -2.0 * x * y / r2 ** 2
        jac[..., 1, 0] = -2.0 * x * y / r2 ** 2
        jac[..., 1, 1] = (x * x - y * y) / r2 ** 2
        return jac

    def mask(x, y):
        # the image point u = (x, y)/r^2 must land inside the partner box
        r2 = x * x + y * y
        return (r2 > 1e-12) & (np.abs(x) < box * r2) & (np.abs(y) < box * r2)

    overlap = OverlapMap(invert, invert_jac, mask)
    overlaps = {("north", "south"): overlap, ("south", "north"): overlap}
    return ChartAtlas("sphere", 2, [north, south], overlaps)


def monopole_connection(atlas, m):
    """Charge-m monopole: A_N = -im(x dy - y dx)/(1+r^2), opposite sign south."""
    def a_x_north(x, y):
        return (1j * m * y / (1.0 + x * x + y * y))[..., None, None]

    def a_y_north(x, y):
        return (-1j * m * x / (1.0 + x * x + y * y))[..., None, None]

    def a_x_south(u, v):
        return (-1j * m * v / (1.0 + u * u + v * v))[..., None, None]

    def a_y_south(u, v):
        return (1j * m * u / (1.0 + u * u + v * v))[..., None, None]

    def phase_north(x, y):
        z = x + 1j * y
        return ((z / np.abs(z)) ** m)[..., None, None]

    def phase_south(u, v):
        w = u + 1j * v
        return ((w / np.abs(w)) ** (-m))[..., None, None]

    forms = {
        "north": [_sample_on(atlas.charts["north"], a_x_north),
                  _sample_on(atlas.charts["north"], a_y_north)],
        "south": [_sample_on(atlas.charts["south"], a_x_south),
                  _sample_on(atlas.charts["south"], a_y_south)],
    }
    transitions = {("north", "south"): phase_north, ("south", "north"): phase_south}
    return ModuleConnection(atlas, 1, forms, transitions)


def _sample_on(chart, fn):
    coords = chart.coords()
    return np.asarray(fn(*coords), dtype=complex)


# ---------------------------------------------------------------- bump

def test_bump_values():
    assert bump(np.array(0.0)) == pytest.approx(1.0, abs=1e-15)
    # exp(1 - 1/(1 - 0.25)) = exp(-1/3)
    assert bump(np.array(0.5)) == pytest.approx(np.exp(-1.0 / 3.0), abs=1e-14)
    assert bump(np.array([1.0, -1.0, 2.0, -7.5])) == pytest.approx([0, 0, 0, 0])


def test_bump_smooth_and_even():
    t = np.linspace(-0.95, 0.95, 37)
    vals = bump(t)
    assert np.all(vals > 0)
    assert vals == pytest.approx(bump(-t), abs=1e-15)


# ---------------------------------------------------------------- quadrature

def test_gauss_legendre_single_panel_order4():
    nodes, weights = composite_gauss_legendre(-1.0, 1.0, 4, 1)
    ref = [-0.8611363115940526, -0.3399810435848563,
           0.3399810435848563, 0.8611363115940526]
    ref_w = [0.3478548451374538, 0.6521451548625461,
             0.6521451548625461, 0.3478548451374538]
    assert nodes == pytest.approx(ref, abs=1e-14)
    assert weights == pytest.approx(ref_w, abs=1e-14)


def test_composite_panels_cover_interval():
    nodes, weights = composite_gauss_legendre(0.0, 1.0, 3, 2)
    assert len(nodes) == 6
    assert np.all(np.diff(nodes) > 0)
    assert np.all((nodes > 0.0) & (nodes < 1.0))
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-14)
    # second panel is the first shifted by the panel width
    assert nodes[3:] == pytest.approx(nodes[:3] + 0.5, abs=1e-14)


@pytest.mark.parametrize("power", [0, 1, 2, 3, 4, 5])
def test_quadrature_polynomial_exactness(power):
    nodes, weights = composite_gauss_legendre(0.0, 1.0, 3, 2)
    # order-3 GL is exact through degree 5 on each panel
    assert np.sum(weights * nodes ** power) == pytest.approx(
        1.0 / (power + 1), abs=1e-14)


def test_quadrature_smooth_convergence():
    exact = 1.0 - np.cos(1.0)
    errs = []
    for order in (4, 8):
        nodes, weights = composite_gauss_legendre(0.0, 1.0, order, 2)
        errs.append(abs(np.sum(weights * np.sin(nodes)) - exact))
    assert errs[1] < errs[0] / 4.0
    assert errs[1] < 1e-14


# ---------------------------------------------------------------- chart basics

def test_chart_grid_shapes():
    chart = Chart("c", (0.0, -1.0), (2.0, 1.0), 1, order=5, panels=3)
    assert chart.shape == (15, 15)
    x, y = chart.coords()
    assert x.shape == (15, 15)
    assert np.all((x > 0.0) & (x < 2.0))
    assert np.all((y > -1.0) & (y < 1.0))
    # weight grid integrates 1 to the box area
    assert np.sum(chart.node_weights()) == pytest.approx(4.0, abs=1e-12)


def test_chart_differentiate_polynomial_exact():
    chart = Chart("c", (0.0, 0.0), (1.0, 1.0), 1, order=6, panels=2)
    x, y = chart.coords()
    vals = x ** 4 * y
    dx = chart.differentiate(vals, 0)
    dy = chart.differentiate(vals, 1)
    assert dx == pytest.approx(4.0 * x ** 3 * y, abs=1e-10)
    assert dy == pytest.approx(x ** 4, abs=1e-10)


def test_chart_differentiate_smooth():
    chart = Chart("c", (0.0, 0.0), (1.0, 1.0), 1, order=16, panels=2)
    x, y = chart.coords()
    vals = np.sin(3.0 * x + y)
    dx = chart.differentiate(vals, 0)
    assert dx == pytest.approx(3.0 * np.cos(3.0 * x + y), abs=1e-10)


def test_chart_differentiate_matrix_valued():
    chart = Chart("c", (0.0, 0.0), (1.0, 1.0), 1, order=8, panels=2)
    x, y = chart.coords()
    vals = np.zeros(chart.shape + (2, 2))
    vals[..., 0, 1] = x * x
    vals[..., 1, 0] = y
    dx = chart.differentiate(vals, 0)
    assert dx[..., 0, 1] == pytest.approx(2.0 * x, abs=1e-10)
    assert dx[..., 1, 0] == pytest.approx(0.0, abs=1e-10)


def test_chart_interpolate_polynomial_exact():
    chart = Chart("c", (0.0, 0.0), (1.0, 1.0), 1, order=6, panels=2)
    x, y = chart.coords()
    vals = x ** 3 * y ** 2
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.05, 0.95, size=(40, 2))
    out = _CellPlan(chart, pts)(vals)
    assert out == pytest.approx(pts[:, 0] ** 3 * pts[:, 1] ** 2, abs=1e-12)


def test_chart_interpolate_smooth_and_trailing():
    chart = Chart("c", (0.0, 0.0), (1.0, 1.0), 1, order=16, panels=2)
    x, y = chart.coords()
    vals = np.stack([np.sin(3.0 * x + y), np.cos(x - 2.0 * y)], axis=-1)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, 1.0, size=(25, 2))
    out = _CellPlan(chart, pts)(vals)
    expect = np.stack([np.sin(3.0 * pts[:, 0] + pts[:, 1]),
                       np.cos(pts[:, 0] - 2.0 * pts[:, 1])], axis=-1)
    assert out == pytest.approx(expect, abs=1e-10)


def random_grid_data(chart, trail, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(chart.shape + trail)
    if trail:
        values = values + 1j * rng.standard_normal(chart.shape + trail)
    return values


BOXES = [((0.0,), (1.5,)), ((0.0, -1.0), (1.0, 2.0))]


@pytest.mark.parametrize("lo, hi", BOXES)
@pytest.mark.parametrize("trail", [(), (2, 2)])
def test_differentiate_matches_dense_panel_oracle(lo, hi, trail):
    chart = Chart("c", lo, hi, 1, order=7, panels=3)
    values = random_grid_data(chart, trail, seed=5)
    for axis, ax in enumerate(chart.axes):
        dense = np.kron(np.eye(ax.panels), ax.diff)
        expect = np.moveaxis(np.tensordot(dense, values, axes=(1, axis)), 0, axis)
        out = chart.differentiate(values, axis)
        assert out.shape == values.shape
        np.testing.assert_allclose(out, expect, rtol=0,
                                   atol=1e-12 * np.abs(expect).max())


def lagrange_oracle(chart, values, point):
    """Interpolate on the panel cell holding the point (right panel on an
    interior edge) with the product Lagrange basis, one point at a time."""
    block = values
    for k, ax in enumerate(chart.axes):
        panel = int(np.sum(point[k] >= ax.panel_edges[1:-1]))
        nodes = ax.nodes[panel * ax.order:(panel + 1) * ax.order]
        basis = np.array([np.prod([(point[k] - t) / (s - t)
                                   for t in nodes if t != s]) for s in nodes])
        local = np.take(block, range(panel * ax.order, (panel + 1) * ax.order),
                        axis=0)
        block = np.tensordot(basis, local, axes=(0, 0))
    return block


def probe_points(chart, seed):
    rng = np.random.default_rng(seed)
    lo, hi = np.array(chart.lo), np.array(chart.hi)
    random = rng.uniform(lo, hi, size=(30, chart.dim))
    nodes = np.stack([rng.choice(ax.nodes, 10) for ax in chart.axes], axis=-1)
    edges = rng.uniform(lo, hi, size=(4 * chart.dim, chart.dim))
    for k, ax in enumerate(chart.axes):
        edges[4 * k:4 * k + 4, k] = rng.choice(ax.panel_edges[1:-1], 4)
    corners = np.array(np.meshgrid(*zip(lo, hi), indexing="ij")).reshape(
        chart.dim, -1).T
    return np.concatenate([random, nodes, edges, corners])


@pytest.mark.parametrize("lo, hi", BOXES)
@pytest.mark.parametrize("trail", [(), (2, 2)])
def test_interpolate_matches_per_point_lagrange_oracle(lo, hi, trail):
    chart = Chart("c", lo, hi, 1, order=6, panels=3)
    values = random_grid_data(chart, trail, seed=9)
    pts = probe_points(chart, seed=13)
    out = _CellPlan(chart, pts)(values)
    assert out.shape == (len(pts),) + trail
    expect = np.stack([lagrange_oracle(chart, values, p) for p in pts])
    np.testing.assert_allclose(out, expect, rtol=0, atol=1e-11)


def test_interpolate_on_grid_nodes_returns_the_grid_values():
    chart = Chart("c", (0.0, -1.0), (1.0, 2.0), 1, order=6, panels=3)
    values = random_grid_data(chart, (2, 2), seed=17)
    x, y = chart.coords()
    pts = np.stack([x.ravel(), y.ravel()], axis=-1)
    out = _CellPlan(chart, pts)(values)
    assert np.array_equal(out, values.reshape((-1, 2, 2)))


def test_interpolate_rejects_three_axes():
    chart = Chart("c", (0.0,) * 3, (1.0,) * 3, 1, order=3, panels=1)
    with pytest.raises(NotImplementedError):
        _CellPlan(chart, np.zeros((1, 3)))(np.zeros(chart.shape))


# ---------------------------------------------------------------- atlases

def test_single_chart_pou_is_one():
    atlas = single_chart_atlas()
    rho = atlas.pou["main"]
    assert rho == pytest.approx(np.ones(atlas.charts["main"].shape), abs=0)


def test_single_chart_integration_exact():
    atlas = single_chart_atlas(order=8, panels=2)
    x, y = atlas.charts["main"].coords()
    form = FormField(atlas, 2, {"main": {(0, 1): x ** 2 * y ** 3}})
    assert integrate_top(form) == pytest.approx(1.0 / 12.0, abs=1e-13)


def test_flat_pair_partition_of_unity_sums_to_one():
    atlas = flat_pair_atlas(order=8, panels=3)
    for name, chart in atlas.charts.items():
        rho = atlas.pou[name]
        assert np.all((rho >= 0.0) & (rho <= 1.0))
        total = rho.copy()
        coords = chart.coords()
        healthy = bump_values(chart) > 1e-200
        for (a, b), overlap in atlas.overlaps.items():
            if a != name:
                continue
            inside = overlap.mask(*coords)
            mapped = overlap.mapper(*(c[inside] for c in coords))
            other = np.zeros(chart.shape)
            other[inside] = bump_values(atlas.charts[b], np.stack(mapped, axis=-1))
            denom = bump_values(chart) + other
            total += np.where(denom > 0, other / np.where(denom > 0, denom, 1.0), 0.0)
        # direct linear-space recomputation away from bump underflow
        assert np.max(np.abs(total[healthy] - 1.0)) < 1e-12
        assert np.count_nonzero(healthy) > 0.8 * healthy.size


def test_flat_pair_integration_matches_closed_form():
    atlas = flat_pair_atlas(order=32, panels=6)
    comps = {}
    for name, chart in atlas.charts.items():
        x, y = chart.coords()
        comps[name] = {(0, 1): x * y}
    form = FormField(atlas, 2, comps)
    # int over [0,3]x[0,1] of xy = (9/2)*(1/2)
    assert integrate_top(form) == pytest.approx(2.25, abs=1e-7)


def test_atlas_rejects_duplicate_and_unknown_charts():
    first = Chart("a", (0.0, 0.0), (1.0, 1.0), 1, order=4, panels=1)
    dup = Chart("a", (0.0, 0.0), (2.0, 2.0), 1, order=4, panels=1)
    with pytest.raises(ValueError):
        ChartAtlas("bad", 2, [first, dup], {})
    other = Chart("b", (0.0, 0.0), (1.0, 1.0), 1, order=4, panels=1)
    stray = OverlapMap(lambda x, y: (x, y),
                       lambda x, y: np.broadcast_to(np.eye(2), x.shape + (2, 2)),
                       lambda x, y: x > 0.5)
    with pytest.raises(ValueError):
        ChartAtlas("bad", 2, [first, other], {("a", "zz"): stray})


def test_atlas_rejects_inconsistent_transition_maps():
    box = 1.2
    north = Chart("north", (-box, -box), (box, box), 1, order=8, panels=4)
    south = Chart("south", (-box, -box), (box, box), -1, order=8, panels=4)

    def invert(x, y):
        r2 = x * x + y * y
        return x / r2, y / r2

    def shifted(x, y):
        r2 = x * x + y * y
        return x / r2 + 0.3, y / r2

    def jac(x, y):
        return np.broadcast_to(np.eye(2), x.shape + (2, 2))

    def mask(x, y):
        return x * x + y * y > 1.0 / box ** 2

    with pytest.raises(ValueError):
        # the two directions are not inverse to each other, so the pointwise
        # normalization is inconsistent between charts
        ChartAtlas("broken", 2, [north, south], {
            ("north", "south"): OverlapMap(invert, jac, mask),
            ("south", "north"): OverlapMap(shifted, jac, mask),
        })


def test_sphere_area_at_order_32():
    atlas = sphere_atlas(order=32)
    total = integrate_top(area_form(atlas))
    assert total == pytest.approx(4.0 * np.pi, abs=1e-8)


def test_sphere_area_convergence_ratio():
    errs = []
    for order in (8, 16):
        atlas = sphere_atlas(order=order)
        errs.append(abs(integrate_top(area_form(atlas)) - 4.0 * np.pi))
    assert errs[1] < errs[0] / 4.0


# ---------------------------------------------------------------- form fields

def test_formfield_validates_degree_and_keys():
    atlas = single_chart_atlas(order=4, panels=1)
    x, y = atlas.charts["main"].coords()
    with pytest.raises(ValueError):
        FormField(atlas, 1, {"main": {(0, 1): x}})
    with pytest.raises(ValueError):
        FormField(atlas, 3, {"main": {}})


def test_wedge_scalar_forms():
    atlas = single_chart_atlas(order=6, panels=2)
    x, y = atlas.charts["main"].coords()
    alpha = FormField(atlas, 1, {"main": {(0,): np.zeros_like(x), (1,): x}})
    beta = FormField(atlas, 1, {"main": {(0,): y, (1,): np.zeros_like(x)}})
    wedge = alpha.wedge(beta)
    assert wedge.degree == 2
    # (x dy) ^ (y dx) = -xy dx^dy
    assert wedge.comps["main"][(0, 1)] == pytest.approx(-x * y, abs=1e-14)


def test_wedge_anticommutes_for_odd_scalars():
    atlas = single_chart_atlas(order=6, panels=2)
    x, y = atlas.charts["main"].coords()
    a = FormField(atlas, 1, {"main": {(0,): np.sin(x + y), (1,): x * y}})
    b = FormField(atlas, 1, {"main": {(0,): np.cos(x), (1,): y ** 2}})
    left = a.wedge(b).comps["main"][(0, 1)]
    right = b.wedge(a).comps["main"][(0, 1)]
    assert left == pytest.approx(-right, abs=1e-13)


def test_wedge_matrix_forms_commutator():
    atlas = single_chart_atlas(order=4, panels=1)
    chart = atlas.charts["main"]
    rng = np.random.default_rng(5)
    m1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    ones = np.ones(chart.shape)
    a = FormField(atlas, 1, {"main": {
        (0,): ones[..., None, None] * m1,
        (1,): ones[..., None, None] * m2}}, rank=2)
    square = a.wedge(a)
    expect = m1 @ m2 - m2 @ m1
    assert square.comps["main"][(0, 1)] == pytest.approx(
        np.broadcast_to(expect, chart.shape + (2, 2)), abs=1e-13)


def test_exterior_derivative_simple():
    atlas = single_chart_atlas(order=8, panels=2)
    x, y = atlas.charts["main"].coords()
    alpha = FormField(atlas, 1, {"main": {(0,): np.zeros_like(x), (1,): x}})
    d_alpha = exterior_derivative(alpha)
    assert d_alpha.comps["main"][(0, 1)] == pytest.approx(
        np.ones_like(x), abs=1e-10)
    beta = FormField(atlas, 1, {"main": {(0,): np.sin(x * y),
                                         (1,): np.zeros_like(x)}})
    d_beta = exterior_derivative(beta)
    # d(f dx) = -df/dy dx^dy
    assert d_beta.comps["main"][(0, 1)] == pytest.approx(
        -x * np.cos(x * y), abs=1e-9)


def test_exterior_derivative_squares_to_zero():
    atlas = single_chart_atlas(order=16, panels=2)
    x, y = atlas.charts["main"].coords()
    f = FormField(atlas, 0, {"main": {(): np.sin(2.0 * x) * np.cos(y) + x * y}})
    dd = exterior_derivative(exterior_derivative(f))
    assert dd.comps["main"][(0, 1)] == pytest.approx(np.zeros_like(x), abs=1e-8)


def test_formfield_add_scale():
    atlas = single_chart_atlas(order=4, panels=1)
    x, y = atlas.charts["main"].coords()
    a = FormField(atlas, 2, {"main": {(0, 1): x}})
    b = FormField(atlas, 2, {"main": {(0, 1): y}})
    combo = a + (-2.0) * b
    assert combo.comps["main"][(0, 1)] == pytest.approx(x - 2.0 * y, abs=1e-14)
    diff = a - b
    assert diff.comps["main"][(0, 1)] == pytest.approx(x - y, abs=1e-14)


def test_formfield_trace():
    atlas = single_chart_atlas(order=4, panels=1)
    chart = atlas.charts["main"]
    x, y = chart.coords()
    comp = np.zeros(chart.shape + (2, 2), dtype=complex)
    comp[..., 0, 0] = x
    comp[..., 1, 1] = 2j * y
    form = FormField(atlas, 2, {"main": {(0, 1): comp}}, rank=2)
    traced = form.trace()
    assert traced.rank is None
    assert traced.comps["main"][(0, 1)] == pytest.approx(x + 2j * y, abs=1e-14)


def test_overlap_residual_flat_consistent():
    atlas = flat_pair_atlas(order=16, panels=4)
    comps = {}
    for name, chart in atlas.charts.items():
        x, y = chart.coords()
        comps[name] = {(0, 1): np.sin(x) * np.cos(2.0 * y)}
    form = FormField(atlas, 2, comps)
    assert form.overlap_residual() < 1e-9


def test_overlap_residual_detects_mismatch():
    atlas = flat_pair_atlas(order=16, panels=4)
    comps = {}
    for name, chart in atlas.charts.items():
        x, y = chart.coords()
        factor = 1.0 if name == "left" else 1.01
        comps[name] = {(0, 1): factor * np.sin(x) * np.cos(2.0 * y)}
    form = FormField(atlas, 2, comps)
    assert form.overlap_residual() > 1e-3


def test_overlap_residual_sphere_area_form():
    atlas = sphere_atlas(order=16)
    assert area_form(atlas).overlap_residual() < 1e-8


def test_overlap_residual_one_form_jacobian():
    atlas = sphere_atlas(order=16)
    # global angular 1-form: i(x dy - y dx)/(1+r^2)^2, same formula both charts
    comps = {}
    for name, chart in atlas.charts.items():
        x, y = chart.coords()
        denom = (1.0 + x * x + y * y) ** 2
        comps[name] = {(0,): -1j * y / denom, (1,): 1j * x / denom}
    form = FormField(atlas, 1, comps)
    assert form.overlap_residual() < 1e-8


# ---------------------------------------------------------------- connections

def test_flat_connection_zero_curvature():
    atlas = flat_pair_atlas(order=12, panels=3)
    forms = {name: [np.zeros(chart.shape + (1, 1), dtype=complex)
                    for _ in range(2)]
             for name, chart in atlas.charts.items()}
    ident = {key: (lambda x, y: np.ones(x.shape + (1, 1), dtype=complex))
             for key in atlas.overlaps}
    conn = ModuleConnection(atlas, 1, forms, ident)
    assert conn.gluing_residual() < 1e-12
    f = curvature(conn)
    for name in atlas.charts:
        assert np.max(np.abs(f.comps[name][(0, 1)])) < 1e-10


def test_phase_gauge_gluing():
    atlas = flat_pair_atlas(order=16, panels=4)

    def theta(x):
        return np.sin(np.pi * x / 3.0)

    def theta_prime(x):
        return np.pi / 3.0 * np.cos(np.pi * x / 3.0)

    forms = {}
    for name, chart in atlas.charts.items():
        x, y = chart.coords()
        ax = np.zeros(chart.shape + (1, 1), dtype=complex)
        if name == "left":
            ax[..., 0, 0] = -1j * theta_prime(x)
        forms[name] = [ax, np.zeros(chart.shape + (1, 1), dtype=complex)]

    transitions = {
        ("left", "right"): lambda x, y: np.exp(1j * theta(x))[..., None, None],
        ("right", "left"): lambda x, y: np.exp(-1j * theta(x))[..., None, None],
    }
    conn = ModuleConnection(atlas, 1, forms, transitions)
    assert conn.gluing_residual() < 1e-8
    f = curvature(conn)
    for name in atlas.charts:
        assert np.max(np.abs(f.comps[name][(0, 1)])) < 1e-8


def test_connection_rejects_bad_gluing():
    atlas = flat_pair_atlas(order=12, panels=3)
    forms = {}
    for name, chart in atlas.charts.items():
        x, y = chart.coords()
        ax = np.zeros(chart.shape + (1, 1), dtype=complex)
        if name == "left":
            ax[..., 0, 0] = 1j * x  # no matching gauge term on the right chart
        forms[name] = [ax, np.zeros(chart.shape + (1, 1), dtype=complex)]
    ident = {key: (lambda x, y: np.ones(x.shape + (1, 1), dtype=complex))
             for key in atlas.overlaps}
    with pytest.raises(ValueError):
        ModuleConnection(atlas, 1, forms, ident)


def loose_strip_connection(left_ax):
    """Identity-glued strip connection with A_x = left_ax on the left chart only,
    accepted under a loose gluing tolerance."""
    atlas = flat_pair_atlas(order=12, panels=3)
    forms = {}
    for name, chart in atlas.charts.items():
        x, y = chart.coords()
        ax = np.zeros(chart.shape + (1, 1), dtype=complex)
        if name == "left":
            ax[..., 0, 0] = left_ax(x, y)
        forms[name] = [ax, np.zeros(chart.shape + (1, 1), dtype=complex)]
    ident = {key: (lambda x, y: np.ones(x.shape + (1, 1), dtype=complex))
             for key in atlas.overlaps}
    return ModuleConnection(atlas, 1, forms, ident, tol=10.0)


def test_curvature_rejects_a_field_that_does_not_descend():
    conn = loose_strip_connection(lambda x, y: 1j * x * y)
    assert conn.gluing_residual() > 1.0
    with pytest.raises(ValueError, match="curvature fails to descend"):
        curvature(conn)


def test_connection_difference_rejects_a_form_that_does_not_glue():
    flat = loose_strip_connection(lambda x, y: 0.0 * x)
    shifted = ModuleConnection(
        flat.atlas, 1,
        {name: [forms[0] + (1j if name == "left" else 0.0), forms[1]]
         for name, forms in flat.forms.items()},
        flat.transitions, tol=10.0)
    with pytest.raises(ValueError, match="does not glue by conjugation"):
        connection_difference(shifted, flat)


def test_non_abelian_constant_transition_glues_by_conjugation():
    atlas = flat_pair_atlas(order=12, panels=3)
    u = np.array([[0.6, -0.8j], [-0.8j, 0.6]])

    def right_forms(x, y):
        ax = np.zeros(x.shape + (2, 2), dtype=complex)
        ay = np.zeros(x.shape + (2, 2), dtype=complex)
        ax[..., 0, 0], ax[..., 1, 1] = 1j * x, -1j * y
        ax[..., 0, 1], ax[..., 1, 0] = x * y, -x * y
        ay[..., 0, 1] = ay[..., 1, 0] = 1j * np.sin(x)
        return [ax, ay]

    forms = {"right": right_forms(*atlas.charts["right"].coords()),
             "left": [u @ a @ u.conj().T
                      for a in right_forms(*atlas.charts["left"].coords())]}
    transitions = {
        ("left", "right"): lambda x, y: np.broadcast_to(u, x.shape + (2, 2)),
        ("right", "left"): lambda x, y: np.broadcast_to(u.conj().T,
                                                        x.shape + (2, 2)),
    }
    conn = ModuleConnection(atlas, 2, forms, transitions)
    assert conn.gluing_residual() < 1e-10
    f = curvature(conn)
    assert np.abs(f.comps["left"][(0, 1)]).max() > 0.1


def test_each_overlap_is_sampled_once_for_every_check():
    atlas = sphere_atlas(order=16)
    calls = []
    for overlap in {id(o): o for o in atlas.overlaps.values()}.values():
        def counted(*coords, _mask=overlap.mask):
            calls.append(1)
            return _mask(*coords)
        overlap.mask = counted
    conn = monopole_connection(atlas, 2)
    assert len(calls) == len(atlas.overlaps)
    for _ in range(2):
        assert conn.gluing_residual() < 1e-8
        assert curvature(conn).trace().overlap_residual() < 1e-8
        assert area_form(atlas).overlap_residual() < 1e-8
    assert len(calls) == len(atlas.overlaps)


def test_connection_rejects_non_antihermitian():
    atlas = single_chart_atlas(order=6, panels=2)
    chart = atlas.charts["main"]
    forms = {"main": [np.ones(chart.shape + (1, 1), dtype=complex),
                      np.zeros(chart.shape + (1, 1), dtype=complex)]}
    with pytest.raises(ValueError):
        ModuleConnection(atlas, 1, forms, {})


def test_nan_fails_the_geometry_checks(monkeypatch):
    atlas = sphere_atlas(order=16)
    clean = monopole_connection(atlas, 1)
    sample = atlas.overlap_sample("north", "south")
    node = np.unravel_index(sample.idx[0], atlas.charts["north"].shape)
    forms = {name: [arr.copy() for arr in arrs] for name, arrs in clean.forms.items()}
    forms["north"][0][node] = np.nan
    with pytest.raises(ValueError, match=r"'north' is not anti-Hermitian \(residual nan\)"):
        ModuleConnection(atlas, 1, forms, clean.transitions)
    # a NaN written after construction reaches the descent checks
    broken = monopole_connection(atlas, 1)
    broken.forms["north"][0][node] = np.nan
    assert np.isnan(broken.gluing_residual())
    with pytest.raises(ValueError, match=r"fails to descend: overlap residual nan"):
        curvature(broken)
    same = ModuleConnection(atlas, 1, clean.forms, broken.transitions)
    with pytest.raises(ValueError, match=r"does not glue by conjugation: residual nan"):
        connection_difference(broken, same)
    monkeypatch.setattr(ModuleConnection, "gluing_residual", lambda self: np.nan)
    with pytest.raises(ValueError, match=r"connection gluing residual nan exceeds"):
        ModuleConnection(atlas, 1, clean.forms, clean.transitions)


@pytest.mark.parametrize("m", [-2, -1, 1, 3])
def test_monopole_curvature_closed_form(m):
    atlas = sphere_atlas(order=16)
    conn = monopole_connection(atlas, m)
    assert conn.gluing_residual() < 1e-8
    f = curvature(conn)
    for name, chart in atlas.charts.items():
        x, y = chart.coords()
        lam2 = (2.0 / (1.0 + x * x + y * y)) ** 2
        sign = 1.0 if name == "north" else -1.0
        expect = sign * (-0.5j * m) * lam2
        assert f.comps[name][(0, 1)][..., 0, 0] == pytest.approx(expect, abs=1e-8)


def test_rank_one_curvature_is_bitwise_the_exterior_derivative():
    sphere = SphereBenchmark(order=16)
    for conn in (sphere.monopole_connection(3),
                 perturbed_connection(sphere.monopole_connection(1),
                                      sphere.perturbation_form(1, 5))):
        f = curvature(conn)
        for name, chart in sphere.atlas.charts.items():
            a_x, a_y = conn.forms[name]
            d_a = chart.differentiate(a_y, 0) - chart.differentiate(a_x, 1)
            assert f.comps[name][(0, 1)].tobytes() == d_a.tobytes()


@pytest.mark.parametrize("m", [-3, -1, 0, 2])
def test_monopole_first_chern_number(m):
    atlas = sphere_atlas(order=32)
    conn = monopole_connection(atlas, m)
    f = curvature(conn)
    integrand = (1j / (2.0 * np.pi)) * f.trace()
    assert integrate_top(integrand) == pytest.approx(m, abs=1e-6)


def test_connection_difference_global_form():
    atlas = sphere_atlas(order=16)
    c1 = monopole_connection(atlas, 1)
    # same transitions, shifted by the global 1-form i(x dy - y dx)/(1+r^2)^2
    forms = {}
    for name, chart in atlas.charts.items():
        x, y = chart.coords()
        denom = (1.0 + x * x + y * y) ** 2
        base = c1.forms[name]
        forms[name] = [base[0] + (-1j * y / denom)[..., None, None],
                       base[1] + (1j * x / denom)[..., None, None]]
    c2 = ModuleConnection(atlas, 1, forms, c1.transitions)
    diff = connection_difference(c2, c1)
    assert diff.degree == 1
    for name, chart in atlas.charts.items():
        x, y = chart.coords()
        denom = (1.0 + x * x + y * y) ** 2
        assert diff.comps[name][(0,)][..., 0, 0] == pytest.approx(
            -1j * y / denom, abs=1e-10)
        assert diff.comps[name][(1,)][..., 0, 0] == pytest.approx(
            1j * x / denom, abs=1e-10)


def test_connection_difference_requires_same_module():
    atlas = sphere_atlas(order=16)
    c1 = monopole_connection(atlas, 1)
    # other transitions, then equal transitions given by other callables
    for c2 in (monopole_connection(atlas, 2), monopole_connection(atlas, 1)):
        with pytest.raises(ValueError, match="requires the same module"):
            connection_difference(c1, c2)


def test_connection_difference_accepts_a_perturbed_connection(sphere_bench):
    base = sphere_bench.monopole_connection(-1)
    shifted = perturbed_connection(
        base, sphere_bench.perturbation_form(base.rank, seed=2))
    assert shifted.transitions == base.transitions
    diff = connection_difference(shifted, base)
    assert diff.rank == 1 and diff.overlap_residual() < 1e-8


@pytest.mark.parametrize("rank", [0, -1, 1.5, "1", True])
def test_connection_rank_must_be_a_positive_integer(rank):
    atlas = single_chart_atlas(order=4, panels=1)
    chart = atlas.charts["main"]
    forms = {"main": [np.zeros(chart.shape + (1, 1), dtype=complex)] * 2}
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        ModuleConnection(atlas, rank, forms, {})


def test_connection_rank_is_stored_as_an_int():
    atlas = single_chart_atlas(order=4, panels=1)
    chart = atlas.charts["main"]
    forms = {"main": [np.zeros(chart.shape + (2, 2), dtype=complex)] * 2}
    conn = ModuleConnection(atlas, np.int64(2), forms, {})
    assert conn.rank == 2 and type(conn.rank) is int
    assert not hasattr(conn, "module")


def test_curvature_change_identity():
    # F' - F = da + A^a + a^A + a^a for A' = A + a
    atlas = sphere_atlas(order=16)
    c1 = monopole_connection(atlas, 2)
    forms = {}
    a_comps = {}
    for name, chart in atlas.charts.items():
        x, y = chart.coords()
        denom = (1.0 + x * x + y * y) ** 2
        ax = (-2j * y / denom)[..., None, None]
        ay = (2j * x / denom)[..., None, None]
        a_comps[name] = {(0,): ax, (1,): ay}
        base = c1.forms[name]
        forms[name] = [base[0] + ax, base[1] + ay]
    c2 = ModuleConnection(atlas, 1, forms, c1.transitions)
    a = FormField(atlas, 1, a_comps, rank=1)
    lhs = curvature(c2) - curvature(c1)
    rhs = exterior_derivative(a)
    for name in atlas.charts:
        assert lhs.comps[name][(0, 1)] == pytest.approx(
            rhs.comps[name][(0, 1)], abs=1e-7)


def test_tensor_connection_curvature_additivity():
    atlas = sphere_atlas(order=16)
    c1 = monopole_connection(atlas, 1)
    c2 = monopole_connection(atlas, 2)
    both = tensor_connection(c1, c2)
    assert both.rank == 1
    f = curvature(both)
    f1 = curvature(c1)
    f2 = curvature(c2)
    for name in atlas.charts:
        expect = f1.comps[name][(0, 1)] + f2.comps[name][(0, 1)]
        assert np.max(np.abs(f.comps[name][(0, 1)] - expect)) < 1e-8


def test_tensor_connection_total_chern_number():
    atlas = sphere_atlas(order=32)
    c1 = monopole_connection(atlas, 1)
    c2 = monopole_connection(atlas, 2)
    both = tensor_connection(c1, c2)
    integrand = (1j / (2.0 * np.pi)) * curvature(both).trace()
    assert integrate_top(integrand) == pytest.approx(3.0, abs=1e-6)


def test_tensor_connection_rank2_case():
    atlas = flat_pair_atlas(order=12, panels=3)
    rng = np.random.default_rng(17)
    q = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q = 0.5 * (q - q.conj().T)

    forms2 = {}
    for name, chart in atlas.charts.items():
        x, _ = chart.coords()
        ax = np.zeros(chart.shape + (2, 2), dtype=complex)
        ay = np.sin(x)[..., None, None] * q
        forms2[name] = [ax, ay]
    ident2 = {key: (lambda x, y: np.broadcast_to(
        np.eye(2, dtype=complex), x.shape + (2, 2)))
        for key in atlas.overlaps}
    c2 = ModuleConnection(atlas, 2, forms2, ident2)

    c1 = ModuleConnection(
        atlas, 1,
        {name: [np.zeros(chart.shape + (1, 1), dtype=complex) for _ in range(2)]
         for name, chart in atlas.charts.items()},
        {key: (lambda x, y: np.ones(x.shape + (1, 1), dtype=complex))
         for key in atlas.overlaps})

    both = tensor_connection(c1, c2)
    assert both.rank == 2
    f = curvature(both)
    f2 = curvature(c2)
    for name in atlas.charts:
        assert np.max(np.abs(f.comps[name][(0, 1)]
                             - f2.comps[name][(0, 1)])) < 1e-8


def test_tensor_connection_requires_same_atlas():
    a1 = sphere_atlas(order=16)
    a2 = sphere_atlas(order=16)
    c1 = monopole_connection(a1, 1)
    c2 = monopole_connection(a2, 1)
    with pytest.raises(ValueError):
        tensor_connection(c1, c2)


def test_integrate_top_rejects_degree_mismatch():
    atlas = single_chart_atlas(order=4, panels=1)
    x, y = atlas.charts["main"].coords()
    form = FormField(atlas, 1, {"main": {(0,): x, (1,): y}})
    with pytest.raises(ValueError):
        integrate_top(form)


def test_integrate_top_rejects_matrix_valued():
    atlas = single_chart_atlas(order=4, panels=1)
    chart = atlas.charts["main"]
    comp = np.zeros(chart.shape + (2, 2), dtype=complex)
    form = FormField(atlas, 2, {"main": {(0, 1): comp}}, rank=2)
    with pytest.raises(TypeError):
        integrate_top(form)


# ------------------------------------------- cached transitions, real products

@pytest.fixture(scope="module")
def sphere_bench():
    return SphereBenchmark()


def gluing_comps(conn):
    return {cname: {(axis,): arr for axis, arr in enumerate(forms)}
            for cname, forms in conn.forms.items()}


def assert_descent_matches_oracle(atlas, degree, comps, conn=None,
                                  shifted=False):
    new = geometry._descent_residual(atlas, degree, comps, conn, shifted)
    old = descent_residual(atlas, degree, comps, conn, shifted)
    assert abs(new - old) <= 1e-14 * max(1.0, old)
    return new


def assert_connection_matches_oracle(conn):
    assert_descent_matches_oracle(conn.atlas, 1, gluing_comps(conn), conn,
                                  shifted=True)
    field = curvature(conn, tol=np.inf)
    assert_descent_matches_oracle(conn.atlas, 2, field.comps, conn)


@pytest.mark.parametrize("m", range(-3, 4))
def test_monopole_descent_matches_the_whole_grid_oracle(sphere_bench, m):
    assert_connection_matches_oracle(sphere_bench.monopole_connection(m))


def test_spin_descent_matches_the_whole_grid_oracle(sphere_bench):
    assert_connection_matches_oracle(sphere_bench.spin_connection())


@pytest.mark.parametrize("m", [-2, 0, 3])
def test_twisted_descent_matches_the_whole_grid_oracle(sphere_bench, m):
    assert_connection_matches_oracle(sphere_bench.twisted_connection(m))


def test_perturbed_descent_and_difference_match_the_oracle(sphere_bench):
    base = sphere_bench.twisted_connection(1)
    shifted = perturbed_connection(
        base, sphere_bench.perturbation_form(base.rank, seed=3))
    assert_connection_matches_oracle(shifted)
    diff = connection_difference(shifted, base)
    assert assert_descent_matches_oracle(
        base.atlas, 1, diff.comps, shifted) < 1e-8


def test_non_gluing_descent_matches_the_oracle():
    conn = loose_strip_connection(lambda x, y: 1j * x * y)
    gluing = assert_descent_matches_oracle(
        conn.atlas, 1, gluing_comps(conn), conn, shifted=True)
    assert gluing == conn.gluing_residual() > 1.0
    field = curvature(conn, tol=np.inf)
    assert assert_descent_matches_oracle(conn.atlas, 2, field.comps, conn) > 0.1
    flat = loose_strip_connection(lambda x, y: 0.0 * x)
    shifted = ModuleConnection(
        flat.atlas, 1,
        {name: [forms[0] + (1j if name == "left" else 0.0), forms[1]]
         for name, forms in flat.forms.items()},
        flat.transitions, tol=10.0)
    diff = connection_difference(shifted, flat, tol=np.inf)
    assert assert_descent_matches_oracle(
        flat.atlas, 1, diff.comps, shifted) == pytest.approx(1.0)


def counting(fn, calls):
    def counted(*coords):
        calls.append(fn)
        return fn(*coords)
    return counted


def test_each_transition_is_evaluated_once_per_overlap():
    bench = SphereBenchmark(order=16)
    base = bench.monopole_connection(2)
    calls = []
    counted = {key: counting(fn, calls) for key, fn in base.transitions.items()}
    conn = ModuleConnection(bench.atlas, base.rank, base.forms, counted)
    assert len(calls) == len(bench.atlas.overlaps)
    shifted = perturbed_connection(conn, bench.perturbation_form(1, seed=5))
    assert conn.gluing_residual() < 1e-8 and shifted.gluing_residual() < 1e-8
    curvature(conn)
    curvature(shifted)
    connection_difference(shifted, conn)
    assert len(calls) == len(bench.atlas.overlaps)


def test_wrong_shape_transition_is_rejected_on_every_construction():
    atlas = flat_pair_atlas(order=8, panels=2)
    forms = {name: [np.zeros(chart.shape + (1, 1), dtype=complex)] * 2
             for name, chart in atlas.charts.items()}
    calls = []

    def wrong(x, y):
        calls.append(1)
        return np.ones(x.shape + (2, 2), dtype=complex)

    for attempt in (1, 2):
        with pytest.raises(ValueError, match=r"\('left', 'right'\) has wrong shape"):
            ModuleConnection(atlas, 1, forms,
                             {key: wrong for key in atlas.overlaps})
        assert len(calls) == attempt
    assert wrong not in atlas.overlap_sample("left", "right")._transitions


def test_a_failing_transition_is_never_cached():
    atlas = flat_pair_atlas(order=8, panels=2)
    forms = {name: [np.zeros(chart.shape + (1, 1), dtype=complex)] * 2
             for name, chart in atlas.charts.items()}
    calls = []

    def flaky(x, y):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("transition failed")
        return np.ones(x.shape + (1, 1), dtype=complex)

    transitions = {key: flaky for key in atlas.overlaps}
    sample = atlas.overlap_sample("left", "right")
    with pytest.raises(RuntimeError, match="transition failed"):
        ModuleConnection(atlas, 1, forms, transitions)
    assert flaky not in sample._transitions
    conn = ModuleConnection(atlas, 1, forms, transitions)
    assert len(calls) == 1 + len(atlas.overlaps)
    assert conn.gluing_residual() < 1e-12
    assert flaky in sample._transitions


def test_a_transition_without_weak_references_is_evaluated_every_time():
    class Identity:
        __slots__ = ("calls",)

        def __call__(self, x, y):
            self.calls += 1
            return np.ones(x.shape + (1, 1), dtype=complex)

    fn = Identity()
    fn.calls = 0
    conn = loose_strip_connection(lambda x, y: 0.0 * x)
    conn = ModuleConnection(conn.atlas, conn.rank, conn.forms,
                            {key: fn for key in conn.atlas.overlaps})
    assert fn.calls == len(conn.atlas.overlaps)
    assert conn.gluing_residual() < 1e-12
    assert fn.calls == 2 * len(conn.atlas.overlaps)


def test_cached_transitions_die_with_their_connection():
    atlas = sphere_atlas(order=16)
    conn = monopole_connection(atlas, 1)
    caches = {key: atlas.overlap_sample(*key)._transitions
              for key in atlas.overlaps}
    assert all(conn.transitions[key] in cache for key, cache in caches.items())
    refs = [weakref.ref(fn) for fn in conn.transitions.values()]
    del conn
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert all(len(cache) == 0 for cache in caches.values())


def test_cached_transition_values_are_read_only():
    atlas = sphere_atlas(order=16)
    conn = monopole_connection(atlas, 1)
    phi, dphi = atlas.overlap_sample("north", "south").transition(
        conn.transitions[("north", "south")], 1)
    for arr in (phi,) + dphi:
        with pytest.raises(ValueError):
            arr[...] = 0.0


def complex_product(matrix, values):
    """The product NumPy forms by promoting the real matrix to complex."""
    return np.matmul(matrix.astype(complex), values)


def assert_relative(out, expect):
    assert out.shape == expect.shape and out.dtype == expect.dtype
    scale = max(np.abs(expect).max(), 1.0)
    assert np.abs(out - expect).max() <= 1e-14 * scale


def test_real_product_matches_the_complex_product():
    rng = np.random.default_rng(23)
    matrix = rng.standard_normal((5, 7))
    wide = rng.standard_normal((7, 12)) + 1j * rng.standard_normal((7, 12))
    inputs = [wide, wide[:, ::2], np.moveaxis(wide.reshape(7, 3, 4), 1, 2)
              .reshape(7, 12), wide.T.copy().T, wide.real]
    for values in inputs:
        expect = (np.matmul(matrix, values) if values.dtype.kind == "f"
                  else complex_product(matrix, values))
        assert_relative(geometry._real_product(matrix, values), expect)
    stacked = rng.standard_normal((4, 1, 7))
    values = rng.standard_normal((4, 7, 6)) + 1j * rng.standard_normal((4, 7, 6))
    assert_relative(geometry._real_product(stacked, values),
                    complex_product(stacked, values))


def grid_fields(chart, seed):
    """Scalar and rank-2 complex, real, moveaxis-view and sliced grid data."""
    rng = np.random.default_rng(seed)
    shape = chart.shape
    scalar = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    matrix = (rng.standard_normal(shape + (2, 2))
              + 1j * rng.standard_normal(shape + (2, 2)))
    leading = np.ascontiguousarray(np.moveaxis(matrix, (-2, -1), (0, 1)))
    wide = rng.standard_normal(shape[:-1] + (2 * shape[-1],)) * (1 + 2j)
    return {"scalar": scalar, "rank2": matrix, "real": scalar.real,
            "moveaxis": np.moveaxis(leading, (0, 1), (-2, -1)),
            "slice": wide[..., ::2]}


FIELDS = ["scalar", "rank2", "real", "moveaxis", "slice"]


@pytest.mark.parametrize("field", FIELDS)
def test_real_products_at_both_call_sites_match_complex_products(
        field, monkeypatch):
    """Differentiation along each axis, against NumPy's complex product.

    The interpolation plan makes its own products; its oracle is the
    per-point test below."""
    chart = Chart("c", (0.0, -1.0), (1.0, 2.0), 1, order=7, panels=3)
    values = grid_fields(chart, seed=29)[field]
    out = [chart.differentiate(values, 0), chart.differentiate(values, 1)]
    monkeypatch.setattr(geometry, "_real_product", complex_product)
    values = values.astype(complex)
    expect = [chart.differentiate(values, 0), chart.differentiate(values, 1)]
    for got, want in zip(out, expect):
        assert_relative(got, want.real if field == "real" else want)


def cell_plan_oracle(chart, values, points):
    """b0^T . V[cell] . b1 one point at a time, in the values' own dtype."""
    out = []
    for point in points:
        block, bases = [], []
        for k, ax in enumerate(chart.axes):
            panel, basis = ax.locate(point[k:k + 1])
            block.append(slice(panel[0] * ax.order, (panel[0] + 1) * ax.order))
            bases.append(basis[0])
        local = values[tuple(block)]
        for basis in bases:
            local = np.tensordot(basis, local, axes=(0, 0))
        out.append(local)
    return np.stack(out)


def shuffled_cell_points(chart, seed):
    """Probe points plus one random point in every panel cell, shuffled."""
    rng = np.random.default_rng(seed)
    edges = [ax.panel_edges for ax in chart.axes]
    cells = np.stack(np.meshgrid(*(np.arange(ax.panels) for ax in chart.axes),
                                 indexing="ij"), axis=-1).reshape(-1, chart.dim)
    inner = np.stack([e[c] + rng.uniform(0.1, 0.9, len(c)) * (e[1] - e[0])
                      for e, c in zip(edges, cells.T)], axis=-1)
    points = np.concatenate([inner, probe_points(chart, seed)])
    return points[rng.permutation(len(points))]


@pytest.mark.parametrize("lo, hi", BOXES)
@pytest.mark.parametrize("field", FIELDS)
def test_cell_plan_matches_the_per_point_oracle(lo, hi, field):
    chart = Chart("c", lo, hi, 1, order=7, panels=3)
    values = grid_fields(chart, seed=29)[field]
    points = shuffled_cell_points(chart, seed=31)
    plan = _CellPlan(chart, points)
    assert len(plan.spans) == 3 ** chart.dim
    for k, ax in enumerate(chart.axes):
        assert set(points[:, k]) >= {ax.lo, ax.hi} | set(ax.panel_edges[1:-1])
    assert_relative(plan(values), cell_plan_oracle(chart, values, points))
