"""Oracle tests for the benchmark manifold registry and the exact symbolic ring."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from oracles import (area_form, clifford_of_curvature, flat_volume_form, fubini_study_metric,
                     represent, volume_check)
from gerbedex import cech
from gerbedex.clifford import spinor_rep
from gerbedex.geometry import FormField, connection_difference, curvature, integrate_top
from gerbedex.gerbe import lift_transitions, spin_module, verify_module
from gerbedex.registry import (
    ProjectivePlaneBenchmark,
    SphereBenchmark,
    TorusBenchmark,
    benchmark_registry,
    perturbed_connection,
    sphere_frame_transitions,
)
from gerbedex.symbolic import RingElement

TWO_PI_I = 2.0j * np.pi


@pytest.fixture(scope="module")
def sphere():
    return SphereBenchmark()


@pytest.fixture(scope="module")
def torus():
    return TorusBenchmark()


@pytest.fixture(scope="module")
def proj():
    return ProjectivePlaneBenchmark()


def loop_winding(mats):
    """Winding number of an SO(2) sample loop, uniform angles assumed."""
    ang = np.unwrap(np.arctan2(mats[:, 1, 0], mats[:, 0, 0]))
    count = len(ang)
    total = (ang[-1] - ang[0]) * count / (count - 1.0)
    return total / (2.0 * np.pi)


# ---------------------------------------------------------------- symbolic ring


def test_ring_constant_generator_and_coefficients():
    one = RingElement.constant(2, 1)
    x = RingElement.generator(2)
    assert one.coefficient(0) == 1 and one.coefficient(1) == 0
    assert x.coefficient(1) == 1 and x.coefficient(2) == 0
    assert x.coefficient(5) == 0
    assert (x * x).coefficient(2) == 1


def test_ring_truncation_relation():
    x = RingElement.generator(2)
    assert x ** 3 == RingElement(2)
    cube = (RingElement.constant(2, 1) + x) ** 3
    assert cube.coeffs == (Fraction(1), Fraction(3), Fraction(3))


def test_ring_exp_exact_coefficients():
    x = RingElement.generator(2)
    e = (x * Fraction(3, 2)).exp()
    assert e.coeffs == (Fraction(1), Fraction(3, 2), Fraction(9, 8))


def test_ring_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        RingElement.constant(2, 1).exp()


def test_ring_scalar_rules_and_mismatch():
    x = RingElement.generator(2)
    assert (2 * x).coefficient(1) == 2
    assert (x * Fraction(1, 3)).coefficient(1) == Fraction(1, 3)
    with pytest.raises(TypeError):
        x * 0.5
    with pytest.raises(ValueError):
        x + RingElement.generator(3)
    assert (1 - x).coefficient(0) == 1


# ----------------------------------------------------------------- dispatching


def test_registry_dispatch_and_unknown():
    assert benchmark_registry("T2").name == "T2"
    assert benchmark_registry("CP2").dim == 4
    small = benchmark_registry("S2", order=8)
    assert small.atlas.charts["north"].order == 8
    with pytest.raises(ValueError):
        benchmark_registry("K3")


# ---------------------------------------------------------------------- sphere


def test_sphere_identity(sphere):
    assert sphere.name == "S2" and sphere.dim == 2
    assert set(sphere.atlas.charts) == {"north", "south"}
    assert sphere.atlas.charts["north"].orientation == 1
    assert sphere.atlas.charts["south"].orientation == -1


def test_sphere_area(sphere):
    total = integrate_top(area_form(sphere.atlas))
    assert abs(total - 4.0 * np.pi) < 1e-8


def test_sphere_gauss_bonnet(sphere):
    field = sphere.tangent_curvature()
    comps = {c: {(0, 1): field.comps[c][(0, 1)][..., 0, 1]}
             for c in field.comps}
    scalar = FormField(sphere.atlas, 2, comps)
    euler = integrate_top(scalar) / (2.0 * np.pi)
    assert abs(euler - 2.0) < 1e-7


def test_sphere_tangent_curvature_structure(sphere):
    field = sphere.tangent_curvature()
    assert field.degree == 2 and field.rank == 2
    for cname, chart in sphere.atlas.charts.items():
        x, y = chart.coords()
        lam2 = (2.0 / (1.0 + x * x + y * y)) ** 2
        kappa = lam2 if cname == "north" else -lam2
        mat = field.comps[cname][(0, 1)]
        assert np.max(np.abs(mat[..., 0, 1] - kappa)) < 1e-12
        assert np.max(np.abs(mat[..., 1, 0] + kappa)) < 1e-12
        assert np.max(np.abs(mat[..., 0, 0])) == 0.0
        assert np.max(np.abs(mat[..., 1, 1])) == 0.0
    assert field.overlap_residual() < 1e-6


def test_frame_data_validates_with_exact_cocycle():
    data = sphere_frame_transitions()
    data.validate()
    assert set(data.edges) == {(0, 1), (0, 2), (1, 2)}
    for edge in data.edges:
        assert data.edges[edge].count == 64
    g_nb = data.edges[(0, 1)].matrices
    g_bs = data.edges[(1, 2)].matrices
    g_ns = data.edges[(0, 2)].matrices
    defect = np.einsum("kab,kbc->kac", g_nb, g_bs) - g_ns
    assert np.max(np.abs(defect)) < 1e-12


def test_frame_windings():
    data = sphere_frame_transitions()
    for edge, expected in (((0, 2), -2), ((0, 1), -1), ((1, 2), -1)):
        w = loop_winding(data.edges[edge].matrices)
        assert abs(w - expected) < 1e-6


def test_frame_gerbe_default_lift():
    lifted, cocycle = lift_transitions(sphere_frame_transitions())
    assert cocycle.cochain.values == (0,)
    assert cocycle.trivial
    check = verify_module(spin_module(lifted), cocycle)
    assert check.ok and check.max_residual < 1e-9


def test_frame_gerbe_randomized_class_invariance():
    data = sphere_frame_transitions()
    base = lift_transitions(data)[1]
    edges = list(data.edges)
    rng = np.random.default_rng(2026)
    for _ in range(10):
        flips = [e for e in edges if rng.random() < 0.5]
        bps = {e: int(rng.integers(0, 64)) for e in edges}
        cocycle = lift_transitions(data, seed=int(rng.integers(1 << 30)),
                                   sign_flips=flips, basepoints=bps)[1]
        diff = cech.Cochain(2, 2, tuple(
            (a - b) % 2 for a, b in zip(cocycle.cochain.values,
                                        base.cochain.values)))
        assert cech.solve_coboundary(diff, data.nerve) is not None
        assert cocycle.trivial


def test_spin_connection_blocks_match_monopoles(sphere):
    spin = sphere.spin_connection()
    plus = sphere.monopole_connection(-1)
    minus = sphere.monopole_connection(1)
    for cname in ("north", "south"):
        for axis in range(2):
            a_spin = spin.forms[cname][axis]
            assert np.max(np.abs(a_spin[..., 0, 0]
                                 - plus.forms[cname][axis][..., 0, 0])) < 1e-13
            assert np.max(np.abs(a_spin[..., 1, 1]
                                 - minus.forms[cname][axis][..., 0, 0])) < 1e-13
            assert np.max(np.abs(a_spin[..., 0, 1])) == 0.0
            assert np.max(np.abs(a_spin[..., 1, 0])) == 0.0
    assert spin.gluing_residual() < 1e-6


def test_spin_curvature_equals_clifford_of_tangent(sphere):
    f_spin = curvature(sphere.spin_connection())
    r_field = sphere.tangent_curvature()
    rep = spinor_rep(2)
    rng = np.random.default_rng(11)
    for cname, chart in sphere.atlas.charts.items():
        kappa = r_field.comps[cname][(0, 1)][..., 0, 1]
        expected = np.zeros(chart.shape + (2, 2), dtype=complex)
        expected[..., 0, 0] = -0.5j * kappa
        expected[..., 1, 1] = 0.5j * kappa
        assert np.max(np.abs(f_spin.comps[cname][(0, 1)] - expected)) < 1e-9
        flat = np.ravel_multi_index(
            (rng.integers(0, chart.shape[0], 5), rng.integers(0, chart.shape[1], 5)),
            chart.shape)
        for idx in flat:
            i, j = np.unravel_index(idx, chart.shape)
            k = float(kappa[i, j])
            c_of_r = represent(clifford_of_curvature([[0.0, k], [-k, 0.0]]), rep)
            assert np.max(np.abs(f_spin.comps[cname][(0, 1)][i, j] - c_of_r)) < 1e-10


@pytest.mark.parametrize("m", [-3, -1, 1, 2])
def test_monopole_connection_frozen_forms(sphere, m):
    conn = sphere.monopole_connection(m)
    xn, yn = sphere.atlas.charts["north"].coords()
    rn = 1.0 + xn * xn + yn * yn
    assert np.max(np.abs(conn.forms["north"][0][..., 0, 0] + 1j * m * yn / rn)) < 1e-13
    assert np.max(np.abs(conn.forms["north"][1][..., 0, 0] - 1j * m * xn / rn)) < 1e-13
    us, vs = sphere.atlas.charts["south"].coords()
    rs = 1.0 + us * us + vs * vs
    assert np.max(np.abs(conn.forms["south"][0][..., 0, 0] - 1j * m * vs / rs)) < 1e-13
    assert np.max(np.abs(conn.forms["south"][1][..., 0, 0] + 1j * m * us / rs)) < 1e-13
    field = curvature(conn)
    lam2 = (2.0 / rn) ** 2
    north = field.comps["north"][(0, 1)][..., 0, 0]
    assert np.max(np.abs(north - 0.5j * m * lam2)) < 1e-9
    theta = np.linspace(0.0, 2.0 * np.pi, 9)[:-1]
    phi = conn.transitions[("north", "south")](np.cos(theta), np.sin(theta))
    assert np.max(np.abs(phi[..., 0, 0] - np.exp(-1j * m * theta))) < 1e-12


@pytest.mark.parametrize("m", range(-3, 4))
def test_monopole_chern_integral(sphere, m):
    field = curvature(sphere.monopole_connection(m))
    total = integrate_top(field.trace()) / TWO_PI_I
    assert abs(total - m) < 1e-6


@pytest.mark.parametrize("m", [-2, 1])
def test_twisted_connection_sum_formula(sphere, m):
    twisted = sphere.twisted_connection(m)
    assert twisted.rank == 2
    f_t = curvature(twisted)
    f_s = curvature(sphere.spin_connection())
    f_m = curvature(sphere.monopole_connection(m))
    for cname in ("north", "south"):
        expected = (f_s.comps[cname][(0, 1)]
                    + f_m.comps[cname][(0, 1)][..., 0, 0, None, None]
                    * np.eye(2))
        assert np.max(np.abs(f_t.comps[cname][(0, 1)] - expected)) < 1e-8


def test_perturbation_form_properties(sphere):
    pert = sphere.perturbation_form(rank=2, seed=7)
    assert pert.degree == 1 and pert.rank == 2
    for cname in ("north", "south"):
        for key in ((0,), (1,)):
            arr = pert.comps[cname][key]
            assert np.max(np.abs(arr + arr.conj().swapaxes(-1, -2))) < 1e-15
            assert np.max(np.abs(arr[..., 0, 1])) == 0.0
            assert np.max(np.abs(arr[..., 1, 0])) == 0.0
    other = sphere.perturbation_form(rank=2, seed=8)
    delta = max(np.max(np.abs(pert.comps["north"][k] - other.comps["north"][k]))
                for k in ((0,), (1,)))
    assert delta > 1e-4


def reference_perturbation_comps(sphere, rank, seed):
    """perturbation_form's coefficients with each weight summed once per axis."""
    coeff = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(4, rank))
    comps = {}
    for cname, chart in sphere.atlas.charts.items():
        a, b = chart.coords()
        rho = a * a + b * b
        height = (1.0 - rho) / (1.0 + rho)
        if cname == "south":
            height = -height
        scalars = [np.ones_like(a), height,
                   2.0 * a / (1.0 + rho), 2.0 * b / (1.0 + rho)]
        denom = (1.0 + rho) ** 2
        base = [-b / denom, a / denom]
        entry = {}
        for axis in range(2):
            arr = np.zeros(chart.shape + (rank, rank), dtype=complex)
            for k in range(rank):
                weight = sum(c[k] * s for c, s in zip(coeff, scalars))
                arr[..., k, k] = 1j * weight * base[axis]
            entry[(axis,)] = arr
        comps[cname] = entry
    return comps


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("seed", [0, 7, 100])
def test_perturbation_form_is_bitwise_the_per_axis_formula(sphere, rank, seed):
    form = sphere.perturbation_form(rank, seed)
    expect = reference_perturbation_comps(sphere, rank, seed)
    for cname, comps in expect.items():
        assert set(form.comps[cname]) == set(comps)
        for key, arr in comps.items():
            assert np.array_equal(form.comps[cname][key], arr)


def test_perturbed_connection_difference_recovers_form(sphere):
    base = sphere.twisted_connection(1)
    pert = sphere.perturbation_form(rank=2, seed=3)
    shifted = perturbed_connection(base, pert)
    diff = connection_difference(shifted, base)
    for cname in ("north", "south"):
        for key in ((0,), (1,)):
            assert np.max(np.abs(diff.comps[cname][key]
                                 - pert.comps[cname][key])) < 1e-9


# ----------------------------------------------------------------------- torus


def test_torus_identity(torus):
    assert torus.name == "T2" and torus.dim == 2
    assert set(torus.atlas.charts) == {"torus"}
    chart = torus.atlas.charts["torus"]
    assert chart.orientation == 1
    assert np.max(np.abs(torus.atlas.pou["torus"] - 1.0)) < 1e-15


def test_torus_volume(torus):
    assert abs(integrate_top(flat_volume_form(torus.atlas)) - 1.0) < 1e-12


@pytest.mark.parametrize("m", range(-3, 4))
def test_torus_flux_integral_exact(torus, m):
    field = curvature(torus.flux_connection(m))
    total = integrate_top(field.trace()) / TWO_PI_I
    assert abs(total - m) < 1e-10


def test_torus_tangent_zero_and_flux_module_descends(torus):
    field = torus.tangent_curvature()
    assert field.rank == 2
    assert np.max(np.abs(field.comps["torus"][(0, 1)])) == 0.0
    flux = torus.flux_connection(2)
    assert flux.rank == 1 and flux.transitions == {}
    assert curvature(flux).overlap_residual() == 0.0


# ------------------------------------------------------------------------- cp2


def test_cp2_identity(proj):
    assert proj.name == "CP2" and proj.dim == 4
    assert proj.generator().top == 2


def test_cp2_total_chern_and_p1(proj):
    chern = proj.total_tangent_chern()
    assert chern.coeffs == (Fraction(1), Fraction(3), Fraction(3))
    x = proj.generator()
    assert proj.p1_class() == 3 * x * x


@pytest.mark.parametrize("k", range(5))
def test_cp2_module_character_coefficients(proj, k):
    ch = proj.module_character(k)
    half = Fraction(2 * k + 3, 2)
    assert ch.coeffs == (Fraction(1), half, half * half / 2)


@pytest.mark.parametrize("k", range(5))
def test_cp2_module_shift_is_half_c1(proj, k):
    chern = proj.total_tangent_chern()
    c1 = RingElement(2, {1: chern.coefficient(1)})
    assert c1 == 3 * proj.generator()
    assert proj.module_character(k) == (proj.generator() * k + c1 * Fraction(1, 2)).exp()


@pytest.mark.parametrize("k", range(5))
def test_cp2_index_pairing_matches_section_count(proj, k):
    ahat = RingElement.constant(2, 1) - proj.p1_class() * Fraction(1, 24)
    paired = (ahat * proj.module_character(k)).integrate()
    assert paired == Fraction((k + 1) * (k + 2), 2)
    assert paired.denominator == 1
    assert paired == proj.section_count(k) == comb(k + 2, 2)


def test_cp2_metric_frozen_values():
    g0 = fubini_study_metric(0.0, 0.0)
    assert np.max(np.abs(g0 - np.eye(2))) < 1e-14
    g1 = fubini_study_metric(1.0, 0.0)
    assert np.max(np.abs(g1 - np.diag([0.25, 0.5]))) < 1e-14
    rng = np.random.default_rng(5)
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    g = fubini_study_metric(z[0], z[1])
    assert np.max(np.abs(g - g.conj().T)) < 1e-14


def test_cp2_volume_normalization():
    value = volume_check()
    assert abs(value - 1.0) < 1e-4
    assert abs(value - 1.0) < 5e-6
