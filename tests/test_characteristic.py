"""Oracle tests for characteristic classes and the topological index."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import max_difference
from gerbedex.characteristic import (
    IndexReport,
    MixedForm,
    a_hat,
    clifford_commutant_residual,
    relative_chern_character,
    relative_character_of_module,
    topological_index,
    twisted_chern_character,
    twisting_curvature,
)
from gerbedex.clifford import CliffordModuleFiber, relative_supertrace
from gerbedex.geometry import Chart, ChartAtlas, FormField, curvature, integrate_top
from gerbedex.registry import (
    ProjectivePlaneBenchmark,
    SphereBenchmark,
    TorusBenchmark,
    perturbed_connection,
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


@pytest.fixture(scope="module")
def flat4():
    chart = Chart("flat", (0.0,) * 4, (1.0,) * 4, 1, order=4, panels=1)
    return ChartAtlas("flat4", 4, [chart], {})


def random_unitary(rng, size):
    z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugated_setup(flat4, seed):
    """Conjugated n=4 fiber of rank 3 twist, with matching synthetic curvatures."""
    rng = np.random.default_rng(seed)
    base = CliffordModuleFiber.from_tensor(4, 3)
    u = random_unitary(rng, 12)
    fiber = base.conjugate(u)
    chart = flat4.charts["flat"]
    coords = chart.coords()
    pair = np.stack([np.stack([a @ b for b in base.actions])
                     for a in base.actions])
    keys = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    r_comps, w_comps, e_comps = {}, {}, {}
    eye4 = np.eye(4)
    for key in keys:
        skew = rng.normal(size=(4, 4))
        skew = skew - skew.T
        herm = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        herm = herm + herm.conj().T
        scal_r = 1.0 + coords[key[0]] * coords[key[1]]
        scal_w = 0.5 + coords[key[0]] ** 2
        r_comps[key] = scal_r[..., None, None] * skew
        w_comps[key] = 1j * scal_w[..., None, None] * herm
        c_of_r = 0.25 * np.einsum("...ij,ijab->...ab", r_comps[key], pair)
        twist = np.einsum("...ab,cd->...cadb", w_comps[key], eye4).reshape(
            scal_w.shape + (12, 12))
        e_comps[key] = u @ (c_of_r + twist) @ u.conj().T
    r_field = FormField(flat4, 2, {"flat": r_comps}, rank=4)
    w_field = FormField(flat4, 2, {"flat": w_comps}, rank=3)
    e_field = FormField(flat4, 2, {"flat": e_comps}, rank=12)
    return fiber, u, r_field, w_field, e_field


# ------------------------------------------------------------------ MixedForm


def test_mixed_form_requires_exactly_one_mode(torus):
    # numeric parts are the only mode: a ring element is not a mixed form
    with pytest.raises(ValueError):
        MixedForm({})
    with pytest.raises(TypeError):
        MixedForm(parts={}, ring=RingElement.constant(2, 1))
    form = MixedForm.constant(torus.atlas, 1.0)
    assert not hasattr(form, "ring") and not hasattr(form, "symbolic")


def test_mixed_form_constant_parts(torus):
    form = MixedForm.constant(torus.atlas, 3.0)
    chart = torus.atlas.charts["torus"]
    assert np.max(np.abs(form.part(0).comps["torus"][()] - 3.0)) == 0.0
    assert np.max(np.abs(form.part(2).comps["torus"][(0, 1)])) == 0.0
    with pytest.raises(ValueError):
        form.part(1)
    with pytest.raises(ValueError):
        form.part(4)
    assert form.part(0).comps["torus"][()].shape == chart.shape


def test_mixed_form_product_numeric(torus):
    chart = torus.atlas.charts["torus"]
    x, y = chart.coords()
    f0 = FormField(torus.atlas, 0, {"torus": {(): x}})
    f2 = FormField(torus.atlas, 2, {"torus": {(0, 1): y}})
    m1 = MixedForm(parts={0: f0})
    m2 = MixedForm(parts={0: f0, 2: f2})
    prod = m1 * m2
    assert np.max(np.abs(prod.part(0).comps["torus"][()] - x * x)) < 1e-14
    assert np.max(np.abs(prod.part(2).comps["torus"][(0, 1)] - x * y)) < 1e-14


def test_mixed_form_max_difference(torus):
    a = MixedForm.constant(torus.atlas, 1.0)
    b = MixedForm.constant(torus.atlas, 1.5)
    assert abs(max_difference(a, b) - 0.5) < 1e-14
    assert max_difference(a, a) == 0.0


# ---------------------------------------------------------------------- a_hat


def test_a_hat_torus_and_sphere_trivial(torus, sphere):
    for bench in (torus, sphere):
        genus = a_hat(bench.tangent_curvature())
        chart = next(iter(bench.atlas.charts.values()))
        name = chart.name
        assert np.max(np.abs(genus.part(0).comps[name][()] - 1.0)) == 0.0
        assert np.max(np.abs(genus.part(2).comps[name][(0, 1)])) == 0.0


def test_a_hat_symbolic_cp2(proj):
    genus = a_hat(proj.p1_class())
    assert isinstance(genus, RingElement)
    assert genus.coeffs == (Fraction(1), Fraction(0), Fraction(-1, 8))
    x = proj.generator()
    paired = (genus * (x * Fraction(3, 2)).exp()).integrate()
    assert paired == Fraction(9, 8) - Fraction(1, 8) == 1


def test_a_hat_symbolic_dimension_cap():
    with pytest.raises(ValueError):
        a_hat(RingElement.generator(3, power=2))


def test_a_hat_flat4_synthetic(flat4):
    chart = flat4.charts["flat"]
    coords = chart.coords()
    skew = np.array([[0.0, 1.0, 0.0, 0.0],
                     [-1.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 2.0],
                     [0.0, 0.0, -2.0, 0.0]])
    f1 = 1.0 + coords[0]
    f2 = coords[1] ** 2
    comps = {key: np.zeros(chart.shape + (4, 4)) for key
             in [(i, j) for i in range(4) for j in range(i + 1, 4)]}
    comps[(0, 1)] = f1[..., None, None] * skew
    comps[(2, 3)] = f2[..., None, None] * skew
    field = FormField(flat4, 2, {"flat": comps}, rank=4)
    genus = a_hat(field)
    # tr(R wedge R) has only the cross term 2 f1 f2 tr(skew^2) on (0,1,2,3)
    tr_rr = 2.0 * f1 * f2 * np.trace(skew @ skew)
    expected = -(-tr_rr / (8.0 * np.pi ** 2)) / 24.0
    got = genus.part(4).comps["flat"][(0, 1, 2, 3)]
    assert np.max(np.abs(got - expected)) < 1e-12
    assert np.max(np.abs(genus.part(0).comps["flat"][()] - 1.0)) == 0.0


# --------------------------------------------------------- twisted ch(W) side


def test_ch_flat_connection_is_rank_constant(torus):
    ch = twisted_chern_character(torus.flux_connection(0))
    assert np.max(np.abs(ch.part(0).comps["torus"][()] - 1.0)) == 0.0
    assert np.max(np.abs(ch.part(2).comps["torus"][(0, 1)])) < 1e-12


@pytest.mark.parametrize("m", [-3, 2])
def test_ch_monopole_degree2_integrates_to_m(sphere, m):
    ch = twisted_chern_character(sphere.monopole_connection(m))
    assert ch.part(2).comps["north"][(0, 1)].dtype.kind == "f"
    assert abs(integrate_top(ch.part(2)) - m) < 1e-6


def test_ch_rejects_non_descending_field(sphere):
    comps = {}
    for cname, chart in sphere.atlas.charts.items():
        x, y = chart.coords()
        lam2 = (2.0 / (1.0 + x * x + y * y)) ** 2
        comps[cname] = {(0, 1): (1j * lam2)[..., None, None]}
    bad = FormField(sphere.atlas, 2, comps, rank=1)
    with pytest.raises(ValueError):
        twisted_chern_character(bad)


def test_ch_rejects_a_ring_element(proj):
    character = proj.module_character(1)
    assert character.coeffs == (Fraction(1), Fraction(5, 2), Fraction(25, 8))
    with pytest.raises(TypeError, match="expected a ModuleConnection or "
                                        "curvature FormField"):
        twisted_chern_character(character)


# ----------------------------------------------------------- twisting side


def test_twisting_curvature_spin_alone_vanishes(sphere):
    rel = twisting_curvature(curvature(sphere.spin_connection()),
                             sphere.tangent_curvature(),
                             sphere.clifford_fiber())
    for cname in ("north", "south"):
        assert np.max(np.abs(rel.comps[cname][(0, 1)])) < 1e-9


@pytest.mark.parametrize("m", [-2, 1])
def test_twisting_curvature_strips_spin_part(sphere, m):
    rel = twisting_curvature(curvature(sphere.twisted_connection(m)),
                             sphere.tangent_curvature(),
                             sphere.clifford_fiber())
    f_l = curvature(sphere.monopole_connection(m))
    for cname in ("north", "south"):
        scalar = f_l.comps[cname][(0, 1)][..., 0, 0]
        expected = scalar[..., None, None] * np.eye(2)
        assert np.max(np.abs(rel.comps[cname][(0, 1)] - expected)) < 1e-9
    assert clifford_commutant_residual(rel, sphere.clifford_fiber()) < 1e-8


def loop_commutant_residual(field, fiber):
    """Per node and per action, the commutator of the coefficient matrix."""
    worst = 0.0
    for chart_comps in field.comps.values():
        for arr in chart_comps.values():
            for node in arr.reshape(-1, fiber.dim, fiber.dim):
                for action in fiber.actions:
                    worst = max(worst, float(np.abs(node @ action - action @ node).max()))
    return worst


@pytest.mark.parametrize("n,multiplicity,degree", [(2, 1, 1), (2, 3, 2), (4, 2, 1)])
def test_commutant_residual_matches_the_loop_form(n, multiplicity, degree):
    bench = SphereBenchmark(order=6, panels=1)
    atlas = bench.atlas
    fiber = CliffordModuleFiber.from_tensor(n, multiplicity)
    r = fiber.dim
    rng = np.random.default_rng(10 * n + multiplicity)
    keys = [(0,), (1,)] if degree == 1 else [(0, 1)]
    for commuting in (False, True):
        comps = {}
        for cname, chart in atlas.charts.items():
            comps[cname] = {}
            for key in keys:
                shape = chart.shape + (multiplicity, multiplicity)
                twist = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                arr = np.kron(np.eye(r // multiplicity), twist)
                if not commuting:
                    shape = chart.shape + (r, r)
                    arr = arr + 1e-3 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
                comps[cname][key] = arr
        field = FormField(atlas, degree, comps, rank=r)
        fast = clifford_commutant_residual(field, fiber)
        slow = loop_commutant_residual(field, fiber)
        assert abs(fast - slow) <= 1e-13 * max(1.0, slow)
        assert (slow > 1e-4) != commuting


def test_twisting_curvature_rejects_incompatible(sphere):
    fiber = sphere.clifford_fiber()
    field = curvature(sphere.twisted_connection(1))
    comps = {c: {k: arr.copy() for k, arr in field.comps[c].items()}
             for c in field.comps}
    spoiled = 0.1 * fiber.actions[0]
    comps["north"][(0, 1)] = comps["north"][(0, 1)] + spoiled
    comps["south"][(0, 1)] = comps["south"][(0, 1)] + spoiled
    bad = FormField(sphere.atlas, 2, comps, rank=2)
    with pytest.raises(ValueError):
        twisting_curvature(bad, sphere.tangent_curvature(), fiber)


def test_twisting_curvature_conjugated_rank12(flat4):
    fiber, u, r_field, w_field, e_field = conjugated_setup(flat4, seed=42)
    rel = twisting_curvature(e_field, r_field, fiber)
    eye4 = np.eye(4)
    for key, w_arr in w_field.comps["flat"].items():
        expected = np.einsum("...ab,cd->...cadb", w_arr, eye4).reshape(
            w_arr.shape[:-2] + (12, 12))
        expected = u @ expected @ u.conj().T
        assert np.max(np.abs(rel.comps["flat"][key] - expected)) < 1e-10
    # spot-check c(R) against the fiber's own curvature insertion
    rng = np.random.default_rng(3)
    flat_idx = rng.integers(0, 4, size=(4, 4))
    for i, j, k, l in flat_idx:
        omega = r_field.comps["flat"][(0, 1)][i, j, k, l]
        direct = fiber.curvature_action(omega)
        via = (e_field.comps["flat"][(0, 1)][i, j, k, l]
               - rel.comps["flat"][(0, 1)][i, j, k, l])
        assert np.max(np.abs(direct - via)) < 1e-10


# ------------------------------------------------------------ relative ch


def test_relative_ch_zero_curvature_counts_multiplicity(flat4):
    fiber = CliffordModuleFiber.from_tensor(4, 3)
    chart = flat4.charts["flat"]
    zero = FormField(flat4, 2, {"flat": {
        key: np.zeros(chart.shape + (12, 12), dtype=complex)
        for key in [(i, j) for i in range(4) for j in range(i + 1, 4)]}},
        rank=12)
    ch = relative_chern_character(zero, fiber)
    assert np.max(np.abs(ch.part(0).comps["flat"][()] - 3.0)) < 1e-12
    assert np.max(np.abs(ch.part(2).comps["flat"][(0, 1)])) == 0.0
    assert np.max(np.abs(ch.part(4).comps["flat"][(0, 1, 2, 3)])) == 0.0


@pytest.mark.parametrize("m", [-2, 1])
def test_relative_ch_matches_twist_character_on_sphere(sphere, m):
    ch_rel = relative_character_of_module(sphere.twisted_connection(m),
                                          sphere.tangent_curvature(),
                                          sphere.clifford_fiber())
    ch_w = twisted_chern_character(sphere.monopole_connection(m))
    assert max_difference(ch_rel, ch_w) < 1e-8


def test_relative_ch_matches_twist_character_rank12(flat4):
    fiber, _, r_field, w_field, e_field = conjugated_setup(flat4, seed=42)
    ch_rel = relative_character_of_module(e_field, r_field, fiber)
    ch_w = twisted_chern_character(w_field)
    assert max_difference(ch_rel, ch_w) < 1e-8


def test_relative_character_of_module_checks_the_commutant_once(flat4, monkeypatch):
    from gerbedex import characteristic

    fiber, _, r_field, w_field, e_field = conjugated_setup(flat4, seed=42)
    checked = []
    original = characteristic.clifford_commutant_residual

    def counting_residual(field, fiber):
        checked.append(field)
        return original(field, fiber)

    monkeypatch.setattr(characteristic, "clifford_commutant_residual",
                        counting_residual)
    ch_rel = relative_character_of_module(e_field, r_field, fiber)
    assert len(checked) == 1
    assert max_difference(ch_rel, twisted_chern_character(w_field)) < 1e-8
    # the public character of an already split field still runs its check
    relative_chern_character(checked[0], fiber)
    assert len(checked) == 2


def test_relative_ch_conjugation_invariance(flat4):
    fiber1, _, r1, w1, e1 = conjugated_setup(flat4, seed=9)
    base = CliffordModuleFiber.from_tensor(4, 3)
    rng = np.random.default_rng(99)
    u2 = random_unitary(rng, 12)
    fiber2 = base.conjugate(u2)
    # re-conjugate the same underlying data with the second unitary
    _, u1, _, _, _ = conjugated_setup(flat4, seed=9)
    inner = {key: u1.conj().T @ arr @ u1 for key, arr in e1.comps["flat"].items()}
    e2 = FormField(flat4, 2, {"flat": {k: u2 @ v @ u2.conj().T
                                       for k, v in inner.items()}}, rank=12)
    ch1 = relative_character_of_module(e1, r1, fiber1)
    ch2 = relative_character_of_module(e2, r1, fiber2)
    assert max_difference(ch1, ch2) < 1e-10


def test_relative_ch_dual_route_supertrace(flat4):
    fiber, _, r_field, _, e_field = conjugated_setup(flat4, seed=42)
    rel = twisting_curvature(e_field, r_field, fiber)
    ch = relative_chern_character(rel, fiber)
    rng = np.random.default_rng(17)
    for _ in range(5):
        i, j, k, l = rng.integers(0, 4, size=4)
        mat = rel.comps["flat"][(0, 1)][i, j, k, l]
        direct = relative_supertrace(fiber, mat)
        scaled = (-direct / TWO_PI_I).real
        assert abs(ch.part(2).comps["flat"][(0, 1)][i, j, k, l] - scaled) < 1e-10


def test_relative_ch_rejects_supercommutation_failure(flat4):
    fiber, _, r_field, _, e_field = conjugated_setup(flat4, seed=1)
    rel = twisting_curvature(e_field, r_field, fiber)
    comps = {k: arr.copy() for k, arr in rel.comps["flat"].items()}
    comps[(0, 1)] = comps[(0, 1)] + 0.1 * fiber.actions[1]
    bad = FormField(flat4, 2, {"flat": comps}, rank=12)
    with pytest.raises(ValueError):
        relative_chern_character(bad, fiber)


def test_nan_fails_the_character_checks(flat4, monkeypatch):
    sphere = SphereBenchmark(order=16)
    clean = curvature(sphere.monopole_connection(1))
    node = np.unravel_index(sphere.atlas.overlap_sample("north", "south").idx[0],
                            sphere.atlas.charts["north"].shape)
    comps = {name: {key: arr.copy() for key, arr in chart_comps.items()}
             for name, chart_comps in clean.comps.items()}
    comps["north"][(0, 1)][node] = np.nan
    broken = FormField(sphere.atlas, 2, comps, rank=1)
    with pytest.raises(ValueError,
                       match=r"degree-2 character piece has imaginary part nan"):
        twisted_chern_character(broken)
    fiber, _, r_field, _, e_field = conjugated_setup(flat4, seed=1)
    e_comps = {key: arr.copy() for key, arr in e_field.comps["flat"].items()}
    e_comps[(0, 1)][0, 0, 0, 0] = np.nan
    e_broken = FormField(flat4, 2, {"flat": e_comps}, rank=12)
    assert np.isnan(clifford_commutant_residual(e_broken, fiber))
    with pytest.raises(ValueError, match=r"commutant residual nan"):
        twisting_curvature(e_broken, r_field, fiber)
    # a NaN that survives the reality check reaches the descent checks
    monkeypatch.setattr(FormField, "overlap_residual", lambda self: np.nan)
    with pytest.raises(ValueError,
                       match=r"character does not descend: degree-2 overlap residual nan"):
        twisted_chern_character(clean)
    with pytest.raises(ValueError,
                       match=r"Pontryagin form does not descend: residual nan"):
        a_hat(r_field)


# ------------------------------------------------------------------ the index


@pytest.mark.parametrize("m", range(-3, 4))
def test_topological_index_torus_exact(torus, m):
    report = topological_index(torus, torus.flux_connection(m))
    assert isinstance(report, IndexReport)
    assert report.nearest == m
    assert report.gap < 1e-10


@pytest.mark.parametrize("m", [-3, -1, 0, 2])
def test_topological_index_sphere(sphere, m):
    report = topological_index(sphere, sphere.monopole_connection(m))
    assert report.nearest == m
    assert abs(report.value - m) < 1e-6


@pytest.mark.parametrize("k", range(5))
def test_topological_index_cp2_symbolic(proj, k):
    report = topological_index(proj, proj.module_character(k))
    expected = Fraction((k + 1) * (k + 2), 2)
    assert type(report.value) is Fraction and report.value == expected
    assert report.value == (1, 3, 6, 10, 15)[k]
    assert report.nearest == proj.section_count(k)
    assert report.gap == 0.0


def test_topological_index_connection_independence(sphere):
    base = topological_index(sphere, sphere.monopole_connection(2)).value
    for seed in range(5):
        pert = sphere.perturbation_form(rank=1, seed=100 + seed)
        shifted = perturbed_connection(sphere.monopole_connection(2), pert)
        moved = topological_index(sphere, shifted).value
        assert abs(moved - base) < 1e-6


def test_topological_index_rejects_unknown_twist(sphere, proj):
    with pytest.raises(TypeError, match="expected a ModuleConnection, "
                                        "FormField, RingElement, or MixedForm"):
        topological_index(sphere, "bogus")
    with pytest.raises(ValueError, match="symbolic twist needs a benchmark "
                                         "with a symbolic tangent class"):
        topological_index(sphere, proj.module_character(0))
