"""Acceptance run: every headline guarantee of the toolkit in one place.

Each test checks one acceptance criterion end to end at its stated
tolerance and prints a single PASS/FAIL line.  Tolerances and runtime
budgets are asserted, not just reported.
"""

import argparse
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from oracles import CliffordElement, element_of, max_difference, spin_element
from gerbedex import cech, gerbe
from gerbedex.characteristic import (
    clifford_commutant_residual,
    relative_character_of_module,
    topological_index,
    twisted_chern_character,
    twisting_curvature,
)
from gerbedex.cli import _clifford_suite, _gerbe_suite, index_row
from gerbedex.clifford import (
    CliffordModuleFiber,
    extract_twisting_factor,
    nearest_lift,
    spinor_rep,
)
from gerbedex.geometry import Chart, ChartAtlas, FormField, curvature, integrate_top
from gerbedex.manifest import parse_manifest, sphere_frame_manifest
from gerbedex.registry import benchmark_registry, perturbed_connection
from gerbedex.spectral import (
    build_flux_background,
    overlap_index,
    wilson_dirac,
)


def _verdict(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {description}")
    assert ok


@pytest.fixture(scope="module")
def sphere():
    return benchmark_registry("S2", order=32)


@pytest.fixture(scope="module")
def torus():
    return benchmark_registry("T2", order=32)


@pytest.fixture(scope="module")
def proj():
    return benchmark_registry("CP2")


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
    return fiber, r_field, w_field, e_field


def rotation_matrix(n, i, j, theta):
    m = np.eye(n)
    m[i, i] = m[j, j] = np.cos(theta)
    m[i, j] = -np.sin(theta)
    m[j, i] = np.sin(theta)
    return m


def gf_rank(mat, p):
    """Row rank of an integer matrix over GF(p), by direct elimination."""
    rows = [[v % p for v in row] for row in mat if any(v % p for v in row)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(a - factor * b) % p
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def gf_h2_dimension(nerve, p):
    """dim H^2(nerve; GF(p)) from coboundary ranks alone."""
    kernel = nerve.n_simplices(2) - gf_rank(cech.delta_matrix(nerve, 2).tolist(), p)
    return kernel - gf_rank(cech.delta_matrix(nerve, 1).tolist(), p)


# ---------------------------------------------------------------------------


def test_criterion_01_clifford_relations_span_and_homomorphism():
    start = time.perf_counter()
    _, ok = _clifford_suite(argparse.Namespace(seed=7))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _verdict(1, "anticommutation 1e-12, blade span 4^(n/2), projection "
                f"homomorphism 1e-10 on 100 pairs, {elapsed:.2f}s < 5s", ok)


def test_criterion_02_double_cover_sign_transport():
    def transport(turns):
        g = spin_element(CliffordElement.scalar(3, 1.0))
        for k in range(1, 65):
            theta = 2.0 * np.pi * turns * k / 64
            g = nearest_lift(rotation_matrix(3, 0, 1, theta), g)
        return g

    once, twice = transport(1), transport(2)
    ok = ((element_of(once) - CliffordElement.scalar(3, -1.0)).norm() < 1e-9
          and (element_of(twice) - CliffordElement.scalar(3, 1.0)).norm() < 1e-9
          and element_of(once).scalar_part().real < 0
          and element_of(twice).scalar_part().real > 0)
    _verdict(2, "64-step transport: one turn lands on -1, two turns on +1", ok)


def test_criterion_03_cohomology_with_torsion_and_brute_force():
    start = time.perf_counter()
    tetra = cech.tetrahedron_sphere()
    rp2 = cech.projective_plane()
    lens_nerve, lens_cocycle = cech.standard_lens_cocycle(3)
    ok = cech.cohomology(tetra, 2, ring="Z").orders == (0,)
    rp2_mod2 = cech.cohomology(rp2, 2, ring=2)
    ok = ok and rp2_mod2.orders == (2,)
    ok = ok and cech.solve_coboundary(rp2_mod2.generators[0], rp2) is None
    ok = ok and not cech.bockstein(lens_cocycle, lens_nerve).trivial
    # independent elimination over small prime fields must agree everywhere
    expected_dims = {tetra: {2: 1, 3: 1, 5: 1},
                     rp2: {2: 1, 3: 0, 5: 0},
                     lens_nerve: {2: 0, 3: 1, 5: 0}}
    for nerve, by_prime in expected_dims.items():
        for p, dim in by_prime.items():
            ok = ok and gf_h2_dimension(nerve, p) == dim
            ok = ok and len(cech.cohomology(nerve, 2, ring=p).orders) == dim
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _verdict(3, "sphere/projective/lens degree-2 cohomology with torsion, "
                f"GF(p) cross-check, {elapsed:.2f}s < 5s", ok)


def test_criterion_04_frame_lift_cocycle_and_module_weights():
    _, ok = _gerbe_suite(argparse.Namespace(seed=11))
    data = parse_manifest(sphere_frame_manifest()).transitions.validate()
    lifted, cocycle = gerbe.lift_transitions(data)
    sigma = gerbe.spin_module(lifted)
    squared = gerbe.tensor_modules(sigma, sigma)
    ok = ok and sigma.weight == 1 and squared.weight == 0
    ok = ok and gerbe.verify_module(squared, cocycle).max_residual < 1e-9
    ok = ok and isinstance(gerbe.descend_weight_zero(squared),
                           gerbe.BundleData)
    unit = gerbe.identity_module(sigma.cover, rank=1)
    ok = ok and gerbe.tensor_modules(sigma, unit).weight == 1
    _verdict(4, "frame lift closes with trivial class, invariant over 10 "
                "randomized lifts, spin module residual 1e-9, weights add "
                "mod 2 with 1+1=0 descending", ok)


def test_criterion_05_character_integrals_on_benchmarks(sphere, torus, proj):
    start = time.perf_counter()
    ok = True
    for m in range(-3, 4):
        got = float(integrate_top(
            twisted_chern_character(sphere.monopole_connection(m)).part(2)))
        ok = ok and abs(got - m) < 1e-6
    for m in range(-3, 4):
        got = float(integrate_top(
            twisted_chern_character(torus.flux_connection(m)).part(2)))
        ok = ok and abs(got - m) < 1e-10
    for k in range(5):
        report = topological_index(proj, proj.module_character(k))
        expected = Fraction((k + 1) * (k + 2), 2)
        ok = (ok and report.value == expected
              and expected == comb(k + 2, 2)
              and report.gap < 1e-9)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _verdict(5, "degree-2 character integrals hit the flux integers; "
                "projective-plane symbolic index matches the monomial count, "
                f"{elapsed:.2f}s < 30s", ok)


def test_criterion_06_twisting_curvature_commutes_and_reproduces_twist(
        sphere, flat4):
    ok = True
    fiber2 = sphere.clifford_fiber()
    for m in (-2, 1):
        relative = twisting_curvature(curvature(sphere.twisted_connection(m)),
                                      sphere.tangent_curvature(), fiber2)
        ok = ok and clifford_commutant_residual(relative, fiber2) < 1e-8
        ch_rel = relative_character_of_module(
            sphere.twisted_connection(m), sphere.tangent_curvature(), fiber2)
        ch_w = twisted_chern_character(sphere.monopole_connection(m))
        ok = ok and max_difference(ch_rel, ch_w) < 1e-8
    fiber12, r_field, w_field, e_field = conjugated_setup(flat4, seed=42)
    relative = twisting_curvature(e_field, r_field, fiber12)
    ok = ok and clifford_commutant_residual(relative, fiber12) < 1e-8
    ch_rel = relative_character_of_module(e_field, r_field, fiber12)
    ok = ok and max_difference(ch_rel, twisted_chern_character(w_field)) < 1e-8
    _verdict(6, "twisting curvature commutes with the algebra action (1e-8) "
                "and its character equals the twist character pointwise "
                "(1e-8) on both fibers", ok)


def test_criterion_07_lattice_index_matches_flux_integral(torus):
    start = time.perf_counter()
    ok = True
    for m in range(-3, 4):
        row = index_row(torus, m, lattice_size=12)
        ok = (ok and row["residual"] < 1e-10
              and row["index_analytic"] == row["index_topological"] == m)
    for size in (10, 12, 16):
        for wilson_r in (0.8, 1.0, 1.2):
            for m in range(-3, 4):
                gauge = build_flux_background(size, m)
                ok = ok and overlap_index(gauge, wilson_r=wilson_r) == m
    largest = wilson_dirac(build_flux_background(16, 0)).matrix.shape[0]
    ok = ok and largest <= 512
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _verdict(7, "torus spectral index equals the flux integral for all "
                "m in -3..3, stable over lattice sizes and projection "
                f"parameters, dense matrices <= 512, {elapsed:.2f}s < 60s",
             ok)


def test_criterion_08_sphere_kernel_counts_match_flux_integral(sphere):
    ok = True
    for m in range(-3, 4):
        row = index_row(sphere, m)
        ok = (ok and row["index_analytic"] == m
              and row["index_topological"] == m and row["residual"] < 1e-6)
    _verdict(8, "sphere chiral kernel asymmetry equals the flux integral "
                "exactly for m in -3..3", ok)


def test_criterion_09_index_ignores_connection_perturbations(sphere):
    base = topological_index(sphere, sphere.monopole_connection(2)).value
    ok = True
    for seed in range(5):
        pert = sphere.perturbation_form(rank=1, seed=100 + seed)
        shifted = perturbed_connection(sphere.monopole_connection(2), pert)
        moved = topological_index(sphere, shifted).value
        ok = ok and abs(moved - base) < 1e-6
    _verdict(9, "topological index unchanged to 1e-6 under 5 random "
                "connection perturbations", ok)


def test_criterion_10_module_factorization_recovers_twist():
    ok = True
    gammas = spinor_rep(4).gamma
    for rank in (1, 2, 3, 4):
        for trial in range(5):
            rng = np.random.default_rng(1000 + 10 * rank + trial)
            scrambled = CliffordModuleFiber.from_tensor(4, rank).conjugate(
                random_unitary(rng, 4 * rank))
            result = extract_twisting_factor(scrambled)
            ok = ok and result.rank == rank and result.residual < 1e-10
            v, eye_r = result.unitary, np.eye(rank)
            for action, g in zip(scrambled.actions, gammas):
                rebuilt = v @ np.kron(g, eye_r) @ v.conj().T
                ok = ok and float(np.abs(action - rebuilt).max()) < 1e-10
    _verdict(10, "factorization recovers rank and rebuilds all actions to "
                 "1e-10 on 20 scrambled fibers", ok)
