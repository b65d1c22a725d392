import math

import numpy as np
import pytest

from oracles import (
    CliffordElement,
    blade_product,
    clifford_of_curvature,
    element_of,
    represent,
    spin_element,
    stacked_canonical_lifts,
)
from gerbedex.clifford import (
    CliffordModuleFiber,
    LiftAmbiguityError,
    SpinElement,
    canonical_lift,
    canonical_lifts,
    extract_twisting_factor,
    lift_signs,
    nearest_lift,
    plane_rotation,
    relative_supertrace,
    spinor_rep,
)


def random_element(rng, n, terms=5):
    coeffs = {}
    for _ in range(terms):
        size = int(rng.integers(0, n + 1))
        blade = tuple(sorted(rng.choice(n, size=size, replace=False)))
        coeffs[blade] = complex(rng.normal(), rng.normal())
    return CliffordElement(n, coeffs)


def random_rotation(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# ---------------------------------------------------------------------------
# algebra arithmetic

def test_blade_product_frozen_cases():
    assert blade_product((0,), (0,)) == (-1, ())
    assert blade_product((1,), (0,)) == (-1, (0, 1))
    assert blade_product((0, 1), (0, 1)) == (-1, ())
    assert blade_product((0, 1), (1, 2)) == (-1, (0, 2))  # e2 e2 contracts to -1
    assert blade_product((), (2,)) == (1, (2,))


def test_idempotent_style_product():
    # (1 + e1 e2)(1 - e1 e2) = 1 - (e1 e2)^2 = 2
    n = 2
    a = CliffordElement(n, {(): 1.0, (0, 1): 1.0})
    b = CliffordElement(n, {(): 1.0, (0, 1): -1.0})
    prod = a * b
    assert abs(prod.scalar_part() - 2.0) < 1e-14
    assert (prod - CliffordElement.scalar(n, 2.0)).norm() < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_generator_relations(n):
    for i in range(n):
        for j in range(n):
            ei = CliffordElement.generator(n, i)
            ej = CliffordElement.generator(n, j)
            anti = ei * ej + ej * ei
            expected = CliffordElement.scalar(n, -2.0 if i == j else 0.0)
            assert (anti - expected).norm() < 1e-14


def test_reverse_and_grades():
    n = 4
    el = CliffordElement(n, {(0, 1, 2): 2.0, (3,): 1.0, (): 5.0})
    rev = el.reverse()
    assert rev.coefficients[(0, 1, 2)] == -2.0  # three generators reverse with one sign
    assert rev.coefficients[(3,)] == 1.0
    assert el.grades() == [0, 1, 3]
    assert el.grade(3).coefficients == {(0, 1, 2): 2.0}


@pytest.mark.parametrize("trial", range(10))
def test_product_is_associative(trial):
    rng = np.random.default_rng(4000 + trial)
    n = int(rng.integers(2, 6))
    a, b, c = (random_element(rng, n) for _ in range(3))
    assert ((a * b) * c - a * (b * c)).norm() < 1e-10


# ---------------------------------------------------------------------------
# spinor representation

@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_gamma_relations_and_chirality(n):
    rep = spinor_rep(n)
    dim = 2 ** (n // 2)
    assert rep.dim == dim
    eye = np.eye(dim)
    for i in range(n):
        gi = rep.gamma[i]
        assert np.abs(gi + gi.conj().T).max() < 1e-12  # anti-Hermitian
        for j in range(n):
            gj = rep.gamma[j]
            target = -2.0 * eye if i == j else 0.0 * eye
            assert np.abs(gi @ gj + gj @ gi - target).max() < 1e-12
    prod = eye.astype(complex)
    for g in rep.gamma:
        prod = prod @ g
    chir = (1.0j) ** (n // 2) * prod
    assert np.abs(chir - rep.chirality).max() < 1e-12
    assert np.abs(rep.chirality @ rep.chirality - eye).max() < 1e-12
    for g in rep.gamma:
        assert np.abs(rep.chirality @ g + g @ rep.chirality).max() < 1e-12


@pytest.mark.parametrize("n", [2, 4, 6])
def test_representation_spans_full_matrix_algebra(n):
    import itertools

    rep = spinor_rep(n)
    rows = []
    for k in range(n + 1):
        for blade in itertools.combinations(range(n), k):
            rows.append(represent(CliffordElement(n, {blade: 1.0}), rep).ravel())
    rank = np.linalg.matrix_rank(np.array(rows))
    assert rank == 4 ** (n // 2)  # algebra maps onto all endomorphisms


@pytest.mark.parametrize("trial", range(10))
def test_represent_is_algebra_homomorphism(trial):
    rng = np.random.default_rng(5000 + trial)
    n = int(rng.choice([2, 4, 6]))
    rep = spinor_rep(n)
    a = random_element(rng, n)
    b = random_element(rng, n)
    lhs = represent(a * b, rep)
    rhs = represent(a, rep) @ represent(b, rep)
    assert np.abs(lhs - rhs).max() < 1e-10


# ---------------------------------------------------------------------------
# spin elements and lifts

def test_plane_rotation_adjoint_matches_trig():
    for n, i, j, theta in [(3, 0, 2, 0.7), (4, 1, 3, -1.3), (2, 0, 1, 2.9)]:
        g = plane_rotation(n, i, j, theta)
        expected = np.eye(n)
        expected[i, i] = expected[j, j] = math.cos(theta)
        expected[j, i] = math.sin(theta)
        expected[i, j] = -math.sin(theta)
        assert np.abs(g.adjoint_matrix() - expected).max() < 1e-12


def test_plane_rotation_axis_order():
    g1 = plane_rotation(3, 0, 1, 0.5)
    g2 = plane_rotation(3, 1, 0, -0.5)
    assert g1.distance(g2) < 1e-14
    with pytest.raises(ValueError):
        plane_rotation(3, 1, 1, 0.5)


def test_full_turn_is_minus_one():
    g = plane_rotation(5, 1, 3, 2.0 * math.pi)
    assert (element_of(g) - CliffordElement.scalar(5, -1.0)).norm() < 1e-12
    g2 = plane_rotation(5, 1, 3, 4.0 * math.pi)
    assert (element_of(g2) - CliffordElement.scalar(5, 1.0)).norm() < 1e-12


def test_spin_element_validation_rejects_bad_input():
    with pytest.raises(ValueError, match="even"):
        spin_element(CliffordElement.generator(3, 0))
    with pytest.raises(ValueError, match="real"):
        spin_element(CliffordElement(2, {(): 1.0j}))
    with pytest.raises(ValueError, match="differs from 1"):
        spin_element(CliffordElement(4, {(): 1.0, (0, 1, 2, 3): 1.0}))


@pytest.mark.parametrize("trial", range(20))
def test_canonical_lift_covers_rotation(trial):
    rng = np.random.default_rng(6000 + trial)
    n = int(rng.choice([2, 3, 4, 5, 6]))
    m = random_rotation(rng, n)
    g = canonical_lift(m)
    assert np.abs(g.adjoint_matrix() - m).max() < 1e-9


@pytest.mark.parametrize("trial", range(10))
def test_lift_is_projective_homomorphism(trial):
    rng = np.random.default_rng(6500 + trial)
    n = int(rng.choice([3, 4, 5]))
    m1, m2 = random_rotation(rng, n), random_rotation(rng, n)
    g = canonical_lift(m1) * canonical_lift(m2)
    assert np.abs(g.adjoint_matrix() - m1 @ m2).max() < 1e-9
    # composite lift agrees with the canonical lift of the product up to sign
    h = canonical_lift(m1 @ m2)
    assert min(g.distance(h), g.distance(-h)) < 1e-9


def test_canonical_lift_rejects_improper_input():
    with pytest.raises(ValueError, match="orthogonal"):
        canonical_lift(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="determinant"):
        canonical_lift(np.diag([1.0, 1.0, -1.0]))


def test_canonical_lift_handles_reflection_pairs():
    g = canonical_lift(np.diag([-1.0, 1.0, -1.0, 1.0]))
    assert np.abs(g.adjoint_matrix() - np.diag([-1.0, 1.0, -1.0, 1.0])).max() < 1e-12


def rotation_matrix(n, i, j, theta):
    m = np.eye(n)
    m[i, i] = m[j, j] = math.cos(theta)
    m[j, i] = math.sin(theta)
    m[i, j] = -math.sin(theta)
    return m


def transport_around_circle(steps, turns=1):
    n = 3
    g = spin_element(CliffordElement.scalar(n, 1.0))
    for k in range(1, steps + 1):
        theta = 2.0 * math.pi * turns * k / steps
        g = nearest_lift(rotation_matrix(n, 0, 1, theta), g)
    return g


def test_sign_transport_detects_double_cover():
    # one full turn comes back to minus one, two turns to plus one
    g = transport_around_circle(64, turns=1)
    assert (element_of(g) - CliffordElement.scalar(3, -1.0)).norm() < 1e-9
    g = transport_around_circle(64, turns=2)
    assert (element_of(g) - CliffordElement.scalar(3, 1.0)).norm() < 1e-9


def test_nearest_lift_ambiguity_raises():
    ref = spin_element(CliffordElement.scalar(3, 1.0))
    with pytest.raises(LiftAmbiguityError):
        nearest_lift(rotation_matrix(3, 0, 1, math.pi), ref)
    # a quarter turn from the same reference is decisively closer to +
    g = nearest_lift(rotation_matrix(3, 0, 1, 0.5 * math.pi), ref)
    assert element_of(g).scalar_part().real > 0


def test_ambiguity_error_carries_the_distances():
    ref = spin_element(CliffordElement.scalar(3, 1.0))
    with pytest.raises(LiftAmbiguityError) as info:
        nearest_lift(rotation_matrix(3, 0, 1, math.pi), ref, ambiguity_gap=0.25)
    err = info.value
    assert err.ambiguity_gap == 0.25
    assert abs(err.d_plus - err.d_minus) < err.ambiguity_gap
    assert abs(err.d_plus - math.sqrt(2.0)) < 1e-12


# ---------------------------------------------------------------------------
# spin elements on spinor matrices

def blade_rotation_product(rng, n, factors=3):
    """Product of plane-rotation lifts, multiplied out in blade coefficients."""
    el = CliffordElement.scalar(n, 1.0)
    for _ in range(factors):
        i, j = sorted(int(k) for k in rng.choice(n, size=2, replace=False))
        half = 0.5 * float(rng.uniform(0.0, 2.0 * math.pi))
        el = el * CliffordElement(n, {(): math.cos(half), (i, j): math.sin(half)})
    return el


@pytest.mark.parametrize("n", range(2, 9))
def test_distance_is_blade_coefficient_norm(n):
    rng = np.random.default_rng(8000 + n)
    for _ in range(4):
        a, b = blade_rotation_product(rng, n), blade_rotation_product(rng, n)
        g, h = spin_element(a), spin_element(b)
        assert abs(g.distance(h) - (a - b).norm()) < 1e-12
        assert abs((-g).distance(h) - (a + b).norm()) < 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_element_round_trips_through_the_constructor(n):
    rng = np.random.default_rng(8100 + n)
    a = blade_rotation_product(rng, n)
    g = spin_element(a)
    assert (element_of(g) - a).norm() < 1e-12
    assert spin_element(element_of(g)).distance(g) < 1e-12
    h = plane_rotation(n, 0, n - 1, 0.3) * spin_element(a.reverse())
    assert (element_of(spin_element(element_of(h))) - element_of(h)).norm() < 1e-12


@pytest.mark.parametrize("n", [7, 8])
def test_canonical_lift_in_high_dimension(n):
    rng = np.random.default_rng(8200 + n)
    for _ in range(3):
        m = random_rotation(rng, n)
        g = canonical_lift(m)
        assert np.abs(g.adjoint_matrix() - m).max() < 1e-9
        inverse = SpinElement(n, g.matrix().conj().T)
        assert g.distance(g * inverse * g) < 1e-12


def test_dimension_nine_is_rejected():
    with pytest.raises(ValueError, match="n <= 8"):
        canonical_lift(np.eye(9))
    with pytest.raises(ValueError, match="n <= 8"):
        plane_rotation(9, 0, 1, 0.3)
    with pytest.raises(ValueError, match="n <= 8"):
        spin_element(CliffordElement.scalar(9, 1.0))


# ---------------------------------------------------------------------------
# stacked canonical lifts against the per-matrix Givens loop

def oracle_canonical_lift(matrix):
    """Spinor unitary of the canonical lift, one matrix and one plane at a time."""
    n = matrix.shape[0]
    lift = SpinElement.identity(n)
    work = np.array(matrix, dtype=float)
    rotations = []
    for j in range(n - 1):
        for i in range(j + 1, n):
            if abs(work[i, j]) < 1e-15 and work[j, j] > 0:
                continue
            phi = math.atan2(-work[i, j], work[j, j])
            c, s = math.cos(phi), math.sin(phi)
            row_j = c * work[j, :] - s * work[i, :]
            row_i = s * work[j, :] + c * work[i, :]
            work[j, :], work[i, :] = row_j, row_i
            rotations.append((j, i, phi))
    flips = [k for k in range(n) if work[k, k] < 0]
    assert not flips
    for j, i, phi in rotations:
        lift = lift * plane_rotation(n, j, i, -phi)
    u = lift.matrix()
    return u / math.sqrt(np.vdot(u, u).real / u.shape[0])


def lift_samples(rng, n):
    """Haar-random rotations, the identity, exact axis-aligned quarter turns
    (whose zero entries take the skip path), and rotations by pi."""
    samples = [random_rotation(rng, n) for _ in range(6)]
    samples.append(np.eye(n))
    for j, i in ((0, 1), (0, n - 1)):
        quarter = np.eye(n)
        quarter[[j, i], [j, i]] = 0.0
        quarter[i, j], quarter[j, i] = 1.0, -1.0
        samples.append(quarter)
    samples.append(np.diag([-1.0, -1.0] + [1.0] * (n - 2)))
    if n >= 4:
        samples.append(np.diag([-1.0] * 4 + [1.0] * (n - 4)))
    return np.stack(samples)


@pytest.mark.parametrize("n", range(2, 9))
def test_canonical_lifts_match_the_per_matrix_oracle(n):
    rng = np.random.default_rng(8300 + n)
    mats = lift_samples(rng, n)
    lifts = canonical_lifts(mats)
    oracle = np.stack([oracle_canonical_lift(m) for m in mats])
    assert lifts.shape == oracle.shape
    assert np.abs(lifts - oracle).max() < 1e-13
    for m, u in zip(mats, lifts):
        g = SpinElement(n, u)
        assert np.abs(g.adjoint_matrix() - m).max() < 1e-12
    assert np.array_equal(canonical_lift(mats[0]).matrix(), canonical_lifts(mats[:1])[0])


def assert_lifts_match_the_stacked_oracle(mats):
    lifts = canonical_lifts(mats)
    oracle = stacked_canonical_lifts(mats)
    assert lifts.shape == oracle.shape
    assert lifts.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("n", range(2, 9))
def test_canonical_lifts_are_byte_equal_to_the_stacked_oracle(n):
    rng = np.random.default_rng(8600 + n)
    assert_lifts_match_the_stacked_oracle(lift_samples(rng, n))
    for count in (1, 5, 64):
        assert_lifts_match_the_stacked_oracle(
            np.stack([random_rotation(rng, n) for _ in range(count)]))


def test_canonical_lifts_of_the_sphere_frames_are_byte_equal_to_the_stacked_oracle():
    from gerbedex.manifest import parse_manifest, sphere_frame_manifest

    data = parse_manifest(sphere_frame_manifest()).transitions
    for stack in data.matrices.values():
        assert_lifts_match_the_stacked_oracle(stack)


def good_rotation_stack(n=3, count=5):
    rng = np.random.default_rng(8400)
    return np.stack([random_rotation(rng, n) for _ in range(count)])


@pytest.mark.parametrize("bad,message", [
    (np.diag([1.0, 1.0, 1.0 + 1e-6]), "not orthogonal"),
    (np.full((3, 3), np.nan), "not orthogonal"),
    (np.diag([1.0, 1.0, -1.0]), "determinant -1"),
])
def test_canonical_lifts_reject_a_stack_with_one_bad_sample(bad, message):
    mats = good_rotation_stack()
    mats[3] = bad
    with pytest.raises(ValueError, match=message):
        canonical_lifts(mats)


def test_canonical_lifts_reject_an_odd_sign_flip():
    # Only a loose tolerance lets a determinant-zero sample through to the
    # reduction; its last diagonal entry stays negative.
    mats = good_rotation_stack(n=2)
    mats[2] = np.diag([0.0, -1.0])
    with pytest.raises(ValueError, match="odd number of sign flips"):
        canonical_lifts(mats, tol=2.0)


def test_lift_signs_pick_the_nearer_sign_and_name_the_first_ambiguous_pair():
    rng = np.random.default_rng(8500)
    refs = canonical_lifts(good_rotation_stack(n=4, count=6))
    signs = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0])
    near = np.stack([plane_rotation(4, 0, 1, rng.uniform(-0.5, 0.5)).matrix() for _ in refs])
    assert np.array_equal(lift_signs(signs[:, None, None] * refs @ near, refs), signs)
    half_turn = plane_rotation(4, 0, 2, math.pi).matrix()
    candidates = refs.copy()
    candidates[[2, 4]] = refs[[2, 4]] @ half_turn
    with pytest.raises(LiftAmbiguityError) as info:
        lift_signs(candidates, refs)
    err = info.value
    assert err.pair == 2
    assert abs(err.d_plus - math.sqrt(2.0)) < 1e-12
    assert abs(err.d_minus - math.sqrt(2.0)) < 1e-12


def test_matrix_lives_in_the_storing_rep():
    g = plane_rotation(4, 0, 2, 0.9)
    assert np.abs(g.matrix(spinor_rep(4)) - represent(element_of(g), spinor_rep(4))).max() < 1e-14
    with pytest.raises(ValueError, match="spinor_rep"):
        g.matrix(spinor_rep(6))
    # odd n is carried by the representation of n + 1
    h = plane_rotation(3, 0, 2, 0.9)
    assert h.matrix(spinor_rep(4)).shape == (4, 4)
    with pytest.raises(ValueError, match="spinor_rep"):
        h.matrix(spinor_rep(2))
    with pytest.raises(ValueError, match="out of range"):
        plane_rotation(3, 0, 3, 0.9)


# ---------------------------------------------------------------------------
# curvature contraction

@pytest.mark.parametrize("trial", range(8))
def test_curvature_contraction_commutator_identity(trial):
    rng = np.random.default_rng(7000 + trial)
    n = int(rng.choice([2, 3, 4, 6]))
    raw = rng.normal(size=(n, n))
    omega = raw - raw.T
    xi = rng.normal(size=n)
    c_omega = clifford_of_curvature(omega)
    c_xi = CliffordElement.vector(xi)
    lhs = c_omega * c_xi - c_xi * c_omega
    rhs = CliffordElement.vector(omega.T @ xi)
    assert (lhs - rhs).norm() < 1e-12


def test_curvature_contraction_rejects_symmetric_part():
    with pytest.raises(ValueError, match="antisymmetric"):
        clifford_of_curvature(np.eye(3))


def test_curvature_contraction_frozen_value():
    omega = np.array([[0.0, 2.0], [-2.0, 0.0]])
    el = clifford_of_curvature(omega)
    assert el.coefficients == {(0, 1): (1.0 + 0.0j)}


# ---------------------------------------------------------------------------
# module fibers, supertraces, twisting factors

def test_fiber_validation_catches_broken_relations():
    rep = spinor_rep(2)
    with pytest.raises(ValueError, match="Clifford relation"):
        CliffordModuleFiber(2, [rep.gamma[0], rep.gamma[0]], rep.chirality)
    with pytest.raises(ValueError, match="odd"):
        CliffordModuleFiber(2, rep.gamma, np.eye(2))


def test_volume_chirality_of_plain_spinor_fiber():
    for n in (2, 4):
        fiber = CliffordModuleFiber.from_tensor(n)
        assert np.abs(fiber.volume_chirality() - spinor_rep(n).chirality).max() < 1e-12


def test_relative_supertrace_scalar_example():
    # phi = 3 * identity on the plain spinor module has relative supertrace 3
    fiber = CliffordModuleFiber.from_tensor(2)
    val = relative_supertrace(fiber, 3.0 * np.eye(2))
    assert abs(val - 3.0) < 1e-12


def test_relative_supertrace_graded_twist_example():
    # twist factor diag(7+2i, 2) with grading diag(+1, -1): supertrace 5+2i
    w = np.diag([7.0 + 2.0j, 2.0])
    fiber = CliffordModuleFiber.from_tensor(2, 2, twist_grading=np.diag([1.0, -1.0]))
    phi = np.kron(np.eye(2), w)
    val = relative_supertrace(fiber, phi)
    assert abs(val - (5.0 + 2.0j)) < 1e-12


def test_relative_supertrace_requires_commutant():
    fiber = CliffordModuleFiber.from_tensor(2)
    with pytest.raises(ValueError, match="commute"):
        relative_supertrace(fiber, np.array([[1.0, 0.0], [0.0, 3.0]]))


def test_relative_supertrace_invariant_under_conjugation():
    rng = np.random.default_rng(42)
    fiber = CliffordModuleFiber.from_tensor(4, 3, twist_grading=np.diag([1.0, 1.0, -1.0]))
    w = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    phi = np.kron(np.eye(4), w)
    u, _ = np.linalg.qr(rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)))
    conj = fiber.conjugate(u)
    a = relative_supertrace(fiber, phi)
    b = relative_supertrace(conj, u @ phi @ u.conj().T)
    assert abs(a - b) < 1e-10
    assert abs(a - np.trace(np.diag([1.0, 1.0, -1.0]) @ w)) < 1e-10


@pytest.mark.parametrize("n,rank", [(2, 1), (2, 3), (4, 2)])
def test_extract_twisting_factor_recovers_tensor_form(n, rank):
    rng = np.random.default_rng(100 * n + rank)
    fiber = CliffordModuleFiber.from_tensor(n, rank)
    dim = fiber.dim
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    scrambled = fiber.conjugate(u)
    result = extract_twisting_factor(scrambled)
    assert result.rank == rank
    assert result.residual < 1e-10
    rep = spinor_rep(n)
    eye_r = np.eye(rank)
    v = result.unitary
    assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-9
    for a, g in zip(scrambled.actions, rep.gamma):
        assert np.abs(v.conj().T @ a @ v - np.kron(g, eye_r)).max() < 1e-9


def test_curvature_action_matches_represented_element():
    rng = np.random.default_rng(9)
    n = 4
    raw = rng.normal(size=(n, n))
    omega = raw - raw.T
    fiber = CliffordModuleFiber.from_tensor(n)
    direct = fiber.curvature_action(omega)
    via_algebra = represent(clifford_of_curvature(omega), spinor_rep(n))
    assert np.abs(direct - via_algebra).max() < 1e-12
