import math

import numpy as np
import pytest

from gerbedex import cech, gerbe
from gerbedex.clifford import CliffordElement, LiftAmbiguityError, spinor_rep
from gerbedex.manifest import parse_manifest, sphere_frame_manifest


def rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def chain_graph(thetas, basepoint=0):
    return gerbe.EdgeSampleGraph(np.stack([rot(t) for t in thetas]), basepoint=basepoint)


def triangle_nerve():
    return cech.Nerve.from_simplices([(0, 1, 2)])


def identity_triangle_data():
    nerve = triangle_nerve()
    edges = {e: chain_graph([0.0]) for e in nerve.simplices[1]}
    triples = {(0, 1, 2): [(0, 0, 0)]}
    return gerbe.TransitionData(nerve=nerve, dimension=2, edges=edges, triples=triples)


def winding_triangle_data(steps=16):
    """Edge (0,1) sampled along a full rotation; its endpoint lift is -1."""
    nerve = triangle_nerve()
    loop = [2.0 * math.pi * k / steps for k in range(steps + 1)]
    edges = {
        (0, 1): chain_graph(loop),
        (0, 2): chain_graph([0.0]),
        (1, 2): chain_graph([0.0]),
    }
    triples = {(0, 1, 2): [(steps, 0, 0)]}
    return gerbe.TransitionData(nerve=nerve, dimension=2, edges=edges, triples=triples)


def chart_path_data(seed=0, samples=6):
    """Consistent SO(2) data on the tetrahedron nerve from per-chart paths.

    g_ab(t) = rot(theta_a(t) - theta_b(t)) satisfies the cocycle condition at
    every shared sample index, so any index triple (t, t, t) is a valid
    triple-overlap point.
    """
    rng = np.random.default_rng(seed)
    nerve = cech.tetrahedron_sphere()
    t = np.linspace(0.0, 1.0, samples)
    paths = {v: rng.normal() + rng.normal() * t + rng.normal() * t * t for v in range(4)}
    edges = {
        (a, b): chain_graph(paths[a] - paths[b])
        for (a, b) in nerve.simplices[1]
    }
    triples = {s: [(0, 0, 0), (samples - 1,) * 3] for s in nerve.simplices[2]}
    return gerbe.TransitionData(nerve=nerve, dimension=2, edges=edges, triples=triples)


# ---------------------------------------------------------------------------
# sample graphs and raw data validation

def test_graph_default_chain_and_connectivity():
    g = chain_graph([0.0, 0.1, 0.2])
    assert g.adjacency == ((0, 1), (1, 2))
    with pytest.raises(ValueError, match="connected"):
        gerbe.EdgeSampleGraph(np.stack([rot(0.0)] * 3), adjacency=((0, 1),))
    with pytest.raises(ValueError, match="adjacency"):
        gerbe.EdgeSampleGraph(np.stack([rot(0.0)] * 2), adjacency=((0, 5),))


def test_transition_data_validation():
    nerve = triangle_nerve()
    edges = {e: chain_graph([0.0]) for e in nerve.simplices[1]}
    with pytest.raises(ValueError, match="missing triple"):
        gerbe.TransitionData(nerve=nerve, dimension=2, edges=edges, triples={})
    bad = dict(edges)
    bad[(0, 1)] = gerbe.EdgeSampleGraph(np.stack([np.diag([2.0, 0.5])]))
    data = gerbe.TransitionData(
        nerve=nerve, dimension=2, edges=bad, triples={(0, 1, 2): [(0, 0, 0)]}
    )
    with pytest.raises(ValueError, match="SO"):
        data.validate()
    # cocycle violation at the triple point
    skew = dict(edges)
    skew[(0, 1)] = chain_graph([0.3])
    data = gerbe.TransitionData(
        nerve=nerve, dimension=2, edges=skew, triples={(0, 1, 2): [(0, 0, 0)]}
    )
    with pytest.raises(ValueError, match="cocycle"):
        data.validate()


# ---------------------------------------------------------------------------
# lifting and the sign cocycle

def test_identity_transitions_lift_to_one():
    lifted, cocycle = gerbe.lift_transitions(identity_triangle_data())
    for lifts in lifted.lifts.values():
        for g in lifts:
            assert abs(g.element.scalar_part() - 1.0) < 1e-12
    assert cocycle.cochain.values == (0,)
    assert cocycle.trivial


def test_winding_edge_produces_sign():
    lifted, cocycle = gerbe.lift_transitions(winding_triangle_data())
    end = lifted.lifts[(0, 1)][-1]
    assert (end.element - type(end.element).scalar(2, -1.0)).norm() < 1e-9
    assert cocycle.cochain.values == (1,)
    # one triangle cannot carry cohomology: the sign is a coboundary
    assert cocycle.trivial


def test_lift_matches_samples_everywhere():
    data = chart_path_data(seed=3)
    lifted, _ = gerbe.lift_transitions(data)
    for edge, graph in data.edges.items():
        for idx in range(graph.count):
            proj = lifted.lifts[edge][idx].adjoint_matrix()
            assert np.abs(proj - graph.matrices[idx]).max() < 1e-9


def test_lift_at_reverses_orientation():
    data = chart_path_data(seed=4)
    lifted, _ = gerbe.lift_transitions(data)
    g = lifted.lift_at(0, 1, 0)
    h = lifted.lift_at(1, 0, 0)
    assert (g.element * h.element - type(g.element).scalar(2, 1.0)).norm() < 1e-12


@pytest.mark.parametrize("trial", range(10))
def test_cocycle_class_invariant_under_perturbations(trial):
    rng = np.random.default_rng(800 + trial)
    data = chart_path_data(seed=11)
    _, base = gerbe.lift_transitions(data)
    edges = list(data.edges)
    flips = [e for e in edges if rng.random() < 0.5]
    basepoints = {e: int(rng.integers(0, data.edges[e].count)) for e in edges}
    _, perturbed = gerbe.lift_transitions(
        data, seed=int(rng.integers(1 << 30)), sign_flips=flips, basepoints=basepoints
    )
    diff = cech.Cochain(
        2, 2, tuple(a + b for a, b in zip(base.cochain.values, perturbed.cochain.values))
    )
    assert cech.is_cocycle(diff, data.nerve)
    assert cech.solve_coboundary(diff, data.nerve) is not None  # same class


def test_sign_flip_changes_cocycle_by_indicator_coboundary():
    data = chart_path_data(seed=12)
    _, base = gerbe.lift_transitions(data)
    edge = (0, 1)
    _, flipped = gerbe.lift_transitions(data, sign_flips=[edge])
    indicator = cech.Cochain(
        1,
        2,
        tuple(1 if s == edge else 0 for s in data.nerve.simplices[1]),
    )
    expected = cech.coboundary(indicator, data.nerve)
    diff = tuple(
        (a - b) % 2 for a, b in zip(flipped.cochain.values, base.cochain.values)
    )
    assert diff == expected.values


def test_holonomy_error_on_winding_loop():
    steps = 16
    nerve = triangle_nerve()
    loop = [2.0 * math.pi * k / steps for k in range(steps)]
    cyclic = gerbe.EdgeSampleGraph(
        np.stack([rot(t) for t in loop]),
        adjacency=tuple((k, (k + 1) % steps) for k in range(steps)),
    )
    edges = {(0, 1): cyclic, (0, 2): chain_graph([0.0]), (1, 2): chain_graph([0.0])}
    data = gerbe.TransitionData(
        nerve=nerve, dimension=2, edges=edges, triples={(0, 1, 2): [(0, 0, 0)]}
    )
    with pytest.raises(gerbe.HolonomyError):
        gerbe.lift_transitions(data)


def test_sparse_sampling_raises_ambiguity():
    nerve = triangle_nerve()
    edges = {
        (0, 1): chain_graph([0.0, math.pi]),  # half turn in one hop
        (0, 2): chain_graph([0.0]),
        (1, 2): chain_graph([0.0]),
    }
    data = gerbe.TransitionData(
        nerve=nerve, dimension=2, edges=edges, triples={(0, 1, 2): [(0, 0, 0)]}
    )
    with pytest.raises(LiftAmbiguityError, match="resample"):
        gerbe.lift_transitions(data)


def test_ambiguity_in_an_overlap_keeps_type_fields_and_names_the_overlap():
    nerve = triangle_nerve()
    edges = {
        (0, 1): chain_graph([0.0, 0.4, 0.4 + 0.95 * math.pi]),
        (0, 2): chain_graph([0.0]),
        (1, 2): chain_graph([0.0]),
    }
    data = gerbe.TransitionData(
        nerve=nerve, dimension=2, edges=edges, triples={(0, 1, 2): [(0, 0, 0)]}
    )
    with pytest.raises(LiftAmbiguityError) as info:
        gerbe.lift_transitions(data)
    err = info.value
    assert abs(err.d_plus - err.d_minus) < err.ambiguity_gap == 0.5
    assert "overlap (0, 1), samples 1->2" in str(err)
    assert isinstance(err.__cause__, LiftAmbiguityError)


@pytest.mark.parametrize("bad", [
    {5: np.diag([1.0, -1.0])},  # orthogonal, determinant -1
    {5: rot(0.5) * (1.0 + 1e-8), 6: np.diag([1.0, -1.0])},  # 5 is not orthogonal
])
def test_validate_names_the_first_bad_sample(bad):
    mats = np.stack([rot(0.1 * k) for k in range(8)])
    for idx, mat in bad.items():
        mats[idx] = mat
    edges = {(0, 1): gerbe.EdgeSampleGraph(mats), (0, 2): chain_graph([0.0]),
             (1, 2): chain_graph([0.0])}
    data = gerbe.TransitionData(
        nerve=triangle_nerve(), dimension=2, edges=edges, triples={(0, 1, 2): [(0, 0, 0)]}
    )
    with pytest.raises(ValueError, match=r"sample 5 on overlap \(0, 1\) is not in SO"):
        data.validate()


def test_lifting_the_frame_manifest_builds_no_clifford_elements(monkeypatch):
    data = parse_manifest(sphere_frame_manifest()).transitions.validate()
    built = []
    original = CliffordElement.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(CliffordElement, "__init__", counting_init)
    lifted, _ = gerbe.lift_transitions(data, seed=3)
    assert sum(len(lifts) for lifts in lifted.lifts.values()) > 0
    assert built == []


# ---------------------------------------------------------------------------
# modules over the lift

def spin_setup(data_builder=winding_triangle_data):
    data = data_builder()
    lifted, cocycle = gerbe.lift_transitions(data)
    return data, lifted, cocycle, gerbe.spin_module(lifted)


def test_spin_module_verifies_with_its_cocycle():
    _, _, cocycle, sigma = spin_setup()
    check = gerbe.verify_module(sigma, cocycle)
    assert check.ok
    assert check.max_residual < 1e-9


def test_identity_module_verifies_untwisted():
    data = identity_triangle_data()
    _, cocycle = gerbe.lift_transitions(data)
    mod = gerbe.identity_module(data, rank=2)
    assert gerbe.verify_module(mod, cocycle).ok


def test_edge_negation_consistency():
    # negating one edge lift flips the cocycle; the flipped spin module
    # verifies against the flipped cocycle, while a weight-0 module with the
    # same negation fails against any cocycle value
    data = winding_triangle_data()
    lifted, cocycle = gerbe.lift_transitions(data, sign_flips=[(0, 1)])
    sigma = gerbe.spin_module(lifted)
    assert cocycle.cochain.values == (0,)  # winding sign got cancelled
    assert gerbe.verify_module(sigma, cocycle).ok
    flat = gerbe.identity_module(data, rank=1)
    negated = {
        e: (-arr if e == (0, 1) else arr) for e, arr in flat.transitions.items()
    }
    broken = gerbe.GerbeModuleData(
        nerve=flat.nerve,
        band_order=2,
        weight=0,
        rank=1,
        transitions=negated,
        triples=flat.triples,
    )
    assert not gerbe.verify_module(broken, cocycle).ok


def test_verify_requires_definite_weight_and_matching_band():
    data = identity_triangle_data()
    _, cocycle = gerbe.lift_transitions(data)
    mod = gerbe.identity_module(data, rank=1)
    vague = gerbe.GerbeModuleData(
        nerve=mod.nerve,
        band_order=2,
        weight=None,
        rank=1,
        transitions=mod.transitions,
        triples=mod.triples,
    )
    with pytest.raises(ValueError, match="weight"):
        gerbe.verify_module(vague, cocycle)


def test_tensor_weights_add_mod_k():
    _, _, cocycle, sigma = spin_setup()
    prod = gerbe.tensor_modules(sigma, sigma)
    assert prod.weight == 0  # 1 + 1 = 0 at band order 2
    assert prod.rank == 4
    assert gerbe.verify_module(prod, cocycle).max_residual < 1e-9
    # tensoring with the trivial rank-1 module changes nothing
    unit = gerbe.identity_module(sigma, rank=1)
    same = gerbe.tensor_modules(sigma, unit)
    assert same.weight == sigma.weight
    for edge in sigma.transitions:
        assert np.abs(same.transitions[edge] - sigma.transitions[edge]).max() < 1e-14


def test_tensor_is_associative_and_weight_commutative():
    _, _, cocycle, sigma = spin_setup()
    unit2 = gerbe.identity_module(sigma, rank=2)
    left = gerbe.tensor_modules(gerbe.tensor_modules(sigma, unit2), sigma)
    right = gerbe.tensor_modules(sigma, gerbe.tensor_modules(unit2, sigma))
    assert left.weight == right.weight
    assert left.rank == right.rank
    for edge in left.transitions:
        assert np.abs(left.transitions[edge] - right.transitions[edge]).max() < 1e-12
    # commutativity up to the factor-swap permutation
    ab = gerbe.tensor_modules(sigma, unit2)
    ba = gerbe.tensor_modules(unit2, sigma)
    perm = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            perm[j * 2 + i, i * 2 + j] = 1.0
    for edge in ab.transitions:
        swapped = perm.T @ ab.transitions[edge] @ perm
        assert np.abs(swapped - ba.transitions[edge]).max() < 1e-12


def test_direct_sum_blocks_and_weight_guard():
    data = identity_triangle_data()
    mod = gerbe.identity_module(data, rank=1)
    two = gerbe.direct_sum(mod, mod)
    assert two.rank == 2
    for arr in two.transitions.values():
        assert np.abs(arr - np.eye(2)).max() < 1e-14
    other = gerbe.identity_module(data, rank=1, weight=1)
    with pytest.raises(ValueError, match="weight"):
        gerbe.direct_sum(mod, other)


def test_chirality_blocks_reassemble_spin_module():
    # at fiber dimension 2 the lifts are diagonal in the chirality basis, so
    # the two rank-1 blocks are themselves modules and their sum is the whole
    _, _, cocycle, sigma = spin_setup()
    blocks = []
    for sl in (slice(0, 1), slice(1, 2)):
        trans = {e: arr[:, sl, sl] for e, arr in sigma.transitions.items()}
        blocks.append(
            gerbe.GerbeModuleData(
                nerve=sigma.nerve,
                band_order=2,
                weight=1,
                rank=1,
                transitions=trans,
                triples=sigma.triples,
            )
        )
    for block in blocks:
        assert gerbe.verify_module(block, cocycle).ok
    total = gerbe.direct_sum(blocks[0], blocks[1])
    for edge in sigma.transitions:
        assert np.abs(total.transitions[edge] - sigma.transitions[edge]).max() < 1e-12


def test_endomorphism_descent_untwists():
    _, _, cocycle, sigma = spin_setup()
    endo = gerbe.endomorphism_descent(sigma)
    assert endo.weight == 0
    assert endo.rank == 4
    zero = gerbe.zero_gerbe_cocycle(sigma.nerve)
    assert gerbe.verify_module(endo, zero).max_residual < 1e-9
    bundle = gerbe.descend_weight_zero(endo)
    assert bundle.rank == 4
    # rescaling transitions by a band phase does not change the descent
    flipped = {
        e: (-arr if e == (0, 1) else arr) for e, arr in sigma.transitions.items()
    }
    sigma2 = gerbe.GerbeModuleData(
        nerve=sigma.nerve,
        band_order=2,
        weight=1,
        rank=2,
        transitions=flipped,
        triples=sigma.triples,
    )
    endo2 = gerbe.endomorphism_descent(sigma2)
    for edge in endo.transitions:
        assert np.abs(endo.transitions[edge] - endo2.transitions[edge]).max() < 1e-12


def test_rank_one_endomorphisms_trivialize():
    _, _, _, sigma = spin_setup()
    block = gerbe.GerbeModuleData(
        nerve=sigma.nerve,
        band_order=2,
        weight=1,
        rank=1,
        transitions={e: arr[:, :1, :1] for e, arr in sigma.transitions.items()},
        triples=sigma.triples,
    )
    endo = gerbe.endomorphism_descent(block)
    for arr in endo.transitions.values():
        assert np.abs(arr - 1.0).max() < 1e-12


def test_descend_rejects_nonzero_weight():
    _, _, _, sigma = spin_setup()
    with pytest.raises(ValueError, match="descend"):
        gerbe.descend_weight_zero(sigma)


def test_weight_decompose_trivial_actions():
    data = identity_triangle_data()
    mod = gerbe.identity_module(data, rank=3)
    verts = {v for (v,) in data.nerve.simplices[0]}
    parts = gerbe.weight_decompose({v: np.eye(3) for v in verts}, mod)
    assert [(p.weight, p.rank) for p in parts] == [(0, 3)]
    parts = gerbe.weight_decompose({v: -np.eye(3) for v in verts}, mod)
    assert [(p.weight, p.rank) for p in parts] == [(1, 3)]


def test_weight_decompose_splits_mixed_module():
    data, lifted, cocycle, sigma = spin_setup()
    # assemble sigma (weight 1, rank 2) with a trivial line (weight 0) into a
    # rank-3 module of indefinite weight, then split it again
    mixed_trans = {}
    for edge, arr in sigma.transitions.items():
        count = arr.shape[0]
        block = np.zeros((count, 3, 3), dtype=complex)
        block[:, :2, :2] = arr
        block[:, 2, 2] = 1.0
        mixed_trans[edge] = block
    mixed = gerbe.GerbeModuleData(
        nerve=sigma.nerve,
        band_order=2,
        weight=None,
        rank=3,
        transitions=mixed_trans,
        triples=sigma.triples,
    )
    verts = {v for (v,) in data.nerve.simplices[0]}
    action = {v: np.diag([-1.0, -1.0, 1.0]) for v in verts}
    parts = gerbe.weight_decompose(action, mixed)
    assert [(p.weight, p.rank) for p in parts] == [(0, 1), (1, 2)]
    for part in parts:
        assert gerbe.verify_module(part, cocycle).ok
    with pytest.raises(ValueError, match="commute"):
        off = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        gerbe.weight_decompose({v: off for v in verts}, mixed)
