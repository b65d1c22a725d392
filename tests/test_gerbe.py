import dataclasses
import math
import re

import numpy as np
import pytest

import oracles
from oracles import CliffordElement, element_of
from gerbedex import cech, gerbe
from gerbedex.clifford import (
    LiftAmbiguityError,
    SpinElement,
    canonical_lifts,
    lift_signs,
    spinor_rep,
)
from gerbedex.manifest import parse_manifest, run_tasks, sphere_frame_manifest
from gerbedex.registry import sphere_frame_transitions


def rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def sampled(matrices, adjacency=None, basepoint=0):
    """One overlap's sample stack and its sample graph."""
    return matrices, gerbe.EdgeSampleGraph(len(matrices), adjacency=adjacency,
                                           basepoint=basepoint)


def chain_graph(thetas, basepoint=0):
    return sampled(np.stack([rot(t) for t in thetas]), basepoint=basepoint)


def transition_data(nerve, edges, triples, dimension=2):
    """TransitionData on a cover of its own, from {edge: (samples, graph)}."""
    cover = gerbe.SampleCover(nerve, {e: graph for e, (_, graph) in edges.items()}, triples)
    return gerbe.TransitionData(cover, dimension, {e: mats for e, (mats, _) in edges.items()})


def triangle_nerve():
    return cech.Nerve.from_simplices([(0, 1, 2)])


def identity_triangle_data():
    nerve = triangle_nerve()
    edges = {e: chain_graph([0.0]) for e in nerve.simplices[1]}
    triples = {(0, 1, 2): [(0, 0, 0)]}
    return transition_data(nerve, edges, triples)


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
    return transition_data(nerve, edges, triples)


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
    return transition_data(nerve, edges, triples)


# ---------------------------------------------------------------------------
# sample graphs and raw data validation

def test_graph_default_chain_and_connectivity():
    _, g = chain_graph([0.0, 0.1, 0.2])
    assert g.adjacency == ((0, 1), (1, 2))
    with pytest.raises(ValueError, match="connected"):
        gerbe.EdgeSampleGraph(3, adjacency=((0, 1),))
    with pytest.raises(ValueError, match="adjacency"):
        gerbe.EdgeSampleGraph(2, adjacency=((0, 5),))



def test_transition_data_keeps_its_own_copy_of_the_samples():
    mats = np.stack([rot(0.0), rot(0.1)])
    edges = {e: chain_graph([0.0, 0.0]) for e in triangle_nerve().simplices[1]}
    edges[(0, 1)] = sampled(mats)
    data = transition_data(triangle_nerve(), edges, {(0, 1, 2): [(0, 0, 0)]})
    mats[0] = rot(2.0)
    assert np.array_equal(data.matrices[(0, 1)][0], rot(0.0))


def test_transition_data_rejects_a_reversed_edge_key():
    edges = {(1, 0): chain_graph([0.3]), (0, 2): chain_graph([0.0]),
             (1, 2): chain_graph([0.0])}
    with pytest.raises(ValueError, match=r"edge key \(1, 0\) is not in increasing order"):
        transition_data(triangle_nerve(), edges, {(0, 1, 2): [(0, 0, 0)]})


def test_module_rejects_a_reversed_edge_key():
    phase = np.exp(0.3j) * np.ones((1, 1, 1))
    cover = gerbe.SampleCover(cech.Nerve.from_simplices([(0, 1)]),
                              {(0, 1): gerbe.EdgeSampleGraph(1)}, {})
    with pytest.raises(ValueError, match=r"edge key \(1, 0\) is not in increasing order"):
        gerbe.GerbeModuleData(cover, band_order=2, weight=0, rank=1,
                              transitions={(1, 0): phase})


def test_transition_data_rejects_an_unsorted_triple_key():
    # sorting the key would read (i_ab, i_bc, i_ac) against the wrong edges
    edges = {e: chain_graph([0.0, 0.1]) for e in triangle_nerve().simplices[1]}
    with pytest.raises(ValueError, match=r"triple key \(1, 0, 2\) is not in increasing order"):
        transition_data(triangle_nerve(), edges, {(1, 0, 2): [(1, 1, 0)]})


def test_module_rejects_an_unsorted_triple_key():
    flat = gerbe.identity_module(identity_triangle_data().cover)
    with pytest.raises(ValueError, match=r"triple key \(1, 0, 2\) is not in increasing order"):
        gerbe.GerbeModuleData(gerbe.SampleCover(flat.nerve, flat.edges, {(1, 0, 2): [(0, 0, 0)]}),
                              band_order=2, weight=0, rank=1, transitions=flat.transitions)


def test_a_triple_key_that_is_not_a_2_simplex_is_refused():
    # the hollow triangle has all three edges but no 2-simplex
    hollow = cech.Nerve.from_simplices([(0, 1), (1, 2), (0, 2)])
    edges = {e: chain_graph([0.0]) for e in hollow.simplices[1]}
    graphs = {e: graph for e, (_, graph) in edges.items()}
    ones = {e: np.ones((1, 1, 1)) for e in hollow.simplices[1]}
    message = r"triple key \(0, 1, 2\) is not a 2-simplex of the nerve"
    with pytest.raises(ValueError, match=message):
        transition_data(hollow, edges, {(0, 1, 2): [(0, 0, 0)]})
    with pytest.raises(ValueError, match=message):
        gerbe.GerbeModuleData(gerbe.SampleCover(hollow, graphs, {(0, 1, 2): [(0, 0, 0)]}),
                              band_order=2, weight=0, rank=1, transitions=ones)


def five_sample_triangle(triples):
    """Builders of TransitionData and of a rank-1 module on the triangle nerve,
    five samples per edge."""
    nerve = triangle_nerve()
    edges = {e: chain_graph([0.0] * 5) for e in nerve.simplices[1]}
    graphs = {e: graph for e, (_, graph) in edges.items()}
    ones = {e: np.ones((5, 1, 1)) for e in nerve.simplices[1]}
    return (
        lambda: transition_data(nerve, edges, triples),
        lambda: gerbe.GerbeModuleData(gerbe.SampleCover(nerve, graphs, triples), band_order=2,
                                      weight=0, rank=1, transitions=ones),
    )


@pytest.mark.parametrize("entry", [(-1, 0, -1), (9, 0, 9), (0, 5, 0), (0, 0, 5)])
def test_out_of_range_triple_indices_are_refused_at_construction(entry):
    for build in five_sample_triangle({(0, 1, 2): [(4, 4, 4), entry]}):
        with pytest.raises(ValueError, match=rf"triple {re.escape(str(entry))} on "
                                             r"\(0, 1, 2\) is out of range"):
            build()


def test_module_keeps_its_own_copy_of_the_transitions():
    phases = np.ones((2, 1, 1), dtype=complex)
    cover = gerbe.SampleCover(cech.Nerve.from_simplices([(0, 1)]),
                              {(0, 1): gerbe.EdgeSampleGraph(2)}, {})
    module = gerbe.GerbeModuleData(cover, band_order=2, weight=0, rank=1,
                                   transitions={(0, 1): phases})
    phases[0] = -1.0
    assert np.all(module.transitions[(0, 1)] == 1.0)

def test_frozen_samples_and_mappings_reject_writes():
    data = chart_path_data(seed=5)
    graph = data.edges[(0, 1)]
    with pytest.raises(ValueError, match="read-only"):
        data.matrices[(0, 1)][0] = rot(1.0)
    with pytest.raises(TypeError):
        data.edges[(0, 1)] = chain_graph([1.0] * graph.count)
    with pytest.raises(TypeError):
        data.triples[(0, 1, 2)] = ((1, 1, 1),)
    lifted, _ = gerbe.lift_transitions(data)
    with pytest.raises(ValueError, match="read-only"):
        lifted.unitaries[(0, 1)][0] *= -1.0
    with pytest.raises(TypeError):
        lifted.unitaries[(0, 1)] = -lifted.unitaries[(0, 1)]
    module = gerbe.spin_module(lifted)
    with pytest.raises(ValueError, match="read-only"):
        module.transitions[(0, 1)][0] = 0.0
    with pytest.raises(TypeError):
        module.transitions[(0, 1)] = module.transitions[(0, 2)]
    with pytest.raises(TypeError):
        module.triples[(0, 1, 2)] = ((1, 1, 1),)


def test_validate_remembers_a_pass_per_tolerance(monkeypatch):
    data = chart_path_data(seed=6)
    checked = []
    original = gerbe.TransitionData._check

    def counting_check(self, tol):
        checked.append(tol)
        original(self, tol)

    monkeypatch.setattr(gerbe.TransitionData, "_check", counting_check)
    for _ in range(3):
        assert data.validate() is data
        gerbe.lift_transitions(data)
    data.validate(1e-12)
    data.validate(1e-12)
    assert checked == [1e-10, 1e-12]


def test_validate_does_not_remember_a_failure():
    skew = {e: chain_graph([0.0]) for e in triangle_nerve().simplices[1]}
    skew[(0, 1)] = chain_graph([0.3])
    data = transition_data(triangle_nerve(), skew, {(0, 1, 2): [(0, 0, 0)]})
    for _ in range(2):
        with pytest.raises(ValueError, match="cocycle"):
            data.validate()
    data.validate(tol=0.5)
    with pytest.raises(ValueError, match="cocycle"):
        gerbe.lift_transitions(data)


def test_transition_data_validation():
    nerve = triangle_nerve()
    edges = {e: chain_graph([0.0]) for e in nerve.simplices[1]}
    with pytest.raises(ValueError, match="missing triple"):
        transition_data(nerve, edges, {})
    bad = dict(edges)
    bad[(0, 1)] = sampled(np.stack([np.diag([2.0, 0.5])]))
    data = transition_data(nerve, bad, {(0, 1, 2): [(0, 0, 0)]})
    with pytest.raises(ValueError, match="SO"):
        data.validate()
    # cocycle violation at the triple point
    skew = dict(edges)
    skew[(0, 1)] = chain_graph([0.3])
    data = transition_data(nerve, skew, {(0, 1, 2): [(0, 0, 0)]})
    with pytest.raises(ValueError, match="cocycle"):
        data.validate()


# ---------------------------------------------------------------------------
# lifting and the sign cocycle

def test_identity_transitions_lift_to_one():
    lifted, cocycle = gerbe.lift_transitions(identity_triangle_data())
    for stack in lifted.unitaries.values():
        for u in stack:
            assert abs(element_of(SpinElement(2, u)).scalar_part() - 1.0) < 1e-12
    assert cocycle.cochain.values == (0,)
    assert cocycle.trivial


def test_winding_edge_produces_sign():
    lifted, cocycle = gerbe.lift_transitions(winding_triangle_data())
    end = SpinElement(2, lifted.unitaries[(0, 1)][-1])
    assert (element_of(end) - CliffordElement.scalar(2, -1.0)).norm() < 1e-9
    assert cocycle.cochain.values == (1,)
    # one triangle cannot carry cohomology: the sign is a coboundary
    assert cocycle.trivial


def test_lift_matches_samples_everywhere():
    data = chart_path_data(seed=3)
    lifted, _ = gerbe.lift_transitions(data)
    for edge, graph in data.edges.items():
        for idx in range(graph.count):
            proj = SpinElement(2, lifted.unitaries[edge][idx]).adjoint_matrix()
            assert np.abs(proj - data.matrices[edge][idx]).max() < 1e-9


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
    cyclic = sampled(
        np.stack([rot(t) for t in loop]),
        adjacency=tuple((k, (k + 1) % steps) for k in range(steps)),
    )
    edges = {(0, 1): cyclic, (0, 2): chain_graph([0.0]), (1, 2): chain_graph([0.0])}
    data = transition_data(nerve, edges, {(0, 1, 2): [(0, 0, 0)]})
    with pytest.raises(gerbe.HolonomyError):
        gerbe.lift_transitions(data)


@pytest.mark.parametrize("seed", range(10))
def test_holonomy_error_on_winding_loop_for_any_spanning_tree(seed):
    steps = 16
    loop = [2.0 * math.pi * k / steps for k in range(steps)]
    # a winding cycle with chords, so each seed and basepoint walks its own tree
    adjacency = [(k, (k + 1) % steps) for k in range(steps)]
    adjacency += [(k, k + 2) for k in range(0, steps - 2, 3)]
    cyclic = sampled(np.stack([rot(t) for t in loop]), adjacency=adjacency)
    edges = {(0, 1): cyclic, (0, 2): chain_graph([0.0]), (1, 2): chain_graph([0.0])}
    data = transition_data(triangle_nerve(), edges, {(0, 1, 2): [(0, 0, 0)]})
    # breadth-first transport from sample 0 runs both ways round the loop and
    # first fails to close where the two fronts meet, whatever the basepoint;
    # a failure is not remembered, so the second call raises again
    for _ in range(2):
        with pytest.raises(gerbe.HolonomyError, match=r"overlap \(0, 1\)") as info:
            gerbe.lift_transitions(data, seed=seed, basepoints={(0, 1): seed % steps})
        assert info.value.edge == (0, 1)
        assert info.value.samples == (8, 9)


def branching_path_data(samples=13):
    """chart_path_data with every overlap sampled on a branching graph.

    The samples form a chain with extra chords (k, k + 2) and (k, k + 3), so
    the graph has vertices of degree up to six and many short loops, all of
    which close because each overlap is an interval.
    """
    base = chart_path_data(seed=21, samples=samples)
    adjacency = [(k, k + 1) for k in range(samples - 1)]
    adjacency += [(k, k + 2) for k in range(0, samples - 2, 2)]
    adjacency += [(k + 3, k) for k in range(1, samples - 3, 3)]
    edges = {
        edge: sampled(base.matrices[edge], adjacency=adjacency, basepoint=samples // 2)
        for edge in base.edges
    }
    return transition_data(base.nerve, edges, base.triples)


def test_branching_sample_graphs_relift_to_one_class():
    data = branching_path_data()
    lifted, base = gerbe.lift_transitions(data)
    for edge, graph in data.edges.items():
        for idx in range(graph.count):
            proj = SpinElement(2, lifted.unitaries[edge][idx]).adjoint_matrix()
            assert np.abs(proj - data.matrices[edge][idx]).max() < 1e-9
    rng = np.random.default_rng(900)
    edges = list(data.edges)
    for _ in range(10):
        flips = [e for e in edges if rng.random() < 0.5]
        basepoints = {e: int(rng.integers(0, data.edges[e].count)) for e in edges}
        _, other = gerbe.lift_transitions(
            data, seed=int(rng.integers(1 << 30)), sign_flips=flips, basepoints=basepoints
        )
        diff = cech.Cochain(
            2, 2, tuple(a + b for a, b in zip(base.cochain.values, other.cochain.values))
        )
        assert cech.solve_coboundary(diff, data.nerve) is not None


def test_lift_transitions_lifts_each_overlap_in_one_call_of_its_own(monkeypatch):
    from gerbedex import clifford

    calls = []
    stacked = gerbe.canonical_lifts

    def counting_lifts(matrices, *args, **kwargs):
        calls.append(matrices)
        return stacked(matrices, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-sample lift called")

    monkeypatch.setattr(gerbe, "canonical_lifts", counting_lifts)
    monkeypatch.setattr(clifford, "nearest_lift", forbidden)
    monkeypatch.setattr(clifford, "canonical_lift", forbidden)
    data = branching_path_data()
    gerbe.lift_transitions(data, seed=5, sign_flips=[(0, 1)])
    edges = sorted(data.edges)
    assert len(calls) == len(edges)
    for matrices, edge in zip(calls, edges):
        assert len(matrices) == data.edges[edge].count
        assert np.array_equal(matrices, data.matrices[edge])
    assert not hasattr(gerbe, "nearest_lift") and not hasattr(gerbe, "canonical_lift")


def test_sparse_sampling_raises_ambiguity():
    nerve = triangle_nerve()
    edges = {
        (0, 1): chain_graph([0.0, math.pi]),  # half turn in one hop
        (0, 2): chain_graph([0.0]),
        (1, 2): chain_graph([0.0]),
    }
    data = transition_data(nerve, edges, {(0, 1, 2): [(0, 0, 0)]})
    with pytest.raises(LiftAmbiguityError, match="resample"):
        gerbe.lift_transitions(data)


def test_ambiguity_in_an_overlap_keeps_type_fields_and_names_the_overlap():
    nerve = triangle_nerve()
    edges = {
        (0, 1): chain_graph([0.0, 0.4, 0.4 + 0.95 * math.pi]),
        (0, 2): chain_graph([0.0]),
        (1, 2): chain_graph([0.0]),
    }
    data = transition_data(nerve, edges, {(0, 1, 2): [(0, 0, 0)]})
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
    edges = {(0, 1): sampled(mats), (0, 2): chain_graph([0.0]),
             (1, 2): chain_graph([0.0])}
    data = transition_data(triangle_nerve(), edges, {(0, 1, 2): [(0, 0, 0)]})
    with pytest.raises(ValueError, match=r"sample 5 on overlap \(0, 1\) is not in SO"):
        data.validate()


def test_lifting_the_frame_manifest_builds_no_clifford_elements(monkeypatch):
    data = parse_manifest(sphere_frame_manifest()).transitions.validate()
    built = []
    original = oracles.CliffordElement.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(oracles.CliffordElement, "__init__", counting_init)
    lifted, _ = gerbe.lift_transitions(data, seed=3)
    assert sum(len(stack) for stack in lifted.unitaries.values()) > 0
    assert built == []


# ---------------------------------------------------------------------------
# the per-overlap spanning-tree walk, kept as the oracle of the stacked pass

def oracle_edge_lifts(edge, graph, matrices, base, flip, rng, ambiguity_gap):
    """Lifts of one overlap by a seeded depth-first walk from `base`."""
    canon = canonical_lifts(matrices)
    pairs = np.array(graph.adjacency, dtype=int).reshape(-1, 2)
    try:
        relative = lift_signs(canon[pairs[:, 1]], canon[pairs[:, 0]], ambiguity_gap)
    except LiftAmbiguityError as exc:
        i, j = graph.adjacency[exc.pair]
        raise LiftAmbiguityError(
            f"overlap {edge}, samples {i}->{j}: {exc}; resample the overlap more densely",
            exc.d_plus, exc.d_minus, exc.ambiguity_gap,
        ) from exc
    signs = np.zeros(graph.count)
    signs[base] = -1.0 if flip else 1.0
    on_tree = np.zeros(len(pairs), dtype=bool)
    frontier = [base]
    neighbours = graph.neighbour_table()
    while frontier:
        node = frontier.pop()
        order = rng.permutation(len(neighbours[node])) if rng is not None else range(
            len(neighbours[node])
        )
        for pos in order:
            nb, k = neighbours[node][pos]
            if signs[nb]:
                continue
            signs[nb] = signs[node] * relative[k]
            on_tree[k] = True
            frontier.append(nb)
    off = ~on_tree
    closure = np.abs(signs[pairs[off, 0]] * relative[off] - signs[pairs[off, 1]])
    if (closure > 1.0).any():
        raise gerbe.HolonomyError(
            f"sign holonomy around a loop in overlap {edge}: "
            "the overlap is not simply connected (cover is not good)",
            edge, first_open_adjacency(graph, relative),
        )
    return signs[:, None, None] * canon


def first_open_adjacency(graph, relative):
    """The first adjacency, in the graph's order, whose relative sign disagrees
    with the signs carried breadth-first from sample 0 (the cached tree)."""
    signs, order = {0: 1.0}, [0]
    neighbours = graph.neighbour_table()
    for node in order:
        for nb, k in neighbours[node]:
            if nb not in signs:
                signs[nb] = signs[node] * relative[k]
                order.append(nb)
    return next((i, j) for (i, j), r in zip(graph.adjacency, relative)
                if signs[i] * r != signs[j])


def oracle_lift_transitions(data, seed=None, sign_flips=None, basepoints=None,
                            ambiguity_gap=0.5):
    """lift_transitions one overlap at a time, each by its own tree walk."""
    data.validate()
    rng = np.random.default_rng(seed) if seed is not None else None
    sign_flips = frozenset(gerbe._ordered_edge(*e) for e in (sign_flips or ()))
    basepoints = {gerbe._ordered_edge(*k): v for k, v in (basepoints or {}).items()}
    unitaries = {}
    for edge in sorted(data.edges):
        graph = data.edges[edge]
        base = basepoints.get(edge, graph.basepoint)
        unitaries[edge] = oracle_edge_lifts(edge, graph, data.matrices[edge], base,
                                            edge in sign_flips, rng, ambiguity_gap)
    values = gerbe._triple_signs(data, unitaries)
    return unitaries, gerbe.GerbeCocycle(data.nerve, cech.Cochain(2, 2, values))


def assert_lift_matches_oracle(data, **options):
    """Bitwise-equal lifts and an equal cocycle, or the same error."""
    try:
        unitaries, cocycle = oracle_lift_transitions(data, **options)
    except (LiftAmbiguityError, gerbe.HolonomyError) as expected:
        with pytest.raises(type(expected)) as info:
            gerbe.lift_transitions(data, **options)
        err = info.value
        assert str(err) == str(expected)
        assert vars(err) == vars(expected)
        assert type(err.__cause__) is type(expected.__cause__)
        assert str(err.__cause__) == str(expected.__cause__)
        return expected
    lifted, got = gerbe.lift_transitions(data, **options)
    assert list(lifted.unitaries) == list(unitaries)
    for edge, stack in unitaries.items():
        assert np.array_equal(lifted.unitaries[edge], stack)
    assert got.cochain == cocycle.cochain
    return None


def random_relift_options(rng, data):
    edges = sorted(data.edges)
    return {
        "seed": int(rng.integers(1 << 30)),
        "sign_flips": [e for e in edges if rng.random() < 0.5],
        "basepoints": {e: int(rng.integers(data.edges[e].count)) for e in edges},
    }


def test_stacked_lift_matches_the_oracle_on_the_frame_manifest():
    data = parse_manifest(sphere_frame_manifest()).transitions
    assert_lift_matches_oracle(data)
    rng = np.random.default_rng(1300)
    for _ in range(50):
        assert_lift_matches_oracle(data, **random_relift_options(rng, data))


@pytest.mark.parametrize("seed", [None, 0, 3, 11, 12, 29])
def test_stacked_lift_matches_the_oracle_on_path_data(seed):
    data = branching_path_data() if seed is None else chart_path_data(seed=seed, samples=9)
    assert_lift_matches_oracle(data)
    rng = np.random.default_rng(1310)
    for _ in range(8):
        assert_lift_matches_oracle(data, **random_relift_options(rng, data))


def test_stacked_lift_matches_the_oracle_on_the_torus_frames():
    # a parallelized torus: identity frame changes on a 2x2 block cover,
    # whose nerve is one filled tetrahedron
    nerve = cech.Nerve.from_simplices([(0, 1, 2, 3)])
    edges = {edge: sampled(np.broadcast_to(np.eye(2), (8, 2, 2)).copy())
             for edge in nerve.simplices[1]}
    triples = {tri: ((0, 0, 0),) for tri in nerve.simplices[2]}
    data = transition_data(nerve, edges, triples)
    assert_lift_matches_oracle(data)
    rng = np.random.default_rng(1320)
    for _ in range(8):
        assert_lift_matches_oracle(data, **random_relift_options(rng, data))


def test_stacked_lift_matches_the_oracle_on_a_long_chain_based_at_its_far_end():
    count = 2049
    # four full turns in small hops: the lift changes sign after each turn
    chain = chain_graph(np.linspace(0.0, 8.0 * math.pi, count), basepoint=count - 1)
    edges = {(0, 1): chain, (0, 2): chain_graph([0.0]), (1, 2): chain_graph([0.0])}
    data = transition_data(triangle_nerve(), edges, {(0, 1, 2): [(0, 0, 0), (count - 1, 0, 0)]})
    assert_lift_matches_oracle(data)
    assert_lift_matches_oracle(data, sign_flips=[(0, 1)], basepoints={(0, 1): count // 3})
    assert_lift_matches_oracle(data, basepoints={(1, 0): -1})


def test_stacked_lift_matches_the_oracle_on_a_star_graph():
    rng = np.random.default_rng(1330)
    count, centre = 40, 17
    angles = 2.5 + rng.uniform(-1.0, 1.0, count)
    star = sampled(
        np.stack([rot(t) for t in angles]),
        adjacency=[(centre, k) if k % 2 else (k, centre) for k in range(count) if k != centre],
    )
    identity = chain_graph([0.0])
    data = transition_data(
        triangle_nerve(),
        {(0, 1): identity, (0, 2): star, (1, 2): chain_graph([angles[0]])},
        {(0, 1, 2): [(0, 0, 0)]},
    )
    assert_lift_matches_oracle(data)
    for _ in range(8):
        assert_lift_matches_oracle(data, **random_relift_options(rng, data))


def test_stacked_lift_of_a_nerve_without_overlaps():
    nerve = cech.Nerve.from_simplices([(0,), (1,)])
    data = transition_data(nerve, {}, {})
    lifted, cocycle = gerbe.lift_transitions(data, sign_flips=[(0, 1)])
    assert dict(lifted.unitaries) == {}
    assert cocycle.cochain.values == ()


def winding_cycle(steps=16, chords=False):
    loop = [2.0 * math.pi * k / steps for k in range(steps)]
    adjacency = [(k, (k + 1) % steps) for k in range(steps)]
    if chords:
        adjacency += [(k, k + 2) for k in range(0, steps - 2, 3)]
    return sampled(np.stack([rot(t) for t in loop]), adjacency=adjacency)


@pytest.mark.parametrize("edges", [
    # holonomy on one overlap, with and without chords
    {(0, 1): winding_cycle()},
    {(0, 1): winding_cycle(chords=True)},
    # holonomy on two overlaps: the first in sorted order is named
    {(0, 2): winding_cycle(), (1, 2): winding_cycle(chords=True)},
    # an ambiguous pair, alone or late in its overlap
    {(0, 1): chain_graph([0.0, math.pi])},
    {(0, 1): chain_graph([0.0, 0.4, 0.4 + 0.95 * math.pi])},
    # holonomy before an ambiguity, and an ambiguity before holonomy
    {(0, 1): winding_cycle(), (0, 2): chain_graph([0.0, math.pi])},
    {(0, 1): chain_graph([0.0, math.pi]), (0, 2): winding_cycle()},
])
def test_stacked_lift_fails_as_the_oracle_does(edges):
    identity = chain_graph([0.0])
    edges = {e: edges.get(e, identity) for e in triangle_nerve().simplices[1]}
    data = transition_data(triangle_nerve(), edges, {(0, 1, 2): [(0, 0, 0)]})
    moved = {e: 1 for e, (_, graph) in edges.items() if graph.count > 1}
    for seed in (None, 0, 1, 2):
        assert assert_lift_matches_oracle(data, seed=seed) is not None
        assert assert_lift_matches_oracle(data, seed=seed, basepoints=moved) is not None


def test_relift_walks_no_sample_graph_in_python(monkeypatch):
    data = branching_path_data()
    gerbe.lift_transitions(data)

    def forbidden(self):
        raise AssertionError("per-sample walk in lift_transitions")

    monkeypatch.setattr(gerbe.EdgeSampleGraph, "neighbour_table", forbidden)
    gerbe.lift_transitions(data, sign_flips=[(0, 1)], basepoints={(1, 2): 4})


def test_relifts_of_remembered_lifts_equal_relifts_of_a_fresh_parse():
    doc = sphere_frame_manifest()
    data = parse_manifest(doc).transitions
    gerbe.lift_transitions(data)
    rng = np.random.default_rng(2300)
    for _ in range(20):
        options = random_relift_options(rng, data)
        lifted, cocycle = gerbe.lift_transitions(data, **options)
        fresh, expected = gerbe.lift_transitions(parse_manifest(doc).transitions, **options)
        assert list(lifted.unitaries) == list(fresh.unitaries)
        for edge, stack in fresh.unitaries.items():
            assert np.array_equal(lifted.unitaries[edge], stack)
        assert cocycle.cochain.values == expected.cochain.values


def test_canonical_lifts_run_once_per_data_and_gap(monkeypatch):
    parsed = parse_manifest(sphere_frame_manifest())
    calls = []
    stacked = gerbe.canonical_lifts

    def counting_lifts(matrices, *args, **kwargs):
        calls.append(len(matrices))
        return stacked(matrices, *args, **kwargs)

    monkeypatch.setattr(gerbe, "canonical_lifts", counting_lifts)
    report, ok = run_tasks(parsed, seed=7)
    assert ok and report["randomized_trials"] == 10
    data = parsed.transitions
    per_overlap = [data.edges[edge].count for edge in sorted(data.edges)]
    assert len(per_overlap) == 3 and calls == per_overlap
    rng = np.random.default_rng(2310)
    for _ in range(10):
        gerbe.lift_transitions(data, **random_relift_options(rng, data))
    assert calls == per_overlap
    for _ in range(3):
        gerbe.lift_transitions(data, ambiguity_gap=0.25)
    assert calls == per_overlap * 2


def test_triple_table_runs_once_per_cover(monkeypatch):
    doc = sphere_frame_manifest()
    calls = []
    original = gerbe._triple_table

    def counting_table(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(gerbe, "_triple_table", counting_table)
    parsed = parse_manifest(doc)
    report, ok = run_tasks(parsed, seed=7)
    assert ok and report["randomized_trials"] == 10
    lifted, _ = gerbe.lift_transitions(parsed.transitions, sign_flips=[(0, 1)])
    gerbe.spin_module(lifted)
    assert calls == [parsed.transitions.nerve]


def test_two_covers_built_alike_are_equal_and_data_compare_by_identity():
    first, second = sphere_frame_transitions(), sphere_frame_transitions()
    assert first.cover is not second.cover and first.cover == second.cover
    assert first.edges[(0, 1)] == second.edges[(0, 1)]
    assert first != second and first == first
    lifted, _ = gerbe.lift_transitions(first)
    other, _ = gerbe.lift_transitions(second)
    assert lifted != other
    sigma, tau = gerbe.spin_module(lifted), gerbe.spin_module(other)
    assert sigma != tau and sigma == sigma
    assert gerbe.descend_weight_zero(gerbe.endomorphism_descent(sigma)) != tau
    assert gerbe.tensor_modules(sigma, tau).cover is first.cover


def test_an_ambiguous_lift_raises_on_every_call_and_lifts_with_a_smaller_gap():
    edges = {e: chain_graph([0.0]) for e in triangle_nerve().simplices[1]}
    edges[(0, 1)] = chain_graph([0.0, 0.4, 0.4 + 0.95 * math.pi])
    data = transition_data(triangle_nerve(), edges, {(0, 1, 2): [(0, 0, 0)]})
    for _ in range(3):
        with pytest.raises(LiftAmbiguityError, match=r"overlap \(0, 1\), samples 1->2"):
            gerbe.lift_transitions(data)
    # the candidate distances differ by about 0.11 on the long hop
    assert assert_lift_matches_oracle(data, ambiguity_gap=0.05) is None
    with pytest.raises(LiftAmbiguityError):
        gerbe.lift_transitions(data)


def test_remembered_lifts_and_returned_unitaries_are_read_only_and_unshared():
    names = [f.name for f in dataclasses.fields(gerbe.TransitionData)]
    assert names == ["cover", "dimension", "matrices"]
    data = chart_path_data(seed=7)
    lifted, _ = gerbe.lift_transitions(data, sign_flips=[(0, 1)])
    relifted, _ = gerbe.lift_transitions(data, basepoints={(0, 2): 3})
    remembered = data._lifts[0.5]
    stacks = list(lifted.unitaries.values()) + list(relifted.unitaries.values())
    for array in remembered:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
        assert not any(np.shares_memory(array, stack) for stack in stacks)
    for stack in stacks:
        with pytest.raises(ValueError, match="read-only"):
            stack[0] *= -1.0
    assert not np.shares_memory(lifted.unitaries[(0, 1)], relifted.unitaries[(0, 1)])


def test_spanning_tree_takes_no_part_in_equality():
    names = [f.name for f in dataclasses.fields(gerbe.EdgeSampleGraph)]
    assert names == ["count", "adjacency", "basepoint"]
    _, graph = chain_graph([0.0, 0.1, 0.2], basepoint=2)
    assert graph == gerbe.EdgeSampleGraph(3, basepoint=2)
    # (child, parent, adjacency position) in breadth-first order from sample 0
    assert graph._tree == ((1, 0, 0), (2, 1, 1))


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


def test_spin_module_shares_the_cover_and_the_lift_stacks():
    data = parse_manifest(sphere_frame_manifest()).transitions
    lifted, _ = gerbe.lift_transitions(data, sign_flips=[(0, 2)])
    sigma = gerbe.spin_module(lifted)
    assert sigma.cover is data.cover
    assert set(sigma.transitions) == set(lifted.unitaries)
    for edge, stack in lifted.unitaries.items():
        assert np.shares_memory(sigma.transitions[edge], stack)


def test_identity_module_on_a_cover_keeps_its_weights_and_ranks():
    cover = identity_triangle_data().cover
    unit = gerbe.identity_module(cover)
    assert (unit.cover, unit.band_order, unit.weight, unit.rank) == (cover, 2, 0, 1)
    wide = gerbe.identity_module(cover, rank=3, weight=5, band_order=4)
    assert (wide.band_order, wide.weight, wide.rank) == (4, 1, 3)
    for edge, graph in cover.edges.items():
        assert np.array_equal(wide.transitions[edge],
                              np.broadcast_to(np.eye(3), (graph.count, 3, 3)))


def two_sample_cover(nerve=None, samples=2, triples=((0, 0, 0),)):
    nerve = nerve or triangle_nerve()
    return gerbe.SampleCover(nerve, dict.fromkeys(nerve.simplices[1],
                                                  gerbe.EdgeSampleGraph(samples)),
                             {(0, 1, 2): triples})


@pytest.mark.parametrize("other", [
    two_sample_cover(samples=3),  # other sample counts
    two_sample_cover(triples=((1, 1, 1),)),  # other triples
    two_sample_cover(cech.Nerve.from_simplices([(0, 1, 2)], vertex_count=4)),  # other nerve
], ids=["counts", "triples", "nerve"])
def test_modules_on_different_covers_are_refused(other):
    mod = gerbe.identity_module(two_sample_cover())
    assert gerbe.direct_sum(mod, gerbe.identity_module(two_sample_cover())).rank == 2
    for combine in (gerbe.tensor_modules, gerbe.direct_sum):
        with pytest.raises(ValueError, match="modules live on different covers"):
            combine(mod, gerbe.identity_module(other))


@pytest.mark.parametrize("build", [
    lambda cover, stacks: gerbe.TransitionData(cover, 1, stacks),
    lambda cover, stacks: gerbe.GerbeModuleData(cover, 2, 0, 1, stacks),
    lambda cover, stacks: gerbe.BundleData(cover, 1, stacks),
], ids=["TransitionData", "GerbeModuleData", "BundleData"])
def test_each_data_class_checks_its_stacks_against_the_cover(build):
    cover = two_sample_cover()
    ones = {edge: np.ones((2, 1, 1)) for edge in cover.edges}
    assert build(cover, ones).cover is cover
    with pytest.raises(ValueError, match=r"on overlap \(0, 2\) have shape \(3, 1, 1\), not "
                                         r"\(2, 1, 1\): wrong matrix size or sample count"):
        build(cover, {**ones, (0, 2): np.ones((3, 1, 1))})
    with pytest.raises(ValueError, match=r"given on overlaps \[\(0, 1\), \(0, 2\)\], not on "
                                         r"the cover's \[\(0, 1\), \(0, 2\), \(1, 2\)\]"):
        build(cover, {edge: v for edge, v in ones.items() if edge != (1, 2)})
    with pytest.raises(ValueError, match=r"given on overlaps \[\(0, 1\), \(0, 2\), \(0, 3\), "):
        build(cover, {**ones, (0, 3): np.ones((2, 1, 1))})


def test_identity_module_verifies_untwisted():
    data = identity_triangle_data()
    _, cocycle = gerbe.lift_transitions(data)
    mod = gerbe.identity_module(data.cover, rank=2)
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
    flat = gerbe.identity_module(data.cover, rank=1)
    negated = {
        e: (-arr if e == (0, 1) else arr) for e, arr in flat.transitions.items()
    }
    broken = gerbe.GerbeModuleData(
        cover=flat.cover,
        band_order=2,
        weight=0,
        rank=1,
        transitions=negated,
    )
    assert not gerbe.verify_module(broken, cocycle).ok


def test_verify_requires_definite_weight_and_matching_band():
    data = identity_triangle_data()
    _, cocycle = gerbe.lift_transitions(data)
    mod = gerbe.identity_module(data.cover, rank=1)
    vague = gerbe.GerbeModuleData(
        cover=mod.cover,
        band_order=2,
        weight=None,
        rank=1,
        transitions=mod.transitions,
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
    unit = gerbe.identity_module(sigma.cover, rank=1)
    same = gerbe.tensor_modules(sigma, unit)
    assert same.weight == sigma.weight
    for edge in sigma.transitions:
        assert np.abs(same.transitions[edge] - sigma.transitions[edge]).max() < 1e-14


def test_tensor_is_associative_and_weight_commutative():
    _, _, cocycle, sigma = spin_setup()
    unit2 = gerbe.identity_module(sigma.cover, rank=2)
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
    mod = gerbe.identity_module(data.cover, rank=1)
    two = gerbe.direct_sum(mod, mod)
    assert two.rank == 2
    for arr in two.transitions.values():
        assert np.abs(arr - np.eye(2)).max() < 1e-14
    other = gerbe.identity_module(data.cover, rank=1, weight=1)
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
                cover=sigma.cover,
                band_order=2,
                weight=1,
                rank=1,
                transitions=trans,
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
        cover=sigma.cover,
        band_order=2,
        weight=1,
        rank=2,
        transitions=flipped,
    )
    endo2 = gerbe.endomorphism_descent(sigma2)
    for edge in endo.transitions:
        assert np.abs(endo.transitions[edge] - endo2.transitions[edge]).max() < 1e-12


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_endomorphism_descent_equals_the_per_sample_kron(rank):
    rng = np.random.default_rng(40 + rank)
    nerve = triangle_nerve()
    transitions = {}
    for edge in nerve.simplices[1]:
        arr = rng.normal(size=(5, rank, rank)) + 1j * rng.normal(size=(5, rank, rank))
        transitions[edge] = np.linalg.qr(arr)[0]
    cover = gerbe.SampleCover(nerve, dict.fromkeys(nerve.simplices[1], gerbe.EdgeSampleGraph(5)),
                              {(0, 1, 2): [(0, 0, 0)]})
    module = gerbe.GerbeModuleData(
        cover=cover, band_order=2, weight=1, rank=rank, transitions=transitions,
    )
    endo = gerbe.endomorphism_descent(module)
    for edge, arr in transitions.items():
        # phi^-T is conj(phi) for a unitary phi
        oracle = np.stack([np.kron(g.conj(), g) for g in arr])
        assert np.array_equal(endo.transitions[edge], oracle)


def test_verify_module_rejects_non_unitary_transitions():
    nerve = triangle_nerve()
    transitions = {edge: np.broadcast_to(np.eye(2), (3, 2, 2)).copy()
                   for edge in nerve.simplices[1]}
    transitions[(0, 2)][1] *= 1.0 + 1e-6
    cover = gerbe.SampleCover(nerve, dict.fromkeys(nerve.simplices[1], gerbe.EdgeSampleGraph(3)),
                              {(0, 1, 2): [(0, 0, 0)]})
    module = gerbe.GerbeModuleData(
        cover=cover, band_order=2, weight=0, rank=2, transitions=transitions,
    )
    with pytest.raises(ValueError,
                       match=r"transitions on \(0, 2\) flagged unitary but are not"):
        gerbe.verify_module(module, gerbe.zero_gerbe_cocycle(nerve))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_transitions_fail_the_gerbe_checks():
    nerve = triangle_nerve()
    nan = np.full((1, 1, 1), np.nan)
    data = transition_data(nerve, {e: sampled(nan) for e in nerve.simplices[1]},
                           {(0, 1, 2): [(0, 0, 0)]}, dimension=1)
    with pytest.raises(ValueError, match=r"sample 0 on overlap \(0, 1\) is not in SO\(n\)"):
        data.validate()
    module = gerbe.GerbeModuleData(
        cover=data.cover, band_order=2, weight=0, rank=1,
        transitions={e: nan for e in nerve.simplices[1]})
    with pytest.raises(ValueError, match=r"transitions on \(0, 1\) flagged unitary but are not"):
        gerbe.verify_module(module, gerbe.zero_gerbe_cocycle(nerve))


def test_rank_one_endomorphisms_trivialize():
    _, _, _, sigma = spin_setup()
    block = gerbe.GerbeModuleData(
        cover=sigma.cover,
        band_order=2,
        weight=1,
        rank=1,
        transitions={e: arr[:, :1, :1] for e, arr in sigma.transitions.items()},
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
    mod = gerbe.identity_module(data.cover, rank=3)
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
        cover=sigma.cover,
        band_order=2,
        weight=None,
        rank=3,
        transitions=mixed_trans,
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
