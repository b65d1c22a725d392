"""Lifting sampled principal-bundle transitions and the modules they twist.

Transition functions are SO(n)-valued samples on small graphs over each
overlap. Lifting picks spin-group representatives by nearest-lift transport
along a spanning tree; the sign defect of the triple products is a mod-2
cocycle on the nerve whose class does not depend on any of the choices made.
Modules twisted by that cocycle (weight-d transition data) support tensor,
direct sum, endomorphism descent, weight decomposition, and descent of the
weight-zero ones to plain bundle data.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import cech
from .clifford import LiftAmbiguityError, canonical_lift, nearest_lift, spinor_rep


class HolonomyError(ValueError):
    """Sign transport around a loop in an overlap's sample graph came back
    flipped: the overlap is not simply connected, so the cover is not good."""


def _ordered_edge(a, b):
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class EdgeSampleGraph:
    """Connected graph of matrix samples over one overlap.

    `adjacency` pairs must connect all samples; consecutive-chain adjacency is
    filled in when omitted. The basepoint is where lifting starts.
    """

    matrices: np.ndarray
    adjacency: tuple = None
    basepoint: int = 0

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("matrices must have shape (count, n, n)")
        object.__setattr__(self, "matrices", mats)
        count = mats.shape[0]
        if self.adjacency is None:
            adj = tuple((i, i + 1) for i in range(count - 1))
        else:
            adj = tuple((int(i), int(j)) for i, j in self.adjacency)
        object.__setattr__(self, "adjacency", adj)
        for i, j in adj:
            if not (0 <= i < count and 0 <= j < count and i != j):
                raise ValueError(f"bad adjacency pair ({i}, {j})")
        if not 0 <= self.basepoint < count:
            raise ValueError("basepoint out of range")
        reach = {0} if count else set()
        frontier = [0]
        neighbours = self.neighbour_table()
        while frontier:
            node = frontier.pop()
            for nb in neighbours[node]:
                if nb not in reach:
                    reach.add(nb)
                    frontier.append(nb)
        if len(reach) != count:
            raise ValueError("sample graph is not connected")

    @property
    def count(self):
        return self.matrices.shape[0]

    def neighbour_table(self):
        table = [[] for _ in range(self.count)]
        for i, j in self.adjacency:
            table[i].append(j)
            table[j].append(i)
        return table


@dataclass(frozen=True)
class TransitionData:
    """Sampled transition functions of a principal SO(n) bundle on a cover.

    `edges` maps each ordered 1-simplex (a, b) of the nerve to its sample
    graph; `triples` maps each 2-simplex to index triples (i_ab, i_bc, i_ac)
    of samples taken at a common point of the triple overlap. The first listed
    triple is the basepoint where the lifted cocycle is read off; any others
    are constancy spot checks.
    """

    nerve: cech.Nerve
    dimension: int
    edges: dict
    triples: dict

    def __post_init__(self):
        edges = {_ordered_edge(*k): v for k, v in self.edges.items()}
        object.__setattr__(self, "edges", edges)
        triples = {tuple(sorted(k)): tuple(tuple(t) for t in v) for k, v in self.triples.items()}
        object.__setattr__(self, "triples", triples)
        for simplex in self.nerve.simplices[1]:
            if simplex not in edges:
                raise ValueError(f"missing sample graph for overlap {simplex}")
            if edges[simplex].matrices.shape[1] != self.dimension:
                raise ValueError(f"overlap {simplex} has wrong matrix size")
        for simplex in self.nerve.simplices[2]:
            if simplex not in triples or not triples[simplex]:
                raise ValueError(f"missing triple basepoint for {simplex}")

    def validate(self, tol=1e-10):
        """Check SO(n) membership and the unlifted cocycle at triple points."""
        eye = np.eye(self.dimension)
        for edge, graph in self.edges.items():
            mats = graph.matrices
            defect = np.abs(mats.transpose(0, 2, 1) @ mats - eye).max(axis=(1, 2))
            bad = np.flatnonzero((defect > 1e-9) | (np.linalg.det(mats) < 0))
            if bad.size:
                raise ValueError(f"sample {bad[0]} on overlap {edge} is not in SO(n)")
        for (a, b, c), entries in self.triples.items():
            gab = self.edges[(a, b)].matrices
            gbc = self.edges[(b, c)].matrices
            gac = self.edges[(a, c)].matrices
            for i, j, l in entries:
                defect = np.abs(gab[i] @ gbc[j] @ gac[l].T - eye).max()
                if defect > tol:
                    raise ValueError(
                        f"triple overlap {(a, b, c)} violates the cocycle "
                        f"condition by {defect:.3e}"
                    )
        return self


@dataclass(frozen=True)
class LiftedTransitionData:
    """TransitionData plus a SpinElement per sample node on every edge."""

    data: TransitionData
    lifts: dict  # edge -> tuple of SpinElement, one per sample

    def lift_at(self, a, b, index):
        """Lift of the sample on overlap (a, b), reversed when a > b."""
        g = self.lifts[_ordered_edge(a, b)][index]
        return g if a < b else g.reverse()


@dataclass(frozen=True)
class GerbeCocycle:
    """Mod-k sign defect of the lifted triple products: a degree-2 cocycle."""

    nerve: cech.Nerve
    cochain: cech.Cochain

    def __post_init__(self):
        if self.cochain.degree != 2 or self.cochain.ring == "Z":
            raise ValueError("gerbe cocycle must be a degree-2 mod-k cochain")
        if not cech.is_cocycle(self.cochain, self.nerve):
            raise ValueError("gerbe cocycle fails the cocycle condition")

    @property
    def band_order(self):
        return self.cochain.ring

    def value_on(self, simplex):
        return self.cochain.value_on(self.nerve, simplex)

    def trivialization(self):
        """A 1-cochain eta with delta eta = e, or None when the class is nonzero."""
        return cech.solve_coboundary(self.cochain, self.nerve)

    @property
    def trivial(self):
        return self.trivialization() is not None


def zero_gerbe_cocycle(nerve, band_order=2):
    return GerbeCocycle(nerve, cech.zero_cochain(nerve, 2, ring=band_order))


def _transport(edge, graph, assigned, i, j, ambiguity_gap):
    """Lift of sample j nearest to the lift assigned to sample i."""
    try:
        return nearest_lift(graph.matrices[j], assigned[i], ambiguity_gap)
    except LiftAmbiguityError as exc:
        raise LiftAmbiguityError(
            f"overlap {edge}, samples {i}->{j}: {exc}; resample the overlap more densely",
            exc.d_plus, exc.d_minus, exc.ambiguity_gap,
        ) from exc


def lift_transitions(data, seed=None, sign_flips=None, basepoints=None, ambiguity_gap=0.5):
    """Lift every sampled transition and read off the obstruction cocycle.

    seed shuffles the spanning-tree traversal, sign_flips (iterable of edges)
    negates chosen edge lifts globally, basepoints ({edge: sample index})
    overrides where transport starts. All three change the cocycle at most by
    a coboundary; tests rely on that.
    """
    data.validate()
    rng = np.random.default_rng(seed)
    sign_flips = frozenset(_ordered_edge(*e) for e in (sign_flips or ()))
    basepoints = {_ordered_edge(*k): v for k, v in (basepoints or {}).items()}
    lifts = {}
    for edge in sorted(data.edges):
        graph = data.edges[edge]
        base = basepoints.get(edge, graph.basepoint)
        start = canonical_lift(graph.matrices[base])
        if edge in sign_flips:
            start = -start
        assigned = {base: start}
        frontier = [base]
        neighbours = graph.neighbour_table()
        while frontier:
            node = frontier.pop()
            order = rng.permutation(len(neighbours[node])) if seed is not None else range(
                len(neighbours[node])
            )
            for pos in order:
                nb = neighbours[node][pos]
                if nb in assigned:
                    continue
                assigned[nb] = _transport(edge, graph, assigned, node, nb, ambiguity_gap)
                frontier.append(nb)
        # every off-tree adjacency must close up with the same sign
        for i, j in graph.adjacency:
            transported = _transport(edge, graph, assigned, i, j, ambiguity_gap)
            if transported.distance(assigned[j]) > 1.0:
                raise HolonomyError(
                    f"sign holonomy around a loop in overlap {edge}: "
                    "the overlap is not simply connected (cover is not good)"
                )
        lifts[edge] = tuple(assigned[i] for i in range(graph.count))
    lifted = LiftedTransitionData(data=data, lifts=lifts)
    values = []
    for simplex in data.nerve.simplices[2]:
        a, b, c = simplex
        signs = []
        for i, j, l in data.triples[simplex]:
            prod = (
                lifted.lifts[(a, b)][i] * lifted.lifts[(b, c)][j]
                * lifted.lifts[(a, c)][l].reverse()
            ).matrix()
            dim = prod.shape[0]
            scalar = np.trace(prod).real / dim
            defect = np.linalg.norm(prod - round(scalar) * np.eye(dim)) / math.sqrt(dim)
            if abs(abs(scalar) - 1.0) > 1e-6 or defect > 1e-6:
                raise ValueError(
                    f"lifted triple product on {simplex} is not a sign "
                    f"(scalar {scalar:.6f}, defect {defect:.3e})"
                )
            signs.append(0 if scalar > 0 else 1)
        if len(set(signs)) != 1:
            raise ValueError(
                f"cocycle sign varies across the sampled triple overlap {simplex}; "
                "good-cover constancy assumption violated"
            )
        values.append(signs[0])
    cocycle = GerbeCocycle(data.nerve, cech.Cochain(2, 2, tuple(values)))
    return lifted, cocycle


@dataclass(frozen=True)
class GerbeModuleData:
    """Weight-d module over the lifting gerbe, as sampled transition data.

    Transitions on edge (a, b) act per sample; at each designated triple the
    product around the triangle equals zeta^(weight * e) times identity where
    zeta = exp(2 pi i / band_order). weight None marks a module that has not
    been split into weight-homogeneous summands yet.
    """

    nerve: cech.Nerve
    band_order: int
    weight: object
    rank: int
    transitions: dict  # edge -> (count, rank, rank) complex array
    triples: dict
    unitary: bool = True

    def __post_init__(self):
        if self.band_order < 2:
            raise ValueError("band order must be at least 2")
        transitions = {}
        for key, arr in self.transitions.items():
            arr = np.asarray(arr, dtype=complex)
            if arr.ndim != 3 or arr.shape[1:] != (self.rank, self.rank):
                raise ValueError(f"transitions on {key} must be (count, rank, rank)")
            transitions[_ordered_edge(*key)] = arr
        object.__setattr__(self, "transitions", transitions)
        triples = {tuple(sorted(k)): tuple(tuple(t) for t in v) for k, v in self.triples.items()}
        object.__setattr__(self, "triples", triples)
        if self.weight is not None:
            object.__setattr__(self, "weight", int(self.weight) % self.band_order)
        for simplex in self.nerve.simplices[1]:
            if simplex not in transitions:
                raise ValueError(f"missing transitions for overlap {simplex}")
        for simplex in self.nerve.simplices[2]:
            if simplex not in triples or not triples[simplex]:
                raise ValueError(f"missing triple basepoint for {simplex}")

    def counts(self):
        return {edge: arr.shape[0] for edge, arr in self.transitions.items()}

    def _inverse(self, mat):
        return mat.conj().T if self.unitary else np.linalg.inv(mat)


@dataclass(frozen=True)
class ModuleCheck:
    ok: bool
    max_residual: float
    worst_simplex: tuple = None

    def __bool__(self):
        return bool(self.ok)


def verify_module(module, cocycle, tol=1e-9):
    """Twisted cocycle check at every designated triple; returns the report."""
    if module.weight is None:
        raise ValueError("module has no definite weight; decompose it first")
    if module.nerve is not cocycle.nerve and module.nerve != cocycle.nerve:
        raise ValueError("module and cocycle live on different nerves")
    if module.band_order != cocycle.band_order:
        raise ValueError("module and cocycle band orders differ")
    zeta = np.exp(2j * np.pi / module.band_order)
    eye = np.eye(module.rank)
    worst, worst_simplex = 0.0, None
    if module.unitary:
        for edge, arr in module.transitions.items():
            defect = np.abs(arr @ arr.conj().transpose(0, 2, 1) - eye).max()
            if defect > max(tol, 1e-8):
                raise ValueError(f"transitions on {edge} flagged unitary but are not")
    for simplex in module.nerve.simplices[2]:
        a, b, c = simplex
        phase = zeta ** (module.weight * cocycle.value_on(simplex))
        for i, j, l in module.triples[simplex]:
            prod = (
                module.transitions[(a, b)][i]
                @ module.transitions[(b, c)][j]
                @ module._inverse(module.transitions[(a, c)][l])
            )
            resid = np.abs(prod - phase * eye).max()
            if resid > worst:
                worst, worst_simplex = resid, simplex
    return ModuleCheck(ok=bool(worst <= tol), max_residual=float(worst),
                       worst_simplex=worst_simplex)


def _require_same_shape(m1, m2):
    if m1.nerve != m2.nerve:
        raise ValueError("modules live on different nerves")
    if m1.band_order != m2.band_order:
        raise ValueError("band order mismatch")
    if m1.counts() != m2.counts():
        raise ValueError("per-overlap sample counts differ")
    if m1.triples != m2.triples:
        raise ValueError("triple basepoint conventions differ")


def tensor_modules(m1, m2):
    """Tensor product; weights add modulo the band order."""
    _require_same_shape(m1, m2)
    if m1.weight is None or m2.weight is None:
        raise ValueError("tensor factors must have definite weights")
    transitions = {}
    for edge, arr1 in m1.transitions.items():
        arr2 = m2.transitions[edge]
        prod = np.einsum("kab,kcd->kacbd", arr1, arr2)
        transitions[edge] = prod.reshape(arr1.shape[0], m1.rank * m2.rank, -1)
    return GerbeModuleData(
        nerve=m1.nerve,
        band_order=m1.band_order,
        weight=(m1.weight + m2.weight) % m1.band_order,
        rank=m1.rank * m2.rank,
        transitions=transitions,
        triples=m1.triples,
        unitary=m1.unitary and m2.unitary,
    )


def direct_sum(m1, m2):
    """Block sum; only defined within a fixed weight."""
    _require_same_shape(m1, m2)
    if m1.weight is None or m2.weight is None or m1.weight != m2.weight:
        raise ValueError("direct sum requires equal definite weights")
    transitions = {}
    for edge, arr1 in m1.transitions.items():
        arr2 = m2.transitions[edge]
        count = arr1.shape[0]
        out = np.zeros((count, m1.rank + m2.rank, m1.rank + m2.rank), dtype=complex)
        out[:, : m1.rank, : m1.rank] = arr1
        out[:, m1.rank :, m1.rank :] = arr2
        transitions[edge] = out
    return GerbeModuleData(
        nerve=m1.nerve,
        band_order=m1.band_order,
        weight=m1.weight,
        rank=m1.rank + m2.rank,
        transitions=transitions,
        triples=m1.triples,
        unitary=m1.unitary and m2.unitary,
    )


def endomorphism_descent(module):
    """Endomorphism module: transitions conjugate, so the twist cancels."""
    transitions = {}
    for edge, arr in module.transitions.items():
        out = np.empty((arr.shape[0], module.rank**2, module.rank**2), dtype=complex)
        for idx in range(arr.shape[0]):
            # action psi -> phi psi phi^-1 in column-major vectorization
            out[idx] = np.kron(module._inverse(arr[idx]).T, arr[idx])
        transitions[edge] = out
    return GerbeModuleData(
        nerve=module.nerve,
        band_order=module.band_order,
        weight=0,
        rank=module.rank**2,
        transitions=transitions,
        triples=module.triples,
        unitary=module.unitary,
    )


def weight_decompose(action, module, tol=1e-10):
    """Split a module along a fiberwise cyclic symmetry into weight summands.

    `action` maps each chart (nerve vertex) to an order-k unitary commuting
    with all transitions; its zeta^d eigenspaces are transition-invariant and
    each inherits weight d. Returns the nonempty summands in weight order.
    """
    k = module.band_order
    zeta = np.exp(2j * np.pi / k)
    acts = {int(v): np.asarray(a, dtype=complex) for v, a in action.items()}
    for (v,) in module.nerve.simplices[0]:
        if v not in acts:
            raise ValueError(f"no action matrix for chart {v}")
        a = acts[v]
        if a.shape != (module.rank, module.rank):
            raise ValueError(f"action on chart {v} has wrong shape")
        if np.abs(np.linalg.matrix_power(a, k) - np.eye(module.rank)).max() > 1e-9:
            raise ValueError(f"action on chart {v} does not have order dividing {k}")
    for (a, b), arr in module.transitions.items():
        defect = np.abs(acts[a] @ arr - arr @ acts[b]).max()
        if defect > tol:
            raise ValueError(
                f"action does not commute with transitions on {(a, b)} "
                f"(defect {defect:.3e})"
            )
    bases = {}  # (vertex, d) -> orthonormal eigenbasis columns
    ranks = {}
    for v, a in acts.items():
        powers = [np.linalg.matrix_power(a, j) for j in range(k)]
        for d in range(k):
            proj = sum(zeta ** (-d * j) * powers[j] for j in range(k)) / k
            u, s, _ = np.linalg.svd(proj)
            r = int(np.sum(s > 0.5))
            bases[(v, d)] = u[:, :r]
            ranks.setdefault(d, set()).add(r)
    for d, rs in ranks.items():
        if len(rs) != 1:
            raise ValueError(f"weight-{d} eigenspace rank differs between charts")
    summands = []
    for d in range(k):
        r = next(iter(ranks[d]))
        if r == 0:
            continue
        transitions = {}
        for (a, b), arr in module.transitions.items():
            ba, bb = bases[(a, d)], bases[(b, d)]
            transitions[(a, b)] = np.einsum("xa,kxy,yb->kab", ba.conj(), arr, bb)
        summands.append(
            GerbeModuleData(
                nerve=module.nerve,
                band_order=k,
                weight=d,
                rank=r,
                transitions=transitions,
                triples=module.triples,
                unitary=module.unitary,
            )
        )
    total = sum(s.rank for s in summands)
    if total != module.rank:
        raise ValueError(f"summand ranks {total} do not add up to {module.rank}")
    return summands


@dataclass(frozen=True)
class BundleData:
    """Ordinary Cech bundle data: transitions satisfying the strict cocycle."""

    nerve: cech.Nerve
    rank: int
    transitions: dict
    triples: dict
    unitary: bool = True


def descend_weight_zero(module, tol=1e-9):
    """Weight-zero modules are plain bundles; anything else does not descend."""
    if module.weight != 0:
        raise ValueError(f"weight {module.weight} module does not descend to the base")
    check = verify_module(module, zero_gerbe_cocycle(module.nerve, module.band_order), tol)
    if not check:
        raise ValueError(
            f"untwisted cocycle residual {check.max_residual:.3e} exceeds {tol:.1e}"
        )
    return BundleData(
        nerve=module.nerve,
        rank=module.rank,
        transitions=dict(module.transitions),
        triples=dict(module.triples),
        unitary=module.unitary,
    )


def spin_module(lifted, band_order=2):
    """The modules of the lift itself: spinor matrices of every edge lift.

    Weight 1: negating an edge lift negates its matrices, so the triple
    products reproduce exactly the sign cocycle of the lift.
    """
    data = lifted.data
    if data.dimension % 2:
        raise ValueError("spinor matrices implemented for even fiber dimension only")
    rep = spinor_rep(data.dimension)
    transitions = {
        edge: np.stack([g.matrix(rep) for g in lifts])
        for edge, lifts in lifted.lifts.items()
    }
    return GerbeModuleData(
        nerve=data.nerve,
        band_order=band_order,
        weight=1,
        rank=rep.dim,
        transitions=transitions,
        triples=data.triples,
        unitary=True,
    )


def identity_module(template, rank=1, weight=0, band_order=2):
    """Trivial-transition module shaped like a TransitionData or module."""
    if isinstance(template, TransitionData):
        counts = {edge: g.count for edge, g in template.edges.items()}
        nerve, triples = template.nerve, template.triples
    else:
        counts = template.counts()
        nerve, triples = template.nerve, template.triples
        band_order = template.band_order
    eye = np.eye(rank, dtype=complex)
    transitions = {
        edge: np.broadcast_to(eye, (count, rank, rank)).copy()
        for edge, count in counts.items()
    }
    return GerbeModuleData(
        nerve=nerve,
        band_order=band_order,
        weight=weight,
        rank=rank,
        transitions=transitions,
        triples=triples,
        unitary=True,
    )
