"""Lifting sampled principal-bundle transitions and the modules they twist.

Transition data, modules and bundles share one SampleCover (nerve, a sample
graph per overlap, triple points), checked once; each checks only its own
stacks. Transition functions are SO(n)-valued samples on those graphs.
Lifting picks spin-group representatives one overlap at a time: a canonical
lift of each sample, a relative sign for each adjacent pair, and each
sample's sign relative to sample 0 read along the breadth-first spanning
tree of its graph. Once every loop closes up, those signs do not depend on
the tree. This is done once per data set; a relift only places the signs,
in one stacked pass. The sign defect of the triple products is a mod-2
cocycle on the nerve whose class does not depend on any choice made.
Modules twisted by it (weight-d transition data) support tensor, direct
sum, endomorphism descent, weight decomposition, and descent of the
weight-zero ones to plain bundle data.
"""

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter
from types import MappingProxyType

import numpy as np

from . import cech
from .clifford import (
    LiftAmbiguityError,
    _frozen,
    canonical_lifts,
    lift_signs,
    spinor_rep,
)


class HolonomyError(ValueError):
    """Sign transport around a loop in an overlap's sample graph came back
    flipped: the overlap is not simply connected, so the cover is not good.

    Carries the overlap `edge` and the `samples` (i, j) of its first
    adjacency that fails to close up with the signs of the spanning tree.
    """

    def __init__(self, message, edge, samples):
        super().__init__(message)
        self.edge = edge
        self.samples = samples


def _ordered_edge(a, b):
    return (a, b) if a < b else (b, a)


def _edge_key(key):
    """An overlap key (a, b) with a < b; a transition on (b, a) would be the
    inverse of the one on (a, b), so a reversed key is refused, not re-keyed."""
    a, b = key
    if not a < b:
        raise ValueError(f"edge key {(a, b)} is not in increasing order; key each "
                         "transition by its ordered edge (the transition on (b, a) "
                         "is the inverse of the one on (a, b))")
    return (a, b)


def _sample_index(value, where):
    """`value` as an int; a bool or a non-integer (1.5, "2") is refused, not
    truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{where} must be an integer, not {value!r}")
    return int(value)


def _triple_table(nerve, triples, edges):
    """Read-only view of `triples`, keyed by 2-simplices (a, b, c) of the nerve,
    whose index triples (i_ab, i_bc, i_ac) lie in [0, count) of their edges'
    sample graphs `edges`."""
    table = {}
    for (a, b, c), entries in triples.items():
        if not a < b < c:
            raise ValueError(f"triple key {(a, b, c)} is not in increasing order; key "
                             "each triple by its ordered simplex (i_ab, i_bc, i_ac are "
                             "read against the edges in that order)")
        if (a, b, c) not in nerve._index_tables()[2]:
            raise ValueError(f"triple key {(a, b, c)} is not a 2-simplex of the nerve")
        table[(a, b, c)] = tuple(tuple(t) for t in entries)
    for a, b, c in nerve.simplices[2]:
        entries = table.get((a, b, c))
        if not entries:
            raise ValueError(f"missing triple basepoint for {(a, b, c)}")
        limits = (edges[(a, b)].count, edges[(b, c)].count, edges[(a, c)].count)
        # viewed unsigned, a negative index lies past every count
        outside = np.array(entries, dtype=np.intp).view(np.uintp) >= limits
        if outside.any():
            raise ValueError(f"triple {entries[outside.any(axis=1).argmax()]} on {(a, b, c)} "
                             f"is out of range for edges of {limits} samples")
    return MappingProxyType(table)


def _triangle_products(nerve, transitions, triples):
    """(simplex, g_ab g_bc g_ac^-1 stacked over its designated triples) for each
    2-simplex in nerve order; transitions are orthogonal or unitary stacks."""
    for a, b, c in nerve.simplices[2]:
        i, j, l = np.array(triples[(a, b, c)]).T
        yield (a, b, c), (transitions[(a, b)][i] @ transitions[(b, c)][j]
                          @ np.swapaxes(transitions[(a, c)][l].conj(), -1, -2))


@dataclass(frozen=True)
class EdgeSampleGraph:
    """Connected graph on the `count` samples over one overlap.

    `adjacency` pairs must connect all samples; consecutive-chain adjacency is
    filled in when omitted. The basepoint is where lifting starts. The
    breadth-first traversal from sample 0 that checks connectivity also
    records its spanning tree as `_tree`: (child, parent, adjacency position)
    of every tree edge, in walk order, so each parent comes before its
    children.
    """

    count: int
    adjacency: tuple = None
    basepoint: int = 0

    def __post_init__(self):
        count = self.count
        if self.adjacency is None:
            adj = tuple((i, i + 1) for i in range(count - 1))
        else:
            adj = tuple((int(i), int(j)) for i, j in self.adjacency)
        object.__setattr__(self, "adjacency", adj)
        for i, j in adj:
            if not (0 <= i < count and 0 <= j < count and i != j):
                raise ValueError(f"bad adjacency pair ({i}, {j})")
        basepoint = _sample_index(self.basepoint, "sample graph basepoint")
        object.__setattr__(self, "basepoint", basepoint)
        if not 0 <= basepoint < count:
            raise ValueError("basepoint out of range")
        seen, order, tree = {0}, [0], []
        neighbours = self.neighbour_table()
        for node in order:  # grows while it is read: a breadth-first walk
            for nb, pos in neighbours[node]:
                if nb not in seen:
                    seen.add(nb)
                    order.append(nb)
                    tree.append((nb, node, pos))
        if len(order) != count:
            raise ValueError("sample graph is not connected")
        object.__setattr__(self, "_tree", tuple(tree))

    def neighbour_table(self):
        """Per sample, its (neighbour, position in adjacency) pairs."""
        table = [[] for _ in range(self.count)]
        for pos, (i, j) in enumerate(self.adjacency):
            table[i].append((j, pos))
            table[j].append((i, pos))
        return table


@dataclass(frozen=True)
class SampleCover:
    """The sampled cover that transition data, modules and bundles share.

    `edges` maps each ordered overlap (a, b), a < b, to its EdgeSampleGraph
    (every nerve edge needs one); `triples` maps each 2-simplex (a, b, c),
    a < b < c, to index triples (i_ab, i_bc, i_ac) of samples at a common
    point. The first triple is where a lifted cocycle is read off; any others
    are constancy spot checks. Both are checked here, once, and stored as
    read-only views. The cover holds no arrays and compares by value; the
    data on it compare by identity.
    """

    nerve: cech.Nerve
    edges: dict
    triples: dict

    def __post_init__(self):
        edges = MappingProxyType({_edge_key(k): v for k, v in self.edges.items()})
        object.__setattr__(self, "edges", edges)
        for simplex in self.nerve.simplices[1]:
            if simplex not in edges:
                raise ValueError(f"missing sample graph for overlap {simplex}")
        object.__setattr__(self, "triples", _triple_table(self.nerve, self.triples, edges))

    @cached_property
    def _layout(self):
        """Sorted overlaps; overlap k owns offsets[k]:offsets[k + 1] of the lifts."""
        edges = tuple(sorted(self.edges))
        counts = [self.edges[edge].count for edge in edges]
        return edges, _frozen(np.concatenate([[0], np.cumsum(counts, dtype=np.intp)]))


def _immutable(arr):
    """True when `arr` is an array that, like every array it views, is
    read-only, the last of them owning its memory."""
    while arr is not None:
        if not isinstance(arr, np.ndarray) or arr.flags.writeable:
            return False
        arr = arr.base
    return True


class _OnCover:
    """Sampled data on a SampleCover, whose nerve, graphs and triples it reads.

    Field _STACKS = (field, size field, dtype) holds a read-only (count, size,
    size) stack per overlap. A stack of that dtype that is read-only, and
    views only read-only arrays, is kept as it is; any other is copied, so
    writes to the input do not reach it.
    """

    _STACKS = ("transitions", "rank", complex)
    nerve = property(attrgetter("cover.nerve"))
    edges = property(attrgetter("cover.edges"))
    triples = property(attrgetter("cover.triples"))

    def __post_init__(self):
        name, size_field, dtype = self._STACKS
        size = getattr(self, size_field)
        given = {_edge_key(key): arr for key, arr in getattr(self, name).items()}
        if given.keys() != self.edges.keys():
            raise ValueError(f"{name} given on overlaps {sorted(given)}, "
                             f"not on the cover's {sorted(self.edges)}")
        stacks = {}
        for edge, graph in self.edges.items():
            arr = given[edge]
            if not _immutable(arr) or arr.dtype != dtype:
                arr = _frozen(np.array(arr, dtype=dtype))
            if arr.shape != (graph.count, size, size):
                raise ValueError(f"{name} on overlap {edge} have shape {arr.shape}, not "
                                 f"{(graph.count, size, size)}: wrong matrix size or "
                                 "sample count")
            stacks[edge] = arr
        object.__setattr__(self, name, MappingProxyType(stacks))


@dataclass(frozen=True, eq=False)
class TransitionData(_OnCover):
    """Sampled transition functions of a principal SO(n) bundle on a cover.

    `matrices` maps each overlap of the cover to its (count, n, n) stack of
    samples, stored read-only. What is computed from them is remembered once
    it has passed: validation per `tol`, and per `ambiguity_gap` the
    canonical lifts and tree parities that every relift reuses (_tree_lifts;
    read-only arrays). Neither memo is a field.
    """

    _STACKS = ("matrices", "dimension", float)
    cover: SampleCover
    dimension: int
    matrices: dict  # edge -> (count, n, n) float array, one sample per graph node

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "_validated", set())
        object.__setattr__(self, "_lifts", {})

    def validate(self, tol=1e-10):
        """Check SO(n) membership and the unlifted cocycle at triple points.

        A pass is remembered per `tol`: the samples cannot change afterwards.
        """
        if tol not in self._validated:
            self._check(tol)
            self._validated.add(tol)
        return self

    def _check(self, tol):
        eye = np.eye(self.dimension)
        for edge, mats in self.matrices.items():
            defect = np.abs(mats.transpose(0, 2, 1) @ mats - eye).max(axis=(1, 2))
            bad = np.flatnonzero(~(defect <= 1e-9) | (np.linalg.det(mats) < 0))
            if bad.size:
                raise ValueError(f"sample {bad[0]} on overlap {edge} is not in SO(n)")
        for simplex, prods in _triangle_products(self.nerve, self.matrices, self.triples):
            defects = np.abs(prods - eye).max(axis=(1, 2))
            bad = np.flatnonzero(~(defects <= tol))
            if bad.size:
                raise ValueError(f"triple overlap {simplex} violates the cocycle "
                                 f"condition by {defects[bad[0]]:.3e}")


@dataclass(frozen=True, eq=False)
class LiftedTransitionData:
    """TransitionData plus the spinor unitary of a lift of every sample.

    A lift made by lift_transitions also keeps the read-only triple products
    it read its cocycle from (_products: simplex -> stacked g_ab g_bc g_ac^-1,
    not a field), so its spin module need not form them again; data built
    any other way has none.
    """

    data: TransitionData
    unitaries: dict  # edge -> (count, dim, dim) array, one lift per sample

    def __post_init__(self):
        object.__setattr__(self, "_products", None)


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


def _triple_signs(data, unitaries, products=None):
    """Sign defect (0 or 1) of the lifted triple products on each 2-simplex;
    `products` ({simplex: stacked products} in nerve order), when given, are
    those of `unitaries`, already formed."""
    if products is None:
        products = dict(_triangle_products(data.nerve, unitaries, data.triples))
    values = []
    for simplex, prods in products.items():
        dim = prods.shape[-1]
        scalars = np.trace(prods, axis1=1, axis2=2).real / dim
        defects = np.linalg.norm(prods - np.round(scalars)[:, None, None] * np.eye(dim),
                                 axis=(1, 2)) / math.sqrt(dim)
        bad = np.flatnonzero((np.abs(np.abs(scalars) - 1.0) > 1e-6) | (defects > 1e-6))
        if bad.size:
            k = bad[0]
            raise ValueError(f"lifted triple product on {simplex} is not a sign "
                             f"(scalar {scalars[k]:.6f}, defect {defects[k]:.3e})")
        signs = set(np.where(scalars > 0, 0, 1).tolist())
        if len(signs) != 1:
            raise ValueError(f"cocycle sign varies across the sampled triple overlap "
                             f"{simplex}; good-cover constancy assumption violated")
        values.append(signs.pop())
    return tuple(values)


def _base_index(edge, base, count):
    base = _sample_index(base, f"basepoint of overlap {edge}")
    if not -count <= base < count:
        raise IndexError(f"basepoint {base} out of range for overlap {edge} "
                         f"with {count} samples")
    return base % count


def _tree_lifts(data, ambiguity_gap):
    """The read-only (canonical lifts, tree parities) of every sample in sorted
    edge order, remembered on `data` per `ambiguity_gap`; a failure is not.
    Each overlap's signs, parities and holonomy are checked before the next's.
    """
    lifts = data._lifts.get(ambiguity_gap)
    if lifts is not None:
        return lifts
    data.validate()
    edges, _ = data.cover._layout
    graphs = [data.edges[edge] for edge in edges]
    # every overlap's canonical lifts come first, so their errors precede any sign error
    canons = [canonical_lifts(data.matrices[edge]) for edge in edges]
    parities = [np.zeros(0, dtype=bool)]
    for edge, graph, canon in zip(edges, graphs, canons):
        pairs = np.array(graph.adjacency, dtype=np.intp).reshape(-1, 2)
        try:
            negative = lift_signs(canon[pairs[:, 1]], canon[pairs[:, 0]], ambiguity_gap) < 0
        except LiftAmbiguityError as exc:
            i, j = graph.adjacency[exc.pair]
            raise LiftAmbiguityError(
                f"overlap {edge}, samples {i}->{j}: {exc}; resample the overlap more densely",
                exc.d_plus, exc.d_minus, exc.ambiguity_gap,
            ) from exc
        parity, flags = [False] * graph.count, negative.tolist()
        for child, parent, pos in graph._tree:  # parents come before children
            parity[child] = parity[parent] ^ flags[pos]
        parity = np.array(parity)
        bad = np.flatnonzero(parity[pairs[:, 0]] ^ negative ^ parity[pairs[:, 1]])
        if bad.size:
            raise HolonomyError(
                f"sign holonomy around a loop in overlap {edge}: "
                "the overlap is not simply connected (cover is not good)",
                edge, graph.adjacency[bad[0]],
            )
        parities.append(parity)
    canon = np.concatenate(canons) if canons else np.zeros((0, 0, 0), dtype=complex)
    lifts = data._lifts[ambiguity_gap] = (_frozen(canon), _frozen(np.concatenate(parities)))
    return lifts


def lift_transitions(data, seed=None, sign_flips=None, basepoints=None, ambiguity_gap=0.5):
    """Lift every sampled transition and read off the obstruction cocycle.

    Once per data set and `ambiguity_gap` (_tree_lifts), each overlap in
    sorted edge order gets its canonical lifts, the relative signs of its
    adjacent samples and their parities along its graph's breadth-first
    tree; an ambiguous pair raises LiftAmbiguityError and an adjacency that
    does not close up raises HolonomyError, each naming the overlap and the
    samples. A call then only places the signs in one stacked pass and reads
    the triple products.

    sign_flips (iterable of edges) negates chosen edge lifts globally and
    basepoints ({edge: sample index}) overrides which sample keeps its
    canonical lift; both change the cocycle at most by a coboundary, which
    tests rely on, and either may name an edge in either order. seed is
    accepted and ignored: the signs do not depend on the tree. The returned
    unitaries, and the triple products kept for spin_module, are read-only.
    """
    del seed
    canon, parity = _tree_lifts(data, ambiguity_gap)
    edges, offsets = data.cover._layout
    sign_flips = frozenset(_ordered_edge(*e) for e in (sign_flips or ()))
    basepoints = {_ordered_edge(*k): v for k, v in (basepoints or {}).items()}
    counts = np.diff(offsets)
    bases = np.array([
        _base_index(edge, basepoints.get(edge, data.edges[edge].basepoint), count)
        for edge, count in zip(edges, counts)
    ], dtype=np.intp)
    flips = np.array([edge in sign_flips for edge in edges], dtype=bool)
    # a sample's sign relative to its basepoint is the parity of the tree path
    # between them, times the overlap's flip
    edge_negative = parity[offsets[:-1] + bases] ^ flips
    signs = np.where(parity ^ np.repeat(edge_negative, counts), -1.0, 1.0)
    lifts = _frozen(signs[:, None, None] * canon)
    unitaries = {edge: lifts[offsets[k]:offsets[k + 1]] for k, edge in enumerate(edges)}
    products = MappingProxyType({simplex: _frozen(prods) for simplex, prods
                                 in _triangle_products(data.nerve, unitaries, data.triples)})
    cocycle = GerbeCocycle(data.nerve,
                           cech.Cochain(2, 2, _triple_signs(data, unitaries, products)))
    lifted = LiftedTransitionData(data=data, unitaries=MappingProxyType(unitaries))
    object.__setattr__(lifted, "_products", products)
    return lifted, cocycle


@dataclass(frozen=True, eq=False)
class GerbeModuleData(_OnCover):
    """Weight-d module over the lifting gerbe, as sampled transition data.

    Transitions on edge (a, b) act per sample; at each designated triple the
    product around the triangle equals zeta^(weight * e) times identity where
    zeta = exp(2 pi i / band_order). weight None marks a module that has not
    been split into weight-homogeneous summands yet. Transitions are unitary
    (verify_module checks it), so a transition's inverse is its adjoint.
    A spin module also keeps its lift's triple products (_products, not a
    field, so dataclasses.replace drops them); any other module has none.
    """

    cover: SampleCover
    band_order: int
    weight: object
    rank: int
    transitions: dict  # edge -> (count, rank, rank) complex array

    def __post_init__(self):
        if self.band_order < 2:
            raise ValueError("band order must be at least 2")
        super().__post_init__()
        if self.weight is not None:
            object.__setattr__(self, "weight", int(self.weight) % self.band_order)
        object.__setattr__(self, "_products", None)


@dataclass(frozen=True)
class ModuleCheck:
    ok: bool
    max_residual: float
    worst_simplex: tuple = None

    def __bool__(self):
        return bool(self.ok)


def verify_module(module, cocycle, tol=1e-9):
    """Twisted cocycle check at every designated triple; returns the report.

    Transitions are checked unitary first, and the triple products formed
    from them, except on a spin module: its transitions are the read-only
    spinor lifts of a lift_transitions call, unitary by construction, and
    its products are the ones that call read the cocycle from. A module
    built directly, by tensor_modules or direct_sum, or by
    dataclasses.replace gets both.
    """
    if module.weight is None:
        raise ValueError("module has no definite weight; decompose it first")
    if module.nerve is not cocycle.nerve and module.nerve != cocycle.nerve:
        raise ValueError("module and cocycle live on different nerves")
    if module.band_order != cocycle.band_order:
        raise ValueError("module and cocycle band orders differ")
    zeta = np.exp(2j * np.pi / module.band_order)
    eye = np.eye(module.rank)
    worst, worst_simplex = 0.0, None
    products = module._products
    if products is None:
        for edge, arr in module.transitions.items():
            defect = np.abs(arr @ arr.conj().transpose(0, 2, 1) - eye).max()
            if not defect <= max(tol, 1e-8):
                raise ValueError(f"transitions on {edge} flagged unitary but are not")
        products = dict(_triangle_products(module.nerve, module.transitions, module.triples))
    for simplex, prods in products.items():
        phase = zeta ** (module.weight * cocycle.value_on(simplex))
        resid = np.abs(prods - phase * eye).max()
        if resid > worst:
            worst, worst_simplex = resid, simplex
    return ModuleCheck(ok=bool(worst <= tol), max_residual=float(worst),
                       worst_simplex=worst_simplex)


def _require_same_shape(m1, m2):
    if m1.cover != m2.cover:
        raise ValueError("modules live on different covers")
    if m1.band_order != m2.band_order:
        raise ValueError("band order mismatch")


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
    return replace(m1, weight=(m1.weight + m2.weight) % m1.band_order,
                   rank=m1.rank * m2.rank, transitions=transitions)


def direct_sum(m1, m2):
    """Block sum; only defined within a fixed weight."""
    _require_same_shape(m1, m2)
    if m1.weight is None or m2.weight is None or m1.weight != m2.weight:
        raise ValueError("direct sum requires equal definite weights")
    transitions = {}
    for edge, arr1 in m1.transitions.items():
        arr2 = m2.transitions[edge]
        out = np.zeros((arr1.shape[0], m1.rank + m2.rank, m1.rank + m2.rank), dtype=complex)
        out[:, : m1.rank, : m1.rank] = arr1
        out[:, m1.rank :, m1.rank :] = arr2
        transitions[edge] = out
    return replace(m1, rank=m1.rank + m2.rank, transitions=transitions)


def endomorphism_descent(module):
    """Endomorphism module: transitions conjugate, so the twist cancels."""
    transitions = {}
    for edge, arr in module.transitions.items():
        # action psi -> phi psi phi^-1 in column-major vectorization: per
        # sample the Kronecker product of phi^-T and phi, where phi^-T is the
        # conjugate of the unitary phi (a broadcast product rounds exactly as
        # np.kron does; einsum's complex product does not)
        inverse_t = arr.conj()
        out = inverse_t[:, :, None, :, None] * arr[:, None, :, None, :]
        transitions[edge] = out.reshape(arr.shape[0], module.rank**2, module.rank**2)
    return replace(module, weight=0, rank=module.rank**2, transitions=transitions)


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
        summands.append(replace(module, weight=d, rank=r, transitions=transitions))
    total = sum(s.rank for s in summands)
    if total != module.rank:
        raise ValueError(f"summand ranks {total} do not add up to {module.rank}")
    return summands


@dataclass(frozen=True, eq=False)
class BundleData(_OnCover):
    """Ordinary Cech bundle data: transitions satisfying the strict cocycle."""

    cover: SampleCover
    rank: int
    transitions: dict  # edge -> (count, rank, rank) complex array


def descend_weight_zero(module, tol=1e-9):
    """Weight-zero modules are plain bundles; anything else does not descend."""
    if module.weight != 0:
        raise ValueError(f"weight {module.weight} module does not descend to the base")
    check = verify_module(module, zero_gerbe_cocycle(module.nerve, module.band_order), tol)
    if not check:
        raise ValueError(
            f"untwisted cocycle residual {check.max_residual:.3e} exceeds {tol:.1e}"
        )
    return BundleData(cover=module.cover, rank=module.rank, transitions=module.transitions)


def spin_module(lifted, band_order=2):
    """The modules of the lift itself: spinor matrices of every edge lift.

    Weight 1: negating an edge lift negates its matrices, so the triple
    products reproduce exactly the sign cocycle of the lift. The module's
    transitions are the lift's read-only stacks, and it keeps the lift's
    triple products, so verify_module forms none of them again.
    """
    data = lifted.data
    if data.dimension % 2:
        raise ValueError("spinor matrices implemented for even fiber dimension only")
    module = GerbeModuleData(cover=data.cover, band_order=band_order, weight=1,
                             rank=spinor_rep(data.dimension).dim, transitions=lifted.unitaries)
    object.__setattr__(module, "_products", lifted._products)
    return module


def identity_module(cover, rank=1, weight=0, band_order=2):
    """Trivial-transition module on a SampleCover."""
    eye = np.eye(rank, dtype=complex)
    transitions = {edge: np.broadcast_to(eye, (graph.count, rank, rank))
                   for edge, graph in cover.edges.items()}
    return GerbeModuleData(cover, band_order, weight, rank, transitions)
