"""Cech machinery on abstract simplicial nerves.

A `Nerve` is the combinatorial nerve of a cover: a face-closed simplicial
complex listed per degree up to its top degree, and at least up to degree 3.
Cochains take values in Z or in Z_k written additively; all cohomology is
computed exactly via integer Smith normal form, so torsion is exact, not a
floating-point byproduct.  Each coboundary matrix is built once per nerve as
a read-only int64 array and factored once; both are cached on the nerve.
Every product with these matrices or the Smith transforms goes through
`smith.dot`, and every reduction of such a product by the modulus through
`smith.divmod_by`, so `smith` alone decides when float64 (below 2**53) or
int64 (below 2**62) is exact and when to fall back to Python ints; cochain
values and every reported number stay Python ints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import smith

MIN_TOP_DEGREE = 3  # degrees 0..3 are listed even when empty


def _check_ring(ring):
    if ring == "Z":
        return ring
    if isinstance(ring, int) and ring >= 2:
        return ring
    raise ValueError(f"ring must be 'Z' or an integer modulus >= 2, got {ring!r}")


@dataclass(frozen=True)
class Nerve:
    """Face-closed simplicial complex, simplices listed per degree 0..top_degree.

    `top_degree` is the largest simplex degree, or 3 if that is smaller."""

    vertex_count: int
    simplices: tuple  # simplices[q] = sorted tuple of sorted vertex tuples

    @classmethod
    def from_simplices(cls, simplices, vertex_count=None):
        """Build a nerve from any iterable of simplices, closing under faces.

        Input simplices may be given in any order and with any vertex order.
        Faces are closed one codimension at a time from the top degree down:
        each simplex adds its facets to the degree below, so a face that is
        listed (or reached) once is expanded once.  Every vertex below
        `vertex_count` is a 0-simplex, so edges need no expanding.
        """
        simplices = [tuple(s) for s in simplices]
        top = max([MIN_TOP_DEGREE] + [len(s) - 1 for s in simplices])
        by_degree = [set() for _ in range(top + 1)]
        max_vertex, widest = -1, None  # the largest vertex and a simplex holding it
        for s in simplices:
            vs = tuple(sorted(set(map(int, s))))
            if len(vs) != len(s):
                raise ValueError(f"simplex {s} has repeated vertices")
            if not vs:
                raise ValueError("empty simplex")
            if vs[0] < 0:
                raise ValueError(f"negative vertex in simplex {s}")
            if vs[-1] > max_vertex:
                max_vertex, widest = vs[-1], s
            by_degree[len(vs) - 1].add(vs)
        if vertex_count is None:
            vertex_count = max_vertex + 1
        elif max_vertex >= vertex_count:
            raise ValueError(f"simplex vertex exceeds vertex_count: simplex {widest} "
                             f"has vertex {max_vertex}, vertex_count is {vertex_count}")
        for q in range(top, 1, -1):
            below = by_degree[q - 1]
            for s in by_degree[q]:
                below.update(itertools.combinations(s, q))
        by_degree[0].update((v,) for v in range(vertex_count))
        return cls(
            vertex_count=vertex_count,
            simplices=tuple(tuple(sorted(level)) for level in by_degree),
        )

    def __post_init__(self):
        top = self.top_degree
        if top < MIN_TOP_DEGREE or top > MIN_TOP_DEGREE and not self.simplices[top]:
            raise ValueError("simplices must list degrees 0..max(3, top)")
        seen_all = set()
        for q, level in enumerate(self.simplices):
            for s in level:
                if len(s) != q + 1 or any(a >= b for a, b in zip(s, s[1:])):
                    raise ValueError(f"degree-{q} simplex {s} not strictly increasing")
                if s[0] < 0 or s[-1] >= self.vertex_count:
                    raise ValueError(f"simplex {s} out of vertex range")
                seen_all.add(s)
        # face closure
        for q in range(1, self.top_degree + 1):
            for s in self.simplices[q]:
                for face in itertools.combinations(s, q):
                    if face not in seen_all:
                        raise ValueError(f"missing face {face} of {s}")

    @property
    def top_degree(self):
        return len(self.simplices) - 1

    def n_simplices(self, q):
        return len(self.simplices[q]) if 0 <= q <= self.top_degree else 0

    def index(self, simplex):
        key = tuple(sorted(simplex))
        table = self._index_tables()[len(key) - 1]
        if key not in table:
            raise KeyError(f"simplex {simplex} not in nerve")
        return table[key]

    def _index_tables(self):
        return self._cached("index", lambda: tuple(
            {s: i for i, s in enumerate(level)} for level in self.simplices))

    def _cached(self, key, build):
        """build() computed once per nerve.  The cache is set past the frozen
        dataclass and is not a field, so it takes no part in equality or
        hashing."""
        cache = getattr(self, "_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_cache", cache)
        if key not in cache:
            cache[key] = build()
        return cache[key]


@dataclass(frozen=True)
class Cochain:
    """Integer-valued q-cochain; `ring` is "Z" or a modulus k (values in [0,k))."""

    degree: int
    ring: object
    values: tuple

    def __post_init__(self):
        _check_ring(self.ring)
        if self.degree < 0:
            raise ValueError("cochain degree must be non-negative")
        vals = tuple(int(v) for v in self.values)
        if self.ring != "Z":
            vals = tuple(v % self.ring for v in vals)
        object.__setattr__(self, "values", vals)

    def value_on(self, nerve, simplex):
        return self.values[nerve.index(simplex)]


def zero_cochain(nerve, degree, ring="Z"):
    return Cochain(degree, ring, (0,) * nerve.n_simplices(degree))


def _check_match(c, nerve):
    if len(c.values) != nerve.n_simplices(c.degree):
        raise ValueError(
            f"cochain/nerve mismatch: degree-{c.degree} cochain has {len(c.values)} "
            f"values for {nerve.n_simplices(c.degree)} simplices"
        )


def delta_matrix(nerve, q):
    """Read-only int64 matrix of the coboundary C^q -> C^{q+1}, rows =
    (q+1)-simplices, built once per nerve."""
    if not 0 <= q < nerve.top_degree:
        raise ValueError("coboundary defined below the nerve's top degree only")
    return nerve._cached(("delta", q), lambda: _delta_matrix(nerve, q))


def _delta_matrix(nerve, q):
    # each simplex is keyed by its vertices as digits in base vertex_count, so
    # the keys of a level are sorted like the level and faces are found by
    # binary search; vertex_count**(q+1) past int64 keys on Python ints
    rows, cols = nerve.n_simplices(q + 1), nerve.n_simplices(q)
    dtype = np.int64 if nerve.vertex_count ** (q + 1) < 1 << 63 else object
    radix = np.array([nerve.vertex_count ** p for p in range(q, -1, -1)], dtype=dtype)
    keys = np.array(nerve.simplices[q], dtype=dtype).reshape(cols, q + 1) @ radix
    upper = np.array(nerve.simplices[q + 1], dtype=dtype).reshape(rows, q + 2)
    mat = np.zeros((rows, cols), dtype=np.int64)
    for i in range(q + 2):
        faces = np.delete(upper, i, axis=1) @ radix
        mat[np.arange(rows), np.searchsorted(keys, faces)] = (-1) ** i
    mat.flags.writeable = False
    return mat


def _delta(c, nerve):
    """delta c over Z, as an int64 or object array of exact values."""
    _check_match(c, nerve)
    if c.degree >= nerve.top_degree:
        raise ValueError(f"coboundary of a degree-{c.degree} cochain is not represented")
    # a row of delta_q has q + 2 entries +-1
    return smith.dot(delta_matrix(nerve, c.degree), c.values, c.degree + 2)


def coboundary(c, nerve):
    """(delta c)(sigma) = sum_i (-1)^i c(d_i sigma)."""
    return Cochain(c.degree + 1, c.ring, tuple(_delta(c, nerve).tolist()))


def is_cocycle(c, nerve):
    if c.degree == nerve.top_degree:
        return True  # no simplices above the top degree
    d = _delta(c, nerve)
    return not np.count_nonzero(d if c.ring == "Z" else smith.divmod_by(d, c.ring)[1])


def solve_coboundary(c, nerve):
    """A cochain b with delta b = c, or None when [c] != 0.

    Exact in both rings: over Z this is an integer linear solve, over Z_k a
    congruence solve, both through the nerve's cached Smith normal form of
    the coboundary matrix.
    """
    _check_match(c, nerve)
    if c.degree == 0:
        raise ValueError("degree-0 cochains are never coboundaries here")
    if not is_cocycle(c, nerve):
        raise ValueError("input is not a cocycle; it cannot be a coboundary")
    snf = _factor(nerve, c.degree - 1)
    b = list(c.values) or [0]  # no degree-q simplices: the factored zero row
    sol = snf.solve(b) if c.ring == "Z" else snf.solve_mod(b, c.ring)
    if sol is None:
        return None
    return Cochain(c.degree - 1, c.ring, tuple(sol))


@dataclass(frozen=True)
class CohomologyResult:
    degree: int
    ring: object
    orders: tuple  # cyclic factor orders, 0 meaning an infinite factor
    generators: tuple = field(default=())  # one representative Cochain per order


def _factor(nerve, q):
    """Smith normal form of delta_q, computed once per nerve.

    With no (q+1)-simplices delta_q factors as the 1 x n zero matrix, so V is
    still n x n and every q-cochain is a cocycle.
    """
    def build():
        mat = delta_matrix(nerve, q)
        if not len(mat):
            mat = np.zeros((1, mat.shape[1]), dtype=np.int64)
        return smith.smith_normal_form(mat)

    return nerve._cached(("smith", q), build)


def _cocycle_quotient(nerve, q):
    """Smith normal form of the degree-q coboundaries in cocycle coordinates.

    With U delta_q V = D of rank r, the Z-cocycles are the columns r.. of V.
    V^-1 delta_{q-1} vanishes in rows 0..r-1, since D V^-1 delta_{q-1} =
    U delta_q delta_{q-1} = 0, so its rows r.. present H^q(nerve; Z) as
    Z^(n-r) modulo their column span.  Needs n_simplices(q) > 0.
    """
    if q == nerve.top_degree:
        return _factor(nerve, q - 1)  # V = I and r = 0: the matrix is delta_{q-1}

    def build():
        up = _factor(nerve, q)
        if q:
            down = delta_matrix(nerve, q - 1)
        else:
            down = np.zeros((nerve.n_simplices(0), 0), dtype=np.int64)
        return smith.smith_normal_form(up.times(up.vinv[up.rank:], down))

    return nerve._cached(("cocycles", q), build)


def cohomology(nerve, degree, ring="Z"):
    """H^degree(nerve; ring) as a list of cyclic factors with representatives.

    Orders are invariant factors with 1s dropped, each dividing the next, 0
    meaning an infinite factor.  Both rings read the answer off the two Smith
    forms that `_factor` and `_cocycle_quotient` cache on the nerve, and the
    result is cached there too.  With U delta_q V = D of rank r, the
    coboundaries in the cocycle coordinates V[:, r:] have Smith diagonal e_j,
    and H^q(Z) = sum Z/e_j.  Over Z_k the cocycle quotient gives the pieces
    Z/gcd(e_j, k) with the same generators, and each i < r gives a piece
    Z/gcd(d_i, k) generated by (k/gcd) V[:, i]; one Smith form of the pieces'
    diagonal relation matrix regroups them into invariant factors.  Above
    the nerve's top degree the group is zero.
    """
    _check_ring(ring)
    if degree < 0:
        raise ValueError("degree must be non-negative")
    return nerve._cached(("cohomology", degree, ring),
                         lambda: _cohomology(nerve, degree, ring))


def _cohomology(nerve, degree, ring):
    n = nerve.n_simplices(degree)
    if n == 0:
        return CohomologyResult(degree=degree, ring=ring, orders=())
    up = _factor(nerve, degree) if degree < nerve.top_degree else None
    rank, d = (0, []) if up is None else (up.rank, up.diagonal()[:up.rank])
    quotient = _cocycle_quotient(nerve, degree)
    e = quotient.diagonal()
    e += [0] * (n - rank - len(e))  # cocycle directions the coboundaries miss
    k = None if ring == "Z" else ring
    # the quotient's piece j is generated by V[:, r:] @ column j of its U^-1,
    # where in the top degree V = I and r = 0
    cyclic = [j for j, o in enumerate(e) if (o if k is None else math.gcd(o, k)) != 1]
    gens = quotient.uinv[:, cyclic]
    if up is not None:
        gens = up.times(up.v[:, rank:], gens)
    gens = gens.T.tolist()

    # one (order, generator) per cyclic piece; pieces of order 1 are dropped
    if k is None:
        return _result(degree, ring, [(e[j], g) for j, g in zip(cyclic, gens)])
    pieces = [(math.gcd(di, k), i) for i, di in enumerate(d)]
    pieces = [(g, [(k // g) * x for x in up.v[:, i].tolist()]) for g, i in pieces if g > 1]
    pieces += [(math.gcd(e[j], k), g) for j, g in zip(cyclic, gens)]
    return _result(degree, ring, _invariant_factors(pieces, k))


def _result(degree, ring, pieces):
    return CohomologyResult(
        degree=degree,
        ring=ring,
        orders=tuple(o for o, _ in pieces),
        generators=tuple(Cochain(degree, ring, tuple(g)) for _, g in pieces),
    )


def _invariant_factors(pieces, k):
    """Regroup cyclic pieces (order, generator) of a Z_k-module into invariant
    factors: the Smith form of their diagonal relation matrix, with generators
    pulled back through its U^-1 and reduced mod k."""
    if not pieces:
        return []
    relations = smith.smith_normal_form(np.diag([o for o, _ in pieces]))
    orders = relations.diagonal()
    kept = [j for j, o in enumerate(orders) if o != 1]
    residues = [[x % k for x in g] for _, g in pieces]
    _, gens = smith.divmod_by(relations.times(relations.uinv[:, kept].T, residues), k)
    return list(zip((orders[j] for j in kept), gens.tolist()))


@dataclass(frozen=True)
class BocksteinResult:
    beta: Cochain  # integral degree-3 cocycle delta(lift)/k
    trivial: bool  # True when [beta] = 0 in H^3(nerve; Z)
    witness: Cochain | None  # integral 2-cochain b with delta b = beta, when trivial


def bockstein(c, nerve):
    """Integral Bockstein of a degree-2 mod-k cocycle.

    Lift the values to integers, apply the integer coboundary, divide by k.
    The triviality flag answers whether the class lifts: it is the spin-c
    style obstruction statement for the cocycle's class.
    """
    if c.degree != 2 or c.ring == "Z":
        raise ValueError("bockstein expects a degree-2 cochain over Z_k")
    k = c.ring
    # the values in [0, k) are the integer lift; one product gives delta(lift)
    quotient, remainder = smith.divmod_by(_delta(c, nerve), k)
    if remainder.any():
        raise ValueError("bockstein input must be a cocycle mod k")
    beta = Cochain(3, "Z", tuple(quotient.tolist()))
    witness = solve_coboundary(beta, nerve) if any(beta.values) else zero_cochain(nerve, 2)
    return BocksteinResult(beta=beta, trivial=witness is not None, witness=witness)


# ---------------------------------------------------------------------------
# shipped benchmark complexes


def tetrahedron_sphere():
    """Boundary of the 3-simplex: the minimal triangulated 2-sphere."""
    return Nerve.from_simplices(itertools.combinations(range(4), 3))


def projective_plane():
    """Minimal 6-vertex triangulation of the real projective plane."""
    faces = [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
    ]
    return Nerve.from_simplices(faces)


def lens_complex(k):
    """Synthetic lens-type 3-complex with H^2(.;Z_k) = Z_k and H^3(.;Z) = Z_k.

    Suspension of a k-fold dunce cap (a disk whose boundary wraps a 3-vertex
    circle k times).  This carries the low-degree cohomology pattern of the
    cyclic classifying space, so the integral Bockstein maps the standard
    mod-k 2-cocycle to a generator of H^3 - the nontrivial-obstruction
    benchmark.  Closed 3-manifold models would not do this: their H^3 is Z.
    """
    if k < 2:
        raise ValueError("lens complex needs k >= 2")
    base = 3 * k  # a-circle vertices 0..3k-1, b-circle 3k..3k+2, apex 3k+3
    b0, apex = base, base + 3
    north, south = base + 4, base + 5
    tris = []
    for i in range(3 * k):
        j = (i + 1) % (3 * k)
        tris.append((i, j, b0 + j % 3))
        tris.append((i, b0 + i % 3, b0 + j % 3))
        tris.append((apex, i, j))
    simplices = []
    for t in tris:
        simplices.append(t)
        simplices.append(t + (north,))
        simplices.append(t + (south,))
    return Nerve.from_simplices(simplices)


def standard_lens_cocycle(k):
    """(nerve, cochain): the generating mod-k 2-cocycle on lens_complex(k)."""
    nerve = lens_complex(k)
    result = cohomology(nerve, 2, ring=k)
    if len(result.orders) != 1 or result.orders[0] != k:
        raise AssertionError("lens complex lost its expected H^2 mod k")
    return nerve, result.generators[0]
