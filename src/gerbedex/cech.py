"""Cech machinery on abstract simplicial nerves, in degrees 0..3.

A `Nerve` is the combinatorial nerve of a cover: a face-closed simplicial
complex truncated at degree 3 (the toolkit never needs cohomology above H^3).
Cochains take values in Z or in Z_k written additively; all cohomology is
computed exactly via integer Smith normal form, so torsion is exact, not a
floating-point byproduct.  Each coboundary matrix is factored once per nerve,
and the factorization is cached on the nerve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import smith

MAX_DEGREE = 3


def _check_ring(ring):
    if ring == "Z":
        return ring
    if isinstance(ring, int) and ring >= 2:
        return ring
    raise ValueError(f"ring must be 'Z' or an integer modulus >= 2, got {ring!r}")


@dataclass(frozen=True)
class Nerve:
    """Face-closed simplicial complex with simplices listed per degree 0..3."""

    vertex_count: int
    simplices: tuple  # simplices[q] = sorted tuple of sorted vertex tuples

    @classmethod
    def from_simplices(cls, simplices, vertex_count=None):
        """Build a nerve from any iterable of simplices, closing under faces.

        Input simplices may be given in any order and with any vertex order;
        anything above degree 3 is truncated to its 3-skeleton.
        """
        by_degree = [set() for _ in range(MAX_DEGREE + 1)]
        max_vertex = -1
        for s in simplices:
            vs = tuple(sorted(set(int(v) for v in s)))
            if len(vs) != len(s):
                raise ValueError(f"simplex {s} has repeated vertices")
            if not vs:
                raise ValueError("empty simplex")
            if min(vs) < 0:
                raise ValueError(f"negative vertex in simplex {s}")
            max_vertex = max(max_vertex, vs[-1])
            top = min(len(vs), MAX_DEGREE + 1)
            for r in range(1, top + 1):
                for face in itertools.combinations(vs, r):
                    by_degree[r - 1].add(face)
        if vertex_count is None:
            vertex_count = max_vertex + 1
        elif max_vertex >= vertex_count:
            raise ValueError("simplex vertex exceeds vertex_count")
        for v in range(vertex_count):
            by_degree[0].add((v,))
        return cls(
            vertex_count=vertex_count,
            simplices=tuple(tuple(sorted(level)) for level in by_degree),
        )

    def __post_init__(self):
        if len(self.simplices) != MAX_DEGREE + 1:
            raise ValueError("simplices must list degrees 0..3")
        seen_all = set()
        for q, level in enumerate(self.simplices):
            for s in level:
                if len(s) != q + 1 or any(a >= b for a, b in zip(s, s[1:])):
                    raise ValueError(f"degree-{q} simplex {s} not strictly increasing")
                if s[0] < 0 or s[-1] >= self.vertex_count:
                    raise ValueError(f"simplex {s} out of vertex range")
                seen_all.add(s)
        # face closure
        for q in range(1, MAX_DEGREE + 1):
            for s in self.simplices[q]:
                for face in itertools.combinations(s, q):
                    if face not in seen_all:
                        raise ValueError(f"missing face {face} of {s}")

    def n_simplices(self, q):
        return len(self.simplices[q]) if 0 <= q <= MAX_DEGREE else 0

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
        if not (0 <= self.degree <= MAX_DEGREE):
            raise ValueError("cochain degree out of range 0..3")
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
    """Integer matrix of the coboundary C^q -> C^{q+1}, rows = (q+1)-simplices."""
    if not 0 <= q < MAX_DEGREE:
        raise ValueError("coboundary defined for degrees 0..2")
    rows = nerve.n_simplices(q + 1)
    cols = nerve.n_simplices(q)
    mat = [[0] * cols for _ in range(rows)]
    for r, s in enumerate(nerve.simplices[q + 1]):
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            mat[r][nerve.index(face)] += (-1) ** i
    return mat


def coboundary(c, nerve):
    """(delta c)(sigma) = sum_i (-1)^i c(d_i sigma)."""
    _check_match(c, nerve)
    if c.degree >= MAX_DEGREE:
        raise ValueError("coboundary of a degree-3 cochain is not represented")
    mat = delta_matrix(nerve, c.degree)
    out = smith.matvec(mat, list(c.values))
    return Cochain(c.degree + 1, c.ring, tuple(out))


def is_cocycle(c, nerve):
    if c.degree == MAX_DEGREE:
        return True  # no degree-4 simplices are represented
    d = coboundary(c, nerve)
    if c.ring == "Z":
        return all(v == 0 for v in d.values)
    return all(v % c.ring == 0 for v in d.values)


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

    @property
    def trivial(self):
        return not self.orders


def _factor(nerve, q):
    """Smith normal form of delta_q, computed once per nerve.

    With no (q+1)-simplices delta_q factors as the 1 x n zero matrix, so V is
    still n x n and every q-cochain is a cocycle.
    """
    def build():
        mat = delta_matrix(nerve, q) or [[0] * nerve.n_simplices(q)]
        return smith.smith_normal_form(mat)

    return nerve._cached(("delta", q), build)


def _cocycle_quotient(nerve, q):
    """Smith normal form of the degree-q coboundaries in cocycle coordinates.

    With U delta_q V = D of rank r, the Z-cocycles are the columns r.. of V.
    V^-1 delta_{q-1} vanishes in rows 0..r-1, since D V^-1 delta_{q-1} =
    U delta_q delta_{q-1} = 0, so its rows r.. present H^q(nerve; Z) as
    Z^(n-r) modulo their column span.  Needs n_simplices(q) > 0.
    """
    if q == MAX_DEGREE:
        return _factor(nerve, q - 1)  # V = I and r = 0: the matrix is delta_2

    def build():
        up = _factor(nerve, q)
        down = delta_matrix(nerve, q - 1) if q else [[] for _ in range(nerve.n_simplices(0))]
        return smith.smith_normal_form(smith.matmul(up.vinv[up.rank:], down))

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
    diagonal relation matrix regroups them into invariant factors.
    """
    _check_ring(ring)
    if not 0 <= degree <= MAX_DEGREE:
        raise ValueError("degree out of range 0..3")
    return nerve._cached(("cohomology", degree, ring),
                         lambda: _cohomology(nerve, degree, ring))


def _cohomology(nerve, degree, ring):
    n = nerve.n_simplices(degree)
    if n == 0:
        return CohomologyResult(degree=degree, ring=ring, orders=())
    if degree < MAX_DEGREE:
        up = _factor(nerve, degree)
        v, rank, d = up.v, up.rank, up.diagonal()
    else:
        v, rank, d = smith.identity(n), 0, []
    quotient = _cocycle_quotient(nerve, degree)
    e = quotient.diagonal()
    e += [0] * (n - rank - len(e))  # cocycle directions the coboundaries miss

    def cocycle_generator(j):
        # V[:, r:] @ column j of the quotient's U^-1
        col = [row[j] for row in quotient.uinv]
        return [sum(x * y for x, y in zip(vrow[rank:], col) if y) for vrow in v]

    # one (order, generator) per cyclic piece; pieces of order 1 are dropped
    if ring == "Z":
        pieces = [(o, cocycle_generator(j)) for j, o in enumerate(e) if o != 1]
    else:
        k = ring
        pieces = []
        for i in range(rank):
            g = math.gcd(d[i], k)
            if g > 1:
                pieces.append((g, [(k // g) * row[i] for row in v]))
        for j, o in enumerate(e):
            g = math.gcd(o, k)
            if g > 1:
                pieces.append((g, cocycle_generator(j)))
        pieces = _invariant_factors(pieces, k)
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
    s = len(pieces)
    relations = smith.smith_normal_form(
        [[pieces[i][0] if i == j else 0 for j in range(s)] for i in range(s)])
    out = []
    for j, order in enumerate(relations.diagonal()):
        if order == 1:
            continue
        coeffs = [row[j] for row in relations.uinv]
        gen = [sum(c * x for c, x in zip(coeffs, xs) if c) % k
               for xs in zip(*(g for _, g in pieces))]
        out.append((order, gen))
    return out


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
    _check_match(c, nerve)
    if not is_cocycle(c, nerve):
        raise ValueError("bockstein input must be a cocycle mod k")
    k = c.ring
    lift = Cochain(2, "Z", c.values)
    delta = coboundary(lift, nerve)
    assert all(v % k == 0 for v in delta.values)
    beta = Cochain(3, "Z", tuple(v // k for v in delta.values))
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
