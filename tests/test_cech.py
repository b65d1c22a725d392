import itertools
import math

import numpy as np
import pytest

from gerbedex import cech, smith
from gerbedex.manifest import read_nerve, write_nerve


# ---------------------------------------------------------------------------
# independent oracles

def gf_rank(mat, p):
    """Row-echelon rank over GF(p); written independently of smith.py."""
    a = (np.array(mat, dtype=np.int64) % p).tolist()
    if not a or not a[0]:
        return 0
    rows, cols = len(a), len(a[0])
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][c] % p), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], p - 2, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for r in range(rows):
            if r != rank and a[r][c]:
                f = a[r][c]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def betti_gf(nerve, q, p):
    """dim H^q(nerve; GF(p)) by brute-force rank counting."""
    n = nerve.n_simplices(q)
    up = cech.delta_matrix(nerve, q) if q < 3 else [[0] * n]
    down = cech.delta_matrix(nerve, q - 1) if q > 0 else [[0] * 0 for _ in range(n)]
    return n - gf_rank(up, p) - gf_rank(down, p)


# ---------------------------------------------------------------------------
# smith normal form

def random_int_matrix(rng, m, n, lo=-5, hi=5):
    return [[int(rng.integers(lo, hi + 1)) for _ in range(n)] for _ in range(m)]


@pytest.mark.parametrize("trial", range(30))
def test_snf_transforms_and_divisibility(trial):
    rng = np.random.default_rng(1000 + trial)
    m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    a = random_int_matrix(rng, m, n)
    res = smith.smith_normal_form(a)
    assert smith.matmul(smith.matmul(res.u, a), res.v) == res.d
    assert smith.matmul(smith.matmul(res.uinv, res.d), res.vinv) == a
    assert smith.matmul(res.u, res.uinv) == smith.identity(m)
    assert smith.matmul(res.v, res.vinv) == smith.identity(n)
    diag = res.diagonal()
    assert all(d >= 0 for d in diag)
    for i in range(m):
        for j in range(n):
            if i != j:
                assert res.d[i][j] == 0
    nonzero = [d for d in diag if d]
    assert len(nonzero) == res.rank
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0


def test_snf_known_values():
    res = smith.smith_normal_form([[2, 0], [0, 3]])
    assert res.diagonal() == [1, 6]
    # invariant factors from gcds of minors: gcd(entries) = 2,
    # gcd(2x2 minors) = 4, det = 624, so factors are 2, 2, 156
    res = smith.smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert res.diagonal() == [2, 2, 156]
    res = smith.smith_normal_form([[0, 0], [0, 0]])
    assert res.rank == 0


@pytest.mark.parametrize("trial", range(20))
def test_integer_and_modular_solving(trial):
    rng = np.random.default_rng(2000 + trial)
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    a = random_int_matrix(rng, m, n)
    x = [int(rng.integers(-4, 5)) for _ in range(n)]
    b = smith.matvec(a, x)
    sol = smith.solve_integer(a, b)
    assert sol is not None
    assert smith.matvec(a, sol) == b
    k = int(rng.integers(2, 8))
    solk = smith.solve_mod(a, b, k)
    assert solk is not None
    assert all((u - v) % k == 0 for u, v in zip(smith.matvec(a, solk), b))


def test_solve_integer_unsolvable():
    # 2x = 1 has no integer solution but is solvable mod 5
    assert smith.solve_integer([[2]], [1]) is None
    assert smith.solve_mod([[2]], [1], 5) == [3]
    assert smith.solve_mod([[2]], [1], 4) is None


def test_kernel_basis_spans_kernel():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m, n = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        a = random_int_matrix(rng, m, n)
        kb = smith.kernel_basis(a)
        z = len(kb[0]) if kb and kb[0] else 0
        for j in range(z):
            col = [kb[r][j] for r in range(n)]
            assert all(v == 0 for v in smith.matvec(a, col))
        arr = np.array(a, dtype=float)
        expected = n - np.linalg.matrix_rank(arr) if a else n
        assert z == expected


# ---------------------------------------------------------------------------
# nerves and cochains

def test_nerve_face_closure_and_validation():
    nerve = cech.Nerve.from_simplices([(0, 1, 2)])
    assert nerve.n_simplices(0) == 3
    assert nerve.n_simplices(1) == 3
    assert nerve.n_simplices(2) == 1
    with pytest.raises(ValueError):
        cech.Nerve(vertex_count=2, simplices=(((0,), (1,)), ((0, 1),), ((0, 1, 2),), ()))
    with pytest.raises(ValueError):
        cech.Nerve.from_simplices([(0, 0, 1)])


def test_nerve_truncates_to_three_skeleton():
    nerve = cech.Nerve.from_simplices([tuple(range(5))])
    assert nerve.n_simplices(3) == 5
    assert len(nerve.simplices) == 4


def test_cochain_mismatch_rejected():
    nerve = cech.tetrahedron_sphere()
    bad = cech.Cochain(1, "Z", (1, 2))
    with pytest.raises(ValueError, match="mismatch"):
        cech.coboundary(bad, nerve)


@pytest.mark.parametrize("trial", range(15))
def test_delta_squared_is_zero(trial):
    rng = np.random.default_rng(3000 + trial)
    pool = list(itertools.combinations(range(6), 3)) + list(itertools.combinations(range(6), 4))
    picks = [pool[i] for i in rng.choice(len(pool), size=6, replace=False)]
    nerve = cech.Nerve.from_simplices(picks)
    for q in (0, 1):
        c = cech.Cochain(q, "Z", tuple(int(rng.integers(-9, 10)) for _ in range(nerve.n_simplices(q))))
        dd = cech.coboundary(cech.coboundary(c, nerve), nerve)
        assert all(v == 0 for v in dd.values)


def test_coboundary_example_single_triangle():
    # delta c on (0,1,2) = c(12) - c(02) + c(01)
    nerve = cech.Nerve.from_simplices([(0, 1, 2)])
    c = cech.Cochain(1, "Z", tuple(0 for _ in range(3)))
    vals = {(0, 1): 5, (0, 2): 3, (1, 2): 2}
    c = cech.Cochain(1, "Z", tuple(vals[s] for s in nerve.simplices[1]))
    d = cech.coboundary(c, nerve)
    assert d.values == (2 - 3 + 5,)


# ---------------------------------------------------------------------------
# cohomology of the shipped complexes (frozen expectations, brute cross-checks)

def test_sphere_tetrahedron_cohomology():
    nerve = cech.tetrahedron_sphere()
    assert cech.cohomology(nerve, 0).orders == (0,)
    assert cech.cohomology(nerve, 1).orders == ()
    h2 = cech.cohomology(nerve, 2)
    assert h2.orders == (0,)
    assert cech.cohomology(nerve, 3).orders == ()
    gen = h2.generators[0]
    assert cech.is_cocycle(gen, nerve)
    assert cech.solve_coboundary(gen, nerve) is None
    # brute cross-check over two prime fields
    for p in (2, 3, 5):
        assert betti_gf(nerve, 2, p) == 1
        assert betti_gf(nerve, 1, p) == 0


def test_projective_plane_cohomology():
    nerve = cech.projective_plane()
    assert nerve.n_simplices(0) == 6
    assert nerve.n_simplices(1) == 15
    assert nerve.n_simplices(2) == 10
    assert cech.cohomology(nerve, 1).orders == ()
    assert cech.cohomology(nerve, 2).orders == (2,)  # integral torsion Z_2
    h2 = cech.cohomology(nerve, 2, ring=2)
    assert h2.orders == (2,)
    gen = h2.generators[0]
    assert cech.is_cocycle(gen, nerve)
    assert cech.solve_coboundary(gen, nerve) is None  # the generator is not exact
    shifted = cech.coboundary(cech.Cochain(1, 2, tuple(i % 2 for i in range(15))), nerve)
    combined = cech.Cochain(2, 2, tuple(a + b for a, b in zip(gen.values, shifted.values)))
    assert cech.solve_coboundary(combined, nerve) is None  # class is basis-independent
    # GF(p) brute force: visible at p = 2 only
    assert betti_gf(nerve, 2, 2) == 1
    assert betti_gf(nerve, 1, 2) == 1
    assert betti_gf(nerve, 2, 3) == 0
    assert betti_gf(nerve, 2, 5) == 0


@pytest.mark.parametrize("k", [2, 3, 5])
def test_lens_complex_cohomology(k):
    nerve = cech.lens_complex(k)
    assert cech.cohomology(nerve, 1).orders == ()
    assert cech.cohomology(nerve, 2).orders == ()
    h3 = cech.cohomology(nerve, 3)
    assert h3.orders == (k,)
    h2k = cech.cohomology(nerve, 2, ring=k)
    assert h2k.orders == (k,)
    # brute force mod p: the pattern is visible exactly at primes dividing k
    for p in (2, 3, 5):
        expected = 1 if k % p == 0 else 0
        assert betti_gf(nerve, 2, p) == expected
        assert betti_gf(nerve, 3, p) == expected


def test_bockstein_trivial_on_projective_plane():
    # 2-dimensional complex: beta lands in an empty degree, trivially zero
    nerve = cech.projective_plane()
    gen = cech.cohomology(nerve, 2, ring=2).generators[0]
    res = cech.bockstein(gen, nerve)
    assert res.trivial
    assert all(v == 0 for v in res.beta.values)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_bockstein_nontrivial_on_lens_complex(k):
    nerve, gen = cech.standard_lens_cocycle(k)
    res = cech.bockstein(gen, nerve)
    assert not res.trivial
    assert res.witness is None
    assert cech.is_cocycle(res.beta, nerve)
    # beta generates H^3: k*beta must be exact while beta is not
    ktimes = cech.Cochain(3, "Z", tuple(k * v for v in res.beta.values))
    assert cech.solve_coboundary(ktimes, nerve) is not None


def test_bockstein_vanishes_on_exact_cocycles():
    nerve = cech.lens_complex(3)
    b = cech.Cochain(1, 3, tuple(i % 3 for i in range(nerve.n_simplices(1))))
    c = cech.coboundary(b, nerve)
    res = cech.bockstein(c, nerve)
    assert res.trivial


def test_solve_coboundary_roundtrip():
    rng = np.random.default_rng(11)
    nerve = cech.lens_complex(2)
    for ring in ("Z", 2, 6):
        vals = tuple(int(rng.integers(0, 6)) for _ in range(nerve.n_simplices(1)))
        b = cech.Cochain(1, ring, vals)
        c = cech.coboundary(b, nerve)
        sol = cech.solve_coboundary(c, nerve)
        assert sol is not None
        again = cech.coboundary(sol, nerve)
        if ring == "Z":
            assert again.values == c.values
        else:
            assert all((u - v) % ring == 0 for u, v in zip(again.values, c.values))


def test_solve_coboundary_rejects_non_cocycle():
    nerve = cech.tetrahedron_sphere()
    c = cech.Cochain(2, "Z", (1, 0, 0, 1))
    if not cech.is_cocycle(c, nerve):
        with pytest.raises(ValueError, match="not a cocycle"):
            cech.solve_coboundary(c, nerve)


def test_cohomology_mod_composite_ring():
    # S^2 mod 4: H^2 = Z_4, one generator of full order
    nerve = cech.tetrahedron_sphere()
    h2 = cech.cohomology(nerve, 2, ring=4)
    assert h2.orders == (4,)
    gen = h2.generators[0]
    doubled = cech.Cochain(2, 4, tuple(2 * v for v in gen.values))
    assert cech.solve_coboundary(doubled, nerve) is None  # order really is 4


@pytest.mark.parametrize("ring", ["Z", 3])
@pytest.mark.parametrize("nerve, q", [
    (cech.tetrahedron_sphere(), 3),  # no 3-simplices
    (cech.Nerve.from_simplices([(0,), (1,)]), 1),  # no edges
])
def test_solve_coboundary_witness_spans_lower_degree(nerve, q, ring):
    c = cech.zero_cochain(nerve, q, ring)
    witness = cech.solve_coboundary(c, nerve)
    assert len(witness.values) == nerve.n_simplices(q - 1)
    assert cech.coboundary(witness, nerve) == c


# ---------------------------------------------------------------------------
# cohomology in every degree and ring against independent oracles

def random_nerve(seed):
    rng = np.random.default_rng(seed)
    nv = int(rng.integers(4, 8))
    pool = [s for r in (2, 3, 4) for s in itertools.combinations(range(nv), r)]
    picks = rng.choice(len(pool), size=int(rng.integers(3, 10)), replace=False)
    return cech.Nerve.from_simplices([pool[i] for i in picks], vertex_count=nv)


def disjoint_union(*nerves):
    simplices, offset = [], 0
    for nerve in nerves:
        simplices += [tuple(v + offset for v in s) for level in nerve.simplices for s in level]
        offset += nerve.vertex_count
    return cech.Nerve.from_simplices(simplices, vertex_count=offset)


ORACLE_NERVES = {
    "tetrahedron": cech.tetrahedron_sphere,
    "projective_plane": cech.projective_plane,
    # free and torsion pieces, and coprime torsion pieces, in one degree
    "projective_plane+tetrahedron": lambda: disjoint_union(
        cech.projective_plane(), cech.tetrahedron_sphere()),
    "projective_plane+lens_3": lambda: disjoint_union(
        cech.projective_plane(), cech.lens_complex(3)),
    **{f"lens_{k}": (lambda k=k: cech.lens_complex(k)) for k in (2, 3, 4)},
    **{f"random_{seed}": (lambda seed=seed: random_nerve(4000 + seed)) for seed in range(20)},
}


def prime_powers(n):
    """{p: p^a} over the primes p dividing n > 0, by trial division."""
    out, p = {}, 2
    while n > 1:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 1) * p
        p += 1
    return out


def primary_parts(orders):
    """Sorted prime-power (and 0) cyclic factors of the sum of Z/o, o in orders."""
    return sorted(part for o in orders
                  for part in ((0,) if o == 0 else prime_powers(o).values()))


def is_exact(c, nerve):
    if c.degree == 0:
        return not any(c.values)  # there are no degree -1 cochains
    return cech.solve_coboundary(c, nerve) is not None


def scaled(c, t):
    return cech.Cochain(c.degree, c.ring, tuple(t * v for v in c.values))


@pytest.mark.parametrize("name", sorted(ORACLE_NERVES))
def test_cohomology_against_oracles(name):
    nerve = ORACLE_NERVES[name]()
    integral = {q: cech.cohomology(nerve, q, "Z") for q in range(4)}
    for q in range(4):
        for ring in ("Z", 2, 3, 4, 6):
            result = integral[q] if ring == "Z" else cech.cohomology(nerve, q, ring)
            orders = list(result.orders)
            assert len(result.generators) == len(orders)
            if ring != "Z":
                # invariant factors: 1s dropped, each divides the next and k
                assert all(1 < o and ring % o == 0 for o in orders)
                assert all(b % a == 0 for a, b in zip(orders, orders[1:]))
                # (a) GF(p) ranks
                if ring in (2, 3):
                    assert len(orders) == betti_gf(nerve, q, ring)
                # (b) universal coefficients: H^q(Z) (x) Z_k + Tor(H^{q+1}(Z), Z_k)
                above = integral[q + 1].orders if q < 3 else ()
                expected = ([math.gcd(o, ring) for o in integral[q].orders]
                            + [math.gcd(o, ring) for o in above if o])
                assert primary_parts(orders) == primary_parts(expected)
            # (c) generators are cocycles of exactly the stated order
            for order, gen in zip(orders, result.generators):
                assert cech.is_cocycle(gen, nerve)
                if order == 0:
                    assert not is_exact(gen, nerve)
                    continue
                assert is_exact(scaled(gen, order), nerve)
                for p in prime_powers(order):
                    assert not is_exact(scaled(gen, order // p), nerve)


# ---------------------------------------------------------------------------
# factorizations are cached per nerve

@pytest.fixture
def snf_calls(monkeypatch):
    calls = []
    real = smith.smith_normal_form

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(smith, "smith_normal_form", counting)
    return calls


def test_workload_sequence_factors_delta2_once(snf_calls):
    k = 3
    nerve = cech.lens_complex(k)
    h2k = cech.cohomology(nerve, 2, k)
    cech.cohomology(nerve, 2, "Z")
    cech.cohomology(nerve, 3, "Z")
    assert not cech.bockstein(h2k.generators[0], nerve).trivial
    delta2 = cech.delta_matrix(nerve, 2)
    assert sum(a == delta2 for a in snf_calls) == 1


def test_repeated_queries_factor_nothing_new(snf_calls):
    nerve = cech.lens_complex(3)

    def queries():
        for q in range(4):
            for ring in ("Z", 2, 3, 6):
                cech.cohomology(nerve, q, ring)
        beta = cech.bockstein(cech.cohomology(nerve, 2, 3).generators[0], nerve).beta
        assert cech.solve_coboundary(scaled(beta, 3), nerve) is not None
        assert cech.solve_coboundary(beta, nerve) is None

    queries()
    first = len(snf_calls)
    assert first > 0
    queries()
    assert len(snf_calls) == first


def test_cache_keeps_nerve_equality_hash_and_file_roundtrip(tmp_path):
    warm, cold = cech.lens_complex(3), cech.lens_complex(3)
    cech.bockstein(cech.cohomology(warm, 2, 3).generators[0], warm)
    assert warm == cold and hash(warm) == hash(cold)
    assert {cold: 1}[warm] == 1
    path = tmp_path / "nerve.txt"
    write_nerve(path, warm)
    assert read_nerve(path) == warm == cold
