import itertools
import math

import numpy as np
import pytest

from gerbedex import cech, smith
from gerbedex.manifest import read_nerve, write_nerve
from oracles import closed_nerve, identity, kernel_basis, matmul, matvec, relabelled


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


def snf_lists(a):
    """smith_normal_form(a) with its five matrices as lists of rows."""
    res = smith.smith_normal_form(a)
    return res, *(getattr(res, name).tolist() for name in ("d", "u", "v", "uinv", "vinv"))


@pytest.mark.parametrize("trial", range(30))
def test_snf_transforms_and_divisibility(trial):
    rng = np.random.default_rng(1000 + trial)
    m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    a = random_int_matrix(rng, m, n)
    res, d, u, v, uinv, vinv = snf_lists(a)
    assert matmul(matmul(u, a), v) == d
    assert matmul(matmul(uinv, d), vinv) == a
    assert matmul(u, uinv) == identity(m)
    assert matmul(v, vinv) == identity(n)
    diag = res.diagonal()
    assert all(x >= 0 for x in diag)
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
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


def test_snf_dense_non_unit_pivots():
    # Dense entries in [-4, 4] leave non-unit pivots that do not divide their
    # row and column; clearing them by Euclid-by-swaps blew the entries up.
    rng = np.random.default_rng(0)
    a = random_int_matrix(rng, 8, 8, lo=-4, hi=4)
    res, d, u, v, uinv, vinv = snf_lists(a)
    assert matmul(matmul(u, a), v) == d
    assert matmul(matmul(uinv, d), vinv) == a
    assert matmul(u, uinv) == identity(8)
    assert matmul(v, vinv) == identity(8)
    diag = res.diagonal()
    assert all(d[i][j] == 0 for i in range(8) for j in range(8) if i != j)
    assert all(y % x == 0 for x, y in zip(diag, diag[1:]) if x)
    assert res.rank == np.linalg.matrix_rank(np.array(a, dtype=float))
    assert math.prod(diag) == round(abs(np.linalg.det(np.array(a, dtype=float))))


@pytest.mark.parametrize("trial", range(20))
def test_integer_and_modular_solving(trial):
    rng = np.random.default_rng(2000 + trial)
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    a = random_int_matrix(rng, m, n)
    x = [int(rng.integers(-4, 5)) for _ in range(n)]
    b = matvec(a, x)
    sol = smith.smith_normal_form(a).solve(b)
    assert sol is not None
    assert matvec(a, sol) == b
    k = int(rng.integers(2, 8))
    solk = smith.smith_normal_form(a).solve_mod(b, k)
    assert solk is not None
    assert all((u - v) % k == 0 for u, v in zip(matvec(a, solk), b))


def test_solve_integer_unsolvable():
    # 2x = 1 has no integer solution but is solvable mod 5
    assert smith.smith_normal_form([[2]]).solve([1]) is None
    assert smith.smith_normal_form([[2]]).solve_mod([1], 5) == [3]
    assert smith.smith_normal_form([[2]]).solve_mod([1], 4) is None


def test_kernel_basis_spans_kernel():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m, n = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        a = random_int_matrix(rng, m, n)
        kb = kernel_basis(a)
        assert kb.shape[0] == n
        z = kb.shape[1]
        for j in range(z):
            col = kb[:, j].tolist()
            assert all(v == 0 for v in matvec(a, col))
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


def test_nerve_keeps_simplices_above_degree_three():
    nerve = cech.Nerve.from_simplices([tuple(range(5))])
    assert nerve.top_degree == 4
    assert [nerve.n_simplices(q) for q in range(6)] == [5, 10, 10, 5, 1, 0]
    # degrees 0..3 are listed even when empty
    triangle = cech.Nerve.from_simplices([(0, 1, 2)])
    assert triangle.top_degree == 3 and triangle.simplices[3] == ()
    with pytest.raises(ValueError, match="must list degrees"):
        cech.Nerve(vertex_count=1, simplices=(((0,),), (), (), (), ()))


def closure_inputs():
    """(simplices, vertex_count) inputs: listed nerves relabelled and
    shuffled, random picks with duplicates and unsorted vertices, and
    simplices of degree 4 and up."""
    cases = []
    for k in (2, 3):
        listed = [s for level in relabelled(cech.lens_complex(k), k).simplices for s in level]
        order = np.random.default_rng(k).permutation(len(listed))
        cases.append(([listed[i][::-1] for i in order], None))
    for seed in range(6):
        rng = np.random.default_rng(5000 + seed)
        nv = int(rng.integers(5, 9))
        picks = []
        for _ in range(int(rng.integers(1, 9))):
            size = int(rng.integers(1, min(nv, 7) + 1))
            picks.append(tuple(int(v) for v in rng.permutation(nv)[:size]))
        picks += picks[:2]  # duplicates
        cases.append((picks, nv + seed % 2))
    cases.append(([tuple(range(6)), (7, 5, 3, 1, 0)], None))  # a 5-simplex and a 4-simplex
    cases.append(([(4, 2, 0, 1, 3)], 9))  # isolated vertices past the simplex
    cases.append(([], None))
    cases.append(([], 3))
    return cases


@pytest.mark.parametrize("simplices, vertex_count", closure_inputs())
def test_face_closure_matches_all_faces_oracle(simplices, vertex_count):
    nerve = cech.Nerve.from_simplices(iter(simplices), vertex_count=vertex_count)
    expected = closed_nerve(simplices, vertex_count)
    assert nerve == expected
    assert nerve.simplices == expected.simplices


@pytest.mark.parametrize("simplices, vertex_count, message", [
    ([(0, 1), (2, 2, 3)], None, r"^simplex \(2, 2, 3\) has repeated vertices$"),
    ([(0, 1), ()], None, r"^empty simplex$"),
    ([(0, 1), (3, -1)], None, r"^negative vertex in simplex \(3, -1\)$"),
    ([(0, 1), (5, 2), (4, 5)], 5, r"^simplex vertex exceeds vertex_count: simplex \(5, 2\) "
                                  r"has vertex 5, vertex_count is 5$"),
])
def test_face_closure_errors_match_oracle(simplices, vertex_count, message):
    with pytest.raises(ValueError, match=message) as new:
        cech.Nerve.from_simplices(simplices, vertex_count=vertex_count)
    # the oracle raises the same error; its message starts the new one
    with pytest.raises(ValueError) as old:
        closed_nerve(simplices, vertex_count)
    assert str(new.value).startswith(str(old.value))


def test_cochain_mismatch_rejected():
    nerve = cech.tetrahedron_sphere()
    bad = cech.Cochain(1, "Z", (1, 2))
    with pytest.raises(ValueError, match="mismatch"):
        cech.coboundary(bad, nerve)


def test_is_cocycle_forms_no_product_without_simplices_above(monkeypatch):
    # one filled triangle: its top degree is 3, but it has no 3-simplices
    nerve = cech.Nerve.from_simplices([(0, 1, 2)])
    assert nerve.top_degree == 3 and not nerve.simplices[3]

    def forbidden(*args, **kwargs):
        raise AssertionError("smith.dot called")

    monkeypatch.setattr(smith, "dot", forbidden)
    for ring in ("Z", 2, 5):
        assert cech.is_cocycle(cech.Cochain(2, ring, (1,)), nerve)
    with pytest.raises(ValueError, match="mismatch"):
        cech.is_cocycle(cech.Cochain(2, 2, (1, 0)), nerve)
    with pytest.raises(AssertionError, match="smith.dot called"):
        cech.is_cocycle(cech.Cochain(1, 2, (1, 0, 0)), nerve)


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
# the coboundary matrix and products, against the list loops they replaced

def oracle_delta_matrix(nerve, q):
    """delta_q as lists of rows, one simplex and one face at a time."""
    mat = [[0] * nerve.n_simplices(q) for _ in range(nerve.n_simplices(q + 1))]
    for r, s in enumerate(nerve.simplices[q + 1]):
        for i in range(len(s)):
            mat[r][nerve.index(s[:i] + s[i + 1:])] += (-1) ** i
    return mat


def oracle_coboundary(nerve, q, values):
    return [sum(x * y for x, y in zip(row, values)) for row in oracle_delta_matrix(nerve, q)]


def wide_label_nerve():
    """A tetrahedron whose vertex_count**3 is past int64."""
    vs = (0, 5, 2 ** 21, 2 ** 21 + 7)
    return cech.Nerve(vertex_count=2 ** 21 + 8, simplices=tuple(
        tuple(itertools.combinations(vs, r)) for r in range(1, 5)))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k", range(2, 8))
def test_delta_matches_list_loop_on_relabelled_lens_complexes(k, seed):
    nerve = relabelled(cech.lens_complex(k), seed)
    for q in range(3):
        assert cech.delta_matrix(nerve, q).tolist() == oracle_delta_matrix(nerve, q)


@pytest.mark.parametrize("nerve, shapes", [
    (cech.projective_plane(), [(15, 6), (10, 15), (0, 10)]),
    (cech.tetrahedron_sphere(), [(6, 4), (4, 6), (0, 4)]),
    (cech.Nerve.from_simplices([(0, 1, 2)]), [(3, 3), (1, 3), (0, 1)]),
    (cech.Nerve.from_simplices([(0,), (1,), (2,)]), [(0, 3), (0, 0), (0, 0)]),
    (cech.Nerve.from_simplices([]), [(0, 0), (0, 0), (0, 0)]),
    (wide_label_nerve(), [(6, 4), (4, 6), (1, 4)]),
])
def test_delta_matches_list_loop(nerve, shapes):
    for q, shape in enumerate(shapes):
        delta = cech.delta_matrix(nerve, q)
        assert delta.dtype == np.int64 and delta.shape == shape
        assert delta.tolist() == oracle_delta_matrix(nerve, q)


def test_delta_is_read_only_and_cached_per_nerve():
    nerve = cech.lens_complex(3)
    for q in range(3):
        delta = cech.delta_matrix(nerve, q)
        assert cech.delta_matrix(nerve, q) is delta
        assert not delta.flags.writeable
        with pytest.raises(ValueError):
            delta[0, 0] = 5
    assert cech.delta_matrix(cech.lens_complex(3), 2) is not cech.delta_matrix(nerve, 2)


@pytest.fixture
def product_dtypes(monkeypatch):
    dtypes = []
    real = smith.dot

    def recording(a, b, weight):
        out = real(a, b, weight)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(smith, "dot", recording)
    return dtypes


@pytest.mark.parametrize("big", [2 ** 62, -(2 ** 62), 2 ** 63, -(2 ** 63), 2 ** 90])
def test_coboundary_past_int64_is_exact(big, product_dtypes):
    nerve = relabelled(cech.lens_complex(3), 0)
    for q in range(3):
        values = [big if i % 3 == 0 else (-1) ** i * (i % 7) for i in range(nerve.n_simplices(q))]
        got = cech.coboundary(cech.Cochain(q, "Z", values), nerve).values
        assert list(got) == oracle_coboundary(nerve, q, values)
        assert all(type(v) is int for v in got)
    assert product_dtypes == [object] * 3


def test_coboundary_below_the_guard_stays_int64(product_dtypes):
    nerve = relabelled(cech.lens_complex(3), 1)
    for q in range(3):
        top = (2 ** 62 - 1) // (q + 2)  # a row of delta_q has q + 2 entries +-1
        for values in ([top - i % 5 for i in range(nerve.n_simplices(q))],
                       [(-1) ** i * (i % 9) for i in range(nerve.n_simplices(q))]):
            got = cech.coboundary(cech.Cochain(q, "Z", values), nerve).values
            assert list(got) == oracle_coboundary(nerve, q, values)
    assert product_dtypes == [np.int64] * 6


def test_coboundary_at_the_guard_widens(product_dtypes):
    nerve = relabelled(cech.lens_complex(3), 1)
    for q in range(3):
        top = -(-(2 ** 62) // (q + 2))  # the least top with (q + 2) * top >= 2**62
        values = [top - i % 5 for i in range(nerve.n_simplices(q))]
        got = cech.coboundary(cech.Cochain(q, "Z", values), nerve).values
        assert list(got) == oracle_coboundary(nerve, q, values)
    assert product_dtypes == [object] * 3


@pytest.mark.parametrize("k", [2 ** 63 + 1, 2 ** 64, 2 ** 70 + 1])
def test_free_classes_mod_a_large_ring_have_order_k(k):
    # H^0 and H^2 of the sphere are Z, so mod k each is Z_k: order k at any size
    nerve = cech.tetrahedron_sphere()
    for q in (0, 2):
        h = cech.cohomology(nerve, q, k)
        assert h.orders == (k,)
        assert cech.is_cocycle(h.generators[0], nerve)
        if q:
            assert cech.solve_coboundary(h.generators[0], nerve) is None


@pytest.mark.parametrize("k", [2 ** 63, 2 ** 70 + 1])
def test_small_cochains_mod_a_large_ring(k):
    nerve = relabelled(cech.lens_complex(3), 2)
    zero = cech.zero_cochain(nerve, 2, k)
    assert cech.is_cocycle(zero, nerve)
    assert not any(cech.solve_coboundary(zero, nerve).values)
    res = cech.bockstein(zero, nerve)
    assert res.trivial and not any(res.beta.values)
    bump = cech.Cochain(2, k, (1,) + zero.values[1:])  # delta(bump) = +-1 somewhere
    assert not cech.is_cocycle(bump, nerve)
    with pytest.raises(ValueError, match="not a cocycle"):
        cech.solve_coboundary(bump, nerve)
    with pytest.raises(ValueError, match="bockstein input must be a cocycle mod k"):
        cech.bockstein(bump, nerve)
    b = cech.Cochain(1, k, [i % 3 for i in range(nerve.n_simplices(1))])
    c = cech.coboundary(b, nerve)
    assert list(c.values) == [v % k for v in oracle_coboundary(nerve, 1, list(b.values))]
    assert cech.coboundary(cech.solve_coboundary(c, nerve), nerve) == c


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


def test_bockstein_rejects_a_non_cocycle():
    nerve, gen = cech.standard_lens_cocycle(3)
    bad = cech.Cochain(2, 3, (gen.values[0] + 1,) + gen.values[1:])
    assert not cech.is_cocycle(bad, nerve)
    with pytest.raises(ValueError, match="bockstein input must be a cocycle mod k"):
        cech.bockstein(bad, nerve)


def test_bockstein_makes_one_coboundary_product(monkeypatch):
    nerve, gen = cech.standard_lens_cocycle(3)
    delta2 = cech.delta_matrix(nerve, 2)
    with_delta = []
    real = smith.dot

    def counting(a, b, weight):
        with_delta.append(a is delta2)
        return real(a, b, weight)

    monkeypatch.setattr(smith, "dot", counting)
    assert not cech.bockstein(gen, nerve).trivial
    assert sum(with_delta) == 1


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
    assert sum(np.array_equal(a, delta2) for a in snf_calls) == 1


def test_four_sphere_cohomology_above_degree_three(snf_calls):
    # the boundary of the 5-simplex
    nerve = cech.Nerve.from_simplices(itertools.combinations(range(6), 5))
    assert nerve.top_degree == 4
    assert cech.cohomology(nerve, 0).orders == (0,)
    for q in (1, 2, 3):
        assert cech.cohomology(nerve, q).orders == ()
        assert cech.cohomology(nerve, q, ring=2).orders == ()
    h4 = cech.cohomology(nerve, 4)
    assert h4.orders == (0,)
    assert cech.solve_coboundary(h4.generators[0], nerve) is None
    assert cech.cohomology(nerve, 4, ring=3).orders == (3,)
    assert cech.cohomology(nerve, 5).orders == ()
    # the top degree reuses the factored delta_3
    delta3 = cech.delta_matrix(nerve, 3)
    assert sum(np.array_equal(a, delta3) for a in snf_calls) == 1


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
