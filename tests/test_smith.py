"""The array Smith normal form against the list elimination it replaced.

`oracle_smith_normal_form` runs the same pivot rule and the same sequence of
elementary operations one Python loop at a time, on lists of Python ints, so
every field of the result must agree exactly, including where the transforms
outgrow int64.
"""

import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gerbedex import cech, smith
from oracles import identity, is_exact_int_array, matmul, matvec, relabelled


# ---------------------------------------------------------------------------
# the list elimination


def oracle_smith_normal_form(a):
    """Dense list elimination with one Python loop per elementary operation."""
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(map(int, row)) for row in a]
    u, uinv = identity(m), identity(m)
    v, vinv = identity(n), identity(n)

    # Elementary operations, mirrored into the transforms.  Row ops multiply U
    # on the left of A (and the inverse op hits Uinv's columns); column ops
    # multiply V on the right (inverse op hits Vinv's rows).
    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in range(m):
            uinv[r][i], uinv[r][j] = uinv[r][j], uinv[r][i]

    def col_swap(i, j):
        for r in range(m):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def row_add(i, j, q):
        # row_i += q * row_j
        if q == 0:
            return
        d[i][:] = [x + q * y for x, y in zip(d[i], d[j])]
        u[i][:] = [x + q * y for x, y in zip(u[i], u[j])]
        for r in range(m):
            uinv[r][j] -= q * uinv[r][i]

    def col_add(i, j, q):
        # col_i += q * col_j
        if q == 0:
            return
        for r in range(m):
            d[r][i] += q * d[r][j]
        for r in range(n):
            v[r][i] += q * v[r][j]
        vinv[j][:] = [x - q * y for x, y in zip(vinv[j], vinv[i])]

    def row_bezout(t, i):
        # rows (t, i) <- [[x, y], [-b/g, a/g]] (t, i): pivot becomes g, d[i][t] 0
        a, b = d[t][t], d[i][t]
        g, x, y = smith._bezout(a, b)
        p, q = -b // g, a // g
        for mat in (d, u):
            mat[t][:], mat[i][:] = ([x * s + y * w for s, w in zip(mat[t], mat[i])],
                                    [p * s + q * w for s, w in zip(mat[t], mat[i])])
        for r in range(m):
            # inverse [[a/g, -y], [b/g, x]] acts on the columns of Uinv
            s, w = uinv[r][t], uinv[r][i]
            uinv[r][t], uinv[r][i] = q * s - p * w, x * w - y * s

    def col_bezout(t, j):
        # cols (t, j) <- (t, j) [[x, -b/g], [y, a/g]]: pivot becomes g, d[t][j] 0
        a, b = d[t][t], d[t][j]
        g, x, y = smith._bezout(a, b)
        p, q = -b // g, a // g
        for mat, rows in ((d, m), (v, n)):
            for r in range(rows):
                s, w = mat[r][t], mat[r][j]
                mat[r][t], mat[r][j] = x * s + y * w, p * s + q * w
        # inverse [[a/g, b/g], [-y, x]] acts on the rows of Vinv
        vinv[t][:], vinv[j][:] = ([q * s - p * w for s, w in zip(vinv[t], vinv[j])],
                                  [x * w - y * s for s, w in zip(vinv[t], vinv[j])])

    def row_negate(i):
        d[i][:] = [-x for x in d[i]]
        u[i][:] = [-x for x in u[i]]
        for r in range(m):
            uinv[r][i] = -uinv[r][i]

    t = 0
    while True:
        # locate the smallest nonzero entry of the trailing submatrix
        pivot = None
        best = None
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                val = abs(row[j])
                if val and (best is None or val < best):
                    best = val
                    pivot = (i, j)
                    if val == 1:
                        break  # nothing is smaller, and ties keep the first
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        # clear row and column t: a multiple of the pivot is subtracted away,
        # anything else meets a 2x2 Bezout step that replaces the pivot by the
        # gcd; the pivot only shrinks, so this stops
        while True:
            done = True
            for i in range(t + 1, m):
                if d[i][t] % d[t][t]:
                    row_bezout(t, i)
                elif d[i][t]:
                    row_add(i, t, -(d[i][t] // d[t][t]))
            for j in range(t + 1, n):
                if d[t][j] % d[t][t]:
                    col_bezout(t, j)
                    done = False
                elif d[t][j]:
                    col_add(j, t, -(d[t][j] // d[t][t]))
            if done:
                break
        if d[t][t] < 0:
            row_negate(t)
        t += 1

    rank = t
    # enforce the divisibility chain d_i | d_{i+1} with local 2x2 gcd steps
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            if d[i + 1][i + 1] % d[i][i] == 0:
                continue
            changed = True
            # block [[a,0],[0,b]] -> [[a,0],[b,b]] -> [[g,*],[0,±ab/g]] -> diag(g, lcm)
            col_add(i, i + 1, 1)
            while d[i + 1][i]:
                q = d[i][i] // d[i + 1][i]
                row_add(i, i + 1, -q)
                row_swap(i, i + 1)
            # g = gcd(a,b) divides b, and the fill-in above it is a multiple of b
            if d[i][i + 1]:
                col_add(i + 1, i, -(d[i][i + 1] // d[i][i]))
            if d[i][i] < 0:
                row_negate(i)
            if d[i + 1][i + 1] < 0:
                row_negate(i + 1)
    return smith.SmithResult(d=d, u=u, v=v, uinv=uinv, vinv=vinv, rank=rank)


# ---------------------------------------------------------------------------
# field-for-field identity


def assert_matches_oracle(a, ref=None):
    res = smith.smith_normal_form(a)
    if ref is None:
        ref = oracle_smith_normal_form(a)
    assert res.rank == ref.rank
    for name in ("d", "u", "v", "uinv", "vinv"):
        assert getattr(res, name).tolist() == getattr(ref, name), name
        assert is_exact_int_array(getattr(res, name)), name
    return res


def assert_complex_matches_oracle(nerve):
    """delta_0..delta_2 and the cocycle-quotient matrices vinv[r:] @ delta_{q-1}."""
    deltas = [cech.delta_matrix(nerve, q).tolist() for q in range(3)]
    refs = [oracle_smith_normal_form(a) for a in deltas]
    for a, ref in zip(deltas, refs):
        assert_matches_oracle(a, ref)
    for q in (1, 2):
        assert_matches_oracle(matmul(refs[q].vinv[refs[q].rank:], deltas[q - 1]))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k", range(2, 8))
def test_relabelled_lens_complex_matches_oracle(k, seed):
    assert_complex_matches_oracle(relabelled(cech.lens_complex(k), seed))


@pytest.mark.parametrize("nerve", [cech.projective_plane(), cech.tetrahedron_sphere()])
def test_shipped_surfaces_match_oracle(nerve):
    assert_complex_matches_oracle(nerve)


@pytest.mark.parametrize("trial", range(40))
def test_dense_matrices_match_oracle(trial):
    rng = np.random.default_rng(4000 + trial)
    m, n = (int(x) for x in rng.integers(1, 14, 2))
    assert_matches_oracle(rng.integers(-30, 31, (m, n)).tolist())


@pytest.mark.parametrize("a", [
    [], [[]], [[], [], []], [[0] * 5], [[0] * 4 for _ in range(3)],
    [[0], [0]], [[7]], [[-3]],
])
def test_edge_shapes_match_oracle(a):
    assert_matches_oracle(a)


# ---------------------------------------------------------------------------
# widening to exact ints


def assert_exact(a, res):
    a = [[int(x) for x in row] for row in a]
    d, u, v, uinv, vinv = (getattr(res, name).tolist() for name in ("d", "u", "v", "uinv", "vinv"))
    assert matmul(matmul(u, a), v) == d
    assert matmul(matmul(uinv, d), vinv) == a


def largest(res):
    return max(abs(x) for name in ("d", "u", "v", "uinv", "vinv")
               for x in getattr(res, name).flat)


def test_transforms_outgrowing_int64_are_exact():
    r = np.random.default_rng(0)
    a = r.integers(-9, 10, (r.integers(1, 12), r.integers(1, 12))).tolist()
    assert (len(a), len(a[0])) == (10, 8)
    res = assert_matches_oracle(a)
    assert largest(res) > 2 ** 63
    assert all(getattr(res, name).dtype == object for name in ("d", "u", "v", "uinv", "vinv"))
    assert_exact(a, res)


@pytest.mark.parametrize("a", [
    [[2 ** 64 + 1, 3], [5, 2 ** 70]],
    [[-(2 ** 63), 6, 10], [4, 2 ** 62 + 3, -9]],
    [[2 ** 63 - 1], [2 ** 62]],
    [[3 * 2 ** 80, 2 ** 81, 6], [2 ** 90, 7, -(2 ** 65)], [1, 2, 3]],
    [[np.int64(2 ** 62 + 1), 6, np.int64(-9)], [4, 2 ** 64, np.int64(2 ** 61)]],
])
def test_entries_past_int64_are_exact(a):
    res = assert_matches_oracle(a)
    assert largest(res) >= 2 ** 62
    assert all(getattr(res, name).dtype == object for name in ("d", "u", "v", "uinv", "vinv"))
    assert_exact(a, res)


@pytest.mark.parametrize("a, dtype", [
    ([[2 ** 63 + 1, 3], [5, 2 ** 64 - 1]], object),  # would wrap if cast to int64
    ([[2 ** 63, 6, 10], [4, 9, 2 ** 63 + 7]], object),
    ([[6, 4], [10, 9]], np.int64),  # fits: the arrays stay int64
])
def test_unsigned_arrays_are_read_exactly(a, dtype):
    res = assert_matches_oracle(np.array(a, dtype=np.uint64), oracle_smith_normal_form(a))
    assert res.u.dtype == dtype
    assert_exact(a, res)


# ---------------------------------------------------------------------------
# products and solves on the array results, against the list code


def oracle_solve(ref, b, k=None):
    """The list solve (over Z, or mod k) on an oracle SmithResult of lists."""
    y = [0] * len(ref.v)
    for i, c in enumerate(matvec(ref.u, b)):
        c = c if k is None else c % k
        if i < ref.rank:
            di = ref.d[i][i]
            if k is None:
                q, rem = divmod(c, di)
                if rem:
                    return None
                y[i] = q
                continue
            g = math.gcd(di, k)
            if c % g:
                return None
            kk = k // g
            y[i] = ((c // g) * pow((di // g) % kk, -1, kk)) % kk if kk > 1 else 0
        elif c:
            return None
    x = matvec(ref.v, y)
    return x if k is None else [v % k for v in x]


@pytest.fixture
def widened():
    r = np.random.default_rng(0)
    a = r.integers(-9, 10, (r.integers(1, 12), r.integers(1, 12))).tolist()
    res = smith.smith_normal_form(a)
    assert res.u.dtype == object and res.bound is None
    return a, res, oracle_smith_normal_form(a)


def test_cocycle_quotient_on_widened_result(widened):
    _, res, ref = widened
    r = np.random.default_rng(1)
    down = r.integers(-1, 2, (len(ref.v), 6)).tolist()
    got = res.times(res.vinv[res.rank:], down)
    assert got.dtype == object and is_exact_int_array(got)
    assert got.tolist() == matmul(ref.vinv[ref.rank:], down)


@pytest.mark.parametrize("k", [None, 2, 6, 7, 2 ** 70 + 1])
def test_solves_on_widened_result(widened, k):
    a, res, ref = widened
    r = np.random.default_rng(2)
    for trial in range(6):
        if trial % 2:
            b = r.integers(-50, 51, len(a)).tolist()
        else:
            b = matvec(a, [int(x) * 2 ** 40 for x in r.integers(-5, 6, len(a[0]))])
        expected = oracle_solve(ref, b, k)
        got = res.solve(b) if k is None else res.solve_mod(b, k)
        assert got == expected
        assert got is None or all(type(x) is int for x in got)


def test_int64_products_widen_when_the_bound_says_so():
    a = np.array([[2 ** 40, -(2 ** 40)], [3, 1]], dtype=np.int64)  # row weight 2**41
    for top, dtype in ((2 ** 21, object), (2 ** 21 - 1, np.int64)):
        b = [[top, 5], [-top, 7]]  # dot reads max |b| = top itself
        got = smith.dot(a, b, 2 ** 41)
        assert got.dtype == dtype and is_exact_int_array(got)
        assert got.tolist() == matmul(a.tolist(), b)
    assert smith.dot(a, [[1], [1]], None).dtype == object


@pytest.mark.parametrize("b", [
    [2 ** 63, 1], [-(2 ** 63), 1], np.array([2 ** 63 + 1, 1], dtype=np.uint64),
    np.array([2 ** 70, -3], dtype=object),
])
def test_products_with_large_right_factors_are_exact(b):
    a = np.array([[1, 1], [2, -1]], dtype=np.int64)
    got = smith.dot(a, b, 3)
    assert got.dtype == object and is_exact_int_array(got)
    assert got.tolist() == matvec(a.tolist(), [int(x) for x in b])


@pytest.mark.parametrize("k", [2, 7, 2 ** 62 - 1, 2 ** 62, 2 ** 63, 2 ** 70 + 1])
def test_divmod_by_any_modulus_is_exact(k):
    values = [0, 1, -1, 5, -(2 ** 40), 2 ** 61]
    for x in (np.array(values, dtype=np.int64), np.array(values + [2 ** 90], dtype=object)):
        q, r = smith.divmod_by(x, k)
        assert q.tolist() == [v // k for v in x.tolist()]
        assert r.tolist() == [v % k for v in x.tolist()]
        assert is_exact_int_array(q) and is_exact_int_array(r)


# ---------------------------------------------------------------------------
# the three product tiers: float64 below 2**53, int64 below 2**62, Python ints


class Spy(np.ndarray):
    """An array that records the dtypes each matrix product runs in."""

    products = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [np.asarray(x) for x in inputs]
        if ufunc is np.matmul:
            Spy.products.append(tuple(x.dtype for x in inputs))
        return getattr(ufunc, method)(*inputs, **kwargs)


def tier_of(a, b, weight):
    """dot(a, b, weight) checked against the list product, and the one dtype
    its product ran in."""
    Spy.products = []
    got = smith.dot(np.asarray(a).view(Spy), b, weight)
    (dtypes,) = set(Spy.products)  # one product, both factors in one dtype
    (tier,) = set(dtypes)
    assert type(got) is np.ndarray and is_exact_int_array(got)
    assert got.dtype == (object if tier == object else np.int64)
    b = [[int(x) for x in row] for row in b] if np.ndim(b) == 2 else [int(x) for x in b]
    a = np.asarray(a).tolist()
    assert got.tolist() == (matmul(a, b) if np.ndim(b) == 2 else matvec(a, b))
    return tier


TIER_EDGES = [(2 ** 53 - 1, np.float64), (2 ** 53, np.int64),
              (2 ** 62 - 1, np.int64), (2 ** 62, object)]


@pytest.mark.parametrize("bound, tier", TIER_EDGES)
def test_dot_tier_edges_on_large_left_entries(bound, tier):
    # row weight exactly `bound`, max |b| = 1, entries near +-2**52 and up
    half = bound // 2
    a = np.array([[half, bound - half, 0], [-(2 ** 52), 2 ** 52 - 1, 1], [0, 0, -1]],
                 dtype=np.int64)
    b = [[1, -1, 0], [1, 0, 1], [0, 1, -1]]
    assert tier_of(a, b, bound) == tier


@pytest.mark.parametrize("bound, tier", TIER_EDGES)
def test_dot_tier_edges_on_large_right_entries(bound, tier):
    # one +-1 per row of a, as in V^-1[r:] on a lens nerve: weight 1, max |b| = bound
    a = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=np.int64)
    b = [[bound, -(2 ** 52)], [2 ** 52 + 1, -bound], [-(2 ** 52) + 1, 0]]
    assert tier_of(a, b, 1) == tier
    assert tier_of(a, [bound, 2 ** 52, -(2 ** 52) - 1], 1) == tier


def test_dot_with_a_zero_right_factor_runs_in_float64():
    # the bound is 0 whatever a holds; a's entries past 2**53 round in
    # float64, but every product with 0 is 0
    a = np.array([[2 ** 62, -(2 ** 62) + 1], [2 ** 53 + 1, 7]], dtype=np.int64)
    assert tier_of(a, [[0, 0], [0, 0]], 2 ** 63) == np.float64
    assert tier_of(a, np.zeros(2, dtype=np.uint64), 2 ** 63) == np.float64


@pytest.mark.parametrize("bound, tier", TIER_EDGES)
def test_dot_on_non_contiguous_left_factors(bound, tier):
    rng = np.random.default_rng(9)
    v = rng.integers(-3, 4, (7, 9))
    signed = np.eye(9, dtype=np.int64)[rng.permutation(9)] * rng.choice([-1, 1], (9, 1))
    for left in (v[:, 4:], v[2:, ::2], v.T[1:], v[::-1, 3:]):
        assert not left.flags.c_contiguous
        b = rng.integers(-1, 2, (left.shape[1], 3))
        b[0, 0] = 1
        assert tier_of(left, b.tolist(), bound) == tier  # weight bound, max |b| 1
    for left in (signed[:, 4:], signed[1::2, 2:], signed.T[::-1]):
        assert not left.flags.c_contiguous
        b = rng.integers(-(2 ** 52), 2 ** 52, (left.shape[1], 2)).tolist()
        b[-1][0] = -bound
        assert tier_of(left, b, 1) == tier  # one +-1 per row, max |b| bound


def test_dot_on_empty_factors():
    a = np.zeros((3, 0), dtype=np.int64)
    assert smith.dot(a, np.zeros((0, 2), dtype=np.int64), 0).tolist() == [[0, 0]] * 3
    got = smith.dot(np.zeros((0, 4), dtype=np.int64), [[1]] * 4, 1)
    assert got.shape == (0, 1) and got.dtype == np.int64


@settings(derandomize=True, max_examples=300, deadline=timedelta(seconds=2),
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_dot_matches_list_product_in_every_tier(data):
    m, n, p = (data.draw(st.integers(0, 5)) for _ in range(3))
    ea = data.draw(st.integers(0, 60))
    eb = data.draw(st.integers(0, 66))
    a = [[data.draw(st.integers(-(2 ** ea), 2 ** ea)) for _ in range(n)] for _ in range(m)]
    b = [[data.draw(st.integers(-(2 ** eb), 2 ** eb)) for _ in range(p)] for _ in range(n)]
    weight = max((sum(map(abs, row)) for row in a), default=0)
    weight += data.draw(st.sampled_from([0, 1, 2 ** 20]))
    left = np.array(a, dtype=np.int64).reshape(m, n)
    right = np.array(b, dtype=object).reshape(n, p)
    got = smith.dot(left, right, weight)
    assert is_exact_int_array(got)
    assert got.tolist() == (matmul(a, b) if n else [[0] * p for _ in range(m)])


# ---------------------------------------------------------------------------
# max |entry| without an |x| temporary


@pytest.mark.parametrize("x", [
    np.array([-(2 ** 63)], dtype=np.int64),
    np.array([[-(2 ** 63), 2 ** 63 - 1], [0, 5]], dtype=np.int64),
    np.array([2 ** 63 - 1, -(2 ** 63) + 1], dtype=np.int64),
    np.array([-7, 3], dtype=np.int64), np.array([7, -3], dtype=np.int64),
    np.array([[0, 0]], dtype=np.int64),
    np.zeros(0, dtype=np.int64), np.zeros((0, 5), dtype=np.int64),
    np.zeros((4, 0), dtype=np.int64),
    np.random.default_rng(3).integers(-(2 ** 63), 2 ** 63 - 1, (40, 30), dtype=np.int64),
    np.random.default_rng(4).integers(-5, 6, (363, 363))[:, ::3],
])
def test_max_abs_matches_the_unsigned_view(x):
    got = smith._max_abs(x)
    assert type(got) is int
    assert got == int(np.abs(x).view(np.uint64).max(initial=0))
    assert got == max((abs(v) for v in x.ravel().tolist()), default=0)


def test_max_abs_of_object_arrays():
    assert smith._max_abs(np.array([2 ** 70, -(2 ** 80)], dtype=object)) == 2 ** 80
    assert smith._max_abs(np.zeros(0, dtype=object)) == 0
