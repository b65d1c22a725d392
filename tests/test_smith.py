"""The array Smith normal form against the list elimination it replaced.

`oracle_smith_normal_form` runs the same pivot rule and the same sequence of
elementary operations one Python loop at a time, on lists of Python ints, so
every field of the result must agree exactly, including where the transforms
outgrow int64.
"""

import math

import numpy as np
import pytest

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
