"""Exact integer matrix normal forms and solvers.

Integer matrices are numpy arrays: int64 while their entries provably fit,
dtype=object (exact Python ints) once they might not.  `smith_normal_form`
takes a list of rows or an array and is the classical dense elimination with
both transforms and their inverses; its cost grows with the cube of the
matrix side, so callers factor each matrix once and keep the `SmithResult`.
That holds the elimination's own arrays, with a bound on their entries, and
answers linear solves over Z and Z_k in its own coordinates
(`SmithResult.solve`, `SmithResult.solve_mod`).  This module alone decides
between int64 and Python ints.  Every integer input enters through one
exact conversion, which casts nothing to int64 that does not fit (so an
unsigned array goes through Python ints).  `dot` is the one exact product:
the caller bounds the row weight of its left factor (the largest sum of
|entries| in a row), `dot` measures the right one, and their product bounds
every term and every partial sum of every result entry, in any summation
order.  Below 2**53 float64 holds all of them exactly, so the product runs
in float64 on BLAS and comes back as int64; below 2**62 it runs as an int64
`@`; above that on Python ints.  `divmod_by` is the one exact reduction by
a modulus of any size.

During the elimination D, U and V share one int64 array [[D, U], [V, 0]], so
each row or column op is one update, and U^-1 is kept transposed next to
V^-1 so that every op on them is a row op.  The pivot is the first smallest
nonzero |entry| of the trailing block in row-major order, so on +-1-sparse
coboundary matrices it is the first unit entry, found in the pivot row
without scanning the block.  Clearing the pivot's column (then its row)
subtracts each run of entries the pivot divides in one batched row (column)
update; a unit pivot divides them all, and an entry it does not divide is
cleared by one unimodular 2x2 Bezout step, so dense inputs with non-unit
pivots do not blow up their entries.  A running bound on the largest |entry|
guards every update: when the update could reach 2**62 the arrays are
rescanned, and if it still could, they are widened to dtype=object and the
elimination goes on with the same code.  So the operation sequence, and the
result, are those of a plain list elimination at any entry size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LIMIT = 1 << 62
_FLOAT_LIMIT = 1 << 53  # float64 holds every integer of smaller size exactly


def _max_abs(x):
    # max |entry| from the max and the min, as Python ints, so -2**63 reads
    # as 2**63 and no |x| array is built
    if x.dtype == object:
        return max(map(abs, x.flat), default=0)
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def _as_array(a):
    """a's integer entries as an array: int64 when they all fit, else dtype=object
    holding Python ints.  Only exact casts reach int64, so an unsigned array
    goes through Python ints instead of wrapping."""
    if isinstance(a, np.ndarray) and not np.can_cast(a.dtype, np.int64):
        a = a.astype(object)
    try:
        return np.asarray(a, dtype=np.int64)
    except OverflowError:
        return _python_ints(np.asarray(a, dtype=object))


_python_ints = np.frompyfunc(int, 1, 1)  # Python ints, not numpy scalars


def dot(a, b, weight):
    """Exact integer product a @ b of an integer array a and integers b.

    `weight` must bound the row weight of a, the largest sum of |entries| in
    one of its rows, or be None when no bound is known.  weight times max |b|
    bounds every term and partial sum of the product: below 2**53 it runs in
    float64 (on BLAS) and returns int64, below 2**62 in int64, otherwise on
    object arrays of Python ints, so it is exact at any size.
    """
    b = _as_array(b)
    if weight is not None and a.dtype != object and b.dtype != object:
        bound = weight * _max_abs(b)
        if bound < _FLOAT_LIMIT:
            return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
        if bound < _LIMIT:
            return a @ b
    return a.astype(object) @ b.astype(object)


def divmod_by(x, k):
    """(x // k, x % k) for an integer array x from `dot` and an int k >= 1,
    exact at any size of k."""
    if x.dtype == object or k >= _LIMIT:
        x = x.astype(object)
        return x // k, x % k
    return np.divmod(x, k)


@dataclass
class SmithResult:
    """U @ A @ V == D with U, V unimodular; A == Uinv @ D @ Vinv.

    D is diagonal with nonnegative entries d_1 | d_2 | ... ; `rank` counts the
    nonzero diagonal entries.  The five matrices are the elimination's own
    arrays: all int64 with every |entry| <= `bound`, or all dtype=object
    (Python ints) with `bound` None once the elimination has widened them.
    """

    d: np.ndarray
    u: np.ndarray
    v: np.ndarray
    uinv: np.ndarray
    vinv: np.ndarray
    rank: int
    bound: int | None = None

    def diagonal(self):
        return np.diagonal(self.d).tolist()

    def times(self, a, x):
        """a @ x, exact, for one of this result's matrices a."""
        return dot(a, x, None if self.bound is None else self.bound * a.shape[1])

    def _coordinates(self, b):
        # U b with its diagonal, in Python ints
        return self.times(self.u, b).tolist(), self.diagonal()

    def solve(self, b):
        """One integer solution x of A x = b, or None if none exists."""
        y = [0] * len(self.v)
        c, d = self._coordinates(b)
        for i, ci in enumerate(c):
            if i < self.rank:
                q, rem = divmod(ci, d[i])
                if rem:
                    return None
                y[i] = q
            elif ci:
                return None
        return self.times(self.v, y).tolist()

    def solve_mod(self, b, k):
        """One solution x (entries in [0, k)) of A x = b (mod k), or None."""
        if k < 2:
            raise ValueError("modulus must be >= 2")
        y = [0] * len(self.v)
        c, d = self._coordinates(b)
        for i, ci in enumerate(c):
            ci %= k
            if i < self.rank:
                di = d[i]
                g = math.gcd(di, k)
                if ci % g:
                    return None
                # solve (di/g) * y = c/g  (mod k/g)
                kk = k // g
                y[i] = ((ci // g) * pow((di // g) % kk, -1, kk)) % kk if kk > 1 else 0
            elif ci:
                return None
        return [x % k for x in self.times(self.v, y).tolist()]


def _bezout(a, b):
    """(g, x, y) with x * a + y * b == g == gcd(a, b) > 0, for a nonzero a."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


def _swap(x, i, j):
    # rows i and j of x (columns, for x a transposed view)
    x[i], x[j] = x[j], x[i].copy()


class _Elimination:
    """D, U, U^-1, V and V^-1 as arrays, with the elementary operations.

    Row ops multiply U on the left of A (and the inverse op hits U^-1's
    columns); column ops multiply V on the right (the inverse op hits V^-1's
    rows).  D, U and V share one array `a` = [[D, U], [V, 0]], so a row op on
    D carries U along in the same rows and a column op carries V along in the
    same columns.  U^-1 is kept transposed, as `uinvt`, so its column ops are
    row ops too.  A column op touches only the rows where its source column
    is nonzero, which on sparse matrices is a handful.

    The arrays start as int64 with `bound` >= every |entry|; each update
    first calls `_reserve` with the factor by which it can grow that bound.
    Where the product could reach 2**62 the arrays are rescanned, and if the
    true bound still allows it they are widened to dtype=object (Python
    ints), after which the same operations run exactly.
    """

    def __init__(self, a, m, n):
        d = _as_array(a).reshape(m, n)
        self.a = np.zeros((m + n, n + m), dtype=d.dtype)
        self.a[:m, :n] = d
        self.a[:m, n:] = np.eye(m, dtype=np.int64)
        self.a[m:, :n] = np.eye(n, dtype=np.int64)
        self.uinvt, self.vinv = np.eye(m, dtype=np.int64), np.eye(n, dtype=np.int64)
        self.m, self.n = m, n
        self.d = self.a[:m, :n]
        self.exact = False
        self.bound = _LIMIT  # unknown until the first rescan
        self._reserve(1)

    def _reserve(self, factor):
        if self.exact:
            return
        if self.bound * factor >= _LIMIT:
            self.rescan()
            if self.bound * factor >= _LIMIT:
                self.exact = True
                self.bound = None
                self.a, self.uinvt, self.vinv = (
                    x.astype(object) for x in (self.a, self.uinvt, self.vinv))
                self.d = self.a[:self.m, :self.n]
                return
        self.bound *= factor

    def rescan(self):
        self.bound = max(map(_max_abs, (self.a, self.uinvt, self.vinv)))

    def result(self, rank):
        if not self.exact:
            self.rescan()  # a tight bound keeps later products on int64
        m, n = self.m, self.n
        return SmithResult(d=self.d, u=self.a[:m, n:], v=self.a[m:, :n], uinv=self.uinvt.T,
                           vinv=self.vinv, rank=rank, bound=self.bound)

    def _multipliers(self, q):
        # rows or columns k gain q_k times row or column t: entries grow to at
        # most (1 + sum |q_k|) <= (1 + len(q) max |q_k|) times the bound
        q = np.asarray(q)
        self._reserve(1 + len(q) * int(np.abs(q).max()))
        return q.astype(self.a.dtype, copy=False)

    def row_add(self, rows, t, q, lo=0):
        # row_k += q_k * row_t for each k in rows; row t of D must vanish in
        # the columns left of lo, which are skipped
        q = self._multipliers(q)
        self.a[rows, lo:] += q[:, None] * self.a[t, lo:]
        self.uinvt[t] -= q @ self.uinvt[rows]

    def col_add(self, cols, t, q):
        # col_k += q_k * col_t for each k in cols; only the rows where column
        # t is nonzero change
        q = self._multipliers(q)
        live = self.a[:, t].nonzero()[0][:, None]
        self.a[live, cols] += self.a[live, t] * q
        self.vinv[t] -= q @ self.vinv[cols]

    def row_swap(self, i, j):
        _swap(self.a, i, j)
        _swap(self.uinvt, i, j)

    def col_swap(self, i, j):
        _swap(self.a.T, i, j)
        _swap(self.vinv, i, j)

    def row_negate(self, i):
        self.a[i] *= -1
        self.uinvt[i] *= -1

    def row_bezout(self, t, i):
        # rows (t, i) <- [[x, y], [-b/g, a/g]] (t, i): pivot becomes g, d[i, t] 0
        a, b = int(self.d[t, t]), int(self.d[i, t])
        g, x, y = _bezout(a, b)
        p, q = -b // g, a // g
        self._reserve(max(abs(x) + abs(y), abs(p) + abs(q)))
        s, w = self.a[[t, i]]
        self.a[t], self.a[i] = x * s + y * w, p * s + q * w
        # inverse [[a/g, -y], [b/g, x]] acts on the columns of U^-1
        s, w = self.uinvt[[t, i]]
        self.uinvt[t], self.uinvt[i] = q * s - p * w, x * w - y * s

    def col_bezout(self, t, j):
        # cols (t, j) <- (t, j) [[x, -b/g], [y, a/g]]: pivot becomes g, d[t, j] 0
        a, b = int(self.d[t, t]), int(self.d[t, j])
        g, x, y = _bezout(a, b)
        p, q = -b // g, a // g
        self._reserve(max(abs(x) + abs(y), abs(p) + abs(q)))
        s, w = self.a[:, [t, j]].T
        self.a[:, t], self.a[:, j] = x * s + y * w, p * s + q * w
        # inverse [[a/g, b/g], [-y, x]] acts on the rows of V^-1
        s, w = self.vinv[[t, j]]
        self.vinv[t], self.vinv[j] = q * s - p * w, x * w - y * s

    def clear_column(self, t):
        """Zero column t of D below the pivot: each run of entries the pivot
        divides goes in one row_add (all of them when the pivot is a unit),
        and the first it does not divide meets a row_bezout."""
        rows = t + 1 + self.d[t + 1:, t].nonzero()[0]
        while rows.size:
            p, x = self.d[t, t], self.d[rows, t]
            if abs(p) == 1:
                self.row_add(rows, t, -x * p, lo=t)
                return
            stuck = (x % p).nonzero()[0]
            run = len(rows) if not stuck.size else stuck[0]
            if run:
                self.row_add(rows[:run], t, -(x[:run] // p), lo=t)
            if not stuck.size:
                return
            self.row_bezout(t, int(rows[run]))
            rows = rows[run + 1:]

    def clear_row(self, t):
        """The same for row t of D, by column ops; False when a col_bezout
        ran, which refills column t."""
        cols = t + 1 + self.d[t, t + 1:].nonzero()[0]
        clean = True
        while cols.size:
            p, x = self.d[t, t], self.d[t, cols]
            if abs(p) == 1:
                self.col_add(cols, t, -x * p)
                return clean
            stuck = (x % p).nonzero()[0]
            run = len(cols) if not stuck.size else stuck[0]
            if run:
                self.col_add(cols[:run], t, -(x[:run] // p))
            if not stuck.size:
                return clean
            self.col_bezout(t, int(cols[run]))
            clean = False
            cols = cols[run + 1:]
        return clean


def smith_normal_form(a):
    """Smith normal form over Z with transform matrices and their inverses."""
    m = len(a)
    n = len(a[0]) if m else 0
    e = _Elimination(a, m, n)
    t = 0
    while t < min(m, n):
        # pivot: the first smallest nonzero |entry| of the trailing block in
        # row-major order, so the first unit entry when there is one, and the
        # first unit of row t when that row has one
        pj = int(np.argmax(np.abs(e.d[t, t:]) == 1))
        if abs(e.d[t, t + pj]) == 1:
            pi = 0
        else:
            block = np.abs(e.d[t:, t:]).ravel()
            nonzero = np.flatnonzero(block)
            if not nonzero.size:
                break
            pi, pj = divmod(int(nonzero[np.argmin(block[nonzero])]), n - t)
        if pi:
            e.row_swap(t, t + pi)
        if pj:
            e.col_swap(t, t + pj)
        # clear column and row t; a Bezout step on the row refills the column,
        # but the pivot only shrinks, so this stops
        e.clear_column(t)
        while not e.clear_row(t):
            e.clear_column(t)
        if e.d[t, t] < 0:
            e.row_negate(t)
        t += 1

    rank = t
    # enforce the divisibility chain d_i | d_{i+1} with local 2x2 gcd steps
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            if e.d[i + 1, i + 1] % e.d[i, i] == 0:
                continue
            changed = True
            # block [[a,0],[0,b]] -> [[a,0],[b,b]] -> [[g,*],[0,±ab/g]] -> diag(g, lcm)
            e.col_add([i], i + 1, [1])
            while e.d[i + 1, i]:
                e.row_add([i], i + 1, [-(e.d[i, i] // e.d[i + 1, i])])
                e.row_swap(i, i + 1)
            # g = gcd(a,b) divides b, and the fill-in above it is a multiple of b
            if e.d[i, i + 1]:
                e.col_add([i + 1], i, [-(e.d[i, i + 1] // e.d[i, i])])
            if e.d[i, i] < 0:
                e.row_negate(i)
            if e.d[i + 1, i + 1] < 0:
                e.row_negate(i + 1)
    return e.result(rank)
