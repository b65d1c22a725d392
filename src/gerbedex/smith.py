"""Exact integer matrix normal forms and solvers.

Matrices come in and go out as lists of rows of Python ints.
`smith_normal_form` is the classical dense elimination with both transforms
and their inverses; its cost grows with the cube of the matrix side, so
callers factor each matrix once and keep the `SmithResult`, which then answers
linear solves over Z and Z_k in its own coordinates (`SmithResult.solve`,
`SmithResult.solve_mod`).

During the elimination D, U, U^-1, V and V^-1 are int64 arrays.  The pivot is
the first smallest nonzero |entry| of the trailing block in row-major order,
so on +-1-sparse coboundary matrices it is the first unit entry.  Clearing the
pivot's column (then its row) subtracts each run of entries the pivot divides
in one batched row (column) update; an entry it does not divide is cleared by
one unimodular 2x2 Bezout step, so dense inputs with non-unit pivots do not
blow up their entries.  A running bound on the largest |entry| guards every
update: when the update could reach 2**62 the arrays are rescanned, and if it
still could, all five are widened to dtype=object (exact Python ints) and the
elimination goes on with the same code.  So the operation sequence, and the
result, are those of a plain list elimination at any entry size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LIMIT = 1 << 62


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b):
    """Exact integer matrix product; zero entries of both factors are skipped."""
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    if len(a[0]) != len(b):
        raise ValueError("matmul: inner dimensions differ")
    width = len(b[0])
    sparse_b = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * width
        for x, brow in zip(row, sparse_b):
            if x:
                for j, y in brow:
                    acc[j] += x * y
        out.append(acc)
    return out


def matvec(a, v):
    if a and len(a[0]) != len(v):
        raise ValueError("matvec: dimension mismatch")
    return [sum(x * y for x, y in zip(row, v)) for row in a]


@dataclass
class SmithResult:
    """U @ A @ V == D with U, V unimodular; A == Uinv @ D @ Vinv.

    D is diagonal with nonnegative entries d_1 | d_2 | ... ; `rank` counts the
    nonzero diagonal entries.
    """

    d: list
    u: list
    v: list
    uinv: list
    vinv: list
    rank: int

    def diagonal(self):
        r = min(len(self.d), len(self.d[0]) if self.d else 0)
        return [self.d[i][i] for i in range(r)]

    def solve(self, b):
        """One integer solution x of A x = b, or None if none exists."""
        y = [0] * len(self.v)
        for i, c in enumerate(matvec(self.u, b)):
            if i < self.rank:
                q, rem = divmod(c, self.d[i][i])
                if rem:
                    return None
                y[i] = q
            elif c:
                return None
        return matvec(self.v, y)

    def solve_mod(self, b, k):
        """One solution x (entries in [0, k)) of A x = b (mod k), or None."""
        if k < 2:
            raise ValueError("modulus must be >= 2")
        y = [0] * len(self.v)
        for i, c in enumerate(matvec(self.u, b)):
            c %= k
            if i < self.rank:
                di = self.d[i][i]
                g = math.gcd(di, k)
                if c % g:
                    return None
                # solve (di/g) * y = c/g  (mod k/g)
                kk = k // g
                y[i] = ((c // g) * pow((di // g) % kk, -1, kk)) % kk if kk > 1 else 0
            elif c:
                return None
        return [x % k for x in matvec(self.v, y)]


def _bezout(a, b):
    """(g, x, y) with x * a + y * b == g == gcd(a, b) > 0, for a nonzero a."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


class _Elimination:
    """D, U, U^-1, V and V^-1 as arrays, with the elementary operations.

    Row ops multiply U on the left of A (and the inverse op hits U^-1's
    columns); column ops multiply V on the right (the inverse op hits V^-1's
    rows).  The arrays start as int64 with `bound` >= every |entry|; each
    update first calls `_reserve` with the factor by which it can grow that
    bound.  Where the product could reach 2**62 the arrays are rescanned, and
    if the true bound still allows it they are widened to dtype=object
    (Python ints), after which the same operations run exactly.
    """

    def __init__(self, a, m, n):
        try:
            self.d = np.array(a, dtype=np.int64).reshape(m, n)
        except OverflowError:
            rows = [list(map(int, row)) for row in a]  # Python ints, not numpy scalars
            self.d = np.array(rows, dtype=object).reshape(m, n)
        self.u, self.uinv = np.eye(m, dtype=np.int64), np.eye(m, dtype=np.int64)
        self.v, self.vinv = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
        self.exact = False
        self.bound = _LIMIT  # unknown until the first rescan
        self._reserve(1)

    def _reserve(self, factor):
        if self.exact:
            return
        if self.bound * factor >= _LIMIT:
            arrays = (self.d, self.u, self.uinv, self.v, self.vinv)
            self.bound = max(max(-int(x.min(initial=0)), int(x.max(initial=0)))
                             for x in arrays)
            if self.bound * factor >= _LIMIT:
                self.exact = True
                self.d, self.u, self.uinv, self.v, self.vinv = (
                    x.astype(object) for x in arrays)
                return
        self.bound *= factor

    def _multipliers(self, q):
        # rows or columns k gain q_k times row or column t: entries grow to at
        # most (1 + sum |q_k|) <= (1 + len(q) max |q_k|) times the bound
        q = np.asarray(q)
        self._reserve(1 + len(q) * int(np.abs(q).max()))
        return q.astype(self.d.dtype)

    def row_add(self, rows, t, q):
        # row_k += q_k * row_t for each k in rows
        q = self._multipliers(q)
        self.d[rows] += q[:, None] * self.d[t]
        self.u[rows] += q[:, None] * self.u[t]
        self.uinv[:, t] -= self.uinv[:, rows] @ q

    def col_add(self, cols, t, q):
        # col_k += q_k * col_t for each k in cols
        q = self._multipliers(q)
        self.d[:, cols] += self.d[:, t, None] * q
        self.v[:, cols] += self.v[:, t, None] * q
        self.vinv[t] -= q @ self.vinv[cols]

    def row_swap(self, i, j):
        self.d[[i, j]] = self.d[[j, i]]
        self.u[[i, j]] = self.u[[j, i]]
        self.uinv[:, [i, j]] = self.uinv[:, [j, i]]

    def col_swap(self, i, j):
        self.d[:, [i, j]] = self.d[:, [j, i]]
        self.v[:, [i, j]] = self.v[:, [j, i]]
        self.vinv[[i, j]] = self.vinv[[j, i]]

    def row_negate(self, i):
        self.d[i] *= -1
        self.u[i] *= -1
        self.uinv[:, i] *= -1

    def row_bezout(self, t, i):
        # rows (t, i) <- [[x, y], [-b/g, a/g]] (t, i): pivot becomes g, d[i, t] 0
        a, b = int(self.d[t, t]), int(self.d[i, t])
        g, x, y = _bezout(a, b)
        p, q = -b // g, a // g
        self._reserve(max(abs(x) + abs(y), abs(p) + abs(q)))
        for mat in (self.d, self.u):
            s, w = mat[[t, i]]
            mat[t], mat[i] = x * s + y * w, p * s + q * w
        # inverse [[a/g, -y], [b/g, x]] acts on the columns of U^-1
        s, w = self.uinv[:, [t, i]].T
        self.uinv[:, t], self.uinv[:, i] = q * s - p * w, x * w - y * s

    def col_bezout(self, t, j):
        # cols (t, j) <- (t, j) [[x, -b/g], [y, a/g]]: pivot becomes g, d[t, j] 0
        a, b = int(self.d[t, t]), int(self.d[t, j])
        g, x, y = _bezout(a, b)
        p, q = -b // g, a // g
        self._reserve(max(abs(x) + abs(y), abs(p) + abs(q)))
        for mat in (self.d, self.v):
            s, w = mat[:, [t, j]].T
            mat[:, t], mat[:, j] = x * s + y * w, p * s + q * w
        # inverse [[a/g, b/g], [-y, x]] acts on the rows of V^-1
        s, w = self.vinv[[t, j]]
        self.vinv[t], self.vinv[j] = q * s - p * w, x * w - y * s


def smith_normal_form(a):
    """Smith normal form over Z with transform matrices and their inverses."""
    m = len(a)
    n = len(a[0]) if m else 0
    e = _Elimination(a, m, n)
    t = 0
    while t < min(m, n):
        # pivot: the first smallest nonzero |entry| of the trailing block in
        # row-major order (so the first unit entry when there is one)
        block = np.abs(e.d[t:, t:]).ravel()
        nonzero = np.flatnonzero(block)
        if not nonzero.size:
            break
        pi, pj = divmod(int(nonzero[np.argmin(block[nonzero])]), n - t)
        if pi:
            e.row_swap(t, t + pi)
        if pj:
            e.col_swap(t, t + pj)
        # clear column and row t: each run of entries the pivot divides is
        # subtracted away in one batched update, and the first entry it does
        # not divide meets a 2x2 Bezout step that replaces the pivot by the
        # gcd; the pivot only shrinks, so this stops
        while True:
            done = True
            rows = t + 1 + np.flatnonzero(e.d[t + 1:, t])
            while rows.size:
                stuck = np.flatnonzero(e.d[rows, t] % e.d[t, t])
                run = rows[:stuck[0]] if stuck.size else rows
                if run.size:
                    e.row_add(run, t, -(e.d[run, t] // e.d[t, t]))
                if not stuck.size:
                    break
                e.row_bezout(t, int(rows[stuck[0]]))
                rows = rows[stuck[0] + 1:]
            cols = t + 1 + np.flatnonzero(e.d[t, t + 1:])
            while cols.size:
                stuck = np.flatnonzero(e.d[t, cols] % e.d[t, t])
                run = cols[:stuck[0]] if stuck.size else cols
                if run.size:
                    e.col_add(run, t, -(e.d[t, run] // e.d[t, t]))
                if not stuck.size:
                    break
                e.col_bezout(t, int(cols[stuck[0]]))
                done = False
                cols = cols[stuck[0] + 1:]
            if done:
                break
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
    # each array is freed as soon as its list exists, which keeps the peak low
    fields = {name: vars(e).pop(name).tolist() for name in ("d", "u", "v", "uinv", "vinv")}
    return SmithResult(rank=rank, **fields)


def kernel_basis(a):
    """Columns forming a Z-basis of {x : A x = 0}."""
    m = len(a)
    n = len(a[0]) if m else 0
    if n == 0:
        return []
    snf = smith_normal_form(a)
    cols = range(snf.rank, n)
    return [[snf.v[i][j] for j in cols] for i in range(n)]


def solve_integer(a, b):
    """One integer solution x of A x = b, or None if none exists."""
    return smith_normal_form(a).solve(b)


def solve_mod(a, b, k):
    """One solution x (entries in [0, k)) of A x = b (mod k), or None."""
    return smith_normal_form(a).solve_mod(b, k)
