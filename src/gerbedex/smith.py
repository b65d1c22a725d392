"""Exact integer matrix normal forms and solvers.

Everything here works on small dense matrices of Python ints (lists of rows),
so all arithmetic is exact.  `smith_normal_form` is the classical dense
elimination with both transforms and their inverses; its cost grows with the
cube of the matrix side, so callers factor each matrix once and keep the
`SmithResult`, which then answers linear solves over Z and Z_k in its own
coordinates (`SmithResult.solve`, `SmithResult.solve_mod`).  Coboundary
matrices are +-1-sparse, so the pivot search stops at the first unit entry and
`matmul` skips zero entries.  An entry that the pivot does not divide is
cleared by one unimodular 2x2 Bezout step, so dense inputs with non-unit
pivots do not blow up their entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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


def smith_normal_form(a):
    """Smith normal form over Z with transform matrices and their inverses."""
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
        g, x, y = _bezout(a, b)
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
        g, x, y = _bezout(a, b)
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
    return SmithResult(d=d, u=u, v=v, uinv=uinv, vinv=vinv, rank=rank)


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
