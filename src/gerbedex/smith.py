"""Exact integer matrix normal forms and solvers.

Everything here works on small dense matrices of Python ints (lists of rows),
so all arithmetic is exact.  Sizes in this package are bounded by the shipped
simplicial complexes (at most a few hundred rows/columns), which keeps the
classical pivoting algorithm comfortably fast.
"""

from __future__ import annotations

from dataclasses import dataclass


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b):
    """Exact integer matrix product."""
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    if len(a[0]) != len(b):
        raise ValueError("matmul: inner dimensions differ")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


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
            for j in range(t, n):
                val = abs(d[i][j])
                if val and (best is None or val < best):
                    best = val
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        # clear row and column t; the pivot shrinks each pass, so this stops
        while True:
            done = True
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    row_add(i, t, -q)
                    if d[i][t]:
                        row_swap(t, i)
                        done = False
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    col_add(j, t, -q)
                    if d[t][j]:
                        col_swap(t, j)
                        done = False
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
    snf = smith_normal_form(a)
    m = len(a)
    n = len(a[0]) if m else 0
    ub = matvec(snf.u, b)
    y = [0] * n
    for i in range(m):
        di = snf.d[i][i] if i < min(m, n) else 0
        if i < snf.rank:
            if ub[i] % di:
                return None
            y[i] = ub[i] // di
        elif ub[i]:
            return None
    return matvec(snf.v, y)


def solve_mod(a, b, k):
    """One solution x (entries in [0, k)) of A x = b (mod k), or None."""
    if k < 2:
        raise ValueError("modulus must be >= 2")
    snf = smith_normal_form(a)
    m = len(a)
    n = len(a[0]) if m else 0
    ub = matvec(snf.u, b)
    y = [0] * n
    for i in range(m):
        c = ub[i] % k
        if i < snf.rank:
            di = snf.d[i][i]
            g = _gcd(di, k)
            if c % g:
                return None
            # solve (di/g) * y = c/g  (mod k/g)
            kk = k // g
            y[i] = ((c // g) * pow((di // g) % kk, -1, kk)) % kk if kk > 1 else 0
        elif c:
            return None
    return [x % k for x in matvec(snf.v, y)]


def column_lattice_basis(g):
    """Independent columns spanning the same column lattice as g."""
    m = len(g)
    snf = smith_normal_form(g)
    cols = []
    for i in range(snf.rank):
        di = snf.d[i][i]
        cols.append([snf.uinv[r][i] * di for r in range(m)])
    return [[col[r] for col in cols] for r in range(m)] if cols else [[] for _ in range(m)]


def quotient_invariants(num_basis, den_gens):
    """Cyclic invariants of (lattice spanned by num_basis cols) / (sublattice by den_gens cols).

    num_basis columns must be independent and every den_gens column must lie in
    their span.  Returns (orders, generator_columns): orders are the invariant
    factors with 1s dropped (0 = infinite cyclic factor), and generator_columns
    are representatives in the ambient coordinates, one per listed order.
    """
    z = len(num_basis[0]) if num_basis and num_basis[0] else 0
    if z == 0:
        return [], []
    p = len(den_gens[0]) if den_gens and den_gens[0] else 0
    # express all denominator generators in the numerator basis with a single
    # factorization: num_basis = Uinv D Vinv, so D (Vinv x) = U den
    xmat = [[0] * p for _ in range(z)]
    if p:
        nb = smith_normal_form(num_basis)
        c = matmul(nb.u, den_gens)
        w = [[0] * p for _ in range(z)]
        for i in range(len(c)):
            di = nb.d[i][i] if i < min(len(nb.d), z) else 0
            for j in range(p):
                if di:
                    if c[i][j] % di:
                        raise ValueError("denominator lattice not contained in numerator lattice")
                    w[i][j] = c[i][j] // di
                elif c[i][j]:
                    raise ValueError("denominator lattice not contained in numerator lattice")
        xmat = matmul(nb.v, w)
    snf = smith_normal_form(xmat) if p else None
    orders = []
    gens = []
    diag = snf.diagonal() if snf else []
    for i in range(z):
        d = diag[i] if i < len(diag) else 0
        if d == 1:
            continue
        orders.append(d)
        # basis change y = U x diagonalizes the quotient; generator i pulls
        # back to column i of Uinv (or the unit vector when p == 0)
        if snf:
            vec = [snf.uinv[r][i] for r in range(z)]
        else:
            vec = [1 if r == i else 0 for r in range(z)]
        amb = matvec(num_basis, vec)
        gens.append(amb)
    return orders, gens


def _gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a
