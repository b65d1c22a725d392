"""Oracles shared by the Smith, Cech and geometry tests.

`gerbedex.smith` and `gerbedex.cech` keep integer matrices as int64 or object
arrays; the list helpers here work on lists of Python ints one entry at a
time, so every array product can be compared with a computation that shares
none of its code.

`descent_residual` is the whole-grid descent check: it evaluates and
differentiates each transition on all of chart a's grid on every call, where
`gerbedex.geometry` reads the values cached on the overlap sample.
"""

import numpy as np

from gerbedex import cech


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


def is_exact_int_array(x):
    """int64, or dtype=object holding only Python ints."""
    return x.dtype == "int64" or (
        x.dtype == object and all(type(v) is int for v in x.flat))


def relabelled(nerve, seed):
    """The nerve with its vertices permuted by a seeded permutation."""
    perm = np.random.default_rng(seed).permutation(nerve.vertex_count)
    return cech.Nerve.from_simplices(
        [tuple(int(perm[v]) for v in s) for level in nerve.simplices for s in level],
        vertex_count=nerve.vertex_count)


def descent_residual(atlas, degree, comps, conn=None, shifted=False):
    """Max over overlaps (a, b) of |X_a - phi (pullback X_b) phi^-1 - shift|,
    with phi evaluated afresh: on the whole chart-a grid (and differentiated
    there) for the gluing check, at the sampled coordinates otherwise."""
    worst = 0.0
    for a, b in atlas.overlaps:
        transition = None if conn is None else conn.transitions[(a, b)]
        if shifted:
            chart_a = atlas.charts[a]
            phi_grid = np.asarray(transition(*chart_a.coords()), dtype=complex)
            if phi_grid.shape != chart_a.shape + (conn.rank,) * 2:
                raise ValueError(f"transition on {(a, b)} has wrong shape")
            dphi = [chart_a.differentiate(phi_grid, axis)
                    for axis in range(chart_a.dim)]
        sample = atlas.overlap_sample(a, b)
        if sample.idx.size == 0:
            continue
        if conn is not None:
            phi = (sample.gather(phi_grid) if shifted else
                   np.asarray(transition(*sample.coords), dtype=complex))
            phi_inv = phi.conj().swapaxes(-1, -2)
        for key, rhs in sample.pullback(comps[b], degree).items():
            if conn is not None:
                rhs = phi @ rhs @ phi_inv
            if shifted:
                rhs = rhs - sample.gather(dphi[key[0]]) @ phi_inv
            stored = sample.gather(comps[a][key])
            worst = max(worst, float(np.max(np.abs(stored - rhs))))
    return worst
