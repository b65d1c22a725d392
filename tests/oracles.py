"""Oracles shared by the Smith and Cech tests.

`gerbedex.smith` and `gerbedex.cech` keep integer matrices as int64 or object
arrays; the list helpers here work on lists of Python ints one entry at a
time, so every array product can be compared with a computation that shares
none of its code.
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
