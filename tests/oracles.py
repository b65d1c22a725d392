"""Oracles shared by the tests: closed forms and slow, independent paths.

`gerbedex.smith` and `gerbedex.cech` keep integer matrices as int64 or object
arrays; the list helpers here work on lists of Python ints one entry at a
time, so every array product can be compared with a computation that shares
none of its code.  `closed_nerve` is the all-faces closure that
`Nerve.from_simplices` replaced by its one-codimension-at-a-time closure.

The Clifford algebra in blade coefficients (`CliffordElement`, with
`blade_product`, `represent` and `clifford_of_curvature`) is the independent
oracle for `gerbedex.clifford`, which stores spin elements only as spinor
unitaries: `spin_element` is the checked constructor of a `SpinElement` from
blade coefficients, and `element_of` projects one back onto the even blades.

`descent_residual` is the whole-grid descent check: it evaluates and
differentiates each transition on all of chart a's grid on every call, where
`gerbedex.geometry` reads the values cached on the overlap sample.  The
other geometry oracles are the plain bump partition (the atlas works with
log-bumps), spectral exterior derivatives, forms sampled from callables,
the round and flat volume forms, and the pointwise difference of two
`MixedForm`s.  `fubini_study_metric` and `volume_check` integrate the
Kahler volume of CP2 numerically against the ring normalization of x^2.
"""

import functools
import itertools
import math

import numpy as np

from gerbedex import cech, smith
from gerbedex.clifford import SpinElement, _spin_tables, spinor_rep
from gerbedex.geometry import FormField, composite_gauss_legendre


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


def closed_nerve(simplices, vertex_count=None):
    """The all-faces closure `Nerve.from_simplices` replaced: every face of
    every listed simplex is enumerated, with the same checks in the same
    order."""
    simplices = [tuple(s) for s in simplices]
    top = max([cech.MIN_TOP_DEGREE] + [len(s) - 1 for s in simplices])
    by_degree = [set() for _ in range(top + 1)]
    max_vertex = -1
    for s in simplices:
        vs = tuple(sorted(set(int(v) for v in s)))
        if len(vs) != len(s):
            raise ValueError(f"simplex {s} has repeated vertices")
        if not vs:
            raise ValueError("empty simplex")
        if min(vs) < 0:
            raise ValueError(f"negative vertex in simplex {s}")
        max_vertex = max(max_vertex, vs[-1])
        for r in range(1, len(vs) + 1):
            for face in itertools.combinations(vs, r):
                by_degree[r - 1].add(face)
    if vertex_count is None:
        vertex_count = max_vertex + 1
    elif max_vertex >= vertex_count:
        raise ValueError("simplex vertex exceeds vertex_count")
    for v in range(vertex_count):
        by_degree[0].add((v,))
    return cech.Nerve(vertex_count=vertex_count,
                      simplices=tuple(tuple(sorted(level)) for level in by_degree))


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


def kernel_basis(a):
    """An array whose columns form a Z-basis of {x : A x = 0}."""
    snf = smith.smith_normal_form(a)
    return snf.v[:, snf.rank:]


# ------------------------------------------------------------ Clifford blades


def blade_product(b1, b2):
    """Product of two basis blades (strictly increasing index tuples).

    Returns (sign, blade). Concatenate, bubble-sort counting transpositions,
    then cancel equal neighbours; each cancellation contributes e_i e_i = -1.
    """
    seq = list(b1) + list(b2)
    sign = 1
    swapped = True
    while swapped:
        swapped = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                swapped = True
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            sign = -sign
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return sign, tuple(out)


class CliffordElement:
    """Sparse element of the Clifford algebra on n anticommuting generators.

    Stored as a dict mapping strictly increasing index tuples to complex
    coefficients. The empty tuple is the scalar blade.
    """

    __slots__ = ("dimension", "coefficients")

    def __init__(self, dimension, coefficients=None):
        self.dimension = int(dimension)
        coeffs = {}
        for blade, value in (coefficients or {}).items():
            blade = tuple(int(i) for i in blade)
            if any(i < 0 or i >= self.dimension for i in blade):
                raise ValueError(f"blade {blade} out of range for dimension {self.dimension}")
            if list(blade) != sorted(set(blade)):
                raise ValueError(f"blade {blade} must be strictly increasing")
            if value != 0:
                coeffs[blade] = complex(value)
        self.coefficients = coeffs

    @classmethod
    def scalar(cls, dimension, value):
        return cls(dimension, {(): value})

    @classmethod
    def generator(cls, dimension, index):
        return cls(dimension, {(index,): 1.0})

    @classmethod
    def vector(cls, components):
        components = np.asarray(components)
        return cls(len(components), {(i,): components[i] for i in range(len(components))})

    def __add__(self, other):
        other = self._coerce(other)
        coeffs = dict(self.coefficients)
        for blade, value in other.coefficients.items():
            coeffs[blade] = coeffs.get(blade, 0.0) + value
        return CliffordElement(self.dimension, coeffs)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return CliffordElement(self.dimension, {b: -v for b, v in self.coefficients.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return CliffordElement(
                self.dimension, {b: v * other for b, v in self.coefficients.items()}
            )
        other = self._coerce(other)
        coeffs = {}
        for b1, v1 in self.coefficients.items():
            for b2, v2 in other.coefficients.items():
                sign, blade = blade_product(b1, b2)
                coeffs[blade] = coeffs.get(blade, 0.0) + sign * v1 * v2
        return CliffordElement(self.dimension, coeffs)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def _coerce(self, other):
        if isinstance(other, CliffordElement):
            if other.dimension != self.dimension:
                raise ValueError("dimension mismatch")
            return other
        if isinstance(other, (int, float, complex)):
            return CliffordElement.scalar(self.dimension, other)
        raise TypeError(f"cannot combine CliffordElement with {type(other)!r}")

    def reverse(self):
        """Anti-automorphism reversing the order of generators in each blade."""
        coeffs = {}
        for blade, value in self.coefficients.items():
            k = len(blade)
            sign = -1 if (k * (k - 1) // 2) % 2 else 1
            coeffs[blade] = sign * value
        return CliffordElement(self.dimension, coeffs)

    def grade(self, k):
        return CliffordElement(
            self.dimension, {b: v for b, v in self.coefficients.items() if len(b) == k}
        )

    def grades(self):
        return sorted({len(b) for b in self.coefficients})

    def scalar_part(self):
        return self.coefficients.get((), 0.0 + 0.0j)

    def norm(self):
        """Euclidean norm of the blade-coefficient vector."""
        return math.sqrt(sum(abs(v) ** 2 for v in self.coefficients.values()))

    def is_real(self, tol=1e-10):
        return all(abs(v.imag) <= tol for v in self.coefficients.values())


def represent(element, rep=None):
    """Matrix of a CliffordElement in the spinor representation."""
    rep = rep if rep is not None else spinor_rep(element.dimension)
    if rep.n != element.dimension:
        raise ValueError("representation dimension mismatch")
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    eye = np.eye(rep.dim, dtype=complex)
    for blade, value in element.coefficients.items():
        mat = eye
        for i in blade:
            mat = mat @ rep.gamma[i]
        out += value * mat
    return out


def clifford_of_curvature(omega, tol=1e-10):
    """Quarter-contraction (1/4) sum omega_ij e_i e_j of an antisymmetric matrix.

    Satisfies [clifford_of_curvature(omega), v] = -omega v on vectors v, i.e.
    it generates the rotation with matrix exp applied to -omega.
    """
    omega = np.asarray(omega)
    n = omega.shape[0]
    if np.abs(omega + omega.T).max() > tol * max(1.0, np.abs(omega).max()):
        raise ValueError("curvature matrix must be antisymmetric")
    coeffs = {}
    for i in range(n):
        for j in range(i + 1, n):
            # omega_ij e_i e_j + omega_ji e_j e_i = 2 omega_ij e_i e_j
            coeffs[(i, j)] = 0.5 * omega[i, j]
    return CliffordElement(n, coeffs)


def spin_element(element, tol=1e-8):
    """The SpinElement of a unit even real Clifford element, checked in blades.

    Spin(n) is the group of unit even real Clifford elements whose adjoint
    action preserves vectors; odd n is carried by spinor_rep(n + 1).
    """
    if not isinstance(element, CliffordElement):
        raise TypeError("SpinElement wraps a CliffordElement")
    rep = _spin_tables(element.dimension).rep
    if any(g % 2 for g in element.grades()):
        raise ValueError("spin element must be even")
    if not element.is_real(tol):
        raise ValueError("spin element must have real coefficients")
    unit = element * element.reverse()
    defect = (unit - CliffordElement.scalar(element.dimension, 1.0)).norm()
    if defect > tol:
        raise ValueError(f"g * reverse(g) differs from 1 by {defect:.3e}")
    for k in range(element.dimension):
        image = element * CliffordElement.generator(element.dimension, k) * element.reverse()
        junk = (image - image.grade(1)).norm()
        if junk > tol:
            raise ValueError(f"adjoint action does not preserve vectors (defect {junk:.3e})")
    return SpinElement(element.dimension,
                       represent(CliffordElement(rep.n, element.coefficients), rep))


def element_of(g):
    """Blade coefficients of a SpinElement, by Hilbert-Schmidt projection onto
    the even blades of its first n generators."""
    n, u = g.dimension, g.matrix()
    rep = _spin_tables(n).rep
    eye = np.eye(rep.dim, dtype=complex)
    coeffs = {}
    for size in range(0, n + 1, 2):
        for blade in itertools.combinations(range(n), size):
            mat = functools.reduce(np.matmul, (rep.gamma[i] for i in blade), eye)
            coeffs[blade] = np.vdot(mat, u).real / rep.dim
    return CliffordElement(n, coeffs)


# ------------------------------------------------------------------ geometry


def bump(t):
    """Smooth compactly supported bump: exp(1 - 1/(1-t^2)) inside |t| < 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def bump_values(chart, points=None):
    """Product bump scaled to the chart's box, on its grid or at given points."""
    if points is None:
        total = bump((chart.axes[0].nodes - chart.axes[0].center) / chart.axes[0].half)
        for ax in chart.axes[1:]:
            total = np.multiply.outer(total, bump((ax.nodes - ax.center) / ax.half))
        return total
    pts = np.asarray(points, dtype=float)
    out = np.ones(pts.shape[:-1])
    for k, ax in enumerate(chart.axes):
        out = out * bump((pts[..., k] - ax.center) / ax.half)
    return out


def sample_form(atlas, degree, specs, rank=None):
    """A FormField whose components are per-chart callables evaluated on the grids."""
    comps = {}
    for cname, chart in atlas.charts.items():
        coords = chart.coords()
        comps[cname] = {key: np.asarray(fn(*coords)) for key, fn in specs[cname].items()}
    return FormField(atlas, degree, comps, rank=rank)


def exterior_derivative(field):
    """d of a FormField by per-panel spectral differentiation."""
    if field.degree >= field.atlas.dim:
        raise ValueError("cannot raise the degree beyond the dimension")
    comps = {}
    for cname, chart in field.atlas.charts.items():
        out = {}
        for key, arr in field.comps[cname].items():
            for axis in range(chart.dim):
                if axis in key:
                    continue
                sign = -1.0 if sum(1 for i in key if i < axis) % 2 else 1.0
                merged = tuple(sorted(key + (axis,)))
                term = sign * chart.differentiate(arr, axis)
                out[merged] = out[merged] + term if merged in out else term
        comps[cname] = out
    return FormField(field.atlas, field.degree + 1, comps, rank=field.rank)


def area_form(atlas):
    """Round area form on the two-chart stereographic sphere atlas."""
    return sample_form(atlas, 2, {
        "north": {(0, 1): lambda x, y: (2.0 / (1.0 + x * x + y * y)) ** 2},
        "south": {(0, 1): lambda u, v: -(2.0 / (1.0 + u * u + v * v)) ** 2},
    })


def flat_volume_form(atlas):
    """dx ^ dy with coefficient 1 on every chart: the flat torus's volume form."""
    return FormField(atlas, 2, {cname: {(0, 1): np.ones(chart.shape)}
                                for cname, chart in atlas.charts.items()})


def max_difference(a, b):
    """Largest pointwise coefficient deviation of two MixedForms across
    degrees and charts."""
    if a.atlas is not b.atlas:
        raise ValueError("mixed forms live on different atlases")
    worst = 0.0
    for degree, field in a.parts.items():
        mate = b.parts[degree]
        for cname, chart_comps in field.comps.items():
            for key, arr in chart_comps.items():
                gap = np.abs(arr - mate.comps[cname][key])
                if gap.size:
                    worst = max(worst, float(gap.max()))
    return worst


def fubini_study_metric(z1, z2):
    """Hermitian metric coefficients g_{i jbar} on the affine chart of CP2."""
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    d = 1.0 + np.abs(z1) ** 2 + np.abs(z2) ** 2
    z = np.stack([z1, z2], axis=-1)
    outer = z.conj()[..., :, None] * z[..., None, :]
    return (d[..., None, None] * np.eye(2) - outer) / (d ** 2)[..., None, None]


def volume_check(radial_order=24, panels=6, angular_order=4):
    """Numeric integral of the Kahler form's wedge square over the CP2 chart.

    Polar coordinates per complex axis with the rational compactification
    rho = t/(1-t); the density is (2/pi^2) det g. The exact value is 1,
    the ring normalization of x^2.
    """
    t, wt = composite_gauss_legendre(0.0, 1.0, radial_order, panels)
    th, wth = composite_gauss_legendre(0.0, 2.0 * np.pi, angular_order, 1)
    rho = t / (1.0 - t)
    stretch = wt * rho / (1.0 - t) ** 2
    z1 = rho[:, None, None, None] * np.exp(1j * th[None, :, None, None])
    z2 = rho[None, None, :, None] * np.exp(1j * th[None, None, None, :])
    g = fubini_study_metric(*np.broadcast_arrays(z1, z2))
    dens = (2.0 / np.pi ** 2) * np.linalg.det(g).real
    return float(np.einsum("i,j,k,l,ijkl->", stretch, wth, stretch, wth, dens))
