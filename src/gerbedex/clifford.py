"""Clifford algebra with negative-definite generators, spinor representations,
and two-to-one lifts of special orthogonal matrices.

Conventions fixed here and relied on everywhere else:
  * generators square to -1 and anticommute: e_i e_j + e_j e_i = -2 delta_ij
  * gamma_i = 1j * Gamma_i with Gamma_i the Hermitian Pauli tensor chain, so
    the gamma_i are anti-Hermitian and satisfy the same relations
  * the chirality operator i^(n/2) gamma_1 ... gamma_n equals sigma3 tensored
    with itself n/2 times
  * a spin element g acts on vectors by v -> g v reverse(g); the lift of a
    rotation by theta in the (i, j) plane is cos(theta/2) + sin(theta/2) e_i e_j
  * a spin element is stored as its spinor matrix, so reverse(g) is the adjoint
"""

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class LiftAmbiguityError(ValueError):
    """Raised when neither sign of a lift is decisively closer to the reference.

    Carries the two candidate distances and the gap their difference missed.
    """

    def __init__(self, message, d_plus, d_minus, ambiguity_gap):
        super().__init__(message)
        self.d_plus = d_plus
        self.d_minus = d_minus
        self.ambiguity_gap = ambiguity_gap


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

    def __repr__(self):
        if not self.coefficients:
            return f"CliffordElement({self.dimension}, 0)"
        terms = []
        for blade in sorted(self.coefficients, key=lambda b: (len(b), b)):
            v = self.coefficients[blade]
            label = "".join(f"e{i + 1}" for i in blade) or "1"
            terms.append(f"({v:.6g})*{label}")
        return f"CliffordElement({self.dimension}, {' + '.join(terms)})"


class SpinorRep:
    """Irreducible complex representation of the even-dimensional algebra.

    gamma[i] are anti-Hermitian 2^(n/2) matrices with gamma_i gamma_j +
    gamma_j gamma_i = -2 delta_ij; chirality is the grading operator.
    """

    def __init__(self, n, gamma, chirality):
        self.n = n
        self.dim = gamma[0].shape[0]
        self.gamma = gamma
        self.chirality = chirality


@functools.lru_cache(maxsize=None)
def spinor_rep(n):
    if n % 2 != 0 or not 2 <= n <= 8:
        raise ValueError("spinor representation implemented for even n between 2 and 8")
    m = n // 2
    gammas = []
    for k in range(1, m + 1):
        for pauli in (_SIGMA1, _SIGMA2):
            factors = [_SIGMA3] * (k - 1) + [pauli] + [np.eye(2, dtype=complex)] * (m - k)
            mat = factors[0]
            for f in factors[1:]:
                mat = np.kron(mat, f)
            mat = 1.0j * mat
            mat.flags.writeable = False
            gammas.append(mat)
    chirality = functools.reduce(np.kron, [_SIGMA3] * m) if m > 1 else _SIGMA3.copy()
    chirality = chirality.astype(complex)
    chirality.flags.writeable = False
    return SpinorRep(n, tuple(gammas), chirality)


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


class _SpinTables(NamedTuple):
    """Fixed matrices of the representation that carries Spin(n)."""

    rep: SpinorRep
    eye: np.ndarray  # identity of the spinor space
    gamma: np.ndarray  # (n, dim, dim): the first n generators
    pairs: np.ndarray  # (n, n, dim, dim): gamma_i gamma_j
    blades: tuple  # even blades of the first n generators
    blade_matrices: np.ndarray  # (len(blades), dim, dim)


def _frozen(array):
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=None)
def _spin_tables(n):
    """Spin(n) acts through spinor_rep(n), or spinor_rep(n + 1) for odd n."""
    if not 1 <= n <= 8:
        raise ValueError(f"spin elements are implemented for 1 <= n <= 8, got n = {n}")
    rep = spinor_rep(n + n % 2)
    eye = _frozen(np.eye(rep.dim, dtype=complex))
    gamma = _frozen(np.stack(rep.gamma[:n]))
    blades = tuple(blade for size in range(0, n + 1, 2)
                   for blade in itertools.combinations(range(n), size))
    blade_matrices = np.stack(
        [functools.reduce(np.matmul, (gamma[i] for i in blade), eye) for blade in blades]
    )
    return _SpinTables(rep, eye, gamma, _frozen(gamma[:, None] @ gamma[None, :]),
                       blades, _frozen(blade_matrices))


class SpinElement:
    """Element of Spin(n), stored as its unitary matrix on the spinors.

    Spin(n) is the group of unit even real Clifford elements whose adjoint
    action preserves vectors; odd n goes through Spin(n) inside Spin(n + 1),
    so n <= 8. Membership is checked only at construction from outside input,
    SpinElement(CliffordElement). Plane rotations are built as matrices, and
    products, inverses and negation stay in the group by construction, so
    none of them is checked again. `element` recovers the blade coefficients.
    """

    __slots__ = ("dimension", "_unitary")

    def __init__(self, element, tol=1e-8):
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
        self.dimension = element.dimension
        self._unitary = _frozen(represent(CliffordElement(rep.n, element.coefficients), rep))

    @classmethod
    def _from_unitary(cls, n, unitary):
        g = object.__new__(cls)
        g.dimension = n
        g._unitary = _frozen(unitary)
        return g

    @classmethod
    def identity(cls, n):
        """The unit of Spin(n)."""
        return cls._from_unitary(n, _spin_tables(n).eye)

    @property
    def element(self):
        """Blade coefficients, by Hilbert-Schmidt projection onto the even blades."""
        tables = _spin_tables(self.dimension)
        coeffs = np.einsum("bij,ij->b", tables.blade_matrices.conj(), self._unitary)
        coeffs = coeffs.real / tables.rep.dim
        return CliffordElement(self.dimension, dict(zip(tables.blades, coeffs)))

    def _check_dimension(self, other):
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")

    def reverse(self):
        return SpinElement._from_unitary(self.dimension, self._unitary.conj().T)

    inverse = reverse

    def __mul__(self, other):
        if isinstance(other, SpinElement):
            self._check_dimension(other)
            return SpinElement._from_unitary(self.dimension, self._unitary @ other._unitary)
        return NotImplemented

    def __neg__(self):
        return SpinElement._from_unitary(self.dimension, -self._unitary)

    def normalized(self):
        scale = np.vdot(self._unitary, self._unitary).real / self._unitary.shape[0]
        return SpinElement._from_unitary(self.dimension, self._unitary / math.sqrt(scale))

    def matrix(self, rep=None):
        """The stored unitary; `rep`, if given, must be the representation it lives in."""
        own = _spin_tables(self.dimension).rep
        if rep is not None and rep is not own:
            raise ValueError(f"spin elements of dimension {self.dimension} are stored "
                             f"in spinor_rep({own.n})")
        return self._unitary

    def adjoint_matrix(self):
        """Rotation matrix R with g e_k reverse(g) = sum_l R[l, k] e_l."""
        gamma = _spin_tables(self.dimension).gamma
        u = self._unitary
        images = u @ gamma @ u.conj().T
        return np.einsum("lab,kab->lk", gamma.conj(), images).real / u.shape[0]

    def distance(self, other):
        """Blade-coefficient distance; blade matrices are orthogonal of norm^2 dim."""
        self._check_dimension(other)
        diff = self._unitary - other._unitary
        return math.sqrt(np.vdot(diff, diff).real / diff.shape[0])

    def __repr__(self):
        return f"SpinElement({self.element!r})"


def plane_rotation(n, i, j, theta):
    """Lift of the rotation by theta in the oriented (i, j) coordinate plane."""
    if i == j:
        raise ValueError("plane needs two distinct axes")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"plane ({i}, {j}) out of range for dimension {n}")
    tables = _spin_tables(n)
    half = 0.5 * theta
    return SpinElement._from_unitary(
        n, math.cos(half) * tables.eye + math.sin(half) * tables.pairs[i, j]
    )


def _check_special_orthogonal(matrix, tol):
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("rotation matrix must be square")
    if np.linalg.norm(matrix.T @ matrix - np.eye(n)) > tol:
        raise ValueError("matrix is not orthogonal")
    if np.linalg.det(matrix) < 0:
        raise ValueError("matrix has determinant -1; it does not lift")
    return matrix, n


def canonical_lift(matrix, tol=1e-8):
    """Deterministic lift of a special orthogonal matrix.

    Givens-reduce M to the identity; the recorded planes and angles rebuild M
    as a product of plane rotations, and the lift is the product of their
    lifts. The overall sign is a fixed function of M (it has the usual jump
    discontinuities, which nearest_lift exists to smooth over).
    """
    matrix, n = _check_special_orthogonal(matrix, tol)
    lift = SpinElement.identity(n)
    work = matrix.copy()
    rotations = []
    for j in range(n - 1):
        for i in range(j + 1, n):
            if abs(work[i, j]) < 1e-15 and work[j, j] > 0:
                continue
            phi = math.atan2(-work[i, j], work[j, j])
            c, s = math.cos(phi), math.sin(phi)
            row_j = c * work[j, :] - s * work[i, :]
            row_i = s * work[j, :] + c * work[i, :]
            work[j, :], work[i, :] = row_j, row_i
            rotations.append((j, i, phi))
    diag = np.diagonal(work)
    if np.linalg.norm(work - np.diag(np.round(diag))) > max(tol, 1e-7) * n:
        raise ValueError("Givens reduction failed to diagonalize; input too far from SO(n)")
    flips = [k for k in range(n) if diag[k] < 0]
    if len(flips) % 2:
        raise ValueError("odd number of sign flips; determinant is not +1")
    for j, i, phi in rotations:
        lift = lift * plane_rotation(n, j, i, -phi)
    for p, q in zip(flips[0::2], flips[1::2]):
        lift = lift * plane_rotation(n, p, q, math.pi)
    lift = lift.normalized()
    residual = np.linalg.norm(lift.adjoint_matrix() - matrix)
    if residual > 1e-6:
        raise ValueError(f"lift verification failed (residual {residual:.3e})")
    return lift


def nearest_lift(matrix, reference, ambiguity_gap=0.5, tol=1e-8):
    """The lift of `matrix` closest to `reference` in blade coefficients.

    The two candidate lifts differ by a global sign and are distance 2 apart,
    so along any reasonably sampled path the choice is clear cut. If the two
    distances differ by less than `ambiguity_gap` the sampling is too coarse
    to transport the sign and we refuse to guess.
    """
    if not isinstance(reference, SpinElement):
        raise TypeError("reference must be a SpinElement")
    cand = canonical_lift(matrix, tol)
    d_plus = cand.distance(reference)
    d_minus = (-cand).distance(reference)
    if abs(d_plus - d_minus) < ambiguity_gap:
        raise LiftAmbiguityError(
            f"sign transport is ambiguous: candidate distances {d_plus:.3f} / {d_minus:.3f}",
            d_plus, d_minus, ambiguity_gap,
        )
    return cand if d_plus < d_minus else -cand


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


class CliffordModuleFiber:
    """A finite-dimensional graded module over the algebra, given concretely.

    `actions` are the matrices of the n generators, `grading` is the
    Hermitian involution anticommuting with them. Everything downstream
    (supertraces, twisting factors, curvature insertions) goes through this.
    """

    def __init__(self, n, actions, grading, tol=1e-9):
        self.n = int(n)
        self.actions = tuple(np.asarray(a, dtype=complex) for a in actions)
        self.grading = np.asarray(grading, dtype=complex)
        if len(self.actions) != self.n:
            raise ValueError("need one action matrix per generator")
        dim = self.actions[0].shape[0]
        for a in self.actions:
            if a.shape != (dim, dim):
                raise ValueError("action matrices must share a square shape")
        scale = max(1.0, max(np.abs(a).max() for a in self.actions))
        eye = np.eye(dim)
        for i, a in enumerate(self.actions):
            for j, b in enumerate(self.actions[: i + 1]):
                anti = a @ b + b @ a + (2.0 * eye if i == j else 0.0)
                if np.abs(anti).max() > tol * scale:
                    raise ValueError(f"generators {i}, {j} violate the Clifford relation")
        if np.abs(self.grading @ self.grading - eye).max() > tol:
            raise ValueError("grading must square to the identity")
        if np.abs(self.grading - self.grading.conj().T).max() > tol:
            raise ValueError("grading must be Hermitian")
        for i, a in enumerate(self.actions):
            if np.abs(self.grading @ a + a @ self.grading).max() > tol * scale:
                raise ValueError(f"generator {i} must be odd for the grading")
        self._volume = None
        self._pair_products = None

    @property
    def dim(self):
        return self.actions[0].shape[0]

    @property
    def multiplicity(self):
        return self.dim // spinor_rep(self.n).dim

    @classmethod
    def from_tensor(cls, n, multiplicity=1, twist_grading=None):
        """Spinor module tensor a trivial factor, optionally graded."""
        rep = spinor_rep(n)
        eye = np.eye(multiplicity, dtype=complex)
        if twist_grading is None:
            twist_grading = eye
        twist_grading = np.asarray(twist_grading, dtype=complex)
        actions = [np.kron(g, eye) for g in rep.gamma]
        grading = np.kron(rep.chirality, twist_grading)
        return cls(n, actions, grading)

    def conjugate(self, unitary):
        unitary = np.asarray(unitary, dtype=complex)
        inv = unitary.conj().T
        if np.abs(inv @ unitary - np.eye(self.dim)).max() > 1e-9:
            inv = np.linalg.inv(unitary)
        return CliffordModuleFiber(
            self.n,
            [unitary @ a @ inv for a in self.actions],
            unitary @ self.grading @ inv,
        )

    def volume_chirality(self):
        """i^(n/2) a_1 ... a_n, the module-side image of the chirality element."""
        if self._volume is None:
            mat = np.eye(self.dim, dtype=complex)
            for a in self.actions:
                mat = mat @ a
            self._volume = (1.0j) ** (self.n // 2) * mat
        return self._volume

    def curvature_action(self, omega):
        """(1/4) sum omega_ij a_i a_j for an antisymmetric coefficient matrix."""
        omega = np.asarray(omega, dtype=complex)
        if np.abs(omega + omega.T).max() > 1e-9 * max(1.0, np.abs(omega).max()):
            raise ValueError("curvature matrix must be antisymmetric")
        if self._pair_products is None:
            self._pair_products = np.stack(
                [np.stack([a @ b for b in self.actions]) for a in self.actions]
            )
        return 0.25 * np.einsum("ij,ijab->ab", omega, self._pair_products)


def relative_supertrace(fiber, endomorphism, tol=1e-8):
    """Supertrace of an algebra-commuting endomorphism relative to the spinors.

    For a fiber isomorphic to spinors tensor W this equals the supertrace of
    the W part alone; the spinor factor is stripped off by inserting the
    volume chirality and dividing by the spinor dimension.
    """
    phi = np.asarray(endomorphism, dtype=complex)
    scale = max(1.0, np.abs(phi).max())
    for i, a in enumerate(fiber.actions):
        if np.abs(phi @ a - a @ phi).max() > tol * scale:
            raise ValueError(f"endomorphism does not commute with generator {i}")
    s = spinor_rep(fiber.n).dim
    return complex(np.trace(fiber.grading @ fiber.volume_chirality() @ phi) / s)


class TwistingFactor:
    """Result of splitting a module fiber as spinors tensor a twist space."""

    def __init__(self, unitary, rank, residual):
        self.unitary = unitary
        self.rank = rank
        self.residual = residual


def extract_twisting_factor(fiber, cutoff=1e-8, residual_tol=1e-10):
    """Unitary U with U^-1 a_i U = gamma_i kron identity(rank).

    The intertwiner space Hom(spinors, fiber) is computed as the joint
    nullspace of the stacked commutation constraints; Schur orthogonality
    makes an orthonormal nullspace basis assemble into a unitary after
    scaling by sqrt(spinor dim).
    """
    rep = spinor_rep(fiber.n)
    s, dim = rep.dim, fiber.dim
    if dim % s:
        raise ValueError("fiber dimension is not a multiple of the spinor dimension")
    rank = dim // s
    eye_s = np.eye(s, dtype=complex)
    eye_d = np.eye(dim, dtype=complex)
    blocks = [
        np.kron(eye_s, a) - np.kron(g.T, eye_d) for a, g in zip(fiber.actions, rep.gamma)
    ]
    stacked = np.vstack(blocks)
    _, sv, vh = np.linalg.svd(stacked)
    null_rows = [k for k in range(vh.shape[0]) if k >= len(sv) or sv[k] < cutoff * sv[0]]
    if len(null_rows) != rank:
        raise ValueError(
            f"expected a {rank}-dimensional intertwiner space, found {len(null_rows)}"
        )
    factors = [
        math.sqrt(s) * vh[k].conj().reshape((dim, s), order="F") for k in null_rows
    ]
    unitary = np.zeros((dim, dim), dtype=complex)
    for j, t in enumerate(factors):
        for a in range(s):
            unitary[:, a * rank + j] = t[:, a]
    if np.abs(unitary.conj().T @ unitary - eye_d).max() > 1e-9:
        raise ValueError("intertwiner assembly is not unitary")
    eye_r = np.eye(rank, dtype=complex)
    residual = max(
        np.abs(unitary.conj().T @ a @ unitary - np.kron(g, eye_r)).max()
        for a, g in zip(fiber.actions, rep.gamma)
    )
    if residual > residual_tol:
        raise ValueError(f"twisting factor residual {residual:.3e} exceeds tolerance")
    return TwistingFactor(unitary, rank, residual)
