"""Spinor representations of the Clifford algebra with negative-definite
generators, and two-to-one lifts of special orthogonal matrices.

Conventions fixed here and relied on everywhere else:
  * generators square to -1 and anticommute: e_i e_j + e_j e_i = -2 delta_ij
  * gamma_i = 1j * Gamma_i with Gamma_i the Hermitian Pauli tensor chain, so
    the gamma_i are anti-Hermitian and satisfy the same relations
  * the chirality operator i^(n/2) gamma_1 ... gamma_n equals sigma3 tensored
    with itself n/2 times
  * a spin element g acts on vectors by v -> g v reverse(g); the lift of a
    rotation by theta in the (i, j) plane is cos(theta/2) + sin(theta/2) e_i e_j
  * a spin element is stored as its spinor matrix, so reverse(g) is the adjoint

The algebra itself is met only through its spinor matrices: no blade
coefficients are stored or multiplied here.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class LiftAmbiguityError(ValueError):
    """Raised when neither sign of a lift is decisively closer to the reference.

    Carries the two candidate distances and the gap their difference missed;
    `pair` is the position of the ambiguous pair in a stacked sign pass.
    """

    def __init__(self, message, d_plus, d_minus, ambiguity_gap, pair=None):
        super().__init__(message)
        self.d_plus = d_plus
        self.d_minus = d_minus
        self.ambiguity_gap = ambiguity_gap
        self.pair = pair


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


class _SpinTables(NamedTuple):
    """Fixed matrices of the representation that carries Spin(n)."""

    rep: SpinorRep
    eye: np.ndarray  # identity of the spinor space
    gamma: np.ndarray  # (n, dim, dim): the first n generators
    pairs: np.ndarray  # (n, n, dim, dim): gamma_i gamma_j


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
    return _SpinTables(rep, eye, gamma, _frozen(gamma[:, None] @ gamma[None, :]))


def _adjoint_matrices(n, unitaries):
    """Rotations R[m] with u_m gamma_k u_m^dagger = sum_l R[m, l, k] gamma_l."""
    gamma = _spin_tables(n).gamma
    images = unitaries[:, None] @ gamma @ unitaries.conj().transpose(0, 2, 1)[:, None]
    return np.einsum("lab,mkab->mlk", gamma.conj(), images).real / unitaries.shape[-1]


class SpinElement:
    """Element of Spin(n), stored as its unitary matrix on the spinors.

    Spin(n) is the group of unit even real Clifford elements whose adjoint
    action preserves vectors; odd n goes through Spin(n) inside Spin(n + 1),
    so n <= 8. Elements are built only as plane rotations, canonical lifts
    and their products and negations, which stay in the group by
    construction, so the constructor takes the unitary unchecked. The
    reverse of an element is the adjoint of its unitary. Blade coefficients
    are not kept: the blade algebra is the independent test oracle.
    """

    __slots__ = ("dimension", "_unitary")

    def __init__(self, n, unitary):
        self.dimension = n
        self._unitary = _frozen(unitary)

    @classmethod
    def identity(cls, n):
        """The unit of Spin(n)."""
        return cls(n, _spin_tables(n).eye)

    def _check_dimension(self, other):
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")

    def __mul__(self, other):
        if isinstance(other, SpinElement):
            self._check_dimension(other)
            return SpinElement(self.dimension, self._unitary @ other._unitary)
        return NotImplemented

    def __neg__(self):
        return SpinElement(self.dimension, -self._unitary)

    def matrix(self, rep=None):
        """The stored unitary; `rep`, if given, must be the representation it lives in."""
        own = _spin_tables(self.dimension).rep
        if rep is not None and rep is not own:
            raise ValueError(f"spin elements of dimension {self.dimension} are stored "
                             f"in spinor_rep({own.n})")
        return self._unitary

    def adjoint_matrix(self):
        """Rotation matrix R with g e_k reverse(g) = sum_l R[l, k] e_l."""
        return _adjoint_matrices(self.dimension, self._unitary[None])[0]

    def distance(self, other):
        """Blade-coefficient distance; blade matrices are orthogonal of norm^2 dim."""
        self._check_dimension(other)
        diff = self._unitary - other._unitary
        return math.sqrt(np.vdot(diff, diff).real / diff.shape[0])


def plane_rotation(n, i, j, theta):
    """Lift of the rotation by theta in the oriented (i, j) coordinate plane."""
    if i == j:
        raise ValueError("plane needs two distinct axes")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"plane ({i}, {j}) out of range for dimension {n}")
    tables = _spin_tables(n)
    half = 0.5 * theta
    return SpinElement(
        n, math.cos(half) * tables.eye + math.sin(half) * tables.pairs[i, j]
    )


def _check_special_orthogonal(matrices, tol):
    mats = np.asarray(matrices, dtype=float)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("rotation matrix must be square")
    n = mats.shape[1]
    gram = mats.transpose(0, 2, 1) @ mats - np.eye(n)
    # written so that a NaN sample fails too
    if not (np.linalg.norm(gram, axis=(1, 2)) <= tol).all():
        raise ValueError("matrix is not orthogonal")
    if (np.linalg.det(mats) < 0).any():
        raise ValueError("matrix has determinant -1; it does not lift")
    return mats, n


def canonical_lifts(matrices, tol=1e-8):
    """Deterministic lifts of a stack of special orthogonal matrices.

    Takes (m, n, n) rotations and returns the (m, dim, dim) spinor unitaries
    of their lifts. Each sample is Givens-reduced to the identity; the planes
    and angles rebuild it as a product of plane rotations, and its lift is the
    product of their lifts. One plane is reduced for all samples at once, with
    angle 0 where a sample's entry is already clear. Every check raises on
    the first failing sample: orthogonality and determinant, the
    diagonalization, the flip parity, and the 1e-6 adjoint residual of the
    normalized lift. The overall sign is a fixed function of the matrix (it
    has the usual jump discontinuities, which lift_signs exists to smooth
    over).
    """
    mats, n = _check_special_orthogonal(matrices, tol)
    tables = _spin_tables(n)
    count = mats.shape[0]
    rows = list(mats.transpose(1, 0, 2))  # rows[k] is row k of every sample
    planes = [(j, i) for j in range(n - 1) for i in range(j + 1, n)]
    angles = np.zeros((len(planes), count))
    for phi, (j, i) in zip(angles, planes):
        w_ij, w_jj = rows[i][:, j], rows[j][:, j]
        np.arctan2(-w_ij, w_jj, out=phi)
        phi[(np.abs(w_ij) < 1e-15) & (w_jj > 0)] = 0.0
        c, s = np.cos(phi)[:, None], np.sin(phi)[:, None]
        rows[j], rows[i] = c * rows[j] - s * rows[i], s * rows[j] + c * rows[i]
    work = np.stack(rows, axis=1)
    # the lift of the rotation by -phi in plane (j, i), one plane at a time
    half = (0.5 * -angles)[..., None, None]
    cos_half, sin_half = np.cos(half), np.sin(half)
    lifts = np.broadcast_to(tables.eye, (count,) + tables.eye.shape)
    for p, (j, i) in enumerate(planes):
        lifts = lifts @ (cos_half[p] * tables.eye + sin_half[p] * tables.pairs[j, i])
    diag = np.diagonal(work, axis1=1, axis2=2)
    off = work.copy()
    off[:, np.arange(n), np.arange(n)] -= np.round(diag)
    if (np.linalg.norm(off, axis=(1, 2)) > max(tol, 1e-7) * n).any():
        raise ValueError("Givens reduction failed to diagonalize; input too far from SO(n)")
    # Each reduction step leaves w_jj >= 0, so only the last diagonal entry
    # can be negative: a sign flip is always odd, and there are no flip pairs
    # to lift as rotations by pi.
    if ((diag < 0).sum(axis=1) % 2).any():
        raise ValueError("odd number of sign flips; determinant is not +1")
    scale = np.einsum("kab,kab->k", lifts.conj(), lifts).real / tables.rep.dim
    lifts = lifts / np.sqrt(scale)[:, None, None]
    residual = np.linalg.norm(_adjoint_matrices(n, lifts) - mats, axis=(1, 2))
    bad = np.flatnonzero(residual > 1e-6)
    if bad.size:
        raise ValueError(f"lift verification failed (residual {residual[bad[0]]:.3e})")
    return lifts


def canonical_lift(matrix, tol=1e-8):
    """Deterministic lift of one special orthogonal matrix; see canonical_lifts."""
    matrix = np.asarray(matrix, dtype=float)
    return SpinElement(matrix.shape[-1], canonical_lifts(matrix[None], tol)[0])


def lift_signs(candidates, references, ambiguity_gap=0.5):
    """Signs s (+1 or -1) making s[k] candidates[k] the lift nearest references[k].

    Both are (m, dim, dim) stacks of spinor unitaries. With c = Re tr(r^dagger
    g) / dim the blade distances of the two candidates +-g from r are
    d+- = sqrt(2 -+ 2c); lifts of one rotation are distance 2 apart, so along
    a reasonably sampled path the choice is clear cut. Where the two distances
    differ by less than `ambiguity_gap` the sampling is too coarse to transport
    the sign and we refuse to guess: the LiftAmbiguityError names the first
    such pair by its position `pair`.
    """
    dim = candidates.shape[-1]
    c = np.einsum("kab,kab->k", references.conj(), candidates).real / dim
    d_plus = np.sqrt(np.maximum(2.0 - 2.0 * c, 0.0))
    d_minus = np.sqrt(np.maximum(2.0 + 2.0 * c, 0.0))
    ambiguous = np.flatnonzero(np.abs(d_plus - d_minus) < ambiguity_gap)
    if ambiguous.size:
        k = int(ambiguous[0])
        raise LiftAmbiguityError(
            f"sign transport is ambiguous: candidate distances "
            f"{d_plus[k]:.3f} / {d_minus[k]:.3f}",
            float(d_plus[k]), float(d_minus[k]), ambiguity_gap, pair=k,
        )
    return np.where(d_plus < d_minus, 1.0, -1.0)


def nearest_lift(matrix, reference, ambiguity_gap=0.5, tol=1e-8):
    """The lift of `matrix` closest to `reference` in blade coefficients.

    The sign of canonical_lift(matrix) is chosen by lift_signs, which raises
    LiftAmbiguityError when the choice is not clear cut.
    """
    if not isinstance(reference, SpinElement):
        raise TypeError("reference must be a SpinElement")
    cand = canonical_lift(matrix, tol)
    reference._check_dimension(cand)
    sign = lift_signs(cand.matrix()[None], reference.matrix()[None], ambiguity_gap)[0]
    return cand if sign > 0 else -cand


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
