"""Spectral side of the index pairing: lattice torus and closed-form sphere.

The torus side holds a Wilson-regularized lattice Dirac operator on a
uniform-flux U(1) background as a band stencil of per-site couplings,
and reads the index off the spectral asymmetry of its Hermitian form as
an inertia count over lattice-column blocks built from that stencil one
at a time, in O(N^2) memory; the dense operator is built only as a test
oracle.  The sphere side enumerates the exact
spectrum of the charged Dirac operator on the round sphere, whose kernel
is chiral and carries the index directly.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi

_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

# Relates the lattice chirality grading to the orientation the quadrature
# side uses.  Fixed once by requiring the torus comparison at flux 1 to
# match, then frozen; see overlap_index.  With gamma_1 = sigma1, gamma_2 =
# sigma2, grading sigma3 and the flux background below, the raw spectral
# asymmetry reports -flux, so the linking sign is -1.
CHIRALITY_SIGN = -1

# Eigen-directions of a column front with |lambda| at most this fraction of
# the operator scale are delayed into the next front rather than pivoted
# on, which bounds the growth of each Schur update by 1 / PIVOT_TOL.
PIVOT_TOL = 1e-2
# Half-width of the window around zero that must hold no eigenvalue of
# the Hermitian form for its sign count to be trusted.
ZERO_MODE_EPS = 1e-10


class NearZeroModeError(ValueError):
    """Raised when the Hermitian form has an eigenvalue within `eps` of zero.

    Carries the two window counts: `below_minus` eigenvalues lie below
    -eps and `below_plus` below +eps, so their difference is the number
    of eigenvalues inside the window.
    """

    def __init__(self, below_minus, below_plus, eps):
        super().__init__(
            "ill-conditioned background: Hermitian form has a near-zero mode")
        self.below_minus = below_minus
        self.below_plus = below_plus
        self.eps = eps


@dataclass(frozen=True)
class LatticeGauge:
    """U(1) link variables on a periodic square lattice with uniform flux.

    `links_x[nx, ny]` sits on the bond from (nx, ny) to (nx+1, ny), and
    `links_y` likewise in the second direction.  The plaquette phases must
    accumulate to 2 pi flux over the whole torus.
    """

    size: int
    flux: int
    links_x: np.ndarray
    links_y: np.ndarray

    def __post_init__(self):
        n = int(self.size)
        for name, links in (("links_x", self.links_x),
                            ("links_y", self.links_y)):
            arr = np.asarray(links)
            if arr.shape != (n, n):
                raise ValueError(f"{name} must have shape ({n}, {n})")
            if np.abs(np.abs(arr) - 1.0).max() > 1e-12:
                raise ValueError(f"{name} must be unit modulus")
        total = float(np.sum(np.angle(self.plaquette_phases())))
        if abs(total - TWO_PI * self.flux) > 1e-9:
            raise ValueError(
                "plaquette phases do not realize the declared flux")

    def plaquette_phases(self):
        """Oriented product U_x(n) U_y(n+x) U_x(n+y)* U_y(n)* per site."""
        ux, uy = np.asarray(self.links_x), np.asarray(self.links_y)
        return (ux * np.roll(uy, -1, axis=0)
                * np.conj(np.roll(ux, -1, axis=1)) * np.conj(uy))


def build_flux_background(lattice_size, flux):
    """Uniform-flux background: every plaquette carries phase 2 pi m / N^2.

    The flux lives on the second-direction links with a compensating twist
    on the last column of first-direction links.  Flux beyond roughly a
    quarter of the linear size is rejected as unresolvable.
    """
    n = int(lattice_size)
    m = int(flux)
    if n < 8:
        raise ValueError("lattice too small: need linear size >= 8")
    if 4 * abs(m) > n + 2:
        raise ValueError("flux too large for the lattice to resolve")
    cols = np.arange(n)
    links_y = np.exp(TWO_PI * 1j * m * cols[:, None] / n ** 2
                     + np.zeros((1, n)))
    links_x = np.ones((n, n), dtype=complex)
    links_x[n - 1, :] = np.exp(-TWO_PI * 1j * m * cols / n)
    return LatticeGauge(n, m, links_x, links_y)


@dataclass(frozen=True)
class LatticeDiracOperator:
    """Wilson-regularized lattice Dirac matrix with its chirality grading.

    The matrix acts on two-component site vectors ordered site-major; the
    chirality is the diagonal +-1 grading.  Gamma-Hermiticity (conjugating
    by the grading gives the adjoint) is validated on construction.
    """

    matrix: np.ndarray
    chirality: np.ndarray
    wilson_r: float
    bare_mass: float
    size: int

    def __post_init__(self):
        mat = np.asarray(self.matrix)
        chi = np.asarray(self.chirality)
        dim = 2 * self.size ** 2
        if mat.shape != (dim, dim) or chi.shape != (dim,):
            raise ValueError("operator and grading sizes are inconsistent")
        flipped = chi[:, None] * mat * chi[None, :]
        scale = max(1.0, float(np.abs(mat).max()))
        if np.abs(flipped - mat.conj().T).max() > 1e-12 * scale:
            raise ValueError("operator is not gamma-Hermitian")

    def hermitian_form(self):
        """Chirality times the operator; Hermitian by gamma-Hermiticity."""
        return self.chirality[:, None] * self.matrix


@dataclass(frozen=True)
class _Stencil:
    """Per-site 2 x 2 couplings of the Hermitian Wilson form H = chirality * D.

    D = (2r - m0) + sum_mu [ T_mu (gamma_mu - r)/2 - T_mu* (gamma_mu
    + r)/2 ] with forward covariant translations T_mu (T_mu* the adjoint,
    equal to the backward translation); the second-order Wilson term
    removes the doubler species and the bare mass m0 places the physical
    species at negative mass.  `mass` is the on-site block, the same at
    every site.  For site (x, y), `up[x, y]` couples it to (x, y+1) and
    `down[x, y]` couples (x, y+1) back to it; `forward[x, y]` couples it
    to (x+1, y) and `backward[x, y]` couples (x+1, y) back to it (indices
    mod N).  Each coupling and its partner are built independently from
    the links, so that gamma-Hermiticity can be checked on them; `scale`
    is max(1, largest |entry|) of H.
    """

    mass: np.ndarray
    up: np.ndarray
    down: np.ndarray
    forward: np.ndarray
    backward: np.ndarray
    scale: float

    @property
    def size(self):
        return len(self.up)


@lru_cache(maxsize=None)
def _site_blocks(n, row_step=0, col_step=0):
    """Index arrays of the 2 x 2 blocks (y + row_step, y + col_step), y =
    0..n-1, of a 2N x 2N column block, whose entries are ordered
    site-major in y with the two spin components innermost."""
    y = np.arange(n)[:, None, None]
    spin = np.arange(2)
    rows = 2 * ((y + row_step) % n) + spin[:, None]
    cols = 2 * ((y + col_step) % n) + spin
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _site_diagonal(couplings):
    """The 2N x 2N block holding per-site 2 x 2 couplings on its diagonal."""
    block = np.zeros((2 * len(couplings),) * 2, dtype=complex)
    block[_site_blocks(len(couplings))] = couplings
    return block


def _column_block(stencil, x, shift=0.0):
    """The diagonal block H[x, x] - shift of lattice column x."""
    n = stencil.size
    block = _site_diagonal(np.broadcast_to(stencil.mass - shift * np.eye(2),
                                           (n, 2, 2)))
    block[_site_blocks(n, 0, 1)] = stencil.up[x]
    block[_site_blocks(n, 1, 0)] = stencil.down[x]
    return block


def _hermitian_blocks(gauge, wilson_r, bare_mass):
    """The stencil of chirality times the Wilson operator, and its scale.

    Gamma-Hermiticity, checked on the couplings: each backward coupling
    must be the adjoint of its forward one, and the on-site block
    Hermitian.
    """
    n = gauge.size
    if n < 3:
        raise ValueError("column blocks need a lattice of linear size >= 3")
    r = float(wilson_r)
    m0 = float(bare_mass)
    eye2 = np.eye(2, dtype=complex)
    chirality = np.array([[1.0], [-1.0]])

    def hop(links, spin):
        return chirality * (np.asarray(links)[:, :, None, None] * spin)

    mass = chirality * ((2.0 * r - m0) * eye2)
    up = hop(gauge.links_y, 0.5 * (_SIGMA2 - r * eye2))
    down = -hop(np.conj(gauge.links_y), 0.5 * (_SIGMA2 + r * eye2))
    forward = hop(gauge.links_x, 0.5 * (_SIGMA1 - r * eye2))
    backward = -hop(np.conj(gauge.links_x), 0.5 * (_SIGMA1 + r * eye2))
    scale = max(1.0, *(float(np.abs(c).max())
                       for c in (mass, up, down, forward, backward)))
    tol = 1e-12 * scale
    for there, back in ((mass, mass), (up, down), (forward, backward)):
        if np.abs(back - there.conj().swapaxes(-1, -2)).max() > tol:
            raise ValueError("operator is not gamma-Hermitian")
    return _Stencil(mass, up, down, forward, backward, scale)


def wilson_dirac(gauge, wilson_r=1.0, bare_mass=1.0):
    """Assemble the dense Wilson operator on the given background.

    Scatters the couplings of the stencil (see `_Stencil`) into one
    2N^2 x 2N^2 matrix.  The index never builds it; it is kept as the
    reference the column-block inertia count is tested against.
    """
    stencil = _hermitian_blocks(gauge, wilson_r, bare_mass)
    n = gauge.size
    width = 2 * n
    form = np.zeros((n * width, n * width), dtype=complex)
    grid = form.reshape(n, width, n, width)
    for x in range(n):
        nxt = (x + 1) % n
        grid[x, :, x, :] = _column_block(stencil, x)
        grid[x, :, nxt, :] = _site_diagonal(stencil.forward[x])
        grid[nxt, :, x, :] = _site_diagonal(stencil.backward[x])
    chirality = np.tile([1.0, -1.0], n * n)
    return LatticeDiracOperator(chirality[:, None] * form, chirality,
                                float(wilson_r), float(bare_mass), n)


def _negative_count(stencil, shift):
    """Number of eigenvalues below `shift` of the Hermitian form.

    Sylvester inertia of H - shift, counted by block elimination over the
    x-columns (Haynsworth inertia additivity: the inertia of a Hermitian
    matrix is that of a pivot block plus that of its Schur complement).
    The periodic lattice couples column 0 to column N-1, so column N-1
    is carried as a border while columns 0..N-2 are eliminated in turn.
    Each front (column x plus directions delayed from earlier fronts) is
    diagonalised; eigen-directions with |lambda| above PIVOT_TOL * scale
    are pivots and leave a Schur update on the next column and the
    border, the others are delayed into the next front (Duff & Reid
    delayed pivots).  A plain block LDL^T would fail: at m0 = r the 1-D
    Wilson block of a column with zero holonomy is exactly singular.  The
    last front and the border are counted by one dense eigvalsh.  Each
    column block is built from the stencil when its front needs it, so
    the count holds O(N^2) numbers at a time.
    """
    n = stencil.size
    width = 2 * n
    rows, cols = _site_blocks(n)
    tiny = PIVOT_TOL * stencil.scale
    border = _column_block(stencil, n - 1, shift)
    front = _column_block(stencil, 0, shift)
    to_border = _site_diagonal(stencil.backward[-1])
    negative = 0
    for x in range(n - 1):
        last = x == n - 2
        size = len(front)
        # Couplings of the front to [column x+1, border]; for the last
        # front, column x+1 is the border itself.
        coupling = np.zeros((size, width if last else 2 * width),
                            dtype=complex)
        coupling[:, -width:] = to_border
        coupling[size - width + rows, cols] += stencil.forward[x]
        lam, vec = np.linalg.eigh(front)
        pivot = np.abs(lam) > tiny
        negative += int(np.count_nonzero(lam[pivot] < 0.0))
        coupling = vec.conj().T @ coupling
        eliminated = coupling[pivot]
        update = -(eliminated.conj().T / lam[pivot]) @ eliminated
        delayed, kept = coupling[~pivot], np.diag(lam[~pivot])
        border = border + update[-width:, -width:]
        if last:
            break
        front = np.block([[kept, delayed[:, :width]],
                          [delayed[:, :width].conj().T,
                           _column_block(stencil, x + 1, shift)
                           + update[:width, :width]]])
        to_border = np.vstack([delayed[:, width:], update[:width, width:]])
    final = np.block([[kept, delayed], [delayed.conj().T, border]])
    return negative + int(np.count_nonzero(np.linalg.eigvalsh(final) < 0.0))


def overlap_index(gauge, wilson_r=1.0, bare_mass=1.0):
    """Integer index from the spectral asymmetry of the Hermitian form.

    Half the signed eigenvalue count of chirality times the Wilson
    operator; in the single-species mass branch this counts the graded
    zero modes of the continuum operator the background descends from.
    The count is an inertia count over the 2N x 2N column blocks of the
    lattice (see `_negative_count`), in O(N^4) time and O(N^2) memory;
    the dense operator of `wilson_dirac` is kept only as the test oracle.
    Counting below -ZERO_MODE_EPS and below +ZERO_MODE_EPS brackets the
    window that must hold no eigenvalue; `NearZeroModeError` reports
    both counts when it does not.  The overall sign is pinned by
    CHIRALITY_SIGN so that flux m on the torus reports index m, matching
    the quadrature side.
    """
    r = float(wilson_r)
    m0 = float(bare_mass)
    if not 0.0 < m0 < 2.0 * r:
        raise ValueError(
            "bare mass outside the single-species branch (need 0 < mass < 2r)")
    stencil = _hermitian_blocks(gauge, r, m0)
    negative = _negative_count(stencil, -ZERO_MODE_EPS)
    below_plus = _negative_count(stencil, ZERO_MODE_EPS)
    if below_plus != negative:
        raise NearZeroModeError(negative, below_plus, ZERO_MODE_EPS)
    positive = 2 * gauge.size ** 2 - negative
    raw = -0.5 * float(positive - negative) * CHIRALITY_SIGN
    nearest = round(raw)
    if abs(raw - nearest) > 1e-9:
        raise ValueError(f"spectral asymmetry {raw!r} is not an integer")
    return int(nearest)


@dataclass(frozen=True)
class MonopoleKernel:
    """Graded kernel and truncated spectrum of the charged sphere operator."""

    charge: int
    kernel_plus: int
    kernel_minus: int
    levels: tuple

    @property
    def index(self):
        return self.kernel_plus - self.kernel_minus

    @property
    def total_dimension(self):
        """States counted with both signs of each nonzero eigenvalue."""
        return (self.kernel_plus + self.kernel_minus
                + 2 * sum(mult for _, mult in self.levels))


def monopole_kernel(charge, cutoff=10):
    """Exact spectrum of the charge-m Dirac operator on the round sphere.

    Nonzero eigenvalues come in pairs +-sqrt(n (n + |m|)) for level n >= 1
    with multiplicity |m| + 2n each; equivalently +-sqrt(j (j+1) - q (q-1))
    with q = (|m|+1)/2 and j = q - 1 + n of multiplicity 2j + 1.  The
    kernel sits at the bottom level j = q - 1: exactly |m| modes, all of
    chirality sign(m), so the graded count is m itself.  For m = 0 the
    bottom level is empty and the smallest eigenvalue is 1.
    """
    m = int(charge)
    if abs(m) > 20:
        raise ValueError("charge class out of the supported range (|m| <= 20)")
    top = int(cutoff)
    if not 1 <= top <= 50:
        raise ValueError("cutoff level must lie in 1..50")
    levels = tuple((float(np.sqrt(n * (n + abs(m)))), abs(m) + 2 * n)
                   for n in range(1, top + 1))
    return MonopoleKernel(charge=m,
                          kernel_plus=m if m > 0 else 0,
                          kernel_minus=-m if m < 0 else 0,
                          levels=levels)
