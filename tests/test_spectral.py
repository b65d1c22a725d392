"""Oracle tests for the lattice torus index and the sphere kernel spectrum."""

import tracemalloc

import numpy as np
import pytest

from gerbedex import NearZeroModeError
from gerbedex.spectral import (
    CHIRALITY_SIGN,
    ZERO_MODE_EPS,
    LatticeGauge,
    _column_block,
    _hermitian_blocks,
    _negative_count,
    _site_diagonal,
    build_flux_background,
    monopole_kernel,
    overlap_index,
    wilson_dirac,
)

TWO_PI = 2.0 * np.pi


# ------------------------------------------------------------- flux background


def test_zero_flux_links_are_trivial():
    gauge = build_flux_background(8, 0)
    assert np.max(np.abs(gauge.links_x - 1.0)) == 0.0
    assert np.max(np.abs(gauge.links_y - 1.0)) == 0.0


def test_uniform_plaquette_with_single_twist_column():
    gauge = build_flux_background(8, 1)
    expected = np.exp(TWO_PI * 1j / 64)
    assert np.max(np.abs(gauge.plaquette_phases() - expected)) < 1e-12
    # only the last column of first-direction links is twisted
    assert np.max(np.abs(gauge.links_x[:-1, :] - 1.0)) == 0.0
    assert np.max(np.abs(gauge.links_x[-1, :]
                         - np.exp(-TWO_PI * 1j * np.arange(8) / 8))) < 1e-12


def test_opposite_flux_conjugates_links():
    plus = build_flux_background(12, 2)
    minus = build_flux_background(12, -2)
    assert np.max(np.abs(minus.links_x - np.conj(plus.links_x))) == 0.0
    assert np.max(np.abs(minus.links_y - np.conj(plus.links_y))) == 0.0


@pytest.mark.parametrize("m", [-3, 1, 3])
def test_total_plaquette_phase_counts_flux(m):
    gauge = build_flux_background(12, m)
    total = float(np.sum(np.angle(gauge.plaquette_phases())))
    assert abs(total - TWO_PI * m) < 1e-9


def test_flux_background_rejections():
    with pytest.raises(ValueError):
        build_flux_background(6, 1)
    with pytest.raises(ValueError):
        build_flux_background(12, 4)
    # boundary admitted by the stability matrix
    assert build_flux_background(10, 3).flux == 3


def test_lattice_gauge_validates_inputs():
    ones = np.ones((8, 8), dtype=complex)
    with pytest.raises(ValueError):
        LatticeGauge(8, 0, 2.0 * ones, ones)
    with pytest.raises(ValueError):
        LatticeGauge(8, 1, ones, ones)  # trivial links, declared flux 1


# ------------------------------------------------------------ Wilson operator


def test_wilson_dirac_shape_and_gamma_hermiticity():
    op = wilson_dirac(build_flux_background(8, 1))
    dim = 2 * 64
    assert op.matrix.shape == (dim, dim)
    flipped = op.chirality[:, None] * op.matrix * op.chirality[None, :]
    assert np.max(np.abs(flipped - op.matrix.conj().T)) < 1e-12
    ham = op.hermitian_form()
    assert np.max(np.abs(ham - ham.conj().T)) < 1e-12


def test_free_wilson_operator_momentum_spectrum():
    op = wilson_dirac(build_flux_background(8, 0), wilson_r=1.0, bare_mass=1.0)
    sing = np.linalg.svd(op.matrix, compute_uv=False)
    momenta = TWO_PI * np.arange(8) / 8
    expected = []
    for px in momenta:
        for py in momenta:
            wilson = 2.0 - np.cos(px) - np.cos(py) - 1.0
            mag = np.sqrt(np.sin(px) ** 2 + np.sin(py) ** 2 + wilson ** 2)
            expected.extend([mag, mag])
    assert np.max(np.abs(np.sort(sing) - np.sort(expected))) < 1e-12


# -------------------------------------------------------------- lattice index


def test_overlap_index_zero_flux():
    assert overlap_index(build_flux_background(12, 0)) == 0


@pytest.mark.parametrize("m", range(-3, 4))
def test_overlap_index_equals_flux(m):
    assert overlap_index(build_flux_background(12, m)) == m


@pytest.mark.parametrize("m", [1, 2, 3])
def test_overlap_index_charge_conjugation(m):
    plus = overlap_index(build_flux_background(12, m))
    minus = overlap_index(build_flux_background(12, -m))
    assert plus + minus == 0


@pytest.mark.parametrize("size", [10, 16])
@pytest.mark.parametrize("wilson_r", [0.8, 1.2])
def test_overlap_index_stability_corners(size, wilson_r):
    gauge = build_flux_background(size, 2)
    assert overlap_index(gauge, wilson_r=wilson_r) == 2


def _gauge_transform(gauge, seed):
    """Random local U(1) gauge transform; the index must not see it."""
    n = gauge.size
    rng = np.random.default_rng(seed)
    phase = np.exp(1j * rng.uniform(0.0, TWO_PI, (n, n)))
    links_x = phase * gauge.links_x * np.conj(np.roll(phase, -1, axis=0))
    links_y = phase * gauge.links_y * np.conj(np.roll(phase, -1, axis=1))
    return LatticeGauge(n, gauge.flux, links_x, links_y)


def _dense_index(gauge, wilson_r):
    eigenvalues = np.linalg.eigvalsh(
        wilson_dirac(gauge, wilson_r=wilson_r).hermitian_form())
    return round(-0.5 * float(np.sum(np.sign(eigenvalues))) * CHIRALITY_SIGN)


@pytest.mark.parametrize("size", [8, 10, 12, 16])
@pytest.mark.parametrize("wilson_r", [0.8, 1.0, 1.2])
def test_block_inertia_count_matches_dense_oracle(size, wilson_r):
    bound = min(3, (size + 2) // 4)
    for m in range(-bound, bound + 1):
        plain = build_flux_background(size, m)
        for gauge in (plain, _gauge_transform(plain, seed=size * 10 + m)):
            expected = _dense_index(gauge, wilson_r)
            assert overlap_index(gauge, wilson_r=wilson_r) == expected == m


def test_zero_mode_window_counts_eigenvalue_multiplicity():
    gauge = build_flux_background(8, 0)
    eigenvalues = np.linalg.eigvalsh(wilson_dirac(gauge).hermitian_form())
    distinct = [eigenvalues[0]]
    for value in eigenvalues[1:]:
        if value - distinct[-1] > 1e-8:
            distinct.append(value)
    blocks = _hermitian_blocks(gauge, 1.0, 1.0)

    def window(center):
        return (_negative_count(blocks, center + ZERO_MODE_EPS)
                - _negative_count(blocks, center - ZERO_MODE_EPS))

    multiplicities = set()
    for value in distinct:
        mult = int(np.sum(np.abs(eigenvalues - value) < 1e-8))
        multiplicities.add(mult)
        assert window(value) == mult
    assert {1, 4} <= multiplicities
    for lower, upper in zip(distinct[:-1], distinct[1:]):
        assert window(0.5 * (lower + upper)) == 0


def _translation_form(gauge, wilson_r, bare_mass):
    """Chirality times D = (2r - m0) + sum_mu [T_mu (gamma_mu - r)/2
    - T_mu* (gamma_mu + r)/2], built from whole-lattice translations."""
    n = gauge.size
    site = np.arange(n * n).reshape(n, n)
    eye2 = np.eye(2)
    sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    dirac = (2.0 * wilson_r - bare_mass) * np.eye(2 * n * n, dtype=complex)
    for axis, links, gamma in ((0, gauge.links_x, sigma1),
                               (1, gauge.links_y, sigma2)):
        hop = np.zeros((n * n, n * n), dtype=complex)
        hop[site.ravel(), np.roll(site, -1, axis=axis).ravel()] = links.ravel()
        dirac += (np.kron(hop, 0.5 * (gamma - wilson_r * eye2))
                  - np.kron(hop.conj().T, 0.5 * (gamma + wilson_r * eye2)))
    return np.tile([1.0, -1.0], n * n)[:, None] * dirac


@pytest.mark.parametrize("wilson_r", [0.8, 1.0, 1.2])
def test_stencil_blocks_match_dense_oracle(wilson_r):
    gauge = _gauge_transform(build_flux_background(8, 2), seed=5)
    stencil = _hermitian_blocks(gauge, wilson_r, 1.0)
    form = wilson_dirac(gauge, wilson_r=wilson_r).hermitian_form()
    n = gauge.size
    grid = form.reshape(n, 2 * n, n, 2 * n)
    for x in range(n):
        nxt = (x + 1) % n
        assert np.array_equal(_column_block(stencil, x), grid[x, :, x, :])
        assert np.array_equal(_site_diagonal(stencil.forward[x]),
                              grid[x, :, nxt, :])
        assert np.array_equal(_site_diagonal(stencil.backward[x]),
                              grid[nxt, :, x, :])
    assert stencil.scale == max(1.0, float(np.abs(form).max()))
    assert np.max(np.abs(form - _translation_form(gauge, wilson_r, 1.0))) \
        < 1e-14


def test_near_zero_mode_raises_typed_error_with_window_counts():
    gauge = build_flux_background(8, 1)

    def dense_negative(mass):
        form = wilson_dirac(gauge, bare_mass=mass).hermitian_form()
        return int(np.count_nonzero(np.linalg.eigvalsh(form) < 0.0))

    # an eigenvalue of the dense oracle crosses zero between these masses
    low, high = 0.046, 0.052
    below = dense_negative(low)
    assert dense_negative(high) != below
    while high - low > 1e-13:
        mid = 0.5 * (low + high)
        if dense_negative(mid) == below:
            low = mid
        else:
            high = mid
    with pytest.raises(NearZeroModeError) as raised:
        overlap_index(gauge, bare_mass=low)
    error = raised.value
    assert isinstance(error, ValueError)
    assert str(error) == (
        "ill-conditioned background: Hermitian form has a near-zero mode")
    assert error.below_plus - error.below_minus == 1
    assert error.eps == ZERO_MODE_EPS
    assert overlap_index(gauge, bare_mass=0.03) == 0
    assert overlap_index(gauge, bare_mass=0.08) == 1


def test_overlap_index_memory_is_quadratic_in_size():
    gauge = build_flux_background(32, 8)
    tracemalloc.start()
    try:
        assert overlap_index(gauge) == 8
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # dense (N, 2N, 2N) block stacks of this lattice peak at 12.7 MB
    assert peak < 3_000_000


@pytest.mark.parametrize("size", [48, 64])
@pytest.mark.parametrize("sign", [1, -1])
def test_overlap_index_on_large_lattices(size, sign):
    m = sign * ((size + 2) // 4)
    assert overlap_index(build_flux_background(size, m)) == m


def test_overlap_index_mass_branch_guard():
    gauge = build_flux_background(8, 0)
    with pytest.raises(ValueError):
        overlap_index(gauge, bare_mass=0.0)
    with pytest.raises(ValueError):
        overlap_index(gauge, wilson_r=1.0, bare_mass=2.0)


# -------------------------------------------------------------- sphere kernel


def test_monopole_kernel_zero_charge():
    result = monopole_kernel(0)
    assert result.kernel_plus == 0 and result.kernel_minus == 0
    assert result.index == 0
    assert result.levels[0][0] == 1.0  # smallest nonzero eigenvalue


def test_monopole_kernel_positive_charge():
    result = monopole_kernel(3)
    assert result.kernel_plus == 3 and result.kernel_minus == 0
    assert result.index == 3
    assert abs(result.levels[0][0] - 2.0) < 1e-15  # sqrt(1 * (1 + 3))
    assert result.levels[0][1] == 5


def test_monopole_kernel_negative_charge():
    result = monopole_kernel(-1)
    assert result.kernel_plus == 0 and result.kernel_minus == 1
    assert result.index == -1


@pytest.mark.parametrize("m", [0, -1, 1, 4])
def test_monopole_kernel_level_formula(m):
    result = monopole_kernel(m, cutoff=6)
    for n, (eigenvalue, mult) in enumerate(result.levels, start=1):
        assert abs(eigenvalue - np.sqrt(n * (n + abs(m)))) < 1e-14
        assert mult == abs(m) + 2 * n
        # multiplicity is 2j+1 at angular momentum j = (|m|-1)/2 + n
        assert mult == 2 * ((abs(m) - 1) / 2 + n) + 1


@pytest.mark.parametrize("m", [0, 2, -3])
def test_monopole_kernel_bookkeeping(m):
    cutoff = 7
    result = monopole_kernel(m, cutoff=cutoff)

    # chirality blocks are charge m-1 and m+1 section spaces; level k of a
    # charge-p block holds |p| + 1 + 2k states, and the block carrying the
    # kernel keeps one more level than its partner
    def count_block(p, top_level):
        return sum(abs(p) + 1 + 2 * k for k in range(top_level + 1))

    if m > 0:
        plus_top, minus_top = cutoff, cutoff - 1
    elif m < 0:
        plus_top, minus_top = cutoff - 1, cutoff
    else:
        plus_top = minus_top = cutoff - 1
    total = count_block(m - 1, plus_top) + count_block(m + 1, minus_top)
    assert result.total_dimension == total


def test_monopole_kernel_rejections():
    with pytest.raises(ValueError):
        monopole_kernel(21)
    with pytest.raises(ValueError):
        monopole_kernel(2, cutoff=51)
    with pytest.raises(ValueError):
        monopole_kernel(2, cutoff=0)
