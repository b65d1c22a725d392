"""Oracle tests for the lattice torus index and the sphere kernel spectrum."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from gerbedex import NearZeroModeError
from gerbedex.spectral import (
    CHIRALITY_SIGN,
    ZERO_MODE_EPS,
    LatticeDiracOperator,
    LatticeGauge,
    _chain_block,
    _hermitian_blocks,
    _negative_count,
    _rotated,
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


def test_lattice_gauge_keeps_read_only_copies_of_its_links():
    source = build_flux_background(8, 1)
    links_x, links_y = source.links_x.copy(), source.links_y.copy()
    gauge = LatticeGauge(8, 1, links_x, links_y)
    links_x[:] = 2.0
    links_y[:] = 1.0
    assert overlap_index(gauge) == 1
    for links in (gauge.links_x, gauge.links_y):
        assert not links.flags.writeable
        with pytest.raises(ValueError):
            links[0, 0] = 1.0
    real = LatticeGauge(8, 0, np.ones((8, 8)), np.ones((8, 8)))
    assert real.links_x.dtype == real.links_y.dtype == complex


def test_nan_fails_the_lattice_gates():
    gauge = build_flux_background(8, 1)
    links_x = gauge.links_x.copy()
    links_x[3, 5] = np.nan
    with pytest.raises(ValueError, match="^links_x must be unit modulus$"):
        LatticeGauge(8, 1, links_x, gauge.links_y)
    with pytest.raises(ValueError, match="^plaquette phases do not realize the declared flux$"):
        LatticeGauge(8, np.nan, gauge.links_x, gauge.links_y)
    # past the gauge's own check, the gamma-Hermiticity gates refuse NaN too
    unchecked = SimpleNamespace(size=8, links_x=links_x, links_y=gauge.links_y)
    with pytest.raises(ValueError, match="^operator is not gamma-Hermitian$"):
        _hermitian_blocks(unchecked, 1.0, 1.0)
    op = wilson_dirac(gauge)
    matrix = op.matrix.copy()
    matrix[0, 1] = np.nan
    with pytest.raises(ValueError, match="^operator is not gamma-Hermitian$"):
        LatticeDiracOperator(matrix, op.chirality, op.wilson_r, op.bare_mass, op.size)


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


_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _rough_gauge(size, amplitude, seed):
    """Link angles uniform in [-amplitude, amplitude]; the declared flux is
    the geometric charge, the plaquette-angle sum over 2 pi."""
    rng = np.random.default_rng(seed)
    links_x, links_y = np.exp(1j * rng.uniform(-amplitude, amplitude,
                                               (2, size, size)))
    plaquettes = (links_x * np.roll(links_y, -1, axis=0)
                  * np.conj(np.roll(links_x, -1, axis=1)) * np.conj(links_y))
    charge = round(float(np.sum(np.angle(plaquettes))) / TWO_PI)
    return LatticeGauge(size, charge, links_x, links_y)


def _chain_order(n):
    """Site-major indices of the rotated form in half-column order: half
    column j holds column j // 2 in rotated spin 1 - j % 2."""
    j, y = np.divmod(np.arange(2 * n * n), n)
    return 2 * (j // 2 * n + y) + 1 - j % 2


@pytest.mark.parametrize("wilson_r", [0.8, 1.0, 1.2])
def test_stencil_blocks_match_dense_oracle(wilson_r):
    gauge = _gauge_transform(build_flux_background(8, 2), seed=5)
    stencil = _hermitian_blocks(gauge, wilson_r, 1.0)
    form = wilson_dirac(gauge, wilson_r=wilson_r).hermitian_form()
    n = gauge.size
    rotation = np.kron(np.eye(n * n), _H)
    order = _chain_order(n)
    chain = (rotation @ form @ rotation)[np.ix_(order, order)]
    rot = _rotated(stencil)
    for halves in (1, 2):
        width = halves * n
        blocks = 2 * n // halves
        for k in range(blocks):
            for l in range(blocks):
                block = _chain_block(rot, k, l, halves)
                expected = chain[k * width:(k + 1) * width,
                                 l * width:(l + 1) * width]
                assert np.max(np.abs(block - expected)) < 1e-14
                # the chain is block tridiagonal, in half columns at r = 1 only
                tridiagonal = halves == 2 or wilson_r == 1.0
                if tridiagonal and min((k - l) % blocks, (l - k) % blocks) > 1:
                    assert not block.any()
            shifted = _chain_block(rot, k, k, halves, 0.25)
            assert np.array_equal(
                shifted, _chain_block(rot, k, k, halves) - 0.25 * np.eye(width))
    assert stencil.scale == max(1.0, float(np.abs(form).max()))
    assert np.max(np.abs(form - _translation_form(gauge, wilson_r, 1.0))) \
        < 1e-14


@pytest.mark.parametrize("wilson_r", [0.8, 1.0, 1.2])
def test_rotated_couplings_are_h_c_h_in_closed_form(wilson_r):
    gauge = _rough_gauge(8, 2.0, seed=3)
    stencil = _hermitian_blocks(gauge, wilson_r, 0.7)
    rot = _rotated(stencil)
    assert rot.scale == stencil.scale
    for name in ("mass", "up", "down", "forward", "backward"):
        couplings = getattr(stencil, name)
        assert np.max(np.abs(getattr(rot, name) - _H @ couplings @ _H)) < 1e-15
    cross = rot.forward[..., 1, 0]  # P-(x) -> P+(x+1)
    partner = rot.backward[..., 0, 1]  # P+(x+1) -> P-(x)
    if wilson_r == 1.0:
        assert not cross.any() and not partner.any()
    else:
        expected = 0.5 * (1.0 - wilson_r) * gauge.links_x
        assert np.max(np.abs(cross - expected)) < 1e-15
        assert np.max(np.abs(partner - expected.conj())) < 1e-15


@pytest.mark.parametrize("wilson_r, halves", [(1.0, 1), (1.2, 2)])
def test_fronts_are_half_columns_at_unit_wilson_parameter(monkeypatch, wilson_r,
                                                          halves):
    eigh = np.linalg.eigh
    fronts = []

    def spy(matrix):
        fronts.append(len(matrix))
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    gauge = _gauge_transform(build_flux_background(16, 2), seed=9)
    assert overlap_index(gauge, wilson_r=wilson_r) == 2
    # two counts, each eliminating every chain block but the border
    assert len(fronts) == 2 * (32 // halves - 1)
    width = 16 * halves
    assert width <= min(fronts) and max(fronts) <= width + 2


@pytest.mark.parametrize("wilson_r", [0.8, 1.0, 1.2])
def test_negative_count_matches_the_dense_spectrum_between_eigenvalues(wilson_r):
    gauge = _rough_gauge(8, 1.0, seed=4)
    eigenvalues = np.linalg.eigvalsh(
        wilson_dirac(gauge, wilson_r=wilson_r).hermitian_form())
    stencil = _hermitian_blocks(gauge, wilson_r, 1.0)
    gaps = np.flatnonzero(np.diff(eigenvalues) > 1e-6)
    for gap in gaps[::8]:
        shift = 0.5 * (eigenvalues[gap] + eigenvalues[gap + 1])
        assert _negative_count(stencil, shift) == gap + 1


def test_overlap_index_on_rough_fields_equals_the_dense_oracle():
    differs = 0
    for amplitude in (1.0, 2.0, 3.0):
        for seed in range(20):
            gauge = _rough_gauge(8, amplitude, seed)
            index = overlap_index(gauge)
            assert index == _dense_index(gauge, 1.0)
            differs += index != gauge.flux
    # on these fields the index is not the geometric charge
    assert differs > 0


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
