import json
import math

import numpy as np
import pytest

from qmoments.core import DecompositionError, DomainError
from qmoments.matrixlab import (
    FiniteState,
    HermitianOperator,
    abs_power_expectation,
    central_shift,
    commutator,
    expectation,
    ground_state,
    lowering_matrix,
    matrix_to_json,
    pauli,
    random_hermitian,
    random_state,
    truncated_canonical_pair,
)
from seeded import SplitMix64

SX, SY, SZ = pauli("x"), pauli("y"), pauli("z")


def _central_moment(h, psi, s):
    """<psi| |H - <H>|^s |psi>, the route of every finite moment of the
    finite command."""
    return abs_power_expectation(central_shift(h, psi), psi, s)


@pytest.fixture
def svd_calls(monkeypatch):
    """Every np.linalg.svd call as (matrix, hermitian flag, (U, sigma, V^H))."""
    calls = []
    real_svd = np.linalg.svd

    def spy(m, hermitian=False):
        out = real_svd(m, hermitian=hermitian)
        calls.append((m, hermitian, out))
        return out

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def _assert_factors_sound(m, u, sigma, vh):
    """The factors give m back to 1e-10 relative, and U is unitary."""
    scale = max(np.abs(m).max(), 1e-300)
    assert np.abs((u * sigma) @ vh - m).max() <= 1e-10 * scale
    assert np.abs(u.conj().T @ u - np.eye(m.shape[0])).max() <= 1e-10


def test_pauli_x_spectrum():
    # spectrum {-1, 1}: |sx| = I, and with psi = (cos t, sin t) the mean is
    # sin 2t and the eigenvector weights are (1 +- sin 2t) / 2
    t = 0.3
    psi = FiniteState([math.cos(t), math.sin(t)])
    mu = math.sin(2.0 * t)
    for s in (0.5, 1.0, 3.0):
        assert abs_power_expectation(SX, psi, s) == pytest.approx(1.0, rel=1e-14)
        want = 0.5 * (1.0 + mu) * (1.0 - mu) ** s + 0.5 * (1.0 - mu) * (1.0 + mu) ** s
        assert _central_moment(SX, psi, s) == pytest.approx(want, rel=1e-13)


def test_diagonal_matrix_sorted():
    # sum_i |psi_i|^2 |d_i - mu|^s, whatever the order of the diagonal
    d = np.array([3.0, -2.0, 7.0])
    amps = np.array([0.6, 0.48j, 0.64])
    w = np.abs(amps) ** 2
    mu = float(w @ d)
    order = np.argsort(d)
    for s in (0.5, 2.0):
        want = float(w @ np.abs(d - mu) ** s)
        got = _central_moment(HermitianOperator(np.diag(d)), FiniteState(amps), s)
        in_order = _central_moment(HermitianOperator(np.diag(d[order])),
                                             FiniteState(amps[order]), s)
        assert got == pytest.approx(want, rel=1e-14)
        assert in_order == pytest.approx(want, rel=1e-14)


def test_reconstruction_residual_random16(svd_calls):
    # at s = 2 the central moment is ||(H - mu) psi||^2, with no decomposition
    rng = SplitMix64(1234)
    h = random_hermitian(rng, 16)
    psi = random_state(rng, 16)
    shifted = central_shift(h, psi)
    want = float(np.linalg.norm(shifted.entries @ psi.amplitudes) ** 2)
    assert _central_moment(h, psi, 2.0) == pytest.approx(want, rel=1e-12)
    (m, hermitian, factors), = svd_calls
    assert hermitian and np.array_equal(m, shifted.entries)
    _assert_factors_sound(m, *factors)


def test_reconstruction_residual_thousand_matrices(svd_calls):
    # 1000 random Hermitian matrices with dimensions up to 64, weighted toward
    # small sizes to keep the sweep affordable
    rng = SplitMix64(999)
    dims = [rng.integer(2, 12) for _ in range(950)]
    dims += [rng.integer(13, 32) for _ in range(45)]
    dims += [rng.integer(33, 64) for _ in range(5)]
    for d in dims:
        abs_power_expectation(random_hermitian(rng, d), FiniteState(np.eye(d)[0]), 1.0)
    assert len(svd_calls) == 1000
    for m, hermitian, factors in svd_calls:
        assert hermitian
        _assert_factors_sound(m, *factors)


def test_eigenvalues_match_numpy_oracle(svd_calls):
    rng = SplitMix64(4)
    for d in (3, 7, 12):
        h = random_hermitian(rng, d)
        abs_power_expectation(h, random_state(rng, d), 1.0)
        sigma = svd_calls[-1][2][1]
        want = np.sort(np.abs(np.linalg.eigvalsh(h.entries)))[::-1]
        assert np.allclose(sigma, want, atol=1e-11)


def test_abs_central_moment_deterministic():
    rng = SplitMix64(2024)
    h = random_hermitian(rng, 9)
    psi = random_state(rng, 9)
    for s in (0.5, 1.0, 2.7):
        assert _central_moment(h, psi, s) == _central_moment(h, psi, s)


# closed-form spectra: oracles that do not go through np.linalg.svd


@pytest.mark.parametrize("a, d, b", [
    (1.0, -1.0, 0.0),
    (2.0, 2.0, 1.5),
    (0.3, -4.2, 1.0 - 2.0j),
    (-1e3, 7.5, 0.25j),
])
def test_two_by_two_closed_form_spectrum(a, d, b, svd_calls):
    # lambda_+- = mid +- half_gap; the weights w_+- follow from w_+ + w_- = 1
    # and w_+ lambda_+ + w_- lambda_- = mu, so the moment needs no eigenvector
    h = HermitianOperator([[a, b], [np.conj(b), d]])
    psi = FiniteState([0.6, 0.8j])
    mid = 0.5 * (a + d)
    half_gap = math.sqrt((0.5 * (a - d)) ** 2 + abs(b) ** 2)
    lo, hi = mid - half_gap, mid + half_gap
    mu = expectation(h, psi)
    w_hi = (mu - lo) / (hi - lo)
    scale = max(abs(a), abs(d), abs(b))
    for s in (0.5, 1.0, 3.0):
        want = w_hi * abs(hi - mu) ** s + (1.0 - w_hi) * abs(lo - mu) ** s
        assert _central_moment(h, psi, s) == pytest.approx(want, rel=1e-12)
        sigma = svd_calls[-1][2][1]
        assert np.abs(np.sort(sigma) - np.sort([abs(hi - mu), abs(lo - mu)])).max() <= 1e-13 * scale


def test_rank_one_projector_spectrum_and_top_eigenvector():
    # P = v v^H has spectrum {0 (5 times), |v|^2}; the weight of the top
    # eigenvector v / |v| is mu / |v|^2
    v = np.array([0.5 - 1.0j, 2.0, -0.75j, 1.0 + 1.0j, -0.25, 0.125 + 3.0j])
    norm2 = float(np.vdot(v, v).real)
    proj = HermitianOperator(np.outer(v, v.conj()))
    psi = FiniteState([1.0, 0.5j, -0.25, 2.0, 0.75 - 0.5j, -1.0j])
    mu = expectation(proj, psi)
    for s in (0.5, 1.0, 2.0):
        want = (mu / norm2) * (norm2 - mu) ** s + (1.0 - mu / norm2) * mu**s
        assert _central_moment(proj, psi, s) == pytest.approx(want, rel=1e-12)
    # in the top eigenvector itself P - mu I annihilates psi
    top = FiniteState(v)
    assert _central_moment(proj, top, 2.0) <= (1e-13 * norm2) ** 2
    assert abs_power_expectation(proj, top, 1.0) == pytest.approx(norm2, rel=1e-13)


@pytest.mark.parametrize("c", [0.0, 2.5, -7.0])
def test_degenerate_multiple_of_identity(c, svd_calls):
    # <e_0| c I |e_0> is c exactly, so A - <A> is the zero matrix
    n = 5
    op = HermitianOperator(c * np.eye(n))
    e0 = ground_state(n)
    for s in (0.5, 1.0, 2.0):
        assert _central_moment(op, e0, s) == 0.0
        assert abs_power_expectation(op, random_state(SplitMix64(5), n), s) == pytest.approx(
            abs(c) ** s, rel=1e-14, abs=0.0)
    for m, _, factors in svd_calls:
        _assert_factors_sound(m, *factors)


def test_lapack_failure_is_decomposition_error(monkeypatch):
    def failing_svd(m, hermitian=False):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    with pytest.raises(DecompositionError, match="svd failed"):
        _central_moment(SX, FiniteState([1, 0]), 1.0)


def test_perturbed_eigenvectors_fail_reconstruction(monkeypatch):
    real_svd = np.linalg.svd
    h = random_hermitian(SplitMix64(31), 6)

    def perturbed_svd(m, hermitian=False):
        u, sigma, vh = real_svd(m, hermitian=hermitian)
        return u + 1e-6 * np.eye(u.shape[0]), sigma, vh

    monkeypatch.setattr(np.linalg, "svd", perturbed_svd)
    with pytest.raises(DecompositionError, match="reconstruction"):
        _central_moment(h, ground_state(6), 1.0)


def test_non_unitary_eigenvectors_fail_unitarity(monkeypatch):
    # the zero matrix reconstructs exactly from any factors, so only the
    # unitarity check can catch a doubled basis
    eye = np.eye(3, dtype=complex)
    monkeypatch.setattr(np.linalg, "svd", lambda m, hermitian=False: (2.0 * eye, np.zeros(3), eye))
    with pytest.raises(DecompositionError, match="unitarity"):
        _central_moment(HermitianOperator(np.zeros((3, 3))), ground_state(3), 1.0)


def test_nan_spectrum_fails_reconstruction(monkeypatch):
    eye = np.eye(2, dtype=complex)
    monkeypatch.setattr(np.linalg, "svd", lambda m, hermitian=False: (eye, np.full(2, np.nan), eye))
    with pytest.raises(DecompositionError, match="reconstruction"):
        _central_moment(SX, FiniteState([1, 0]), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("where", [(0, 0), (1, 1), (0, 1)])
def test_non_finite_entry_rejected(bad, where):
    # NaN fails every comparison, so the Hermiticity test alone let it through
    m = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    m[where] = bad
    if where[0] != where[1]:
        m[where[::-1]] = np.conj(bad)  # symmetric placement: only finiteness fails
    with pytest.raises(DomainError, match="NaN or infinite"):
        HermitianOperator(m)


def test_commutator_pauli():
    assert np.allclose(commutator(SX, SY), 2j * SZ.entries, atol=1e-14)


def test_commutator_self_is_zero():
    assert np.abs(commutator(SZ, SZ)).max() == 0.0


def test_commutator_anti_hermitian_random():
    rng = SplitMix64(8)
    a = random_hermitian(rng, 6)
    b = random_hermitian(rng, 6)
    c = commutator(a, b)
    assert np.abs(c + c.conj().T).max() <= 1e-12 * max(1.0, np.abs(c).max())


def test_dimension_mismatch():
    with pytest.raises(DomainError):
        commutator(SX, HermitianOperator(np.eye(3)))


def test_abs_power_diagonal_sqrt():
    # Hermitian diagonal M: <|M|^s> = sum_i w_i |lambda_i|^s
    psi = FiniteState([0.6, 0.8j])
    out = abs_power_expectation(np.diag([-2.0, 3.0]).astype(complex), psi, 0.5)
    assert out == pytest.approx(0.36 * math.sqrt(2) + 0.64 * math.sqrt(3), rel=1e-14)


def test_abs_power_commutator_modulus():
    c = commutator(SX, SY)  # 2i sz, anti-Hermitian: |C| = 2 I
    for psi in (FiniteState([1, 0]), FiniteState([0.6, 0.8j]), random_state(SplitMix64(10), 2)):
        assert abs_power_expectation(c, psi, 1.0) == pytest.approx(2.0, rel=1e-14)


def test_abs_power_square_consistency():
    # |M|^2 = M^H M, so <|M|^2> = ||M psi||^2 with no decomposition at all
    rng = SplitMix64(11)
    m = random_hermitian(rng, 6).entries @ random_hermitian(rng, 6).entries + 0.5j * np.eye(6)
    psi = random_state(rng, 6)
    want = float(np.linalg.norm(m @ psi.amplitudes) ** 2)
    assert abs_power_expectation(m, psi, 2.0) == pytest.approx(want, rel=1e-12)


def test_abs_power_rejects_nonpositive():
    with pytest.raises(DomainError):
        abs_power_expectation(np.eye(2), FiniteState([1, 0]), 0.0)
    with pytest.raises(DomainError):
        abs_power_expectation(np.eye(2), FiniteState([1, 0]), -1.0)


def test_abs_power_out_of_the_double_range_is_refused_unless_it_is_exactly_zero():
    psi = FiniteState([1, 0])
    with pytest.raises(DomainError, match=r"^<\|M\|\^40> of a 2x2 matrix underflows a double$"):
        abs_power_expectation(1e-10 * np.eye(2), psi, 40.0)  # 1e-400 reads 0.0
    with pytest.raises(DomainError, match="overflows a double"):
        abs_power_expectation(1e10 * np.eye(2), psi, 40.0)
    # psi has no weight on the nonzero singular value: 0 is the exact value
    assert abs_power_expectation(np.diag([0.0, 1e-10]), psi, 40.0) == 0.0
    assert abs_power_expectation(np.zeros((2, 2)), psi, 1.0) == 0.0


def test_abs_power_dimension_mismatch():
    with pytest.raises(DomainError, match="dimension mismatch: 3 vs 2"):
        abs_power_expectation(np.eye(3), FiniteState([1, 0]), 1.0)


def test_abs_power_svd_failure_is_decomposition_error(monkeypatch):
    def failing_svd(m, hermitian=False):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    with pytest.raises(DecompositionError):
        abs_power_expectation(np.eye(2), FiniteState([1, 0]), 1.0)


def test_nan_singular_values_fail_reconstruction(monkeypatch):
    eye = np.eye(2, dtype=complex)
    monkeypatch.setattr(np.linalg, "svd", lambda m, hermitian=False: (eye, np.full(2, np.nan), eye))
    with pytest.raises(DecompositionError, match="reconstruction"):
        abs_power_expectation(np.eye(2), FiniteState([1, 0]), 1.0)


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Q of a complex Gaussian's QR, with the phases of R's diagonal divided out."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("n, rank", [(8, 4), (16, 8), (8, 7), (8, 1)])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_abs_power_known_spectrum(n, rank, s):
    # M = U diag(sigma) V^H with known sigma, some of them 0: the exact
    # <|M|^s> is sum_i sigma_i^s |v_i^H psi|^2, which shares no code with the
    # path under test
    rng = np.random.default_rng([n, rank])
    for _ in range(5):
        u, v = _haar_unitary(rng, n), _haar_unitary(rng, n)
        sigma = np.zeros(n)
        sigma[:rank] = rng.uniform(0.1, 3.0, rank)
        psi = FiniteState(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        m = (u * sigma) @ v.conj().T
        exact = float(np.abs(v.conj().T @ psi.amplitudes) ** 2 @ sigma**s)
        got = abs_power_expectation(m, psi, s)
        if s >= 1.0:
            assert got == pytest.approx(exact, rel=1e-12)
        else:
            # Weyl: each computed sigma is within ~n eps max(sigma) of exact,
            # and |a^s - b^s| <= |a - b|^s for s < 1
            assert abs(got - exact) <= (n * np.finfo(float).eps * sigma.max()) ** s


def test_expectation_identity():
    rng = SplitMix64(13)
    psi = random_state(rng, 5)
    assert expectation(HermitianOperator(np.eye(5)), psi) == pytest.approx(1.0, abs=1e-12)


def test_expectation_sz_up():
    assert expectation(SZ, FiniteState([1, 0])) == pytest.approx(1.0, abs=1e-14)


def test_expectation_spectral_weight_oracle():
    rng = SplitMix64(14)
    h = random_hermitian(rng, 10)
    psi = random_state(rng, 10)
    lam, u = np.linalg.eigh(h.entries)
    oracle = float(np.abs(u.conj().T @ psi.amplitudes) ** 2 @ lam)
    assert expectation(h, psi) == pytest.approx(oracle, abs=1e-10)


def test_central_shift_identity_is_zero():
    psi = FiniteState([1, 0])
    out = central_shift(HermitianOperator(np.eye(2)), psi)
    assert np.abs(out.entries).max() <= 1e-14


def test_central_shift_sz():
    out = central_shift(SZ, FiniteState([1, 0]))
    assert np.allclose(out.entries, SZ.entries - np.eye(2))


def test_central_shift_zero_expectation():
    rng = SplitMix64(15)
    h = random_hermitian(rng, 7)
    psi = random_state(rng, 7)
    shifted = central_shift(h, psi)
    assert abs(expectation(shifted, psi)) <= 1e-10


def test_abs_central_moment_variance_identity():
    rng = SplitMix64(16)
    h = random_hermitian(rng, 6)
    psi = random_state(rng, 6)
    var = _central_moment(h, psi, 2.0)
    mu = expectation(h, psi)
    second = expectation(HermitianOperator(h.entries @ h.entries), psi)
    assert var == pytest.approx(second - mu * mu, abs=1e-10)


def test_abs_central_moment_sz_order_one():
    psi = FiniteState(np.array([1.0, 1.0]) / math.sqrt(2))
    assert _central_moment(SZ, psi, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_abs_central_moment_fourth_order_brute_force():
    # H = U diag(lambda) U^H with a known spectrum, one eigenvalue repeated:
    # the oracle sum_i |u_i^H psi|^2 |lambda_i - mu|^s needs no eigensolver
    rng = np.random.default_rng(17)
    u = _haar_unitary(rng, 8)
    lam = np.array([-2.5, -1.0, -1.0, -1.0, 0.25, 0.7, 1.5, 3.0])
    h = HermitianOperator((u * lam) @ u.conj().T)
    psi = FiniteState(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    w = np.abs(u.conj().T @ psi.amplitudes) ** 2
    mu = float(w @ lam)
    for s in (0.5, 1.0, 4.0):
        oracle = float(w @ np.abs(lam - mu) ** s)
        assert _central_moment(h, psi, s) == pytest.approx(oracle, rel=1e-12)


def test_abs_central_moment_scaling():
    rng = SplitMix64(18)
    h = random_hermitian(rng, 5)
    psi = random_state(rng, 5)
    for s in (0.5, 1.0, 2.7):
        base = _central_moment(h, psi, s)
        scaled = _central_moment(HermitianOperator(3.0 * h.entries), psi, s)
        assert scaled == pytest.approx(3.0**s * base, rel=1e-10)


def test_truncated_pair_commutator_structure():
    n = 16
    x, p = truncated_canonical_pair(n)
    c = commutator(x, p)
    ideal = 1j * np.eye(n)
    # interior block matches i*hbar*I; the defect sits in the last row/column
    assert np.abs(c[: n - 1, : n - 1] - ideal[: n - 1, : n - 1]).max() <= 1e-12
    assert c[n - 1, n - 1] == pytest.approx(-1j * (n - 1), abs=1e-12)


def test_truncated_pair_ground_variances():
    x, p = truncated_canonical_pair(32)
    g = ground_state(32)
    assert _central_moment(x, g, 2.0) == pytest.approx(0.5, abs=1e-12)
    assert _central_moment(p, g, 2.0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("hbar, mass", [(1.0, 1e-310), (1e300, 1e10), (1e-300, 1e-10)])
def test_truncated_pair_takes_any_scale_in_range(hbar, mass):
    # hbar/(2 mass) or hbar mass/2 leaves the double range, but neither
    # scale, about 7.1e154 at mass = 1e-310, does
    x, p = truncated_canonical_pair(8, hbar=hbar, mass=mass)
    assert x.entries[0, 1].real == pytest.approx(math.sqrt(hbar / 2.0) / math.sqrt(mass), rel=1e-15)
    assert p.entries[0, 1].imag == pytest.approx(-math.sqrt(hbar / 2.0) * math.sqrt(mass), rel=1e-15)


def test_truncated_pair_scales_at_unit_mass_are_those_of_hbar_over_2():
    for hbar in (1.0, 1e-20, 1e-300):
        x, p = truncated_canonical_pair(4, hbar=hbar)
        assert x.entries[0, 1].real == p.entries[1, 0].imag == math.sqrt(hbar / 2.0)


def test_lowering_matrix():
    a = lowering_matrix(4)
    assert a[0, 1] == 1.0
    assert a[2, 3] == pytest.approx(math.sqrt(3))


def test_abs_power_expectation_matches_matrix_route():
    # at even orders |M|^(2k) = (M^H M)^k, a plain matrix product
    rng = SplitMix64(19)
    a = random_hermitian(rng, 6)
    b = random_hermitian(rng, 6)
    psi = random_state(rng, 6)
    m = a.entries @ b.entries
    h = m.conj().T @ m
    for k in (1, 2, 3):
        hk = np.linalg.matrix_power(h, k)
        via_matrix = float((psi.amplitudes.conj() @ (hk @ psi.amplitudes)).real)
        assert abs_power_expectation(m, psi, 2.0 * k) == pytest.approx(via_matrix, rel=1e-11)


def test_non_hermitian_rejected():
    with pytest.raises(DomainError):
        HermitianOperator([[0.0, 1.0], [0.0, 0.0]])


def test_state_normalized_on_construction():
    s = FiniteState([3.0, 4.0])
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-15)


def test_zero_state_rejected():
    with pytest.raises(DomainError):
        FiniteState([0.0, 0.0])


def test_matrix_json_round_trip():
    m = SY.entries
    obj = json.loads(matrix_to_json(m))
    back = np.array([complex(re, im) for re, im in obj["entries"]]).reshape(obj["dim"], -1)
    assert np.array_equal(back, m)


def test_splitmix_reproducible():
    a = SplitMix64(42)
    b = SplitMix64(42)
    seq_a = [a.next_u64() for _ in range(100)]
    seq_b = [b.next_u64() for _ in range(100)]
    assert seq_a == seq_b


def test_random_hermitian_reproducible_bitwise():
    h1 = random_hermitian(SplitMix64(7), 6)
    h2 = random_hermitian(SplitMix64(7), 6)
    assert np.array_equal(h1.entries, h2.entries)
