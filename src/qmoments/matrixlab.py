"""Finite-dimensional Hermitian operator algebra.

This is the brute-force oracle side of the package: every operator
expression (commutators, modulus powers |M|^s, expectations, centered
moments) is computed exactly from explicit matrices, so inequality claims
can be checked without any analytic shortcuts.

A modulus power <psi| |M|^s |psi> of any square M comes from one SVD
(``np.linalg.svd``), whose singular values are each within the backward
error's 2-norm of exact (Weyl); forming M^H M would square M's condition
number. Hermitian central moments use LAPACK's Hermitian driver
``np.linalg.eigh``. A seeded run repeats bit for bit on one numpy/LAPACK
build with one BLAS thread count; a counterexample replays from its
serialized matrices and state on any machine.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import DataFormatError, DecompositionError, DomainError, record
from .rng import SplitMix64

_HERMITICITY_ATOL = 1e-12
_RECON_RTOL = 1e-10


def _as_complex_square(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    return m


def _frozen(a: np.ndarray) -> np.ndarray:
    """Private read-only copy, so value objects stay immutable in fact."""
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


@record
class HermitianOperator:
    """An n x n complex matrix validated to equal its conjugate transpose."""

    entries: np.ndarray

    def __post_init__(self):
        m = _as_complex_square(self.entries)
        if not np.isfinite(m).all():
            raise DomainError("matrix has a NaN or infinite entry")
        scale = max(1.0, float(np.abs(m).max(initial=0.0)))
        if np.abs(m - m.conj().T).max(initial=0.0) > _HERMITICITY_ATOL * scale:
            raise DomainError("matrix is not Hermitian within 1e-12")
        object.__setattr__(self, "entries", _frozen(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def scaled(self, c: float) -> "HermitianOperator":
        return HermitianOperator(self.entries * float(c))


@record
class FiniteState:
    """A unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).ravel()
        n = np.linalg.norm(v)
        if not math.isfinite(n) or n == 0.0:
            raise DomainError("state vector must have finite nonzero norm")
        if abs(n - 1.0) > 1e-12:
            v = v / n
        object.__setattr__(self, "amplitudes", _frozen(v))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@record
class SpectralDecomposition:
    """Eigenvalues ascending, eigenvector columns unitary and phase-fixed."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T

    def weights(self, psi: FiniteState) -> np.ndarray:
        """Spectral weights |<u_i|psi>|^2; they sum to 1."""
        amps = self.eigenvectors.conj().T @ psi.amplitudes
        return np.abs(amps) ** 2


def _check_dims(a, b) -> None:
    if a.dim != b.dim:
        raise DomainError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _require_reconstructs(recon: np.ndarray, m: np.ndarray, what: str) -> None:
    """A factorization must give m back to 1e-10 relative."""
    scale = max(float(np.abs(m).max(initial=0.0)), 1e-300)
    # written as not (residual <= tol) so that a NaN residual fails too
    if not float(np.abs(recon - m).max()) <= _RECON_RTOL * scale:
        raise DecompositionError(f"{what} reconstruction residual above 1e-10")


def eigendecompose(op: HermitianOperator) -> SpectralDecomposition:
    """LAPACK Hermitian eigendecomposition (``np.linalg.eigh``).

    Eigenvalues ascend; each eigenvector's first significant component is
    made real positive. The result is checked to reconstruct the matrix to
    1e-10 relative and to have unitary eigenvectors.
    """
    n = op.dim
    try:
        eigenvalues, v = np.linalg.eigh(op.entries)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigh failed: {exc}") from exc
    # phase fix: first significant component real positive
    pivots = v[np.argmax(np.abs(v) > 1e-12, axis=0), np.arange(n)]
    v = v * (pivots.conj() / np.abs(pivots))

    dec = SpectralDecomposition(_frozen(eigenvalues), _frozen(v))
    _require_reconstructs(dec.reconstruct(), op.entries, "spectral")
    if not float(np.abs(v.conj().T @ v - np.eye(n)).max()) <= 1e-10:
        raise DecompositionError("eigenvector matrix lost unitarity")
    return dec


def commutator(a: HermitianOperator, b: HermitianOperator) -> np.ndarray:
    """[A, B] = AB - BA; anti-Hermitian for Hermitian inputs."""
    _check_dims(a, b)
    return a.entries @ b.entries - b.entries @ a.entries


def expectation(op: HermitianOperator, psi: FiniteState) -> float:
    """<psi|M|psi> with the imaginary residue validated then discarded."""
    _check_dims(op, psi)
    v = psi.amplitudes
    val = complex(v.conj() @ (op.entries @ v))
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise DomainError(f"expectation has imaginary residue {val.imag:.3e}")
    return val.real


def central_shift(op: HermitianOperator, psi: FiniteState) -> HermitianOperator:
    """A - <A> I, the centered operator whose expectation in psi is zero."""
    mu = expectation(op, psi)
    return HermitianOperator(op.entries - mu * np.eye(op.dim))


def abs_central_moment_finite(op: HermitianOperator, psi: FiniteState, s: float) -> float:
    """<psi| |A - <A>|^s |psi> = sum_i w_i |lambda_i - <A>|^s."""
    if s <= 0.0:
        raise DomainError(f"moment order must be positive, got {s}")
    _check_dims(op, psi)
    mu = expectation(op, psi)
    dec = eigendecompose(op)
    w = dec.weights(psi)
    return float(w @ np.abs(dec.eigenvalues - mu) ** s)


def abs_power_expectation(m: np.ndarray, psi: FiniteState, s: float) -> float:
    """<psi| |M|^s |psi> = sum_i sigma_i^s |(V^H psi)_i|^2 for any square M.

    One SVD M = U Sigma V^H gives |M| = (M^H M)^(1/2) = V Sigma V^H, the
    Hermitian polar factor. A Hermitian or anti-Hermitian M needs no special
    case: its singular values are |lambda|.
    """
    if s <= 0.0:
        raise DomainError(f"power must be positive, got {s}")
    m = _as_complex_square(m)
    if m.shape[0] != psi.dim:
        raise DomainError(f"dimension mismatch: {m.shape[0]} vs {psi.dim}")
    try:
        u, sigma, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"svd failed: {exc}") from exc
    _require_reconstructs((u * sigma) @ vh, m, "singular value")
    w = np.abs(vh @ psi.amplitudes) ** 2
    return float(w @ sigma**s)


# ---------------------------------------------------------------------------
# catalog operators


def pauli(which: str) -> HermitianOperator:
    if which == "x":
        return HermitianOperator([[0, 1], [1, 0]])
    if which == "y":
        return HermitianOperator([[0, -1j], [1j, 0]])
    if which == "z":
        return HermitianOperator([[1, 0], [0, -1]])
    raise DomainError(f"unknown Pauli axis {which!r}")


def lowering_matrix(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        a[i, i + 1] = math.sqrt(i + 1)
    return a


def truncated_canonical_pair(
    dim: int, hbar: float = 1.0, mass: float = 1.0, omega: float = 1.0
) -> tuple[HermitianOperator, HermitianOperator]:
    """Position/momentum matrices in the oscillator number basis.

    Their commutator equals i*hbar*I except for a defect block in the last
    basis row/column (the truncation boundary); states with no weight there
    see the ideal canonical algebra.
    """
    if dim < 2:
        raise DomainError("truncated pair needs dim >= 2")
    a = lowering_matrix(dim)
    ad = a.conj().T
    x = math.sqrt(hbar / (2.0 * mass * omega)) * (a + ad)
    p = 1j * math.sqrt(hbar * mass * omega / 2.0) * (ad - a)
    return HermitianOperator(x), HermitianOperator(p)


def ground_state(dim: int) -> FiniteState:
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0
    return FiniteState(v)


def random_hermitian(rng: SplitMix64, dim: int, scale: float = 1.0) -> HermitianOperator:
    """H = (G + G^H)/2 with G filled row-major, real part before imaginary."""
    g = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            g[i, j] = complex(rng.normal(), rng.normal())
    return HermitianOperator(scale * 0.5 * (g + g.conj().T))


def random_state(rng: SplitMix64, dim: int) -> FiniteState:
    v = np.empty(dim, dtype=complex)
    for i in range(dim):
        v[i] = complex(rng.normal(), rng.normal())
    return FiniteState(v)


# ---------------------------------------------------------------------------
# JSON wire format: {"dim": n, "entries": [[re, im], ...]} row-major


def matrix_to_json(m: np.ndarray) -> str:
    m = _as_complex_square(m)
    pairs = [[float(z.real), float(z.imag)] for z in m.ravel()]
    return json.dumps({"dim": int(m.shape[0]), "entries": pairs})


def matrix_from_json(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
        dim = int(obj["dim"])
        pairs = obj["entries"]
        if dim <= 0 or len(pairs) != dim * dim:
            raise ValueError(f"need dim^2 = {dim * dim} entries, got {len(pairs)}")
        flat = np.array([complex(float(re), float(im)) for re, im in pairs])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad matrix JSON: {exc}") from exc
    return flat.reshape(dim, dim)
