"""Finite-dimensional Hermitian operator algebra.

This is the brute-force oracle side of the package: every operator
expression (commutators, modulus powers |M|^s, expectations, centered
moments) is computed exactly from explicit matrices, so inequality claims
can be checked without any analytic shortcuts.

Every moment is a modulus power <psi| |M|^s |psi>, and each comes from one
SVD in abs_power_expectation, whose singular values are each within the
backward error's 2-norm of exact (Weyl); forming M^H M would square M's
condition number. A HermitianOperator, such as a centered A - <A>, goes to
LAPACK's Hermitian driver (numpy's svd with hermitian=True runs eigh and
returns |lambda| as the singular values). A seeded run repeats bit for bit
on one numpy/LAPACK build with one BLAS thread count; a counterexample
replays from its serialized matrices and state on any machine.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import DecompositionError, DomainError, _require_normal, record
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


def _check_dims(a, b) -> None:
    if a.dim != b.dim:
        raise DomainError(f"dimension mismatch: {a.dim} vs {b.dim}")


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


def abs_power_expectation(m: HermitianOperator | np.ndarray, psi: FiniteState, s: float) -> float:
    """<psi| |M|^s |psi> = sum_i sigma_i^s |(V^H psi)_i|^2 for a
    HermitianOperator or any square array M.

    One SVD M = U Sigma V^H gives |M| = (M^H M)^(1/2) = V Sigma V^H, the
    Hermitian polar factor. A HermitianOperator takes LAPACK's Hermitian
    driver: U holds its eigenvectors, sigma_i = |lambda_i| and V^H carries
    the signs. The factors must give M back to 1e-10 relative, and U must
    be unitary (V^H is not checked: a sign rule may zero the row of an
    exactly zero eigenvalue, where sigma is 0 too). Where some weighted
    sigma is positive, a result out of the normal range is refused: 0 by
    underflow would let a bound hold vacuously.
    """
    if s <= 0.0:
        raise DomainError(f"power must be positive, got {s}")
    hermitian = isinstance(m, HermitianOperator)
    m = m.entries if hermitian else _as_complex_square(m)
    n = m.shape[0]
    if n != psi.dim:
        raise DomainError(f"dimension mismatch: {n} vs {psi.dim}")
    try:
        u, sigma, vh = np.linalg.svd(m, hermitian=hermitian)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"svd failed: {exc}") from exc
    scale = max(float(np.abs(m).max(initial=0.0)), 1e-300)
    # written as not (residual <= tol) so that a NaN residual fails too
    if not float(np.abs((u * sigma) @ vh - m).max()) <= _RECON_RTOL * scale:
        raise DecompositionError("singular value reconstruction residual above 1e-10")
    if not float(np.abs(u.conj().T @ u - np.eye(n)).max()) <= 1e-10:
        raise DecompositionError("singular vector matrix lost unitarity")
    w = np.abs(vh @ psi.amplitudes) ** 2
    sigma = np.where(w > 0.0, sigma, 0.0)  # one that psi does not see adds 0 either way
    with np.errstate(over="ignore"):  # an infinite sum is refused below
        value = float(w @ sigma**s)
    if sigma.any():
        _require_normal(f"<|M|^{s:g}> of a {n}x{n} matrix", value)
    return value


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
    dim: int, hbar: float = 1.0, mass: float = 1.0
) -> tuple[HermitianOperator, HermitianOperator]:
    """Position/momentum matrices in the oscillator number basis.

    Their commutator equals i*hbar*I except for a defect block in the last
    basis row/column (the truncation boundary); states with no weight there
    see the ideal canonical algebra. DomainError where the scale of X or P,
    or a bound on the norms of X P and [X, P], leaves the normal range.
    """
    if dim < 2:
        raise DomainError("truncated pair needs dim >= 2")
    # roots before the quotient and the product, so that a scale in range is
    # never refused for its square; at mass 1 the bits are sqrt(hbar/2)'s
    root = math.sqrt(hbar / 2.0)
    cx = _require_normal("the scale of X, sqrt(hbar/(2 mass)),", root / math.sqrt(mass))
    cp = _require_normal("the scale of P, sqrt(hbar mass/2),", root * math.sqrt(mass))
    _require_normal("4 hbar dim, a bound on the norms of X P and [X, P],", 4.0 * hbar * dim)
    a = lowering_matrix(dim)
    ad = a.conj().T
    x = cx * (a + ad)
    p = 1j * cp * (ad - a)
    return HermitianOperator(x), HermitianOperator(p)


def ground_state(dim: int) -> FiniteState:
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0
    return FiniteState(v)


def random_hermitian(rng: SplitMix64, dim: int) -> HermitianOperator:
    """H = (G + G^H)/2 with G filled row-major, real part before imaginary."""
    g = np.array([complex(rng.normal(), rng.normal()) for _ in range(dim * dim)])
    g = g.reshape(dim, dim)
    return HermitianOperator(0.5 * (g + g.conj().T))


def random_state(rng: SplitMix64, dim: int) -> FiniteState:
    return FiniteState([complex(rng.normal(), rng.normal()) for _ in range(dim)])


# ---------------------------------------------------------------------------
# JSON wire format: {"dim": n, "entries": [[re, im], ...]} row-major


def matrix_to_json(m: np.ndarray) -> str:
    m = _as_complex_square(m)
    pairs = [[float(z.real), float(z.imag)] for z in m.ravel()]
    return json.dumps({"dim": int(m.shape[0]), "entries": pairs})
