"""Closed-form and independently computed reference values for every op.

Nothing here imports qmoments: each oracle is a formula from the state's
definition (Gamma and Beta functions from the stdlib) or, for the finite
harness, a re-derivation with numpy.linalg.eigh on matrices regenerated by a
separate SplitMix64 implementation.
"""

from __future__ import annotations

import math

import numpy as np

# The finite harness and the canonical-pair checks both use default_slack
# 1e-9*max(1, rhs); a holds flag is only compared where the oracle margin
# clears this tolerance by a wide factor.
HOLDS_TOL = 1e-6


def _beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


# ---------------------------------------------------------------------------
# power-exponential radial states u(r) = N r^n e^{-r} (kappa = 1)
#
# <r^t> = Gamma(2n+1+t) / ((2n)! 2^t).  In momentum space the sine transform is
# w(k) = sqrt(2/pi) N n! Im[(1 - ik)^-(n+1)] = sqrt(2/pi) N n! sin((n+1)phi) cos^(n+1)(phi)
# with k = tan(phi), so <p^q> = (2/pi) N^2 (n!)^2 int_0^{pi/2} sin^2((n+1)phi)
# sin^q(phi) cos^(2n-q)(phi) dphi, which expands into Beta functions.


def radial_moment(n: int, t: float) -> float:
    """<r^t> of the power-exponential state; finite iff t > -(2n+1)."""
    if t <= -(2 * n + 1):
        return math.inf
    return math.exp(math.lgamma(2 * n + 1 + t) - math.lgamma(2 * n + 1) - t * math.log(2.0))


def _sin_multiple_coeffs(m: int) -> dict[tuple[int, int], int]:
    """sin(m phi) = sum c * sin^a cos^b over odd a, from Im[(cos + i sin)^m]."""
    out = {}
    for a in range(1, m + 1, 2):
        out[(a, m - a)] = math.comb(m, a) * (-1) ** ((a - 1) // 2)
    return out


def momentum_moment(n: int, q: float) -> float:
    """<p^q> of the power-exponential state; finite iff q < 2n + 1 (n odd: 2n+3)."""
    coeffs = _sin_multiple_coeffs(n + 1)
    norm2 = 2.0 ** (2 * n + 1) / math.factorial(2 * n)
    total = 0.0
    for (a1, b1), c1 in coeffs.items():
        for (a2, b2), c2 in coeffs.items():
            a = a1 + a2 + q
            b = b1 + b2 + 2 * n - q
            if b <= -1.0:
                return math.inf
            total += c1 * c2 * 0.5 * _beta((a + 1.0) / 2.0, (b + 1.0) / 2.0)
    return (2.0 / math.pi) * norm2 * math.factorial(n) ** 2 * total


def hydrogen_abs_z(p: float) -> float:
    """<|z|^p> = 4 Gamma(p+3) / (2^(p+3) (p+1)) for the 1s state."""
    return 4.0 * math.gamma(p + 3.0) / (2.0 ** (p + 3.0) * (p + 1.0))


def hydrogen_abs_pz(q: float) -> float:
    """<|p_z|^q> = (16/pi) B((3+q)/2, (5-q)/2) / (q+1), finite for q < 5."""
    if q >= 5.0:
        return math.inf
    return 16.0 / math.pi * _beta((3.0 + q) / 2.0, (5.0 - q) / 2.0) / (q + 1.0)


def gaussian_abs(sigma: float, p: float) -> float:
    """<|x|^p> for a centered normal of standard deviation sigma."""
    return sigma**p * 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


# axis moments per catalog state: (position <|z|^p>, momentum <|p_z|^q>)
def axis_moments(state: str):
    if state == "hydrogen":
        return hydrogen_abs_z, hydrogen_abs_pz
    if state == "r4test":
        return (lambda p: radial_moment(4, p) / (p + 1.0),
                lambda q: momentum_moment(4, q) / (q + 1.0))
    if state == "qho":
        s = math.sqrt(0.5)
        return (lambda p: gaussian_abs(s, p), lambda q: gaussian_abs(s, q))
    raise ValueError(f"no oracle for state {state!r}")


def radial_n(state: str) -> int:
    return {"hydrogen": 1, "r4test": 4}[state]


def canonical_cell(state: str, p: float, q: float) -> tuple[float, float]:
    """(lhs, rhs) of the canonical-pair verdict, hbar = 1, same axis."""
    mz, mp = axis_moments(state)
    a, b = mz(p), mp(q)
    if math.isinf(a) or math.isinf(b):
        return 0.5 ** (p * q / (p + q)), math.inf
    return 0.5 ** (p * q / (p + q)), a ** (q / (p + q)) * b ** (p / (p + q))


def reciprocal_cell(state: str, p: float, q: float) -> tuple[float, float]:
    """(1, <r^p>^(q/(p+q)) <r^-q>^(p/(p+q))); rhs is inf when <r^-q> diverges."""
    n = radial_n(state)
    a, b = radial_moment(n, p), radial_moment(n, -q)
    if math.isinf(b):
        return 1.0, math.inf
    return 1.0, a ** (q / (p + q)) * b ** (p / (p + q))


def check_self() -> None:
    """The Beta-sum expansion must reproduce the even-order closed forms."""
    want = {0.0: 1.0, 2.0: 1.0 / 7.0, 4.0: 3.0 / 35.0, 6.0: 1.0 / 7.0}
    for q, v in want.items():
        got = momentum_moment(4, q)
        if abs(got - v) > 1e-13 * v:
            raise AssertionError(f"r4test <p^{q:g}> expansion gives {got}, want {v}")
    for q in (0.5, 2.0, 4.5):
        got = momentum_moment(1, q) / (q + 1.0)
        want_h = hydrogen_abs_pz(q)
        if abs(got - want_h) > 1e-13 * want_h:
            raise AssertionError(f"hydrogen <|p_z|^{q:g}> forms disagree: {got} vs {want_h}")


# ---------------------------------------------------------------------------
# central-field closed forms (alpha = beta = 1; Buckingham gamma = r0 = sigma = 1)


def central_power_law(state: str) -> dict[str, float]:
    n = radial_n(state)
    inv_r = radial_moment(n, -1.0)
    mean_t = 0.5 * momentum_moment(n, 2.0)
    r1, r2 = radial_moment(n, 1.0), radial_moment(n, 2.0)
    dr2 = r2 - r1 * r1
    b = 8.0
    radius = -0.5 / b + math.sqrt(0.25 / (b * b) + r2)
    return {
        "mean_T": mean_t,
        "mean_V": -inv_r,
        "total_E": mean_t - inv_r,
        "E_formula": -0.5 * inv_r,
        "estimate": 1.0 / (8.0 * dr2) - inv_r,
        "delta_r2": dr2,
        "radius": radius,
    }


def central_buckingham(state: str) -> dict[str, float]:
    n = radial_n(state)
    # <e^-r> = N^2 Gamma(2n+1) / 3^(2n+1) = (2/3)^(2n+1)
    mean_exp = (2.0 / 3.0) ** (2 * n + 1)
    bound = mean_exp - 1.0 / radial_moment(n, 6.0)
    rm6 = radial_moment(n, -6.0)
    actual = None if math.isinf(rm6) else mean_exp - rm6
    return {"bound": bound, "actual": actual}


# ---------------------------------------------------------------------------
# finite-dimensional harness


class SplitMix64:
    """Reference SplitMix64 + Box-Muller stream (Steele, Lea & Flood 2014)."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK
        self.spare = None

    def _u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def _uniform(self) -> float:
        return (self._u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        if self.spare is not None:
            v, self.spare = self.spare, None
            return v
        u1 = self._uniform()
        while u1 <= 0.0:
            u1 = self._uniform()
        u2 = self._uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self.spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def complex_array(self, count: int) -> np.ndarray:
        return np.array([complex(self.normal(), self.normal()) for _ in range(count)])


def random_trials(seed: int, dim: int, trials: int):
    """(A, B, psi) per trial, drawn in the CLI's documented order."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(trials):
        mats = []
        for _ in range(2):
            g = rng.complex_array(dim * dim).reshape(dim, dim)
            mats.append(0.5 * (g + g.conj().T))
        psi = rng.complex_array(dim)
        out.append((mats[0], mats[1], psi / np.linalg.norm(psi)))
    return out


def truncated_pair(dim: int):
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)
    x = math.sqrt(0.5) * (a + a.conj().T)
    p = 1j * math.sqrt(0.5) * (a.conj().T - a)
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    return x, p, psi


def _abs_central(m: np.ndarray, psi: np.ndarray, s: float) -> float:
    mu = float(np.real(psi.conj() @ m @ psi))
    lam, v = np.linalg.eigh(m)
    w = np.abs(v.conj().T @ psi) ** 2
    return float(w @ np.abs(lam - mu) ** s)


def _abs_power(m: np.ndarray, psi: np.ndarray, s: float) -> float:
    h = m.conj().T @ m
    lam, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    w = np.abs(v.conj().T @ psi) ** 2
    return float(w @ np.clip(lam, 0.0, None) ** (0.5 * s))


def finite_chain(a, b, psi, p: float, q: float) -> dict[str, tuple[float, float]]:
    """{label: (lhs, rhs)} for both links of the finite chain."""
    r = p * q / (p + q)
    rhs = _abs_central(a, psi, p) ** (q / (p + q)) * _abs_central(b, psi, q) ** (p / (p + q))
    n = a.shape[0]
    da = a - float(np.real(psi.conj() @ a @ psi)) * np.eye(n)
    db = b - float(np.real(psi.conj() @ b @ psi)) * np.eye(n)
    return {
        "finite_product": (_abs_power(da @ db, psi, r), rhs),
        "finite_commutator": (_abs_power(a @ b - b @ a, psi, r) / 2.0**r, rhs),
    }


def holder_pair(rows, p: float, q: float) -> dict[str, tuple[float, float]]:
    """{label: (lhs, rhs)} for the discrete Holder and Schwarz verdicts."""
    total = math.fsum(w for _, _, w in rows)
    ws = [(f, g, w / total) for f, g, w in rows]
    r = p * q / (p + q)
    lhs = math.fsum(w * abs(f * g) ** r for f, g, w in ws)
    mf = math.fsum(w * abs(f) ** p for f, g, w in ws)
    mg = math.fsum(w * abs(g) ** q for f, g, w in ws)
    s1 = math.fsum(w * abs(f * g) for f, g, w in ws)
    sf = math.fsum(w * f * f for f, g, w in ws)
    sg = math.fsum(w * g * g for f, g, w in ws)
    return {
        "holder_discrete": (lhs, mf ** (q / (p + q)) * mg ** (p / (p + q))),
        "schwarz": (s1 * s1, sf * sg),
    }
