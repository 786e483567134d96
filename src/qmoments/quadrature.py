"""The G7/K15 Gauss-Kronrod rule, of which this module is the one owner, and
the radial sine transform.

integrate(f, a, b, tol, breakpoints) refines panels of [a, b] adaptively;
panel_sum(f, nodes, h, tol) makes one pass on panels the caller chose
(kronrod_nodes); both converge by one target. RadialSamples transforms u on
the equal panels of RadialSamples.nodes, given as its values at those nodes
or as coefficients in a basis such as RadialSamples.power_basis(3). Kronrod
nodes are interior, so endpoint
singularities are never sampled. Integrands must be vectorized: both sums
call f on a (panels, 15) array of nodes, one row per panel, and an integrand
that is not elementwise must keep that shape.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .core import DEFAULT_TOLERANCES, DomainError, MomentsError, MomentValue, Tolerances, record

# 15-point Kronrod nodes on [-1, 1] and their weights, with the embedded
# 7-point Gauss weights (nonzero only on the odd-indexed nodes).
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)
# K15 minus the G7 weights padded onto the Kronrod nodes: one dot product
# gives the K-G difference of a panel
_WKG = _WK.copy()
_WKG[_GAUSS_IDX] -= _WG
_W_PANEL = np.stack([_WK, _WKG], axis=1)


@record
class QuadResult:
    value: float
    err_estimate: float
    evaluations: int
    converged: bool
    failed: bool = False

    def as_moment(self, order: float) -> MomentValue:
        """The integral as the moment of the given order; failed, not a
        number, where the quadrature stalled or met a non-finite value."""
        if self.failed or not self.converged:
            detail = f"quadrature stalled (err={self.err_estimate:.2e}, evals={self.evaluations})"
            return MomentValue.failed(order, detail)
        return MomentValue.convergent(self.value, self.err_estimate, order)


class _NonFiniteIntegrand(Exception):
    pass


def kronrod_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (panels, 15) Kronrod nodes of the panels [lo_i, hi_i] and their
    half-widths. integrate() forms its nodes here, so a table built on the
    same edges holds exactly the nodes integrate() will ask for."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    return c[:, None] + h[:, None] * _XK, h


def _kronrod_panels(g: Callable, nodes: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K15/G7 on every panel from one integrand call on its (panels, 15)
    Kronrod nodes, given with the half-widths h as kronrod_nodes makes
    them; returns (kronrod, |kronrod - gauss|) per panel. A non-finite panel
    sum, which a non-finite integrand value makes too, raises _NonFiniteIntegrand."""
    vals = np.asarray(g(nodes), dtype=float)
    if vals.shape != nodes.shape:
        raise DomainError("integrand is not vectorized: wrong output shape")
    with np.errstate(over="ignore", invalid="ignore"):
        sums = h[:, None] * (vals @ _W_PANEL)
    if not np.isfinite(sums).all():
        raise _NonFiniteIntegrand
    return sums[:, 0], np.abs(sums[:, 1])


def _target(tol: Tolerances, k: np.ndarray) -> float:
    """The error that the panel sums k must meet at tol: rel_tol*|sum k|, or
    QUADPACK's rounding floor 50 eps sum|k| (Piessens et al. 1983), below
    which a smaller error is noise; each integrand is one-signed, so that
    sum|k| is the integral of |f|."""
    return max(tol.rel_tol * abs(float(k.sum())), 50.0 * 2.0**-52 * float(np.abs(k).sum()))


def panel_sum(f: Callable, nodes: np.ndarray, h: np.ndarray, tol: Tolerances) -> QuadResult:
    """One K15/G7 pass, no refinement, on the panels whose nodes and
    half-widths kronrod_nodes gave. converged means the summed K-G error
    met integrate's target at tol; a non-finite integrand value or panel sum
    yields a failed result, rather than a number."""
    try:
        k, e = _kronrod_panels(f, nodes, h)
    except _NonFiniteIntegrand:
        return QuadResult(math.nan, math.inf, nodes.size, converged=False, failed=True)
    value, err = float(k.sum()), float(e.sum())
    return QuadResult(value, err, nodes.size, converged=err <= _target(tol, k))


def integrate(
    f: Callable,
    a: float,
    b: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """Adaptive panel integration of f over [a, b]; DomainError unless a < b.

    breakpoints are points where the integrand has kinks or scale changes;
    panels never straddle them, and those outside (a, b) are ignored.
    converged means the summed panel error met tol.rel_tol*|value|, or the
    rounding floor of the panel sums (_target), within tol.max_evals
    integrand evaluations. A non-finite integrand value or panel sum yields
    a failed result at once, rather than a number; its evaluations count
    the round that met it.

    Refinement runs in rounds. Each round bisects the largest-error panels
    whose errors sum to at least the excess over the target, as many as the
    budget leaves room for, and evaluates all their children in one call:
    f receives a (panels, 15) array of nodes and must return an array of the
    same shape. Refinement stops when the largest-error panel is too narrow
    to bisect.
    """
    lo, hi = float(a), float(b)
    if not lo < hi:
        raise DomainError(f"integration interval needs a < b, got [{lo}, {hi}]")
    inner = sorted(float(p) for p in breakpoints)
    edges = np.array([lo] + [p for p in inner if lo < p < hi] + [hi])
    n = edges.size - 1
    # panel table, one column per panel: lower end, upper end, K15 value,
    # K-G error; columns [0, n) are live, the rest is room to grow
    pan = np.empty((4, 4 * n))
    pan[0, :n], pan[1, :n] = edges[:-1], edges[1:]
    # each round's evaluations count before its integrand call, so a round
    # that meets a non-finite value still reports them
    evals = 15 * n
    try:
        pan[2, :n], pan[3, :n] = _kronrod_panels(f, *kronrod_nodes(pan[0, :n], pan[1, :n]))
        while True:
            left, right, k, e = pan[:, :n]
            total, errsum = float(k.sum()), float(e.sum())
            target = _target(tol, k)
            excess = errsum - target
            room = (tol.max_evals - evals) // 30
            if excess <= 0.0 or room < 1:
                break
            worst = int(e.argmax())
            if e[worst] >= excess:  # the rule below, without the sort
                take = np.array([worst])
            else:
                order = np.argsort(e)[::-1]
                take = order[: min(room, int(np.searchsorted(np.cumsum(e[order]), excess)) + 1)]
            lo_t, hi_t = left[take], right[take]
            mid = 0.5 * (lo_t + hi_t)
            splittable = (lo_t < mid) & (mid < hi_t)
            if not splittable[0]:
                break  # the largest error sits on a panel at machine width
            if not splittable.all():
                take, lo_t, hi_t, mid = take[splittable], lo_t[splittable], hi_t[splittable], mid[splittable]
            m = take.size
            evals += 30 * m
            kc, ec = _kronrod_panels(f, *kronrod_nodes(np.concatenate([lo_t, mid]),
                                                       np.concatenate([mid, hi_t])))
            if n + m > pan.shape[1]:
                pan = np.concatenate([pan, np.empty((4, n + m))], axis=1)
            # left children replace their parents, right children are appended
            pan[1:, take] = mid, kc[:m], ec[:m]
            pan[:, n:n + m] = mid, hi_t, kc[m:], ec[m:]
            n += m
    except _NonFiniteIntegrand:
        return QuadResult(math.nan, math.inf, evals, converged=False, failed=True)

    return QuadResult(total, errsum, evals, errsum <= target)


_SINE_NORM = math.sqrt(2.0 / math.pi)
MAX_SINE_PANELS = 1 << 17
# The "exponential of semicircle" window of the gridded panel sums (Barnett,
# Magland & af Klinteberg 2019): phi(z) = exp(beta (sqrt(1 - (2z/w)^2) - 1))
# on |z| <= w/2 grid steps, w = _TAPS taps on a grid _OVERSAMPLE times the
# panel count, beta = 2.30 w. The transform is then within 7.2e-15 of the
# per-node sums, against the 1e-14 that the tests allow; the error is
# largest for u near r = 0 and r_max, the panels at the edges of the band
_TAPS = 16
_BETA = 2.30 * _TAPS
_OVERSAMPLE = 2
# k per pass of sine_transform, whose work arrays hold (_PASS, _TAPS, 2B)
# doubles for every request (B basis columns: 4 for a cubic's coefficients,
# 15 for node values), so a long request holds no more memory than a short
# one
_PASS = 128
# tap j of a k at grid position floor(x) + frac sits at 2z/w = (frac + w/2 -
# 1 - j)/(w/2), on table row floor(x) + j
_TAP_INDEX = np.arange(_TAPS)
_TAP_OFFSETS = (_TAPS // 2 - 1 - _TAP_INDEX) / (_TAPS // 2)
# 1/(2 pi) as a double-double
_INV_2PI = (0.15915494309189535, -9.839338337591243e-18)


def _split(a):
    """(a, hi, lo) with a = hi + lo exactly, hi with at most 26 significant
    bits (Dekker 1971), for a float or an array."""
    t = a * 134217729.0  # 2^27 + 1
    hi = t - (t - a)
    return a, hi, a - hi


def _two_product(a, b):
    """(p, e) with p = fl(a*b) and p + e = a*b exactly (Dekker 1971), for a
    and b split by _split: floats or broadcasting arrays."""
    (a, ah, al), (b, bh, bl) = a, b
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _sin_cos(prod, lost) -> tuple[np.ndarray, np.ndarray]:
    """sin and cos of the products prod + lost that _two_product gives,
    corrected to first order for the rounding lost. Uncorrected, that
    rounding (up to an ulp of k*r_max) is noise in k that adaptive
    k-integrals of steep momentum moments cannot get below."""
    s, c = np.sin(prod), np.cos(prod)
    return s + lost * c, c - lost * s


def _window(a: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The window at a = 2z/w, in place, with scratch an array of a's shape.
    It is exp(-beta a^2/(1 + sqrt(1 - a^2))): the form sqrt(1 - a^2) - 1 of
    the exponent would lose its relative precision near a = 0 and make the
    window's rounding beta times larger. Past |a| = 1, which the rounding of a
    grid position can reach, 1 - a^2 counts as 0."""
    np.multiply(a, a, out=a)
    np.subtract(1.0, a, out=scratch)
    np.maximum(scratch, 0.0, out=scratch)
    np.sqrt(scratch, out=scratch)
    np.add(scratch, 1.0, out=scratch)
    np.multiply(a, -_BETA, out=a)
    np.divide(a, scratch, out=a)
    return np.exp(a, out=a)


def _window_transform(size: int, count: int) -> np.ndarray:
    """phi_hat(2 pi j/size) = integral of phi(z) cos(2 pi j z/size) dz for
    0 <= j < count <= size/2 + 1. The trapezoid rule at half-step spacing
    is exact to rounding here: its error is phi_hat at frequencies 4 pi
    apart, where the window's transform has fallen to e^-beta of its peak.
    Its cosine sums are one zero-padded real FFT."""
    phi = _window(np.arange(_TAPS + 1.0) / _TAPS, np.empty(_TAPS + 1))
    phi[0] *= 0.5
    reps = -(-(_TAPS + 1) // (2 * size))  # the padded length holds every sample
    return np.fft.rfft(phi, 2 * size * reps)[:count * reps:reps].real


def _fft_size(m: int) -> int:
    """The smallest 5-smooth integer >= m."""
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


class RadialSamples:
    """The sine transform of u on n equal panels of [0, r_max]
    (nodes(r_max, n)), each at most half a period of sin(k_max r) wide, so
    that the fixed K15 rule is exact to rounding for a u that is one cubic
    per panel. u comes as (n, B) coefficients in a basis given by its (15, B)
    values at the Kronrod nodes of a panel: u_jm = sum_b coefs_jb V_mb. The
    default basis is the identity (B = 15), so that coefs are the values of u
    at the nodes; power_basis(3) takes a cubic's 4 coefficients per panel.
    The caller picks n and u; the constructor refuses more than
    MAX_SINE_PANELS panels. Every k <= k_max is transformed against the same
    table, so its value depends on k alone.

    Node m of panel j sits at c_j + h x_m, c_j = (j + 1/2) d, d = 2h. With
    N = n rounded up to even, j' = j - N/2, theta = k d and
    C0 = (N/2 + 1/2) d, the K15 sum is
    sum_j sum_m WK_m u_jm sin(k r_jm) = Im[exp(i k C0) sum_b F_b(theta) Q_b(k)],
    Q_b(k) = sum_m WK_m V_mb exp(i k h x_m),
    F_b(theta) = sum_j' coefs_jb exp(i j' theta), a type-2 non-uniform
    Fourier sum (for the identity, WK_b goes into F_b and Q_b is
    exp(i k h x_b)). Only the phase k C0, up to k r_max, needs the rounding
    correction of _sin_cos; the 15 node phases k h x_m are at most
    pi/2. Gridding with the window phi evaluates F_b: with M >= 2N points
    theta_t = 2 pi t/M and x = theta M/(2 pi) the grid position of theta,
    F_b(theta) = sum_t phi(x - t) H_tb,
    H_tb = sum_j' (coefs_jb/phi_hat(2 pi j'/M)) exp(i j' theta_t),
    which one real FFT per basis column gives: with coefs_jb/phi_hat at
    index j' mod M of an M-point array, H_tb = conj(R_tb) for its rfft R.
    Only the _TAPS taps nearest x count, and only the rows of H that theta
    in [0, k_max d] reaches are kept, with h and sqrt(2/pi) folded in: a
    (rows, 2B) table of real parts, then imaginary parts. Row t holds H at
    t mod M, which past M/2 is R_{M - t mod M} as the coefficients are
    real: the rows t < 0 that k near 0 reach, and the rows past M/2 that the
    window reaches where k_max d is near pi (half-period panels) or M <= 24."""

    @staticmethod
    def nodes(r_max: float, n: int) -> np.ndarray:
        """The (n, 15) Kronrod nodes of n equal panels of [0, r_max], in
        ascending order: where the identity basis takes the values of u."""
        edges = np.linspace(0.0, r_max, n + 1)
        c = 0.5 * (edges[:-1] + edges[1:])
        h = 0.5 * (edges[1] - edges[0])
        return c[:, None] + h * _XK[None, :]

    @staticmethod
    def power_basis(degree: int) -> np.ndarray:
        """The (15, degree + 1) basis of a polynomial's coefficients in the
        unit variable t = (r - left)/width of each panel, highest power
        first: t^degree, ..., t, 1 at the Kronrod nodes t_m = (1 + x_m)/2.
        The coefficients of a panel of any width are then of the size of u,
        so none overflows where the knots do not."""
        return (0.5 * (1.0 + _XK))[:, None] ** np.arange(degree, -1, -1.0)

    def __init__(self, coefs: np.ndarray, r_max: float, k_max: float, basis: np.ndarray | None = None):
        """The gridded table of the (n, B) coefficients in the (15, B) basis,
        the identity where it is None (class docstring)."""
        n = coefs.shape[0]
        if n > MAX_SINE_PANELS:
            raise MomentsError(
                f"sine transform needs {n} panels (k={k_max:.3g}, r_max={r_max:.3g}); "
                f"exceeds the {MAX_SINE_PANELS} panel cap"
            )
        if not np.all(np.isfinite(coefs)):
            raise MomentsError("non-finite radial wavefunction value in sine transform")
        self.k_max = k_max
        h = 0.5 * (r_max / n)  # bit for bit the h of nodes' linspace
        half = (n + 1) // 2  # N/2
        size = _fft_size(_OVERSAMPLE * 2 * half)  # M
        # the grid position k*d*M/(2 pi) of theta comes from this scale, a
        # double-double (s_hi, _scale_lo): the fraction inside the window is
        # then exact to rounding, and the rounding of k*d is not noise in k
        d = 2.0 * h
        dm, dm_lo = _two_product(_split(d), _split(float(size)))
        s_hi, s_lo = _two_product(_split(dm), _split(_INV_2PI[0]))
        self._scale_lo = s_lo + dm * _INV_2PI[1] + dm_lo * _INV_2PI[0]
        # the phase k*C0 is corrected for its rounding (up to an ulp of
        # k r_max, noise in k); the node phases k*h*x_m round at about 1e-16.
        # one _two_product of the k with this column gives both, a row each
        self._factors = _split(np.array([[s_hi], [(half + 0.5) * d]]))
        self._node_offsets = h * _XK
        # Q_b's weights WK_m V_mb as (B, 15) rows; the identity's K15 weights
        # go into the table
        self._weights = None if basis is None else np.ascontiguousarray((_WK[:, None] * basis).T)
        weights = _WK if basis is None else 1.0
        # rows t = 1 - _TAPS/2 ... floor(k_max*scale) + _TAPS/2, at t mod M
        t = np.arange(1 - _TAPS // 2, math.floor(k_max * s_hi) + _TAPS // 2 + 1) % size
        low = t <= size // 2
        rows = np.where(low, t, size - t)
        jp = np.arange(n) - half
        decon = 1.0 / _window_transform(size, half + 1)[np.abs(jp)]
        cols = coefs * (decon[:, None] * (weights * (_SINE_NORM * h)))
        # column b at index j' mod M: its rfft R gives H_t = conj(R_t)
        width = cols.shape[1]
        wrapped = np.zeros(size)
        table = np.empty((t.size, 2 * width))
        for b in range(width):
            wrapped[:n - half], wrapped[size - half:] = cols[half:, b], cols[:half, b]
            spec = np.fft.rfft(wrapped)[rows]
            table[:, b], table[:, width + b] = spec.real, spec.imag
        np.negative(table[:, width:], out=table[:, width:], where=low[:, None])
        self._table = table

    def sine_transform(self, ks) -> np.ndarray:
        """The transform at an array of 0 <= k <= k_max of any shape, shaped
        like ks; a non-finite k is a DomainError.

        Per k: one _two_product with (scale, C0) gives the grid position
        x = k*scale and the phase k*C0, each with its rounding. x splits into
        floor(x) and a fraction, the _TAPS window weights of the fraction sum
        the table rows from floor(x) on into F_b, the 15 node phases give
        Q_b, and the phase k*C0 (rounding-corrected by _sin_cos) finishes the
        K15 sum. The k run in passes of _PASS through work arrays of a fixed
        size, and every sum runs in numpy's own loops (no BLAS product), so a
        k's value does not depend on the pass or the request it falls in.
        k = 0 is exactly 0.
        """
        shape = np.shape(ks)
        ks = np.asarray(ks, dtype=float).ravel()
        if not np.all((ks >= 0.0) & (ks <= self.k_max)):
            raise DomainError(f"sine transform on these samples needs 0 <= k <= {self.k_max:.6g}")
        width = self._table.shape[1] // 2
        vals = np.empty(ks.size)
        win, scratch = np.empty((2, _PASS, _TAPS))
        rows = np.empty((_PASS, _TAPS), dtype=np.intp)
        gathered = np.empty((_PASS, _TAPS, 2 * width))
        f, z = np.empty((2, _PASS, 2 * width))
        phase = np.empty((_PASS, 15))
        trig = np.empty((_PASS, 2, 15))
        q = np.empty((_PASS, 2, width))
        for lo in range(0, ks.size, _PASS):
            kb = _split(ks[lo:lo + _PASS])
            m = kb[0].size
            prod, lost = _two_product(kb, self._factors)  # (2, m): rows x and k*C0
            x = prod[0]
            t0 = np.floor(x)
            frac = (x - t0) + (lost[0] + kb[0] * self._scale_lo)
            a = np.add((frac * (2.0 / _TAPS))[:, None], _TAP_OFFSETS, out=win[:m])
            _window(a, scratch[:m])
            # rows t0 ... t0 + _TAPS - 1 lie in the table for every
            # 0 <= k <= k_max, so the take needs no bounds check ("clip")
            np.add(t0.astype(np.intp)[:, None], _TAP_INDEX, out=rows[:m])
            np.take(self._table, rows[:m], axis=0, out=gathered[:m], mode="clip")
            np.einsum("ktc,kt->kc", gathered[:m], a, out=f[:m])
            # Q_b = qc + i qs, times exp(i k C0) = c + i s
            np.multiply(kb[0][:, None], self._node_offsets, out=phase[:m])
            np.cos(phase[:m], out=trig[:m, 0])
            np.sin(phase[:m], out=trig[:m, 1])
            qk = trig[:m]
            if self._weights is not None:
                qk = np.einsum("kin,bn->kib", qk, self._weights, out=q[:m])
            qc, qs = qk[:, 0], qk[:, 1]
            s, c = _sin_cos(prod[1, :, None], lost[1, :, None])
            # Im[(c + i s) Q_b (Re F_b + i Im F_b)], Re F_b in the first half of f
            z[:m, :width] = s * qc + c * qs
            z[:m, width:] = c * qc - s * qs
            np.einsum("kc,kc->k", f[:m], z[:m], out=vals[lo:lo + m])
        vals[ks == 0.0] = 0.0
        return vals.reshape(shape)
