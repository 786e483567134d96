"""The G7/K15 Gauss-Kronrod rule, of which this module is the one owner, and
the radial sine transform.

integrate(f, a, b, tol, breakpoints) refines panels of [a, b] adaptively;
panel_sum(f, nodes, h, tol) makes one pass on panels the caller chose
(kronrod_nodes); both converge by one target. RadialSamples transforms values
sampled at RadialSamples.nodes. Kronrod nodes are interior, so endpoint
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


def _target(tol: Tolerances, value: float) -> float:
    """The error an integral of this value must meet at tol."""
    return max(tol.abs_tol, tol.rel_tol * abs(value))


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
    return QuadResult(value, err, nodes.size, converged=err <= _target(tol, value))


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
    converged means the summed panel error met
    max(tol.abs_tol, tol.rel_tol*|value|) within tol.max_evals integrand
    evaluations; Tolerances validated both targets when it was built. A
    non-finite integrand value or panel sum yields a failed result at once,
    rather than a number; its evaluations count the round that met it.

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
            excess = errsum - _target(tol, total)
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

    return QuadResult(total, errsum, evals, errsum <= _target(tol, total))


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
# k per pass of sine_transform, whose work arrays hold (_PASS, _TAPS, 30)
# doubles for every request, so a long request holds no more memory than a
# short one
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


def _sin_cos_outer(k, x) -> tuple[np.ndarray, np.ndarray]:
    """sin and cos of the outer product k_i*x_j, for arrays k and x split by
    _split, corrected to first order for the rounding of each product.
    Uncorrected, that rounding (up to an ulp of k*r_max) is noise in k that
    adaptive k-integrals of steep momentum moments cannot get below."""
    prod, lost = _two_product(tuple(a[:, None] for a in k), x)
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
    """The sine transform of u from its (n, 15) values at the Kronrod nodes
    of n equal panels of [0, r_max] (nodes(r_max, n)), each at most half a
    period of sin(k_max r) wide, so that the fixed K15 rule is exact to
    rounding for a u that is one cubic per panel. The caller picks n and
    samples u; the constructor refuses more than MAX_SINE_PANELS panels.
    Every k <= k_max is transformed against the same samples, so its value
    depends on k alone.

    Node m of panel j sits at c_j + h x_m, c_j = (j + 1/2) d, d = 2h. With
    N = n rounded up to even, j' = j - N/2 and theta = k d,
    sum_j u_jm sin(k r_jm) = Im[exp(i k ((N/2 + 1/2) d + h x_m)) f_m(theta)],
    f_m(theta) = sum_j' u_jm exp(i j' theta), a type-2 non-uniform Fourier
    sum. Gridding with the window phi evaluates it: with M >= 2N points
    theta_t = 2 pi t/M and x = theta M/(2 pi) the grid position of theta,
    f_m(theta) = sum_t phi(x - t) H_tm,
    H_tm = sum_j' (u_jm/phi_hat(2 pi j'/M)) exp(i j' theta_t),
    which one real FFT per node column gives: with u_jm/phi_hat at index
    j' mod M of an M-point array, H_tm = conj(R_tm) for its rfft R. Only the
    _TAPS taps nearest x count, and only the rows of H that theta in
    [0, k_max d] reaches are kept, with the K15 weights, h and sqrt(2/pi)
    folded in: a (rows, 30) table of real parts, then imaginary parts. Row t
    holds H at t mod M, which past M/2 is R_{M - t mod M} as u is real: the
    rows t < 0 that k near 0 reach, and the rows past M/2 that the window
    reaches where k_max d is near pi (half-period panels) or M <= 24."""

    @staticmethod
    def nodes(r_max: float, n: int) -> np.ndarray:
        """The (n, 15) Kronrod nodes of n equal panels of [0, r_max], in
        ascending order: where the constructor takes the values of u."""
        edges = np.linspace(0.0, r_max, n + 1)
        c = 0.5 * (edges[:-1] + edges[1:])
        h = 0.5 * (edges[1] - edges[0])
        return c[:, None] + h * _XK[None, :]

    def __init__(self, values: np.ndarray, r_max: float, k_max: float):
        """The gridded table of the (n, 15) node values (class docstring)."""
        n = values.shape[0]
        if n > MAX_SINE_PANELS:
            raise MomentsError(
                f"sine transform needs {n} panels (k={k_max:.3g}, r_max={r_max:.3g}); "
                f"exceeds the {MAX_SINE_PANELS} panel cap"
            )
        if not np.all(np.isfinite(values)):
            raise MomentsError("non-finite radial wavefunction value in sine transform")
        self.k_max = k_max
        h = 0.5 * (r_max / n)  # bit for bit the h of nodes' linspace
        half = (n + 1) // 2  # N/2
        size = _fft_size(_OVERSAMPLE * 2 * half)  # M
        # the grid position k*d*M/(2 pi) of theta comes from this scale, a
        # double-double: the fraction inside the window is then exact to
        # rounding, and the rounding of k*d is not noise in k
        d = 2.0 * h
        dm, dm_lo = _two_product(_split(d), _split(float(size)))
        s_hi, s_lo = _two_product(_split(dm), _split(_INV_2PI[0]))
        self._scale = _split(s_hi)
        self._scale_lo = s_lo + dm * _INV_2PI[1] + dm_lo * _INV_2PI[0]
        # node m's phase is k*offset_m on top of the grid sum's j'*theta
        self._offsets = _split((half + 0.5) * d + h * _XK)
        # rows t = 1 - _TAPS/2 ... floor(k_max*scale) + _TAPS/2, at t mod M
        t = np.arange(1 - _TAPS // 2, math.floor(k_max * s_hi) + _TAPS // 2 + 1) % size
        low = t <= size // 2
        rows = np.where(low, t, size - t)
        jp = np.arange(n) - half
        decon = 1.0 / _window_transform(size, half + 1)[np.abs(jp)]
        cols = values * (decon[:, None] * (_WK * (_SINE_NORM * h)))
        # column m at index j' mod M: its rfft R gives H_t = conj(R_t)
        wrapped = np.zeros(size)
        table = np.empty((t.size, 30))
        for m in range(15):
            wrapped[:n - half], wrapped[size - half:] = cols[half:, m], cols[:half, m]
            spec = np.fft.rfft(wrapped)[rows]
            table[:, m], table[:, 15 + m] = spec.real, spec.imag
        np.negative(table[:, 15:], out=table[:, 15:], where=low[:, None])
        self._table = table

    def sine_transform(self, ks) -> np.ndarray:
        """The transform at an array of 0 <= k <= k_max of any shape, shaped
        like ks; a non-finite k is a DomainError.

        Per k: the grid position x = k*scale splits into floor(x) and a
        fraction, the _TAPS window weights of the fraction sum the table rows
        from floor(x) on into f_m, and the 15 node phases (the
        rounding-corrected _sin_cos_outer) finish the K15 sum. The k run in
        passes of _PASS through work arrays of a fixed size, and every sum
        runs in numpy's own loops (no BLAS product), so a k's value does not
        depend on the pass or the request it falls in. k = 0 is exactly 0.
        """
        shape = np.shape(ks)
        ks = np.asarray(ks, dtype=float).ravel()
        if not np.all((ks >= 0.0) & (ks <= self.k_max)):
            raise DomainError(f"sine transform on these samples needs 0 <= k <= {self.k_max:.6g}")
        vals = np.empty(ks.size)
        win, scratch = np.empty((2, _PASS, _TAPS))
        rows = np.empty((_PASS, _TAPS), dtype=np.intp)
        gathered = np.empty((_PASS, _TAPS, 30))
        f = np.empty((_PASS, 30))
        for lo in range(0, ks.size, _PASS):
            kb = _split(ks[lo:lo + _PASS])
            m = kb[0].size
            x, x_lo = _two_product(kb, self._scale)
            t0 = np.floor(x)
            frac = (x - t0) + (x_lo + kb[0] * self._scale_lo)
            a = np.add((frac * (2.0 / _TAPS))[:, None], _TAP_OFFSETS, out=win[:m])
            _window(a, scratch[:m])
            # rows t0 ... t0 + _TAPS - 1 lie in the table for every
            # 0 <= k <= k_max, so the take needs no bounds check ("clip")
            np.add(t0.astype(np.intp)[:, None], _TAP_INDEX, out=rows[:m])
            np.take(self._table, rows[:m], axis=0, out=gathered[:m], mode="clip")
            np.einsum("ktc,kt->kc", gathered[:m], a, out=f[:m])
            s, c = _sin_cos_outer(kb, self._offsets)
            vals[lo:lo + m] = (s * f[:m, :15] + c * f[:m, 15:]).sum(axis=1)
        vals[ks == 0.0] = 0.0
        return vals.reshape(shape)
