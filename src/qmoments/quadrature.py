"""Deterministic adaptive quadrature over finite and infinite intervals.

The engine is an adaptive Gauss-Kronrod (G7/K15) panel scheme. Infinite
domains are mapped algebraically onto finite parameter intervals:

    [a, inf)      r = a + t/(1-t),     t in [0, 1)
    (-inf, inf)   x = t/(1-t^2),       t in (-1, 1)

The algebraic map is used (rather than an exponential one) because the
integrands handled here are exponential- or power-tailed and the map keeps
them smooth in t. Kronrod nodes are interior, so endpoint singularities of
the mapped integrand are never sampled.

Integrands must be vectorized: f(np.ndarray) -> np.ndarray of the same shape.
integrate() calls f on a (panels, 15) array of Kronrod nodes, one row per
panel, so an integrand that is not elementwise must keep that shape.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import DEFAULT_TOLERANCES, DomainError, MomentsError, Tolerances, record

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

FINITE = "finite"
SEMI_INFINITE = "semi_infinite"
INFINITE = "infinite"


@record
class Domain:
    """Integration interval: finite [a, b], semi-infinite [a, inf), or the real line."""

    kind: str
    a: float = 0.0
    b: float = 0.0

    @staticmethod
    def finite(a: float, b: float) -> "Domain":
        a, b = float(a), float(b)
        if not a < b:
            raise DomainError(f"finite domain needs a < b, got [{a}, {b}]")
        return Domain(FINITE, a, b)

    @staticmethod
    def semi_infinite(a: float = 0.0) -> "Domain":
        return Domain(SEMI_INFINITE, float(a))

    @staticmethod
    def infinite() -> "Domain":
        return Domain(INFINITE)


@record
class QuadResult:
    value: float
    err_estimate: float
    evaluations: int
    converged: bool
    failed: bool = False

    def require(self, what: str = "integral") -> float:
        if self.failed or not self.converged:
            raise MomentsError(
                f"{what} did not converge "
                f"(err={self.err_estimate:.3g}, evals={self.evaluations}, failed={self.failed})"
            )
        return self.value


class _NonFiniteIntegrand(Exception):
    pass


def _kronrod_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (panels, 15) Kronrod nodes of the panels [lo_i, hi_i] and their
    half-widths. integrate() forms its nodes here, so a table built on the
    same edges holds exactly the nodes integrate() will ask for."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    return c[:, None] + h[:, None] * _XK, h


def _kronrod_panels(g: Callable, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K15/G7 on every panel [lo_i, hi_i] from one integrand call on the
    (panels, 15) node array; returns (kronrod, |kronrod - gauss|) per panel."""
    nodes, h = _kronrod_nodes(lo, hi)
    vals = np.asarray(g(nodes), dtype=float)
    if vals.shape != nodes.shape:
        raise DomainError("integrand is not vectorized: wrong output shape")
    if not np.isfinite(vals).all():
        raise _NonFiniteIntegrand
    sums = h[:, None] * (vals @ _W_PANEL)
    return sums[:, 0], np.abs(sums[:, 1])


def _map_domain(f: Callable, d: Domain, breakpoints: Iterable[float]):
    """Return (mapped integrand, t-interval, mapped interior breakpoints)."""
    pts = sorted(float(p) for p in breakpoints)
    if d.kind == FINITE:
        inner = [p for p in pts if d.a < p < d.b]
        return f, (d.a, d.b), inner
    if d.kind == SEMI_INFINITE:
        a = d.a

        def g(t):
            t = np.asarray(t, dtype=float)
            om = 1.0 - t
            return f(a + t / om) / om**2

        inner = [(p - a) / (1.0 + (p - a)) for p in pts if p > a]
        # default split keeps the first panel from straddling both scales
        return g, (0.0, 1.0), sorted(set(inner) | {0.5})
    if d.kind == INFINITE:

        def g(t):
            t = np.asarray(t, dtype=float)
            om = 1.0 - t * t
            return f(t / om) * (1.0 + t * t) / om**2

        def tmap(x):
            if x == 0.0:
                return 0.0
            return (math.sqrt(1.0 + 4.0 * x * x) - 1.0) / (2.0 * x)

        inner = [tmap(p) for p in pts]
        return g, (-1.0, 1.0), sorted(set(inner) | {-0.5, 0.0, 0.5})
    raise DomainError(f"unknown domain kind {d.kind!r}")


def integrate(
    f: Callable,
    d: Domain,
    tol: Tolerances = DEFAULT_TOLERANCES,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """Adaptive panel integration of f over d.

    breakpoints are interior points (in the original coordinate) where the
    integrand has kinks or scale changes; panels never straddle them.
    converged means the summed panel error met
    max(tol.abs_tol, tol.rel_tol*|value|) within tol.max_evals integrand
    evaluations; Tolerances validated both targets when it was built. A
    non-finite integrand value yields a failed result rather than a number.

    Refinement runs in rounds. Each round bisects the largest-error panels
    whose errors sum to at least the excess over the target, as many as the
    budget leaves room for, and evaluates all their children in one call:
    f receives a (panels, 15) array of nodes and must return an array of the
    same shape. Refinement stops when the largest-error panel is too narrow
    to bisect.
    """
    g, (lo, hi), inner = _map_domain(f, d, breakpoints)

    edges = np.array([lo] + [p for p in inner if lo < p < hi] + [hi])
    n = edges.size - 1
    # panel table, one column per panel: lower end, upper end, K15 value,
    # K-G error; columns [0, n) are live, the rest is room to grow
    pan = np.empty((4, 4 * n))
    pan[0, :n], pan[1, :n] = edges[:-1], edges[1:]
    evals = 0
    try:
        pan[2, :n], pan[3, :n] = _kronrod_panels(g, pan[0, :n], pan[1, :n])
        evals += 15 * n
        while True:
            a, b, k, e = pan[:, :n]
            total, errsum = float(k.sum()), float(e.sum())
            excess = errsum - max(tol.abs_tol, tol.rel_tol * abs(total))
            room = (tol.max_evals - evals) // 30
            if excess <= 0.0 or room < 1:
                break
            worst = int(e.argmax())
            if e[worst] >= excess:  # the rule below, without the sort
                take = np.array([worst])
            else:
                order = np.argsort(e)[::-1]
                take = order[: min(room, int(np.searchsorted(np.cumsum(e[order]), excess)) + 1)]
            lo_t, hi_t = a[take], b[take]
            mid = 0.5 * (lo_t + hi_t)
            splittable = (lo_t < mid) & (mid < hi_t)
            if not splittable[0]:
                break  # the largest error sits on a panel at machine width
            if not splittable.all():
                take, lo_t, hi_t, mid = take[splittable], lo_t[splittable], hi_t[splittable], mid[splittable]
            m = take.size
            kc, ec = _kronrod_panels(g, np.concatenate([lo_t, mid]), np.concatenate([mid, hi_t]))
            evals += 30 * m
            if n + m > pan.shape[1]:
                pan = np.concatenate([pan, np.empty((4, n + m))], axis=1)
            # left children replace their parents, right children are appended
            pan[1:, take] = mid, kc[:m], ec[:m]
            pan[:, n:n + m] = mid, hi_t, kc[m:], ec[m:]
            n += m
    except _NonFiniteIntegrand:
        return QuadResult(math.nan, math.inf, evals, converged=False, failed=True)

    converged = errsum <= max(tol.abs_tol, tol.rel_tol * abs(total))
    return QuadResult(total, errsum, evals, converged)


_SINE_NORM = math.sqrt(2.0 / math.pi)
_MAX_SINE_PANELS = 1 << 17
# entries the (2K, 15 blocks) product array of one k-block of a sine
# transform may hold, unless 15 k need more
_SINE_BLOCK = 1 << 14


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo exactly, hi with at most 26 significant bits (Dekker 1971)."""
    t = a * 134217729.0  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _sin_cos_outer(ks: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin and cos of the outer product k_i*x_j, corrected to first order for
    the rounding of each product (Dekker's two-product). Uncorrected, that
    rounding (up to an ulp of k*r_max) is noise in k that adaptive
    k-integrals of steep momentum moments cannot get below."""
    prod = ks[:, None] * x[None, :]
    (kh, kl), (xh, xl) = _split(ks), _split(x)
    kh, kl = kh[:, None], kl[:, None]
    lost = ((kh * xh - prod) + kh * xl + kl * xh) + kl * xl
    s, c = np.sin(prod), np.cos(prod)
    return s + lost * c, c - lost * s


class RadialSamples:
    """u sampled once at the 15n Kronrod nodes of n equal panels of [0, r_max],
    n = max(ceil(2 r_max/r_scale), ceil(2 k_max r_max/pi), 4): panels a
    quarter-period of sin(k_max r) or shorter (and never longer than half
    the radial scale), on which the fixed K15 rule is effectively exact.
    Every k <= k_max is transformed against the same samples, so its value
    depends on k alone. u is called once, on a 1-d array of the nodes in
    ascending order.

    Panel j = b*size + o, size = isqrt(n) + 1, has its centre at
    c_j = start_b + offset_o. The samples are kept as a (size, 15 blocks)
    array, zero past panel n, so a sum over the panels is a matrix product
    over the offsets o and then a short sum over the blocks b."""

    def __init__(self, u: Callable, r_max: float, r_scale: float, k_max: float):
        n = max(math.ceil(r_max / (0.5 * r_scale)), math.ceil(2.0 * k_max * r_max / math.pi), 4)
        if n > _MAX_SINE_PANELS:
            raise MomentsError(
                f"sine transform needs {n} panels (k={k_max:.3g}, r_max={r_max:.3g}); "
                f"exceeds the {_MAX_SINE_PANELS} panel cap"
            )
        self.k_max = k_max
        edges = np.linspace(0.0, r_max, n + 1)
        c = 0.5 * (edges[:-1] + edges[1:])
        self.h = 0.5 * (edges[1] - edges[0])
        width = r_max / n
        uv = np.asarray(u((c[:, None] + self.h * _XK[None, :]).ravel()), dtype=float)
        if not np.all(np.isfinite(uv)):
            raise MomentsError("non-finite radial wavefunction value in sine transform")
        size = math.isqrt(n) + 1
        self.blocks = -(-n // size)
        # block starts, then centre offsets within a block: the phase points
        self.points = np.concatenate([np.arange(self.blocks) * (size * width),
                                      (np.arange(size) + 0.5) * width])
        # u[o, 15 b + m] is the sample at node m of panel b*size + o
        padded = np.zeros((self.blocks * size, 15))
        padded[:n] = uv.reshape(n, 15)
        self.u = padded.reshape(self.blocks, size, 15).transpose(1, 0, 2).reshape(size, -1)

    def sine_transform(self, ks) -> np.ndarray:
        """The transform at an array of 0 <= k <= k_max of any shape, shaped
        like ks.

        At node c_j + h*x_m the phase splits as
        sin(k c_j) cos(k h x_m) + cos(k c_j) sin(k h x_m), and with
        c_j = start_b + offset_o the centre phase splits as
        sin(k c_j) = sin(k start_b) cos(k offset_o) + cos(k start_b) sin(k offset_o).
        Per block of k, one matrix product gives X = cos(k offset) @ u and
        Y = sin(k offset) @ u; a batched product over the blocks b gives
        Su = sum_j u_jm sin(k c_j) = sum_b sin(k start_b) X_b + cos(k start_b) Y_b
        and Cu = sum_j u_jm cos(k c_j) = sum_b cos(k start_b) X_b - sin(k start_b) Y_b;
        the K15 sum is sum_m WK_m [cos(k h x_m) Su_m + sin(k h x_m) Cu_m].
        No K x n array is formed. The k run in blocks of
        max(15, _SINE_BLOCK // (30 blocks)) through work arrays allocated
        once per call; a k's value does not depend on the block it falls in.
        """
        shape = np.shape(ks)
        ks = np.asarray(ks, dtype=float).ravel()
        if np.any(ks < 0.0) or np.any(ks > self.k_max):
            raise DomainError(f"sine transform on these samples needs 0 <= k <= {self.k_max:.6g}")
        nb, size = self.blocks, self.u.shape[0]
        step = max(15, _SINE_BLOCK // (30 * nb))
        m_w = min(step, len(ks))
        # per k: the offset phases [cos; sin], their products [X; Y] with u,
        # and the block phases [[sin, cos], [cos, -sin]] that mix them
        phase_w = np.empty((m_w, 2, size))
        xy_w = np.empty((m_w, 2, 15 * nb))
        mix_w = np.empty((m_w, 2, 2 * nb))
        vals = np.empty(len(ks))
        for lo in range(0, len(ks), step):
            kb = ks[lo:lo + step]
            m = len(kb)
            s, c = _sin_cos_outer(kb, self.points)
            phase, xy, mix = phase_w[:m], xy_w[:m], mix_w[:m]
            phase[:, 0], phase[:, 1] = c[:, nb:], s[:, nb:]
            np.matmul(phase.reshape(2 * m, size), self.u, out=xy.reshape(2 * m, -1))
            mix[:, 0, :nb], mix[:, 0, nb:], mix[:, 1, :nb] = s[:, :nb], c[:, :nb], c[:, :nb]
            np.negative(s[:, :nb], out=mix[:, 1, nb:])
            su, cu = np.matmul(mix, xy.reshape(m, 2 * nb, 15)).transpose(1, 0, 2)
            off = kb[:, None] * (self.h * _XK)
            vals[lo:lo + step] = (np.cos(off) * su + np.sin(off) * cu) @ _WK
        return _SINE_NORM * self.h * vals.reshape(shape)
