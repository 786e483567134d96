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
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import CONVERGENT, DomainError, MomentsError

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

DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-14
DEFAULT_MAX_EVALS = 1_000_000

# resolved by integrate() when a tolerance argument is None; the CLI adjusts
# these once at startup from flags or a config file
_defaults = {
    "rel_tol": DEFAULT_REL_TOL,
    "abs_tol": DEFAULT_ABS_TOL,
    "max_evals": DEFAULT_MAX_EVALS,
}


def set_default_tolerances(
    rel_tol: float | None = None,
    abs_tol: float | None = None,
    max_evals: int | None = None,
) -> None:
    if rel_tol is not None:
        if rel_tol <= 0.0:
            raise DomainError("rel_tol must be positive")
        _defaults["rel_tol"] = float(rel_tol)
    if abs_tol is not None:
        if abs_tol <= 0.0:
            raise DomainError("abs_tol must be positive")
        _defaults["abs_tol"] = float(abs_tol)
    if max_evals is not None:
        if max_evals < 45:
            raise DomainError("max_evals too small for a single panel")
        _defaults["max_evals"] = int(max_evals)

FINITE = "finite"
SEMI_INFINITE = "semi_infinite"
INFINITE = "infinite"

DIVERGENT_AT_ORIGIN = "divergent_at_origin"
DIVERGENT_AT_INFINITY = "divergent_at_infinity"
UNKNOWN = "unknown"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def _kronrod_panel(g: Callable, lo: float, hi: float) -> tuple[float, float]:
    """One K15/G7 evaluation on [lo, hi]; returns (kronrod, |kronrod - gauss|)."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    vals = np.asarray(g(c + h * _XK), dtype=float)
    if vals.shape != _XK.shape:
        raise DomainError("integrand is not vectorized: wrong output shape")
    if not np.all(np.isfinite(vals)):
        raise _NonFiniteIntegrand
    k = h * float(_WK @ vals)
    ga = h * float(_WG @ vals[_GAUSS_IDX])
    return k, abs(k - ga)


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
    rel_tol: float | None = None,
    abs_tol: float | None = None,
    breakpoints: Sequence[float] = (),
    max_evals: int | None = None,
) -> QuadResult:
    """Adaptive panel integration of f over d.

    breakpoints are interior points (in the original coordinate) where the
    integrand has kinks or scale changes; panels never straddle them.
    converged means the summed panel error met max(abs_tol, rel_tol*|value|)
    within the evaluation budget. A non-finite integrand value yields a
    failed result rather than a number. Tolerances default to the module
    settings (rel 1e-10, abs 1e-14, budget 1e6 evaluations).
    """
    rel_tol = _defaults["rel_tol"] if rel_tol is None else rel_tol
    abs_tol = _defaults["abs_tol"] if abs_tol is None else abs_tol
    max_evals = _defaults["max_evals"] if max_evals is None else max_evals
    if rel_tol <= 0.0 or abs_tol <= 0.0:
        raise DomainError("tolerances must be positive")
    g, (lo, hi), inner = _map_domain(f, d, breakpoints)

    edges = [lo] + [p for p in inner if lo < p < hi] + [hi]
    heap: list = []
    total = 0.0
    errsum = 0.0
    evals = 0
    counter = 0
    try:
        for a, b in zip(edges[:-1], edges[1:]):
            k, e = _kronrod_panel(g, a, b)
            evals += 15
            total += k
            errsum += e
            counter += 1
            heapq.heappush(heap, (-e, counter, a, b, k, e))

        while errsum > max(abs_tol, rel_tol * abs(total)) and evals + 30 <= max_evals:
            neg_e, _, a, b, k, e = heapq.heappop(heap)
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:
                # panel at machine width: its error cannot be reduced further
                if not heap:
                    break
                nxt = heap[0]
                if -nxt[0] <= e:
                    break
                heapq.heappush(heap, (neg_e, _, a, b, k, e))
                continue
            k1, e1 = _kronrod_panel(g, a, mid)
            k2, e2 = _kronrod_panel(g, mid, b)
            evals += 30
            total += (k1 + k2) - k
            errsum += (e1 + e2) - e
            counter += 1
            heapq.heappush(heap, (-e1, counter, a, mid, k1, e1))
            counter += 1
            heapq.heappush(heap, (-e2, counter, mid, b, k2, e2))
    except _NonFiniteIntegrand:
        return QuadResult(math.nan, math.inf, evals, converged=False, failed=True)

    errsum = max(errsum, 0.0)
    converged = errsum <= max(abs_tol, rel_tol * abs(total))
    return QuadResult(total, errsum, evals, converged)


@dataclass(frozen=True)
class Envelope:
    """Local behavior of an integrand on [origin, inf).

    origin_power s0 means the integrand behaves like r^s0 at the origin
    endpoint. tail is ("exp", rate) for e^{-rate*r} decay (times any power)
    or ("power", p) for r^p decay; None means unknown.
    """

    origin_power: float | None = None
    tail: tuple[str, float] | None = None

    def shifted(self, delta_origin: float = 0.0, delta_tail: float = 0.0) -> "Envelope":
        """Envelope after multiplying the integrand by r^delta at each end."""
        op = None if self.origin_power is None else self.origin_power + delta_origin
        tl = self.tail
        if tl is not None and tl[0] == "power":
            tl = ("power", tl[1] + delta_tail)
        return Envelope(op, tl)


def detect_divergence(env: Envelope) -> str:
    """Integrability classification of an envelope on [0, inf).

    The origin is non-integrable iff the local power is <= -1; a power tail
    is non-integrable iff its exponent is >= -1; exponential tails always
    integrate. Unknown pieces yield "unknown" and the caller must fall back
    to budgeted integration.
    """
    if env.origin_power is None or env.tail is None:
        return UNKNOWN
    if env.origin_power <= -1.0:
        return DIVERGENT_AT_ORIGIN
    kind, val = env.tail
    if kind == "exp":
        if val <= 0.0:
            return DIVERGENT_AT_INFINITY
        return CONVERGENT
    if kind == "power":
        return CONVERGENT if val < -1.0 else DIVERGENT_AT_INFINITY
    return UNKNOWN


_SINE_NORM = math.sqrt(2.0 / math.pi)
_MAX_SINE_PANELS = 1 << 17
# K15 minus the G7 weights padded onto the Kronrod nodes: one dot product
# gives the K-G difference of a panel
_WKG = _WK.copy()
_WKG[_GAUSS_IDX] -= _WG


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


def sine_transform_batch(
    u: Callable,
    ks: np.ndarray,
    r_max: float,
    r_scale: float = 1.0,
) -> tuple[np.ndarray, float]:
    """sqrt(2/pi) * integral_0^rmax u(r) sin(k r) dr for an array of k >= 0.

    Panels are quarter-period in the fastest oscillation of the batch (and
    never coarser than half the radial scale), so the fixed K15 rule is
    effectively exact per panel; u is evaluated once for the whole batch.
    Returns (values, summed K-G error estimate of the worst k).

    The phase at node c_j + h*x_m is factored as
    sin(k c_j) cos(k h x_m) + cos(k c_j) sin(k h x_m): the per-panel K15
    sums and K15-G7 differences come out of one matmul of the K x 15 offset
    terms against u, and no K x 15n array is formed.
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    if np.any(ks < 0.0):
        raise DomainError("sine transform needs k >= 0")
    kmax = float(ks.max(initial=0.0))
    n = max(
        int(math.ceil(r_max / (0.5 * r_scale))),
        int(math.ceil(2.0 * kmax * r_max / math.pi)),
        4,
    )
    if n > _MAX_SINE_PANELS:
        raise MomentsError(
            f"sine transform needs {n} panels (k={kmax:.3g}, r_max={r_max:.3g}); "
            f"exceeds the {_MAX_SINE_PANELS} panel cap"
        )
    edges = np.linspace(0.0, r_max, n + 1)
    c = 0.5 * (edges[:-1] + edges[1:])
    h = 0.5 * (edges[1] - edges[0])
    nodes = (c[:, None] + h * _XK[None, :]).ravel()
    uv = np.asarray(u(nodes), dtype=float)
    if not np.all(np.isfinite(uv)):
        raise MomentsError("non-finite radial wavefunction value in sine transform")
    off = ks[:, None] * (h * _XK)[None, :]
    cos_off, sin_off = np.cos(off), np.sin(off)
    # rows: K15 cos, K15 sin, (K15 - G7) cos, (K15 - G7) sin, each K x 15
    weights = np.concatenate([cos_off * _WK, sin_off * _WK,
                              cos_off * _WKG, sin_off * _WKG])
    sums = (weights @ uv.reshape(n, 15).T).reshape(4, len(ks), n)
    # centre phases k*c_j from blocks of panels: c_j = (block start) + (offset
    # of the centre in its block), so trig runs on K x ~2 sqrt(n) entries
    width = r_max / n
    size = math.isqrt(n) + 1
    sa, ca = _sin_cos_outer(ks, np.arange(-(-n // size)) * (size * width))
    sb, cb = _sin_cos_outer(ks, (np.arange(size) + 0.5) * width)
    sa, ca, sb, cb = sa[:, :, None], ca[:, :, None], sb[:, None, :], cb[:, None, :]
    sin_c = (sa * cb + ca * sb).reshape(len(ks), -1)[:, :n]
    cos_c = (ca * cb - sa * sb).reshape(len(ks), -1)[:, :n]
    k15 = sin_c * sums[0] + cos_c * sums[1]
    diff = sin_c * sums[2] + cos_c * sums[3]
    vals = _SINE_NORM * h * k15.sum(axis=1)
    err = _SINE_NORM * h * float(np.abs(diff).sum(axis=1).max())
    return vals, err


def sine_transform(
    u: Callable,
    k: float,
    r_max: float,
    r_scale: float = 1.0,
    tol: float = 1e-8,
) -> float:
    """Radial sine-transform amplitude at a single k.

    Normalization: if int u^2 dr = 1 then the transform w satisfies
    int_0^inf w(k)^2 dk = 1. Raises MomentsError when the oscillatory sum
    cannot be trusted to tol.
    """
    if k == 0.0:
        return 0.0
    vals, err = sine_transform_batch(u, np.array([k]), r_max, r_scale)
    if err > max(tol, tol * abs(float(vals[0]))):
        raise MomentsError(f"sine transform error estimate {err:.3g} exceeds tol at k={k:.6g}")
    return float(vals[0])
