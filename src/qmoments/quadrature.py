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
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import CONVERGENT, DomainError, MomentsError, _require_positive_finite

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
        _defaults["rel_tol"] = _require_positive_finite("rel_tol", rel_tol)
    if abs_tol is not None:
        _defaults["abs_tol"] = _require_positive_finite("abs_tol", abs_tol)
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

    Refinement runs in rounds. Each round bisects the largest-error panels
    whose errors sum to at least the excess over the target, as many as the
    budget leaves room for, and evaluates all their children in one call:
    f receives a (panels, 15) array of nodes and must return an array of the
    same shape. Refinement stops when the largest-error panel is too narrow
    to bisect.
    """
    rel_tol = _defaults["rel_tol"] if rel_tol is None else rel_tol
    abs_tol = _defaults["abs_tol"] if abs_tol is None else abs_tol
    max_evals = _defaults["max_evals"] if max_evals is None else max_evals
    if rel_tol <= 0.0 or abs_tol <= 0.0:
        raise DomainError("tolerances must be positive")
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
            excess = errsum - max(abs_tol, rel_tol * abs(total))
            room = (max_evals - evals) // 30
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
# K x n entries a k-block of _sine_batch may hold, unless one 15-k row needs more
_SINE_BLOCK = 1 << 15


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

    A 2-D ks is a stack of k-panels, one per row, as integrate() passes
    them: each row is transformed as a batch of its own, so a row's values
    do not depend on the other rows.
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    if np.any(ks < 0.0):
        raise DomainError("sine transform needs k >= 0")
    if ks.ndim == 1:
        return _sine_batch(u, ks, r_max, r_scale)
    rows = [_sine_batch(u, row, r_max, r_scale) for row in ks.reshape(-1, ks.shape[-1])]
    return np.array([v for v, _ in rows]).reshape(ks.shape), max(err for _, err in rows)


def _sine_batch(u: Callable, ks: np.ndarray, r_max: float, r_scale: float) -> tuple[np.ndarray, float]:
    """sine_transform_batch for a 1-D ks.

    u is evaluated once, at the 15n Kronrod nodes of the radial panels. The
    phase at node c_j + h*x_m is factored as
    sin(k c_j) cos(k h x_m) + cos(k c_j) sin(k h x_m): the per-panel K15
    sums and K15-G7 differences come out of one matmul of the K x 15 offset
    terms against u, and no K x 15n array is formed.

    The k run in blocks of max(15, _SINE_BLOCK // n) through work arrays
    allocated once per call, so each K x n work array holds at most
    max(15 n, _SINE_BLOCK) entries: from n = 2185 up (k_cut of a grid
    state) a 128-k chunk needs no more memory than one 15-node k-panel.
    Each k's value does not depend on the block it falls in.
    """
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
    ut = uv.reshape(n, 15).T
    # centre phases k*c_j from blocks of panels: c_j = (block start) + (offset
    # of the centre in its block), so trig runs on K x ~2 sqrt(n) entries
    width = r_max / n
    size = math.isqrt(n) + 1
    starts = np.arange(-(-n // size)) * (size * width)
    offsets = (np.arange(size) + 0.5) * width
    step = max(15, _SINE_BLOCK // n)
    # one block's K x n arrays, reused by every block: the per-panel sums
    # (K15 cos, K15 sin, (K15 - G7) cos, (K15 - G7) sin) and the centre
    # phases sin(k c_j), cos(k c_j) with a scratch row, over whole blocks
    # of panels
    sums_w = np.empty((4, min(step, len(ks)), n))
    phase_w = np.empty((3, min(step, len(ks)), len(starts), size))
    vals = np.empty(len(ks))
    err = 0.0
    for lo in range(0, len(ks), step):
        kb = ks[lo:lo + step]
        m = len(kb)
        off = kb[:, None] * (h * _XK)[None, :]
        cos_off, sin_off = np.cos(off), np.sin(off)
        sums = sums_w[:, :m]
        for row, w in zip(sums, (cos_off * _WK, sin_off * _WK, cos_off * _WKG, sin_off * _WKG)):
            np.matmul(w, ut, out=row)
        sa, ca = _sin_cos_outer(kb, starts)
        sb, cb = _sin_cos_outer(kb, offsets)
        sa, ca, sb, cb = sa[:, :, None], ca[:, :, None], sb[:, None, :], cb[:, None, :]
        sin_c, cos_c, tmp = phase_w[:, :m]
        np.multiply(sa, cb, out=sin_c)
        sin_c += np.multiply(ca, sb, out=tmp)
        np.multiply(ca, cb, out=cos_c)
        cos_c -= np.multiply(sa, sb, out=tmp)
        sin_c, cos_c, tmp = (a.reshape(m, -1)[:, :n] for a in (sin_c, cos_c, tmp))
        np.multiply(sin_c, sums[0], out=tmp)
        tmp += cos_c * sums[1]
        vals[lo:lo + step] = tmp.sum(axis=1)
        np.multiply(sin_c, sums[2], out=tmp)
        tmp += cos_c * sums[3]
        err = max(err, float(np.abs(tmp).sum(axis=1).max()))
    return _SINE_NORM * h * vals, _SINE_NORM * h * err


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
