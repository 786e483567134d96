"""Inequality verdicts: two-function moment bounds, canonical-pair and
finite-dimensional uncertainty checks, and classic discrete-density forms.

Two different contracts coexist here and the distinction matters:

* "guaranteed" inequalities (the weighted-moment product bound on genuine
  densities, its reciprocal-moment corollary, Schwarz) are mathematically
  true for every valid input; a violated verdict means a numerical bug and
  is flagged with internal-error severity.
* probe inequalities (the finite-dimensional operator chain, canonical-pair
  checks at general orders) are claims under test; violations are reported
  with full reproduction data and never raised as errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .core import (
    DIVERGENT,
    DomainError,
    Exponents,
    MomentsError,
    MomentValue,
    Verdict,
    make_exponents,
    make_verdict,
)
from .matrixlab import (
    FiniteState,
    HermitianOperator,
    abs_central_moment_finite,
    abs_power_expectation,
    central_shift,
    commutator,
)
from . import moments as mo
from .states import ContinuousState


@dataclass(frozen=True)
class DivergenceReport:
    """Emitted instead of a Verdict when a required moment diverges."""

    label: str
    detail: str
    inputs: dict[str, Any] = field(default_factory=dict)

    status = "divergent"

    def to_dict(self) -> dict[str, Any]:
        return {"label": self.label, "status": self.status, "detail": self.detail,
                "inputs": dict(self.inputs)}


def _divergence_report(label: str, name: str, m: MomentValue,
                       inputs: dict[str, Any]) -> DivergenceReport:
    """The report for a side moment that did not converge. A failed moment
    raises MomentsError instead: it was not computed, so it says nothing
    about whether the moment is finite."""
    if m.status != DIVERGENT:
        raise MomentsError(f"{label}: {name} is {m.status}: {m.detail}")
    return DivergenceReport(label, f"{name} is {m.status}: {m.detail}", inputs)


@dataclass(frozen=True)
class DiscreteDensity:
    """Weighted sample points (f_i, g_i, w_i); weights renormalized to sum 1."""

    f: np.ndarray
    g: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float).ravel()
        g = np.asarray(self.g, dtype=float).ravel()
        w = np.asarray(self.w, dtype=float).ravel()
        if f.size == 0 or f.shape != g.shape or f.shape != w.shape:
            raise DomainError("density needs equal-length nonempty f, g, w")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g)) and np.all(np.isfinite(w))):
            raise DomainError("density values must be finite")
        if np.any(w < 0.0):
            raise DomainError("weights must be nonnegative")
        total = w.sum()
        if total <= 0.0:
            raise DomainError("weights must not all vanish")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "w", w / total)

    @staticmethod
    def from_points(points: Sequence[tuple[float, float, float]]) -> "DiscreteDensity":
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise DomainError("points must be (f, g, weight) triples")
        return DiscreteDensity(arr[:, 0], arr[:, 1], arr[:, 2])

    @staticmethod
    def uniform(f, g) -> "DiscreteDensity":
        f = np.asarray(f, dtype=float)
        return DiscreteDensity(f, g, np.ones_like(f))


@dataclass(frozen=True)
class RadialFunction:
    """A radial factor with the origin power needed for divergence counting."""

    fn: Callable
    origin_power: float
    label: str


RF_R = RadialFunction(lambda r: r, 1.0, "r")
RF_RINV = RadialFunction(lambda r: 1.0 / r, -1.0, "1/r")

#: one side of a two-moment verdict: the moment of a given order
SideMoment = Callable[[float], MomentValue]


# ---------------------------------------------------------------------------
# discrete densities


def holder_verdict(d: DiscreteDensity, e: Exponents, slack: float | None = None) -> Verdict:
    """Sum w|fg|^r* <= (Sum w|f|^p)^(q/(p+q)) (Sum w|g|^q)^(p/(p+q)).

    Guaranteed for every valid density; a false verdict is flagged as an
    internal error (numerical bug), not as physics.
    """
    lhs = float(d.w @ np.abs(d.f * d.g) ** e.r_star)
    mf = float(d.w @ np.abs(d.f) ** e.p)
    mg = float(d.w @ np.abs(d.g) ** e.q)
    rhs = mf**e.w_f * mg**e.w_g
    v = make_verdict(
        "holder_discrete", lhs, rhs, slack,
        {"p": e.p, "q": e.q, "r_star": e.r_star, "n_points": int(d.f.size), "guaranteed": True},
    )
    return _flag_internal_error(v)


def schwarz_verdict(d: DiscreteDensity, slack: float | None = None) -> Verdict:
    """(Sum w|fg|)^2 <= (Sum w f^2)(Sum w g^2), the squared form so both
    sides carry identical dimensions."""
    lhs = float(d.w @ np.abs(d.f * d.g)) ** 2
    rhs = float(d.w @ d.f**2) * float(d.w @ d.g**2)
    v = make_verdict("schwarz", lhs, rhs, slack, {"n_points": int(d.f.size), "guaranteed": True})
    return _flag_internal_error(v)


def _flag_internal_error(v: Verdict) -> Verdict:
    if not v.holds:
        inputs = dict(v.inputs)
        inputs["severity"] = "internal-error"
        return Verdict(v.label, v.lhs, v.rhs, v.slack, inputs)
    return v


# ---------------------------------------------------------------------------
# continuous states


def _radial_abs_moment(s: ContinuousState, rf: RadialFunction, order: float) -> MomentValue:
    obs = mo.custom_radial(lambda r: np.abs(rf.fn(r)), rf.origin_power, f"|{rf.label}|")
    return mo.raw_moment(s, obs, order)


def holder_verdict_continuous(
    s: ContinuousState,
    f: RadialFunction,
    g: RadialFunction,
    e: Exponents,
    slack: float | None = None,
) -> Verdict | DivergenceReport:
    """The two-function moment bound with radial weights f, g on a state."""
    inputs = {"state": s.label, "f": f.label, "g": g.label, "p": e.p, "q": e.q,
              "r_star": e.r_star, "guaranteed": True}
    prod = RadialFunction(
        lambda r: f.fn(r) * g.fn(r), f.origin_power + g.origin_power, f"{f.label}*{g.label}"
    )
    sides = {
        f"<|{prod.label}|^r*>": _radial_abs_moment(s, prod, e.r_star),
        f"<|{f.label}|^p>": _radial_abs_moment(s, f, e.p),
        f"<|{g.label}|^q>": _radial_abs_moment(s, g, e.q),
    }
    for name, m in sides.items():
        if not m.is_convergent:
            return _divergence_report("holder_continuous", name, m, inputs)
    vals = [m.value for m in sides.values()]
    lhs = vals[0]
    rhs = vals[1] ** e.w_f * vals[2] ** e.w_g
    return _flag_internal_error(make_verdict("holder_continuous", lhs, rhs, slack, inputs))


def _reciprocal_sides(s: ContinuousState) -> tuple[SideMoment, SideMoment]:
    """<r^p> as a function of p and <r^-q> as a function of q."""
    return (lambda p: mo.raw_moment(s, mo.radial(), p),
            lambda q: mo.raw_moment(s, mo.radial(), -q))


def reciprocal_moment_verdict(
    s: ContinuousState, e: Exponents, slack: float | None = None
) -> Verdict | DivergenceReport:
    """1 <= <r^p>^(q/(p+q)) <r^-q>^(p/(p+q)), the f=r, g=1/r corollary."""
    return _reciprocal_verdict(s, e, *_reciprocal_sides(s), slack)


def _reciprocal_verdict(
    s: ContinuousState, e: Exponents, r_pos: SideMoment, r_neg: SideMoment,
    slack: float | None,
) -> Verdict | DivergenceReport:
    inputs = {"state": s.label, "p": e.p, "q": e.q, "guaranteed": True}
    mp = r_pos(e.p)
    if not mp.is_convergent:
        return _divergence_report("reciprocal_moments", "<r^p>", mp, inputs)
    mq = r_neg(e.q)
    if not mq.is_convergent:
        return _divergence_report("reciprocal_moments", "<r^-q>", mq, inputs)
    rhs = mp.value**e.w_f * mq.value**e.w_g
    return _flag_internal_error(make_verdict("reciprocal_moments", 1.0, rhs, slack, inputs))


def _canonical_sides(s: ContinuousState, i: int, j: int) -> tuple[SideMoment, SideMoment]:
    """<|Dx_i|^p> as a function of p and <|Dp_j|^q> as a function of q."""
    return (lambda p: mo.abs_central_moment(s, mo.position_axis(i), p),
            lambda q: mo.abs_central_moment(s, mo.momentum_axis(j), q))


def uncertainty_verdict_canonical(
    s: ContinuousState,
    i: int,
    j: int,
    e: Exponents,
    slack: float | None = None,
) -> Verdict | DivergenceReport:
    """(hbar/2)^r* delta_ij <= <|Dx_i|^p>^(q/(p+q)) <|Dp_j|^q>^(p/(p+q)).

    The left side uses the ideal c-number commutator value, not a truncated
    matrix. This is a verifier: the verdict records whether the bound holds,
    it does not assume it.
    """
    return _canonical_verdict(s, i, j, e, *_canonical_sides(s, i, j), slack)


def _canonical_verdict(
    s: ContinuousState, i: int, j: int, e: Exponents, x_moment: SideMoment,
    p_moment: SideMoment, slack: float | None,
) -> Verdict | DivergenceReport:
    hbar = s.constants.hbar
    inputs = {"state": s.label, "i": i, "j": j, "p": e.p, "q": e.q, "r_star": e.r_star}
    mx = x_moment(e.p)
    if not mx.is_convergent:
        return _divergence_report("canonical_pair", "<|Dx|^p>", mx, inputs)
    mp_ = p_moment(e.q)
    if not mp_.is_convergent:
        return _divergence_report("canonical_pair", "<|Dp|^q>", mp_, inputs)
    lhs = (hbar / 2.0) ** e.r_star if i == j else 0.0
    rhs = mx.value**e.w_f * mp_.value**e.w_g
    return make_verdict("canonical_pair", lhs, rhs, slack, inputs)


# ---------------------------------------------------------------------------
# finite-dimensional chain


def uncertainty_chain_finite(
    a: HermitianOperator,
    b: HermitianOperator,
    psi: FiniteState,
    e: Exponents,
    slack: float | None = None,
) -> tuple[Verdict, Verdict]:
    """Both finite-dimensional bounds against the shared moment product.

    link 1:  <|DA DB|^r*>            <= <|DA|^p>^w_f <|DB|^q>^w_g
    link 2:  <|[A,B]|^r*> / 2^r*     <= same right side

    Either link may fail for particular (A, B, psi, p, q); failures are
    recorded in the verdicts (falsification semantics), never raised.
    """
    rhs = (
        abs_central_moment_finite(a, psi, e.p) ** e.w_f
        * abs_central_moment_finite(b, psi, e.q) ** e.w_g
    )
    da = central_shift(a, psi)
    db = central_shift(b, psi)
    lhs1 = abs_power_expectation(da.entries @ db.entries, psi, e.r_star)
    lhs2 = abs_power_expectation(commutator(a, b), psi, e.r_star) / 2.0**e.r_star
    inputs = {"dim": a.dim, "p": e.p, "q": e.q, "r_star": e.r_star}
    return (
        make_verdict("finite_product", lhs1, rhs, slack, inputs),
        make_verdict("finite_commutator", lhs2, rhs, slack, inputs),
    )


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepRow:
    p: float
    q: float
    r_star: float
    lhs: float
    rhs: float
    ratio: float
    holds: bool | None
    status: str
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "p": self.p, "q": self.q, "r_star": self.r_star, "lhs": self.lhs,
            "rhs": self.rhs, "ratio": self.ratio, "holds": self.holds,
            "status": self.status, "detail": self.detail,
        }


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]
    kind: str

    CSV_HEADER = "p,q,r_star,lhs,rhs,ratio,holds,status"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            if r.status == "ok":
                nums = f"{r.lhs!r},{r.rhs!r},{r.ratio!r},{str(r.holds).lower()}"
            else:
                nums = ",,,"
            lines.append(f"{r.p!r},{r.q!r},{r.r_star!r},{nums},{r.status}")
        return "\n".join(lines) + "\n"

    @property
    def any_violation(self) -> bool:
        return any(r.status == "ok" and r.holds is False for r in self.rows)

    @property
    def any_divergent(self) -> bool:
        return any(r.status == "divergent" for r in self.rows)


CANONICAL = "canonical"
RECIPROCAL = "reciprocal"


def _once_per_order(side: SideMoment) -> SideMoment:
    """side computed at most once per order; a raised exception is kept and
    raised again for every later cell that needs the same moment. Cells call
    it in row-major order, so the moments run in the order that cell-by-cell
    evaluation would run them."""
    memo: dict[float, MomentValue | Exception] = {}

    def once(order: float) -> MomentValue:
        if order not in memo:
            try:
                memo[order] = side(order)
            except Exception as exc:  # failure is a per-cell outcome
                memo[order] = exc
        got = memo[order]
        if isinstance(got, Exception):
            raise got
        return got

    return once


def sweep(
    s: ContinuousState,
    i: int,
    j: int,
    p_grid: Sequence[float],
    q_grid: Sequence[float],
    kind: str = CANONICAL,
    slack: float | None = None,
) -> SweepTable:
    """One verdict per (p, q) cell, row-major over the grids.

    Cells whose moments diverge carry status "divergent"; failures are
    recorded per cell and never abort the sweep.
    """
    if len(p_grid) == 0 or len(q_grid) == 0:
        raise DomainError("sweep grids must be nonempty")
    if kind not in (CANONICAL, RECIPROCAL):
        raise DomainError(f"unknown sweep kind {kind!r}")
    if kind == CANONICAL:
        x_side, p_side = map(_once_per_order, _canonical_sides(s, i, j))
    else:
        x_side, p_side = map(_once_per_order, _reciprocal_sides(s))
    rows: list[SweepRow] = []
    for p in p_grid:
        for q in q_grid:
            e = make_exponents(p, q)
            try:
                if kind == CANONICAL:
                    out = _canonical_verdict(s, i, j, e, x_side, p_side, slack)
                else:
                    out = _reciprocal_verdict(s, e, x_side, p_side, slack)
            except Exception as exc:  # failure is a per-cell outcome
                rows.append(SweepRow(e.p, e.q, e.r_star, math.nan, math.nan, math.nan,
                                     None, "failed", str(exc)))
                continue
            if isinstance(out, DivergenceReport):
                rows.append(SweepRow(e.p, e.q, e.r_star, math.nan, math.nan, math.nan,
                                     None, "divergent", out.detail))
            else:
                rows.append(SweepRow(e.p, e.q, e.r_star, out.lhs, out.rhs, out.ratio,
                                     out.holds, "ok"))
    return SweepTable(tuple(rows), kind)


# ---------------------------------------------------------------------------
# seeded random inputs for the harnesses


def random_density(rng, n_points: int) -> DiscreteDensity:
    """Bounded random density: f, g uniform in [0, 2], weights uniform (0, 1]."""
    f = np.array([rng.uniform_in(0.0, 2.0) for _ in range(n_points)])
    g = np.array([rng.uniform_in(0.0, 2.0) for _ in range(n_points)])
    w = np.array([1.0 - rng.uniform() for _ in range(n_points)])
    return DiscreteDensity(f, g, w)


def equality_density(rng, n_points: int, e: Exponents) -> DiscreteDensity:
    """A density on the equality manifold |f|^p proportional to |g|^q."""
    g = np.array([rng.uniform_in(0.05, 2.0) for _ in range(n_points)])
    w = np.array([1.0 - rng.uniform() for _ in range(n_points)])
    f = g ** (e.q / e.p)
    return DiscreteDensity(f, g, w)
