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

The canonical, reciprocal, continuous and discrete verdicts need no arrays:
the discrete sums are exactly rounded sums (math.fsum) over columns scaled by
powers of two. The finite half reaches numpy through matrixlab, a deferred
module, when first called.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from itertools import chain, repeat
from operator import mul, truediv
from typing import Any, Callable, NamedTuple, Sequence

from .core import (
    DIVERGENT,
    FAILED,
    DomainError,
    Exponents,
    MomentsError,
    MomentValue,
    Verdict,
    _require_normal,
    make_exponents,
    make_verdict,
    out_of_range,
    record,
)
from .exact import ContinuousState
from . import matrixlab
from . import moments as mo


@record
class DiscreteDensity:
    """Weighted sample points (f_i, g_i, w_i); weights renormalized to sum 1.

    Each field is a tuple of floats. Lists, tuples and arrays go in; an
    array of any shape goes in flattened. The weights are first divided by
    the power of two above the largest one, exactly, so that their sum stays
    in the double range."""

    f: tuple[float, ...]
    g: tuple[float, ...]
    w: tuple[float, ...]

    def __post_init__(self):
        f, g, w = (_floats(x) for x in (self.f, self.g, self.w))
        if not f or len(f) != len(g) or len(f) != len(w):
            raise DomainError("density needs equal-length nonempty f, g, w")
        if not all(map(math.isfinite, chain(f, g, w))):
            raise DomainError("density values must be finite")
        if min(w) < 0.0:
            raise DomainError("weights must be nonnegative")
        top = max(w)
        if not top > 0.0:
            raise DomainError("weights must not all vanish")
        w = tuple(map(math.ldexp, w, repeat(-math.frexp(top)[1])))
        self.__dict__.update(f=f, g=g, w=tuple(map(truediv, w, repeat(math.fsum(w)))))

    @staticmethod
    def uniform(f, g) -> "DiscreteDensity":
        f = _floats(f)
        return DiscreteDensity(f, g, (1.0,) * len(f))

    @cached_property
    def _scaled(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...], int, int]:
        """(a, b, ab, e_ab, e_f + e_g): a = |f| / 2^e_f, b = |g| / 2^e_g and
        ab = |f g| / 2^e_ab, each 2^e the power of two above the column's
        largest value (for ab, of its largest row), so that no power of them
        overflows. Exact, save for the rounding of f g and for entries that
        land below the normal range, negligible beside the largest one."""
        a, e_f = _scaled_abs(self.f)
        b, e_g = _scaled_abs(self.g)
        rows = [(mf * mg, kf + kg) for (mf, kf), (mg, kg)
                in zip(map(math.frexp, self.f), map(math.frexp, self.g))]
        e_ab = max((k for m, k in rows if m), default=0)
        ab = tuple(abs(math.ldexp(m, k - e_ab)) for m, k in rows)
        return a, b, ab, e_ab, e_f + e_g


def _floats(x) -> tuple[float, ...]:
    """x as a flat tuple of floats; an array goes in through ravel().tolist()."""
    return tuple(map(float, x.ravel().tolist() if hasattr(x, "ravel") else x))


def _scaled_abs(x: tuple[float, ...]) -> tuple[tuple[float, ...], int]:
    """(|x| / 2^e, e), 2^e the power of two above max|x|; e = 0 if all x are 0."""
    x = tuple(map(abs, x))
    e = math.frexp(max(x))[1]
    return tuple(map(math.ldexp, x, repeat(-e))), e


def _computed(moment: Callable[..., MomentValue], *args) -> MomentValue | Exception:
    """moment(*args), or the exception it raised."""
    try:
        return moment(*args)
    except Exception as exc:  # raised again where a verdict reads this side
        return exc


class _Check(NamedTuple):
    """A moment verdict with its sides computed: each named side's moment,
    or the exception its computation raised, in reading order, and the map
    from their values to (lhs, rhs)."""

    label: str
    inputs: dict[str, Any]
    sides: tuple[tuple[str, MomentValue | Exception], ...]
    lhs_rhs: Callable[..., tuple[float, float]]


def _moment_verdict(c: _Check, slack: float | None) -> Verdict:
    """Read the sides in order. A stored exception is raised again; the
    first side that diverges makes a DIVERGENT verdict, whatever the later
    ones hold. A failed one raises MomentsError instead: it was not
    computed, so it says nothing about whether the moment is finite. slack
    is make_verdict's."""
    values = []
    for name, m in c.sides:
        if isinstance(m, Exception):
            raise m
        if m.status == DIVERGENT:
            return Verdict.not_computed(c.label, DIVERGENT, f"{name} is {m.status}: {m.detail}",
                                        c.inputs)
        if not m.is_convergent:
            raise MomentsError(f"{c.label}: {name} is {m.status}: {m.detail}")
        values.append(m.value)
    return make_verdict(c.label, *c.lhs_rhs(*values), slack, c.inputs)


# ---------------------------------------------------------------------------
# discrete densities


def _nonzero(*columns: tuple[float, ...]) -> bool:
    """Whether some row is nonzero in every one of the columns."""
    return any(map(all, zip(*columns)))


def _discrete_verdict(label: str, d: DiscreteDensity, order: float, lhs, rhs,
                      slack: float | None, inputs: dict[str, Any]) -> Verdict:
    """The verdict on two sides, each given as factors (s, c): a side is
    prod(s^c) * 2^(order e), e = e_ab for the lhs and e_f + e_g for the rhs
    (DiscreteDensity._scaled), rounded from the mantissas of the s (frexp)
    and one exponent summed exactly. It refuses a side past the double range
    (passed on as inf to make_verdict), a side that is not 0 but lands on 0
    or a subnormal (it would hold vacuously, or has lost its digits), and a
    subnormal s (lost digits, as from a tiny weight on the largest |f|)."""
    sides = []
    for factors, e in ((lhs, d._scaled[3]), (rhs, d._scaled[4])):
        mantissa = 1.0
        num, den = order.as_integer_ratio()
        num *= e
        for x, c in factors:
            if 0.0 < x < sys.float_info.min:
                raise DomainError(f"{label}: a sum of the scaled columns is subnormal and has "
                                  "lost its digits")
            m, k = math.frexp(x)
            mantissa *= m**c
            n, dc = c.as_integer_ratio()
            num, den = num * dc + n * k * den, den * dc
        whole, rest = divmod(num, den)
        try:
            sides.append(math.ldexp(mantissa * 2.0 ** (rest / den), whole))
        except OverflowError:
            sides.append(math.inf)
    lhs, rhs = sides
    tiny = sys.float_info.min
    if ((lhs < tiny and (lhs > 0.0 or _nonzero(d.w, d.f, d.g)))
            or (rhs < tiny and (rhs > 0.0 or _nonzero(d.w, d.f) and _nonzero(d.w, d.g)))):
        raise out_of_range(label, lhs, rhs)
    return make_verdict(label, lhs, rhs, slack, inputs)


def holder_verdict(d: DiscreteDensity, e: Exponents, slack: float | None = None) -> Verdict:
    """Sum w|fg|^r* <= (Sum w|f|^p)^(q/(p+q)) (Sum w|g|^q)^(p/(p+q)).

    Guaranteed for every valid density; a false verdict is flagged as an
    internal error (numerical bug), not as physics. The sums run on the
    scaled columns, so the lhs carries 2^(r* e_ab) and the rhs
    2^(r* (e_f + e_g)), as p w_f = q w_g = r*. Dividing by the weight sum,
    1 up to rounding, takes out the rounding that the normalization shares
    across the weights.
    """
    a, b, ab = d._scaled[:3]
    total = math.fsum(d.w)
    lhs = math.fsum(map(mul, d.w, map(pow, ab, repeat(e.r_star))))
    mf = math.fsum(map(mul, d.w, map(pow, a, repeat(e.p))))
    mg = math.fsum(map(mul, d.w, map(pow, b, repeat(e.q))))
    return _discrete_verdict(
        "holder_discrete", d, e.r_star, ((lhs, 1.0), (total, -1.0)),
        ((mf, e.w_f), (mg, e.w_g), (total, -1.0)), slack,
        {"p": e.p, "q": e.q, "r_star": e.r_star, "n_points": len(d.f), "guaranteed": True},
    )


def schwarz_verdict(d: DiscreteDensity, slack: float | None = None) -> Verdict:
    """(Sum w|fg|)^2 <= (Sum w f^2)(Sum w g^2), the squared form so both
    sides carry identical dimensions; summed as in holder_verdict, the lhs
    carries 2^(2 e_ab) and the rhs 2^(2 (e_f + e_g))."""
    a, b, ab = d._scaled[:3]
    total = math.fsum(d.w)
    s = math.fsum(map(mul, d.w, ab))
    sf = math.fsum(map(mul, d.w, map(mul, a, a)))
    sg = math.fsum(map(mul, d.w, map(mul, b, b)))
    return _discrete_verdict("schwarz", d, 2.0, ((s, 2.0), (total, -2.0)),
                             ((sf, 1.0), (sg, 1.0), (total, -2.0)), slack,
                             {"n_points": len(d.f), "guaranteed": True})


# ---------------------------------------------------------------------------
# continuous states


def _abs_product_moment(s: ContinuousState, fs: tuple[mo.Observable, ...],
                        order: float) -> MomentValue:
    """<|f_1 ... f_n|^order> for radial observables; their origin powers add."""
    label = "*".join(f.fn_label for f in fs)
    obs = mo.custom_radial(lambda r: abs(math.prod(f.radial_values(r) for f in fs)),
                           sum(f.fn_origin_power for f in fs), f"|{label}|")
    return mo.raw_moment(s, obs, order)


def holder_verdict_continuous(
    s: ContinuousState,
    f: mo.Observable,
    g: mo.Observable,
    e: Exponents,
    slack: float | None = None,
) -> Verdict:
    """The two-function moment bound with radial observables f, g as weights
    on a state: mo.radial(), mo.radial_inverse() or mo.custom_radial(...)."""
    inputs = {"state": s.label, "f": f.fn_label, "g": g.fn_label, "p": e.p, "q": e.q,
              "r_star": e.r_star, "guaranteed": True}
    sides = (
        (f"<|{f.fn_label}*{g.fn_label}|^r*>", _computed(_abs_product_moment, s, (f, g), e.r_star)),
        (f"<|{f.fn_label}|^p>", _computed(_abs_product_moment, s, (f,), e.p)),
        (f"<|{g.fn_label}|^q>", _computed(_abs_product_moment, s, (g,), e.q)),
    )
    return _moment_verdict(_Check("holder_continuous", inputs, sides,
                                  lambda lhs, mf, mg: (lhs, mf**e.w_f * mg**e.w_g)), slack)


def _reciprocal_sides(s: ContinuousState):
    """<r^p> as a function of p and <r^-q> as a function of q, each a
    computed side (see _computed)."""
    return (lambda p: _computed(mo.raw_moment, s, mo.radial(), p),
            lambda q: _computed(mo.raw_moment, s, mo.radial(), -q))


def reciprocal_moment_verdict(
    s: ContinuousState, e: Exponents, slack: float | None = None
) -> Verdict:
    """1 <= <r^p>^(q/(p+q)) <r^-q>^(p/(p+q)), the f=r, g=1/r corollary."""
    r_pos, r_neg = _reciprocal_sides(s)
    return _moment_verdict(_reciprocal_check(s, e, r_pos(e.p), r_neg(e.q)), slack)


def _reciprocal_check(s: ContinuousState, e: Exponents, mp: MomentValue | Exception,
                      mq: MomentValue | Exception) -> _Check:
    inputs = {"state": s.label, "p": e.p, "q": e.q, "r_star": e.r_star, "guaranteed": True}
    return _Check("reciprocal_moments", inputs, (("<r^p>", mp), ("<r^-q>", mq)),
                  lambda mp, mq: (1.0, mp**e.w_f * mq**e.w_g))


def _canonical_sides(s: ContinuousState, i: int, j: int):
    """<|Dx_i|^p> as a function of p and <|Dp_j|^q> as a function of q, each
    a computed side (see _computed)."""
    return (lambda p: _computed(mo.abs_central_moment, s, mo.position_axis(i), p),
            lambda q: _computed(mo.abs_central_moment, s, mo.momentum_axis(j), q))


def uncertainty_verdict_canonical(
    s: ContinuousState,
    i: int,
    j: int,
    e: Exponents,
    slack: float | None = None,
) -> Verdict:
    """(hbar/2)^r* delta_ij <= <|Dx_i|^p>^(q/(p+q)) <|Dp_j|^q>^(p/(p+q)).

    The left side uses the ideal c-number commutator value, not a truncated
    matrix. This is a verifier: the verdict records whether the bound holds,
    it does not assume it.
    """
    x_side, p_side = _canonical_sides(s, i, j)
    return _moment_verdict(_canonical_check(s, i, j, e, x_side(e.p), p_side(e.q)), slack)


def _canonical_check(s: ContinuousState, i: int, j: int, e: Exponents,
                     mx: MomentValue | Exception, mp: MomentValue | Exception) -> _Check:
    inputs = {"state": s.label, "i": i, "j": j, "p": e.p, "q": e.q, "r_star": e.r_star}
    hbar = s.constants.hbar
    sides = (("<|Dx|^p>", mx), ("<|Dp|^q>", mp))

    def lhs_rhs(mx: float, mp: float) -> tuple[float, float]:
        return (_half_hbar_power(hbar, e.r_star) if i == j else 0.0), mx**e.w_f * mp**e.w_g

    return _Check("canonical_pair", inputs, sides, lhs_rhs)


def _half_hbar_power(hbar: float, r_star: float) -> float:
    """(hbar/2)^r*, the left side of a cell with i == j. DomainError where it
    leaves the normal double range: at 0 every such cell would hold
    vacuously."""
    try:
        lhs = (hbar / 2.0) ** r_star
    except OverflowError:
        lhs = math.inf
    return _require_normal(f"the left side (hbar/2)^r* at hbar={hbar:g}, r*={r_star:g}", lhs)


# ---------------------------------------------------------------------------
# finite-dimensional chain


def uncertainty_chain_finite(
    a: matrixlab.HermitianOperator,
    b: matrixlab.HermitianOperator,
    psi: matrixlab.FiniteState,
    e: Exponents,
    slack: float | None = None,
) -> tuple[Verdict, Verdict]:
    """Both finite-dimensional bounds against the shared moment product.

    link 1:  <|DA DB|^r*>            <= <|DA|^p>^w_f <|DB|^q>^w_g
    link 2:  <|[A,B]|^r*> / 2^r*     <= same right side

    Either link may fail for particular (A, B, psi, p, q); failures are
    recorded in the verdicts (falsification semantics), never raised.
    """
    da = matrixlab.central_shift(a, psi)
    db = matrixlab.central_shift(b, psi)
    rhs = (
        matrixlab.abs_power_expectation(da, psi, e.p) ** e.w_f
        * matrixlab.abs_power_expectation(db, psi, e.q) ** e.w_g
    )
    lhs1 = matrixlab.abs_power_expectation(da.entries @ db.entries, psi, e.r_star)
    lhs2 = matrixlab.abs_power_expectation(matrixlab.commutator(a, b), psi, e.r_star) / 2.0**e.r_star
    inputs = {"dim": a.dim, "p": e.p, "q": e.q, "r_star": e.r_star}
    return (
        make_verdict("finite_product", lhs1, rhs, slack, inputs),
        make_verdict("finite_commutator", lhs2, rhs, slack, inputs),
    )


# ---------------------------------------------------------------------------
# sweeps


CANONICAL = "canonical"
RECIPROCAL = "reciprocal"


def sweep(
    s: ContinuousState,
    i: int,
    j: int,
    p_grid: Sequence[float],
    q_grid: Sequence[float],
    kind: str = CANONICAL,
    slack: float | None = None,
) -> tuple[Verdict, ...]:
    """One verdict per (p, q) cell, row-major over the grids; each names its
    cell by its inputs p, q and r_star.

    Each side is computed once per distinct order, all of them before the
    first cell. Cells whose moments diverge carry status DIVERGENT; a cell
    that raises is a FAILED verdict with the cell's label and inputs, and
    never aborts the sweep.
    """
    if len(p_grid) == 0 or len(q_grid) == 0:
        raise DomainError("sweep grids must be nonempty")
    if kind not in (CANONICAL, RECIPROCAL):
        raise DomainError(f"unknown sweep kind {kind!r}")
    cells = [make_exponents(p, q) for p in p_grid for q in q_grid]  # every order checked first
    canonical = kind == CANONICAL
    f, g = _canonical_sides(s, i, j) if canonical else _reciprocal_sides(s)
    fs = {p: f(p) for p in dict.fromkeys(p_grid)}  # each distinct order once, in grid order
    gs = {q: g(q) for q in dict.fromkeys(q_grid)}
    rows: list[Verdict] = []
    for e in cells:
        c = (_canonical_check(s, i, j, e, fs[e.p], gs[e.q]) if canonical
             else _reciprocal_check(s, e, fs[e.p], gs[e.q]))
        try:
            rows.append(_moment_verdict(c, slack))
        except Exception as exc:  # failure is a per-cell outcome
            rows.append(Verdict.not_computed(c.label, FAILED, str(exc), c.inputs))
    return tuple(rows)
