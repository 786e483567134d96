"""Shared value types, physical constants, and exponent arithmetic.

Everything here is an immutable value object; instances can be shared freely
across threads and processes.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Callable


class MomentsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MomentsError, ValueError):
    """Input outside the mathematical domain of an operation."""


class CapabilityError(MomentsError):
    """A state does not provide the density a computation needs."""


class DecompositionError(MomentsError):
    """An eigendecomposition failed to converge or validate."""


class DataFormatError(MomentsError, ValueError):
    """Malformed input file (CSV, radial grid, matrix JSON)."""

    @classmethod
    def not_utf8(cls, path, exc: UnicodeDecodeError) -> "DataFormatError":
        """The error for an input file that does not decode as UTF-8."""
        return cls(f"{path}: not UTF-8 text: {exc}")


def _require_positive_finite(name: str, x: float) -> float:
    x = float(x)
    if math.isnan(x) or math.isinf(x) or x <= 0.0:
        raise DomainError(f"{name} must be a positive finite real, got {x!r}")
    return x


def _require_normal(what: str, x: float) -> float:
    """x if it is a normal positive double; DomainError naming what where the
    computation of x left that range: 0 or a subnormal (underflow), inf
    (overflow) or NaN. A result that is 0 by underflow would make a bound
    vacuous, and a subnormal one has lost its digits."""
    if sys.float_info.min <= x < math.inf:
        return x
    if x >= 0.0:
        raise DomainError(f"{what} {'overflows' if x > 1.0 else 'underflows'} a double")
    raise DomainError(f"{what} is {x!r}, not a positive double")


def _require_slack(x: float) -> float:
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"slack must be a finite real >= 0, got {x!r}")
    return x


class _Fresh:
    """A record field default built anew for each instance (see fresh)."""

    def __init__(self, make: Callable[[], Any]):
        self.make = make


def fresh(make: Callable[[], Any]) -> Any:
    """Default for a record field whose value is make(), called once per instance."""
    return _Fresh(make)


def record(cls: type | None = None, /, *, frozen: bool = True):
    """Make cls a value type over its annotated fields, in annotation order.

    Installs __init__ (by position or keyword, with the class-level defaults;
    then __post_init__ when the class defines one), a Name(field=...)
    __repr__, field-wise __eq__, and for a frozen type a field-wise __hash__
    and a __setattr__/__delattr__ that raise AttributeError; a mutable type
    is unhashable. The methods are closures over the field names, so no
    code is generated and compiled per class: the import cost matters to a
    CLI that starts once per check.
    """
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    for n, d in defaults.items():
        if isinstance(d, _Fresh):
            delattr(cls, n)
    post_init = cls.__dict__.get("__post_init__")
    nfields = len(names)

    def __init__(self, *args, **kwargs):
        if len(args) > nfields:
            raise TypeError(f"{type(self).__qualname__}() takes {nfields} "
                            f"positional arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for n in names[len(args):]:
            if n in kwargs:
                values[n] = kwargs.pop(n)
            elif n in defaults:
                d = defaults[n]
                values[n] = d.make() if isinstance(d, _Fresh) else d
            else:
                raise TypeError(f"{type(self).__qualname__}() missing argument {n!r}")
        if kwargs:
            n = next(iter(kwargs))
            what = "multiple values for" if n in values else "an unexpected keyword"
            raise TypeError(f"{type(self).__qualname__}() got {what} argument {n!r}")
        self.__dict__.update(values)
        if post_init is not None:
            post_init(self)

    def fields(self) -> tuple:
        return tuple(getattr(self, n) for n in names)

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    cls._fields = names
    cls.__init__ = __init__
    cls.__repr__ = __repr__
    cls.__eq__ = __eq__
    if frozen:
        def __hash__(self) -> int:
            return hash(fields(self))

        def __setattr__(self, name, value):
            raise AttributeError(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise AttributeError(f"cannot delete field {name!r}")

        cls.__hash__ = __hash__
        cls.__setattr__ = __setattr__
        cls.__delattr__ = __delattr__
    else:
        cls.__hash__ = None
    return cls


@record
class Exponents:
    """An order pair (p, q) with its derived product-side exponent and weights.

    r_star = p*q/(p+q) is the exponent carried by the product side of the
    two-function moment inequality; w_f = q/(p+q) and w_g = p/(p+q) are the
    outer weights on the p-th and q-th moment factors. r_inv = 1/p + 1/q is
    the reciprocal of r_star.
    """

    p: float
    q: float
    r_inv: float
    r_star: float
    w_f: float
    w_g: float


def make_exponents(p: float, q: float) -> Exponents:
    """Build the derived exponent set for orders p, q > 0.

    Raises DomainError for non-positive, NaN, or infinite input.
    """
    p = _require_positive_finite("p", p)
    q = _require_positive_finite("q", q)
    s = p + q
    return Exponents(
        p=p,
        q=q,
        r_inv=1.0 / p + 1.0 / q,
        r_star=p * q / s,
        w_f=q / s,
        w_g=p / s,
    )


def young_gap(c: float, d: float, e: Exponents) -> float:
    """Slack of the weighted Young inequality at the point (c, d).

    Returns c^p/p + d^q/q - r_inv * (c*d)^(1/r_inv), which is >= 0 for all
    c, d >= 0 and vanishes exactly on the manifold c^p = d^q.
    """
    c = float(c)
    d = float(d)
    if c < 0.0 or d < 0.0:
        raise DomainError(f"young_gap needs c, d >= 0, got c={c}, d={d}")
    cross = 0.0
    if c > 0.0 and d > 0.0:
        cross = e.r_inv * (c * d) ** e.r_star
    return c**e.p / e.p + d**e.q / e.q - cross


@record
class PhysicalConstants:
    """hbar, particle mass, and the length scale a0. Defaults are natural units."""

    hbar: float = 1.0
    mass: float = 1.0
    a0: float = 1.0

    def __post_init__(self) -> None:
        for name in ("hbar", "mass", "a0"):
            _require_positive_finite(name, getattr(self, name))


NATURAL = PhysicalConstants()

#: CODATA-2018 values, for the SI output mode.
SI = PhysicalConstants(hbar=1.054571817e-34, mass=9.1093837015e-31, a0=5.29177210903e-11)


@record
class Tolerances:
    """Accuracy target of every integral: a panel sum converges once its
    error meets max(abs_tol, rel_tol*|value|) within max_evals integrand
    evaluations (45 is the least budget that can refine: one K15 panel and
    its two halves)."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_evals: int = 1_000_000

    def __post_init__(self) -> None:
        _require_positive_finite("rel_tol", self.rel_tol)
        _require_positive_finite("abs_tol", self.abs_tol)
        if not self.max_evals >= 45:
            raise DomainError(f"max_evals must be >= 45, got {self.max_evals!r}")


DEFAULT_TOLERANCES = Tolerances()


CONVERGENT = "convergent"
DIVERGENT = "divergent"
FAILED = "failed"
#: status of a verdict whose sides were computed; a verdict whose side
#: moment diverged or failed carries DIVERGENT or FAILED instead
OK = "ok"


@record
class MomentValue:
    """Outcome of a moment computation.

    value is meaningful only when status == "convergent"; divergent moments
    never smuggle a large finite number through. detail carries a diagnostic
    (e.g. which endpoint diverges, or why quadrature failed).
    """

    status: str
    order: float
    value: float | None = None
    err_estimate: float = 0.0
    detail: str = ""

    @staticmethod
    def convergent(value: float, err_estimate: float, order: float) -> "MomentValue":
        return MomentValue(CONVERGENT, float(order), float(value), float(err_estimate))

    @staticmethod
    def divergent(order: float, detail: str = "") -> "MomentValue":
        return MomentValue(DIVERGENT, float(order), None, math.inf, detail)

    @staticmethod
    def failed(order: float, detail: str = "") -> "MomentValue":
        return MomentValue(FAILED, float(order), None, math.inf, detail)

    @property
    def is_convergent(self) -> bool:
        return self.status == CONVERGENT

    def require(self) -> float:
        """The value; DomainError if the moment diverges, MomentsError if its
        quadrature failed (the moment may be finite but was never computed)."""
        if self.status == CONVERGENT and self.value is not None:
            return self.value
        err = DomainError if self.status == DIVERGENT else MomentsError
        raise err(f"moment of order {self.order} is {self.status}: {self.detail}")


@record
class Verdict:
    """One inequality check: sides, ratio, margin, and the boolean outcome.

    holds is exactly (lhs <= rhs + slack) as computed in floating point, with
    slack the caller's or make_verdict's default; ratio is lhs/rhs when
    rhs > 0 and NaN otherwise. The sides of a moment inequality are
    absolute-value moments, so lhs >= 0 and rhs >= 0; those of the
    Buckingham check (centralfield) are signed energies.

    status is OK when the sides were computed. A check whose side moment
    diverged or failed is a verdict too, with status DIVERGENT or FAILED and
    the reason in detail; its sides are NaN and holds is None, and to_dict
    leaves them out. make_verdict refuses sides that are not finite, so the
    only null that to_dict writes is a ratio that is not a finite number.
    """

    label: str
    lhs: float
    rhs: float
    slack: float
    inputs: dict[str, Any] = fresh(dict)
    status: str = OK
    detail: str = ""

    @staticmethod
    def not_computed(label: str, status: str, detail: str, inputs: dict[str, Any]) -> "Verdict":
        return Verdict(label, math.nan, math.nan, math.nan, inputs, status, detail)

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0.0 else math.nan

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool | None:
        return self.lhs <= self.rhs + self.slack if self.status == OK else None

    def to_dict(self) -> dict[str, Any]:
        if self.status != OK:
            return {"label": self.label, "status": self.status, "detail": self.detail,
                    "inputs": dict(self.inputs)}
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio if math.isfinite(self.ratio) else None,
            "margin": self.margin,
            "holds": self.holds,
            "slack": self.slack,
            "label": self.label,
            "inputs": dict(self.inputs),
        }


def out_of_range(label: str, lhs: float, rhs: float) -> DomainError:
    """The refusal of a verdict whose sides left the double range."""
    return DomainError(f"{label}: lhs = {lhs!r}, rhs = {rhs!r}: out of the double range")


def make_verdict(
    label: str,
    lhs: float,
    rhs: float,
    slack: float | None = None,
    inputs: dict[str, Any] | None = None,
) -> Verdict:
    """The verdict lhs <= rhs + slack, by default 1e-9*max(|lhs|, |rhs|): the
    sides of every inequality scale alike, so no unit system decides an
    outcome. DomainError where lhs, rhs or rhs - lhs is not finite (inf <=
    inf holds). A verdict whose inputs say it is guaranteed and that does
    not hold is a numerical bug: its inputs gain severity internal-error."""
    lhs, rhs = float(lhs), float(rhs)
    if not math.isfinite(rhs - lhs):  # also where either side is inf or NaN
        raise out_of_range(label, lhs, rhs)
    slack = 1e-9 * max(abs(lhs), abs(rhs)) if slack is None else _require_slack(slack)
    v = Verdict(label, lhs, rhs, slack, inputs or {})
    if v.inputs.get("guaranteed") and not v.holds:
        return Verdict(label, lhs, rhs, slack, {**v.inputs, "severity": "internal-error"})
    return v
