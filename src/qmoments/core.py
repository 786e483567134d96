"""Shared value types, physical constants, and exponent arithmetic.

Everything here is an immutable value object; instances can be shared freely
across threads and processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any


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


def _require_positive_finite(name: str, x: float) -> float:
    x = float(x)
    if math.isnan(x) or math.isinf(x) or x <= 0.0:
        raise DomainError(f"{name} must be a positive finite real, got {x!r}")
    return x


def _require_slack(x: float) -> float:
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"slack must be a finite real >= 0, got {x!r}")
    return x


@dataclass(frozen=True)
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

    def swapped(self) -> "Exponents":
        """The (q, p) pair; r_star is unchanged, the weights trade places."""
        return make_exponents(self.q, self.p)


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


@dataclass(frozen=True)
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


CONVERGENT = "convergent"
DIVERGENT = "divergent"
FAILED = "failed"


@dataclass(frozen=True)
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
        """The value, or DomainError if the moment did not converge."""
        if self.status != CONVERGENT or self.value is None:
            raise DomainError(f"moment of order {self.order} is {self.status}: {self.detail}")
        return self.value


def default_slack(rhs: float) -> float:
    """Default numerical slack for verdicts: 1e-9 relative, floored at 1e-9."""
    return 1e-9 * max(1.0, abs(rhs))


@dataclass(frozen=True)
class Verdict:
    """One inequality check: sides, ratio, margin, and the boolean outcome.

    holds is exactly (lhs <= rhs + slack) as computed in floating point; ratio
    is lhs/rhs when rhs > 0 and NaN otherwise. Both sides are absolute-value
    moments, so lhs >= 0 and rhs >= 0 for every inequality in this package.
    """

    label: str
    lhs: float
    rhs: float
    slack: float
    inputs: dict[str, Any] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0.0 else math.nan

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + self.slack

    def to_dict(self) -> dict[str, Any]:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "margin": self.margin,
            "holds": self.holds,
            "slack": self.slack,
            "label": self.label,
            "inputs": dict(self.inputs),
        }


def make_verdict(
    label: str,
    lhs: float,
    rhs: float,
    slack: float | None = None,
    inputs: dict[str, Any] | None = None,
) -> Verdict:
    lhs = float(lhs)
    rhs = float(rhs)
    slack = default_slack(rhs) if slack is None else _require_slack(slack)
    return Verdict(label=label, lhs=lhs, rhs=rhs, slack=slack, inputs=inputs or {})
