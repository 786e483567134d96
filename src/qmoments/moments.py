"""Generalized absolute central moments <|Delta A|^s> of continuous states.

An observable is a position or momentum axis. Moments of axis observables on
spherically symmetric states use the exact angular reductions
<|z|^s> = <r^s>/(s+1) and <|p_z|^s> = <p^s>/(s+1), so 3-d integrals never
appear; raw_radial_moment gives the radial moments <r^t> themselves.
Divergence is decided first, by exact power counting at the origin: with
u ~ r^m there (the state's origin_power_u), an integrand u^2 r^shift
diverges iff 2m + shift <= -1. Every radial integral stops at r_max, so the
tail decides nothing. Divergent moments are reported as such, never as
large finite numbers.

A finite moment comes from the state's direct_moment alone (the closed
forms of the catalog states, a grid state's own routes): <r^t>, the momentum
orders of a radial state and the axis moments of a one-dimensional state
alike. A state without such a route raises CapabilityError; nothing here
integrates.
"""

from __future__ import annotations

import math

from .core import CapabilityError, DomainError, MomentValue, record
from .exact import (
    DIM_3D_SPHERICAL, MOMENTUM_AXIS, P_POWER, POSITION_AXIS, R_POWER, ContinuousState,
    RadialStateBase,
)


@record
class Observable:
    """What is being averaged: a position or a momentum coordinate on an axis."""

    kind: str
    axis: int = 3

    def __post_init__(self):
        if self.kind not in (POSITION_AXIS, MOMENTUM_AXIS):
            raise DomainError(f"unknown observable kind {self.kind!r}")
        if self.axis not in (1, 2, 3):
            raise DomainError(f"axis must be 1, 2, or 3, got {self.axis}")


def position_axis(axis: int = 3) -> Observable:
    return Observable(POSITION_AXIS, axis=axis)


def momentum_axis(axis: int = 3) -> Observable:
    return Observable(MOMENTUM_AXIS, axis=axis)


def require_radial(s: ContinuousState) -> RadialStateBase:
    """s as a radial state; CapabilityError where it has no radial structure."""
    if not isinstance(s, RadialStateBase):
        raise CapabilityError(f"{s.label} has no radial structure")
    return s


# ---------------------------------------------------------------------------
# radial raw moments with divergence classification


def _origin_divergent(s: RadialStateBase, shift: float) -> bool:
    """Whether u^2 r^shift fails to integrate at r = 0; u ~ r^m there."""
    return 2.0 * s.origin_power_u + shift <= -1.0


def raw_radial_moment(s: ContinuousState, t: float) -> MomentValue:
    """<r^t> for any real t, classified by origin power counting, then from
    the state's direct moment; CapabilityError where it has none."""
    rs = require_radial(s)
    if _origin_divergent(rs, t):
        return MomentValue.divergent(t, "origin power counting: non-integrable at r=0")
    direct = rs.direct_moment(R_POWER, t)
    if direct is None:
        raise CapabilityError(f"{rs.label} has no position moments")
    return direct


def _radial_momentum_raw(s: RadialStateBase, q: float) -> MomentValue:
    """<p^q>, classified by the momentum tail power, from the state's direct
    moment; CapabilityError where it has none."""
    if 2.0 * s.momentum_tail_power() + q >= -1.0:
        return MomentValue.divergent(q, "momentum tail power counting: non-integrable")
    direct = s.direct_moment(P_POWER, q)
    if direct is None:
        raise CapabilityError(f"{s.label} has no momentum moments")
    return direct


# ---------------------------------------------------------------------------
# the two public operations on observables


def mean(s: ContinuousState, o: Observable) -> float:
    """The marginal mean; the state checks the axis. Axis means of
    spherically symmetric states are exactly zero without integration."""
    if o.kind == POSITION_AXIS:
        return s.position_mean(o.axis)
    return s.momentum_mean(o.axis)


def abs_central_moment(s: ContinuousState, o: Observable, order: float) -> MomentValue:
    """<|a - <a>|^order> over the observable's marginal distribution."""
    order = float(order)
    if order <= 0.0:
        raise DomainError(f"moment order must be positive, got {order}")
    mean(s, o)  # the state checks the axis
    if s.dimensionality == DIM_3D_SPHERICAL:
        return _isotropic_axis_moment(s, o, order)
    direct = s.direct_moment(o.kind, order)
    if direct is None:
        side = "position" if o.kind == POSITION_AXIS else "momentum"
        raise CapabilityError(f"{s.label} has no {side} moments")
    return direct


def _isotropic_axis_moment(s: ContinuousState, o: Observable, order: float) -> MomentValue:
    """<|a|^order> of an axis observable on a spherical state, whose axis
    means are 0: <r^order>/(order+1) or <p^order>/(order+1)."""
    rs = require_radial(s)
    if o.kind == POSITION_AXIS:
        inner = raw_radial_moment(rs, order)
    else:
        inner = _radial_momentum_raw(rs, order)
    if not inner.is_convergent:
        return MomentValue(inner.status, order, None, math.inf, inner.detail)
    return MomentValue.convergent(
        inner.value / (order + 1.0), inner.err_estimate / (order + 1.0), order
    )
