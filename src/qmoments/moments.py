"""Generalized absolute central moments <|Delta A|^s> of continuous states.

Moments of axis observables on spherically symmetric states use the exact
angular reductions <|z|^s> = <r^s>/(s+1) and <|p_z|^s> = <p^s>/(s+1), so 3-d
integrals never appear. Divergence is decided first, by exact power
counting at the origin: with u ~ r^m there (the state's origin_power_u), an
integrand u^2 r^shift diverges iff 2m + shift <= -1. Every radial integral
stops at r_max, so the tail decides nothing. Divergent moments are reported
as such, never as large finite numbers.

A finite moment comes from the state's direct_moment where it has one (the
closed forms of the catalog states, a grid state's own routes), and a
position moment from adaptive quadrature over a finite interval otherwise;
the quadrature module and numpy are loaded only then. The momentum orders
of a radial state and the axis moments of a one-dimensional state come from
its direct_moment alone.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import CapabilityError, DomainError, MomentValue, record
from .exact import (
    DIM_3D_SPHERICAL, MOMENTUM_AXIS, MOMENTUM_SIGNED, P_POWER, POSITION_AXIS, POSITION_SIGNED,
    R_POWER, ContinuousState, RadialStateBase,
)
from . import quadrature

RADIAL = "radial"


@record
class Observable:
    """What is being averaged: an axis coordinate, an axis momentum, or a
    radial quantity f(r) with origin power a, f ~ r^a (fn_origin_power).

    A radial observable without fn is the pure power r^a: r and 1/r are
    a = 1 and a = -1. A caller-supplied fn is assumed subexponential at
    large r (the state's exponential density then controls the tail); only
    its origin behavior needs declaring."""

    kind: str
    axis: int = 3
    fn: Callable | None = None
    fn_origin_power: float = 0.0
    fn_label: str = "f(r)"

    def __post_init__(self):
        if self.kind not in (POSITION_AXIS, MOMENTUM_AXIS, RADIAL):
            raise DomainError(f"unknown observable kind {self.kind!r}")
        if self.kind != RADIAL and self.axis not in (1, 2, 3):
            raise DomainError(f"axis must be 1, 2, or 3, got {self.axis}")

    def radial_values(self, r):
        """f(r) of a radial observable at the nodes of an integrand."""
        return r**self.fn_origin_power if self.fn is None else self.fn(r)


def position_axis(axis: int = 3) -> Observable:
    return Observable(POSITION_AXIS, axis=axis)


def momentum_axis(axis: int = 3) -> Observable:
    return Observable(MOMENTUM_AXIS, axis=axis)


def radial() -> Observable:
    return Observable(RADIAL, fn_origin_power=1.0, fn_label="r")


def radial_inverse() -> Observable:
    return Observable(RADIAL, fn_origin_power=-1.0, fn_label="1/r")


def custom_radial(fn: Callable, origin_power: float = 0.0, label: str = "f(r)") -> Observable:
    return Observable(RADIAL, fn=fn, fn_origin_power=origin_power, fn_label=label)


def _require_radial(s: ContinuousState) -> RadialStateBase:
    if not isinstance(s, RadialStateBase):
        raise CapabilityError(f"{s.label} has no radial structure")
    return s


def _quad_moment(f: Callable, s: RadialStateBase, order: float, breakpoints=()) -> MomentValue:
    """The integral of f over [0, r_max] at the state's tolerances as the
    moment of the given order; failed, not a number, when the quadrature
    stalls or meets a non-finite integrand value."""
    return quadrature.integrate(f, 0.0, s.r_max, s.tol, breakpoints).as_moment(order)


# ---------------------------------------------------------------------------
# radial raw moments with divergence classification


def _origin_divergent(s: RadialStateBase, shift: float) -> bool:
    """Whether u^2 r^shift fails to integrate at r = 0; u ~ r^m there."""
    return 2.0 * s.origin_power_u + shift <= -1.0


def raw_radial_moment(s: ContinuousState, t: float) -> MomentValue:
    """<r^t> for any real t, classified before integration; the state's
    direct moment, else adaptive integration."""
    rs = _require_radial(s)
    if _origin_divergent(rs, t):
        return MomentValue.divergent(t, "origin power counting: non-integrable at r=0")
    direct = rs.direct_moment(R_POWER, t)
    if direct is not None:
        return direct
    import numpy as np

    def f(r):
        # u^2 r^t as (u r^(t/2))^2: r^t alone overflows at the nodes next to
        # r = 0 that negative orders are refined toward. Where even r^(t/2)
        # overflows, the value is not finite and the result is failed.
        with np.errstate(over="ignore"):
            return (rs.reduced_radial(r) * r ** (0.5 * t)) ** 2

    return _quad_moment(f, rs, t)


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
# the three public operations


def mean(s: ContinuousState, o: Observable) -> float:
    """The marginal mean. Axis means of spherically symmetric states are
    exactly zero without integration."""
    if o.kind == POSITION_AXIS:
        return s.position_mean(o.axis)
    if o.kind == MOMENTUM_AXIS:
        return s.momentum_mean(o.axis)
    return raw_moment(s, o, 1.0).require()


def raw_moment(s: ContinuousState, o: Observable, order: float) -> MomentValue:
    """<a^order>. Radial observables accept any real order; axis
    observables accept integer orders (signed powers of a signed variable)."""
    order = float(order)
    if o.kind == RADIAL:
        if o.fn is None:
            return raw_radial_moment(s, o.fn_origin_power * order)
        rs = _require_radial(s)
        if _origin_divergent(rs, order * o.fn_origin_power):
            return MomentValue.divergent(order, f"origin power counting on {o.fn_label}")

        def f(r):
            return rs.radial_density(r) * o.fn(r) ** order

        return _quad_moment(f, rs, order)
    if abs(order - round(order)) > 1e-12:
        raise DomainError(
            "fractional raw moments of signed observables are undefined; "
            "use abs_central_moment"
        )
    return _axis_signed_moment(s, o, int(round(order)))


def _axis_signed_moment(s: ContinuousState, o: Observable, n: int) -> MomentValue:
    if n < 0:
        raise DomainError("negative raw moments of axis observables are not defined")
    if s.dimensionality == DIM_3D_SPHERICAL:
        if n % 2 == 1:
            return MomentValue.convergent(0.0, 0.0, n)  # parity, exact
        return _isotropic_axis_moment(s, o, float(n))
    signed = POSITION_SIGNED if o.kind == POSITION_AXIS else MOMENTUM_SIGNED
    return _direct_axis_moment(s, o, signed, n)


def abs_central_moment(s: ContinuousState, o: Observable, order: float) -> MomentValue:
    """<|a - <a>|^order> over the observable's marginal distribution."""
    order = float(order)
    if order <= 0.0:
        raise DomainError(f"moment order must be positive, got {order}")
    if o.kind == POSITION_AXIS or o.kind == MOMENTUM_AXIS:
        if s.dimensionality == DIM_3D_SPHERICAL:
            return _isotropic_axis_moment(s, o, order)
        return _direct_axis_moment(s, o, o.kind, order)
    # |f - <f>|^order ~ r^(order min(a, 0)) at the origin; the kink of a
    # pure power r^a sits at <f>^(1/a), that of a custom fn is not known
    rs = _require_radial(s)
    a = o.fn_origin_power
    m = raw_moment(s, o, 1.0)
    if not m.is_convergent:
        return MomentValue(m.status, order, None, math.inf, m.detail)
    if _origin_divergent(rs, order * min(a, 0.0)):
        return MomentValue.divergent(
            order, f"origin power counting on ({o.fn_label} - <{o.fn_label}>)"
        )
    mu = m.value
    kinks = []
    if o.fn is None and a != 0.0 and mu > 0.0:
        root = mu ** (1.0 / abs(a))  # so 1/r's kink is 1.0 / mu, rounded once
        kinks = [root if a > 0.0 else 1.0 / root]

    def f(r):
        return rs.radial_density(r) * abs(o.radial_values(r) - mu) ** order

    return _quad_moment(f, rs, order, kinks)


def _isotropic_axis_moment(s: ContinuousState, o: Observable, order: float) -> MomentValue:
    """<|a|^order> of an axis observable on a spherical state, whose axis
    means are 0: <r^order>/(order+1) or <p^order>/(order+1)."""
    rs = _require_radial(s)
    if o.kind == POSITION_AXIS:
        inner = raw_radial_moment(rs, order)
    else:
        inner = _radial_momentum_raw(rs, order)
    if not inner.is_convergent:
        return MomentValue(inner.status, order, None, math.inf, inner.detail)
    return MomentValue.convergent(
        inner.value / (order + 1.0), inner.err_estimate / (order + 1.0), order
    )


def _direct_axis_moment(s: ContinuousState, o: Observable, quantity: str, x: float) -> MomentValue:
    """An axis moment of a one-dimensional state from its direct_moment;
    CapabilityError on an axis it does not have, or where it has no such
    moment."""
    mean(s, o)  # the state checks the axis
    direct = s.direct_moment(quantity, x)
    if direct is None:
        side = "position" if o.kind == POSITION_AXIS else "momentum"
        raise CapabilityError(f"{s.label} has no {side} moments")
    return direct
