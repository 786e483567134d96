"""Generalized absolute central moments <|Delta A|^s> of continuous states.

Moments of axis observables on spherically symmetric states use the exact
angular reductions <|z|^s> = <r^s>/(s+1) and <|p_z|^s> = <p^s>/(s+1), so 3-d
integrals never appear; everything is one-dimensional quadrature. Divergence
is decided by envelope power counting before any integration; moments that
fail the count are reported divergent, never as large finite numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import CapabilityError, DomainError, MomentValue
from .quadrature import (
    DIVERGENT_AT_INFINITY,
    DIVERGENT_AT_ORIGIN,
    Domain,
    UNKNOWN,
    detect_divergence,
    integrate,
)
from .states import DIM_3D_SPHERICAL, ContinuousState, RadialStateBase

POSITION_AXIS = "position_axis"
MOMENTUM_AXIS = "momentum_axis"
RADIAL = "radial"
RADIAL_INVERSE = "radial_inverse"
CUSTOM_RADIAL = "custom_radial"


@dataclass(frozen=True)
class Observable:
    """What is being averaged: an axis coordinate, an axis momentum, r, 1/r,
    or a caller-supplied radial function with a declared origin power.

    Custom radial functions are assumed subexponential at large r (the
    state's exponential density then controls the tail); only their origin
    behavior needs declaring, as fn ~ r^fn_origin_power."""

    kind: str
    axis: int = 3
    fn: Callable | None = None
    fn_origin_power: float = 0.0
    fn_label: str = "f(r)"

    def __post_init__(self):
        if self.kind in (POSITION_AXIS, MOMENTUM_AXIS) and self.axis not in (1, 2, 3):
            raise DomainError(f"axis must be 1, 2, or 3, got {self.axis}")
        if self.kind == CUSTOM_RADIAL and self.fn is None:
            raise DomainError("custom radial observable needs a function")


def position_axis(axis: int = 3) -> Observable:
    return Observable(POSITION_AXIS, axis=axis)


def momentum_axis(axis: int = 3) -> Observable:
    return Observable(MOMENTUM_AXIS, axis=axis)


def radial() -> Observable:
    return Observable(RADIAL)


def radial_inverse() -> Observable:
    return Observable(RADIAL_INVERSE)


def custom_radial(fn: Callable, origin_power: float = 0.0, label: str = "f(r)") -> Observable:
    return Observable(CUSTOM_RADIAL, fn=fn, fn_origin_power=origin_power, fn_label=label)


def _require_radial(s: ContinuousState) -> RadialStateBase:
    if not isinstance(s, RadialStateBase):
        raise CapabilityError(f"{s.label} has no radial structure")
    return s


# ---------------------------------------------------------------------------
# radial raw moments with divergence classification


def _origin_probe(f: Callable, hi: float) -> bool:
    """Doubling-domain heuristic for an undeclared origin: integrate on
    [hi*2^-i, hi] for shrinking cutoffs and watch whether the increments die
    out. This is a heuristic, reported as such in the MomentValue detail, and
    is only consulted when no envelope was declared."""
    cuts = [hi * 2.0 ** (-i) for i in (12, 16, 20, 24)]
    vals = []
    for a in cuts:
        vals.append(integrate(f, Domain.finite(a, hi), rel_tol=1e-8, abs_tol=1e-12,
                               max_evals=20_000).value)
    inc1 = abs(vals[-2] - vals[-3])
    inc2 = abs(vals[-1] - vals[-2])
    scale = max(abs(vals[-1]), 1e-300)
    if inc2 / scale < 1e-10:
        return False  # converged
    return inc2 > 0.25 * inc1  # increments not collapsing: treat as divergent


def raw_radial_moment(s: ContinuousState, t: float, rel_tol: float | None = None) -> MomentValue:
    """<r^t> for any real t, classified before integration."""
    rs = _require_radial(s)
    env = rs.radial_envelope().shifted(delta_origin=t, delta_tail=t)
    verdict = detect_divergence(env)
    if verdict == DIVERGENT_AT_ORIGIN:
        return MomentValue.divergent(t, "origin power counting: non-integrable at r=0")
    if verdict == DIVERGENT_AT_INFINITY:
        return MomentValue.divergent(t, "tail power counting: non-integrable at infinity")

    def f(r):
        # u^2 r^t as (u r^(t/2))^2: r^t alone overflows at the nodes next to
        # r = 0 that negative orders are refined toward
        return (rs.reduced_radial(r) * r ** (0.5 * t)) ** 2

    if verdict == UNKNOWN:
        if t >= 0.0:
            pass  # bounded density times a bounded power: origin is harmless
        elif _origin_probe(f, rs.r_max):
            return MomentValue.divergent(
                t, "doubling-domain probe (heuristic: no declared origin envelope)"
            )
    res = integrate(f, Domain.finite(0.0, rs.r_max), rel_tol=rel_tol, abs_tol=1e-15)
    if res.failed or not res.converged:
        return MomentValue.failed(t, f"quadrature stalled (err={res.err_estimate:.2e})")
    return MomentValue.convergent(res.value, res.err_estimate, t)


def _radial_momentum_raw(s: RadialStateBase, q: float, rel_tol: float | None = None) -> MomentValue:
    """<p^q> over the radial momentum density w(k)^2, with tail completion."""
    tbl = s.momentum_table()
    if 2.0 * tbl.tail_power + q >= -1.0:
        return MomentValue.divergent(q, "momentum tail power counting: non-integrable")
    hbar = s.constants.hbar

    def f(k):
        return tbl.w(k) ** 2 * k**q

    # the first round runs on the table's shared partition, already transformed
    res = integrate(
        f, Domain.finite(0.0, tbl.k_cut), rel_tol=rel_tol, abs_tol=1e-15,
        breakpoints=tbl.partition()[1:-1],
    )
    if res.failed or not res.converged:
        return MomentValue.failed(q, f"momentum quadrature stalled (err={res.err_estimate:.2e})")
    tail = tbl.tail_integral(q, tbl.k_cut)
    value = hbar**q * (res.value + tail)
    err = hbar**q * (res.err_estimate + 1e-4 * abs(tail))
    return MomentValue.convergent(value, err, q)


# ---------------------------------------------------------------------------
# the three public operations


def mean(s: ContinuousState, o: Observable) -> float:
    """The marginal mean. Axis means of spherically symmetric states are
    exactly zero without integration."""
    if o.kind == POSITION_AXIS:
        return s.position_mean(o.axis)
    if o.kind == MOMENTUM_AXIS:
        return s.momentum_mean(o.axis)
    if o.kind == RADIAL:
        return raw_radial_moment(s, 1.0).require()
    if o.kind == RADIAL_INVERSE:
        return raw_radial_moment(s, -1.0).require()
    if o.kind == CUSTOM_RADIAL:
        return raw_moment(s, o, 1.0).require()
    raise DomainError(f"unknown observable kind {o.kind!r}")


def raw_moment(s: ContinuousState, o: Observable, order: float) -> MomentValue:
    """<a^order>. Radial-kind observables accept any real order; axis
    observables accept integer orders (signed powers of a signed variable)."""
    order = float(order)
    if o.kind == RADIAL:
        return raw_radial_moment(s, order)
    if o.kind == RADIAL_INVERSE:
        return raw_radial_moment(s, -order)
    if o.kind == CUSTOM_RADIAL:
        rs = _require_radial(s)
        env = rs.radial_envelope().shifted(delta_origin=order * o.fn_origin_power)
        if detect_divergence(env) == DIVERGENT_AT_ORIGIN:
            return MomentValue.divergent(order, f"origin power counting on {o.fn_label}")

        def f(r):
            return rs.radial_density(r) * o.fn(r) ** order

        res = integrate(f, Domain.finite(0.0, rs.r_max), abs_tol=1e-15)
        if res.failed or not res.converged:
            return MomentValue.failed(order, "quadrature stalled")
        return MomentValue.convergent(res.value, res.err_estimate, order)
    if o.kind in (POSITION_AXIS, MOMENTUM_AXIS):
        if abs(order - round(order)) > 1e-12:
            raise DomainError(
                "fractional raw moments of signed observables are undefined; "
                "use abs_central_moment"
            )
        return _axis_signed_moment(s, o, int(round(order)))
    raise DomainError(f"unknown observable kind {o.kind!r}")


def _axis_signed_moment(s: ContinuousState, o: Observable, n: int) -> MomentValue:
    if n < 0:
        raise DomainError("negative raw moments of axis observables are not defined")
    if s.dimensionality == DIM_3D_SPHERICAL:
        if n % 2 == 1:
            return MomentValue.convergent(0.0, 0.0, n)  # parity, exact
        return abs_axis_moment_about(s, o, float(n), center=0.0)
    dens = _axis_density(s, o)

    def f(x):
        return x**n * dens(x)

    # odd moments can cancel to zero exactly; 1e-15 absolute would chase the
    # round-off floor of the cancellation, so signed moments get a looser one
    res = integrate(f, Domain.infinite(), abs_tol=1e-12, breakpoints=[mean(s, o)])
    if res.failed or not res.converged:
        return MomentValue.failed(n, "quadrature stalled")
    return MomentValue.convergent(res.value, res.err_estimate, n)


def abs_central_moment(s: ContinuousState, o: Observable, order: float) -> MomentValue:
    """<|a - <a>|^order> over the observable's marginal distribution."""
    order = float(order)
    if order <= 0.0:
        raise DomainError(f"moment order must be positive, got {order}")
    if o.kind == POSITION_AXIS or o.kind == MOMENTUM_AXIS:
        center = mean(s, o)
        return abs_axis_moment_about(s, o, order, center)
    if o.kind == RADIAL:
        rs = _require_radial(s)
        mu = raw_radial_moment(s, 1.0).require()

        def f(r):
            return rs.radial_density(r) * np.abs(r - mu) ** order

        res = integrate(
            f, Domain.finite(0.0, rs.r_max), abs_tol=1e-15, breakpoints=[mu]
        )
        if res.failed or not res.converged:
            return MomentValue.failed(order, "quadrature stalled")
        return MomentValue.convergent(res.value, res.err_estimate, order)
    if o.kind == RADIAL_INVERSE:
        rs = _require_radial(s)
        inv_mean = raw_radial_moment(s, -1.0)
        if not inv_mean.is_convergent:
            return MomentValue(inv_mean.status, order, None, math.inf, inv_mean.detail)
        env = rs.radial_envelope().shifted(delta_origin=-order)
        if detect_divergence(env) == DIVERGENT_AT_ORIGIN:
            return MomentValue.divergent(order, "origin power counting on (1/r - <1/r>)")
        mu = inv_mean.value

        def f(r):
            return rs.radial_density(r) * np.abs(1.0 / r - mu) ** order

        res = integrate(
            f, Domain.finite(0.0, rs.r_max), abs_tol=1e-15,
            breakpoints=[1.0 / mu] if mu > 0.0 else [],
        )
        if res.failed or not res.converged:
            return MomentValue.failed(order, "quadrature stalled")
        return MomentValue.convergent(res.value, res.err_estimate, order)
    if o.kind == CUSTOM_RADIAL:
        rs = _require_radial(s)
        mu = raw_moment(s, o, 1.0).require()

        def f(r):
            return rs.radial_density(r) * np.abs(o.fn(r) - mu) ** order

        # no kink breakpoint: the preimage of the mean is not known in general
        res = integrate(f, Domain.finite(0.0, rs.r_max), rel_tol=1e-9, abs_tol=1e-14)
        if res.failed or not res.converged:
            return MomentValue.failed(order, "quadrature stalled")
        return MomentValue.convergent(res.value, res.err_estimate, order)
    raise DomainError(f"unknown observable kind {o.kind!r}")


def _axis_density(s: ContinuousState, o: Observable) -> Callable:
    if o.kind == POSITION_AXIS:
        return lambda x: s.axis_position_density(o.axis, x)
    return lambda x: s.axis_momentum_density(o.axis, x)


def abs_axis_moment_about(
    s: ContinuousState, o: Observable, order: float, center: float
) -> MomentValue:
    """<|a - center|^order> for an axis observable (position or momentum)."""
    if s.dimensionality == DIM_3D_SPHERICAL:
        rs = _require_radial(s)
        if center != 0.0:
            raise DomainError("spherical states have zero axis means; center must be 0")
        if o.kind == POSITION_AXIS:
            inner = raw_radial_moment(s, order)
        else:
            inner = _radial_momentum_raw(rs, order)
        if not inner.is_convergent:
            return MomentValue(inner.status, order, None, math.inf, inner.detail)
        return MomentValue.convergent(
            inner.value / (order + 1.0), inner.err_estimate / (order + 1.0), order
        )
    # one-dimensional state: integrate the marginal directly
    dens = _axis_density(s, o)

    def f(x):
        return np.abs(x - center) ** order * dens(x)

    res = integrate(f, Domain.infinite(), abs_tol=1e-15, breakpoints=[center])
    if res.failed or not res.converged:
        return MomentValue.failed(order, "quadrature stalled")
    return MomentValue.convergent(res.value, res.err_estimate, order)
