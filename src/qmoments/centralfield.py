"""Central force field analysis: energy balances, bound-state threshold,
and expectation bounds for model interatomic potentials.

Conventions: attractive power-law wells V(r) = -beta / r^alpha with beta > 0;
energies are reported in the state's unit system. Divergent potential
expectations are first-class outcomes with a signed direction, never clipped
to large numbers.
"""

from __future__ import annotations

import math

from .core import (
    DIVERGENT,
    CapabilityError,
    DomainError,
    MomentValue,
    PhysicalConstants,
    Verdict,
    _require_positive_finite,
    make_verdict,
    record,
)
from .exact import EXP_DECAY, ContinuousState
from . import moments as mo


@record
class PowerLawPotential:
    """V(r) = -beta / r^alpha."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            _require_positive_finite(name, getattr(self, name))


@record
class LennardJonesPotential:
    """V(r) = 4 eps [ (sigma/r)^12 - (sigma/r)^6 ]."""

    epsilon: float
    sigma: float

    def __post_init__(self):
        for name in ("epsilon", "sigma"):
            _require_positive_finite(name, getattr(self, name))


@record
class BuckinghamPotential:
    """V(r) = gamma [ e^{-r/r0} - (sigma/r)^6 ]."""

    gamma: float
    r0: float
    sigma: float

    def __post_init__(self):
        for name in ("gamma", "r0", "sigma"):
            _require_positive_finite(name, getattr(self, name))


def virial_report(s: ContinuousState, v: PowerLawPotential,
                  r_inv_alpha: MomentValue) -> dict[str, float]:
    """The virial section of the state in the well, in report order and in
    the state's own unit system, given its <r^-alpha>, which must converge:
    <T>, <V>, their sum, the scale-free residual |<T> + (alpha/2)<V>| /
    max(|<T>|, |<V>|), which vanishes only for true eigenstates of the well
    (it is reported, never asserted), the closed-form total
    (alpha/2 - 1) beta <r^-alpha> implied by the balance, alpha and beta."""
    inv_alpha = r_inv_alpha.require()
    mean_v = -v.beta * inv_alpha
    mean_t = s.kinetic_energy()
    return {"mean_T": mean_t, "mean_V": mean_v, "total_E": mean_t + mean_v,
            "virial_residual": abs(mean_t + 0.5 * v.alpha * mean_v) / max(abs(mean_t), abs(mean_v)),
            "E_formula": (0.5 * v.alpha - 1.0) * v.beta * inv_alpha,
            "alpha": v.alpha, "beta": v.beta}


def ground_energy_estimate(
    delta_r2: float,
    mean_r_inv_alpha: MomentValue,
    v: PowerLawPotential,
    c: PhysicalConstants,
) -> float:
    """hbar^2/(8 m dr^2) - beta <r^-alpha>: the radial kinetic floor minus the
    attraction. This is an estimate only; no comparison direction is chosen
    (the bound's direction is ambiguous), callers see the raw value."""
    if delta_r2 <= 0.0:
        raise DomainError("radial variance must be positive")
    return c.hbar**2 / (8.0 * c.mass * delta_r2) - v.beta * mean_r_inv_alpha.require()


def bound_threshold_radius(mean_r2: float, b: float) -> float:
    """The positive root of b <r>^2 + <r> - b <r^2> = 0, i.e. the radius at
    which the kinetic floor hbar^2/(8m dr^2) equals the attraction beta/<r>
    (alpha = 1, b = 8 m beta / hbar^2).

    With s = sqrt(<r^2>) and x = 1/(2 b s) the root is s/(x + hypot(x, 1)),
    a form without cancellation: it tends to b <r^2> for small b and to s
    for large b. Where x overflows (b below about 1e-308) the root is that
    small-b limit."""
    mean_r2 = _require_positive_finite("mean_r2", mean_r2)
    b = _require_positive_finite("b", b)
    s = math.sqrt(mean_r2)
    x = 0.5 / (b * s)
    if math.isinf(x):
        return b * mean_r2
    return s / (x + math.hypot(x, 1.0))


def _sigma_power(v: BuckinghamPotential | LennardJonesPotential, n: int) -> float:
    """sigma^n of a potential; DomainError where it overflows a double."""
    try:
        return v.sigma**n
    except OverflowError:
        raise DomainError(f"sigma^{n} overflows a double (sigma={v.sigma!r})") from None


def buckingham_bound(s: ContinuousState, v: BuckinghamPotential,
                     slack: float | None = None) -> Verdict:
    """The verdict <V> <= gamma[<e^-r/r0> - sigma^6/<r^6>]: lhs is the true
    mean gamma[<e^-r/r0> - sigma^6 <r^-6>], rhs the bound. Jensen's
    inequality (<r^-6> >= 1/<r^6>) guarantees it, so a violation is flagged
    as an internal error. slack is make_verdict's.

    A divergent <r^-6> makes the true mean -infinity: a DIVERGENT verdict
    that keeps the bound as its rhs. A failed <r^-6> raises MomentsError: it
    decides nothing."""
    mean_exp = _mean_exp_decay(s, v.r0)
    r6 = mo.raw_radial_moment(s, 6.0).require()
    s6 = _sigma_power(v, 6)
    bound = v.gamma * (mean_exp - s6 / r6)
    inputs = {"gamma": v.gamma, "r0": v.r0, "sigma": v.sigma, "guaranteed": True}
    rm6 = mo.raw_radial_moment(s, -6.0)
    if rm6.status == DIVERGENT:
        return Verdict("buckingham", math.nan, bound, math.nan, inputs, DIVERGENT,
                       f"<V> diverges to -infinity: <r^-6> {rm6.detail}")
    mean = v.gamma * (mean_exp - s6 * rm6.require())
    return make_verdict("buckingham", mean, bound, slack, inputs)


def _mean_exp_decay(s: ContinuousState, r0: float) -> float:
    """<e^(-r/r0)>, the radial state's direct moment; CapabilityError where
    the state has no radial structure or no such moment."""
    direct = mo.require_radial(s).direct_moment(EXP_DECAY, r0)
    if direct is None:
        raise CapabilityError(f"{s.label} has no <e^(-r/r0)>")
    return direct.require()


def lennard_jones_mean(s: ContinuousState, v: LennardJonesPotential) -> MomentValue:
    """<V_LJ> = 4 eps [sigma^12 <r^-12> - sigma^6 <r^-6>], convergent only
    when both inverse moments converge; divergent with the offending moment
    named when one diverges. A failed moment raises MomentsError."""
    rm12 = mo.raw_radial_moment(s, -12.0)
    if rm12.status == DIVERGENT:
        return MomentValue.divergent(
            1.0, f"<V_LJ> diverges to +infinity: <r^-12> {rm12.detail}"
        )
    rm6 = mo.raw_radial_moment(s, -6.0)
    if rm6.status == DIVERGENT:
        return MomentValue.divergent(
            1.0, f"<V_LJ> diverges: <r^-6> {rm6.detail}"
        )
    s6, s12 = _sigma_power(v, 6), _sigma_power(v, 12)
    value = 4.0 * v.epsilon * (s12 * rm12.require() - s6 * rm6.require())
    err = 4.0 * v.epsilon * (s12 * rm12.err_estimate + s6 * rm6.err_estimate)
    return MomentValue.convergent(value, err, 1.0)
