"""The catalog states and their closed-form moments, without numpy.

Two families live here. Power-exponential radial states u = N r^n e^{-kappa r}
(hydrogen 1s is n = 1, kappa = 1/a0) carry a reduced radial wavefunction
u(r) = r R(r) with int u^2 dr = 1; their axis moments come from radial ones
by isotropy (see moments.py). One-dimensional Gaussian states (oscillator
ground state, free packets) are normal in position and in momentum.

Every moment a catalog command needs has a closed form here, which a state
gives through one hook, direct_moment: the moment functions consult it
before they build an integrand, and integrate only where it returns None.
The kinetic energy, the momentum orders and the axis moments of a 1-d state
have no other route; a radial state here only counts where its momentum
moments diverge (momentum_tail_power). A closed form is evaluated in log
space with math.lgamma, and its err_estimate is a rounding-level bound (see
_from_logs). A finite positive moment that leaves the normal double range
raises DomainError; it never comes back as 0, a subnormal or inf.

Nothing here imports numpy at module level; the radial densities import it
when first called. All states are immutable after construction.
"""

from __future__ import annotations

import math

from .core import (
    DEFAULT_TOLERANCES, CapabilityError, DomainError, MomentValue, NATURAL, PhysicalConstants,
    Tolerances, _require_normal,
)

DIM_1D = "1d"
DIM_3D_SPHERICAL = "3d-spherical"

# the quantities of direct_moment
R_POWER = "r^t"                     # <r^t>, x = t
P_POWER = "p^q"                     # <p^q> with p = hbar k, x = q
POSITION_AXIS = "position_axis"     # <|x - <x>|^s> of a 1-d state, x = s
MOMENTUM_AXIS = "momentum_axis"     # <|p - <p>|^s> of a 1-d state, x = s
POSITION_SIGNED = "x^n"             # <x^n> of a 1-d state, x = n, an integer >= 0
MOMENTUM_SIGNED = "p_x^n"           # <p^n> of a 1-d state, x = n, an integer >= 0
KINETIC = "T"                       # <T>, x unused
EXP_DECAY = "exp(-r/r0)"            # <e^(-r/r0)>, x = r0

_LOG2 = math.log(2.0)
_LOG_PI = math.log(math.pi)
_EPS = 2.0**-52


def _from_logs(terms: list[float], what: str) -> tuple[float, float]:
    """exp(sum(terms)) and a bound on its rounding error.

    The terms are logs (lgamma values, t log 2kappa, ...), each within a few
    ulps of its own size, and exp turns the absolute error of its argument
    into a relative one: the bound is 16 eps (1 + sum|term|) of the value.
    DomainError naming what where the value leaves the normal double range."""
    x = math.fsum(terms)
    try:
        value = math.exp(x)
    except OverflowError:
        value = math.inf
    value = _require_normal(what, value)
    return value, 16.0 * _EPS * value * (1.0 + math.fsum(abs(t) for t in terms))


def _direct(terms: list[float], what: str, order: float) -> MomentValue:
    value, err = _from_logs(terms, what)
    return MomentValue.convergent(value, err, order)


class ContinuousState:
    """Base state: accessors that raise CapabilityError.

    Subclasses override the methods backing the densities they have. A state
    carries its unit system (constants) and the accuracy target (tol) of
    every integral over it: its moments and its momentum k-integrals.
    """

    dimensionality: str = DIM_1D
    label = "state"

    def __init__(self, constants: PhysicalConstants = NATURAL, tol: Tolerances = DEFAULT_TOLERANCES):
        self.constants = constants
        self.tol = tol

    def direct_moment(self, quantity: str, x: float) -> MomentValue | None:
        """The quantity (R_POWER, P_POWER, POSITION_AXIS, MOMENTUM_AXIS,
        POSITION_SIGNED, MOMENTUM_SIGNED, KINETIC or EXP_DECAY) at x from a
        route of the state's own (a closed form here, a grid state's tables),
        or None where the state has no such route. Callers decide divergence
        first: this is asked only for finite moments."""
        return None

    # -- radial surface -----------------------------------------------------
    def radial_density(self, r):
        raise CapabilityError(f"{self.label} has no radial density")

    def reduced_radial(self, r):
        raise CapabilityError(f"{self.label} has no reduced radial wavefunction")

    # -- axis marginals ------------------------------------------------------
    def position_mean(self, axis: int) -> float:
        raise CapabilityError(f"{self.label} has no position density")

    def momentum_mean(self, axis: int) -> float:
        raise CapabilityError(f"{self.label} has no momentum density")

    def kinetic_energy(self) -> float:
        """<T> from direct_moment(KINETIC); CapabilityError where the state
        has none."""
        direct = self.direct_moment(KINETIC, 0.0)
        if direct is None:
            raise CapabilityError(f"{self.label} has no kinetic energy")
        return direct.value

    def _check_axis(self, axis: int) -> None:
        if self.dimensionality == DIM_3D_SPHERICAL:
            if axis not in (1, 2, 3):
                raise DomainError(f"axis must be 1, 2, or 3, got {axis}")
        elif axis != 1:
            raise CapabilityError(f"{self.label} is one-dimensional; only axis 1 exists")


# ---------------------------------------------------------------------------
# spherically symmetric states


class RadialStateBase(ContinuousState):
    """Common machinery for l = 0 states defined by u(r) on [0, inf)."""

    dimensionality = DIM_3D_SPHERICAL

    #: u ~ r^origin_power_u near the origin; inf when u is zero on some
    #: interval [0, a]
    origin_power_u: float = 1.0
    r_max: float = 50.0

    def radial_density(self, r):
        import numpy as np

        r = np.asarray(r, dtype=float)
        if np.any(r < 0.0):
            raise DomainError("radial coordinate must be >= 0")
        return self.reduced_radial(r) ** 2

    def momentum_tail_power(self) -> float:
        """Decay exponent tau of w(k) ~ k^tau, from the origin behavior of u.

        For u ~ r^m the transform is driven by the first even derivative of u
        that survives at the origin: k^-(m+1) for even integer m, k^-(m+2)
        for odd integer m, and k^-(m+1) for fractional m.
        """
        m = self.origin_power_u
        if m.is_integer():
            j = int(m) if m % 2 == 0 else int(m) + 1
            return -(j + 1.0)
        return -(m + 1.0)

    def position_mean(self, axis: int) -> float:
        self._check_axis(axis)
        return 0.0

    def momentum_mean(self, axis: int) -> float:
        self._check_axis(axis)
        return 0.0


class PowerExpRadialState(RadialStateBase):
    """u(r) = N r^n e^{-kappa r}, normalized in closed form, with every
    moment of the catalog commands in closed form:

        <r^t>          = Gamma(2n+1+t) / (Gamma(2n+1) (2 kappa)^t),  t > -(2n+1)
        <p^q>          = (hbar kappa)^q (2/pi) N_1^2 (n!)^2 sum_a c_a B_a / 2
        <T>            = hbar^2 kappa^2 / (2 m (2n-1))
        <e^(-r/r0)>    = (2 kappa / (2 kappa + 1/r0))^(2n+1)

    where Im[(1+ik)^(n+1)]^2 = sum_a c_a k^a, N_1 is N at kappa = 1 and
    B_a = B((a+q+1)/2, 2n+2 - (a+q+1)/2), from
    int_0^inf k^(a+q) (1+k^2)^-(2n+2) dk = B_a / 2 (Gradshteyn-Ryzhik 3.251).
    <p^q> is finite exactly below the threshold momentum_tail_power gives.
    """

    def __init__(self, n: int, kappa: float, constants: PhysicalConstants = NATURAL,
                 label: str | None = None, tol: Tolerances = DEFAULT_TOLERANCES):
        super().__init__(constants, tol)
        if n < 1:
            raise DomainError("radial power must be >= 1 so that u(0) = 0")
        if kappa <= 0.0:
            raise DomainError("decay rate must be positive")
        self.n = int(n)
        self.kappa = float(kappa)
        self.origin_power_u = float(n)
        self.r_max = (40.0 + 8.0 * n) / kappa
        self.label = label or f"r{n}exp({kappa:g})"

    @property
    def norm(self) -> float:
        """N = sqrt((2 kappa)^(2n+1) / (2n)!); DomainError where it leaves
        the double range (only the integrands need it)."""
        n = self.n
        log_n2 = (2 * n + 1) * (_LOG2 + math.log(self.kappa)) - math.lgamma(2 * n + 1)
        return _from_logs([0.5 * log_n2], f"the norm of {self.label}")[0]

    def reduced_radial(self, r):
        import numpy as np

        r = np.asarray(r, dtype=float)
        return self.norm * r**self.n * np.exp(-self.kappa * r)

    def direct_moment(self, quantity: str, x: float) -> MomentValue | None:
        n, log_kappa = self.n, math.log(self.kappa)
        c = self.constants
        if quantity == R_POWER:
            terms = [math.lgamma(2 * n + 1 + x), -math.lgamma(2 * n + 1), -x * (_LOG2 + log_kappa)]
            return _direct(terms, f"<r^{x:g}> of {self.label}", x)
        if quantity == P_POWER:
            s, s_err = _momentum_beta_sum(n, x)
            log_n1 = (2 * n + 1) * _LOG2 - math.lgamma(2 * n + 1)
            terms = [log_n1 + _LOG2 - _LOG_PI + 2.0 * math.lgamma(n + 1) + math.log(s),
                     x * log_kappa, x * math.log(c.hbar)]
            value, err = _from_logs(terms, f"<p^{x:g}> of {self.label} at hbar={c.hbar:g}")
            return MomentValue.convergent(value, err + value * s_err / s, x)
        if quantity == KINETIC:
            terms = [2.0 * math.log(c.hbar) + 2.0 * log_kappa, -_LOG2 - math.log(c.mass),
                     -math.log(2 * n - 1)]
            return _direct(terms, f"<T> of {self.label} at hbar={c.hbar:g}, mass={c.mass:g}", 1.0)
        if quantity == EXP_DECAY:
            # log(2 kappa / (2 kappa + 1/r0)) = -log(1 + e^y), y = -log(2 kappa r0)
            y = -(_LOG2 + log_kappa + math.log(x))
            softplus = y + math.log1p(math.exp(-y)) if y > 0.0 else math.log1p(math.exp(y))
            return _direct([-(2 * n + 1) * softplus], f"<e^(-r/{x:g})> of {self.label}", 1.0)
        return None


def _momentum_beta_sum(n: int, q: float) -> tuple[float, float]:
    """sum_a c_a B_a / 2 of PowerExpRadialState at kappa = 1, and a bound on
    its rounding error: the c_a are exact integers, each Beta term carries
    the error of its three lgamma values, and the terms alternate in sign,
    so the bound is taken on the sum of their magnitudes."""
    m = 2 * n + 2
    b = {j: math.comb(n + 1, j) * (-1) ** ((j - 1) // 2) for j in range(1, n + 2, 2)}
    coeffs: dict[int, int] = {}
    for j1, b1 in b.items():
        for j2, b2 in b.items():
            coeffs[j1 + j2] = coeffs.get(j1 + j2, 0) + b1 * b2
    terms = []
    for a, ca in coeffs.items():
        alpha = 0.5 * (a + q + 1.0)
        logs = math.lgamma(alpha) + math.lgamma(m - alpha) - math.lgamma(m)
        terms.append((ca * 0.5 * math.exp(logs), abs(logs)))
    total = math.fsum(t for t, _ in terms)
    err = 16.0 * _EPS * math.fsum(abs(t) * (1.0 + lg) for t, lg in terms)
    return total, err


class HydrogenGroundState(PowerExpRadialState):
    """The 1s state: psi = (pi a0^3)^{-1/2} e^{-r/a0}, u = 2 a0^{-3/2} r e^{-r/a0}."""

    def __init__(self, a0: float = 1.0, constants: PhysicalConstants | None = None,
                 tol: Tolerances = DEFAULT_TOLERANCES):
        if a0 <= 0.0:
            raise DomainError("a0 must be positive")
        if constants is None:
            constants = PhysicalConstants(a0=a0)
        super().__init__(n=1, kappa=1.0 / a0, constants=constants, label=f"hydrogen(a0={a0:g})", tol=tol)
        self.a0 = float(a0)


# ---------------------------------------------------------------------------
# one-dimensional Gaussian states


class _Gaussian1D(ContinuousState):
    """Shared closed-form moments for Gaussian wavefunctions:

        <|x - x0|^s> = (sqrt(2) sigma)^s Gamma((s+1)/2) / sqrt(pi)
        <x^n>        = sum_k C(n,2k) x0^(n-2k) sigma^(2k) (2k-1)!!

    in position and, with p0 and sigma_p = hbar / (2 sigma), in momentum,
    and <T> = (sigma_p^2 + p0^2) / (2m). The widths are kept as logs, so a
    moment in range never passes through a width that is not."""

    dimensionality = DIM_1D

    x0 = 0.0
    p0 = 0.0
    _log_sigma_x = 0.0

    @property
    def sigma_x(self) -> float:
        return math.exp(self._log_sigma_x)

    @property
    def sigma_p(self) -> float:
        return math.exp(self._log_sigma_p)

    @property
    def _log_sigma_p(self) -> float:
        return math.log(self.constants.hbar) - _LOG2 - self._log_sigma_x

    def position_mean(self, axis: int) -> float:
        self._check_axis(axis)
        return self.x0

    def momentum_mean(self, axis: int) -> float:
        self._check_axis(axis)
        return self.p0

    def direct_moment(self, quantity: str, x: float) -> MomentValue | None:
        if quantity == KINETIC:
            c = self.constants
            log_p = math.log(math.hypot(self.sigma_p, self.p0)) if self.p0 else self._log_sigma_p
            terms = [2.0 * log_p, -_LOG2 - math.log(c.mass)]
            return _direct(terms, f"<T> of {self.label} at hbar={c.hbar:g}, mass={c.mass:g}", 1.0)
        if quantity in (POSITION_AXIS, POSITION_SIGNED):
            side, mu, log_sigma = "x", self.x0, self._log_sigma_x
        elif quantity in (MOMENTUM_AXIS, MOMENTUM_SIGNED):
            side, mu, log_sigma = "p", self.p0, self._log_sigma_p
        else:
            return None
        if quantity in (POSITION_SIGNED, MOMENTUM_SIGNED):
            n = int(x)
            return _normal_raw_moment(n, mu, log_sigma, f"<{side}^{n}> of {self.label}")
        terms = [x * (0.5 * _LOG2 + log_sigma), math.lgamma(0.5 * (x + 1.0)), -0.5 * _LOG_PI]
        return _direct(terms, f"<|{side} - {side}0|^{x:g}> of {self.label}", x)


def _normal_raw_moment(n: int, mu: float, log_sigma: float, what: str) -> MomentValue:
    """E[(mu + sigma Z)^n] for a standard normal Z, as the sum over k of
    C(n,2k) mu^(n-2k) sigma^(2k) (2k-1)!!. The terms share the sign of mu^n,
    so nothing cancels, and the rounding bound is 16 eps sum|term|, each
    term widened by the error that exp carries from its argument 2k log
    sigma. Exactly 0 for odd n at mu = 0; DomainError where the value
    leaves the normal double range."""
    if n % 2 == 1 and mu == 0.0:
        return MomentValue.convergent(0.0, 0.0, n)  # parity, exact
    try:
        terms = [(math.comb(n, 2 * k) * math.prod(range(2 * k - 1, 0, -2)) * mu ** (n - 2 * k)
                  * math.exp(2 * k * log_sigma), 2 * k * abs(log_sigma)) for k in range(n // 2 + 1)]
        value = math.fsum(t for t, _ in terms)
    except OverflowError:
        value = math.inf
    _require_normal(what, abs(value))
    err = 16.0 * _EPS * math.fsum(abs(t) * (1.0 + lg) for t, lg in terms)
    return MomentValue.convergent(value, err, n)


class GaussianPacket(_Gaussian1D):
    """Free Gaussian packet centered at x0 with mean momentum p0 and position s.d. sigma."""

    def __init__(self, x0: float = 0.0, p0: float = 0.0, sigma: float = 1.0,
                 constants: PhysicalConstants = NATURAL, tol: Tolerances = DEFAULT_TOLERANCES):
        super().__init__(constants, tol)
        if sigma <= 0.0:
            raise DomainError("sigma must be positive")
        self.x0 = float(x0)
        self.p0 = float(p0)
        self._log_sigma_x = math.log(sigma)
        self.label = f"gaussian(x0={x0:g}, p0={p0:g}, sigma={sigma:g})"


class HarmonicOscillatorGround(_Gaussian1D):
    """Oscillator ground state; position s.d. is sqrt(hbar/(2 m omega))."""

    def __init__(self, mass: float = 1.0, omega: float = 1.0, hbar: float = 1.0,
                 tol: Tolerances = DEFAULT_TOLERANCES):
        constants = PhysicalConstants(hbar=hbar, mass=mass)
        super().__init__(constants, tol)
        if omega <= 0.0:
            raise DomainError("omega must be positive")
        self.omega = float(omega)
        self._log_sigma_x = 0.5 * (math.log(hbar) - _LOG2 - math.log(mass) - math.log(omega))
        self.label = f"qho(m={mass:g}, omega={omega:g})"


# ---------------------------------------------------------------------------
# the default catalog


def catalog(
    constants: PhysicalConstants = NATURAL, tol: Tolerances = DEFAULT_TOLERANCES
) -> dict[str, ContinuousState]:
    """The default example states, keyed by CLI name, all at tolerances tol."""
    return {
        "hydrogen": HydrogenGroundState(a0=constants.a0, constants=constants, tol=tol),
        "qho": HarmonicOscillatorGround(mass=constants.mass, hbar=constants.hbar, tol=tol),
        "gaussian": GaussianPacket(sigma=constants.a0, constants=constants, tol=tol),
        "r4test": PowerExpRadialState(4, 1.0 / constants.a0, constants=constants, label="r4test", tol=tol),
    }
