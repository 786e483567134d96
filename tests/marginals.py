"""Quadrature oracles for tests: axis marginals by their plain definition,
integrals over infinite domains, the u(r) and momentum tables of catalog
states, and catalog states whose closed forms are switched off.

For a spherical state

    rho_z(z) = (1/2) int_{|z|}^{r_max} rho_r(r)/r dr
    g(p)     = (1/2) [int_{|p|}^{k_cut} w(k)^2/k dk + tail past k_cut] / hbar

with k = |p|/hbar and the tail from the momentum table's fitted model. Each
density value is its own integral, so integrating a density nests two
adaptive quadratures: slow, but independent of the isotropy reductions
<|z|^s> = <r^s>/(s+1) and <|p_z|^q> = <p^q>/(q+1) that moments.py uses. A
one-dimensional Gaussian state's marginals are normal densities.

qmoments.quadrature integrates finite intervals only; semi_infinite and
real_line map [a, inf) and the real line onto one algebraically:

    [a, inf)      r = a + t/(1-t),     t in [0, 1)
    (-inf, inf)   x = t/(1-t^2),       t in (-1, 1)

The algebraic map keeps exponential- and power-tailed integrands smooth in
t, and the Kronrod nodes never sample the singular ends of the map.
"""

import copy
import functools
import math

import numpy as np

from qmoments.core import DEFAULT_TOLERANCES, MomentValue, Tolerances
from qmoments.exact import DIM_1D, KINETIC, MOMENTUM_AXIS, P_POWER, POSITION_AXIS, R_POWER
from qmoments.quadrature import RadialSamples, integrate
from qmoments.states import RadialGridState, _MomentumTable


# --- infinite domains ---------------------------------------------------------


def semi_infinite(f, a=0.0, breakpoints=()):
    """(g, 0, 1, breakpoints) of f on [a, inf) mapped onto [0, 1)."""

    def g(t):
        t = np.asarray(t, dtype=float)
        om = 1.0 - t
        return f(a + t / om) / om**2

    inner = [(p - a) / (1.0 + (p - a)) for p in sorted(float(p) for p in breakpoints) if p > a]
    # default split keeps the first panel from straddling both scales
    return g, 0.0, 1.0, sorted(set(inner) | {0.5})


def real_line(f, breakpoints=()):
    """(g, -1, 1, breakpoints) of f on the real line mapped onto (-1, 1)."""

    def g(t):
        t = np.asarray(t, dtype=float)
        om = 1.0 - t * t
        return f(t / om) * (1.0 + t * t) / om**2

    def tmap(x):
        if x == 0.0:
            return 0.0
        return (math.sqrt(1.0 + 4.0 * x * x) - 1.0) / (2.0 * x)

    inner = [tmap(p) for p in sorted(float(p) for p in breakpoints)]
    return g, -1.0, 1.0, sorted(set(inner) | {-0.5, 0.0, 0.5})


def integrate_semi_infinite(f, a=0.0, tol=DEFAULT_TOLERANCES, breakpoints=()):
    g, lo, hi, inner = semi_infinite(f, a, breakpoints)
    return integrate(g, lo, hi, tol, inner)


def integrate_real_line(f, tol=DEFAULT_TOLERANCES, breakpoints=()):
    g, lo, hi, inner = real_line(f, breakpoints)
    return integrate(g, lo, hi, tol, inner)


# --- the reduced radial wavefunction -------------------------------------------


def power_exp_norm(st):
    """N = sqrt((2 kappa)^(2n+1) / (2n)!) of u = N r^n e^{-kappa r}."""
    return math.sqrt((2.0 * st.kappa) ** (2 * st.n + 1) / math.factorial(2 * st.n))


def radial_u(st):
    """(u, r_max) of a radial state: a grid state's interpolant and last
    knot, or u = N r^n e^{-kappa r} of a power-exponential state cut at
    r_max = (40 + 8n)/kappa, where u^2 has fallen below e^-60 of its peak."""
    if isinstance(st, RadialGridState):
        return st.reduced_radial, st.r_max

    def u(r):
        r = np.asarray(r, dtype=float)
        return power_exp_norm(st) * r**st.n * np.exp(-st.kappa * r)

    return u, (40.0 + 8.0 * st.n) / st.kappa


# --- momentum tables -----------------------------------------------------------


def power_exp_amplitude(st, k):
    """The closed form N sqrt(2/pi) n! Im[(kappa+ik)^(n+1)]/(kappa^2+k^2)^(n+1)
    of the sine transform of u = N r^n e^{-kappa r} over [0, inf)
    (Gradshteyn-Ryzhik 3.944)."""
    c = power_exp_norm(st) * math.sqrt(2.0 / math.pi) * math.factorial(st.n)
    n1, kappa = st.n + 1, st.kappa
    return c * np.imag((kappa + 1j * k) ** n1) / (kappa * kappa + k * k) ** n1


def equal_panel_count(r_max, r_scale, k_max):
    """The panel count of the catalog's equal-panel samples: panels a
    quarter-period of sin(k_max r) or shorter, never longer than half the
    radial scale, and at least 4."""
    return max(math.ceil(r_max / (0.5 * r_scale)), math.ceil(2.0 * k_max * r_max / math.pi), 4)


def equal_panel_samples(u, r_max, r_scale, k_max):
    """RadialSamples of u on equal_panel_count equal panels of [0, r_max],
    with u called once, on a 1-d array of the nodes in ascending order."""
    n = equal_panel_count(r_max, r_scale, k_max)
    values = np.asarray(u(RadialSamples.nodes(r_max, n).ravel()), dtype=float)
    return RadialSamples(values.reshape(n, 15), r_max, k_max)


def momentum_table(st, sampled=False):
    """The momentum table of a radial state: a grid state's own, else one
    built for a power-exponential state at r_scale = 1/kappa, with w the
    closed form, or with sampled the sine transform of u on equal panels
    (equal_panel_samples), as for a grid state that is not uniform."""
    if isinstance(st, RadialGridState):
        return st.momentum_table()
    r_scale = 1.0 / st.kappa
    if sampled:
        def amplitude(k_cut):
            return equal_panel_samples(*radial_u(st), r_scale, k_cut).sine_transform
    else:
        def amplitude(k_cut):
            return functools.partial(power_exp_amplitude, st)
    return _MomentumTable(amplitude, r_scale, st.momentum_tail_power())


# --- axis marginals -------------------------------------------------------------


def hydrogen_position_density(z):
    """The closed form of rho_z for hydrogen with a0 = 1."""
    z = np.abs(z)
    return np.exp(-2.0 * z) * (z + 0.5)


def _normal_density(z, center, s):
    z = np.asarray(z, dtype=float)
    out = np.exp(-((z - center) ** 2) / (2.0 * s * s)) / (s * math.sqrt(2.0 * math.pi))
    return out if out.ndim else float(out)


def _each(fn, x):
    # integrate hands over (panels, 15) node arrays; a scalar stays a float
    x = np.asarray(x, dtype=float)
    out = np.array([fn(abs(xi)) for xi in x.flat]).reshape(x.shape)
    return out if out.ndim else float(out)


def position_density(st, z):
    """The position marginal of st at z: normal for a 1-d Gaussian state,
    rho_z(z) by one radial integral per value for a spherical state."""
    if st.dimensionality == DIM_1D:
        return _normal_density(z, st.x0, st.sigma_x)

    u, r_max = radial_u(st)

    def one(lo):
        if lo >= r_max:
            return 0.0
        res = integrate(lambda r: u(r) ** 2 / r, lo, r_max, Tolerances(rel_tol=1e-11))
        return 0.5 * res.value

    return _each(one, z)


def momentum_density(st, p):
    """The momentum marginal of st at p: normal for a 1-d Gaussian state,
    g(p) by one k-integral per value for a spherical state."""
    if st.dimensionality == DIM_1D:
        return _normal_density(p, st.p0, st.sigma_p)
    hbar = st.constants.hbar
    tbl = momentum_table(st)
    # the partition only places the first panels where w is already kept
    edges = tbl.edges[1:-1]

    def one(ap):
        k = ap / hbar
        if k >= tbl.k_cut:
            return 0.5 * tbl.tail_integral(-1.0, k) / hbar
        res = integrate(lambda kk: tbl.w(kk) ** 2 / kk, k, tbl.k_cut,
                        Tolerances(rel_tol=1e-11), breakpoints=edges)
        return 0.5 * (res.value + tbl.tail_integral(-1.0, tbl.k_cut)) / hbar

    return _each(one, p)


# --- the quadrature routes the closed forms replaced --------------------------


def reduced_radial_derivative(st, r):
    """u'(r) of a grid state's interpolant or of a power-exponential state."""
    if isinstance(st, RadialGridState):
        return st.norm_factor * st._dinterp(r)
    r = np.asarray(r, dtype=float)
    n, kappa = st.n, st.kappa
    return power_exp_norm(st) * np.exp(-kappa * r) * (n * r ** (n - 1) - kappa * r**n)


def _kinetic_energy(st, tol):
    """(hbar^2/2m) int |psi'|^2 at tol: over the real line for a 1-d
    Gaussian state, int_0^r_max u'^2 dr for a radial one."""
    c = st.constants
    if st.dimensionality == DIM_1D:
        s, k0 = st.sigma_x, st.p0 / c.hbar

        def grad_sq(x):
            rho = position_density(st, x)
            return ((x - st.x0) ** 2 / (4.0 * s**4) + k0 * k0) * rho

        res = integrate_real_line(grad_sq, tol, breakpoints=[st.x0])
    else:
        res = integrate(lambda r: reduced_radial_derivative(st, r) ** 2, 0.0, radial_u(st)[1], tol)
    scale = c.hbar**2 / (2.0 * c.mass)
    m = res.as_moment(1.0)
    return MomentValue.convergent(scale * m.require(), scale * m.err_estimate, 1.0)


def radial_moment(st, t, tol, breakpoints=()):
    """<r^t> = int_0^r_max u^2 r^t dr by adaptive quadrature at tol. The
    integrand is (u r^(t/2))^2: r^t alone overflows at the nodes next to
    r = 0 that negative orders are refined toward."""

    u, r_max = radial_u(st)

    def f(r):
        with np.errstate(over="ignore"):
            return (u(r) * r ** (0.5 * t)) ** 2

    return integrate(f, 0.0, r_max, tol, breakpoints).as_moment(t)


def axis_moment(st, quantity, x, tol):
    """<|a - <a>|^x> of a 1-d Gaussian state, for POSITION_AXIS and
    MOMENTUM_AXIS, over its marginal on the real line at tol."""
    position = quantity == POSITION_AXIS
    center = st.x0 if position else st.p0

    def dens(z):
        return position_density(st, z) if position else momentum_density(st, z)

    return integrate_real_line(lambda z: abs(z - center) ** x * dens(z), tol, [center]).as_moment(x)


def integrated(st, tol, sampled=False):
    """A copy of st whose direct_moment gives only what the quadrature
    routes above compute, at tol (the copy's tol, which a catalog state
    does not carry): every <r^t> then comes from adaptive quadrature
    (radial_moment), every momentum order from the k-integral of a momentum
    table (momentum_table(st, sampled)), and the axis moments of a 1-d
    state and every kinetic energy from this module."""
    table = functools.cache(lambda: momentum_table(st, sampled))

    def direct(quantity, x):
        if quantity == KINETIC:
            return _kinetic_energy(st, tol)
        if quantity == R_POWER:
            return radial_moment(st, x, tol)
        if quantity == P_POWER and st.dimensionality != DIM_1D:
            return table().moment(x, tol, st.constants.hbar)
        if st.dimensionality == DIM_1D and quantity in (POSITION_AXIS, MOMENTUM_AXIS):
            return axis_moment(st, quantity, x, tol)
        return None

    out = copy.copy(st)
    out.direct_moment = direct
    out.tol = tol
    return out
