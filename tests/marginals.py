"""Quadrature oracles for tests: axis marginals of spherical states by their
plain definition, and catalog states with their closed forms switched off.

    rho_z(z) = (1/2) int_{|z|}^{r_max} rho_r(r)/r dr
    g(p)     = (1/2) [int_{|p|}^{k_cut} w(k)^2/k dk + tail past k_cut] / hbar

with k = |p|/hbar and the tail from the momentum table's fitted model. Each
density value is its own integral, so integrating a density nests two
adaptive quadratures: slow, but independent of the isotropy reductions
<|z|^s> = <r^s>/(s+1) and <|p_z|^q> = <p^q>/(q+1) that moments.py uses.
"""

import copy

import numpy as np

from qmoments.core import Tolerances
from qmoments.quadrature import Domain, integrate


def hydrogen_position_density(z):
    """The closed form of rho_z for hydrogen with a0 = 1."""
    z = np.abs(z)
    return np.exp(-2.0 * z) * (z + 0.5)


def _each(fn, x):
    # integrate hands over (panels, 15) node arrays; a scalar stays a float
    x = np.asarray(x, dtype=float)
    out = np.array([fn(abs(xi)) for xi in x.flat]).reshape(x.shape)
    return out if out.ndim else float(out)


def position_density(st, z):
    """rho_z(z) of a spherical state, by one radial integral per value."""

    def one(lo):
        if lo >= st.r_max:
            return 0.0
        res = integrate(lambda r: st.radial_density(r) / r, Domain.finite(lo, st.r_max),
                        Tolerances(rel_tol=1e-11, abs_tol=1e-16))
        return 0.5 * res.value

    return _each(one, z)


def momentum_density(st, p):
    """g(p) of a spherical state, by one k-integral per value."""
    hbar = st.constants.hbar
    tbl = st.momentum_table()
    # the partition only places the first panels where w is already cached
    edges = tbl.partition()[1:-1]

    def one(ap):
        k = ap / hbar
        if k >= tbl.k_cut:
            return 0.5 * tbl.tail_integral(-1.0, k) / hbar
        res = integrate(lambda kk: tbl.w(kk) ** 2 / kk, Domain.finite(k, tbl.k_cut),
                        Tolerances(rel_tol=1e-11, abs_tol=1e-16), breakpoints=edges)
        return 0.5 * (res.value + tbl.tail_integral(-1.0, tbl.k_cut)) / hbar

    return _each(one, p)


def integrated(st):
    """A copy of st whose direct_moment gives nothing: every moment, and the
    kinetic energy, then comes from adaptive quadrature (w(k) of a
    power-exponential state is still its closed-form amplitude)."""
    out = copy.copy(st)
    out.direct_moment = lambda quantity, x: None
    return out
