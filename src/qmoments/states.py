"""Radial grid states, and the array machinery of their moments.

A RadialGridState is a state sampled as (r_i, u_i) from a file or arrays and
interpolated with a monotone cubic; its position moments, norm and kinetic
energy come from K15 sums over a table of u at the knot intervals' Kronrod
nodes, which the state computes once, and the position moments on a first
interval [0, r_1] from its cubic in closed form; on a grid uniform from
r = 0, its sine transform takes the cubic's coefficients on the knot
intervals, and is then exact for the model. Its momentum orders <p^q> come
from a _MomentumTable, the one owner of the momentum k-integral:
one fixed table of w at the nodes of a shared k-partition, one transform call
for any other request, and a power-law tail model.

The catalog states (hydrogen, r4test and any PowerExpRadialState, qho,
gaussian), their base classes and catalog() live in the numpy-free module
exact, which gives their moments in closed form; they are re-exported here.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Sequence

import numpy as np

from .core import (
    CapabilityError, DataFormatError, DEFAULT_TOLERANCES, DomainError, MomentValue, NATURAL,
    PhysicalConstants, Tolerances, _require_normal,
)
from .exact import (  # noqa: F401  (the catalog is re-exported)
    DIM_1D, DIM_3D_SPHERICAL, EXP_DECAY, KINETIC, P_POWER, R_POWER, ContinuousState, GaussianPacket,
    HarmonicOscillatorGround, HydrogenGroundState, PowerExpRadialState, RadialStateBase, catalog,
)
from .quadrature import MAX_SINE_PANELS, QuadResult, RadialSamples, integrate, kronrod_nodes, panel_sum


# ---------------------------------------------------------------------------
# momentum tables of grid states


class _MomentumTable:
    """w(k) of a grid state for its momentum k-integrals, with a power-law
    tail model, and the moments <p^q> they give.

    amplitude(k_cut) is the state's w on arrays of 0 <= k <= k_cut =
    50/r_scale, a value depending on its k alone. Past k_cut, w is
    C k^tau + D k^(tau-2), fitted at 0.7 k_cut and k_cut, which keeps heavy
    tails cheap without truncating them. Every order starts its k-integral
    from one partition of [0, k_cut] (edges): [0, 1e-4/r_scale], 11
    geometric panels up to 1/r_scale and 24 up to k_cut, 540 Kronrod nodes.
    The constructor computes w at those nodes and the two fit points in one
    _batch call and keeps them read-only, so integrate's first round of
    every order computes nothing; any other request is one _batch call of
    all its k.
    """

    def __init__(self, amplitude: Callable, r_scale: float, tail_power: float):
        self.k_cut = k_cut = 50.0 / r_scale
        self._amplitude = amplitude(k_cut)
        kb = 1.0 / r_scale
        edges = np.concatenate([[0.0], np.geomspace(1e-4 * kb, kb, 12), np.geomspace(kb, k_cut, 25)[1:]])
        nodes = kronrod_nodes(edges[:-1], edges[1:])[0]
        k1, k2 = 0.7 * k_cut, k_cut
        w = self._batch(np.append(nodes, (k1, k2)))
        edges.flags.writeable = nodes.flags.writeable = w.flags.writeable = False
        self.edges, self._nodes, self._w_nodes = edges, nodes, w[:-2].reshape(nodes.shape)
        # C k^tau + D k^(tau-2) through w(k1) and w(k2)
        a1 = w[-2] * k1 ** (-tail_power)
        a2 = w[-1] * k2 ** (-tail_power)
        d = (a1 - a2) / (k1 ** (-2.0) - k2 ** (-2.0))
        self._tail_fit = (float(a2 - d * k2 ** (-2.0)), float(d), tail_power)

    def w(self, ks) -> np.ndarray:
        """w(k) for an array of k of any shape (the (panels, 15) node arrays
        of integrate among them): the kept read-only array for the
        partition's nodes, else one _batch call."""
        ks = np.atleast_1d(np.asarray(ks, dtype=float))
        if np.array_equal(ks, self._nodes):
            return self._w_nodes
        return self._batch(ks.ravel()).reshape(ks.shape)

    def _batch(self, ks: np.ndarray) -> np.ndarray:
        """w at the k of a request, from one amplitude call: the one caller
        of the amplitude, which qbench/tracing.py hooks to count the
        transformed k (states.w.k_transformed)."""
        return self._amplitude(ks)

    def moment(self, q: float, tol: Tolerances, hbar: float) -> MomentValue:
        """<p^q> = hbar^q int_0^inf w^2 k^q dk, for q below the tail's
        divergence threshold: integrate over [0, k_cut] at tol from the
        edges (failed where it stalls), plus the tail model, which adds 1e-4
        of itself to the error."""
        body = integrate(lambda k: self.w(k) ** 2 * k**q, 0.0, self.k_cut, tol,
                         self.edges[1:-1]).as_moment(q)
        if not body.is_convergent:
            return body
        tail = self.tail_integral(q, self.k_cut)
        value = hbar**q * (body.value + tail)
        err = hbar**q * (body.err_estimate + 1e-4 * abs(tail))
        return MomentValue.convergent(value, err, q)

    def tail_integral(self, power_shift: float, lower: float) -> float:
        """int_lower^inf w(k)^2 k^power_shift dk under the tail model."""
        if lower < self.k_cut:
            raise DomainError("tail integral starts below the fitted region")
        c, d, tau = self._tail_fit

        def piece(coef: float, expo: float) -> float:
            # int_lower^inf coef * k^expo dk, requires expo < -1
            if coef == 0.0:
                return 0.0
            if expo >= -1.0:
                raise DomainError(f"non-integrable momentum tail exponent {expo}")
            return coef * lower ** (expo + 1.0) / (-(expo + 1.0))

        m = 2.0 * tau + power_shift
        return piece(c * c, m) + piece(2.0 * c * d, m - 2.0) + piece(d * d, m - 4.0)


# ---------------------------------------------------------------------------
# monotone piecewise cubic for sampled states


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point slope at a grid end, clamped to keep its shape:
    0 if its sign differs from the first secant's, 3*m0 if the secants change
    sign and it overshoots (Moler, Numerical Computing with MATLAB, 3.6)."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Knot slopes for knot spacings h and secants m (Fritsch & Carlson 1980,
    Fritsch & Butland 1984): 0 where the neighbouring secants change sign or
    either is 0 (the divisions by 0 that np.where discards are silenced by
    _monotone_cubic), else their weighted harmonic mean. Two knots give a line."""
    if m.size == 1:
        return np.repeat(m, 2)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    d = np.empty(m.size + 1)
    d[1:-1] = np.where(flat, 0.0, (w1 + w2) / (w1 / m[:-1] + w2 / m[1:]))
    d[0] = _end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def _horner(s: np.ndarray, coefs) -> np.ndarray:
    """sum_j c_j s^(d-j) by Horner's rule, for d + 1 >= 2 coefficient arrays
    c_0..c_d (highest power first, any iterable) that broadcast against s."""
    coefs = iter(coefs)
    out = next(coefs) * s
    out += next(coefs)
    for c in coefs:
        out *= s
        out += c
    return out


class _PiecewiseCubic:
    """A polynomial in the local power s = r - r_i on each knot interval
    [r_i, r_{i+1}], zero outside [r_0, r_N]; coefficients run from the
    highest power down.

    The three evaluations (__call__, at_ascending, at_knot_nodes) differ only
    in how they find each point's interval; they share _horner, so a point
    gets the same value from each of them."""

    def __init__(self, r: np.ndarray, coefs):
        # a zero row on each side catches the points left of r_0 and right of
        # r_N; the last edge sits one ulp above r_N so that r_N itself falls
        # in the last interval
        self._knots = r
        self._edges = r.copy()
        self._edges[-1] = np.nextafter(r[-1], np.inf)
        self._left = np.concatenate(([0.0], r[:-1], [0.0]))
        self._coefs = [np.concatenate(([0.0], c, [0.0])) for c in coefs]

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        i = np.searchsorted(self._edges, r, side="right")
        return _horner(r - self._left.take(i), (c.take(i) for c in self._coefs))

    def at_ascending(self, r: np.ndarray) -> np.ndarray:
        """self(r) for a 1-d r in ascending order. The points of each interval
        form one run of r, so one search of the edges in r gives the run
        lengths and np.repeat spreads each interval's row over its run: no
        search per point."""
        runs = np.diff(np.searchsorted(r, self._edges), prepend=0, append=r.size)
        return _horner(r - np.repeat(self._left, runs), (np.repeat(c, runs) for c in self._coefs))

    def at_knot_nodes(self, nodes: np.ndarray) -> np.ndarray:
        """Values at nodes, the (intervals, 15) Kronrod nodes of the knot
        intervals (kronrod_nodes). Row i lies in interval i, so the
        coefficients broadcast along the rows and nothing is searched."""
        return _horner(nodes - self._knots[:-1, None], (c[1:-1, None] for c in self._coefs))

    def unit_coefficients(self, parts: int) -> np.ndarray:
        """The (intervals * parts, degree + 1) coefficients, highest power
        first, of the polynomial in the unit variable t = (r - left)/width of
        each of `parts` equal parts of every knot interval, the parts in
        ascending order. Each interval's coefficient c_p of (r - r_i)^p
        becomes c_p w^p one factor of the width w at a time, so no power of
        w leaves the double range; a Taylor shift (repeated synthetic
        division) in the unit variable then moves them to each part."""
        w = np.diff(self._knots)[:, None]
        b = [np.repeat(c[1:-1, None], parts, axis=1) for c in self._coefs]  # b[j] times t^(degree - j)
        degree = len(b) - 1
        for p in range(degree):
            for j in range(p + 1):
                b[j] *= w
        left = np.arange(parts) / parts
        for p in range(degree):
            for j in range(1, degree + 1 - p):
                b[j] += b[j - 1] * left
        for j in range(degree):
            b[j] *= float(parts) ** (j - degree)
        return np.stack(b, axis=-1).reshape(-1, degree + 1)


def _monotone_cubic(r: np.ndarray, u: np.ndarray) -> tuple[_PiecewiseCubic, _PiecewiseCubic]:
    """The monotone cubic Hermite interpolant of (r, u) and its derivative;
    coefficients that overflow are left non-finite, without a warning."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        h = np.diff(r)
        m = np.diff(u) / h
        d = _pchip_slopes(h, m)
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        c = (t / h, (m - d[:-1]) / h - t, d[:-1])
    return _PiecewiseCubic(r, c + (u[:-1],)), _PiecewiseCubic(r, (3.0 * c[0], 2.0 * c[1], c[2]))


def _near_integer(m: float) -> float:
    """m, or the integer within 1e-9 of it. A grid's origin power passes
    through here, so a fit that misses an integer by rounding cannot cross
    an exact divergence threshold, at the origin or in the momentum tail."""
    n = float(np.rint(m))
    return n if abs(m - n) < 1e-9 else m


def _origin_power(r: np.ndarray, u: np.ndarray) -> float:
    """The power m of u ~ r^m at r = 0 from the exact fit of
    log|u| = m log r + b r + c through the first three nonzero interior
    samples; exact for r^m e^{-kappa r}, up to the snap to a near integer.
    1.0 when the fit is not finite."""
    i = 1 + int(np.argmax(np.abs(u[1:]) > 0.0))
    rs, us = r[i:i + 3], np.abs(u[i:i + 3])
    if rs.size < 3 or np.any(us == 0.0):
        return 1.0
    try:
        m = float(np.linalg.solve(np.stack([np.log(rs), rs, np.ones(3)], axis=1), np.log(us))[0])
    except np.linalg.LinAlgError:
        return 1.0
    return _near_integer(m) if math.isfinite(m) else 1.0


#: the largest relative difference between a grid state's <T> and that of
#: its half-resolution twin that the gradient route accepts
_KINETIC_REL_TOL = 1e-4


class RadialGridState(RadialStateBase):
    """A state sampled as (r_i, u_i) and interpolated with a monotone local cubic.

    The grid must be strictly increasing. u is divided by the power of two
    that puts max|u| in [0.5, 1), which is exact and keeps u^2 inside the
    double range at any amplitude scale, then renormalized (norm_factor is
    the factor applied to the scaled u); outside the grid u is zero. The origin
    power m of u (u ~ r^m at r = 0) is read off the grid: inf when the grid
    starts at r > 0 (u is zero below it, so every <r^t> is finite, and
    momentum orders are refused), 0 when it starts at r = 0 with u != 0 (a
    jump: <r^t> is finite exactly for t > -1, and w ~ k^-1, so <p^q> exactly
    for q < 1), and fitted when it starts at r = 0 with u = 0.

    u is kept at the 15 Kronrod nodes of every knot interval. K15 is exact
    there for the square of a piecewise cubic, so the norm comes from this
    table, and so do the position moments (knot_moment), except on the
    first interval of a grid that starts at r = 0, which they take in
    closed form (_position_moment).
    """

    def __init__(
        self,
        r: Sequence[float],
        u: Sequence[float],
        constants: PhysicalConstants = NATURAL,
        label: str = "grid state",
        tol: Tolerances = DEFAULT_TOLERANCES,
    ):
        super().__init__(constants)
        self.tol = tol
        r = np.asarray(r, dtype=float)
        u = np.asarray(u, dtype=float)
        if r.ndim != 1 or r.shape != u.shape or r.size < 4:
            raise DataFormatError("grid needs matching 1-d arrays with at least 4 samples")
        if not np.all(np.isfinite(r)):
            raise DataFormatError("grid radii must be finite")
        if np.any(np.diff(r) <= 0.0):
            raise DataFormatError("grid radii must be strictly increasing")
        if r[0] < 0.0:
            raise DataFormatError("grid radii must be >= 0")
        if not np.all(np.isfinite(u)):
            raise DataFormatError("grid wavefunction values must be finite")
        self._r = r
        peak_exp = math.frexp(np.abs(u).max())[1]
        self._interp, self._dinterp = _monotone_cubic(r, np.ldexp(u, -peak_exp))
        self._knot_nodes = kronrod_nodes(r[:-1], r[1:])  # (nodes, half-widths)
        # the norm check refuses a model whose coefficients overflow, silently
        with np.errstate(over="ignore", invalid="ignore"):
            u_knots = self._interp.at_knot_nodes(self._knot_nodes[0])
            norm2 = panel_sum(lambda _: u_knots**2, *self._knot_nodes, tol).value
        if not (math.isfinite(norm2) and norm2 > 0.0):
            raise DataFormatError("grid wavefunction has non-finite or zero norm")
        self.norm_factor = 1.0 / math.sqrt(norm2)
        u_knots *= self.norm_factor
        self._u_knots = u_knots
        self._table: _MomentumTable | None = None
        self.r_max = float(r[-1])
        self.r_scale = max(self.r_max / 90.0, float(np.median(np.diff(r))))
        self.label = label

        self._origin = None  # a grid from r = 0: see _origin_terms
        if r[0] > 0.0:
            self.origin_power_u = math.inf  # u is zero below r[0]
        else:
            self.origin_power_u = 0.0 if u[0] != 0.0 else _origin_power(r, u)  # 0: a jump
            self._origin = self._origin_terms()

    def _origin_terms(self) -> tuple[float, list[tuple[int, float, float]], float]:
        """r_1, the terms (j, D_j, 16 eps sum_i |a_i a_(j-i)|), D_j != 0, of
        u^2 = sum_j D_j s^j for the cubic u = sum_i a_i s^i on [0, r_1],
        s = r/r_1, and its lowest power; |a_i| <= 8 eps max|a| counts as 0."""
        a = self.norm_factor * self._interp.unit_coefficients(1)[0][::-1]
        a = np.where(np.abs(a) > 8.0 * np.finfo(float).eps * np.abs(a).max(), a, 0.0)
        d, bound = np.convolve(a, a).tolist(), np.convolve(np.abs(a), np.abs(a)).tolist()
        terms = [(j, d[j], 16.0 * np.finfo(float).eps * bound[j]) for j in range(7) if d[j] != 0.0]
        return float(self._r[1]), terms, float(np.flatnonzero(a)[0]) if a.any() else math.inf

    def knot_moment(self, t: float, first: int = 0) -> QuadResult:
        """int u^2 r^t dr over the knot intervals first, first + 1, ... by
        one panel_sum, from the tabled u: one evaluation of (u r^(t/2))^2,
        no refinement, converged at the state's tolerances. An order the
        fixed nodes cannot resolve (a steep power at an end) does not
        converge. A sum that is not finite, as knots near 1e300 make it,
        is failed."""
        u = self._u_knots[first:]
        nodes, h = (a[first:] for a in self._knot_nodes)

        def f(x):
            # (u x^(t/2))^2 with one temporary beside the nodes
            ux = x ** (0.5 * t)
            ux *= u
            ux *= ux
            return ux

        with np.errstate(over="ignore", invalid="ignore"):
            return panel_sum(f, nodes, h, self.tol)

    def _position_moment(self, t: float) -> MomentValue:
        """<r^t>: on a grid from r = 0 the first interval in closed form,
        r_1^(t+1) sum_j D_j/(t+j+1) with a rounding bound as its error, and
        knot_moment on the rest, where r^t is smooth; else knot_moment on
        every interval. Failed where the model's u^2 r^t diverges on
        [0, r_1] or the knot sum does not converge; DomainError where that
        sum leaves the normal double range."""
        value = err = 0.0
        if self._origin is not None and self._origin[1]:
            r1, terms, power = self._origin
            if t + terms[0][0] + 1.0 <= 0.0:  # the lowest power of u^2 decides
                return MomentValue.failed(
                    t, f"the model's u ~ r^{power:g} on [0, r_1] makes <r^{t:g}> diverge; "
                       f"fitted origin power {self.origin_power_u:g}")
            for j, d, bound in terms:
                value += d / (t + j + 1.0)
                err += bound / (t + j + 1.0)
            try:
                r1_t = r1**t
            except OverflowError:
                r1_t = math.inf
            # r_1 D_j is of the size of r_1/r_max: only r_1^t can overflow
            value, err = r1 * value * r1_t, r1 * err * r1_t
        res = self.knot_moment(t, int(self._origin is not None))
        what = f"<r^{t:g}> of {self.label}"
        if res.failed:  # a sum of squares that overflowed
            raise DomainError(f"{what} overflows a double")
        _require_normal(what, res.value)  # u is not 0 past r_1: 0 is an underflow
        # the sum's error counts against the whole moment, which near the
        # origin threshold is mostly the first interval's
        if not (res.converged or res.err_estimate <= self.tol.rel_tol * (value + res.value)):
            return MomentValue.failed(t, f"the knot table sum of <r^{t:g}> does not converge "
                                         f"(err={res.err_estimate:.2e} of {res.value:.2e})")
        return MomentValue.convergent(value + res.value, err + res.err_estimate, t)

    def direct_moment(self, quantity: str, x: float) -> MomentValue | None:
        """<r^t> from _position_moment, <T> from the knot sums of u'^2
        (_kinetic), <p^q> from the momentum table and <e^(-r/r0)> from
        _exp_decay; None otherwise. A value outside the normal double range
        raises DomainError, as a closed form's does; so does a knot sum of
        <r^t> that is not finite."""
        what = {R_POWER: f"<r^{x:g}>", P_POWER: f"<p^{x:g}>", KINETIC: "<T>",
                EXP_DECAY: f"<e^(-r/{x:g})>"}.get(quantity)
        if quantity == R_POWER:
            m = self._position_moment(x)
        elif quantity == KINETIC:
            m = self._kinetic()
        elif quantity == P_POWER:
            m = self.momentum_table().moment(x, self.tol, self.constants.hbar)
        elif quantity == EXP_DECAY:
            m = self._exp_decay(x)
        else:
            return None
        if m is not None and m.is_convergent:
            _require_normal(f"{what} of {self.label}", m.value)
        return m

    def _exp_decay(self, r0: float) -> MomentValue:
        """<e^(-r/r0)> = int u^2 e^(-r/r0) dr by integrate over [0, r_max]
        with the knots as breakpoints, so that its first round is the knot
        table's nodes and refinement starts from the knot intervals. One
        panel [0, r_max] would not do: at small r0 its nodes see
        e^(-r/r0) only where it is negligible, and it accepts that sum as
        converged. Failed where the quadrature stalls."""

        def f(r):
            u = self.reduced_radial(r)
            with np.errstate(over="ignore"):  # r/r0 past the double range: e^-inf = 0
                return u * u * np.exp(-r / r0)

        return integrate(f, 0.0, self.r_max, self.tol, self._r).as_moment(1.0)

    def momentum_table(self) -> _MomentumTable:
        """The state's momentum table, built on first use; DomainError where
        its tail fit overflows (k_cut near 1e-199 for knots near 1e200)."""
        if self._table is None:
            try:
                self._table = _MomentumTable(self.momentum_amplitude, self.r_scale,
                                             self.momentum_tail_power())
            except OverflowError as exc:
                raise DomainError(f"the momentum tail fit of {self.label} overflows a double "
                                  f"(r_scale = {self.r_scale:.3g})") from exc
        return self._table

    def reduced_radial(self, r):
        return self.norm_factor * self._interp(r)

    def momentum_tail_power(self) -> float:
        if math.isinf(self.origin_power_u):
            raise CapabilityError("u is zero near r = 0: no origin power sets the momentum tail")
        return super().momentum_tail_power()

    def momentum_amplitude(self, k_cut: float) -> Callable:
        """The sine transform of u; this method alone picks its panels.
        Where the knots are uniform from r = 0 (|r_i - i h| <= 4 eps r_N,
        h = r_N/N), the panels are the knot intervals split into
        s = max(1, ceil(h k_cut/pi)) parts: u is one cubic on each, which is
        at most half a period of sin(k_cut r), so K15 is exact for the
        model. The transform then takes the cubic's 4 coefficients per part
        in its unit variable (the interpolant's, Taylor-shifted to each part
        for s > 1), not 15 node values: 4 FFT columns for the table. Other
        grids, and an s N past the cap, take ceil(2 k_cut r_N/pi) equal
        panels, a quarter-period of sin(k_cut r) or shorter, that straddle
        the knots, with the interpolant evaluated once, by runs, at their
        ascending nodes."""
        r, n = self._r, self._r.size - 1
        h = self.r_max / n
        s = max(1, math.ceil(h * k_cut / math.pi))
        uniform = np.all(np.abs(r - h * np.arange(n + 1)) <= 4.0 * np.finfo(float).eps * self.r_max)
        if uniform and s * n <= MAX_SINE_PANELS:
            coefs = self.norm_factor * self._interp.unit_coefficients(s)
            basis = RadialSamples.power_basis(coefs.shape[1] - 1)
            return RadialSamples(coefs, self.r_max, k_cut, basis).sine_transform
        nodes = RadialSamples.nodes(self.r_max, math.ceil(2.0 * k_cut * self.r_max / math.pi))
        values = self.norm_factor * self._interp.at_ascending(nodes.ravel())
        return RadialSamples(values.reshape(-1, 15), self.r_max, k_cut).sine_transform

    def _kinetic(self) -> MomentValue:
        """<T> = (hbar^2/2m) int u'^2 dr with a coarseness check: the integral
        is recomputed on the half-resolution grid (every other knot) and the
        difference is the error estimate; CapabilityError where it exceeds
        _KINETIC_REL_TOL of the value. u'^2 is a quartic on each knot
        interval, so both integrals are K15 sums over the knot intervals,
        exact up to rounding and independent of the state's tolerances."""
        c = self.constants
        full = self._square_integral(self._dinterp, *self._knot_nodes)
        coarse = self._r[::2]
        _, dcoarse = _monotone_cubic(coarse, self._interp.at_ascending(coarse))
        half_val = self._square_integral(dcoarse, *kronrod_nodes(coarse[:-1], coarse[1:]))
        rel_err = abs(full - half_val) / max(abs(full), 1e-300)
        if not rel_err <= _KINETIC_REL_TOL:  # a NaN too
            raise CapabilityError(
                f"grid too coarse for the gradient route: estimated relative "
                f"derivative error {rel_err:.2e} exceeds {_KINETIC_REL_TOL:.0e}"
            )
        scale = c.hbar**2 / (2.0 * c.mass)
        return MomentValue.convergent(scale * full, scale * abs(full - half_val), 1.0)

    def _square_integral(self, f: _PiecewiseCubic, nodes: np.ndarray, h: np.ndarray) -> float:
        """int (norm_factor f)^2 by one panel_sum on f's knot intervals, from
        their Kronrod nodes and half-widths; NaN where that fails."""

        def square(x):
            vals = f.at_knot_nodes(x)
            vals *= self.norm_factor
            vals *= vals
            return vals

        return panel_sum(square, nodes, h, self.tol).value


def load_radial_grid(path, **kwargs) -> RadialGridState:
    """Read a radial grid file: UTF-8 text, with or without a BOM, in two
    whitespace-separated columns (r, u), where '#' starts a comment, blank
    lines are skipped and an entry is anything float() takes. kwargs
    (constants, label, tol) go to RadialGridState."""
    return RadialGridState(*_read_grid(path), **kwargs)


def _read_grid(path) -> tuple[np.ndarray, np.ndarray]:
    """The columns (r, u) of a grid file.

    numpy's reader takes the file in one pass. Where it fails or finds other
    than two columns, the line reader below reads the file again: it accepts
    what float() accepts beyond numpy (such as 1_0), and it names the line of
    a fault (path:line)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy's warning on no data rows
            cols = np.loadtxt(path, comments="#", ndmin=2, encoding="utf-8-sig")
    except (OSError, ValueError):
        cols = None  # the line reader meets the same fault and reports it
    if cols is not None and cols.shape[1] == 2:
        r, u = cols.T.copy()
        return r, u
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError.not_utf8(path, exc) from exc
    rs: list[float] = []
    us: list[float] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DataFormatError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
        try:
            rs.append(float(parts[0]))
            us.append(float(parts[1]))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    return np.array(rs), np.array(us)
