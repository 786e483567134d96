"""Catalog of quantum states exposing position, radial, and momentum densities.

Two families are provided. Spherically symmetric states carry a reduced
radial wavefunction u(r) = r R(r) with int u^2 dr = 1, the radial density
rho_r = u^2, and the radial momentum amplitude w(k), the sine transform of
u; their axis moments come from radial ones by isotropy (see moments.py), so
they expose no axis marginals. One-dimensional Gaussian states (oscillator
ground state, free packets) carry closed-form position and momentum
densities.

All states are immutable after construction and their densities are pure
functions; lazily built momentum tables are filled behind a lock and only
read afterwards.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

from .core import CapabilityError, DataFormatError, DomainError, PhysicalConstants, NATURAL
from .quadrature import Domain, Envelope, integrate, sine_transform_batch, _kronrod_nodes, _WK

DIM_1D = "1d"
DIM_3D_SPHERICAL = "3d-spherical"


class ContinuousState:
    """Base state: accessors that raise CapabilityError.

    Subclasses override the methods backing the densities they have.
    """

    dimensionality: str = DIM_1D
    label = "state"

    def __init__(self, constants: PhysicalConstants = NATURAL):
        self.constants = constants

    # -- radial surface -----------------------------------------------------
    def radial_density(self, r):
        raise CapabilityError(f"{self.label} has no radial density")

    def reduced_radial(self, r):
        raise CapabilityError(f"{self.label} has no reduced radial wavefunction")

    def radial_envelope(self) -> Envelope:
        raise CapabilityError(f"{self.label} has no radial envelope")

    # -- axis marginals ------------------------------------------------------
    def axis_position_density(self, axis: int, z):
        raise CapabilityError(f"{self.label} has no position density")

    def axis_momentum_density(self, axis: int, p):
        raise CapabilityError(f"{self.label} has no momentum density")

    def position_mean(self, axis: int) -> float:
        raise CapabilityError(f"{self.label} has no position density")

    def momentum_mean(self, axis: int) -> float:
        raise CapabilityError(f"{self.label} has no momentum density")

    def kinetic_energy(self) -> float:
        raise CapabilityError(f"{self.label} cannot form the gradient integral")

    def _check_axis(self, axis: int) -> None:
        if self.dimensionality == DIM_3D_SPHERICAL:
            if axis not in (1, 2, 3):
                raise DomainError(f"axis must be 1, 2, or 3, got {axis}")
        elif axis != 1:
            raise CapabilityError(f"{self.label} is one-dimensional; only axis 1 exists")


# ---------------------------------------------------------------------------
# momentum tables for radial states


class _MomentumTable:
    """Sine-transform amplitudes w(k) on demand, with a power-law tail model.

    Numerical values are produced (and memoized) up to k_cut; beyond it the
    amplitude is represented as C k^tau + D k^(tau-2) with the coefficients
    fitted at 0.7*k_cut and k_cut, which keeps heavy momentum tails cheap
    without truncating them.

    Every momentum order of a state starts its k-integral from one shared
    partition of [0, k_cut] (partition()), transformed once in ascending
    128-k chunks; later orders find its nodes cached and transform only the
    k-panels their own refinement adds.
    """

    def __init__(self, u: Callable, r_max: float, r_scale: float, tail_power: float, k_cut: float):
        self._u = u
        self._r_max = r_max
        self._r_scale = r_scale
        self.tail_power = tail_power
        self.k_cut = k_cut
        self._cache: dict[float, float] = {}
        self._lock = threading.Lock()
        self._tail_fit: tuple[float, float] | None = None

    def w(self, ks) -> np.ndarray:
        """w(k) from the cache, transforming the missing k.

        A 1-D request is transformed as one group. A 2-D request is a stack
        of k-panels (the (panels, 15) node arrays of integrate), and each
        row's missing k are transformed on their own: a transform's panel
        count follows the largest k of its batch, and w on a grid state
        carries an error of about 1e-6 that depends on that count, so a
        k-panel whose nodes came from batches of different count would
        see a jump.
        """
        ks = np.atleast_1d(np.asarray(ks, dtype=float))
        out = np.empty(ks.shape)
        for row, got in zip(ks.reshape(-1, ks.shape[-1]), out.reshape(-1, ks.shape[-1])):
            missing: list[int] = []
            for i, k in enumerate(row.tolist()):
                hit = self._cache.get(k)
                if hit is None:
                    missing.append(i)
                else:
                    got[i] = hit
            if missing:
                km = row[missing]
                vals = self._batch(km)
                with self._lock:
                    for i, k, v in zip(missing, km.tolist(), vals.tolist()):
                        got[i] = v
                        self._cache[k] = v
        return out

    def partition(self) -> np.ndarray:
        """Edges of the shared starting partition of [0, k_cut], with w
        transformed at every K15 node of it.

        The panels are [0, 1e-4/r_scale], 11 geometric panels up to
        1/r_scale and 24 up to k_cut: 36 panels, 540 nodes, fixed by k_cut
        and r_scale alone. The nodes go to w as one 1-D request, so the
        first call transforms them and every later one finds them cached.
        """
        kb = 1.0 / self._r_scale
        edges = np.concatenate([
            [0.0], np.geomspace(1e-4 * kb, kb, 12), np.geomspace(kb, self.k_cut, 25)[1:],
        ])
        self.w(_kronrod_nodes(edges[:-1], edges[1:])[0].ravel())
        return edges

    def _batch(self, ks: np.ndarray) -> np.ndarray:
        """Transform in ascending chunks so cheap low-k panels stay cheap."""
        order = np.argsort(ks, kind="stable")
        out = np.empty_like(ks)
        for start in range(0, len(order), 128):
            idx = order[start : start + 128]
            vals, _ = sine_transform_batch(self._u, ks[idx], self._r_max, self._r_scale)
            out[idx] = vals
        return out

    def _fit(self) -> tuple[float, float]:
        with self._lock:
            fit = self._tail_fit
        if fit is not None:
            return fit
        k1, k2 = 0.7 * self.k_cut, self.k_cut
        w1, w2 = self.w(np.array([k1, k2]))
        a1 = w1 * k1 ** (-self.tail_power)
        a2 = w2 * k2 ** (-self.tail_power)
        d = (a1 - a2) / (k1 ** (-2.0) - k2 ** (-2.0))
        c = a2 - d * k2 ** (-2.0)
        with self._lock:
            self._tail_fit = (float(c), float(d))
        return self._tail_fit

    def tail_integral(self, power_shift: float, lower: float) -> float:
        """int_lower^inf w(k)^2 k^power_shift dk under the tail model."""
        if lower < self.k_cut:
            raise DomainError("tail integral starts below the fitted region")
        c, d = self._fit()
        tau = self.tail_power

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
# spherically symmetric states


class RadialStateBase(ContinuousState):
    """Common machinery for l = 0 states defined by u(r) on [0, inf)."""

    dimensionality = DIM_3D_SPHERICAL

    #: u ~ r^origin_power_u near the origin
    origin_power_u: float = 1.0
    r_max: float = 50.0
    r_scale: float = 1.0

    def __init__(self, constants: PhysicalConstants = NATURAL):
        super().__init__(constants)
        self._table: _MomentumTable | None = None
        self._table_lock = threading.Lock()

    # subclasses provide u and its derivative
    def reduced_radial(self, r):
        raise NotImplementedError

    def reduced_radial_derivative(self, r):
        raise NotImplementedError

    def radial_density(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0.0):
            raise DomainError("radial coordinate must be >= 0")
        return self.reduced_radial(r) ** 2

    def radial_envelope(self) -> Envelope:
        return Envelope(2.0 * self.origin_power_u, ("exp", 2.0 / self.r_scale))

    def momentum_tail_power(self) -> float:
        """Decay exponent tau of w(k) ~ k^tau, from the origin behavior of u.

        For u ~ r^m the transform is driven by the first even derivative of u
        that survives at the origin: k^-(m+1) for even integer m, k^-(m+2)
        for odd integer m, and k^-(m+1) for fractional m.
        """
        m = self.origin_power_u
        if abs(m - round(m)) < 1e-9:
            mi = int(round(m))
            j = mi if mi % 2 == 0 else mi + 1
            return -(j + 1.0)
        return -(m + 1.0)

    def momentum_table(self) -> _MomentumTable:
        with self._table_lock:
            if self._table is None:
                k_cut = 50.0 / self.r_scale
                self._table = _MomentumTable(
                    self.reduced_radial, self.r_max, self.r_scale,
                    self.momentum_tail_power(), k_cut,
                )
            return self._table

    def position_mean(self, axis: int) -> float:
        self._check_axis(axis)
        return 0.0

    def momentum_mean(self, axis: int) -> float:
        self._check_axis(axis)
        return 0.0

    def kinetic_energy(self) -> float:
        """(hbar^2/2m) int u'(r)^2 dr, the gradient-quadrature route."""
        c = self.constants
        res = integrate(
            lambda r: self.reduced_radial_derivative(r) ** 2,
            Domain.finite(0.0, self.r_max),
            rel_tol=1e-11, abs_tol=1e-16,
        )
        return c.hbar**2 / (2.0 * c.mass) * res.require("gradient integral")


class PowerExpRadialState(RadialStateBase):
    """u(r) = N r^n e^{-kappa r}, normalized in closed form."""

    def __init__(self, n: int, kappa: float, constants: PhysicalConstants = NATURAL, label: str | None = None):
        super().__init__(constants)
        if n < 1:
            raise DomainError("radial power must be >= 1 so that u(0) = 0")
        if kappa <= 0.0:
            raise DomainError("decay rate must be positive")
        self.n = int(n)
        self.kappa = float(kappa)
        self.norm = math.sqrt((2.0 * kappa) ** (2 * n + 1) / math.factorial(2 * n))
        self.origin_power_u = float(n)
        self.r_scale = 1.0 / kappa
        self.r_max = (40.0 + 8.0 * n) / kappa
        self.label = label or f"r{n}exp({kappa:g})"

    def reduced_radial(self, r):
        r = np.asarray(r, dtype=float)
        return self.norm * r**self.n * np.exp(-self.kappa * r)

    def reduced_radial_derivative(self, r):
        r = np.asarray(r, dtype=float)
        return self.norm * np.exp(-self.kappa * r) * (self.n * r ** (self.n - 1) - self.kappa * r**self.n)


class HydrogenGroundState(PowerExpRadialState):
    """The 1s state: psi = (pi a0^3)^{-1/2} e^{-r/a0}, u = 2 a0^{-3/2} r e^{-r/a0}."""

    def __init__(self, a0: float = 1.0, constants: PhysicalConstants | None = None):
        if a0 <= 0.0:
            raise DomainError("a0 must be positive")
        if constants is None:
            constants = PhysicalConstants(a0=a0)
        super().__init__(n=1, kappa=1.0 / a0, constants=constants, label=f"hydrogen(a0={a0:g})")
        self.a0 = float(a0)


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
    either is 0, else their weighted harmonic mean. Two knots give a line."""
    if m.size == 1:
        return np.repeat(m, 2)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    d = np.empty(m.size + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, (w1 + w2) / (w1 / m[:-1] + w2 / m[1:]))
    d[0] = _end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


class _PiecewiseCubic:
    """A polynomial in the local power s = r - r_i on each knot interval
    [r_i, r_{i+1}], zero outside [r_0, r_N]; coefficients run from the
    highest power down."""

    def __init__(self, r: np.ndarray, coefs):
        # a zero row on each side catches the points left of r_0 and right of
        # r_N; the last edge sits one ulp above r_N so that r_N itself falls
        # in the last interval
        self._edges = r.copy()
        self._edges[-1] = np.nextafter(r[-1], np.inf)
        self._left = np.concatenate(([0.0], r[:-1], [0.0]))
        self._coefs = [np.concatenate(([0.0], c, [0.0])) for c in coefs]

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        i = np.searchsorted(self._edges, r, side="right")
        s = r - self._left.take(i)
        out = self._coefs[0].take(i)
        for c in self._coefs[1:]:
            out *= s
            out += c.take(i)
        return out


def _monotone_cubic(r: np.ndarray, u: np.ndarray) -> tuple[_PiecewiseCubic, _PiecewiseCubic]:
    """The monotone cubic Hermite interpolant of (r, u) and its derivative."""
    h = np.diff(r)
    m = np.diff(u) / h
    d = _pchip_slopes(h, m)
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    c = (t / h, (m - d[:-1]) / h - t, d[:-1])
    return _PiecewiseCubic(r, c + (u[:-1],)), _PiecewiseCubic(r, (3.0 * c[0], 2.0 * c[1], c[2]))


def _origin_power(r: np.ndarray, u: np.ndarray) -> float:
    """The power m of u ~ r^m at r = 0 from the exact fit of
    log|u| = m log r + b r + c through the first three nonzero interior
    samples; exact for r^m e^{-kappa r}. 1.0 when the fit is not finite."""
    i = 1 + int(np.argmax(np.abs(u[1:]) > 0.0))
    rs, us = r[i:i + 3], np.abs(u[i:i + 3])
    if rs.size < 3 or np.any(us == 0.0):
        return 1.0
    try:
        m = float(np.linalg.solve(np.stack([np.log(rs), rs, np.ones(3)], axis=1), np.log(us))[0])
    except np.linalg.LinAlgError:
        return 1.0
    return m if math.isfinite(m) else 1.0


class RadialGridState(RadialStateBase):
    """A state sampled as (r_i, u_i) and interpolated with a monotone local cubic.

    The grid must be strictly increasing. u is renormalized on construction
    (the applied factor is recorded); outside the grid u is zero. Grids that
    do not start at r = 0 must declare the origin power of u for divergence
    classification of negative moments.
    """

    def __init__(
        self,
        r: Sequence[float],
        u: Sequence[float],
        origin_power: float | None = None,
        constants: PhysicalConstants = NATURAL,
        label: str = "grid state",
    ):
        super().__init__(constants)
        r = np.asarray(r, dtype=float)
        u = np.asarray(u, dtype=float)
        if r.ndim != 1 or r.shape != u.shape or r.size < 4:
            raise DataFormatError("grid needs matching 1-d arrays with at least 4 samples")
        if np.any(np.diff(r) <= 0.0):
            raise DataFormatError("grid radii must be strictly increasing")
        if r[0] < 0.0:
            raise DataFormatError("grid radii must be >= 0")
        if not np.all(np.isfinite(u)):
            raise DataFormatError("grid wavefunction values must be finite")
        self._r = r
        self._interp, self._dinterp = _monotone_cubic(r, u)
        self.r_max = float(r[-1])
        self.r_scale = max(self.r_max / 90.0, float(np.median(np.diff(r))))
        self.label = label

        if origin_power is not None:
            self.origin_power_u = float(origin_power)
        elif r[0] == 0.0 and u[0] == 0.0:
            self.origin_power_u = _origin_power(r, u)
        else:
            self.origin_power_u = None  # unknown; negative moments will refuse

        norm2 = self._u_square_integral()
        if not (math.isfinite(norm2) and norm2 > 0.0):
            raise DataFormatError("grid wavefunction has non-finite or zero norm")
        self.norm_factor = 1.0 / math.sqrt(norm2)

    def _u_square_integral(self) -> float:
        # K15 per knot interval is exact for the square of a piecewise cubic
        nodes, h = _kronrod_nodes(self._r[:-1], self._r[1:])
        vals = self._interp(nodes.ravel()).reshape(nodes.shape) ** 2
        return float((h * (vals @ _WK)).sum())

    def reduced_radial(self, r):
        return self.norm_factor * self._interp(r)

    def reduced_radial_derivative(self, r):
        return self.norm_factor * self._dinterp(r)

    def radial_envelope(self) -> Envelope:
        op = None if self.origin_power_u is None else 2.0 * self.origin_power_u
        return Envelope(op, ("exp", 1.0 / self.r_scale))

    def momentum_tail_power(self) -> float:
        if self.origin_power_u is None:
            raise CapabilityError("grid state has no declared origin power for momentum tails")
        return super().momentum_tail_power()

    def kinetic_energy(self) -> float:
        """Gradient route with a coarseness check: the integral is recomputed
        on the half-resolution grid and the difference is the error estimate."""
        c = self.constants
        full = integrate(
            lambda r: self.reduced_radial_derivative(r) ** 2,
            Domain.finite(float(self._r[0]), self.r_max),
            rel_tol=1e-11, abs_tol=1e-16,
            breakpoints=list(self._r[1:-1:max(1, self._r.size // 64)]),
        ).require("gradient integral")
        coarse = self._r[::2]
        _, dcoarse = _monotone_cubic(coarse, self._interp(coarse))
        half_val = integrate(
            lambda r: (self.norm_factor * dcoarse(r)) ** 2,
            Domain.finite(float(coarse[0]), float(coarse[-1])),
            rel_tol=1e-9, abs_tol=1e-14,
        ).value
        rel_err = abs(full - half_val) / max(abs(full), 1e-300)
        if rel_err > self.kinetic_rel_tol:
            raise CapabilityError(
                f"grid too coarse for the gradient route: estimated relative "
                f"derivative error {rel_err:.2e} exceeds {self.kinetic_rel_tol:.0e}"
            )
        return c.hbar**2 / (2.0 * c.mass) * full

    kinetic_rel_tol = 1e-4


def load_radial_grid(path, **kwargs) -> RadialGridState:
    """Read a two-column whitespace text file (r, u); '#' starts a comment."""
    rs: list[float] = []
    us: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
    return RadialGridState(rs, us, **kwargs)


# ---------------------------------------------------------------------------
# one-dimensional Gaussian states


class _Gaussian1D(ContinuousState):
    """Shared closed-form densities for Gaussian wavefunctions."""

    dimensionality = DIM_1D

    x0 = 0.0
    p0 = 0.0
    sigma_x = 1.0

    @property
    def sigma_p(self) -> float:
        return self.constants.hbar / (2.0 * self.sigma_x)

    def axis_position_density(self, axis: int, z):
        self._check_axis(axis)
        z = np.asarray(z, dtype=float)
        s = self.sigma_x
        out = np.exp(-((z - self.x0) ** 2) / (2.0 * s * s)) / (s * math.sqrt(2.0 * math.pi))
        return out if out.ndim else float(out)

    def axis_momentum_density(self, axis: int, p):
        self._check_axis(axis)
        p = np.asarray(p, dtype=float)
        s = self.sigma_p
        out = np.exp(-((p - self.p0) ** 2) / (2.0 * s * s)) / (s * math.sqrt(2.0 * math.pi))
        return out if out.ndim else float(out)

    def position_mean(self, axis: int) -> float:
        self._check_axis(axis)
        return self.x0

    def momentum_mean(self, axis: int) -> float:
        self._check_axis(axis)
        return self.p0

    def kinetic_energy(self) -> float:
        """(hbar^2/2m) int |psi'|^2 dx computed by quadrature."""
        c = self.constants
        s = self.sigma_x
        k0 = self.p0 / c.hbar

        def grad_sq(x):
            rho = self.axis_position_density(1, x)
            return ((x - self.x0) ** 2 / (4.0 * s**4) + k0 * k0) * rho

        res = integrate(grad_sq, Domain.infinite(), breakpoints=[self.x0])
        return c.hbar**2 / (2.0 * c.mass) * res.require("gradient integral")


class GaussianPacket(_Gaussian1D):
    """Free Gaussian packet centered at x0 with mean momentum p0 and position s.d. sigma."""

    def __init__(self, x0: float = 0.0, p0: float = 0.0, sigma: float = 1.0,
                 constants: PhysicalConstants = NATURAL):
        super().__init__(constants)
        if sigma <= 0.0:
            raise DomainError("sigma must be positive")
        self.x0 = float(x0)
        self.p0 = float(p0)
        self.sigma_x = float(sigma)
        self.label = f"gaussian(x0={x0:g}, p0={p0:g}, sigma={sigma:g})"


class HarmonicOscillatorGround(_Gaussian1D):
    """Oscillator ground state; position s.d. is sqrt(hbar/(2 m omega))."""

    def __init__(self, mass: float = 1.0, omega: float = 1.0, hbar: float = 1.0):
        constants = PhysicalConstants(hbar=hbar, mass=mass)
        super().__init__(constants)
        if omega <= 0.0:
            raise DomainError("omega must be positive")
        self.omega = float(omega)
        self.sigma_x = math.sqrt(hbar / (2.0 * mass * omega))
        self.label = f"qho(m={mass:g}, omega={omega:g})"


# ---------------------------------------------------------------------------
# the default catalog


def catalog(constants: PhysicalConstants = NATURAL) -> dict[str, ContinuousState]:
    """The default example states, keyed by CLI name."""
    return {
        "hydrogen": HydrogenGroundState(a0=constants.a0, constants=constants),
        "qho": HarmonicOscillatorGround(mass=constants.mass, hbar=constants.hbar),
        "gaussian": GaussianPacket(sigma=constants.a0, constants=constants),
        "r4test": PowerExpRadialState(4, 1.0 / constants.a0, constants=constants, label="r4test"),
    }
