import math

import numpy as np
import pytest

from marginals import integrate_semi_infinite, momentum_density, position_density
from qmoments.core import CapabilityError, DomainError, Tolerances
from qmoments.moments import (
    Observable,
    abs_central_moment,
    mean,
    momentum_axis,
    position_axis,
    raw_radial_moment,
)
from qmoments.states import (
    ContinuousState,
    GaussianPacket,
    HarmonicOscillatorGround,
    HydrogenGroundState,
    PowerExpRadialState,
    RadialGridState,
    RadialStateBase,
)
from seeded import SplitMix64


@pytest.fixture(scope="module")
def hydrogen():
    return HydrogenGroundState()


@pytest.fixture(scope="module")
def r4test():
    return PowerExpRadialState(4, 1.0, label="r4test")


def test_hydrogen_abs_x3_cubed(hydrogen):
    # <|x_3|^3> = <r^3>/4 = (4 * 5!/2^6)/4 = 1.875 for a0 = 1
    m = abs_central_moment(hydrogen, position_axis(3), 3.0)
    assert m.is_convergent
    assert m.value == pytest.approx(1.875, rel=1e-10)


def test_hydrogen_pz_squared(hydrogen):
    m = abs_central_moment(hydrogen, momentum_axis(3), 2.0)
    assert m.value == pytest.approx(1.0 / 3.0, rel=1e-6)


def test_qho_position_variance():
    q = HarmonicOscillatorGround(mass=1.0, omega=2.0)
    m = abs_central_moment(q, position_axis(1), 2.0)
    assert m.value == pytest.approx(1.0 / (2.0 * 2.0), rel=1e-9)


@pytest.mark.parametrize(
    "order,expected",
    [(1.0, 1.5), (-1.0, 1.0), (2.0, 3.0), (3.0, 7.5), (-2.0, 2.0)],
)
def test_hydrogen_radial_gamma_oracle(hydrogen, order, expected):
    # 4 Gamma(order + 3) / 2^(order + 3) in natural units
    m = raw_radial_moment(hydrogen, order)
    assert m.value == pytest.approx(expected, rel=1e-9)


def test_hydrogen_inverse_cube_divergent(hydrogen):
    m = raw_radial_moment(hydrogen, -3.0)
    assert m.status == "divergent"
    assert m.value is None


def test_axis_means_exact(hydrogen):
    # spherical symmetry: exactly zero, no quadrature
    assert mean(hydrogen, position_axis(1)) == 0.0
    assert mean(hydrogen, momentum_axis(2)) == 0.0


def test_gaussian_mean():
    g = GaussianPacket(x0=2.0)
    assert mean(g, position_axis(1)) == 2.0


def test_scaling_covariance():
    base_x = abs_central_moment(HydrogenGroundState(1.0), position_axis(3), 1.7).value
    base_p = abs_central_moment(HydrogenGroundState(1.0), momentum_axis(3), 1.7).value
    for a0 in (0.5, 2.0):
        h = HydrogenGroundState(a0)
        mx = abs_central_moment(h, position_axis(3), 1.7).value
        mp = abs_central_moment(h, momentum_axis(3), 1.7).value
        assert mx == pytest.approx(a0**1.7 * base_x, rel=1e-8)
        assert mp == pytest.approx(a0**-1.7 * base_p, rel=1e-8)


def test_lyapunov_monotonicity(hydrogen):
    # <|a|^s>^(1/s) nondecreasing in s
    states = [hydrogen, HarmonicOscillatorGround(), GaussianPacket(sigma=0.8)]
    rng = SplitMix64(6)
    for st in states:
        obs = position_axis(3 if st is hydrogen else 1)
        for _ in range(6):
            s = rng.uniform_in(0.5, 5.0)
            t = s + rng.uniform_in(0.1, 1.0)
            ms = abs_central_moment(st, obs, s).value ** (1.0 / s)
            mt = abs_central_moment(st, obs, t).value ** (1.0 / t)
            assert ms <= mt + 1e-9


def test_cross_representation_momentum(hydrogen):
    via_marginal = abs_central_moment(hydrogen, momentum_axis(3), 2.0).value
    via_gradient = 2.0 * hydrogen.constants.mass * hydrogen.kinetic_energy() / 3.0
    assert via_marginal == pytest.approx(via_gradient, rel=1e-6)


def test_momentum_divergence_classified(hydrogen):
    # hydrogen w ~ k^-3: <|p|^q> integrable only for q < 5
    assert abs_central_moment(hydrogen, momentum_axis(3), 5.5).status == "divergent"
    assert abs_central_moment(hydrogen, momentum_axis(3), 4.5).is_convergent


@pytest.mark.parametrize("q,tol", [(0.5, 1e-8), (1.7, 1e-8), (3.0, 1e-7), (4.0, 1e-6), (4.5, 1e-5)])
def test_fractional_momentum_orders_beta_oracle(hydrogen, q, tol):
    # <|p_z|^q> = (32/pi) Gamma((q+3)/2) Gamma((5-q)/2) / (12 (q+1)) for a0=1;
    # accuracy of the fitted tail completion degrades toward the q -> 5 edge
    m = abs_central_moment(hydrogen, momentum_axis(3), q)
    oracle = (32.0 / math.pi) * math.gamma((q + 3) / 2) * math.gamma((5 - q) / 2) / (12.0 * (q + 1))
    assert m.value == pytest.approx(oracle, rel=tol)


def test_fractional_position_order_gamma_oracle(hydrogen):
    p = 2.7
    m = abs_central_moment(hydrogen, position_axis(3), p)
    oracle = 4.0 * math.gamma(p + 3.0) / 2.0 ** (p + 3.0) / (p + 1.0)
    assert m.value == pytest.approx(oracle, rel=1e-9)


def test_gaussian_abs_moment_oracle():
    g = GaussianPacket(sigma=1.0)
    for s in (0.7, 2.5, 4.0):
        m = abs_central_moment(g, position_axis(1), s)
        exact = 2 ** (s / 2) * math.gamma((s + 1) / 2) / math.sqrt(math.pi)
        assert m.value == pytest.approx(exact, rel=1e-9)


def test_unknown_observable_kind_is_refused_when_built():
    # checked once, at construction, so no moment function meets it
    with pytest.raises(DomainError, match="unknown observable kind 'bogus'"):
        Observable("bogus")


def test_nonpositive_order_rejected(hydrogen):
    with pytest.raises(DomainError):
        abs_central_moment(hydrogen, position_axis(3), 0.0)


def test_library_accepts_tiny_orders():
    # the CLI refuses orders below 0.05; the library computes them on request
    g = GaussianPacket(sigma=1.0)
    s = 0.02
    m = abs_central_moment(g, position_axis(1), s)
    exact = 2 ** (s / 2) * math.gamma((s + 1) / 2) / math.sqrt(math.pi)
    assert m.value == pytest.approx(exact, rel=1e-7)


# --- the isotropy shortcut against the axis marginals ------------------------


def _h_grid():
    r = np.arange(0.0, 40.01, 0.02)
    return RadialGridState(r, 2.0 * r * np.exp(-r))


def test_fitted_origin_power_on_an_integer_is_that_integer():
    # the fit on the h = 0.02 grid misses m = 1 by rounding; read as 1, the
    # order -3 threshold is met exactly, as for catalog hydrogen, so <r^-3>
    # is divergent instead of a quadrature that stalls at r = 0
    st = _h_grid()
    assert st.origin_power_u == 1.0
    assert raw_radial_moment(st, -3.0).status == "divergent"
    assert raw_radial_moment(st, -2.9).is_convergent


_AXIS_SIDES = {
    "position": (position_axis(3), position_density),
    "momentum": (momentum_axis(3), momentum_density),
}


# a nested momentum integral on a grid state is too slow for this suite
@pytest.mark.parametrize("state, side, order", [
    ("hydrogen", "position", 1.5),
    ("hydrogen", "momentum", 1.5),
    ("r4test", "position", 2.5),
    ("r4test", "momentum", 0.5),
    ("h_grid", "position", 1.5),
])
def test_isotropy_shortcut_matches_the_axis_marginal(state, side, order, request):
    # <|z|^s> = <r^s>/(s+1) and <|p_z|^q> = <p^q>/(q+1) against the plain
    # integral of |x|^s over the marginal, which shares no code with them
    # beyond the radial density and w(k); the marginal is even
    st = _h_grid() if state == "h_grid" else request.getfixturevalue(state)
    obs, density = _AXIS_SIDES[side]
    direct = 2.0 * integrate_semi_infinite(
        lambda x: x**order * density(st, x), tol=Tolerances(rel_tol=1e-9),
    ).as_moment(order).require()
    m = abs_central_moment(st, obs, order)
    assert m.value == pytest.approx(direct, rel=1e-8)


def test_state_without_axis_densities_raises_capability_error():
    class MeansOnly(ContinuousState):
        def position_mean(self, axis):
            return 0.0

        def momentum_mean(self, axis):
            return 0.0

    for obs in (position_axis(1), momentum_axis(1)):
        with pytest.raises(CapabilityError):
            abs_central_moment(MeansOnly(), obs, 1.5)


def test_radial_state_with_only_u_has_no_momentum_moments():
    # every finite moment comes from a state's direct_moment alone: a radial
    # state with only u has none, and its <r^t> and <p^q> are refused, not
    # integrated
    class Bare(RadialStateBase):
        label = "bare"

        def reduced_radial(self, r):
            return 2.0 * r * np.exp(-r)

    with pytest.raises(CapabilityError, match="^bare has no position moments$"):
        raw_radial_moment(Bare(), 1.0)
    with pytest.raises(CapabilityError, match="^bare has no momentum moments$"):
        abs_central_moment(Bare(), momentum_axis(3), 2.0)


def test_moments_integrates_nothing():
    import qmoments.moments

    assert not hasattr(qmoments.moments, "quadrature")
    assert not hasattr(qmoments.moments, "integrate")
