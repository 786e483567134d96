import math

import numpy as np
import pytest

from marginals import (
    equal_panel_samples, hydrogen_position_density, integrate_real_line, integrate_semi_infinite,
    integrated, momentum_density, momentum_table, position_density, reduced_radial_derivative,
)
from qmoments.core import CapabilityError, DataFormatError, Tolerances
from qmoments.exact import KINETIC, R_POWER
from qmoments.quadrature import integrate
from qmoments.states import (
    GaussianPacket,
    HarmonicOscillatorGround,
    HydrogenGroundState,
    PowerExpRadialState,
    RadialGridState,
    catalog,
    load_radial_grid,
)


@pytest.fixture(scope="module")
def hydrogen():
    return HydrogenGroundState()


@pytest.fixture(scope="module")
def qho():
    return HarmonicOscillatorGround()


def test_hydrogen_radial_density_value(hydrogen):
    assert hydrogen.radial_density(1.0) == pytest.approx(4.0 * math.exp(-2.0), rel=1e-14)


def test_hydrogen_radial_density_origin(hydrogen):
    assert hydrogen.radial_density(0.0) == 0.0


def test_radial_density_normalized(hydrogen):
    res = integrate_semi_infinite(lambda r: hydrogen.radial_density(r))
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_axis_density_closed_form_vs_reduction(hydrogen):
    # the generic marginal reduction is the oracle for the closed form
    for z in (0.0, 0.4, 1.7):
        oracle = position_density(hydrogen, z)
        assert hydrogen_position_density(z) == pytest.approx(oracle, rel=1e-9)


def test_axis_density_center_value():
    assert hydrogen_position_density(0.0) == pytest.approx(0.5, rel=1e-12)


def test_axis_density_even():
    assert hydrogen_position_density(0.8) == hydrogen_position_density(-0.8)


def test_axis_density_normalized():
    res = integrate_real_line(
        hydrogen_position_density,
        Tolerances(rel_tol=1e-9, abs_tol=1e-13), breakpoints=[0.0],
    )
    assert res.value == pytest.approx(1.0, abs=1e-8)


def test_gaussian_peak_density():
    g = GaussianPacket(x0=2.0, sigma=1.3)
    assert position_density(g, 2.0) == pytest.approx(
        1.0 / (1.3 * math.sqrt(2 * math.pi)), rel=1e-14
    )


def test_gaussian_means():
    g = GaussianPacket(x0=2.0, p0=-0.7, sigma=1.3)
    assert g.position_mean(1) == 2.0
    assert g.momentum_mean(1) == -0.7


def test_gaussian_momentum_width():
    g = GaussianPacket(sigma=2.0)
    # sigma_p = hbar / (2 sigma)
    res = integrate_real_line(
        lambda p: p * p * momentum_density(g, p),
        breakpoints=[0.0],
    )
    assert res.value == pytest.approx(1.0 / 16.0, rel=1e-10)


def test_momentum_marginal_normalized(hydrogen):
    res = integrate_real_line(
        lambda p: momentum_density(hydrogen, p),
        Tolerances(rel_tol=1e-8, abs_tol=1e-12), breakpoints=[0.0],
    )
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_momentum_marginal_second_moment(hydrogen):
    # <p_z^2> = hbar^2/(3 a0^2), via direct integration of the marginal
    res = integrate_real_line(
        lambda p: p * p * momentum_density(hydrogen, p),
        Tolerances(rel_tol=1e-8, abs_tol=1e-12), breakpoints=[0.0],
    )
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-6)


def test_momentum_marginal_closed_form(hydrogen):
    # 8 / (3 pi (1 + k^2)^3) for a0 = 1
    for k in (0.0, 0.5, 2.0):
        exact = 8.0 / (3.0 * math.pi * (1 + k * k) ** 3)
        assert momentum_density(hydrogen, k) == pytest.approx(exact, rel=1e-10)


def test_momentum_marginal_parity(hydrogen):
    assert momentum_density(hydrogen, 1.1) == momentum_density(hydrogen, -1.1)


def test_kinetic_hydrogen(hydrogen):
    assert hydrogen.kinetic_energy() == pytest.approx(0.5, rel=1e-9)


def test_kinetic_qho(qho):
    assert qho.kinetic_energy() == pytest.approx(0.25, rel=1e-10)


def test_kinetic_gaussian():
    g = GaussianPacket(sigma=2.0)
    assert g.kinetic_energy() == pytest.approx(1.0 / 32.0, rel=1e-10)


def test_kinetic_gaussian_boosted():
    g = GaussianPacket(sigma=2.0, p0=0.5)
    assert g.kinetic_energy() == pytest.approx(1.0 / 32.0 + 0.125, rel=1e-10)


_GRID_R = np.arange(0.0, 40.01, 0.02)


def _knot_oracle(st, f):
    """int f over the grid by integrate at rel_tol 1e-13, split at every knot
    and knot-interval midpoint: no panel straddles a knot, whose kink a K-G
    estimate can miss (a u'^2 integral on the r4test grid from one panel
    ends 1e-10 off under an error estimate of 1e-13 relative), and no node
    is a node of the knot table."""
    r = st._r
    pts = np.sort(np.concatenate([r[1:-1], 0.5 * (r[:-1] + r[1:])]))
    res = integrate(f, r[0], r[-1], Tolerances(rel_tol=1e-13, abs_tol=1e-300),
                    breakpoints=pts)
    assert res.converged
    return res.value


def test_grid_kinetic_energy_does_not_depend_on_the_tolerances(monkeypatch):
    # u'^2 is a quartic on each knot interval: K15 per interval is exact and
    # integrate is never called, whatever the state's tolerances
    from qmoments import quadrature

    monkeypatch.setattr(quadrature, "integrate", None)
    grid = RadialGridState(_GRID_R, 2.0 * _GRID_R * np.exp(-_GRID_R))
    tight = grid.kinetic_energy()
    loose = RadialGridState(_GRID_R, 2.0 * _GRID_R * np.exp(-_GRID_R),
                            tol=Tolerances(rel_tol=1e-4, abs_tol=1e-6, max_evals=45)).kinetic_energy()
    assert loose == tight
    want = 0.5 * _knot_oracle(grid, lambda r: reduced_radial_derivative(grid, r) ** 2)
    assert tight == pytest.approx(want, rel=1e-12)


def test_catalog_states_carry_the_tolerances(tmp_path):
    tol = Tolerances(rel_tol=1e-6, abs_tol=1e-9, max_evals=5000)
    assert all(s.tol is tol for s in catalog(tol=tol).values())
    grid = tmp_path / "h.dat"
    grid.write_text("\n".join(f"{a} {2.0 * a * math.exp(-a)}" for a in _GRID_R))
    assert load_radial_grid(grid, tol=tol).tol is tol


def test_p_squared_three_routes(hydrogen):
    # gradient route
    via_gradient = 2.0 * hydrogen.constants.mass * hydrogen.kinetic_energy()
    # marginal route, summed over the three axes
    res = integrate_real_line(
        lambda p: p * p * momentum_density(hydrogen, p),
        Tolerances(rel_tol=1e-8, abs_tol=1e-12), breakpoints=[0.0],
    )
    via_marginals = 3.0 * res.value
    # radial momentum density route
    tbl = momentum_table(hydrogen)
    res2 = integrate(lambda k: tbl.w(k) ** 2 * k * k, 0.0, tbl.k_cut)
    via_radial = res2.value + tbl.tail_integral(2.0, tbl.k_cut)
    assert via_gradient == pytest.approx(1.0, rel=1e-8)
    assert via_marginals == pytest.approx(via_gradient, rel=1e-6)
    assert via_radial == pytest.approx(via_gradient, rel=1e-6)


def test_qho_width():
    q = HarmonicOscillatorGround(mass=2.0, omega=3.0)
    assert q.sigma_x == pytest.approx(math.sqrt(1.0 / 12.0))


def test_capability_errors(qho):
    with pytest.raises(CapabilityError):
        qho.radial_density(1.0)
    with pytest.raises(CapabilityError):
        qho.position_mean(2)  # 1d states expose axis 1 only


def test_momentum_tail_powers(hydrogen):
    assert hydrogen.momentum_tail_power() == -3.0
    assert PowerExpRadialState(4, 1.0).momentum_tail_power() == -5.0
    assert PowerExpRadialState(2, 1.0).momentum_tail_power() == -3.0
    assert PowerExpRadialState(3, 1.0).momentum_tail_power() == -5.0


def test_r4_momentum_amplitude_closed_form():
    # u = N r^4 e^{-r}: transform proportional to (k^5 - 10 k^3 + 5 k)/(1+k^2)^5
    st = PowerExpRadialState(4, 1.0)
    tbl = momentum_table(st)
    k = np.array([0.4, 1.9, 6.0])
    shape = (k**5 - 10 * k**3 + 5 * k) / (1 + k * k) ** 5
    vals = tbl.w(k)
    ratio = vals / shape
    assert np.allclose(ratio, ratio[0], rtol=1e-8)


# --- grid states -------------------------------------------------------------


def _dense_grid_state(n_power=1, kappa=1.0, n_pts=3000, r_end=40.0):
    r = np.linspace(0.0, r_end, n_pts)
    u = r**n_power * np.exp(-kappa * r)
    return RadialGridState(r, u, label="test grid")


def test_grid_state_renormalizes():
    st = _dense_grid_state()
    res = integrate(lambda r: st.radial_density(r), 0.0, st.r_max)
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_grid_state_mode_location():
    # rho_r proportional to r^8 e^{-2r} peaks at r = 4
    st = _dense_grid_state(n_power=4)
    r = np.linspace(3.0, 5.0, 2001)
    dens = st.radial_density(r)
    assert abs(r[np.argmax(dens)] - 4.0) < 2e-3


def test_grid_state_origin_power_estimate():
    st = _dense_grid_state(n_power=1)
    assert st.origin_power_u == pytest.approx(1.0, abs=0.05)


def test_grid_state_origin_power_exact_for_power_exp():
    # the fit of log|u| = m log r + b r + c is exact for r^m e^{-kappa r},
    # so the momentum tail power (set by m) is the catalog state's own
    r = np.arange(0.0, 40.01, 0.02)
    assert RadialGridState(r, 2.0 * r * np.exp(-r)).origin_power_u == pytest.approx(1.0, abs=1e-9)
    r = np.concatenate([[0.0], np.geomspace(1e-3, 45.0, 400)])
    assert RadialGridState(r, r**4 * np.exp(-r)).origin_power_u == pytest.approx(4.0, abs=1e-9)


def test_grid_state_origin_power_falls_back_without_three_samples():
    r = np.linspace(0.0, 10.0, 50)
    u = r * np.exp(-r)
    u[2] = 0.0  # a zero among the three samples the fit needs
    assert RadialGridState(r, u).origin_power_u == 1.0


def _scale_figures(st):
    from qmoments.moments import abs_central_moment, momentum_axis, raw_radial_moment

    return ([raw_radial_moment(st, t).require() for t in (-1.0, 2.0)]
            + [abs_central_moment(st, momentum_axis(3), 1.5).require(), st.kinetic_energy()])


@pytest.mark.parametrize("scale", [1e-160, 1e160, 1e-170, 2.0**-600, 2.0**600])
def test_grid_state_does_not_depend_on_the_amplitude_scale(scale):
    # u^2 of u * 1e-160 is subnormal and of u * 1e160 overflows; the state
    # works on u divided by a power of two, so a power-of-two scale changes
    # no bit and any other scale only the rounding of the samples
    r = np.arange(0.0, 30.01, 0.05)
    u = 2.0 * r * np.exp(-r)
    want = _scale_figures(RadialGridState(r, u))
    got = _scale_figures(RadialGridState(r, scale * u))
    if math.frexp(scale)[0] == 0.5:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_grid_starting_past_the_origin_has_every_position_order():
    # u is zero below r[0] = 0.5, so no order is singular at the origin; the
    # momentum tail has no origin power to come from
    from qmoments.moments import raw_radial_moment

    r = np.linspace(0.5, 30.0, 2000)
    st = RadialGridState(r, r * np.exp(-r))
    assert st.origin_power_u == math.inf
    for t in (-2.0, -6.0):
        m = raw_radial_moment(st, t)
        assert m.is_convergent, t
        want = _knot_oracle(st, lambda x: (st.reduced_radial(x) * x ** (0.5 * t)) ** 2)
        assert m.value == pytest.approx(want, rel=1e-12), t
    with pytest.raises(CapabilityError):
        _momentum_moment(st, 0.5)


def _jump_grid():
    """u = e^-r on r = 0:0.02:30, so u(0) = 1: a jump at the origin."""
    r = np.arange(0.0, 30.01, 0.02)
    return RadialGridState(r, np.exp(-r))


def test_grid_with_a_jump_at_the_origin_counts_position_orders_exactly():
    # u^2 r^t ~ r^t at the origin: finite exactly for t > -1, where
    # <r^t> = 2 Gamma(t+1) / 2^(t+1)
    from qmoments.moments import raw_radial_moment

    st = _jump_grid()
    assert st.origin_power_u == 0.0
    assert raw_radial_moment(st, -1.0).status == "divergent"
    for t in (-0.5, -0.9):
        m = raw_radial_moment(st, t)
        assert m.is_convergent, t
        assert m.value == pytest.approx(2.0 * math.gamma(t + 1.0) / 2.0 ** (t + 1.0), rel=2e-7), t


def test_grid_with_a_jump_at_the_origin_counts_momentum_orders_exactly():
    # the jump makes w ~ k^-1: w(k) = (2/sqrt(pi)) k/(1+k^2) for the
    # normalized u = sqrt(2) e^-r, so <p^q> = (2/pi) B((3+q)/2, (1-q)/2),
    # finite exactly for q < 1
    from qmoments.moments import abs_central_moment, momentum_axis

    st = _jump_grid()
    for q in (0.5, 0.9):
        a, b = 0.5 * (3.0 + q), 0.5 * (1.0 - q)
        want = 2.0 / math.pi * math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        assert _momentum_moment(st, q) == pytest.approx(want, rel=2e-6), q
    assert abs_central_moment(st, momentum_axis(3), 1.0).status == "divergent"


def test_grid_state_momentum_moment_beyond_the_old_origin_estimate():
    # with the two-sample estimate (0.97) the h = 0.02 hydrogen grid called
    # every order q >= 2.94 divergent; <|p_z|^3> = <p^3>/4 = 4/(3 pi) is finite
    from qmoments import moments as mo

    r = np.arange(0.0, 40.01, 0.02)
    st = RadialGridState(r, 2.0 * r * np.exp(-r))
    m = mo.abs_central_moment(st, mo.momentum_axis(3), 3.0)
    assert m.is_convergent
    assert m.value == pytest.approx(4.0 / (3.0 * math.pi), rel=1e-4)


def test_grid_state_kinetic_close_to_analytic():
    st = _dense_grid_state(n_power=1, n_pts=6000)
    assert st.kinetic_energy() == pytest.approx(0.5, rel=5e-4)


@pytest.mark.parametrize("r, u, exact", [
    (np.arange(0.0, 40.005, 0.01), lambda r: 2.0 * r * np.exp(-r), 0.5),
    (np.arange(0.0, 40.01, 0.02), lambda r: 2.0 * r * np.exp(-r), 0.5),
    (np.arange(0.0, 40.02, 0.04), lambda r: 2.0 * r * np.exp(-r), 0.5),
    (np.r_[0.0, np.geomspace(1e-3, 45.0, 400)], lambda r: r**4 * np.exp(-r), 1.0 / 14.0),
], ids=["h0.01", "h0.02", "h0.04", "r4-geometric"])
def test_grid_kinetic_error_estimate_covers_the_closed_form(r, u, exact):
    # the half-resolution difference is the kinetic energy's err_estimate
    m = RadialGridState(r, u(r)).direct_moment(KINETIC, 0.0)
    assert abs(m.value - exact) <= m.err_estimate <= 1e-4 * m.value


def test_grid_state_coarse_kinetic_fails():
    r = np.linspace(0.0, 30.0, 28)
    u = r * np.exp(-r)
    st = RadialGridState(r, u)
    with pytest.raises(CapabilityError):
        st.kinetic_energy()


def test_grid_rejects_non_monotone():
    with pytest.raises(DataFormatError):
        RadialGridState([0.0, 1.0, 0.5, 2.0], [0.0, 1.0, 0.5, 0.1])


def test_grid_rejects_short_or_mismatched():
    with pytest.raises(DataFormatError):
        RadialGridState([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(DataFormatError):
        RadialGridState([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0])


def test_grid_file_import(tmp_path):
    r = np.linspace(0.0, 35.0, 2000)
    u = r * np.exp(-r)
    path = tmp_path / "state.dat"
    lines = ["# reduced radial wavefunction", "# r  u"]
    lines += [f"{ri:.12g} {ui:.12g}" for ri, ui in zip(r, u)]
    path.write_text("\n".join(lines) + "\n")
    st = load_radial_grid(path)
    assert st.radial_density(1.0) == pytest.approx(4.0 * math.exp(-2.0), rel=1e-5)


def test_grid_file_bad_columns(tmp_path):
    path = tmp_path / "bad.dat"
    path.write_text("0.0 0.0\n1.0 0.5 99\n")
    with pytest.raises(DataFormatError) as info:
        load_radial_grid(path)
    assert str(info.value) == f"{path}:2: expected two columns, got 3"


@pytest.mark.parametrize("text, message", [
    ("# r only\n0.0\n1.0\n2.0\n3.0\n", "{}:2: expected two columns, got 1"),
    ("0.0 0.0\n\n1.0 x\n", "{}:3: could not convert string to float: 'x'"),
    ("# no data\n\n  # at all\n", "grid needs matching 1-d arrays with at least 4 samples"),
], ids=["one_column", "bad_token", "comments_only"])
def test_grid_file_errors_name_the_line(tmp_path, text, message):
    path = tmp_path / "bad.dat"
    path.write_text(text)
    with pytest.raises(DataFormatError) as info:
        load_radial_grid(path)
    assert str(info.value) == message.format(path)


def test_grid_file_takes_what_float_takes(tmp_path):
    # underscores are float() syntax that numpy's reader refuses
    r = np.linspace(0.0, 10.0, 20)
    u = r * np.exp(-r)
    path = tmp_path / "grid.dat"
    rows = zip((r[1:] + 10.0).tolist(), u[1:].tolist())
    path.write_text("1_0.0 0.0\n" + "".join(f"{a!r} {b!r}\r\n" for a, b in rows))
    st = load_radial_grid(path)
    assert st._r[0] == 10.0 and st._r[1:].tobytes() == (r[1:] + 10.0).tobytes()


@pytest.mark.parametrize("where, bad", [(2, math.nan), (-1, math.inf), (0, -math.inf)])
def test_grid_rejects_non_finite_radii(where, bad):
    r = np.linspace(0.0, 5.0, 10)
    r[where] = bad
    with pytest.raises(DataFormatError, match="^grid radii must be finite$"):
        RadialGridState(r, np.exp(-r))


def test_catalog_contents():
    states = catalog()
    assert set(states) == {"hydrogen", "qho", "gaussian", "r4test"}
    assert states["r4test"].origin_power_u == 4.0


def test_gaussian_means_by_integration():
    g = GaussianPacket(x0=1.4, p0=0.6, sigma=0.9)
    mx = integrate_real_line(lambda x: x * position_density(g, x),
                             breakpoints=[1.4])
    mp = integrate_real_line(lambda p: p * momentum_density(g, p),
                             breakpoints=[0.6])
    assert mx.value == pytest.approx(1.4, abs=1e-9)
    assert mp.value == pytest.approx(0.6, abs=1e-9)


def test_r4_p_squared_three_routes():
    # u = N r^4 e^{-r}: int u'^2 dr = 1/7 by the Gamma oracle, and this state
    # exercises the steeper k^-5 transform tail
    st = PowerExpRadialState(4, 1.0)
    via_gradient = 2.0 * st.kinetic_energy()
    assert via_gradient == pytest.approx(1.0 / 7.0, rel=1e-9)
    tbl = momentum_table(st)
    res = integrate(lambda k: tbl.w(k) ** 2 * k * k, 0.0, tbl.k_cut)
    via_radial = res.value + tbl.tail_integral(2.0, tbl.k_cut)
    assert via_radial == pytest.approx(via_gradient, rel=1e-6)
    res2 = integrate_real_line(
        lambda p: p * p * momentum_density(st, p),
        Tolerances(rel_tol=1e-8, abs_tol=1e-12), breakpoints=[0.0],
    )
    assert 3.0 * res2.value == pytest.approx(via_gradient, rel=1e-6)


def test_r4_momentum_marginal_normalized():
    st = PowerExpRadialState(4, 1.0)
    res = integrate_real_line(
        lambda p: momentum_density(st, p),
        Tolerances(rel_tol=1e-8, abs_tol=1e-12), breakpoints=[0.0],
    )
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_grid_state_momentum_marginal():
    # grid-sampled hydrogen reproduces the closed-form marginal to grid accuracy
    st = _dense_grid_state(n_power=1, n_pts=4000)
    for k in (0.0, 1.0):
        exact = 8.0 / (3.0 * math.pi * (1 + k * k) ** 3)
        assert momentum_density(st, k) == pytest.approx(exact, rel=1e-4)


# --- momentum-table requests ------------------------------------------------


@pytest.fixture
def sine_calls(monkeypatch):
    """The k-array shape of each sine transform the momentum tables run."""
    from qmoments.quadrature import RadialSamples

    calls = []
    real = RadialSamples.sine_transform

    def counted(self, ks):
        calls.append(np.shape(ks))
        return real(self, ks)

    monkeypatch.setattr(RadialSamples, "sine_transform", counted)
    return calls


def _hydrogen_grid():
    r = np.arange(0.0, 40.01, 0.02)
    return RadialGridState(r, 2.0 * r * np.exp(-r))


def _r4test_grid():
    # geometric, with a leading r = 0, as in the grid benchmark
    r = np.concatenate([[0.0], np.geomspace(1e-3, 45.0, 400)])
    return RadialGridState(r, r**4 * np.exp(-r))


def _k_panels():
    """k-panels as integrate passes them: a (5, 15) array of Kronrod nodes."""
    from qmoments.quadrature import kronrod_nodes

    edges = np.array([1e-3, 0.5, 1.0, 5.0, 40.0, 100.0])
    return kronrod_nodes(edges[:-1], edges[1:])[0]


def test_momentum_table_amplitude_depends_on_k_alone():
    rows = _k_panels()
    ks = rows.ravel()
    alone_tbl, batch_tbl, rows_tbl = (_hydrogen_grid().momentum_table() for _ in range(3))
    alone = np.array([alone_tbl.w(k)[0] for k in ks])
    batched = batch_tbl.w(np.append(ks, batch_tbl.k_cut))[:-1]
    in_rows = rows_tbl.w(rows).ravel()
    scale = np.abs(alone).max()
    assert np.abs(batched - alone).max() <= 1e-15 * scale
    assert np.abs(in_rows - alone).max() <= 1e-15 * scale


def test_momentum_table_request_with_misses_makes_one_transform(sine_calls):
    # a request other than the partition's nodes is one transform of all its
    # k, whatever the table computed before
    from qmoments.quadrature import kronrod_nodes

    rows = _k_panels()
    tbl = _hydrogen_grid().momentum_table()
    edges = tbl.edges
    tbl.w(rows[1])
    tbl.w(rows[3, :5])
    sine_calls.clear()
    got = tbl.w(rows)
    assert got.shape == rows.shape
    assert sine_calls == [(75,)]
    assert tbl.w(rows).tobytes() == got.tobytes()
    assert sine_calls == [(75,), (75,)]
    # the partition's nodes make none; other k of their shape make one
    nodes = kronrod_nodes(edges[:-1], edges[1:])[0]
    kept = tbl.w(nodes)
    assert kept.shape == (36, 15) and not kept.flags.writeable
    assert sine_calls == [(75,), (75,)]
    assert tbl.w(0.5 * nodes).tobytes() == tbl._batch(0.5 * nodes.ravel()).tobytes()
    ks = np.linspace(50.0, 0.1, 300)
    tbl.w(ks)
    assert sine_calls == [(75,), (75,), (540,), (540,), (300,)]


def test_momentum_table_partition_is_cached_for_the_first_round(sine_calls):
    tbl = _hydrogen_grid().momentum_table()
    edges = tbl.edges
    assert edges.size == 37 and edges[0] == 0.0 and edges[-1] == tbl.k_cut
    assert np.all(np.diff(edges) > 0.0)
    assert sine_calls == [(542,)]  # the 540 nodes and the two tail-fit points
    # integrate's first round on these edges asks for exactly those nodes
    seen = []
    res = integrate(lambda k: seen.append(k.shape) or tbl.w(k) ** 2, 0.0, tbl.k_cut,
                    Tolerances(max_evals=540), breakpoints=edges[1:-1])
    assert seen == [(36, 15)] and res.evaluations == 540
    assert len(sine_calls) == 1


def test_hydrogen_grid_sweep_sine_calls(sine_calls):
    # each order starts from the shared partition, and each refinement round
    # with new k makes one transform
    from qmoments.inequalities import sweep

    sweep(_hydrogen_grid(), 3, 3, [1.5, 2.5, 3.5], [1.0, 1.5, 2.0])
    assert 1 <= len(sine_calls) <= 8


def test_r4test_grid_cell_sine_calls(sine_calls):
    # most rounds come from refinement, where w carries the grid's
    # interpolation noise
    from qmoments.inequalities import sweep

    sweep(_r4test_grid(), 3, 3, [2.5], [0.9])
    assert 1 <= len(sine_calls) <= 15


def test_momentum_table_partition_works_once_per_table(monkeypatch):
    from qmoments.states import _MomentumTable

    batches = []
    real = _MomentumTable._batch
    monkeypatch.setattr(_MomentumTable, "_batch",
                        lambda self, ks: batches.append(np.shape(ks)) or real(self, ks))
    # the constructor builds the whole table, the tail-fit points with the
    # partition's nodes, in one request
    st = _hydrogen_grid()
    tbl = st.momentum_table()
    assert batches == [(542,)]
    tail = tbl.tail_integral(2.0, tbl.k_cut)
    edges = tbl.edges
    assert all(st.momentum_table() is tbl for _ in range(3))
    assert tbl.tail_integral(2.0, tbl.k_cut) == tail
    assert batches == [(542,)]
    assert not edges.flags.writeable


@pytest.mark.parametrize("make", [_hydrogen_grid, _r4test_grid], ids=["hydrogen", "r4test"])
def test_grid_sweep_cell_alone_equals_the_cell_in_a_sweep(make):
    # no cache ties the orders of a state together: w depends on k alone, so
    # a cell does not depend on the orders its state ran before it
    import json

    from qmoments.inequalities import sweep

    ps, qs = [1.5, 2.5, 3.5], [0.9, 1.5, 2.0]
    in_sweep = [v.to_dict() for v in sweep(make(), 3, 3, ps, qs)]
    alone = [sweep(make(), 3, 3, [p], [q])[0].to_dict() for p in ps for q in qs]
    assert json.dumps(alone) == json.dumps(in_sweep)


@pytest.mark.parametrize("make", [_hydrogen_grid, _r4test_grid], ids=["hydrogen", "r4test"])
def test_grid_interpolant_by_runs_equals_the_search(make):
    from qmoments.quadrature import RadialSamples, kronrod_nodes

    st = make()
    k_cut = st.momentum_table().k_cut
    # the ascending nodes of the equal panels (momentum_amplitude's fallback)
    nodes = RadialSamples.nodes(st.r_max, math.ceil(2.0 * k_cut * st.r_max / math.pi)).ravel()
    assert np.all(np.diff(nodes) > 0.0)
    knots = st._r
    outside = np.array([-1.0, np.nextafter(knots[-1], np.inf), knots[-1] + 1.0])
    everything = np.sort(np.concatenate([nodes, knots, outside]))
    knot_nodes = kronrod_nodes(knots[:-1], knots[1:])[0]
    for f in (st._interp, st._dinterp):
        for x in (nodes, knots, knots[::2], knots[-1:], everything):
            assert f.at_ascending(x).tobytes() == f(x).tobytes()
        assert np.all(f.at_ascending(outside) == 0.0)
        assert f.at_knot_nodes(knot_nodes).tobytes() == f(knot_nodes).tobytes()
    # r_N lies in the last interval, not outside
    assert st._interp.at_ascending(knots[-1:])[0] != 0.0
    # the state's amplitude is the transform of its knot table on the uniform
    # grid, and of reduced_radial at equal panels on the geometric one, bit
    # for bit
    ks = np.linspace(0.0, k_cut, 64)
    if make is _hydrogen_grid:
        want = RadialSamples(st._u_knots, st.r_max, k_cut).sine_transform(ks)
    else:
        want = equal_panel_samples(st.reduced_radial, st.r_max, st.r_scale, k_cut).sine_transform(ks)
    assert st.momentum_table().w(ks).tobytes() == want.tobytes()


def _aligned_transform_oracle(st, ks, sub):
    """sqrt(2/pi) int u sin(kr) dr by K15 on sub equal sub-panels of every
    knot interval, with u from the interpolant and np.sin at every node: no
    FFT, and no node of the momentum table."""
    from qmoments.quadrature import _WK, _XK

    r = st._r
    edges = r[:-1, None] + np.diff(r)[:, None] * (np.arange(sub + 1) / sub)
    c, hw = 0.5 * (edges[:, 1:] + edges[:, :-1]).ravel(), 0.5 * np.diff(edges, axis=1).ravel()
    x = (c[:, None] + hw[:, None] * _XK).ravel()
    wu = math.sqrt(2.0 / math.pi) * (hw[:, None] * _WK).ravel() * st.reduced_radial(x)
    return np.array([np.sin(k * x) @ wu for k in ks])


def _uniform_grid(h, r_end=40.0):
    r = np.arange(0.0, r_end + 0.5 * h, h)
    return r, 2.0 * r * np.exp(-r)


def _fixed_decimals_grid(tmp_path):
    path = tmp_path / "grid.txt"
    np.savetxt(path, np.c_[_uniform_grid(0.02)], fmt="%.6f")
    return load_radial_grid(path)


@pytest.mark.parametrize("make, subpanels", [
    (lambda _: RadialGridState(*_uniform_grid(0.02)), 1),
    (lambda _: RadialGridState(*_uniform_grid(0.5, 20.0)), 16),
    (_fixed_decimals_grid, 1),
    (lambda _: RadialGridState(*_uniform_grid(0.02, 39.98)), 1),
], ids=["h0.02", "h0.5", "fixed-decimals", "odd-intervals"])
def test_uniform_grid_transform_is_exact_for_the_model(make, subpanels, tmp_path):
    # the panels are the knot intervals, split into s sub-panels: u is one
    # cubic on each and K15 is exact for the model; equal panels that
    # straddle the knots are 5e-11 of max|w| off on the h = 0.02 grid
    st = make(tmp_path)
    tbl = st.momentum_table()
    h = st.r_max / (st._r.size - 1)
    assert max(1, math.ceil(h * tbl.k_cut / math.pi)) == subpanels
    ks = np.linspace(0.0, tbl.k_cut, 400)
    w = tbl.w(ks)
    want = _aligned_transform_oracle(st, ks, 4 * subpanels)
    assert np.abs(w - want).max() <= 1e-14 * np.abs(want).max()


def _moved_knot_grid():
    r, u = _uniform_grid(0.02)
    r[700] += 1e-9 * r[-1]
    return RadialGridState(r, u)


@pytest.mark.parametrize("make, cap", [
    (_r4test_grid, None),
    (_moved_knot_grid, None),
    (lambda: RadialGridState(*(a[1:] for a in _uniform_grid(0.02))), None),
    (_hydrogen_grid, 1999),
], ids=["geometric", "moved-knot", "starts-past-0", "past-the-cap"])
def test_other_grids_keep_the_equal_panels(make, cap, monkeypatch):
    from qmoments import states

    if cap is not None:
        monkeypatch.setattr(states, "MAX_SINE_PANELS", cap)  # s N = 2000 on this grid
    st = make()
    k_cut = 50.0 / st.r_scale  # momentum_table's; a grid past r = 0 builds no table
    ks = np.linspace(0.0, k_cut, 64)
    want = equal_panel_samples(st.reduced_radial, st.r_max, st.r_scale, k_cut).sine_transform(ks)
    assert st.momentum_amplitude(k_cut)(ks).tobytes() == want.tobytes()


@pytest.mark.parametrize("make, cap", [
    (_r4test_grid, None),
    (_hydrogen_grid, 1999),
    (_hydrogen_grid, None),
], ids=["geometric", "past-the-cap", "knot-table"])
def test_momentum_amplitude_samples_the_interpolant_once_at_ascending_nodes(make, cap, monkeypatch):
    # the equal panels evaluate the interpolant in one call, on a 1-d array
    # of their nodes in ascending order; the knot table of a uniform grid
    # (s = 1) evaluates nothing
    from qmoments import states
    from qmoments.quadrature import RadialSamples

    if cap is not None:
        monkeypatch.setattr(states, "MAX_SINE_PANELS", cap)
    st = make()
    k_cut = 50.0 / st.r_scale
    seen = []
    real = st._interp.at_ascending
    monkeypatch.setattr(st._interp, "at_ascending", lambda r: seen.append(r) or real(r))
    st.momentum_amplitude(k_cut)
    if make is _hydrogen_grid and cap is None:
        assert seen == []
        return
    (nodes,) = seen
    n = math.ceil(2.0 * k_cut * st.r_max / math.pi)
    assert nodes.ndim == 1 and np.all(np.diff(nodes) > 0.0)
    assert np.array_equal(nodes, RadialSamples.nodes(st.r_max, n).ravel())


@pytest.mark.parametrize("n, kappa", [(1, 1.0), (4, 1.0), (2, 0.5)])
def test_power_exp_closed_form_amplitude_matches_the_sine_transform(n, kappa):
    st = PowerExpRadialState(n, kappa)
    tbl, sampled = momentum_table(st), momentum_table(st, sampled=True)
    assert sampled.k_cut == tbl.k_cut
    ks = np.geomspace(1e-5, tbl.k_cut, 640)
    assert np.abs(tbl.w(ks) - sampled.w(ks)).max() <= 1e-13


def _two_panel_momentum_moment(s, q):
    """<p^q> integrated from [0, 1/r_scale] and [1/r_scale, k_cut], the
    start every order had before the shared partition."""
    tbl = momentum_table(s)
    # edges[12] is 1/r_scale, the end of the geometric panels near 0
    res = integrate(lambda k: tbl.w(k) ** 2 * k**q, 0.0, tbl.k_cut,
                    Tolerances(abs_tol=1e-15), breakpoints=[tbl.edges[12]])
    assert res.converged
    return res.value + tbl.tail_integral(q, tbl.k_cut)


def _momentum_moment(s, q):
    from qmoments.moments import abs_central_moment, momentum_axis

    m = abs_central_moment(s, momentum_axis(3), q)
    assert m.is_convergent
    return (q + 1.0) * m.value  # <|p_z|^q> = <p^q>/(q+1)


def _hydrogen_p_moment(q):
    """<p^q> of hydrogen: (16/pi) B((3+q)/2, (5-q)/2)."""
    a, b = 0.5 * (3.0 + q), 0.5 * (5.0 - q)
    return 16.0 / math.pi * math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


@pytest.mark.parametrize("q", [0.9, 1.5, 2.0, 3.0])
def test_hydrogen_grid_momentum_moment_from_shared_partition(q):
    got = _momentum_moment(_hydrogen_grid(), q)
    assert got == pytest.approx(_hydrogen_p_moment(q), rel=2e-5)
    assert got == pytest.approx(_two_panel_momentum_moment(_hydrogen_grid(), q), rel=2e-6)


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
def test_hydrogen_grid_momentum_moment_near_the_closed_form(q):
    # w(k) of the grid depends on k alone, so the k-integral sees no
    # batch-dependent error; what is left is the grid's interpolation error
    assert _momentum_moment(_hydrogen_grid(), q) == pytest.approx(_hydrogen_p_moment(q), rel=2e-8)


@pytest.mark.parametrize("name, q", [
    ("hydrogen", 0.5), ("hydrogen", 1.0), ("hydrogen", 2.0), ("hydrogen", 3.0),
    ("hydrogen", 4.0), ("hydrogen", 4.9),
    ("r4test", 0.5), ("r4test", 1.0), ("r4test", 2.0), ("r4test", 4.0),
    ("r4test", 6.0), ("r4test", 7.5),
])
def test_catalog_momentum_moment_independent_of_the_start(name, q):
    got = _momentum_moment(integrated(catalog()[name]), q)
    assert got == pytest.approx(_two_panel_momentum_moment(catalog()[name], q), rel=1e-11)


def test_huge_grid_moments_are_never_a_convergent_inf_or_0():
    # knots near 1e200: the interval sums of u^2 r^2 overflow, and <r^-1>,
    # <r^-2> and <T> underflow to 0
    from qmoments.core import DomainError
    from qmoments.moments import raw_radial_moment

    st = RadialGridState([0.0, 1e200, 2e200, 3e200, 4e200], [0.0, 1.0, 0.5, 0.1, 0.0])
    res = st.knot_moment(2.0)
    assert res.failed and not res.converged
    assert raw_radial_moment(st, 2.0).status == "failed"
    assert raw_radial_moment(st, 1.0).value == pytest.approx(1.28e200, rel=1e-2)
    for quantity, x in ((R_POWER, -1.0), (R_POWER, -2.0), (KINETIC, 0.0)):
        with pytest.raises(DomainError, match="of grid state underflows a double"):
            st.direct_moment(quantity, x)


def test_huge_grid_momentum_tail_fit_is_a_domain_error():
    # k_cut = 50/r_scale is near 5e-199 there, and the tail fit's k^-2
    # overflows: a DomainError that names the state and the fit, not a bare
    # OverflowError
    from qmoments.core import DomainError
    from qmoments.moments import abs_central_moment, momentum_axis

    st = RadialGridState([0.0, 1e200, 2e200, 3e200, 4e200], [0.0, 1.0, 0.5, 0.1, 0.0],
                         label="huge grid")
    with pytest.raises(DomainError, match="momentum tail fit of huge grid overflows a double"):
        abs_central_moment(st, momentum_axis(3), 2.0)


# --- knot-table moments of grid states ----------------------------------------


@pytest.fixture
def integrate_calls(monkeypatch):
    """The integrate calls the moments make."""
    from qmoments import quadrature

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])  # the interval
        return integrate(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate", counted)
    return calls


@pytest.mark.parametrize("make", [_hydrogen_grid, _r4test_grid], ids=["hydrogen", "r4test"])
def test_grid_knot_table_matches_integrate_on_the_interpolant(make, integrate_calls):
    from qmoments.moments import raw_radial_moment

    st = make()
    for t in (-2.0, -1.0, 0.5, 1.6, 4.0):
        m = raw_radial_moment(st, t)
        assert m.is_convergent
        want = _knot_oracle(st, lambda r: (st.reduced_radial(r) * r ** (0.5 * t)) ** 2)
        assert m.value == pytest.approx(want, rel=1e-12), t
        assert m.err_estimate <= 1e-12 * want
    assert integrate_calls == []
    norm = st.knot_moment(0.0)
    assert norm.converged
    assert norm.value == pytest.approx(_knot_oracle(st, lambda r: st.reduced_radial(r) ** 2), rel=1e-12)
    assert norm.value == pytest.approx(1.0, rel=1e-14)
    kinetic = 0.5 * _knot_oracle(st, lambda r: reduced_radial_derivative(st, r) ** 2)
    assert st.kinetic_energy() == pytest.approx(kinetic, rel=1e-12)


def test_grid_origin_chain_falls_back_to_integrate(integrate_calls):
    # u^2 r^-2.9 ~ r^-0.9 at the origin: the fixed nodes miss the target there
    from qmoments.moments import raw_radial_moment

    st = _hydrogen_grid()
    assert not st.knot_moment(-2.9).converged
    m = raw_radial_moment(st, -2.9)
    assert m.is_convergent and len(integrate_calls) == 1
    # <r^t> of hydrogen is 4 Gamma(t+3) / 2^(t+3); the grid's error, which
    # r^-2.9 weighs toward the first knot intervals, is 5e-4 here
    assert m.value == pytest.approx(4.0 * math.gamma(0.1) / 2.0**0.1, rel=1e-3)


def _two_s_grid(h):
    """Hydrogen 2s, u = (2r - r^2) e^(-r/2) / (2 sqrt 2), which changes sign
    at r = 2, on a uniform grid to r = 60."""
    r = np.arange(0.0, 60.0 + 0.5 * h, h)
    return RadialGridState(r, (2.0 * r - r * r) * np.exp(-0.5 * r) / (2.0 * math.sqrt(2.0)))


def _two_s_moment(t):
    """<r^t> of hydrogen 2s: [4 Gamma(t+3) - 4 Gamma(t+4) + Gamma(t+5)] / 8."""
    return (4.0 * math.gamma(t + 3.0) - 4.0 * math.gamma(t + 4.0) + math.gamma(t + 5.0)) / 8.0


@pytest.mark.parametrize("t", [-1.0, -0.5, 0.5, 1.0, 2.5, 4.0])
def test_two_s_grid_position_moment_converges_with_the_spacing(t):
    from qmoments.moments import raw_radial_moment

    exact = _two_s_moment(t)
    fine, coarse = (abs(raw_radial_moment(_two_s_grid(h), t).require() / exact - 1.0)
                    for h in (0.01, 0.02))
    assert fine <= 1e-8
    assert 8.0 * fine <= coarse


# --- monotone cubic interpolation of grid states ------------------------------


def _random_pchip_data(seed):
    """Non-monotone samples with flat runs and sign changes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 12))
    r = np.cumsum(rng.uniform(0.05, 2.0, n))
    u = rng.integers(-2, 3, n).astype(float) if seed % 2 else rng.normal(size=n)
    return r, u


_H_GRID = np.arange(0.0, 40.01, 0.02)
_R4_GRID = np.concatenate([[0.0], np.geomspace(1e-3, 45.0, 400)])


def _compare_with_scipy_pchip(r, u):
    """Values and first derivatives of the grid interpolant against scipy's
    PCHIP on every knot, inside points and points outside the grid; returns
    scipy's knot slopes."""
    interpolate = pytest.importorskip("scipy.interpolate")
    from qmoments.states import _monotone_cubic

    rng = np.random.default_rng(0)
    inside = np.concatenate([r, rng.uniform(r[0], r[-1], 500)])
    outside = np.array([r[0] - 1.0, np.nextafter(r[0], -np.inf),
                        np.nextafter(r[-1], np.inf), r[-1] + 5.0])
    f, df = _monotone_cubic(r, u)
    ref = interpolate.PchipInterpolator(r, u, extrapolate=False)
    dref = ref.derivative()
    for ours, theirs in ((f, ref), (df, dref)):
        want = theirs(inside)
        scale = np.abs(want).max()
        assert np.abs(ours(inside) - want).max() <= 1e-14 * scale
        assert np.all(ours(outside) == 0.0)
    assert f(r[0]) == pytest.approx(u[0], abs=1e-14 * np.abs(u).max())
    assert f(r[-1]) == pytest.approx(u[-1], abs=1e-14 * np.abs(u).max())
    return dref(r)


@pytest.mark.parametrize("r, u", [
    pytest.param(_H_GRID, 2.0 * _H_GRID * np.exp(-_H_GRID), id="hydrogen_uniform"),
    pytest.param(_R4_GRID, _R4_GRID**4 * np.exp(-_R4_GRID), id="r4test_geometric"),
    pytest.param(np.array([0.0, 1.0, 2.5, 3.0]), np.array([0.0, 1.0, -0.5, 0.2]), id="four_points"),
    # the half-resolution grid of a four-point state in the kinetic check
    pytest.param(np.array([0.5, 2.0]), np.array([1.0, -3.0]), id="two_points"),
])
def test_grid_interpolant_matches_scipy_pchip(r, u):
    _compare_with_scipy_pchip(r, u)


def test_grid_interpolant_matches_scipy_pchip_on_random_data():
    # the random sets must reach the interior zero-slope rule and both clamps
    # of the end rule: a zero end slope and 3*m0 where the secants turn
    pytest.importorskip("scipy")
    hits = {"interior_zero": 0, "end_zero": 0, "end_three_m0": 0}
    for seed in range(40):
        r, u = _random_pchip_data(seed)
        d = _compare_with_scipy_pchip(r, u)
        m = np.diff(u) / np.diff(r)
        hits["interior_zero"] += int(np.sum(d[1:-1] == 0.0))
        for dk, mk in ((d[0], m[0]), (d[-1], m[-1])):
            hits["end_zero"] += dk == 0.0 and mk != 0.0
            hits["end_three_m0"] += mk != 0.0 and dk == pytest.approx(3.0 * mk, rel=1e-12)
    assert all(hits.values()), hits
