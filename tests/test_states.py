import math

import numpy as np
import pytest

from marginals import hydrogen_position_density, momentum_density, position_density
from qmoments.core import CapabilityError, DataFormatError
from qmoments.quadrature import Domain, integrate
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
    res = integrate(lambda r: hydrogen.radial_density(r), Domain.semi_infinite(0.0))
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
    res = integrate(
        hydrogen_position_density, Domain.infinite(),
        rel_tol=1e-9, abs_tol=1e-13, breakpoints=[0.0],
    )
    assert res.value == pytest.approx(1.0, abs=1e-8)


def test_gaussian_peak_density():
    g = GaussianPacket(x0=2.0, sigma=1.3)
    assert g.axis_position_density(1, 2.0) == pytest.approx(
        1.0 / (1.3 * math.sqrt(2 * math.pi)), rel=1e-14
    )


def test_gaussian_means():
    g = GaussianPacket(x0=2.0, p0=-0.7, sigma=1.3)
    assert g.position_mean(1) == 2.0
    assert g.momentum_mean(1) == -0.7


def test_gaussian_momentum_width():
    g = GaussianPacket(sigma=2.0)
    # sigma_p = hbar / (2 sigma)
    res = integrate(
        lambda p: p * p * g.axis_momentum_density(1, p), Domain.infinite(),
        breakpoints=[0.0],
    )
    assert res.value == pytest.approx(1.0 / 16.0, rel=1e-10)


def test_momentum_marginal_normalized(hydrogen):
    res = integrate(
        lambda p: momentum_density(hydrogen, p), Domain.infinite(),
        rel_tol=1e-8, abs_tol=1e-12, breakpoints=[0.0],
    )
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_momentum_marginal_second_moment(hydrogen):
    # <p_z^2> = hbar^2/(3 a0^2), via direct integration of the marginal
    res = integrate(
        lambda p: p * p * momentum_density(hydrogen, p), Domain.infinite(),
        rel_tol=1e-8, abs_tol=1e-12, breakpoints=[0.0],
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


def test_p_squared_three_routes(hydrogen):
    # gradient route
    via_gradient = 2.0 * hydrogen.constants.mass * hydrogen.kinetic_energy()
    # marginal route, summed over the three axes
    res = integrate(
        lambda p: p * p * momentum_density(hydrogen, p), Domain.infinite(),
        rel_tol=1e-8, abs_tol=1e-12, breakpoints=[0.0],
    )
    via_marginals = 3.0 * res.value
    # radial momentum density route
    tbl = hydrogen.momentum_table()
    res2 = integrate(lambda k: tbl.w(k) ** 2 * k * k, Domain.finite(0.0, tbl.k_cut))
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
        qho.axis_position_density(2, 0.0)  # 1d states expose axis 1 only


def test_momentum_tail_powers(hydrogen):
    assert hydrogen.momentum_tail_power() == -3.0
    assert PowerExpRadialState(4, 1.0).momentum_tail_power() == -5.0
    assert PowerExpRadialState(2, 1.0).momentum_tail_power() == -3.0
    assert PowerExpRadialState(3, 1.0).momentum_tail_power() == -5.0


def test_r4_momentum_amplitude_closed_form():
    # u = N r^4 e^{-r}: transform proportional to (k^5 - 10 k^3 + 5 k)/(1+k^2)^5
    st = PowerExpRadialState(4, 1.0)
    tbl = st.momentum_table()
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
    res = integrate(lambda r: st.radial_density(r), Domain.finite(0.0, st.r_max))
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
    with pytest.raises(DataFormatError, match="bad.dat:2"):
        load_radial_grid(path)


def test_catalog_contents():
    states = catalog()
    assert set(states) == {"hydrogen", "qho", "gaussian", "r4test"}
    assert states["r4test"].origin_power_u == 4.0


def test_gaussian_means_by_integration():
    g = GaussianPacket(x0=1.4, p0=0.6, sigma=0.9)
    mx = integrate(lambda x: x * g.axis_position_density(1, x), Domain.infinite(),
                   breakpoints=[1.4])
    mp = integrate(lambda p: p * g.axis_momentum_density(1, p), Domain.infinite(),
                   breakpoints=[0.6])
    assert mx.value == pytest.approx(1.4, abs=1e-9)
    assert mp.value == pytest.approx(0.6, abs=1e-9)


def test_r4_p_squared_three_routes():
    # u = N r^4 e^{-r}: int u'^2 dr = 1/7 by the Gamma oracle, and this state
    # exercises the steeper k^-5 transform tail
    st = PowerExpRadialState(4, 1.0)
    via_gradient = 2.0 * st.kinetic_energy()
    assert via_gradient == pytest.approx(1.0 / 7.0, rel=1e-9)
    tbl = st.momentum_table()
    res = integrate(lambda k: tbl.w(k) ** 2 * k * k, Domain.finite(0.0, tbl.k_cut))
    via_radial = res.value + tbl.tail_integral(2.0, tbl.k_cut)
    assert via_radial == pytest.approx(via_gradient, rel=1e-6)
    res2 = integrate(
        lambda p: p * p * momentum_density(st, p), Domain.infinite(),
        rel_tol=1e-8, abs_tol=1e-12, breakpoints=[0.0],
    )
    assert 3.0 * res2.value == pytest.approx(via_gradient, rel=1e-6)


def test_r4_momentum_marginal_normalized():
    st = PowerExpRadialState(4, 1.0)
    res = integrate(
        lambda p: momentum_density(st, p), Domain.infinite(),
        rel_tol=1e-8, abs_tol=1e-12, breakpoints=[0.0],
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
    import qmoments.states as states_mod

    calls = []
    real = states_mod.sine_transform_batch

    def counted(u, ks, *args, **kwargs):
        calls.append(np.shape(ks))
        return real(u, ks, *args, **kwargs)

    monkeypatch.setattr(states_mod, "sine_transform_batch", counted)
    return calls


def test_momentum_table_2d_request_transforms_each_row_alone(sine_calls):
    from qmoments.quadrature import _XK

    edges = np.array([1e-3, 0.5, 1.0, 5.0, 40.0, 100.0])
    c, h = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    rows = c[:, None] + h[:, None] * _XK  # k-panels as integrate passes them
    batched, single = (_dense_grid_state().momentum_table() for _ in range(2))
    for tbl in (batched, single):
        tbl.w(rows[1])  # a cached row
        tbl.w(rows[3, :5])  # and a partly cached one
    sine_calls.clear()
    got = batched.w(rows)
    assert got.shape == rows.shape
    assert sine_calls == [(15,), (15,), (10,), (15,)]
    for row, vals in zip(rows, got):
        assert np.array_equal(single.w(row), vals)


def test_momentum_table_1d_request_runs_in_ascending_chunks(sine_calls):
    tbl = _dense_grid_state().momentum_table()
    ks = np.linspace(50.0, 0.1, 300)
    vals = tbl.w(ks)
    assert sine_calls == [(128,), (128,), (44,)]
    assert np.array_equal(tbl.w(ks[::-1]), vals[::-1])  # now all cached
    assert len(sine_calls) == 3


def _hydrogen_grid():
    r = np.arange(0.0, 40.01, 0.02)
    return RadialGridState(r, 2.0 * r * np.exp(-r))


def _r4test_grid():
    # geometric, with a leading r = 0, as in the grid benchmark
    r = np.concatenate([[0.0], np.geomspace(1e-3, 45.0, 400)])
    return RadialGridState(r, r**4 * np.exp(-r))


def test_momentum_table_partition_is_cached_for_the_first_round(sine_calls):
    tbl = _hydrogen_grid().momentum_table()
    edges = tbl.partition()
    assert edges.size == 37 and edges[0] == 0.0 and edges[-1] == tbl.k_cut
    assert np.all(np.diff(edges) > 0.0)
    assert sine_calls == [(128,), (128,), (128,), (128,), (28,)]  # 540 nodes
    assert np.array_equal(tbl.partition(), edges)
    assert len(sine_calls) == 5
    # integrate's first round on these edges asks for exactly those nodes
    seen = []
    res = integrate(lambda k: seen.append(k.shape) or tbl.w(k) ** 2, Domain.finite(0.0, tbl.k_cut),
                    breakpoints=edges[1:-1], max_evals=540)
    assert seen == [(36, 15)] and res.evaluations == 540
    assert len(sine_calls) == 5


def test_hydrogen_grid_sweep_sine_calls(sine_calls):
    # each order starts from the shared partition: 49 calls from two panels
    from qmoments.inequalities import sweep

    sweep(_hydrogen_grid(), 3, 3, [1.5, 2.5, 3.5], [1.0, 1.5, 2.0])
    assert len(sine_calls) <= 20


def test_r4test_grid_cell_sine_calls(sine_calls):
    # 141 calls from two panels; most rows now come from refinement, where
    # w carries the grid's interpolation noise
    from qmoments.inequalities import sweep

    sweep(_r4test_grid(), 3, 3, [2.5], [0.9])
    assert len(sine_calls) <= 100


def _two_panel_momentum_moment(s, q):
    """<p^q> integrated from [0, 1/r_scale] and [1/r_scale, k_cut], the
    start every order had before the shared partition."""
    tbl = s.momentum_table()
    res = integrate(lambda k: tbl.w(k) ** 2 * k**q, Domain.finite(0.0, tbl.k_cut),
                    abs_tol=1e-15, breakpoints=[1.0 / s.r_scale])
    assert res.converged
    return res.value + tbl.tail_integral(q, tbl.k_cut)


def _momentum_moment(s, q):
    from qmoments.moments import abs_central_moment, momentum_axis

    m = abs_central_moment(s, momentum_axis(3), q)
    assert m.is_convergent
    return (q + 1.0) * m.value  # <|p_z|^q> = <p^q>/(q+1)


@pytest.mark.parametrize("q", [0.9, 1.5, 2.0, 3.0])
def test_hydrogen_grid_momentum_moment_from_shared_partition(q):
    got = _momentum_moment(_hydrogen_grid(), q)
    a, b = 0.5 * (3.0 + q), 0.5 * (5.0 - q)
    exact = 16.0 / math.pi * math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    assert got == pytest.approx(exact, rel=2e-5)
    assert got == pytest.approx(_two_panel_momentum_moment(_hydrogen_grid(), q), rel=2e-6)


@pytest.mark.parametrize("name, q", [
    ("hydrogen", 0.5), ("hydrogen", 1.0), ("hydrogen", 2.0), ("hydrogen", 3.0),
    ("hydrogen", 4.0), ("hydrogen", 4.9),
    ("r4test", 0.5), ("r4test", 1.0), ("r4test", 2.0), ("r4test", 4.0),
    ("r4test", 6.0), ("r4test", 7.5),
])
def test_catalog_momentum_moment_independent_of_the_start(name, q):
    got = _momentum_moment(catalog()[name], q)
    assert got == pytest.approx(_two_panel_momentum_moment(catalog()[name], q), rel=1e-11)


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
