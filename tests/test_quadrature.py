import math

import numpy as np
import pytest

from qmoments.core import DomainError, MomentsError
from qmoments.quadrature import (
    CONVERGENT,
    DIVERGENT_AT_INFINITY,
    DIVERGENT_AT_ORIGIN,
    Domain,
    Envelope,
    UNKNOWN,
    detect_divergence,
    integrate,
    set_default_tolerances,
    sine_transform,
    sine_transform_batch,
)
from qmoments.rng import SplitMix64


def test_r5_exponential_tail():
    # int_0^inf r^5 e^{-2r} dr = 5!/2^6
    res = integrate(lambda r: r**5 * np.exp(-2.0 * r), Domain.semi_infinite(0.0))
    assert res.converged
    assert res.value == pytest.approx(1.875, rel=1e-12)


def test_gaussian_whole_line():
    res = integrate(lambda x: np.exp(-x * x), Domain.infinite())
    assert res.converged
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gamma_oracle(k):
    for n in range(13):
        res = integrate(lambda r: r**n * np.exp(-k * r), Domain.semi_infinite(0.0))
        exact = math.factorial(n) / k ** (n + 1)
        assert res.converged
        assert res.value == pytest.approx(exact, rel=1e-10)


def test_linearity_random():
    rng = SplitMix64(31)
    for _ in range(25):
        a = rng.uniform_in(-3.0, 3.0)
        b = rng.uniform_in(-3.0, 3.0)
        n = rng.integer(0, 4)
        m = rng.integer(0, 4)
        k1 = rng.uniform_in(0.5, 3.0)
        k2 = rng.uniform_in(0.5, 3.0)
        f = lambda r: r**n * np.exp(-k1 * r)
        g = lambda r: r**m * np.exp(-k2 * r)
        d = Domain.semi_infinite(0.0)
        lin = integrate(lambda r: a * f(r) + b * g(r), d)
        sep_f = integrate(f, d)
        sep_g = integrate(g, d)
        combined = a * sep_f.value + b * sep_g.value
        tol = 10.0 * (lin.err_estimate + abs(a) * sep_f.err_estimate + abs(b) * sep_g.err_estimate)
        assert abs(lin.value - combined) <= max(tol, 1e-13)


def test_substitution_invariance():
    # [0, inf) directly vs the manual map r = t/(1-t) on [0, 1)
    f = lambda r: r**3 * np.exp(-1.5 * r)
    direct = integrate(f, Domain.semi_infinite(0.0))

    def mapped(t):
        t = np.asarray(t, dtype=float)
        om = 1.0 - t
        return f(t / om) / om**2

    manual = integrate(mapped, Domain.finite(0.0, 1.0), breakpoints=[0.5])
    assert abs(direct.value - manual.value) <= 10 * (direct.err_estimate + manual.err_estimate) + 1e-14


def test_kink_with_breakpoint():
    c = 0.3
    res = integrate(lambda x: np.abs(x - c) ** 3, Domain.finite(-1.0, 1.0), breakpoints=[c])
    exact = ((1 + c) ** 4 + (1 - c) ** 4) / 4.0
    assert res.value == pytest.approx(exact, rel=1e-12)


def test_shifted_semi_infinite():
    res = integrate(lambda r: np.exp(-(r - 2.0)), Domain.semi_infinite(2.0))
    assert res.value == pytest.approx(1.0, rel=1e-11)


def test_budget_exhaustion_reports_not_converged():
    # near-log singularity with a tiny budget
    res = integrate(
        lambda x: np.abs(x) ** (-0.999), Domain.finite(1e-12, 1.0), max_evals=300,
        rel_tol=1e-12, abs_tol=1e-16,
    )
    assert not res.converged


def test_nan_integrand_fails():
    res = integrate(lambda x: np.where(x > 0.5, np.nan, 1.0), Domain.finite(0.0, 1.0))
    assert res.failed
    assert not res.converged
    with pytest.raises(MomentsError):
        res.require()


# --- batched refinement ------------------------------------------------------


def _serial_integrate(f, d, rel_tol=1e-10, abs_tol=1e-14, breakpoints=(), max_evals=1_000_000):
    """The one-panel-at-a-time heap loop: pop the largest-error panel, bisect
    it, evaluate each child in its own integrand call."""
    import heapq

    from qmoments.quadrature import _GAUSS_IDX, _WG, _WK, _XK, _map_domain

    g, (lo, hi), inner = _map_domain(f, d, breakpoints)

    def panel(a, b):
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        vals = np.asarray(g(c + h * _XK), dtype=float)
        k = h * float(_WK @ vals)
        return k, abs(k - h * float(_WG @ vals[_GAUSS_IDX]))

    edges = [lo] + [p for p in inner if lo < p < hi] + [hi]
    heap, total, errsum, evals = [], 0.0, 0.0, 0
    for n, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        k, e = panel(a, b)
        evals += 15
        total += k
        errsum += e
        heapq.heappush(heap, (-e, n, a, b, k))
    n = len(heap)
    while errsum > max(abs_tol, rel_tol * abs(total)) and evals + 30 <= max_evals:
        neg_e, _, a, b, k = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        (k1, e1), (k2, e2) = panel(a, mid), panel(mid, b)
        evals += 30
        total += k1 + k2 - k
        errsum += e1 + e2 + neg_e
        heapq.heappush(heap, (-e1, n + 1, a, mid, k1))
        heapq.heappush(heap, (-e2, n + 2, mid, b, k2))
        n += 2
    return total, max(errsum, 0.0)


@pytest.mark.parametrize("f, d, kwargs", [
    (lambda r: r**7 * np.exp(-3.0 * r), Domain.semi_infinite(0.0), {}),
    (lambda x: np.exp(-x * x), Domain.infinite(), {}),
    (lambda x: np.abs(x - 0.3) ** 3, Domain.finite(-1.0, 1.0), {"breakpoints": [0.3]}),
    (lambda x: x ** (-0.999), Domain.finite(1e-12, 1.0), {"rel_tol": 1e-12, "abs_tol": 1e-16}),
], ids=["gamma", "gaussian", "kink", "r^-0.999"])
def test_batched_rounds_match_serial_heap_loop(f, d, kwargs):
    res = integrate(f, d, **kwargs)
    value, err = _serial_integrate(f, d, **kwargs)
    assert res.converged
    assert abs(res.value - value) <= res.err_estimate + err


def _counted(f):
    shapes = []

    def g(x):
        shapes.append(np.shape(x))
        return f(x)

    return g, shapes


def test_integrand_calls_far_fewer_than_panels():
    g, shapes = _counted(lambda r: r**5 * np.exp(-2.0 * r))
    res = integrate(g, Domain.semi_infinite(0.0))
    assert res.value == pytest.approx(1.875, rel=1e-12)
    assert len(shapes) <= 20 and 3 * len(shapes) <= res.evaluations // 15
    # sixty cusps of sqrt|sin(30 x)|: thousands of panels, refined in rounds
    g, shapes = _counted(lambda x: np.sqrt(np.abs(np.sin(30.0 * x))))
    res = integrate(g, Domain.finite(0.0, 10.0))
    assert res.converged
    assert len(shapes) <= 60 and res.evaluations // 15 >= 1000


def test_integrand_sees_panel_rows():
    g, shapes = _counted(lambda x: np.exp(-x * x))
    integrate(g, Domain.infinite())
    assert all(len(s) == 2 and s[1] == 15 for s in shapes)
    assert shapes[0][0] == 4  # the four initial panels of the real line, in one call
    assert max(s[0] for s in shapes) > 1


@pytest.mark.parametrize("budget", [45, 46, 100, 301, 1000, 4321, 20_000])
def test_evaluations_never_exceed_budget(budget):
    for f in (lambda x: np.sin(1e7 * x), lambda x: x ** (-0.999)):
        res = integrate(f, Domain.finite(1e-12, 1.0), rel_tol=1e-15, abs_tol=1e-300,
                        max_evals=budget)
        assert not res.converged
        assert res.evaluations <= budget


@pytest.mark.parametrize("rel_tol, converged", [(1e-10, True), (1e-300, False)])
def test_jump_at_irrational_point_terminates(rel_tol, converged):
    # the panel holding the jump is bisected each round; below the rounding
    # floor of the other panels' error estimates the budget runs out instead
    c = 1.0 / math.sqrt(2.0)
    res = integrate(lambda x: np.where(x > c, 1.0, 0.0), Domain.finite(0.0, 1.0),
                    rel_tol=rel_tol, abs_tol=1e-300, max_evals=1_000_000)
    assert res.converged is converged
    assert res.evaluations <= 1_000_000
    assert abs(res.value - (1.0 - c)) <= res.err_estimate + 1e-15


def test_detect_divergence_log_origin():
    assert detect_divergence(Envelope(-1.0, ("exp", 2.0))) == DIVERGENT_AT_ORIGIN


def test_detect_divergence_convergent():
    assert detect_divergence(Envelope(2.0, ("exp", 2.0))) == CONVERGENT


def test_detect_divergence_inverse_sixth():
    # r^2 density against r^-6: net power -4 at the origin
    assert detect_divergence(Envelope(2.0 - 6.0, ("exp", 2.0))) == DIVERGENT_AT_ORIGIN


def test_detect_divergence_tail():
    assert detect_divergence(Envelope(0.0, ("power", -0.5))) == DIVERGENT_AT_INFINITY
    assert detect_divergence(Envelope(0.0, ("power", -2.5))) == CONVERGENT


def test_detect_divergence_unknown():
    assert detect_divergence(Envelope(None, ("exp", 1.0))) == UNKNOWN
    assert detect_divergence(Envelope(1.0, None)) == UNKNOWN


def test_envelope_shift():
    env = Envelope(2.0, ("power", -7.0)).shifted(delta_origin=-6.0, delta_tail=2.0)
    assert env.origin_power == -4.0
    assert env.tail == ("power", -5.0)


# --- sine transform ---------------------------------------------------------


def _hydrogen_u(r):
    return 2.0 * np.asarray(r) * np.exp(-np.asarray(r))


def test_sine_transform_hydrogen_closed_form():
    for k in [0.3, 1.0, 4.0, 20.0]:
        w = sine_transform(_hydrogen_u, k, r_max=48.0)
        exact = math.sqrt(2 / math.pi) * 4.0 * k / (1 + k * k) ** 2
        assert w == pytest.approx(exact, rel=1e-9)


def test_sine_transform_normalization():
    # int w(k)^2 dk = 1 when int u^2 dr = 1
    ks_res = integrate(
        lambda k: sine_transform_batch(_hydrogen_u, k, 48.0)[0] ** 2,
        Domain.finite(0.0, 200.0),
        rel_tol=1e-9, abs_tol=1e-13,
    )
    assert ks_res.value == pytest.approx(1.0, abs=1e-8)


def test_sine_transform_zero_frequency():
    assert sine_transform(_hydrogen_u, 0.0, 48.0) == 0.0


def test_sine_transform_gaussian_reciprocal_width():
    # u = N r e^{-r^2/(2 s^2)} maps to w proportional to k e^{-k^2 s^2 / 2}
    s = 1.7
    norm = 1.0 / math.sqrt(0.25 * s**3 * math.sqrt(math.pi) * 2.0)  # int u^2 = 1

    def u(r):
        r = np.asarray(r)
        return norm * r * np.exp(-(r**2) / (2 * s * s))

    w1 = sine_transform(u, 0.8, r_max=20.0 * s)
    w2 = sine_transform(u, 1.6, r_max=20.0 * s)
    expected_ratio = (0.8 / 1.6) * math.exp((-0.8**2 + 1.6**2) * s * s / 2.0)
    assert w1 / w2 == pytest.approx(expected_ratio, rel=1e-9)


def test_sine_transform_batch_matches_scalar():
    ks = np.array([0.5, 2.0, 7.0])
    vals, err = sine_transform_batch(_hydrogen_u, ks, 48.0)
    for k, v in zip(ks, vals):
        assert v == pytest.approx(sine_transform(_hydrogen_u, float(k), 48.0), rel=1e-12)
    assert err < 1e-8


def _power_exp_amplitude(st, k):
    # Laplace transform of r^n e^{-kappa r}: N sqrt(2/pi) n! Im[(kappa - ik)^-(n+1)]
    return (st.norm * math.sqrt(2.0 / math.pi) * math.factorial(st.n)
            * np.imag((st.kappa - 1j * k) ** (-(st.n + 1))))


@pytest.mark.parametrize("n, kappa", [(1, 1.0), (4, 1.0), (2, 0.5)])
def test_sine_transform_batch_power_exp_closed_form(n, kappa):
    from qmoments.states import PowerExpRadialState

    st = PowerExpRadialState(n, kappa)
    ks = np.geomspace(1e-5, 50.0 / st.r_scale, 640)
    for start in range(0, ks.size, 128):  # ascending chunks, as the momentum table runs
        chunk = ks[start:start + 128]
        vals, _ = sine_transform_batch(st.reduced_radial, chunk, st.r_max, st.r_scale)
        assert np.abs(vals - _power_exp_amplitude(st, chunk)).max() <= 1e-13


def _dense_sine_transform(u, ks, r_max, r_scale):
    """The per-node formula: one sin(k*node) entry for each k and each of the
    15n Kronrod nodes, summed with K15 and G7 weights panel by panel."""
    from qmoments.quadrature import _GAUSS_IDX, _WG, _WK, _XK

    kmax = float(ks.max())
    n = max(math.ceil(r_max / (0.5 * r_scale)), math.ceil(2.0 * kmax * r_max / math.pi), 4)
    edges = np.linspace(0.0, r_max, n + 1)
    c = 0.5 * (edges[:-1] + edges[1:])
    h = 0.5 * (edges[1] - edges[0])
    nodes = (c[:, None] + h * _XK[None, :]).ravel()
    prod = (np.sin(ks[:, None] * nodes[None, :]) * u(nodes)[None, :]).reshape(len(ks), n, 15)
    k15 = h * prod @ _WK
    g7 = h * prod[:, :, _GAUSS_IDX] @ _WG
    norm = math.sqrt(2.0 / math.pi)
    return norm * k15.sum(axis=1), norm * float(np.abs(k15 - g7).sum(axis=1).max())


def test_sine_transform_batch_matches_dense_reference_on_grid_state():
    from qmoments.states import RadialGridState

    r = np.arange(0.0, 40.01, 0.02)
    st = RadialGridState(r, 2.0 * r * np.exp(-r))
    k_cut = st.momentum_table().k_cut
    for ks in (np.linspace(1e-3, 0.1 * k_cut, 64), np.linspace(0.5 * k_cut, k_cut, 64)):
        vals, err = sine_transform_batch(st.reduced_radial, ks, st.r_max, st.r_scale)
        ref, ref_err = _dense_sine_transform(st.reduced_radial, ks, st.r_max, st.r_scale)
        assert np.abs(vals - ref).max() <= 1e-14
        assert err == pytest.approx(ref_err, rel=0.01)


def test_sine_transform_batch_blocks_match_single_k_and_cap_memory():
    import tracemalloc

    from qmoments.states import RadialGridState

    r = np.arange(0.0, 40.01, 0.02)
    st = RadialGridState(r, 2.0 * r * np.exp(-r))
    k_cut = st.momentum_table().k_cut
    ks = np.linspace(k_cut / 128, k_cut, 128)

    def transform(k):
        return sine_transform_batch(st.reduced_radial, k, st.r_max, st.r_scale)[0]

    vals = transform(ks)
    # each k with k_cut beside it, so the radial panel count is the same
    single = np.array([transform(np.array([k, k_cut]))[0] for k in ks])
    assert np.abs(vals - single).max() <= 1e-15 * np.abs(single).max()

    def peak(k):
        tracemalloc.start()
        try:
            transform(k)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(ks) <= 1.5 * peak(ks[-15:])


def test_sine_transform_k_integral_reaches_tolerance():
    # <p^8> of r^4 e^{-r} weighs w(k)^2 by k^8, so rounding noise of the
    # transform in k would stall the adaptive rule long before this budget
    from qmoments.states import PowerExpRadialState

    st = PowerExpRadialState(4, 1.0)
    k_cut = 50.0

    def w(k):
        return sine_transform_batch(st.reduced_radial, k, st.r_max, st.r_scale)[0]

    res = integrate(lambda k: w(k) ** 2 * k**8, Domain.finite(0.0, k_cut),
                    abs_tol=1e-15, breakpoints=[1.0], max_evals=20_000)
    exact = integrate(lambda k: _power_exp_amplitude(st, k) ** 2 * k**8,
                      Domain.finite(0.0, k_cut), abs_tol=1e-15, breakpoints=[1.0])
    assert res.converged
    assert res.value == pytest.approx(exact.value, rel=1e-9)


def test_finite_domain_validation():
    with pytest.raises(Exception):
        Domain.finite(2.0, 2.0)


@pytest.mark.parametrize("kw", [{"rel_tol": math.nan}, {"rel_tol": math.inf},
                                {"abs_tol": math.nan}, {"abs_tol": math.inf}])
def test_default_tolerances_reject_non_finite(kw):
    with pytest.raises(DomainError):
        set_default_tolerances(**kw)
