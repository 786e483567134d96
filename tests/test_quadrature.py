import math

import numpy as np
import pytest

from marginals import (
    equal_panel_count, equal_panel_samples, integrate_real_line, integrate_semi_infinite,
    power_exp_amplitude, real_line, semi_infinite,
)
from qmoments.core import DomainError, MomentsError, Tolerances
from qmoments.quadrature import RadialSamples, integrate
from seeded import SplitMix64


def test_r5_exponential_tail():
    # int_0^inf r^5 e^{-2r} dr = 5!/2^6
    res = integrate_semi_infinite(lambda r: r**5 * np.exp(-2.0 * r))
    assert res.converged
    assert res.value == pytest.approx(1.875, rel=1e-12)


def test_gaussian_whole_line():
    res = integrate_real_line(lambda x: np.exp(-x * x))
    assert res.converged
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gamma_oracle(k):
    for n in range(13):
        res = integrate_semi_infinite(lambda r: r**n * np.exp(-k * r))
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
        lin = integrate_semi_infinite(lambda r: a * f(r) + b * g(r))
        sep_f = integrate_semi_infinite(f)
        sep_g = integrate_semi_infinite(g)
        combined = a * sep_f.value + b * sep_g.value
        tol = 10.0 * (lin.err_estimate + abs(a) * sep_f.err_estimate + abs(b) * sep_g.err_estimate)
        assert abs(lin.value - combined) <= max(tol, 1e-13)


def test_substitution_invariance():
    # [0, inf) directly vs the manual map r = t/(1-t) on [0, 1)
    f = lambda r: r**3 * np.exp(-1.5 * r)
    direct = integrate_semi_infinite(f)

    def mapped(t):
        t = np.asarray(t, dtype=float)
        om = 1.0 - t
        return f(t / om) / om**2

    manual = integrate(mapped, 0.0, 1.0, breakpoints=[0.5])
    assert abs(direct.value - manual.value) <= 10 * (direct.err_estimate + manual.err_estimate) + 1e-14


def test_kink_with_breakpoint():
    c = 0.3
    res = integrate(lambda x: np.abs(x - c) ** 3, -1.0, 1.0, breakpoints=[c])
    exact = ((1 + c) ** 4 + (1 - c) ** 4) / 4.0
    assert res.value == pytest.approx(exact, rel=1e-12)


def test_shifted_semi_infinite():
    res = integrate_semi_infinite(lambda r: np.exp(-(r - 2.0)), 2.0)
    assert res.value == pytest.approx(1.0, rel=1e-11)


def test_budget_exhaustion_reports_not_converged():
    # near-log singularity with a tiny budget
    res = integrate(
        lambda x: np.abs(x) ** (-0.999), 1e-12, 1.0,
        Tolerances(rel_tol=1e-12, abs_tol=1e-16, max_evals=300),
    )
    assert not res.converged


def test_nan_integrand_fails():
    res = integrate(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)
    assert res.failed
    assert not res.converged
    # the first round's evaluations count, though it met the NaN: 15 per
    # initial panel
    assert res.evaluations == 15
    res = integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0, breakpoints=[0.25, 0.5])
    assert res.failed and res.evaluations == 45


def test_failed_refinement_round_counts_its_evaluations():
    # the first round is finite and misses the target; the NaN appears in
    # the first round of refinement, whose 30 evaluations per bisected panel
    # count too
    calls = []

    def f(x):
        calls.append(x.size)
        return np.sin(x) if len(calls) == 1 else np.full_like(x, np.nan)

    res = integrate(f, 0.0, 50.0)
    assert res.failed and not res.converged
    assert len(calls) == 2 and calls[0] == 15
    assert res.evaluations == sum(calls) > 15


# --- batched refinement ------------------------------------------------------


def _serial_integrate(g, lo, hi, tol=Tolerances(), breakpoints=()):
    """The one-panel-at-a-time heap loop: pop the largest-error panel, bisect
    it, evaluate each child in its own integrand call."""
    import heapq

    from qmoments.quadrature import _GAUSS_IDX, _WG, _WK, _XK

    inner = sorted(float(p) for p in breakpoints)
    rel_tol, abs_tol, max_evals = tol.rel_tol, tol.abs_tol, tol.max_evals

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


def _mapped(g, lo, hi, breakpoints):
    return g, lo, hi, {"breakpoints": breakpoints}


@pytest.mark.parametrize("f, lo, hi, kwargs", [
    _mapped(*semi_infinite(lambda r: r**7 * np.exp(-3.0 * r))),
    _mapped(*real_line(lambda x: np.exp(-x * x))),
    (lambda x: np.abs(x - 0.3) ** 3, -1.0, 1.0, {"breakpoints": [0.3]}),
    (lambda x: x ** (-0.999), 1e-12, 1.0, {"tol": Tolerances(rel_tol=1e-12, abs_tol=1e-16)}),
], ids=["gamma", "gaussian", "kink", "r^-0.999"])
def test_batched_rounds_match_serial_heap_loop(f, lo, hi, kwargs):
    res = integrate(f, lo, hi, **kwargs)
    value, err = _serial_integrate(f, lo, hi, **kwargs)
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
    res = integrate_semi_infinite(g)
    assert res.value == pytest.approx(1.875, rel=1e-12)
    assert len(shapes) <= 20 and 3 * len(shapes) <= res.evaluations // 15
    # sixty cusps of sqrt|sin(30 x)|: thousands of panels, refined in rounds
    g, shapes = _counted(lambda x: np.sqrt(np.abs(np.sin(30.0 * x))))
    res = integrate(g, 0.0, 10.0)
    assert res.converged
    assert len(shapes) <= 60 and res.evaluations // 15 >= 1000


def test_integrand_sees_panel_rows():
    g, shapes = _counted(lambda x: np.exp(-x * x))
    integrate_real_line(g)
    assert all(len(s) == 2 and s[1] == 15 for s in shapes)
    assert shapes[0][0] == 4  # the four initial panels of the real line, in one call
    assert max(s[0] for s in shapes) > 1


@pytest.mark.parametrize("budget", [45, 46, 100, 301, 1000, 4321, 20_000])
def test_evaluations_never_exceed_budget(budget):
    for f in (lambda x: np.sin(1e7 * x), lambda x: x ** (-0.999)):
        res = integrate(f, 1e-12, 1.0,
                        Tolerances(rel_tol=1e-15, abs_tol=1e-300, max_evals=budget))
        assert not res.converged
        assert res.evaluations <= budget


@pytest.mark.parametrize("rel_tol, converged", [(1e-10, True), (1e-300, False)])
def test_jump_at_irrational_point_terminates(rel_tol, converged):
    # the panel holding the jump is bisected each round; below the rounding
    # floor of the other panels' error estimates the budget runs out instead
    c = 1.0 / math.sqrt(2.0)
    res = integrate(lambda x: np.where(x > c, 1.0, 0.0), 0.0, 1.0,
                    Tolerances(rel_tol=rel_tol, abs_tol=1e-300, max_evals=1_000_000))
    assert res.converged is converged
    assert res.evaluations <= 1_000_000
    assert abs(res.value - (1.0 - c)) <= res.err_estimate + 1e-15


# --- fixed panels -------------------------------------------------------------


def test_panel_sum_is_the_first_round_of_integrate():
    # on integrate's initial panels, with no budget left to refine, the two
    # sums agree bit for bit, convergence verdict included
    from qmoments.quadrature import kronrod_nodes, panel_sum

    edges = np.array([0.0, 0.3, 1.0, 2.5])
    tol = Tolerances(max_evals=45)
    verdicts = []
    for f in (lambda x: np.exp(-x) * np.sin(3.0 * x), lambda x: np.abs(x - 1.1) ** 0.5):
        fixed = panel_sum(f, *kronrod_nodes(edges[:-1], edges[1:]), tol)
        assert fixed == integrate(f, 0.0, 2.5, tol, edges[1:-1])
        assert fixed.evaluations == 45
        verdicts.append(fixed.converged)
    assert verdicts == [True, False]


def test_panel_sum_fails_on_a_non_finite_value_or_panel_sum():
    from qmoments.quadrature import kronrod_nodes, panel_sum

    nodes, h = kronrod_nodes(np.array([0.0, 1.0]), np.array([1.0, 1e10]))
    nan = panel_sum(lambda x: np.where(x > 0.5, np.nan, 1.0), nodes, h, Tolerances())
    # every value is finite, but 1e300 over a panel 1e10 wide is not
    over = panel_sum(lambda x: np.full_like(x, 1e300), nodes, h, Tolerances())
    for res in (nan, over):
        assert res.failed and not res.converged and res.evaluations == 30


def test_states_and_moments_import_no_private_quadrature_name():
    # quadrature owns the Kronrod rule and moments the observables: their
    # users reach them through public names only, whether imported by name
    # or read off the module
    import ast
    from pathlib import Path

    import qmoments

    package = Path(qmoments.__file__).parent
    for name, owner in (("states.py", "quadrature"), ("moments.py", "quadrature"),
                        ("inequalities.py", "moments"), ("centralfield.py", "moments")):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        aliases, private = {owner}, []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[-1] == owner:
                    private += [a.name for a in node.names if a.name.startswith("_")]
                else:
                    aliases |= {a.asname or a.name for a in node.names if a.name == owner}
            elif isinstance(node, ast.Import):
                aliases |= {a.asname for a in node.names if a.name.endswith(f".{owner}") and a.asname}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id in aliases):
                private.append(node.attr)
        assert private == [], (name, private)


# --- sine transform ---------------------------------------------------------


def test_radial_samples_refuses_more_panels_than_the_cap():
    from qmoments.quadrature import MAX_SINE_PANELS

    # a zero-copy view: nothing of the cap's size is allocated
    values = np.broadcast_to(0.0, (MAX_SINE_PANELS + 1, 15))
    with pytest.raises(MomentsError, match=f"needs {MAX_SINE_PANELS + 1} panels .* exceeds the "
                                           f"{MAX_SINE_PANELS} panel cap"):
        RadialSamples(values, 1.0, 1.0)


def test_radial_samples_nodes_are_equal_panels_in_ascending_order():
    from qmoments.quadrature import kronrod_nodes

    r_max, n = 48.0, 37
    nodes = RadialSamples.nodes(r_max, n)
    assert nodes.shape == (n, 15) and np.all(np.diff(nodes.ravel()) > 0.0)
    edges = np.linspace(0.0, r_max, n + 1)
    assert np.abs(nodes - kronrod_nodes(edges[:-1], edges[1:])[0]).max() <= 1e-14 * r_max


def _hydrogen_u(r):
    return 2.0 * np.asarray(r) * np.exp(-np.asarray(r))


def test_sine_transform_hydrogen_closed_form():
    ks = np.array([0.3, 1.0, 4.0, 20.0])
    w = equal_panel_samples(_hydrogen_u, 48.0, 1.0, ks.max()).sine_transform(ks)
    exact = math.sqrt(2 / math.pi) * 4.0 * ks / (1 + ks * ks) ** 2
    assert w == pytest.approx(exact, rel=1e-9)


def test_sine_transform_normalization():
    # int w(k)^2 dk = 1 when int u^2 dr = 1
    samples = equal_panel_samples(_hydrogen_u, 48.0, 1.0, 200.0)
    ks_res = integrate(
        lambda k: samples.sine_transform(k) ** 2,
        0.0, 200.0,
        Tolerances(rel_tol=1e-9, abs_tol=1e-13),
    )
    assert ks_res.value == pytest.approx(1.0, abs=1e-8)


def test_sine_transform_zero_frequency():
    assert equal_panel_samples(_hydrogen_u, 48.0, 1.0, 1.0).sine_transform(0.0) == 0.0


def test_sine_transform_gaussian_reciprocal_width():
    # u = N r e^{-r^2/(2 s^2)} maps to w proportional to k e^{-k^2 s^2 / 2}
    s = 1.7
    norm = 1.0 / math.sqrt(0.25 * s**3 * math.sqrt(math.pi) * 2.0)  # int u^2 = 1

    def u(r):
        r = np.asarray(r)
        return norm * r * np.exp(-(r**2) / (2 * s * s))

    w1, w2 = equal_panel_samples(u, 20.0 * s, 1.0, 1.6).sine_transform([0.8, 1.6])
    expected_ratio = (0.8 / 1.6) * math.exp((-0.8**2 + 1.6**2) * s * s / 2.0)
    assert w1 / w2 == pytest.approx(expected_ratio, rel=1e-9)


@pytest.mark.parametrize("n, kappa", [(1, 1.0), (4, 1.0), (2, 0.5)])
def test_sine_transform_batch_power_exp_closed_form(n, kappa):
    from qmoments.states import PowerExpRadialState

    st = PowerExpRadialState(n, kappa)
    ks = np.geomspace(1e-5, 50.0 * kappa, 640)
    for start in range(0, ks.size, 128):  # ascending chunks: the panel count grows with k
        chunk = ks[start:start + 128]
        vals = equal_panel_samples(st.reduced_radial, st.r_max, 1.0 / kappa, chunk.max()).sine_transform(chunk)
        assert np.abs(vals - power_exp_amplitude(st, chunk)).max() <= 1e-13


def _dense_sine_transform(u, ks, r_max, r_scale, k_max):
    """The per-node formula: one sin(k*node) term for each k and each of the
    15n Kronrod nodes, summed with K15 weights panel by panel."""
    from qmoments.quadrature import _WK, _XK

    n = equal_panel_count(r_max, r_scale, k_max)
    edges = np.linspace(0.0, r_max, n + 1)
    c = 0.5 * (edges[:-1] + edges[1:])
    h = 0.5 * (edges[1] - edges[0])
    nodes = c[:, None] + h * _XK[None, :]
    uv = u(nodes.ravel()).reshape(n, 15)
    k15 = np.array([h * (np.sin(k * nodes) * uv) @ _WK for k in ks])
    return math.sqrt(2.0 / math.pi) * k15.sum(axis=1)


def _hydrogen_grid():
    from qmoments.states import RadialGridState

    r = np.arange(0.0, 40.01, 0.02)
    return RadialGridState(r, 2.0 * r * np.exp(-r))


def test_sine_transform_batch_matches_dense_reference_on_grid_state():
    from qmoments.states import RadialGridState

    st = _hydrogen_grid()
    k_cut = st.momentum_table().k_cut
    # k whose gridding position k*scale is an integer to rounding: the
    # fraction inside the window is 0, or 1 less an ulp
    scale = equal_panel_samples(st.reduced_radial, st.r_max, st.r_scale, k_cut)._scale[0]
    on_grid = np.arange(1.0, k_cut * scale, 97.0) / scale
    # (u, r_max, r_scale, k_max, ks); k_max None is ks.max()
    h = (st.reduced_radial, st.r_max, st.r_scale)
    cases = [(*h, None, np.linspace(1e-3, 0.1 * k_cut, 64)), (*h, None, np.linspace(0.5 * k_cut, k_cut, 64)),
             # the window reaches rows t < 0, the conjugate half of the grid
             (*h, k_cut, np.linspace(0.0, 1e-4 * k_cut, 16)),
             (*h, k_cut, np.array([k_cut])), (*h, k_cut, on_grid[on_grid <= k_cut])]
    # geometric, with a leading r = 0, as in the grid benchmark
    r = np.concatenate([[0.0], np.geomspace(1e-3, 45.0, 400)])
    r4 = RadialGridState(r, r**4 * np.exp(-r))
    cases.append((r4.reduced_radial, r4.r_max, r4.r_scale, None, np.linspace(1e-3, r4.momentum_table().k_cut, 96)))
    # an even panel count (n = 1274; the benchmark grids have n = 2865)
    r = np.arange(0.0, 20.01, 0.5)
    coarse = RadialGridState(r, 2.0 * r * np.exp(-r))
    cases.append((coarse.reduced_radial, coarse.r_max, coarse.r_scale, None,
                  np.linspace(0.0, coarse.momentum_table().k_cut, 64)))
    # n = 4 panels: the window is wider than half the grid, so rows wrap mod M
    cases.append((_hydrogen_u, 2.0, 1.0, 0.5, np.linspace(0.0, 0.5, 11)))
    for u, r_max, r_scale, k_max, ks in cases:
        k_max = float(ks.max()) if k_max is None else k_max
        vals = equal_panel_samples(u, r_max, r_scale, k_max).sine_transform(ks)
        ref = _dense_sine_transform(u, ks, r_max, r_scale, k_max)
        assert np.abs(vals - ref).max() <= 1e-14


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
def test_sine_transform_rejects_k_outside_its_range(bad):
    samples = equal_panel_samples(_hydrogen_u, 48.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        samples.sine_transform([0.5, bad])


def test_sine_transform_values_do_not_depend_on_order_or_batch():
    from qmoments.quadrature import _PASS, kronrod_nodes

    st = _hydrogen_grid()
    table = st.momentum_table()
    edges = table.edges
    nodes = np.sort(kronrod_nodes(edges[:-1], edges[1:])[0].ravel())
    samples = equal_panel_samples(st.reduced_radial, st.r_max, st.r_scale, table.k_cut)
    want = samples.sine_transform(nodes)
    rng = np.random.default_rng(19)
    ks = rng.permutation(np.concatenate([nodes, nodes[rng.integers(0, nodes.size, 60)]]))
    # requests of one k, of a partial pass, of one pass and of a pass and one k
    for size in (1, 7, _PASS - 1, _PASS, _PASS + 1, 540):
        vals = np.concatenate([samples.sine_transform(ks[i:i + size]) for i in range(0, ks.size, size)])
        assert np.array_equal(vals, want[np.searchsorted(nodes, ks)])


def test_sine_transform_batch_blocks_match_single_k_and_cap_memory():
    import tracemalloc

    st = _hydrogen_grid()
    k_cut = st.momentum_table().k_cut
    samples = equal_panel_samples(st.reduced_radial, st.r_max, st.r_scale, k_cut)
    ks = np.linspace(k_cut / 540, k_cut, 540)
    vals = samples.sine_transform(ks)
    for size in (1, 15):
        parts = np.concatenate([samples.sine_transform(ks[i:i + size]) for i in range(0, ks.size, size)])
        assert np.abs(vals - parts).max() <= 1e-15 * np.abs(parts).max()

    def peak(k):
        tracemalloc.start()
        try:
            samples.sine_transform(k)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(ks) <= 1.5 * peak(ks[-15:])


def test_sine_transform_k_integral_reaches_tolerance():
    # <p^8> of r^4 e^{-r} weighs w(k)^2 by k^8, so the transform's noise in k
    # is magnified where the adaptive rule must still meet its target; the
    # rounding of each phase k*x is checked directly by the next test
    from qmoments.states import PowerExpRadialState

    st = PowerExpRadialState(4, 1.0)
    k_cut = 50.0
    samples = equal_panel_samples(st.reduced_radial, st.r_max, 1.0, k_cut)

    res = integrate(lambda k: samples.sine_transform(k) ** 2 * k**8, 0.0, k_cut,
                    Tolerances(abs_tol=1e-15, max_evals=20_000), breakpoints=[1.0])
    exact = integrate(lambda k: power_exp_amplitude(st, k) ** 2 * k**8,
                      0.0, k_cut, Tolerances(abs_tol=1e-15), breakpoints=[1.0])
    assert res.converged
    assert res.value == pytest.approx(exact.value, rel=1e-9)


def test_sine_transform_has_no_rounding_noise_between_adjacent_k():
    # w at k and two ulps above differs by w'(k) dk (below 1e-19 here); a
    # rounded node phase k*offset would make it about 4e-17
    st = _hydrogen_grid()
    k_cut = st.momentum_table().k_cut
    samples = equal_panel_samples(st.reduced_radial, st.r_max, st.r_scale, k_cut)
    ks = np.linspace(0.5 * k_cut, k_cut * (1.0 - 1e-9), 501)
    up = np.nextafter(np.nextafter(ks, np.inf), np.inf)
    assert np.abs(samples.sine_transform(up) - samples.sine_transform(ks)).max() <= 5e-18


def test_window_matches_a_forty_digit_oracle():
    # the exponent -beta a^2/(1 + sqrt(1 - a^2)) keeps its relative precision
    # near a = 0; the textbook beta (sqrt(1 - a^2) - 1) is off by up to 2e-15
    from decimal import Decimal, localcontext

    from qmoments.quadrature import _BETA, _window

    a = np.concatenate([np.linspace(-1.0, 1.0, 401), [1e-9, 0.01, 0.03, 0.999999]])
    got = _window(a.copy(), np.empty_like(a))
    with localcontext() as ctx:
        ctx.prec = 40
        want = np.array([float((Decimal(_BETA) * ((1 - Decimal(x) ** 2).sqrt() - 1)).exp()) for x in a])
    assert np.abs(got - want).max() <= 4e-16
    # just past |a| = 1, where the rounding of a grid position can put a tap,
    # the window is finite and continues from its end value
    assert _window(np.array([1.0 + 1e-12, -1.0 - 1e-12]), np.empty(2)) == pytest.approx(math.exp(-_BETA), rel=1e-10)


@pytest.mark.parametrize("size", [8, 30, 5760])
def test_window_transform_matches_adaptive_quadrature(size):
    # the oracle integrates the window's Fourier integral adaptively, with no
    # FFT and no trapezoid rule; size 8 is the grid of n = 4 panels, shorter
    # than the window's samples
    from qmoments.quadrature import _TAPS, _window, _window_transform

    half_width = _TAPS // 2
    count = size // 2 + 1
    got = _window_transform(size, count)
    for j in sorted({0, 1, count // 2, count - 1}):
        xi = 2.0 * math.pi * j / size

        def integrand(z, xi=xi):
            return 2.0 * _window(z / half_width, np.empty_like(z)) * np.cos(xi * z)

        res = integrate(integrand, 0.0, half_width, Tolerances(rel_tol=1e-15, abs_tol=1e-300),
                        breakpoints=[1.0, 2.0, 4.0, 6.0, 7.0])
        assert got[j] == pytest.approx(res.value, rel=1e-13)


def test_sin_cos_outer_corrects_the_rounding_of_each_product():
    # oracle: the exact residual d = k*x - fl(k*x) from rationals, then
    # sin(k*x) = sin(p) + d cos(p) to first order, p = fl(k*x)
    from fractions import Fraction

    from qmoments.quadrature import _sin_cos_outer, _split

    ks = np.linspace(41.0, 50.0, 7) * (1.0 + 1.0 / 3.0)
    x = np.linspace(0.7, 90.0, 11) * (1.0 + 1.0 / 7.0)
    p = ks[:, None] * x[None, :]
    d = np.array([[float(Fraction(k) * Fraction(xj) - Fraction(pk)) for xj, pk in zip(x, row)]
                  for k, row in zip(ks, p)])
    want_s, want_c = np.sin(p) + d * np.cos(p), np.cos(p) - d * np.sin(p)
    s, c = _sin_cos_outer(_split(ks), _split(x))
    assert np.abs(s - want_s).max() == 0.0
    assert np.abs(c - want_c).max() == 0.0
    # the plain phases miss by far more than the rounding of sin itself
    assert np.abs(np.sin(p) - want_s).max() > 1e-13


def test_overflowing_panel_sum_fails_at_once():
    # every value is finite, but 1e300 over a panel 1e10 wide is not: the
    # result is failed after the first round, with no warning, not a
    # convergent inf after the whole budget
    res = integrate(lambda x: np.full_like(x, 1e300), 0.0, 1e10)
    assert res.failed and not res.converged and res.evaluations < 100


def test_finite_domain_validation():
    with pytest.raises(DomainError):
        integrate(lambda x: x, 2.0, 2.0)


@pytest.mark.parametrize("kw", [{"rel_tol": math.nan}, {"rel_tol": math.inf},
                                {"abs_tol": math.nan}, {"abs_tol": math.inf},
                                {"max_evals": 44}])
def test_default_tolerances_reject_non_finite(kw):
    with pytest.raises(DomainError):
        Tolerances(**kw)
