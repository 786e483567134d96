import math

import numpy as np
import pytest

from qmoments.core import DIVERGENT, DomainError, MomentsError, MomentValue, make_exponents
from qmoments.inequalities import (
    RECIPROCAL,
    DiscreteDensity,
    holder_verdict,
    holder_verdict_continuous,
    reciprocal_moment_verdict,
    schwarz_verdict,
    sweep,
    uncertainty_chain_finite,
    uncertainty_verdict_canonical,
)
from qmoments.matrixlab import (
    FiniteState,
    ground_state,
    pauli,
    random_hermitian,
    random_state,
    truncated_canonical_pair,
)
from qmoments.moments import custom_radial, radial, radial_inverse
from qmoments.states import GaussianPacket, HarmonicOscillatorGround, HydrogenGroundState
from seeded import SplitMix64, equality_density, random_density


@pytest.fixture(scope="module")
def hydrogen():
    return HydrogenGroundState()


# --- discrete two-function bound ---------------------------------------------


def test_holder_constant_functions_equality():
    d = DiscreteDensity.uniform(np.ones(10), np.ones(10))
    v = holder_verdict(d, make_exponents(3.3, 1.1))
    assert v.lhs == pytest.approx(1.0, abs=1e-15)
    assert v.rhs == pytest.approx(1.0, abs=1e-15)
    assert v.holds


def test_holder_equality_manifold():
    rng = SplitMix64(21)
    e = make_exponents(3, 2)
    d = equality_density(rng, 200, e)
    v = holder_verdict(d, e)
    assert v.ratio == pytest.approx(1.0, abs=1e-10)


def test_holder_random_density_margin():
    rng = SplitMix64(22)
    d = random_density(rng, 100)
    v = holder_verdict(d, make_exponents(3, 2))
    assert v.holds
    assert v.margin >= -1e-12


def test_holder_swap_symmetry():
    rng = SplitMix64(23)
    d = random_density(rng, 64)
    e = make_exponents(2.6, 1.3)
    v1 = holder_verdict(d, e)
    v2 = holder_verdict(DiscreteDensity(d.g, d.f, d.w), make_exponents(e.q, e.p))
    assert v1.holds == v2.holds
    assert v1.ratio == pytest.approx(v2.ratio, abs=1e-12)


def test_holder_empty_rejected():
    with pytest.raises(DomainError):
        DiscreteDensity.uniform(np.array([]), np.array([]))


def test_schwarz_equality_when_equal():
    d = DiscreteDensity.uniform(np.array([1.0, 2.0, 0.5]), np.array([1.0, 2.0, 0.5]))
    v = schwarz_verdict(d)
    assert v.ratio == pytest.approx(1.0, abs=1e-12)


def test_schwarz_strict_margin():
    f = np.array([1.0, -1.0, 2.0, -2.0])
    g = np.array([1.0, 1.0, -0.1, 0.1])
    v = schwarz_verdict(DiscreteDensity.uniform(f, g))
    assert v.holds
    assert v.margin > 0.0


def test_schwarz_single_point_equality():
    v = schwarz_verdict(DiscreteDensity.uniform(np.array([1.7]), np.array([-0.4])))
    assert v.ratio == pytest.approx(1.0, abs=1e-12)


# --- continuous two-function bound -------------------------------------------


def test_holder_continuous_r_rinv(hydrogen):
    v = holder_verdict_continuous(hydrogen, radial(), radial_inverse(), make_exponents(2, 2))
    assert v.lhs == pytest.approx(1.0, rel=1e-9)  # |r * 1/r| == 1
    assert v.rhs >= 1.0
    assert v.holds


def test_holder_continuous_f_equals_g(hydrogen):
    v = holder_verdict_continuous(hydrogen, radial(), radial(), make_exponents(4, 2))
    assert v.holds


def test_holder_continuous_matches_discretization(hydrogen):
    # bounded f, g at p=q=2, sampled densely on the radial density
    f = custom_radial(lambda r: np.exp(-r), 0.0, "exp(-r)")
    g = custom_radial(lambda r: 1.0 / (1.0 + r), 0.0, "1/(1+r)")
    cont = holder_verdict_continuous(hydrogen, f, g, make_exponents(2, 2))
    r = np.linspace(1e-6, 45.0, 60_000)
    w = hydrogen.radial_density(r)
    disc = holder_verdict(DiscreteDensity(f.fn(r), g.fn(r), w), make_exponents(2, 2))
    assert cont.lhs == pytest.approx(disc.lhs, rel=1e-6)
    assert cont.rhs == pytest.approx(disc.rhs, rel=1e-6)


def test_holder_continuous_divergent_side(hydrogen):
    sharp = custom_radial(lambda r: r**-2.0, -2.0, "1/r^2")
    out = holder_verdict_continuous(hydrogen, sharp, radial(), make_exponents(2, 2))
    assert out.status == DIVERGENT


# --- reciprocal moments -------------------------------------------------------


def test_reciprocal_hydrogen_unit_orders(hydrogen):
    v = reciprocal_moment_verdict(hydrogen, make_exponents(1, 1))
    assert v.lhs == 1.0
    assert v.rhs == pytest.approx(math.sqrt(1.5), rel=1e-9)
    assert v.holds


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_reciprocal_product_form(hydrogen, alpha):
    # <r^a><r^-a> >= 1
    v = reciprocal_moment_verdict(hydrogen, make_exponents(alpha, alpha))
    assert v.holds


def test_reciprocal_divergent_q3(hydrogen):
    out = reciprocal_moment_verdict(hydrogen, make_exponents(1, 3))
    assert out.status == DIVERGENT
    assert "divergent" in out.detail


# --- canonical pair -----------------------------------------------------------


def test_canonical_hydrogen_three_two(hydrogen):
    v = uncertainty_verdict_canonical(hydrogen, 3, 3, make_exponents(3, 2))
    assert v.holds
    assert v.ratio**5 == pytest.approx(3.0 / 25.0, rel=1e-6)


def test_canonical_qho_saturation():
    v = uncertainty_verdict_canonical(HarmonicOscillatorGround(), 1, 1, make_exponents(2, 2))
    assert v.ratio == pytest.approx(1.0, abs=1e-9)
    assert v.holds


def test_canonical_gaussian_saturation():
    v = uncertainty_verdict_canonical(GaussianPacket(x0=1.0, p0=-0.3, sigma=0.6), 1, 1,
                                      make_exponents(2, 2))
    assert v.ratio == pytest.approx(1.0, abs=1e-9)


def test_canonical_off_axes(hydrogen):
    v = uncertainty_verdict_canonical(hydrogen, 1, 2, make_exponents(3, 2))
    assert v.lhs == 0.0
    assert v.holds


def test_canonical_symmetric_order_lhs_exact(hydrogen):
    # at p = q = 2 the left side is exactly hbar/2 * delta_ij
    v = uncertainty_verdict_canonical(hydrogen, 3, 3, make_exponents(2, 2))
    assert v.lhs == 0.5
    v0 = uncertainty_verdict_canonical(hydrogen, 2, 3, make_exponents(2, 2))
    assert v0.lhs == 0.0


def test_holder_continuous_randomized_margins(hydrogen):
    rng = SplitMix64(61)
    fams = [
        custom_radial(lambda r: np.exp(-0.7 * r), 0.0, "exp(-0.7r)"),
        custom_radial(lambda r: 1.0 / (1.0 + r), 0.0, "1/(1+r)"),
        radial(),
        custom_radial(lambda r: np.sqrt(r), 0.5, "sqrt(r)"),
    ]
    for _ in range(30):
        e = make_exponents(rng.uniform_in(0.25, 8.0), rng.uniform_in(0.25, 8.0))
        f = fams[rng.integer(0, len(fams) - 1)]
        g = fams[rng.integer(0, len(fams) - 1)]
        out = holder_verdict_continuous(hydrogen, f, g, e)
        assert out.status != DIVERGENT
        assert out.margin >= -1e-12
        assert out.holds


def test_canonical_low_order_violation_gaussian_oracle():
    # at p = q = 1 the claimed bound fails even for the minimum-uncertainty
    # state: lhs = sqrt(hbar/2), rhs = sigma_x*sqrt(2/pi) exactly
    q = HarmonicOscillatorGround()
    v = uncertainty_verdict_canonical(q, 1, 1, make_exponents(1, 1))
    assert v.lhs == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert v.rhs == pytest.approx(math.sqrt(1.0 / math.pi), rel=1e-9)
    assert not v.holds  # reported, not raised


def test_canonical_divergent_momentum_order(hydrogen):
    out = uncertainty_verdict_canonical(hydrogen, 3, 3, make_exponents(2, 5.5))
    assert out.status == DIVERGENT


# --- finite-dimensional chain ---------------------------------------------------


def test_chain_pauli_equality():
    v1, v2 = uncertainty_chain_finite(pauli("x"), pauli("y"), FiniteState([1, 0]),
                                      make_exponents(2, 2))
    for v in (v1, v2):
        assert v.lhs == pytest.approx(1.0, abs=1e-10)
        assert v.rhs == pytest.approx(1.0, abs=1e-10)
        assert v.holds


def test_chain_equal_operators_zero_commutator():
    rng = SplitMix64(30)
    a = random_hermitian(rng, 5)
    psi = random_state(rng, 5)
    _, v2 = uncertainty_chain_finite(a, a, psi, make_exponents(2, 2))
    assert v2.lhs == pytest.approx(0.0, abs=1e-12)
    assert v2.holds


def test_chain_truncated_oscillator_saturation():
    x, p = truncated_canonical_pair(32)
    _, v2 = uncertainty_chain_finite(x, p, ground_state(32), make_exponents(2, 2))
    assert v2.ratio == pytest.approx(1.0, abs=1e-6)


def test_chain_shared_rhs():
    rng = SplitMix64(31)
    a = random_hermitian(rng, 4)
    b = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    v1, v2 = uncertainty_chain_finite(a, b, psi, make_exponents(3, 1.5))
    assert v1.rhs == v2.rhs


def test_chain_violations_reported_not_raised():
    # the commutator bound fails on a sizeable fraction of random pairs at
    # p=q=2; the chain must report those, reproducibly from the seed
    def margins(seed):
        rng = SplitMix64(seed)
        out = []
        for _ in range(60):
            a = random_hermitian(rng, 4)
            b = random_hermitian(rng, 4)
            psi = random_state(rng, 4)
            _, v2 = uncertainty_chain_finite(a, b, psi, make_exponents(2, 2))
            out.append((v2.margin, v2.holds))
        return out

    first = margins(3)
    second = margins(3)
    assert first == second  # bit-for-bit reproducible
    n_viol = sum(1 for _, holds in first if not holds)
    assert 0 < n_viol < 60


def test_chain_robertson_always_weaker():
    # sanity anchor: |<[A,B]>|/2 <= sd(A) sd(B) is a theorem; the chain's
    # lhs (modulus inside) must always dominate that scalar value
    rng = SplitMix64(33)
    for _ in range(40):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        psi = random_state(rng, 4)
        _, v2 = uncertainty_chain_finite(a, b, psi, make_exponents(2, 2))
        comm = a.entries @ b.entries.conj().T  # placeholder, recomputed below
        comm = a.entries @ b.entries - b.entries @ a.entries
        robertson = abs(complex(psi.amplitudes.conj() @ (comm @ psi.amplitudes))) / 2.0
        assert robertson <= v2.lhs + 1e-10
        assert robertson <= v2.rhs + 1e-10  # the true theorem


# --- sweeps ---------------------------------------------------------------------


def _closed_form_cell(p, q):
    """Closed-form canonical sides for hydrogen (a0 = 1): Gamma/Beta oracle."""
    e = make_exponents(p, q)
    mx = 4.0 * math.gamma(p + 3.0) / 2.0 ** (p + 3.0) / (p + 1.0)
    mom_int = 0.5 * math.gamma((q + 3.0) / 2.0) * math.gamma((5.0 - q) / 2.0) / 6.0
    mp = (32.0 / math.pi) * mom_int / (q + 1.0)
    lhs = 0.5**e.r_star
    rhs = mx**e.w_f * mp**e.w_g
    return lhs, rhs


def test_sweep_hydrogen_matches_cell_oracle(hydrogen):
    grid = [1.0, 2.0, 3.0]
    table = sweep(hydrogen, 3, 3, grid, grid)
    assert len(table) == 9
    idx = 0
    for p in grid:
        for q in grid:
            row = table[idx]
            idx += 1
            assert (row.inputs["p"], row.inputs["q"]) == (p, q)
            lhs, rhs = _closed_form_cell(p, q)
            assert row.lhs == pytest.approx(lhs, rel=1e-8)
            assert row.rhs == pytest.approx(rhs, rel=1e-7)
            assert row.holds == (lhs <= rhs + 1e-9)
    # the low-order cells genuinely violate; the p,q >= 2 cells all hold
    assert not table[0].holds  # p=q=1
    assert all(r.holds for r in table if r.inputs["p"] >= 2.0 and r.inputs["q"] >= 2.0)


def test_sweep_row_major_deterministic(hydrogen):
    t1 = sweep(hydrogen, 3, 3, [2.0, 3.0], [2.0, 2.5])
    t2 = sweep(hydrogen, 3, 3, [2.0, 3.0], [2.0, 2.5])
    assert [(r.inputs["p"], r.inputs["q"]) for r in t1] == [
        (2.0, 2.0), (2.0, 2.5), (3.0, 2.0), (3.0, 2.5)]
    assert t1 == t2


def test_sweep_divergent_cells_marked(hydrogen):
    table = sweep(hydrogen, 3, 3, [2.0], [5.0, 6.0])
    assert [r.status for r in table] == ["divergent", "divergent"]
    assert any(r.status == DIVERGENT for r in table)
    assert not any(r.holds is False for r in table)


def test_sweep_off_axis_all_zero_lhs(hydrogen):
    table = sweep(hydrogen, 1, 3, [2.0, 3.0], [2.0, 3.0])
    assert all(r.lhs == 0.0 and r.holds for r in table)


def test_sweep_reciprocal_kind(hydrogen):
    table = sweep(hydrogen, 3, 3, [1.0, 2.0], [1.0, 4.0], kind=RECIPROCAL)
    statuses = {(r.inputs["p"], r.inputs["q"]): r.status for r in table}
    assert statuses[(1.0, 1.0)] == "ok"
    assert statuses[(1.0, 4.0)] == "divergent"  # <r^-4> diverges
    ok_rows = [r for r in table if r.status == "ok"]
    assert all(r.holds for r in ok_rows)


@pytest.fixture
def moment_calls(monkeypatch):
    """Counts the calls to the two moment entry points that sweeps use."""
    from qmoments import moments as mo

    calls = []
    for name in ("abs_central_moment", "raw_moment"):
        fn = getattr(mo, name)

        def counted(s, o, order, _fn=fn, _name=name):
            calls.append((_name, o.kind, float(order)))
            return _fn(s, o, order)

        monkeypatch.setattr(mo, name, counted)
    return calls


def test_sweep_computes_each_side_moment_once(hydrogen, moment_calls):
    for kind, ps, qs in (("canonical", [1.5, 2.0, 3.0], [1.0, 2.0, 2.5]),
                         (RECIPROCAL, [1.0, 2.0], [0.5, 1.0, 1.5, 2.5]),
                         ("canonical", [2.0, 2.0], [2.0, 2.0])):  # a repeated order
        moment_calls.clear()
        assert len(sweep(hydrogen, 3, 3, ps, qs, kind=kind)) == len(ps) * len(qs)
        assert len(moment_calls) == len(set(ps)) + len(set(qs))


def test_sweep_checks_every_order_before_any_moment(hydrogen, moment_calls):
    with pytest.raises(DomainError):
        sweep(hydrogen, 3, 3, [2.0], [2.0, -1.0])
    assert moment_calls == []


def _grid_hydrogen():
    from qmoments.states import RadialGridState

    r = np.arange(0.0, 40.01, 0.02)
    return RadialGridState(r, 2.0 * r * np.exp(-r))


@pytest.mark.parametrize("make_state", [HydrogenGroundState, _grid_hydrogen])
@pytest.mark.parametrize("kind", ["canonical", RECIPROCAL])
def test_sweep_rows_match_cell_builders_bitwise(make_state, kind):
    # fresh states on both sides, so neither side reuses the other's tables
    ps, qs = [1.5, 2.5], [1.0, 2.0, 2.9]
    table = sweep(make_state(), 3, 3, ps, qs, kind=kind)
    st = make_state()
    for row, (p, q) in zip(table, [(p, q) for p in ps for q in qs]):
        e = make_exponents(p, q)
        if kind == RECIPROCAL:
            v = reciprocal_moment_verdict(st, e)
        else:
            v = uncertainty_verdict_canonical(st, 3, 3, e)
        if v.status == DIVERGENT:
            assert (row.status, row.detail) == ("divergent", v.detail)
        else:
            assert row.status == "ok"
            assert (row.lhs, row.rhs, row.ratio, row.holds) == (v.lhs, v.rhs, v.ratio, v.holds)


def test_sweep_raising_moment_fails_only_its_cells(hydrogen, monkeypatch, moment_calls):
    from qmoments import moments as mo

    counted = mo.abs_central_moment
    raised = []

    def flaky(s, o, order):
        if o.kind == mo.MOMENTUM_AXIS and order == 2.0:
            raised.append(order)
            raise RuntimeError("momentum moment blew up")
        return counted(s, o, order)

    monkeypatch.setattr(mo, "abs_central_moment", flaky)
    table = sweep(hydrogen, 3, 3, [1.5, 3.0], [1.0, 2.0])
    status = {(r.inputs["p"], r.inputs["q"]): (r.status, r.detail) for r in table}
    assert status[(1.5, 2.0)] == status[(3.0, 2.0)] == ("failed", "momentum moment blew up")
    assert status[(1.5, 1.0)][0] == status[(3.0, 1.0)][0] == "ok"
    assert len(moment_calls) == 3 and raised == [2.0]  # the raising moment is not retried


def _moment_with_status(monkeypatch, name, kind, order, status):
    """Make the moments entry point `name` return `status` for one
    observable kind and order."""
    from qmoments import moments as mo

    real = getattr(mo, name)

    def patched(s, o, order_):
        if o.kind == kind and order_ == order:
            return MomentValue(status, order_, None, math.inf, "patched")
        return real(s, o, order_)

    monkeypatch.setattr(mo, name, patched)


def test_weights_whose_sum_leaves_the_double_range_normalize():
    # w / sum(w) would be w/inf = 0, and every sum read 0 <= 0
    d = DiscreteDensity([1.0, 2.0], [2.0, 1.0], [1e308, 1e308])
    assert d.w == (0.5, 0.5)
    assert holder_verdict(d, make_exponents(3, 2)).lhs == pytest.approx(2.0**1.2)


def test_a_side_past_the_double_range_fails_its_cell(hydrogen, monkeypatch):
    # inf <= inf would hold vacuously: make_verdict refuses it, and the sweep
    # reads the refusal as a failed cell
    from qmoments import moments as mo

    real = mo.abs_central_moment

    def patched(s, o, order):
        if o.kind == mo.MOMENTUM_AXIS and order == 2.0:
            return MomentValue.convergent(math.inf, 0.0, order)
        return real(s, o, order)

    monkeypatch.setattr(mo, "abs_central_moment", patched)
    table = sweep(hydrogen, 3, 3, [3.0], [1.0, 2.0])
    assert [r.status for r in table] == ["ok", "failed"]
    assert table[1].detail.startswith("canonical_pair: lhs = ")
    with pytest.raises(DomainError, match="out of the double range"):
        uncertainty_verdict_canonical(hydrogen, 3, 3, make_exponents(3, 2))


def _raise_at(monkeypatch, kind, order):
    """Make abs_central_moment raise RuntimeError for one observable kind
    and order."""
    from qmoments import moments as mo

    real = mo.abs_central_moment

    def patched(s, o, order_):
        if o.kind == kind and order_ == order:
            raise RuntimeError("side blew up")
        return real(s, o, order_)

    monkeypatch.setattr(mo, "abs_central_moment", patched)


def test_a_divergent_first_side_decides_before_a_raising_second_side(hydrogen, monkeypatch):
    from qmoments import moments as mo

    _moment_with_status(monkeypatch, "abs_central_moment", mo.POSITION_AXIS, 2.0, "divergent")
    _raise_at(monkeypatch, mo.MOMENTUM_AXIS, 2.0)
    v = uncertainty_verdict_canonical(hydrogen, 3, 3, make_exponents(2, 2))
    assert (v.status, v.detail) == (DIVERGENT, "<|Dx|^p> is divergent: patched")


def test_a_raising_first_side_raises_before_a_divergent_second_side(hydrogen, monkeypatch):
    from qmoments import moments as mo

    _raise_at(monkeypatch, mo.POSITION_AXIS, 2.0)
    _moment_with_status(monkeypatch, "abs_central_moment", mo.MOMENTUM_AXIS, 2.0, "divergent")
    with pytest.raises(RuntimeError, match="side blew up"):
        uncertainty_verdict_canonical(hydrogen, 3, 3, make_exponents(2, 2))


@pytest.mark.parametrize("status", ["divergent", "failed"])
def test_sweep_cell_reads_the_moment_status(hydrogen, monkeypatch, status):
    from qmoments import moments as mo

    _moment_with_status(monkeypatch, "abs_central_moment", mo.MOMENTUM_AXIS, 2.0, status)
    table = sweep(hydrogen, 3, 3, [1.5, 3.0], [1.0, 2.0])
    cells = {(r.inputs["p"], r.inputs["q"]): r for r in table}
    assert [cells[(p, 2.0)].status for p in (1.5, 3.0)] == [status, status]
    assert "<|Dp|^q> is " + status in cells[(1.5, 2.0)].detail
    assert cells[(1.5, 1.0)].status == cells[(3.0, 1.0)].status == "ok"
    assert any(r.status == DIVERGENT for r in table) == (status == "divergent")


def test_failed_moment_raises_in_every_builder(hydrogen, monkeypatch):
    from qmoments import moments as mo

    _moment_with_status(monkeypatch, "abs_central_moment", mo.MOMENTUM_AXIS, 2.0, "failed")
    _moment_with_status(monkeypatch, "raw_moment", mo.RADIAL, -2.0, "failed")
    _moment_with_status(monkeypatch, "raw_moment", mo.RADIAL, 1.0, "failed")
    e = make_exponents(2, 2)
    with pytest.raises(MomentsError, match="canonical_pair: <\\|Dp\\|\\^q> is failed"):
        uncertainty_verdict_canonical(hydrogen, 3, 3, e)
    with pytest.raises(MomentsError, match="reciprocal_moments: <r\\^-q> is failed"):
        reciprocal_moment_verdict(hydrogen, e)
    with pytest.raises(MomentsError, match="holder_continuous: .* is failed"):
        holder_verdict_continuous(hydrogen, radial(), radial_inverse(), e)


def test_sweep_empty_grid_rejected(hydrogen):
    with pytest.raises(DomainError):
        sweep(hydrogen, 3, 3, [], [2.0])


def test_sweep_unknown_kind(hydrogen):
    with pytest.raises(DomainError):
        sweep(hydrogen, 3, 3, [2.0], [2.0], kind="nope")


def test_holder_continuous_on_grid_state():
    r = np.linspace(0.0, 36.0, 3000)
    u = r * np.exp(-r)
    from qmoments.states import RadialGridState

    st = RadialGridState(r, u)
    v = holder_verdict_continuous(st, radial(), radial_inverse(), make_exponents(2, 2))
    assert v.lhs == pytest.approx(1.0, rel=1e-6)
    assert v.holds


def test_holder_violation_flagged_internal_error():
    # a verdict that fails a guaranteed inequality carries the severity marker;
    # force one through an artificial slack-free comparison on equal sides
    rng = SplitMix64(40)
    d = equality_density(rng, 20, make_exponents(2, 2))
    v = holder_verdict(d, make_exponents(2, 2), slack=0.0)
    if not v.holds:  # round-off direction is not guaranteed either way
        assert v.inputs.get("severity") == "internal-error"


@pytest.mark.parametrize("hbar, r_star", [(1e-300, 1.2), (1e300, 1.2), (1e-200, 1.6)])
def test_commutator_side_out_of_range_is_an_error_not_a_vacuous_pass(hbar, r_star):
    # (hbar/2)^r* at 0 would make every i == j cell hold; subnormal has lost its digits
    from qmoments.inequalities import _half_hbar_power

    with pytest.raises(DomainError, match="hbar=1e[-+]"):
        _half_hbar_power(hbar, r_star)
    assert _half_hbar_power(1e-300, 0.5) == pytest.approx(math.sqrt(5e-301), rel=1e-15)


def test_scaled_sums_that_lose_their_digits_are_refused():
    # a weight of 1e-310 on the row of the largest |f|: every w |f|^2 / 2^(2 e_f)
    # is subnormal, so Sum w |f|^2 has lost its digits, while the Holder rhs
    # (1e45) and the Schwarz rhs (1e90) are in range
    d = DiscreteDensity([1e100, 1e-60], [1.0, 1e100], [1e-310, 1.0])
    with pytest.raises(DomainError, match="holder_discrete: .* lost its digits"):
        holder_verdict(d, make_exponents(2, 2))
    with pytest.raises(DomainError, match="schwarz: .* lost its digits"):
        schwarz_verdict(d)


def test_products_of_rows_apart_are_scaled_by_their_own_exponent():
    # the largest |f| and |g| lie in different rows, so |f g| / 2^(e_f + e_g)
    # would be subnormal in every row; scaled by the largest row exponent of
    # |f g|, the Holder lhs of 1e-15 is reported. The Schwarz rhs, about
    # 2.5e599, is past the double range
    d = DiscreteDensity([1e150, 1e-165], [1e-165, 1e150], [1.0, 1.0])
    v = holder_verdict(d, make_exponents(2, 2))
    assert v.lhs == pytest.approx(1e-15, rel=1e-15)
    assert v.rhs == pytest.approx(5e299, rel=1e-15)
    assert v.holds and "severity" not in v.inputs
    with pytest.raises(DomainError, match="schwarz: lhs = 1e-30, rhs = inf: out of the double"):
        schwarz_verdict(d)
