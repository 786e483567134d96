import math

import pytest

from qmoments.core import (
    DomainError,
    MomentValue,
    make_exponents,
    make_verdict,
    young_gap,
)
from seeded import SplitMix64


def test_symmetric_exponents():
    e = make_exponents(2, 2)
    assert e.r_star == 1.0
    assert e.w_f == 0.5
    assert e.w_g == 0.5


def test_three_two_exponents():
    # the worked-example order pair
    e = make_exponents(3, 2)
    assert abs(e.r_star - 6 / 5) < 1e-15
    assert abs(e.w_f - 2 / 5) < 1e-15
    assert abs(e.w_g - 3 / 5) < 1e-15


def test_one_one_exponents():
    e = make_exponents(1, 1)
    assert abs(e.r_star - 0.5) < 1e-15
    assert abs(e.r_inv - 2.0) < 1e-15


def test_equal_orders_halve():
    rng = SplitMix64(3)
    for _ in range(50):
        p = rng.uniform_in(0.25, 8.0)
        e = make_exponents(p, p)
        assert e.r_star == pytest.approx(p / 2.0, abs=1e-15)
        assert e.w_f == 0.5
        assert e.w_g == 0.5


@pytest.mark.parametrize("p,q", [(0.0, 1.0), (-1.0, 2.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, 0.0)])
def test_exponents_reject_bad_input(p, q):
    with pytest.raises(DomainError):
        make_exponents(p, q)


def test_exponent_invariants_random():
    rng = SplitMix64(101)
    for _ in range(2000):
        p = rng.uniform_in(0.25, 8.0)
        q = rng.uniform_in(0.25, 8.0)
        e = make_exponents(p, q)
        assert abs(e.w_f + e.w_g - 1.0) <= 1e-15
        assert abs(e.r_star * e.r_inv - 1.0) <= 1e-15


def test_exponent_swap_symmetry():
    e = make_exponents(3.7, 1.2)
    s = make_exponents(e.q, e.p)
    assert s.r_star == pytest.approx(e.r_star, abs=1e-15)
    assert s.w_f == pytest.approx(e.w_g, abs=1e-15)
    assert s.w_g == pytest.approx(e.w_f, abs=1e-15)


def test_young_gap_equality_case():
    assert young_gap(1.0, 1.0, make_exponents(2, 2)) == pytest.approx(0.0, abs=1e-15)


def test_young_gap_direct_values():
    # 2^2/2 + 1/2 - (cd)^(1/r_inv) * r_inv with r_inv = 1
    assert young_gap(2.0, 1.0, make_exponents(2, 2)) == pytest.approx(0.5, abs=1e-14)
    # vanishing cross term: d^q/q alone
    assert young_gap(0.0, 5.0, make_exponents(3, 2)) == pytest.approx(12.5, abs=1e-12)


def test_young_gap_nonnegative_randomized():
    rng = SplitMix64(77)
    for _ in range(10_000):
        c = rng.uniform_in(0.0, 10.0)
        d = rng.uniform_in(0.0, 10.0)
        e = make_exponents(rng.uniform_in(0.25, 8.0), rng.uniform_in(0.25, 8.0))
        assert young_gap(c, d, e) >= -1e-12


def test_young_gap_vanishes_on_equality_manifold():
    rng = SplitMix64(5)
    for _ in range(500):
        e = make_exponents(rng.uniform_in(0.25, 8.0), rng.uniform_in(0.25, 8.0))
        c = rng.uniform_in(0.1, 3.0)
        d = c ** (e.p / e.q)  # c^p = d^q
        assert abs(young_gap(c, d, e)) < 1e-10


def test_young_gap_rejects_negative():
    with pytest.raises(DomainError):
        young_gap(-1.0, 1.0, make_exponents(2, 2))


def test_moment_value_divergent_has_no_value():
    m = MomentValue.divergent(3.0, "test")
    assert m.value is None
    assert not m.is_convergent
    with pytest.raises(DomainError):
        m.require()


def test_moment_value_convergent():
    m = MomentValue.convergent(1.5, 1e-12, 1.0)
    assert m.require() == 1.5
    assert math.isfinite(m.err_estimate)


def test_verdict_contract():
    v = make_verdict("t", 1.0, 2.0)
    assert v.holds
    assert v.margin == 1.0
    assert v.ratio == 0.5
    d = v.to_dict()
    assert set(d) == {"lhs", "rhs", "ratio", "margin", "holds", "slack", "label", "inputs"}


def test_verdict_holds_is_exact_comparison():
    v = make_verdict("t", 1.0 + 1e-6, 1.0, slack=0.0)
    assert not v.holds
    v2 = make_verdict("t", 1.0 + 1e-6, 1.0, slack=1e-5)
    assert v2.holds


def test_verdict_zero_rhs_ratio_nan():
    v = make_verdict("t", 0.0, 0.0)
    assert math.isnan(v.ratio)
    assert v.holds  # 0 <= 0 + slack


@pytest.mark.parametrize("lhs, rhs", [(math.inf, math.inf), (0.5, math.inf), (math.inf, 1.0),
                                      (math.nan, 1.0), (-1e308, 1e308)])
def test_make_verdict_refuses_a_side_or_margin_out_of_range(lhs, rhs):
    # inf <= inf + slack would hold with no number behind it
    with pytest.raises(DomainError, match="^holder_discrete: "):
        make_verdict("holder_discrete", lhs, rhs)


@pytest.mark.parametrize("lhs, rhs", [(0.0, 0.0), (1e300, 1e-10)])
def test_verdict_writes_an_undefined_ratio_as_null(lhs, rhs):
    v = make_verdict("t", lhs, rhs, slack=0.0)
    assert not math.isfinite(v.ratio)
    d = v.to_dict()
    assert d["ratio"] is None and (d["lhs"], d["rhs"]) == (lhs, rhs)


def test_default_slack_scales_with_rhs():
    # make_verdict's default is 1e-9 max(|lhs|, |rhs|), with no floor of 1e-9
    assert make_verdict("t", 0.0, 0.5).slack == 5e-10
    assert make_verdict("t", 0.0, 100.0).slack == pytest.approx(1e-7)


def test_default_slack_of_a_moment_verdict_scales_with_both_sides():
    # no absolute floor: sides of 1e-86 get a slack of 1e-95, not 1e-9
    assert make_verdict("t", 5.6e-86, 7.1e-86).slack == pytest.approx(7.1e-95)
    assert make_verdict("t", 100.0, 0.5).slack == pytest.approx(1e-7)
    assert make_verdict("t", 0.0, 0.0).slack == 0.0


def test_make_verdict_flags_a_guaranteed_violation():
    inputs = {"guaranteed": True}
    v = make_verdict("g", 2.0, 1.0, 0.5, inputs)  # lhs > rhs + slack
    assert v.holds is False
    assert v.inputs == {"guaranteed": True, "severity": "internal-error"}
    assert inputs == {"guaranteed": True}  # the caller's dict is left as it is
    for held in (make_verdict("g", 1.0, 1.0, 0.0, inputs), make_verdict("g", 1.5, 1.0, 0.5, inputs)):
        assert held.holds and held.inputs == inputs
    for probe in ({}, {"guaranteed": False}):
        assert make_verdict("probe", 2.0, 1.0, 0.5, probe).inputs == probe
    # under the default slack too, whatever the scale of the sides
    tiny = make_verdict("holder_discrete", 2e-20, 1e-20, None, inputs)
    assert tiny.holds is False and tiny.inputs["severity"] == "internal-error"


def test_verdict_rejects_negative_slack():
    with pytest.raises(DomainError):
        make_verdict("t", 1.0, 1.0, slack=-1e-3)


@pytest.mark.parametrize("slack", [math.nan, math.inf])
def test_verdict_rejects_non_finite_slack(slack):
    with pytest.raises(DomainError):
        make_verdict("t", 1.0, 1.0, slack=slack)
