import math

import numpy as np
import pytest

from qmoments.centralfield import (
    BuckinghamPotential,
    LennardJonesPotential,
    PowerLawPotential,
    bound_threshold_radius,
    buckingham_bound,
    ground_energy_estimate,
    lennard_jones_mean,
    virial_report,
)
from qmoments.core import CapabilityError, DomainError, MomentsError, NATURAL
from qmoments.moments import raw_radial_moment
from qmoments.states import (
    HydrogenGroundState, PowerExpRadialState, RadialGridState, RadialStateBase,
)
from seeded import SplitMix64


@pytest.fixture(scope="module")
def hydrogen():
    return HydrogenGroundState()


@pytest.fixture(scope="module")
def r4test():
    return PowerExpRadialState(4, 1.0, label="r4test")


def test_virial_hydrogen(hydrogen):
    rep = virial_report(hydrogen, PowerLawPotential(1.0, 1.0), raw_radial_moment(hydrogen, -1.0))
    assert rep["mean_T"] == pytest.approx(0.5, rel=1e-8)
    assert rep["mean_V"] == pytest.approx(-1.0, rel=1e-8)
    assert rep["total_E"] == pytest.approx(-0.5, rel=1e-8)
    assert rep["virial_residual"] <= 1e-8
    # the section's keys in report order
    assert list(rep) == ["mean_T", "mean_V", "total_E", "virial_residual", "E_formula",
                         "alpha", "beta"]


def test_virial_e_formula(hydrogen):
    rep = virial_report(hydrogen, PowerLawPotential(1.0, 1.0), raw_radial_moment(hydrogen, -1.0))
    # (alpha/2 - 1) beta <1/r> = -1/2
    assert rep["E_formula"] == pytest.approx(-0.5, rel=1e-8)


def test_virial_total_is_sum(hydrogen):
    rep = virial_report(hydrogen, PowerLawPotential(0.5, 2.0), raw_radial_moment(hydrogen, -0.5))
    assert rep["total_E"] == pytest.approx(rep["mean_T"] + rep["mean_V"], abs=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_e_formula_negative_for_binding_range(hydrogen, r4test, alpha):
    for st in (hydrogen, r4test):
        rep = virial_report(st, PowerLawPotential(alpha, 1.3), raw_radial_moment(st, -alpha))
        assert rep["E_formula"] < 0.0


def test_virial_divergent_moment_raises(hydrogen):
    with pytest.raises(DomainError):
        # <r^-3.5> diverges
        virial_report(hydrogen, PowerLawPotential(3.5, 1.0), raw_radial_moment(hydrogen, -3.5))


def test_ground_energy_estimate_hydrogen(hydrogen):
    dr2 = 3.0 - 2.25
    est = ground_energy_estimate(
        dr2, raw_radial_moment(hydrogen, -1.0), PowerLawPotential(1.0, 1.0), NATURAL
    )
    assert est == pytest.approx(1.0 / 6.0 - 1.0, rel=1e-9)


def test_ground_energy_estimate_limits(hydrogen):
    inv = raw_radial_moment(hydrogen, -1.0)
    # huge variance: kinetic floor vanishes
    est = ground_energy_estimate(1e12, inv, PowerLawPotential(1.0, 1.0), NATURAL)
    assert est == pytest.approx(-1.0, rel=1e-6)
    # beta -> 0 limit is the pure kinetic floor
    tiny = ground_energy_estimate(0.5, inv, PowerLawPotential(1.0, 1e-300), NATURAL)
    assert tiny == pytest.approx(1.0 / 4.0, rel=1e-9)


def test_ground_energy_rejects_bad_variance(hydrogen):
    with pytest.raises(DomainError):
        ground_energy_estimate(0.0, raw_radial_moment(hydrogen, -1.0),
                               PowerLawPotential(1.0, 1.0), NATURAL)


def test_threshold_radius_hydrogen_case():
    root = bound_threshold_radius(3.0, 8.0)
    assert root == pytest.approx(-1.0 / 16.0 + math.sqrt(1.0 / 256.0 + 3.0), abs=1e-15)
    assert root == pytest.approx(1.67070, abs=1e-4)


def test_threshold_radius_random_residuals():
    rng = SplitMix64(55)
    for _ in range(100):
        b = rng.uniform_in(0.01, 50.0)
        r2 = rng.uniform_in(0.01, 100.0)
        root = bound_threshold_radius(r2, b)
        assert root > 0.0
        residual = abs(b * root**2 + root - b * r2)
        assert residual <= 1e-12 * b * r2


def test_threshold_radius_large_b_limit():
    r2 = 4.0
    root = bound_threshold_radius(r2, 1e9)
    assert root == pytest.approx(math.sqrt(r2), rel=1e-8)


def test_threshold_radius_discriminant_identity():
    b = 3.0
    r2 = 3.0 / (4.0 * b * b)
    assert bound_threshold_radius(r2, b) == pytest.approx(1.0 / (2.0 * b), rel=1e-12)


@pytest.mark.parametrize("b", [1e-6, 1e-20, 8e-150, 8e-170, 8e-300, 4e-323])
def test_threshold_radius_small_b_asymptote(b):
    # root = b <r^2> (1 - b^2 <r^2> + ...), where -1/(2b) + sqrt(1/(4b^2) + <r^2>)
    # cancels or overflows
    r2 = 3.0
    assert bound_threshold_radius(r2, b) == pytest.approx(b * r2 * (1.0 - b * b * r2), rel=1e-12)


def test_threshold_rejects_nonpositive():
    with pytest.raises(DomainError):
        bound_threshold_radius(-1.0, 8.0)
    with pytest.raises(DomainError):
        bound_threshold_radius(1.0, 0.0)


def test_buckingham_r4_gap_gamma_oracle(r4test):
    res = buckingham_bound(r4test, BuckinghamPotential(1.0, 1.0, 1.0))
    norm = math.factorial(8) / 2.0**9
    rm6 = (math.factorial(2) / 2.0**3) / norm
    r6 = (math.factorial(14) / 2.0**15) / norm
    assert res.status == "ok"
    gap = res.rhs - res.lhs
    assert gap == pytest.approx(rm6 - 1.0 / r6, rel=1e-8)
    assert gap > 0.0
    assert res.holds
    assert res.inputs["guaranteed"] is True and "severity" not in res.inputs


def test_buckingham_hydrogen_divergent(hydrogen):
    res = buckingham_bound(hydrogen, BuckinghamPotential(1.0, 1.0, 1.0))
    assert res.status == "divergent"
    assert "-infinity" in res.detail
    assert res.holds is None  # decided by no comparison: the bound holds vacuously
    assert math.isfinite(res.rhs)  # the divergent verdict keeps the bound


def test_buckingham_needs_the_states_own_exp_mean():
    # <e^(-r/r0)> comes from a state's direct_moment alone: a radial state
    # with only u has none, and it is refused, not integrated
    class Bare(RadialStateBase):
        label = "bare"

        def reduced_radial(self, r):
            return 2.0 * r * np.exp(-r)

    with pytest.raises(CapabilityError, match=r"^bare has no <e\^\(-r/r0\)>$"):
        buckingham_bound(Bare(), BuckinghamPotential(1.0, 1.0, 1.0))


def test_buckingham_failed_moment_is_not_a_divergence():
    # on the geometric r4test grid <r^-6> counts as finite by the fitted
    # origin power 4, but the model's u ~ r^2 on the first knot interval
    # makes it diverge; a failed moment decides nothing, so there is no
    # vacuous pass
    r = np.concatenate([[0.0], np.geomspace(1e-3, 45.0, 400)])
    st = RadialGridState(r, r**4 * np.exp(-r))
    assert raw_radial_moment(st, -6.0).status == "failed"
    with pytest.raises(MomentsError, match="failed"):
        buckingham_bound(st, BuckinghamPotential(1.0, 1.0, 1.0))


def test_buckingham_repulsion_only_limit(r4test):
    tiny = 1e-8
    res = buckingham_bound(r4test, BuckinghamPotential(1.0, 1.0, tiny))
    mean_exp = (2.0 / 3.0) ** 9  # <e^-r> of u = N r^4 e^-r
    assert res.rhs == pytest.approx(mean_exp, rel=1e-6)
    assert res.lhs == pytest.approx(mean_exp, rel=1e-6)


def test_buckingham_takes_the_one_slack_rule_by_default(r4test):
    res = buckingham_bound(r4test, BuckinghamPotential(1.0, 1.0, 1.0))
    assert res.slack == 1e-9 * max(abs(res.lhs), abs(res.rhs))


def test_buckingham_takes_the_given_slack(r4test):
    assert buckingham_bound(r4test, BuckinghamPotential(1.0, 1.0, 1.0), slack=0.25).slack == 0.25


def test_lj_hydrogen_divergent(hydrogen):
    out = lennard_jones_mean(hydrogen, LennardJonesPotential(1.0, 1.0))
    assert out.status == "divergent"
    assert "r^-12" in out.detail


def test_lj_r4_divergent(r4test):
    # rho_r ~ r^8 at the origin: <r^-12> needs power > 11
    out = lennard_jones_mean(r4test, LennardJonesPotential(1.0, 1.0))
    assert out.status == "divergent"


def test_lj_synthetic_convergent_gamma_oracle():
    # u ~ r^6 e^{-r}: rho_r ~ r^12 e^{-2r}
    st = PowerExpRadialState(6, 1.0)
    out = lennard_jones_mean(st, LennardJonesPotential(0.7, 1.1))
    norm = math.factorial(12) / 2.0**13
    rm12 = (math.factorial(0) / 2.0) / norm
    rm6 = (math.factorial(6) / 2.0**7) / norm
    exact = 4.0 * 0.7 * (1.1**12 * rm12 - 1.1**6 * rm6)
    assert out.value == pytest.approx(exact, rel=1e-10)


def test_potential_validation():
    with pytest.raises(DomainError):
        PowerLawPotential(1.0, -1.0)
    with pytest.raises(DomainError):
        LennardJonesPotential(0.0, 1.0)
    with pytest.raises(DomainError):
        BuckinghamPotential(1.0, 1.0, -2.0)
