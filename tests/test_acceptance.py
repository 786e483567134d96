"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion (prints are captured otherwise).
"""

import json
import math
import time

import numpy as np
import pytest

import qmoments.inequalities
from marginals import integrate_real_line, integrate_semi_infinite, momentum_density
from qmoments.centralfield import BuckinghamPotential, PowerLawPotential, buckingham_bound, virial_report
from qmoments.cli import EXIT_DIVERGENT, EXIT_OK, EXIT_VIOLATION, main
from qmoments.core import DIVERGENT, Tolerances, Verdict, make_exponents
from qmoments.inequalities import (
    holder_verdict,
    reciprocal_moment_verdict,
    uncertainty_chain_finite,
    uncertainty_verdict_canonical,
)
from qmoments.matrixlab import FiniteState, ground_state, pauli, truncated_canonical_pair
from qmoments.moments import abs_central_moment, momentum_axis, raw_radial_moment
from qmoments.states import (
    GaussianPacket,
    HarmonicOscillatorGround,
    HydrogenGroundState,
    PowerExpRadialState,
)
from seeded import SplitMix64, equality_density, random_density


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_hydrogen_worked_example(capsys):
    t0 = time.perf_counter()
    code = main(["hydrogen", "--p", "3", "--q", "2", "--axis", "z"])
    elapsed = time.perf_counter() - t0
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    coeff = doc["rhs_pow5_over_lhs_pow5"]
    assert coeff == pytest.approx(25.0 / 3.0, rel=1e-6)
    assert doc["results"][0]["holds"] is True
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, f"rhs^5/lhs^5 = {coeff:.9f} vs 25/3, runtime {elapsed:.3f}s")


@pytest.mark.parametrize("a0", [1.0, 1.3])
def test_criterion_02_angular_reduction_integral(a0, capsys):
    # int |x3|^3 e^{-2r/a0} d^3r reduces to pi * int_0^inf r^5 e^{-2r/a0} dr
    res = integrate_semi_infinite(lambda r: math.pi * r**5 * np.exp(-2.0 * r / a0))
    exact = 15.0 * math.pi / 8.0 * a0**6
    assert res.converged
    assert res.value == pytest.approx(exact, rel=1e-8)
    with capsys.disabled():
        _report(2, f"a0={a0}: integral = {res.value:.12g}, 15*pi/8*a0^6 = {exact:.12g}")


def test_criterion_03_pz_squared_two_routes(capsys):
    h = HydrogenGroundState()
    target = 1.0 / 3.0  # hbar^2/(3 a0^2), natural units
    gradient_route = 2.0 * h.constants.mass * h.kinetic_energy() / 3.0
    marginal_route = abs_central_moment(h, momentum_axis(3), 2.0).require()
    # and the same number by brute-force integration of the marginal itself
    marginal_direct = integrate_real_line(
        lambda p: p * p * momentum_density(h, p),
        Tolerances(rel_tol=1e-8), breakpoints=[0.0],
    ).as_moment(2.0).require()
    assert gradient_route == pytest.approx(target, rel=1e-6)
    assert marginal_route == pytest.approx(target, rel=1e-6)
    assert marginal_direct == pytest.approx(target, rel=1e-6)
    assert marginal_route == pytest.approx(gradient_route, rel=1e-6)
    with capsys.disabled():
        _report(3, f"gradient {gradient_route:.10f}, momentum-marginal {marginal_route:.10f}, "
                   f"direct marginal integral {marginal_direct:.10f}")


def test_criterion_04_kennard_saturation(capsys):
    e = make_exponents(2, 2)
    worst = 0.0
    for state in (
        HarmonicOscillatorGround(),
        HarmonicOscillatorGround(mass=2.0, omega=0.7),
        GaussianPacket(sigma=1.0),
        GaussianPacket(x0=1.5, p0=-0.4, sigma=0.5),
    ):
        v = uncertainty_verdict_canonical(state, 1, 1, e)
        assert v.ratio == pytest.approx(1.0, abs=1e-9)
        worst = max(worst, abs(v.ratio - 1.0))
    with capsys.disabled():
        _report(4, f"worst |ratio - 1| = {worst:.2e} over QHO and Gaussian packets")


def test_criterion_05_holder_suite(capsys):
    t0 = time.perf_counter()
    rng = SplitMix64(20_250_808)
    worst_margin = math.inf
    for _ in range(10_000):
        e = make_exponents(rng.uniform_in(0.25, 8.0), rng.uniform_in(0.25, 8.0))
        d = random_density(rng, rng.integer(8, 64))
        v = holder_verdict(d, e)
        assert v.margin >= -1e-12
        assert v.holds
        worst_margin = min(worst_margin, v.margin)
    worst_ratio = 0.0
    for _ in range(100):
        e = make_exponents(rng.uniform_in(0.25, 8.0), rng.uniform_in(0.25, 8.0))
        v = holder_verdict(equality_density(rng, rng.integer(8, 64), e), e)
        assert v.ratio == pytest.approx(1.0, abs=1e-9)
        worst_ratio = max(worst_ratio, abs(v.ratio - 1.0))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        _report(5, f"10^4 trials, min margin {worst_margin:.3e}, "
                   f"equality |ratio-1| <= {worst_ratio:.1e}, runtime {elapsed:.1f}s")


def test_criterion_06_reciprocal_moments(capsys):
    h = HydrogenGroundState()
    v = reciprocal_moment_verdict(h, make_exponents(1, 1))
    assert isinstance(v, Verdict)
    assert v.rhs == pytest.approx(math.sqrt(1.5), rel=1e-8)
    assert v.holds
    out = reciprocal_moment_verdict(h, make_exponents(1, 3))
    assert out.status == DIVERGENT
    with capsys.disabled():
        _report(6, f"rhs = {v.rhs:.10f} vs sqrt(1.5); q=3 classified divergent before evaluation")


def test_criterion_07_virial_energies(capsys):
    h = HydrogenGroundState()
    rep = virial_report(h, PowerLawPotential(1.0, 1.0), raw_radial_moment(h, -1.0))
    assert rep["mean_T"] == pytest.approx(0.5, rel=1e-8)
    assert rep["mean_V"] == pytest.approx(-1.0, rel=1e-8)
    assert rep["total_E"] == pytest.approx(-0.5, rel=1e-8)
    assert rep["virial_residual"] <= 1e-8
    with capsys.disabled():
        _report(7, f"T={rep['mean_T']:.9f} V={rep['mean_V']:.9f} E={rep['total_E']:.9f} "
                   f"residual={rep['virial_residual']:.1e}")


def test_criterion_08_threshold_quadratic(capsys):
    from qmoments.centralfield import bound_threshold_radius

    rng = SplitMix64(88)
    worst = 0.0
    for _ in range(100):
        b = rng.uniform_in(0.01, 50.0)
        r2 = rng.uniform_in(0.01, 100.0)
        root = bound_threshold_radius(r2, b)
        assert root > 0.0
        residual = abs(b * root**2 + root - b * r2)
        assert residual <= 1e-12 * b * r2
        worst = max(worst, residual / (b * r2))
    with capsys.disabled():
        _report(8, f"100 random (b, <r^2>) pairs, worst residual/(b<r^2>) = {worst:.2e}")


def test_criterion_09_buckingham(capsys):
    r4 = PowerExpRadialState(4, 1.0, label="r4test")
    res = buckingham_bound(r4, BuckinghamPotential(1.0, 1.0, 1.0))
    norm = math.factorial(8) / 2.0**9
    rm6 = (math.factorial(2) / 2.0**3) / norm
    r6 = (math.factorial(14) / 2.0**15) / norm
    oracle_gap = rm6 - 1.0 / r6  # sigma = 1
    assert res.status == "ok"
    gap = res.rhs - res.lhs
    assert res.holds
    assert gap > 0.0
    assert gap == pytest.approx(oracle_gap, rel=1e-8)
    code = main(["central", "--state", "hydrogen", "--buckingham", "1,1,1"])
    capsys.readouterr()
    assert code == EXIT_DIVERGENT
    with capsys.disabled():
        _report(9, f"r4test gap {gap:.10g} vs oracle {oracle_gap:.10g}; "
                   f"hydrogen run exits {code} without --allow-divergent")


def test_criterion_10_finite_harness_and_mutation(capsys, monkeypatch):
    # Pauli pair: exact equality at p = q = 2
    v1, v2 = uncertainty_chain_finite(pauli("x"), pauli("y"), FiniteState([1, 0]),
                                      make_exponents(2, 2))
    for v in (v1, v2):
        assert v.lhs == pytest.approx(1.0, abs=1e-10)
        assert v.rhs == pytest.approx(1.0, abs=1e-10)

    # truncated oscillator pair, dim 32, ground state: commutator-link saturation
    x, p = truncated_canonical_pair(32)
    _, comm = uncertainty_chain_finite(x, p, ground_state(32), make_exponents(2, 2))
    assert comm.ratio == pytest.approx(1.0, abs=1e-6)

    # mutation: flip the comparison direction (swap the sides) inside the
    # harness and require the CLI to report the injected violation with exit 2
    baseline_args = ["finite", "--dim", "4", "--pair", "random", "--seed", "0",
                     "--trials", "1", "--p", "2", "--q", "2"]
    assert main(baseline_args) == EXIT_OK
    capsys.readouterr()

    real_chain = qmoments.inequalities.uncertainty_chain_finite

    def flipped_chain(a, b, psi, e, slack=None):
        out = real_chain(a, b, psi, e, slack)
        return tuple(Verdict(v.label, v.rhs, v.lhs, v.slack, v.inputs) for v in out)

    monkeypatch.setattr(qmoments.inequalities, "uncertainty_chain_finite", flipped_chain)
    code = main(baseline_args)
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_VIOLATION
    assert doc["manifest"]["outcomes"]["violations"] >= 1
    assert "counterexample" in doc
    monkeypatch.undo()
    with capsys.disabled():
        _report(10, f"Pauli equality, truncated ratio {comm.ratio:.9f}, "
                    f"mutated comparison detected with exit {code}")
