import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmoments
from qmoments.cli import EXIT_DIVERGENT, EXIT_ERROR, EXIT_OK, EXIT_VIOLATION, main
from qmoments import inequalities as iq
from qmoments.core import make_exponents
from qmoments.matrixlab import FiniteState, HermitianOperator, matrix_from_json

VERDICT_KEYS = {"lhs", "rhs", "ratio", "margin", "holds", "slack", "label", "inputs"}


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_hydrogen_basic(capsys):
    code, doc = run_json(capsys, ["hydrogen", "--p", "3", "--q", "2", "--axis", "z"])
    assert code == EXIT_OK
    assert set(doc) >= {"manifest", "results"}
    v = doc["results"][0]
    assert set(v) == VERDICT_KEYS
    assert v["holds"] is True
    assert doc["rhs_pow5_over_lhs_pow5"] == pytest.approx(25.0 / 3.0, rel=1e-6)


def test_hydrogen_kennard_form(capsys):
    code, doc = run_json(capsys, ["hydrogen", "--p", "2", "--q", "2", "--axis", "z"])
    assert code == EXIT_OK
    v = doc["results"][0]
    assert v["lhs"] == pytest.approx(0.5, abs=1e-12)  # hbar/2


def test_hydrogen_cross_axes(capsys):
    code, doc = run_json(capsys, ["hydrogen", "--p", "3", "--q", "2", "--i", "x", "--j", "y"])
    assert code == EXIT_OK
    v = doc["results"][0]
    assert v["lhs"] == 0.0
    assert v["holds"] is True


def test_usage_error_exit_code(capsys):
    assert main(["hydrogen", "--p", "80", "--q", "2"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "outside the CLI range" in err


def test_manifest_contents(capsys):
    code, doc = run_json(capsys, ["--seed", "9", "hydrogen", "--p", "2", "--q", "2"])
    m = doc["manifest"]
    assert m["seed"] == 9
    assert m["command"].startswith("qmoments ")
    assert "timestamp" in m and "version" in m
    assert m["outcomes"]["exit_code"] == code == EXIT_OK
    assert m["tolerances"]["rel_tol"] == 1e-10


def test_manifest_reproducibility(capsys):
    _, doc1 = run_json(capsys, ["hydrogen", "--p", "3", "--q", "2"])
    _, doc2 = run_json(capsys, ["hydrogen", "--p", "3", "--q", "2"])
    assert doc1["results"] == doc2["results"]  # numbers identical, bit for bit


def test_sweep_csv_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", "--state", "hydrogen", "--p-grid", "2:3:3", "--q-grid", "2:3:3",
            "--format", "csv"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    capsys.readouterr()
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    b1 = out1.read_text()
    assert b1 == out2.read_text()
    lines = b1.splitlines()
    assert lines[0] == "p,q,r_star,lhs,rhs,ratio,holds,status"
    assert len(lines) == 10
    # full round-trip precision: values parse back exactly
    first = lines[1].split(",")
    assert float(first[3]) == 0.5


def test_sweep_low_orders_exit_violation(tmp_path, capsys):
    # cells with min(p,q) < 2 genuinely violate the claimed bound
    out = tmp_path / "v.csv"
    code = main(["sweep", "--state", "hydrogen", "--p-grid", "1:3:5", "--q-grid", "1:3:5",
                 "--format", "csv", "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_VIOLATION
    body = out.read_text().splitlines()
    assert len(body) == 26
    assert any(",false,ok" in ln for ln in body)


def test_sweep_divergent_cells_exit(tmp_path, capsys):
    args = ["sweep", "--state", "hydrogen", "--p-grid", "2,3", "--q-grid", "5,6",
            "--out", str(tmp_path / "d.json")]
    assert main(args) == EXIT_DIVERGENT
    capsys.readouterr()
    assert main(args + ["--allow-divergent"]) == EXIT_OK
    _, doc = EXIT_OK, json.loads((tmp_path / "d.json").read_text())
    assert all(r["status"] == "divergent" for r in doc["results"])


def test_sweep_reciprocal_kind(tmp_path, capsys):
    code = main(["sweep", "--state", "hydrogen", "--kind", "reciprocal",
                 "--p-grid", "1,2", "--q-grid", "1,2", "--out", str(tmp_path / "r.json")])
    capsys.readouterr()
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "r.json").read_text())
    assert all(r["holds"] for r in doc["results"])


def test_sweep_empty_grid_usage_error(capsys):
    assert main(["sweep", "--p-grid", "", "--q-grid", "2"]) == EXIT_ERROR


def test_sweep_grid_file_state(tmp_path, capsys):
    r = np.linspace(0.0, 35.0, 2500)
    u = r * np.exp(-r)
    grid = tmp_path / "h.dat"
    grid.write_text("\n".join(f"{a} {b}" for a, b in zip(r, u)))
    code, doc = run_json(capsys, ["sweep", "--grid", str(grid),
                                  "--p-grid", "2", "--q-grid", "2"])
    assert code == EXIT_OK
    row = doc["results"][0]
    assert row["ratio"] == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-3)  # Kennard ratio for 1s


def test_sweep_grid_reciprocal_q29_converges(tmp_path, capsys):
    # <r^-2.9> refines toward r = 0 until r^-2.9 alone would overflow
    import warnings

    from qmoments.moments import raw_radial_moment
    from qmoments.states import load_radial_grid

    r = np.arange(0.0, 40.01, 0.02)
    grid = tmp_path / "h.dat"
    grid.write_text("\n".join(f"{a} {b}" for a, b in zip(r, 2.0 * r * np.exp(-r))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, doc = run_json(capsys, ["sweep", "--grid", str(grid), "--kind", "reciprocal",
                                      "--p-grid", "1", "--q-grid", "2.9"])
        inv = raw_radial_moment(load_radial_grid(grid), -2.9)
    exact_inv = 4.0 * math.gamma(0.1) * 2.0**-0.1  # <r^-2.9> of the 1s state
    assert code == EXIT_OK
    row = doc["results"][0]
    assert row["status"] == "ok"
    assert row["rhs"] == pytest.approx(1.5 ** (2.9 / 3.9) * exact_inv ** (1.0 / 3.9), rel=1e-3)
    assert inv.value == pytest.approx(exact_inv, rel=1e-3)


@pytest.mark.parametrize("status, code", [("divergent", EXIT_DIVERGENT), ("failed", EXIT_ERROR)])
def test_moment_status_sets_exit_code(monkeypatch, capsys, status, code):
    from qmoments import moments as mo
    from qmoments.core import MomentValue

    real = mo.abs_central_moment

    def patched(s, o, order):
        if o.kind == mo.MOMENTUM_AXIS and order == 2.5:
            return MomentValue(status, order, None, math.inf, "patched")
        return real(s, o, order)

    monkeypatch.setattr(mo, "abs_central_moment", patched)
    assert main(["sweep", "--state", "hydrogen", "--p-grid", "3", "--q-grid", "2,2.5"]) == code
    doc = json.loads(capsys.readouterr().out)
    assert [r["status"] for r in doc["results"]] == ["ok", status]
    assert main(["hydrogen", "--p", "3", "--q", "2.5"]) == code
    captured = capsys.readouterr()
    assert (captured.err.count("\n"), bool(captured.out)) == ((1, False) if status == "failed" else (0, True))


def test_finite_pauli_equality(capsys):
    code, doc = run_json(capsys, ["finite", "--pair", "pauli-xy", "--p", "2", "--q", "2"])
    assert code == EXIT_OK
    comm = [r for r in doc["results"] if r["label"] == "finite_commutator"][0]
    assert comm["lhs"] == pytest.approx(1.0, abs=1e-10)
    assert comm["rhs"] == pytest.approx(1.0, abs=1e-10)


def test_finite_truncated_pair(capsys):
    code, doc = run_json(capsys, ["finite", "--dim", "32", "--pair", "truncated-xp",
                                  "--p", "2", "--q", "2", "--state", "ground"])
    assert code == EXIT_OK
    comm = [r for r in doc["results"] if r["label"] == "finite_commutator"][0]
    assert comm["ratio"] == pytest.approx(1.0, abs=1e-6)
    # the product link is reported even though it does not gate the exit
    prod = [r for r in doc["results"] if r["label"] == "finite_product"][0]
    assert prod["gates_exit"] is False
    assert doc["summary"]["informational_violations"] >= 1


def test_finite_random_trials_report(capsys):
    code, doc = run_json(capsys, ["finite", "--dim", "8", "--seed", "42", "--trials", "20",
                                  "--p", "3", "--q", "1.5"])
    assert code in (EXIT_OK, EXIT_VIOLATION)
    assert len(doc["results"]) == 40
    assert doc["summary"]["min_margin"] is not None
    if code == EXIT_VIOLATION:
        ce = doc["counterexample"]
        a = matrix_from_json(json.dumps(ce["A"]))
        assert a.shape == (8, 8)
        assert np.abs(a - a.conj().T).max() < 1e-12


def test_finite_counterexample_replays_from_its_block(capsys):
    # a real violation: the product link fails for this seed at trial 0
    code, doc = run_json(capsys, ["finite", "--dim", "2", "--p", "1", "--q", "1",
                                  "--trials", "50", "--seed", "3", "--gate", "both"])
    assert code == EXIT_VIOLATION
    ce = doc["counterexample"]
    assert (ce["trial"], ce["label"]) == (0, "finite_product")
    a = HermitianOperator(matrix_from_json(json.dumps(ce["A"])))
    b = HermitianOperator(matrix_from_json(json.dumps(ce["B"])))
    psi = FiniteState([complex(re, im) for re, im in ce["psi"]])
    replayed = {v.label: v for v in iq.uncertainty_chain_finite(
        a, b, psi, make_exponents(ce["p"], ce["q"]))}[ce["label"]]
    reported = [r for r in doc["results"]
                if r["trial"] == ce["trial"] and r["label"] == ce["label"]][0]
    assert replayed.holds is False
    assert replayed.lhs == reported["lhs"]
    assert replayed.rhs == reported["rhs"]


def test_finite_seeded_reproducible(capsys):
    args = ["finite", "--dim", "6", "--seed", "7", "--trials", "5", "--p", "2", "--q", "2"]
    code1, doc1 = run_json(capsys, args)
    code2, doc2 = run_json(capsys, args)
    assert code1 == code2
    assert doc1["results"] == doc2["results"]


def test_finite_dim_cap(capsys):
    assert main(["finite", "--dim", "300", "--p", "2", "--q", "2"]) == EXIT_ERROR


def test_holder_equal_columns(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("f,g\n1.0,1.0\n2.0,2.0\n0.3,0.3\n")
    code, doc = run_json(capsys, ["holder", "--data", str(path), "--p", "2", "--q", "2"])
    assert code == EXIT_OK
    labels = {r["label"] for r in doc["results"]}
    assert labels == {"holder_discrete", "schwarz"}
    hv = [r for r in doc["results"] if r["label"] == "holder_discrete"][0]
    assert hv["ratio"] == pytest.approx(1.0, abs=1e-12)


def test_holder_random_file(tmp_path, capsys):
    rng = np.random.default_rng(1)
    path = tmp_path / "r.csv"
    rows = "\n".join(f"{a},{b},{w}" for a, b, w in
                     zip(rng.uniform(0, 2, 500), rng.uniform(0, 2, 500), rng.uniform(0.1, 1, 500)))
    path.write_text(rows)
    code, doc = run_json(capsys, ["holder", "--data", str(path), "--p", "3", "--q", "2"])
    assert code == EXIT_OK
    assert all(r["holds"] for r in doc["results"])


def test_holder_negative_weight_line_number(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,1.0,1\n2.0,2.0,-3\n")
    assert main(["holder", "--data", str(path), "--p", "2", "--q", "2"]) == EXIT_ERROR
    assert ":2" in capsys.readouterr().err


def test_holder_missing_file(capsys):
    assert main(["holder", "--data", "/nonexistent.csv", "--p", "2", "--q", "2"]) == EXIT_ERROR


def test_central_hydrogen(capsys):
    code, doc = run_json(capsys, ["central", "--state", "hydrogen", "--alpha", "1", "--beta", "1"])
    assert code == EXIT_OK
    rep = doc["results"][0]
    assert rep["virial"]["mean_T"] == pytest.approx(0.5, rel=1e-8)
    assert rep["virial"]["mean_V"] == pytest.approx(-1.0, rel=1e-8)
    assert rep["virial"]["total_E"] == pytest.approx(-0.5, rel=1e-8)
    assert rep["bound_threshold"]["radius"] == pytest.approx(1.67070, abs=1e-4)
    assert rep["ground_energy_estimate"]["value"] == pytest.approx(-5.0 / 6.0, rel=1e-8)


def test_central_buckingham_divergence_exit(capsys):
    code = main(["central", "--state", "hydrogen", "--buckingham", "1,1,1"])
    capsys.readouterr()
    assert code == EXIT_DIVERGENT
    code, doc = run_json(capsys, ["central", "--state", "hydrogen", "--buckingham", "1,1,1",
                                  "--allow-divergent"])
    assert code == EXIT_OK
    buck = doc["results"][0]["buckingham"]
    assert buck["actual"] is None
    assert math.isfinite(buck["bound"])


def test_central_buckingham_r4test(capsys):
    code, doc = run_json(capsys, ["central", "--state", "r4test", "--buckingham", "1,1,1"])
    assert code == EXIT_OK
    buck = doc["results"][0]["buckingham"]
    assert buck["consistent"] is True
    assert buck["bound"] >= buck["actual"]


def test_central_lj_divergent(capsys):
    code, doc = run_json(capsys, ["central", "--state", "r4test", "--lj", "1,1",
                                  "--allow-divergent"])
    assert code == EXIT_OK
    assert doc["results"][0]["lennard_jones"]["mean"] is None


def test_config_file_and_override(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"rel_tol": 1e-8, "seed": 5, "slack": 1e-7}))
    _, doc = run_json(capsys, ["--config", str(cfgp), "hydrogen", "--p", "2", "--q", "2"])
    assert doc["manifest"]["tolerances"]["rel_tol"] == 1e-8
    assert doc["manifest"]["seed"] == 5
    assert doc["results"][0]["slack"] == 1e-7
    # flags override the file
    _, doc2 = run_json(capsys, ["--config", str(cfgp), "--seed", "11",
                                "hydrogen", "--p", "2", "--q", "2"])
    assert doc2["manifest"]["seed"] == 11


def test_units_si_scaling(capsys):
    _, nat = run_json(capsys, ["hydrogen", "--p", "3", "--q", "2"])
    _, si = run_json(capsys, ["--units", "si", "hydrogen", "--p", "3", "--q", "2"])
    vn, vs = nat["results"][0], si["results"][0]
    hbar = 1.054571817e-34
    factor = hbar**1.2
    assert vs["lhs"] == pytest.approx(vn["lhs"] * factor, rel=1e-12)
    assert vs["rhs"] == pytest.approx(vn["rhs"] * factor, rel=1e-12)
    assert vs["ratio"] == pytest.approx(vn["ratio"], rel=1e-12)
    assert "unit" in vs


def test_units_si_central_energies(capsys):
    _, doc = run_json(capsys, ["--units", "si", "central", "--state", "hydrogen",
                               "--alpha", "1", "--beta", "1"])
    rep = doc["results"][0]
    hartree = 1.054571817e-34**2 / (9.1093837015e-31 * 5.29177210903e-11**2)
    assert rep["virial"]["total_E"] == pytest.approx(-0.5 * hartree, rel=1e-6)
    assert rep["bound_threshold"]["radius"] == pytest.approx(1.670678 * 5.29177210903e-11, rel=1e-5)
    assert rep["units"]["length"] == "m"


def test_config_constants_reach_states(tmp_path, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"constants": {"a0": 2.0}}))
    _, doc = run_json(capsys, ["--config", str(cfgp), "hydrogen", "--p", "3", "--q", "2"])
    v = doc["results"][0]
    assert "a0=2" in v["inputs"]["state"]
    # the coefficient comparison is scale invariant
    assert doc["rhs_pow5_over_lhs_pow5"] == pytest.approx(25.0 / 3.0, rel=1e-6)


def test_out_file_json(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["hydrogen", "--p", "2", "--q", "2", "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["results"][0]["holds"] is True


def test_bad_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "c.json"
    bad.write_text("{nope")
    assert main(["--config", str(bad), "hydrogen", "--p", "2", "--q", "2"]) == EXIT_ERROR


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["sweep", "--help"]) == 0
    capsys.readouterr()


def test_finite_csv_format(tmp_path, capsys):
    out = tmp_path / "f.csv"
    code = main(["finite", "--pair", "pauli-xy", "--p", "2", "--q", "2",
                 "--format", "csv", "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,label,p,q,r_star,lhs,rhs,ratio,margin,holds"
    assert len(lines) == 3


def test_central_requires_an_analysis(capsys):
    assert main(["central", "--state", "hydrogen"]) == EXIT_ERROR
    assert "needs --alpha" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["central", "--lj", "1"],
    ["central", "--lj", "a,b"],
    ["central", "--buckingham", "1,x,1"],
    ["sweep", "--p-grid", "2,abc", "--q-grid", "2"],
    ["sweep", "--p-grid", "1:3:x", "--q-grid", "2"],
    ["finite", "--p", "2", "--q", "2", "--trials", "0"],
    ["finite", "--p", "2", "--q", "2", "--trials", "-3"],
    ["hydrogen", "--p", "3", "--q", "2", "--slack", "nan"],
    ["sweep", "--p-grid", "2,3", "--q-grid", "2", "--slack", "nan"],
    ["hydrogen", "--p", "3", "--q", "2", "--slack", "inf"],
    ["hydrogen", "--p", "3", "--q", "2", "--rel-tol", "inf"],
    ["hydrogen", "--p", "3", "--q", "2", "--abs-tol", "inf"],
    ["hydrogen", "--p", "3", "--q", "2", "--rel-tol", "nan"],
])
def test_malformed_input_is_one_line_error(argv, capsys):
    assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err


@pytest.mark.parametrize("config", [
    {"slack": "abc"}, {"seed": "x"}, [1], {"max_evals": 1e400}, {"seed": 1e400},
])
def test_malformed_config_is_one_line_error(config, tmp_path, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(config))
    assert main(["--config", str(cfgp), "hydrogen", "--p", "2", "--q", "2"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: bad config file") and err.count("\n") == 1


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: the CLI must import and run without it
    src = str(Path(qmoments.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, qmoments.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
