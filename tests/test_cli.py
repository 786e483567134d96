import json
import math
import os
import re
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


def _h_grid(tmp_path) -> str:
    """The 1s state on a uniform grid (h = 0.02) as a grid file."""
    r = np.arange(0.0, 40.01, 0.02)
    grid = tmp_path / "h.dat"
    grid.write_text("\n".join(f"{a} {b}" for a, b in zip(r, 2.0 * r * np.exp(-r))))
    return str(grid)


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


@pytest.mark.parametrize("state, axis", [("qho", 1), ("gaussian", 1), ("hydrogen", 3), ("r4test", 3)])
def test_sweep_defaults_to_the_state_axis(state, axis, capsys, monkeypatch):
    # without --i and --j a sweep runs on the state's own axis: x for a 1-d
    # state, which has no z, and z for a spherical one
    seen = []
    real = iq.sweep
    monkeypatch.setattr(iq, "sweep", lambda s, i, j, *a, **kw: seen.append((i, j)) or real(s, i, j, *a, **kw))
    argv = ["sweep", "--state", state, "--p-grid", "2,3", "--q-grid", "2"]
    code, doc = run_json(capsys, argv)
    name = {1: "x", 3: "z"}[axis]
    want_code, want = run_json(capsys, argv + ["--i", name, "--j", name])
    assert seen == [(axis, axis)] * 2
    assert code == want_code != EXIT_ERROR
    assert doc["results"] == want["results"]
    assert all(row["status"] == "ok" for row in doc["results"])


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
                                  "--p", "2", "--q", "2"])
    assert code == EXIT_OK
    comm = [r for r in doc["results"] if r["label"] == "finite_commutator"][0]
    assert comm["ratio"] == pytest.approx(1.0, abs=1e-6)
    # the product link is reported even though it does not gate the exit
    prod = [r for r in doc["results"] if r["label"] == "finite_product"][0]
    assert prod["gates_exit"] is False
    assert doc["summary"]["informational_violations"] >= 1


def test_finite_unknown_state_is_one_line_error(capsys):
    assert main(["finite", "--pair", "pauli-xy", "--p", "2", "--q", "2", "--state", "foo"]) == EXIT_ERROR
    assert len([ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]) == 1


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


def test_finite_trial_takes_four_svds_and_two_means(capsys, monkeypatch):
    # A and B are centred once; both sides of the chain read the centred
    # pair, and each of DA, DB, DA DB and [A, B] is one SVD
    from qmoments import matrixlab

    calls = {"svd": 0, "expectation": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(matrixlab, "expectation", counted("expectation", matrixlab.expectation))
    code, _ = run_json(capsys, ["finite", "--dim", "5", "--trials", "3", "--p", "3", "--q", "2"])
    assert code in (EXIT_OK, EXIT_VIOLATION)
    assert calls == {"svd": 4 * 3, "expectation": 2 * 3}


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


def test_holder_header_after_comment_lines(tmp_path, capsys):
    # the optional header is the first line with content, not line 1; a
    # non-number on a later line is still a data error with its line number
    path = tmp_path / "hdr.csv"
    path.write_text("# comment\n\nf,g\n1,2\n2,3\n")
    code, doc = run_json(capsys, ["holder", "--data", str(path), "--p", "3", "--q", "2"])
    assert code == EXIT_OK
    assert doc["results"][0]["inputs"]["n_points"] == 2
    path.write_text("# comment\n1,2\nf,g\n")
    assert main(["holder", "--data", str(path), "--p", "3", "--q", "2"]) == EXIT_ERROR
    assert ":3" in capsys.readouterr().err


@pytest.mark.parametrize("rows, p, q", [("1e200,1e200,1\n", 3.0, 3.0), ("1e160,1,1\n", 1.0, 1.0),
                                        ("1e-160,1e-160,1\n2e-160,1e-160,1\n", 3.0, 2.0)],
                         ids=["both_sides", "schwarz_only", "underflow"])
def test_holder_overflow_is_one_line_error(rows, p, q, tmp_path, capsys):
    # sides past the double range are refused, not printed as null beside
    # holds: true, and sides that are not 0 but land on 0 are refused, not
    # read as a vacuous 0 <= 0
    path = tmp_path / "ov.csv"
    path.write_text(rows)
    assert main(["holder", "--data", str(path), "--p", str(p), "--q", str(q)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: (holder_discrete|schwarz): .* out of the double range\n", captured.err)


def test_holder_sides_in_range_are_reported_whatever_the_raw_sums(tmp_path, capsys):
    # Sum w|f|^3 = 5e359 overflows a double, but the Holder rhs is 5e143: the
    # sums run on columns scaled by powers of two, and only a side that is
    # itself out of range is refused
    path = tmp_path / "mixed.csv"
    path.write_text("1e120,1e-200,1\n1,1,1\n")
    code, doc = run_json(capsys, ["holder", "--data", str(path), "--p", "3", "--q", "2"])
    assert code == EXIT_OK
    sides = {r["label"]: (r["lhs"], r["rhs"], r["holds"]) for r in doc["results"]}
    assert sides["holder_discrete"] == (pytest.approx(0.5, rel=1e-14),
                                        pytest.approx(5e143, rel=1e-12), True)
    assert sides["schwarz"] == (pytest.approx(0.25, rel=1e-14), pytest.approx(2.5e239, rel=1e-14),
                                True)


def test_a_non_finite_number_in_a_report_is_an_internal_error(monkeypatch, capsys):
    from qmoments import cli

    def command(args, cfg):
        return cli.Outcomes(), {"results": [{"value": math.inf}]}, None

    monkeypatch.setitem(cli._COMMANDS, "hydrogen", command)
    assert main(["hydrogen", "--p", "3", "--q", "2"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("p_grid, q_grid", [("1:2:10001", "2"), ("2", "1:2:10001"),
                                            ("1:2:73", "1:2:137")])  # 73 x 137 = 10001
def test_sweep_past_the_cell_cap_is_one_line_error(p_grid, q_grid, capsys):
    from qmoments.cli import MAX_SWEEP_CELLS

    assert MAX_SWEEP_CELLS == 10_000
    assert main(["sweep", "--p-grid", p_grid, "--q-grid", q_grid]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "10000" in captured.err


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
    assert abs(rep["bound_threshold"]["residual"]) <= 1e-12 * rep["bound_threshold"]["mean_r2"]


def test_central_computes_each_radial_moment_once(monkeypatch, capsys):
    from qmoments import moments as mo

    orders = []
    real = mo.raw_moment

    def counted(s, o, order):
        orders.append(order)
        return real(s, o, order)

    monkeypatch.setattr(mo, "raw_moment", counted)
    code, _ = run_json(capsys, ["central", "--state", "hydrogen", "--alpha", "2.9", "--beta", "1"])
    assert code == EXIT_OK
    assert orders == [-2.9, 1.0, 2.0]  # <r^-alpha> serves the virial and the estimate


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


def test_central_buckingham_failed_moment_is_one_line_error(tmp_path, capsys):
    # <r^-6> fails on the geometric r4test grid: exit 1, not a divergence
    r = np.concatenate([[0.0], np.geomspace(1e-3, 45.0, 400)])
    grid = tmp_path / "r4_grid.txt"
    np.savetxt(grid, np.c_[r, r**4 * np.exp(-r)])
    assert main(["central", "--grid", str(grid), "--buckingham", "1,1,1"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ") and captured.err.count("\n") == 1


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


def test_tolerance_flags_reach_every_integral(tmp_path, capsys):
    # a grid state's momentum k-integral runs at the run's tolerances; the
    # closed forms of a catalog state integrate nothing, so no flag moves them
    argv = ["sweep", "--grid", _h_grid(tmp_path), "--p-grid", "2", "--q-grid", "2"]
    catalog = ["central", "--state", "hydrogen", "--alpha", "1", "--beta", "1"]
    _, base = run_json(capsys, argv)
    for flag in (["--rel-tol", "1e-4"], ["--abs-tol", "1e-3"]):
        code, doc = run_json(capsys, argv + flag)
        assert code == EXIT_OK
        assert doc["results"][0]["rhs"] != base["results"][0]["rhs"]
        assert doc["results"][0]["rhs"] == pytest.approx(base["results"][0]["rhs"], rel=1e-4)
        code, doc = run_json(capsys, catalog + flag)
        assert code == EXIT_OK
        assert doc["results"][0]["virial"]["mean_T"] == 0.5


def test_failed_moment_in_central_is_an_internal_error(tmp_path, capsys):
    # <r^-2.9> of the grid state is finite but stalls within 100
    # evaluations: not a divergence
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"max_evals": 100}))
    argv = ["--config", str(cfgp), "central", "--grid", _h_grid(tmp_path), "--alpha", "2.9"]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:") and captured.err.count("\n") == 1
    # <r^-3.5> of hydrogen does diverge
    assert main(["central", "--alpha", "3.5"]) == EXIT_DIVERGENT
    assert "divergent" in json.loads(capsys.readouterr().out)["results"][0]["virial"]["status"]


def test_state_without_the_density_is_a_user_error(capsys):
    assert main(["central", "--state", "qho", "--alpha", "1"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no radial structure" in err and err.count("\n") == 1


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


def test_units_si_sweep_cell_matches_hydrogen(capsys, tmp_path):
    _, h = run_json(capsys, ["--units", "si", "hydrogen", "--p", "3", "--q", "2"])
    _, sw = run_json(capsys, ["--units", "si", "sweep", "--p-grid", "3", "--q-grid", "2,2.5"])
    want, row = h["results"][0], sw["results"][0]
    assert (row["lhs"], row["rhs"], row["ratio"], row["holds"], row["unit"]) == (
        want["lhs"], want["rhs"], want["ratio"], want["holds"], want["unit"])
    assert sw["results"][1]["unit"] == "hbar^1.36364 (J*s)^1.36364"
    out = tmp_path / "si.csv"
    main(["--units", "si", "sweep", "--p-grid", "3", "--q-grid", "2", "--format", "csv",
          "--out", str(out)])
    capsys.readouterr()
    cells = out.read_text().splitlines()[1].split(",")
    assert [float(x) for x in cells[3:6]] == [want["lhs"], want["rhs"], want["ratio"]]


def test_units_si_side_out_of_the_double_range_fails_the_cell(capsys):
    # hbar^20 in SI units is 2.9e-681: a nonzero side scaled to 0 is an
    # error, never a number, and the cell reads failed (exit 1)
    code, doc = run_json(capsys, ["--units", "si", "sweep", "--state", "qho", "--i", "x", "--j", "x",
                                  "--p-grid", "2,40", "--q-grid", "40"])
    assert code == EXIT_ERROR
    ok, bad = doc["results"]
    assert ok["status"] == "ok" and ok["lhs"] > 0.0
    assert (bad["status"], bad["lhs"], bad["rhs"]) == ("failed", None, None)
    assert bad["detail"] == "lhs in SI units (hbar^20) underflows a double"
    assert doc["manifest"]["outcomes"]["checks"] == 1
    # an i != j cell: its lhs is exactly 0, a valid side
    code, doc = run_json(capsys, ["--units", "si", "sweep", "--i", "x", "--j", "y",
                                  "--p-grid", "3", "--q-grid", "2"])
    assert code == EXIT_OK
    assert (doc["results"][0]["status"], doc["results"][0]["lhs"]) == ("ok", 0.0)


def test_units_si_reciprocal_sweep_is_dimensionless(capsys):
    _, nat = run_json(capsys, ["sweep", "--kind", "reciprocal", "--p-grid", "1", "--q-grid", "2"])
    _, si = run_json(capsys, ["--units", "si", "sweep", "--kind", "reciprocal",
                              "--p-grid", "1", "--q-grid", "2"])
    assert si["results"] == nat["results"]


def test_units_si_finite_canonical_pair_scales_by_hbar_power_r_star(capsys):
    # X P carries hbar, so both links scale by hbar^r* as a canonical cell
    argv = ["finite", "--pair", "truncated-xp", "--dim", "16", "--p", "1", "--q", "1"]
    _, nat = run_json(capsys, argv)
    _, si = run_json(capsys, ["--units", "si"] + argv)
    factor = 1.054571817e-34**0.5
    for vn, vs in zip(nat["results"], si["results"]):
        assert vs["unit"] == "hbar^0.5 (J*s)^0.5"
        for key in ("lhs", "rhs", "margin", "slack"):
            assert vs[key] == pytest.approx(vn[key] * factor, rel=1e-12)
        assert vs["ratio"] == vn["ratio"]
    assert si["results"][1]["lhs"] == pytest.approx((1.054571817e-34 / 2.0)**0.5, rel=1e-12)
    # the counterexample stays in natural units, so that it replays
    assert si["counterexample"] == nat["counterexample"]
    # the dimensionless pairs keep their natural values
    _, pauli = run_json(capsys, ["--units", "si", "finite", "--pair", "pauli-xy",
                                 "--p", "2", "--q", "2"])
    assert all("unit" not in v for v in pauli["results"])
    # hbar^20 underflows a double: an error, not a side of 0
    assert main(["--units", "si", "finite", "--pair", "truncated-xp", "--dim", "16",
                 "--p", "40", "--q", "40"]) == EXIT_ERROR
    assert _one_error_line(capsys) == "error: lhs in SI units (hbar^20) underflows a double\n"


def test_units_si_csv_names_the_unit_of_each_row(capsys):
    # a CSV read alone tells SI values from natural ones: the pair's rows
    # carry hbar^r*, a dimensionless pair's rows an empty unit
    argv = ["--units", "si", "finite", "--pair", "truncated-xp", "--dim", "16", "--p", "1",
            "--q", "1", "--format", "csv"]
    assert main(argv) == EXIT_VIOLATION
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "trial,label,p,q,r_star,lhs,rhs,ratio,margin,holds,unit"
    assert [row.split(",")[-1] for row in rows] == ["hbar^0.5 (J*s)^0.5"] * 2
    assert main(["--units", "si", "finite", "--pair", "pauli-xy", "--p", "2", "--q", "2",
                 "--format", "csv"]) == EXIT_OK
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.endswith(",holds,unit") and all(row.endswith(",true,") for row in rows)


def test_units_si_refuses_config_constants(tmp_path, capsys):
    # SI output scales results computed with hbar = m = a0 = 1, so config
    # constants would be echoed in the manifest but not used
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"constants": {"hbar": 2.0}}))
    argv = ["--config", str(cfgp), "hydrogen", "--p", "3", "--q", "2"]
    assert main(argv + ["--units", "si"]) == EXIT_ERROR
    assert "config constants" in _one_error_line(capsys)
    code, doc = run_json(capsys, argv)
    assert code == EXIT_OK and doc["manifest"]["constants"]["hbar"] == 2.0


def test_units_si_central_energies(capsys):
    _, doc = run_json(capsys, ["--units", "si", "central", "--state", "hydrogen",
                               "--alpha", "1", "--beta", "1"])
    rep = doc["results"][0]
    hartree = 1.054571817e-34**2 / (9.1093837015e-31 * 5.29177210903e-11**2)
    assert rep["virial"]["total_E"] == pytest.approx(-0.5 * hartree, rel=1e-6)
    assert rep["bound_threshold"]["radius"] == pytest.approx(1.670678 * 5.29177210903e-11, rel=1e-5)
    assert rep["units"]["length"] == "m"
    # b = 8 m beta / hbar^2 is an inverse length: 8/a0 in 1/m
    assert rep["bound_threshold"]["b"] == pytest.approx(8.0 / 5.29177210903e-11, rel=1e-12)


@pytest.mark.parametrize("argv", [
    # <V> and E_formula scale to subnormal joules (about -4.4e-313)
    ["--units", "si", "central", "--state", "hydrogen", "--alpha", "1", "--beta", "1e-295"],
    # b = 8e307 overflows as 8e307/a0 in 1/m
    ["--units", "si", "central", "--state", "r4test", "--alpha", "2.5", "--beta", "1e307"],
])
def test_units_si_central_number_out_of_the_double_range_is_one_line_error(argv, capsys):
    assert main(argv) == EXIT_ERROR
    assert "in SI units" in _one_error_line(capsys)


def test_config_constants_reach_states(tmp_path, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"constants": {"a0": 2.0}}))
    _, doc = run_json(capsys, ["--config", str(cfgp), "hydrogen", "--p", "3", "--q", "2"])
    v = doc["results"][0]
    assert "a0=2" in v["inputs"]["state"]
    # the coefficient comparison is scale invariant
    assert doc["rhs_pow5_over_lhs_pow5"] == pytest.approx(25.0 / 3.0, rel=1e-6)


_XP_32 = ["finite", "--pair", "truncated-xp", "--dim", "32"]


def _with_hbar(tmp_path, hbar: float) -> list[str]:
    path = tmp_path / "hbar.json"
    path.write_text(json.dumps({"constants": {"hbar": hbar}}))
    return ["--config", str(path)]


@pytest.mark.parametrize("hbar", [1e-20, 4.0**-20, 1.0, 4.0**20])
def test_finite_outcome_does_not_depend_on_hbar(hbar, tmp_path, capsys):
    # both sides of each link carry hbar^r*, and so does the default slack:
    # the commutator link fails (0.7071 > 0.5715 in natural units) at every hbar
    code, doc = run_json(capsys, _with_hbar(tmp_path, hbar) + _XP_32 + ["--p", "1", "--q", "1"])
    assert code == EXIT_VIOLATION
    assert [r["holds"] for r in doc["results"]] == [False, False]
    for r in doc["results"]:
        assert r["slack"] == 1e-9 * max(r["lhs"], r["rhs"])


@pytest.mark.parametrize("hbar, p, words", [
    (1e-300, "40", "<|M|^40> of a 32x32 matrix underflows a double"),  # read 0.0 <= 0.0
    (5e-324, "1", "the scale of X, sqrt(hbar/(2 mass)), underflows a double"),  # X = P = 0
    (1e308, "1", "4 hbar dim, a bound on the norms of X P and [X, P], overflows a double"),
])
def test_finite_moment_out_of_the_double_range_is_one_line_error(hbar, p, words, tmp_path,
                                                                 capsys):
    assert main(_with_hbar(tmp_path, hbar) + _XP_32 + ["--p", p, "--q", p]) == EXIT_ERROR
    assert words in _one_error_line(capsys)


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


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
    return err


@pytest.mark.parametrize("name, text, argv", [
    ("grid.txt", b"0 0\n1 0.5\xff\n2 0.2\n3 0.1\n",
     ["sweep", "--grid", "{}", "--p-grid", "2", "--q-grid", "2"]),
    ("data.csv", b"f,g\n1,0.5\n2,1.5\xff\n", ["holder", "--data", "{}", "--p", "3", "--q", "2"]),
    ("tol.json", b'{"rel_tol": 1e-8, "slack": "\xff"}',
     ["--config", "{}", "hydrogen", "--p", "3", "--q", "2"]),
], ids=["grid", "holder_csv", "config"])
def test_non_utf8_input_file_is_one_line_error(tmp_path, capsys, name, text, argv):
    path = tmp_path / name
    path.write_bytes(text)
    assert main([a.format(path) for a in argv]) == EXIT_ERROR
    assert _one_error_line(capsys).startswith(f"error: {path}: not UTF-8 text: ")


# grid files that are valid but whose numbers leave the double range on the
# way: knots near 1e200, where a panel sum of u^2 r^2 overflows and <r^-1>,
# <r^-2> and <T> underflow, and a first knot interval of 1e-200, where the
# monotone cubic's coefficients overflow
_EXTREME_GRIDS = {
    "huge": "0 0\n1e200 1\n2e200 0.5\n3e200 0.1\n4e200 0\n",
    "tiny": "0 0\n1e-200 1\n1 1\n2 1\n",
}


@pytest.mark.parametrize("grid, argv", [
    ("huge", ["central", "--grid", "{}", "--alpha", "1", "--beta", "1"]),
    ("tiny", ["sweep", "--grid", "{}", "--p-grid", "3", "--q-grid", "2"]),
])
def test_extreme_grid_file_is_one_line_error(grid, argv, tmp_path, capsys):
    # no traceback, no numpy warning, and no moment that is a convergent inf or 0
    path = tmp_path / "grid.txt"
    path.write_text(_EXTREME_GRIDS[grid])
    assert main([a.format(path) for a in argv]) == EXIT_ERROR
    _one_error_line(capsys)


def test_extreme_grid_reciprocal_cell_is_failed_not_violated(tmp_path, capsys):
    # the reciprocal bound is guaranteed: with <r^2> overflowing and <r^-2>
    # underflowing, the cell is failed (exit 1), not a violation (exit 2)
    path = tmp_path / "grid.txt"
    path.write_text(_EXTREME_GRIDS["huge"])
    code, doc = run_json(capsys, ["sweep", "--grid", str(path), "--kind", "reciprocal",
                                  "--p-grid", "2", "--q-grid", "2"])
    [row] = doc["results"]
    assert (code, row["status"], row["holds"], row["rhs"]) == (EXIT_ERROR, "failed", None, None)
    # the first round met the overflow, and its 15 evaluations count
    assert row["detail"].endswith("quadrature stalled (err=inf, evals=15)")


def test_extreme_grid_momentum_cell_names_the_tail_fit(tmp_path, capsys):
    # k_cut near 5e-199: the momentum tail fit overflows, and the failed
    # cell says so
    path = tmp_path / "grid.txt"
    path.write_text(_EXTREME_GRIDS["huge"])
    code, doc = run_json(capsys, ["sweep", "--grid", str(path), "--p-grid", "1", "--q-grid", "2"])
    [row] = doc["results"]
    assert (code, row["status"]) == (EXIT_ERROR, "failed")
    assert "the momentum tail fit of grid state overflows a double" in row["detail"]


_BOM = b"\xef\xbb\xbf"
_H_R = np.arange(0.0, 40.01, 0.02)
_GRID_ROWS = "".join(f"{a!r} {b!r}\n" for a, b in zip(_H_R.tolist(), (2.0 * _H_R * np.exp(-_H_R)).tolist()))


@pytest.mark.parametrize("name, text, argv", [
    ("grid.txt", _GRID_ROWS, ["sweep", "--grid", "{}", "--p-grid", "3", "--q-grid", "2"]),
    # a comment first, and a token only float() reads (the line reader's path)
    ("grid.txt", "# r u\n" + _GRID_ROWS.replace("0.02 ", "0.0_2 ", 1),
     ["sweep", "--grid", "{}", "--p-grid", "3", "--q-grid", "2"]),
    # headerless: the first row is data, not a header to drop
    ("data.csv", "1.0,0.5,1\n2.0,1.5,2\n0.5,3.0,1\n", ["holder", "--data", "{}", "--p", "3", "--q", "2"]),
    ("data.csv", "f,g\n1.0,0.5\n2.0,1.5\n", ["holder", "--data", "{}", "--p", "3", "--q", "2"]),
    ("tol.json", '{"rel_tol": 1e-8, "slack": 1e-6}', ["--config", "{}", "hydrogen", "--p", "3", "--q", "2"]),
], ids=["grid", "grid_comment_first", "holder_csv_headerless", "holder_csv_header", "config"])
def test_utf8_bom_input_file_reads_as_without_it(tmp_path, capsys, name, text, argv):
    docs = []
    for prefix in (b"", _BOM):
        path = tmp_path / name
        path.write_bytes(prefix + text.encode())
        code, doc = run_json(capsys, [a.format(path) for a in argv])
        del doc["manifest"]["timestamp"]
        docs.append((code, doc))
    assert docs[0][0] == EXIT_OK
    assert json.dumps(docs[1]) == json.dumps(docs[0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_grid_file_with_a_non_finite_radius_is_one_line_error(tmp_path, capsys, bad):
    r = np.linspace(0.0, 10.0, 50)
    u = r * np.exp(-r)
    r[20 if math.isnan(bad) else -1] = bad
    path = tmp_path / "grid.txt"
    np.savetxt(path, np.c_[r, u])
    assert main(["sweep", "--grid", str(path), "--p-grid", "2", "--q-grid", "2"]) == EXIT_ERROR
    assert _one_error_line(capsys) == "error: grid radii must be finite\n"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["sweep", "--help"]) == 0
    capsys.readouterr()


def test_sweep_csv_header(capsys):
    assert main(["sweep", "--p-grid", "2", "--q-grid", "2", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p,q,r_star,lhs,rhs,ratio,holds,status"
    assert lines[1].endswith(",ok")


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
    ["central", "--alpha", "nan"],
    ["central", "--alpha", "inf"],
    ["central", "--buckingham", "1,1,nan"],
    ["central", "--lj", "inf,1"],
    ["central", "--alpha", "1", "--beta", "nan"],
    ["finite", "--dim", "-3", "--p", "2", "--q", "2"],
])
def test_malformed_input_is_one_line_error(argv, capsys):
    assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err


@pytest.mark.parametrize("argv", [
    ["central", "--alpha", "1", "--beta", "1e308"],
    ["central", "--alpha", "2", "--beta", "1e308"],
    ["central", "--state", "r4test", "--buckingham", "1e308,1,1e60"],
])
def test_central_overflow_is_one_line_error(argv, capsys):
    # b = 8 m beta / hbar^2, <V> and sigma^6 leave the double range
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_central_huge_beta_reports_the_scaled_residual(capsys):
    # b = 8e307: b root^2 would overflow, while the root itself is finite
    code, doc = run_json(capsys, ["central", "--state", "r4test", "--alpha", "2.5", "--beta", "1e307"])
    assert code == EXIT_OK
    th = doc["results"][0]["bound_threshold"]
    assert th["radius"] == pytest.approx(math.sqrt(th["mean_r2"]), rel=1e-12)
    assert abs(th["residual"]) <= 1e-12 * th["mean_r2"]


def test_report_entry_shapes(tmp_path, capsys):
    _, doc = run_json(capsys, ["hydrogen", "--p", "3", "--q", "2"])
    assert list(doc["results"][0]) == ["lhs", "rhs", "ratio", "margin", "holds", "slack",
                                       "label", "inputs"]
    assert list(doc["results"][0]["inputs"]) == ["state", "i", "j", "p", "q", "r_star"]
    code, doc = run_json(capsys, ["hydrogen", "--p", "2", "--q", "5.5"])
    assert code == EXIT_DIVERGENT
    assert list(doc["results"][0]) == ["label", "status", "detail", "inputs"]
    assert doc["results"][0]["status"] == "divergent"
    code, doc = run_json(capsys, ["sweep", "--p-grid", "2", "--q-grid", "2,5.5",
                                  "--allow-divergent"])
    assert code == EXIT_OK
    assert [list(r) for r in doc["results"]] == [
        ["p", "q", "r_star", "lhs", "rhs", "ratio", "holds", "status", "detail"]] * 2
    assert [r["status"] for r in doc["results"]] == ["ok", "divergent"]
    [note] = doc["manifest"]["outcomes"]["notes"]
    assert note.startswith("(p=2.0, q=5.5): <|Dp|^q> is divergent: ")
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"max_evals": 100}))
    code, doc = run_json(capsys, ["--config", str(cfgp), "sweep", "--grid", _h_grid(tmp_path),
                                  "--p-grid", "2", "--q-grid", "2"])
    assert code == EXIT_ERROR
    [note] = doc["manifest"]["outcomes"]["notes"]
    assert note.startswith("cell (p=2.0, q=2.0) failed: canonical_pair: <|Dp|^q> is failed: ")
    assert doc["results"][0]["status"] == "failed"


@pytest.mark.parametrize("config", [
    {"slack": "abc"}, {"seed": "x"}, [1], {"max_evals": 1e400}, {"seed": 1e400},
    # a misspelt key would otherwise leave its setting at the default unseen
    {"rel_tl": 1e-3, "constants": {"hbar": 5}}, {"rel_tol": 1e-8, "constants": {"hbr": 5}},
])
def test_malformed_config_is_one_line_error(config, tmp_path, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(config))
    assert main(["--config", str(cfgp), "hydrogen", "--p", "2", "--q", "2"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: bad config file") and err.count("\n") == 1
    for key in ("rel_tl", "hbr"):
        if f'"{key}"' in cfgp.read_text():
            assert err == f"error: bad config file: unknown key '{key}'\n"


def _modules_after_cli_import(package: str) -> str:
    """The modules of package that importing qmoments.cli in a fresh
    interpreter leaves loaded, as a printed sorted list."""
    src = str(Path(qmoments.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, qmoments.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: the CLI must import and run without it
    assert _modules_after_cli_import("scipy") == "[]"


def test_cli_import_loads_no_dataclasses():
    # every CLI call imports the package: its value types are built by
    # core.record, which compiles no code per class as dataclasses does
    assert _modules_after_cli_import("dataclasses") == "[]"


# the constant, its value, and the exit code of each command: a value out of
# the double range is one error: line (sweep: failed cells), never a vacuous
# verdict, a warning or an internal error
_EXTREME_COMMANDS = {
    "hydrogen": ["hydrogen", "--p", "3", "--q", "2"],
    "sweep": ["sweep", "--p-grid", "1,2", "--q-grid", "1,2"],
    "central": ["central", "--alpha", "1"],
}


@pytest.mark.parametrize("constants, codes", [
    ({"a0": 1e300}, (EXIT_ERROR, EXIT_ERROR, EXIT_ERROR)),
    ({"a0": 1e-300}, (EXIT_ERROR, EXIT_ERROR, EXIT_ERROR)),
    ({"hbar": 1e300}, (EXIT_ERROR, EXIT_ERROR, EXIT_ERROR)),
    ({"hbar": 1e-300}, (EXIT_ERROR, EXIT_ERROR, EXIT_ERROR)),
    ({"mass": 1e300}, (EXIT_OK, EXIT_VIOLATION, EXIT_OK)),
    ({"mass": 1e-300}, (EXIT_OK, EXIT_VIOLATION, EXIT_OK)),
    # hbar^2 underflows to 0 while every moment is in range: b = 8 m beta /
    # hbar^2 is infinite, not a division by zero (None: not run)
    ({"hbar": 1e-170, "a0": 1e-100}, (None, None, EXIT_ERROR)),
], ids=lambda x: ",".join(f"{k}={v:g}" for k, v in x.items()) if isinstance(x, dict) else None)
def test_extreme_constants_end_in_one_line_or_a_real_verdict(constants, codes, tmp_path, capsys):
    import warnings

    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"constants": constants}))
    for (name, argv), want in zip(_EXTREME_COMMANDS.items(), codes):
        if want is None:
            continue
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--config", str(cfgp)] + argv)
        captured = capsys.readouterr()
        assert (code, caught) == (want, []), name
        if captured.err:
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, name
            assert any(key in captured.err for key in constants) or "b must be" in captured.err
            continue
        rows = json.loads(captured.out)["results"]
        assert name == "sweep" or code != EXIT_ERROR
        for row in rows if name != "central" else ():
            assert row.get("status", "ok") in ("ok", "failed")
            if row.get("status", "ok") == "ok":
                # (hbar/2)^r* and the moments are normal doubles, so a cell
                # that holds does not hold because a side is 0
                assert row["lhs"] >= sys.float_info.min and row["rhs"] >= sys.float_info.min


@pytest.mark.parametrize("kind", ["canonical", "reciprocal"])
def test_sweep_verdicts_do_not_depend_on_the_units(kind, tmp_path, capsys):
    # at hbar = 1e-170, a0 = 1e-100 cell (1, 1) has lhs 7.07e-86 > rhs
    # 5.64e-86: a violation, as at hbar = a0 = 1, not a pass by slack alone
    argv = ["sweep", "--kind", kind, "--p-grid", "1,2", "--q-grid", "1,2"]
    outcomes = []
    for constants in ({"hbar": 1.0, "a0": 1.0}, {"hbar": 1e-170, "a0": 1e-100}):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"constants": constants}))
        code, doc = run_json(capsys, ["--config", str(cfgp)] + argv)
        outcomes.append((code, [(row["p"], row["q"], row["holds"]) for row in doc["results"]]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (EXIT_VIOLATION if kind == "canonical" else EXIT_OK)


def test_calls_in_one_process_match_calls_run_alone(tmp_path, capsys):
    # main() builds its parser once per process; a grid sweep, a catalog
    # call and a parse error in a row print and exit as each does with a
    # parser of its own
    from qmoments.cli import _build_parser

    calls = [["sweep", "--grid", _h_grid(tmp_path), "--p-grid", "3", "--q-grid", "2"],
             ["hydrogen", "--p", "3", "--q", "2"],
             ["hydrogen", "--p", "3", "--axis", "w"],
             ["hydrogen", "--p", "3", "--q", "2"]]

    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, re.sub(r'"timestamp": "[^"]*"', "", out), err

    _build_parser.cache_clear()
    together = [run(argv) for argv in calls]
    alone = []
    for argv in calls:
        _build_parser.cache_clear()
        alone.append(run(argv))
    assert together == alone
    assert [code for code, _, _ in together] == [EXIT_OK, EXIT_OK, EXIT_ERROR, EXIT_OK]
    assert together[2][2].startswith("usage: qmoments hydrogen")


def _fresh(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    """python -c code args... in a fresh interpreter that imports this qmoments."""
    src = str(Path(qmoments.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, cwd=cwd)


def test_catalog_commands_load_no_numpy(tmp_path):
    # the five catalog ops of the cold-call benchmark and its holder op on a
    # small CSV; quadrature, states and matrixlab import numpy at the top, so
    # none of them ran either
    (tmp_path / "samples.csv").write_text("f,g,weight\n1.0,0.5,1\n2.0,1.5,2\n0.5,3.0,1\n")
    code = f"""
import contextlib, io, sys
import qmoments.cli
print("numpy" in sys.modules)
for argv in (
    ["hydrogen", "--p", "3", "--q", "2", "--axis", "z"],
    ["sweep", "--state", "hydrogen", "--p-grid", "1.2:3.7:5", "--q-grid", "0.7:4.7:5",
     "--format", "csv", "--out", {str(tmp_path / "table.csv")!r}],
    ["sweep", "--state", "hydrogen", "--kind", "reciprocal", "--p-grid", "1,2.5",
     "--q-grid", "0.5,2,3,3.5", "--allow-divergent"],
    ["central", "--state", "hydrogen", "--alpha", "1", "--beta", "1"],
    ["central", "--state", "r4test", "--buckingham", "1,1,1"],
    ["holder", "--data", {str(tmp_path / "samples.csv")!r}, "--p", "3", "--q", "2"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = qmoments.cli.main(argv)
    print(exit_code in (0, 2), "numpy" in sys.modules)
"""
    out = _fresh(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:7] == ["False"] + ["True False"] * 6


def test_only_central_runs_the_centralfield_module():
    # centralfield is deferred: a hydrogen call leaves its body unrun. Its
    # __dict__ is read past the lazy module's __getattribute__, which would
    # run it
    code = """
import contextlib, io, sys
import qmoments.cli
cf = sys.modules["qmoments.centralfield"]
for argv in (["hydrogen", "--p", "3", "--q", "2"], ["central", "--alpha", "1", "--beta", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = qmoments.cli.main(argv)
    print(exit_code, "virial_report" in object.__getattribute__(cf, "__dict__"))
"""
    out = _fresh(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["0 False", "0 True"]


def test_exact_alone_gives_catalog_moments_without_numpy():
    # exact holds the closed forms and imports neither states nor quadrature
    code = """
import sys
from qmoments import exact
h = exact.HydrogenGroundState()
print(h.direct_moment(exact.P_POWER, 2.0).value, h.direct_moment(exact.R_POWER, 1.0).value,
      h.kinetic_energy())
print(hasattr(exact, "states"), hasattr(exact, "quadrature"), "numpy" in sys.modules)
"""
    out = _fresh(code)
    assert out.returncode == 0, out.stderr
    values, flags = out.stdout.split("\n")[:2]
    assert [float(v) for v in values.split()] == pytest.approx([1.0, 1.5, 0.5], rel=1e-14)
    assert flags == "False False False"


# every name the package exported when it imported all of its modules
_EXPORTS = """
CapabilityError DataFormatError DecompositionError DomainError Exponents MomentsError MomentValue
NATURAL PhysicalConstants SI Tolerances Verdict make_exponents make_verdict young_gap
QuadResult integrate ContinuousState GaussianPacket HarmonicOscillatorGround HydrogenGroundState
PowerExpRadialState RadialGridState catalog load_radial_grid FiniteState HermitianOperator
abs_central_moment_finite commutator expectation Observable
abs_central_moment custom_radial mean momentum_axis position_axis radial radial_inverse
raw_moment DiscreteDensity holder_verdict holder_verdict_continuous
reciprocal_moment_verdict schwarz_verdict sweep uncertainty_chain_finite
uncertainty_verdict_canonical BuckinghamPotential LennardJonesPotential PowerLawPotential
bound_threshold_radius buckingham_bound ground_energy_estimate lennard_jones_mean virial_report
""".split()


def test_every_package_export_still_imports():
    code = ("import sys, qmoments\n"
            "names = sys.argv[1:]\n"
            "for name in names:\n"
            "    exec(f'from qmoments import {name}')\n"
            "    assert getattr(qmoments, name) is not None\n"
            "print(sorted(set(names) - set(qmoments.__all__)))\n"
            "from qmoments.states import HydrogenGroundState, catalog\n"
            "print(catalog()['hydrogen'].__class__ is HydrogenGroundState)")
    out = _fresh(code, *_EXPORTS)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]", "True"]


def test_array_commands_run_in_a_fresh_interpreter(tmp_path):
    # --grid and finite load states, matrixlab and numpy on first use, and
    # holder runs without them
    r = np.arange(0.0, 40.01, 0.02)
    np.savetxt(tmp_path / "h.txt", np.c_[r, 2.0 * r * np.exp(-r)])
    (tmp_path / "samples.csv").write_text("f,g,weight\n1.0,0.5,1\n2.0,1.5,2\n0.5,3.0,1\n")
    entry = "import sys; from qmoments.cli import main; sys.exit(main())"
    for argv in (["sweep", "--grid", "h.txt", "--p-grid", "3", "--q-grid", "2"],
                 ["central", "--grid", "h.txt", "--alpha", "1", "--beta", "1"],
                 ["finite", "--dim", "8", "--p", "3", "--q", "2", "--trials", "3", "--seed", "7"],
                 ["holder", "--data", "samples.csv", "--p", "3", "--q", "2"]):
        out = _fresh(entry, *argv, cwd=tmp_path)
        assert (out.returncode, out.stderr) == (EXIT_OK, ""), argv
        assert json.loads(out.stdout)["manifest"]["outcomes"]["checks"] >= 1
