"""The recorded CLI contract: what each `qmoments` command below leaves on
stdout, stderr and its --out file, and with which exit code.

A record keeps, for each stream and the --out file, the JSON report (its key
paths in order and every leaf, `manifest.timestamp` left out), the CSV header
and every cell (a finite number as a float, any other cell as its text), or
the text lines. `test_contract.py` replays each record and
compares numbers to 1e-12 relative (1e-14 absolute near 0), everything else
exactly.

    python tests/contract/record.py     # rewrite the records from this code

prints every leaf that moved against the old record, so a change that
rewrites a record can say which values moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

RECORDS = Path(__file__).resolve().parent / "records"

SAMPLES_CSV = "f,g,weight\n1.0,0.5,1\n2.0,1.5,2\n0.5,3.0,1\n"
SWEEP = ["sweep", "--state", "hydrogen", "--p-grid", "2:3:5", "--q-grid", "2:3:5"]


def _grid(r: list[float], u, num=repr) -> str:
    """A grid file of the samples (r, u(r)), each number written by num."""
    return "".join(f"{num(x)} {num(u(x))}\n" for x in r)


def _hydrogen_u(r: float) -> float:
    return 2.0 * r * math.exp(-r)


# the 1s wavefunction u = 2 r e^-r on a uniform grid, h = 0.1 to r = 30
H_GRID = _grid([i * 0.1 for i in range(301)], _hydrogen_u)

# the grids of the CI sweeps: the 1s wavefunction at h = 0.02 to r = 40, the
# same written with six decimals, at h = 0.5 to r = 20, u = r^4 e^-r on a
# geometric grid with a leading r = 0, u = e^-r (u(0) != 0) at h = 0.02 to
# r = 30, and knots near 1e200; then the h = 0.02 grid with CRLF endings,
# comment lines, trailing comments, blank lines and tabs, a grid with a byte
# that is not UTF-8 (a surrogate escape here) and one whose first knot
# interval is 1e-200
H_FINE = [i * 0.02 for i in range(2001)]
_CRLF_ROWS = [f"{r!r}\t{_hydrogen_u(r)!r}  # sample" if i % 100 == 0
              else f"{r!r} {_hydrogen_u(r)!r}" for i, r in enumerate(H_FINE)]
CI_GRIDS = {
    "h_grid.txt": _grid(H_FINE, _hydrogen_u),
    "h6_grid.txt": _grid(H_FINE, _hydrogen_u, "{:.6f}".format),
    "coarse_grid.txt": _grid([i * 0.5 for i in range(41)], _hydrogen_u),
    "r4_grid.txt": _grid([0.0] + [1e-3 * 45000.0 ** (i / 399) for i in range(400)],
                         lambda r: r**4 * math.exp(-r)),
    "u0_grid.txt": _grid([i * 0.02 for i in range(1501)], lambda r: math.exp(-r)),
    "huge_grid.txt": "0 0\n1e200 1\n2e200 0.5\n3e200 0.1\n4e200 0\n",
    "crlf_grid.txt": "# r u\r\n\r\n" + "\r\n".join(_CRLF_ROWS) + "\r\n\r\n",
    "bad_grid.txt": "0 0\n1 0.5\udcff\n2 0.2\n3 0.1\n",
    "tiny_grid.txt": "0 0\n1e-200 1\n1 1\n2 1\n",
}


def _ci_sweep(grid: str, *argv: str) -> tuple[list[str], dict[str, str]]:
    return ["sweep", "--grid", grid, *argv], {grid: CI_GRIDS[grid]}


def _ci_central(grid: str, *argv: str) -> tuple[list[str], dict[str, str]]:
    return ["central", "--grid", grid, *argv], {grid: CI_GRIDS[grid]}


# the tolerances of the CI config-file run, as json.dump writes them
TOL_JSON = json.dumps({"rel_tol": 1e-8, "abs_tol": 1e-12, "max_evals": 200000})


# name -> (argv, input files); the README examples first, then one command
# per output route that they leave out, and an error exit
CASES = {
    "readme_hydrogen": (["hydrogen", "--p", "3", "--q", "2", "--axis", "z"], {}),
    "readme_sweep_csv_out": (SWEEP + ["--format", "csv", "--out", "table.csv"], {}),
    "readme_sweep_reciprocal": (["sweep", "--state", "hydrogen", "--kind", "reciprocal",
                                 "--p-grid", "1,2", "--q-grid", "3,4", "--allow-divergent"], {}),
    "readme_finite": (["finite", "--dim", "8", "--seed", "42", "--trials", "100",
                       "--p", "3", "--q", "1.5"], {}),
    "readme_holder": (["holder", "--data", "samples.csv", "--p", "3", "--q", "2"],
                      {"samples.csv": SAMPLES_CSV}),
    # sides past the double range (exit 1, one error: line); raw sums past
    # it, with every side in range (exit 0); sides that underflow to 0, which
    # would hold vacuously (exit 1, one error: line)
    "holder_overflow": (["holder", "--data", "ov.csv", "--p", "3", "--q", "2"],
                        {"ov.csv": "1e200,1e200,1\n"}),
    "holder_overflow_mixed": (["holder", "--data", "ov.csv", "--p", "3", "--q", "2"],
                              {"ov.csv": "1e120,1e-200,1\n1,1,1\n"}),
    "holder_underflow": (["holder", "--data", "tiny.csv", "--p", "3", "--q", "2"],
                         {"tiny.csv": "1e-160,1e-160,1\n2e-160,1e-160,1\n"}),
    # the largest |f| and |g| in different rows: every |f g| is far below
    # max|f| max|g|, and each side is in range (exit 0)
    "holder_rows_apart": (["holder", "--data", "apart.csv", "--p", "2", "--q", "2"],
                          {"apart.csv": "1e150,1e-165,1\n1e-165,1e150,1e-300\n"}),
    "readme_central_virial": (["central", "--state", "hydrogen", "--alpha", "1",
                               "--beta", "1"], {}),
    "readme_central_buckingham": (["central", "--state", "r4test", "--buckingham", "1,1,1"], {}),
    "route_json_out": (["hydrogen", "--p", "3", "--q", "2", "--out", "report.json"], {}),
    "route_csv_stdout": (SWEEP + ["--format", "csv"], {}),
    "route_finite_csv_stdout": (["finite", "--pair", "pauli-xy", "--p", "2", "--q", "2",
                                 "--format", "csv"], {}),
    "error_exit": (["central", "--alpha", "1", "--beta", "1e308"], {}),
    # --units si: a catalog cell, failed SI cells in a CSV on stdout (exit 1)
    # and a grid sweep
    "si_hydrogen": (["hydrogen", "--p", "3", "--q", "2", "--units", "si"], {}),
    "si_sweep_failed_csv": (["sweep", "--state", "qho", "--i", "x", "--j", "x",
                             "--p-grid", "1,2,40", "--q-grid", "1,2,40", "--units", "si",
                             "--format", "csv"], {}),
    "si_grid_sweep": (["sweep", "--grid", "h.txt", "--p-grid", "1.5,3", "--q-grid", "1,2",
                       "--units", "si"], {"h.txt": H_GRID}),
    # empty CSV cells on divergent rows (exit 3), and a finite CSV to --out
    "reciprocal_csv_out": (["sweep", "--state", "hydrogen", "--kind", "reciprocal",
                            "--p-grid", "1,2", "--q-grid", "2,3,4", "--format", "csv",
                            "--out", "recip.csv"], {}),
    "finite_csv_out": (["finite", "--dim", "4", "--trials", "5", "--p", "2", "--q", "2",
                        "--format", "csv", "--out", "f.csv", "--gate", "both"], {}),
    # the finite commands of CI (exit 0, 0, 2, 2), a seeded counterexample,
    # and a low order where a zero eigenvalue of X_33 enters as |0|^0.05
    "finite_random": (["finite", "--dim", "8", "--p", "3", "--q", "2", "--trials", "10",
                       "--seed", "7"], {}),
    "finite_xp_32_2": (["finite", "--pair", "truncated-xp", "--dim", "32", "--p", "2",
                        "--q", "2"], {}),
    "finite_xp_32_1": (["finite", "--pair", "truncated-xp", "--dim", "32", "--p", "1",
                        "--q", "1"], {}),
    "finite_xp_16_si": (["finite", "--pair", "truncated-xp", "--dim", "16", "--p", "1",
                         "--q", "1", "--units", "si"], {}),
    "finite_counterexample": (["finite", "--dim", "2", "--p", "1", "--q", "1", "--trials",
                               "50", "--seed", "3", "--gate", "both"], {}),
    "finite_xp_33_low_order": (["finite", "--pair", "truncated-xp", "--dim", "33", "--p",
                                "0.05", "--q", "0.05"], {}),
    # the p = q = 1 run at hbar = 1e-20, which fails as in natural units
    # (exit 2), and at hbar = 1e-300 with p = q = 40, where <|X|^40>
    # underflows (exit 1, one error: line)
    "finite_xp_32_1_small_hbar": (["--config", "hbar.json", "finite", "--pair", "truncated-xp",
                                   "--dim", "32", "--p", "1", "--q", "1"],
                                  {"hbar.json": '{"constants": {"hbar": 1e-20}}'}),
    "finite_xp_underflow": (["--config", "hbar.json", "finite", "--pair", "truncated-xp",
                             "--dim", "32", "--p", "40", "--q", "40"],
                            {"hbar.json": '{"constants": {"hbar": 1e-300}}'}),
    # the sweeps of CI: grid states (exit 0, 3, 2, 2, 0, 3, 0 and a failed
    # cell, exit 1), then catalog sweeps
    "ci_grid_sweep": _ci_sweep("h_grid.txt", "--p-grid", "3", "--q-grid", "2,3"),
    "ci_grid_six_decimals": _ci_sweep("h6_grid.txt", "--p-grid", "3", "--q-grid", "2,3"),
    "ci_coarse_grid": _ci_sweep("coarse_grid.txt", "--p-grid", "2", "--q-grid", "1,2"),
    "ci_r4_grid": _ci_sweep("r4_grid.txt", "--p-grid", "2.5", "--q-grid", "0.9"),
    "ci_grid_reciprocal_q29": _ci_sweep("h_grid.txt", "--kind", "reciprocal", "--p-grid", "1",
                                        "--q-grid", "2.9"),
    "ci_grid_reciprocal_q3": _ci_sweep("h_grid.txt", "--kind", "reciprocal", "--p-grid", "1",
                                       "--q-grid", "3"),
    "ci_u0_grid_reciprocal": _ci_sweep("u0_grid.txt", "--kind", "reciprocal", "--p-grid", "1",
                                       "--q-grid", "0.5"),
    "ci_huge_grid_failed_cell": _ci_sweep("huge_grid.txt", "--p-grid", "1", "--q-grid", "2"),
    "ci_r4test_high_order": (["sweep", "--state", "r4test", "--p-grid", "2", "--q-grid", "7.5"],
                             {}),
    "ci_divergent_row_allowed": (["sweep", "--p-grid", "2", "--q-grid", "2,5.5",
                                  "--allow-divergent"], {}),
    "ci_qho_own_axis": (["sweep", "--state", "qho", "--p-grid", "2,3", "--q-grid", "2"], {}),
    # the grid file format: CRLF endings and comments (exit 0), a byte that
    # is not UTF-8 and a knot interval of 1e-200 (exit 1, one error: line)
    "ci_crlf_grid": _ci_sweep("crlf_grid.txt", "--p-grid", "3", "--q-grid", "2"),
    "ci_bad_byte_grid": _ci_sweep("bad_grid.txt", "--p-grid", "3", "--q-grid", "2"),
    "ci_tiny_grid": _ci_sweep("tiny_grid.txt", "--p-grid", "3", "--q-grid", "2"),
    # the central commands of CI: grid states (exit 0, 0, 0, a failed <r^-6>
    # and an overflow, both exit 1), then a tiny and a huge beta
    "ci_central_h_grid": _ci_central("h_grid.txt", "--alpha", "1", "--beta", "1"),
    "ci_central_config_tol": (["--config", "tol.json", "central", "--grid", "h_grid.txt",
                               "--alpha", "1", "--beta", "1"],
                              {"h_grid.txt": CI_GRIDS["h_grid.txt"], "tol.json": TOL_JSON}),
    "ci_central_r4_grid": _ci_central("r4_grid.txt", "--alpha", "1", "--beta", "1"),
    "ci_central_r4_grid_buckingham": _ci_central("r4_grid.txt", "--buckingham", "1,1,1"),
    "ci_central_huge_grid": _ci_central("huge_grid.txt", "--alpha", "1", "--beta", "1"),
    "ci_central_tiny_beta": (["central", "--alpha", "1", "--beta", "1e-170"], {}),
    "ci_central_huge_beta": (["central", "--state", "r4test", "--alpha", "2.5", "--beta",
                              "1e307"], {}),
    # central in SI units, and four divergent notes allowed (exit 0)
    "si_central": (["--units", "si", "central", "--state", "hydrogen", "--alpha", "1",
                    "--beta", "1"], {}),
    "central_divergent_allowed": (["central", "--state", "hydrogen", "--alpha", "3.5",
                                   "--buckingham", "1,1,1", "--lj", "1,1",
                                   "--allow-divergent"], {}),
    # the config errors of CI: constants under --units si, and a misspelt key
    # (exit 1, one error: line)
    "ci_config_constants_si": (["--config", "hbar2.json", "--units", "si", "hydrogen", "--p",
                                "3", "--q", "2"], {"hbar2.json": '{"constants": {"hbar": 2}}'}),
    "ci_config_unknown_key": (["--config", "typo.json", "hydrogen", "--p", "3", "--q", "2"],
                              {"typo.json": '{"rel_tl": 0.001}'}),
}


def _cell(text: str):
    """A CSV cell: a finite number as a float, so that it compares to
    tolerance; anything else ("", true/false, a status) as its text."""
    try:
        x = float(text)
    except ValueError:
        return text
    return x if math.isfinite(x) else text


def _stream(text: str, csv: bool):
    """One stream or file as a record: None when empty, else the JSON
    report, the CSV header and cells, or the text lines."""
    if not text:
        return None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        pass
    else:
        doc["manifest"].pop("timestamp")
        return {"json": doc}
    lines = text.splitlines()
    if csv:
        return {"csv": {"header": lines[0],
                        "rows": [[_cell(t) for t in line.split(",")] for line in lines[1:]]}}
    return {"lines": lines}


def run(argv: list[str], files: dict[str, str]) -> dict:
    """Run `qmoments argv` in-process in a fresh directory holding files."""
    from qmoments.cli import main

    csv = "csv" in argv
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8", errors="surrogateescape")
        os.chdir(tmp)
        try:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
        finally:
            os.chdir(home)
        written = sorted(set(os.listdir(tmp)) - set(files))
        result = {"argv": argv, "files": files, "exit_code": code,
                  "stdout": _stream(out.getvalue(), csv), "stderr": _stream(err.getvalue(), csv)}
        for name in written:
            result[f"out:{name}"] = _stream(Path(tmp, name).read_text(encoding="utf-8"), csv)
    return result


def _leaves(node, path: str = ""):
    """(path, leaf) in document order; an empty dict or list is a leaf."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-14)
    return a == b


def differences(recorded: dict, observed: dict) -> list[str]:
    """Every key path, leaf or exit code where observed leaves the record."""
    old, new = list(_leaves(recorded)), list(_leaves(observed))
    paths = [p for p, _ in old], [p for p, _ in new]
    if paths[0] != paths[1]:
        i = next((i for i, (a, b) in enumerate(zip(*paths)) if a != b), min(map(len, paths)))
        return [f"key paths differ from path {i}: "
                f"recorded {paths[0][i:i + 3]}, observed {paths[1][i:i + 3]}"]
    return [f"{p}: {a!r} -> {b!r}" for (p, a), (_, b) in zip(old, new) if not _same(a, b)]


def main() -> int:
    RECORDS.mkdir(exist_ok=True)
    for name, (argv, files) in CASES.items():
        observed = run(argv, files)
        path = RECORDS / f"{name}.json"
        if path.exists():
            for line in differences(json.loads(path.read_text(encoding="utf-8")), observed):
                print(f"{name}: {line}")
        path.write_text(json.dumps(observed, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
