import json

import pytest

from record import CASES, RECORDS, differences, leaves, rewritten, run

# what stdout, stderr and the --out file hold on each output route: a JSON
# report, a CSV table or text lines (a stream left out holds nothing)
ROUTES = {
    "readme_hydrogen": {"stdout": "json"},
    "route_json_out": {"stdout": "json", "out:report.json": "json"},
    "readme_sweep_csv_out": {"stdout": "json", "out:table.csv": "csv"},
    "route_csv_stdout": {"stdout": "csv", "stderr": "json"},
    "error_exit": {"stderr": "lines"},
    "si_sweep_failed_csv": {"stdout": "csv", "stderr": "json"},
    "reciprocal_csv_out": {"stdout": "json", "out:recip.csv": "csv"},
    "finite_csv_out": {"stdout": "json", "out:f.csv": "csv"},
}


def _load(name: str) -> dict:
    return json.loads((RECORDS / f"{name}.json").read_text(encoding="utf-8"))


def test_every_case_has_one_record():
    assert sorted(p.stem for p in RECORDS.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_command_matches_its_record(name):
    recorded = _load(name)
    assert differences(recorded, run(recorded["argv"], recorded["files"])) == []


def _moved(node, by=1e-9):
    """node with every float moved by the relative amount by."""
    if isinstance(node, float):
        return node * (1.0 + by)
    if isinstance(node, dict):
        return {key: _moved(value, by) for key, value in node.items()}
    if isinstance(node, list):
        return [_moved(value, by) for value in node]
    return node


@pytest.mark.parametrize("name", sorted(CASES))
def test_replay_sees_a_move_of_any_nonzero_number(name):
    # every number but a rounding residue compares relative, however small:
    # an SI leaf near 1e-26 is pinned as tightly as one near 1
    rec = _load(name)
    moved = differences(rec, _moved(rec))
    seen = {line.split(": ", 1)[0] for line in moved}
    numbers = {path for path, x, floor in leaves(rec)
               if isinstance(x, float) and x != 0.0 and floor == 0.0}
    assert numbers <= seen
    # each moved leaf shows its relative change: 1e-9, signed like the leaf
    assert all(line.endswith((" (+1.0e-09 relative)", " (-1.0e-09 relative)")) for line in moved)


def test_rewrite_keeps_every_leaf_that_replays():
    # a removed key is named, and a rewrite writes anew only what moved: the
    # leaves that replay within tolerance keep their recorded numbers
    rec = _load("readme_hydrogen")
    observed = _moved(rec, 1e-14)
    del observed["stdout"]["json"]["manifest"]["seed"]
    observed["stdout"]["json"]["results"][0]["rhs"] *= 1.0 + 1e-9
    assert differences(rec, observed) == [
        "stdout.json.manifest.seed: removed",
        f"stdout.json.results[0].rhs: {rec['stdout']['json']['results'][0]['rhs']!r} -> "
        f"{observed['stdout']['json']['results'][0]['rhs']!r} (+1.0e-09 relative)"]
    new = rewritten(rec, observed)
    assert differences(new, observed) == []
    kept = {path: x for path, x, _ in leaves(rec)}
    changed = [path for path, x, _ in leaves(new) if x != kept[path]]
    assert changed == ["stdout.json.results[0].rhs"]


def test_replay_ignores_the_build_stamp():
    # the stamp says which numpy, BLAS and LAPACK wrote a record; a replay
    # on another build compares only what the command leaves
    rec = _load("ci_r4_grid_reciprocal_model_power")
    assert sorted(rec["build"]) == ["blas", "lapack", "numpy"]
    other = {key: value for key, value in rec.items() if key != "build"}
    assert differences(rec, other) == []
    assert differences(rec, {**other, "build": {"numpy": "0"}}) == []


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_record_keeps_its_output_route(name):
    rec = _load(name)
    held = {key: next(iter(value)) for key, value in rec.items()
            if value and (key in ("stdout", "stderr") or key.startswith("out:"))}
    assert held == ROUTES[name]


def test_error_exit_is_one_stderr_line():
    rec = _load("error_exit")
    assert rec["exit_code"] == 1
    assert len(rec["stderr"]["lines"]) == 1 and rec["stderr"]["lines"][0].startswith("error: ")
