import json

import pytest

from record import CASES, RECORDS, differences, run

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
