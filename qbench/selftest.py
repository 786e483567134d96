"""The benchmark's own test: python3 qbench/selftest.py

1. Every binding site of a traced function is wrapped: the by-name imports
   in states, moments, inequalities and cli included.
2. One traced cycle per workload: every op passes its oracle (grid_state
   apart from defect (a)), each layer records calls on the workload meant
   to exercise it, the predicted bypass zeros hold, and every span nests
   under the cli.main span of its own op.

Exits 1 with one line per broken expectation.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# metric -> workloads where it must be > 0 (exercised) or == 0 (bypassed)
EXERCISED = {
    "cli.main.calls": ("cli_cold", "catalog_sweep", "grid_state", "finite_trials"),
    "cli.emit_bytes": ("cli_cold", "finite_trials"),
    "inequalities.verdicts": ("catalog_sweep", "finite_trials"),
    "centralfield.calls": ("catalog_sweep", "grid_state"),
    "moments.calls": ("catalog_sweep", "grid_state"),
    "moments.divergent": ("catalog_sweep", "grid_state"),
    "states.catalog.calls": ("catalog_sweep",),
    "states.load_radial_grid.s": ("grid_state",),
    "states.momentum_table.builds": ("catalog_sweep", "grid_state"),
    "states.w.k_transformed": ("catalog_sweep", "grid_state"),
    "states.kinetic_energy.s": ("grid_state",),
    "quadrature.integrate.calls": ("catalog_sweep", "grid_state"),
    "quadrature.sine.calls": ("catalog_sweep", "grid_state"),
    "matrixlab.eigendecompose.calls": ("finite_trials",),
    "matrixlab.random_inputs.self_s": ("finite_trials",),
    "rng.draws": ("finite_trials",),
    "import.scipy_s": ("cli_cold",),
}
BYPASSED = {
    "quadrature.integrate.calls": ("finite_trials",),
    "matrixlab.eigendecompose.calls": ("catalog_sweep", "grid_state"),
}


def check_bindings() -> list[str]:
    import tracing

    tr = tracing.Tracer()
    restore = tracing.instrument(tr)
    import qmoments.cli as cli
    import qmoments.inequalities as iq
    import qmoments.moments as mo
    import qmoments.states as st

    bad = [f"unwrapped binding {b}" for b in tracing.unwrapped_bindings()]
    for owner, attr in ((st, "sine_transform_batch"), (st, "integrate"), (mo, "integrate"),
                        (iq, "abs_central_moment_finite"), (cli, "random_hermitian"),
                        (cli, "load_radial_grid")):
        if not hasattr(getattr(owner, attr), "__qbench_original__"):
            bad.append(f"{owner.__name__}.{attr} is not wrapped")
    tr.op = 0
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["finite", "--dim", "3", "--trials", "1", "--p", "2", "--q", "2"])
    names = {s[0] for s in tr.spans}
    if not {"cli.main", "matrixlab.random_hermitian", "matrixlab.eigendecompose"} <= names:
        bad.append(f"finite op recorded only {sorted(names)}")
    bad += tracing.nesting_problems(tr.spans)
    restore()
    if not tracing.unwrapped_bindings():
        bad.append("restore() left wrappers in place")
    return bad


def check_workload(name: str) -> list[str]:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                          "--seconds", "0", "--trace", "1"],
                         capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        return [f"{name}: run.py exited {out.returncode}: {out.stderr[-300:]}"]
    lines = out.stdout.strip().splitlines()
    details, result = json.loads(lines[-2])["details"], json.loads(lines[-1])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    bad = [f"{name}: {p}" for p in details["trace_problems"]]
    if not result["correct"]:
        bad.append(f"{name}: incorrect ops {details['failures']}")
    if name != "grid_state" and result["failed"]:
        bad.append(f"{name}: {result['failed']} failed ops")
    if name == "grid_state" and not result["failed"] == details["known_defect_ops"] == 1:
        bad.append(f"{name}: expected exactly one defect (a) op per cycle")
    for metric, where in EXERCISED.items():
        if name in where and not m[metric] > 0:
            bad.append(f"{name}: {metric} = {m[metric]}, expected > 0")
    for metric, where in BYPASSED.items():
        if name in where and m[metric] != 0:
            bad.append(f"{name}: {metric} = {m[metric]}, predicted bypass 0")
    return bad


def main() -> int:
    bad = check_bindings()
    for name in ("cli_cold", "catalog_sweep", "grid_state", "finite_trials"):
        bad += check_workload(name)
    for b in bad:
        print("FAIL", b)
    print("selftest:", "ok" if not bad else f"{len(bad)} failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
