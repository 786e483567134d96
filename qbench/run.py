"""qmoments benchmark runner.

    python3 qbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with one client for at least S seconds
(whole cycles of the workload's op mix), checks every op against its
oracle, and prints one JSON object as the last stdout line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones from a traced run. The line
before it holds the run's details: machine facts, sample counts, the tail
percentile used, and the first failures. Both lines are also written to
qbench/.work/<workload>-s<seed>-t<trace>/result.json, next to the span dump
of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_SETUP_SAMPLES = 3
OP_TIMEOUT_S = 120
# console-script equivalent of the `qmoments` entry point
ENTRY = "import sys; from qmoments.cli import main; sys.exit(main())"
READY = "import qmoments.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    extra = [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + extra)
    return env


def setup_sample(work: Path, importtime: bool) -> tuple[float, str]:
    """Seconds from spawning an interpreter until `qmoments.cli` is imported
    and the first op could be issued; with importtime, also its -X importtime log."""
    log = work / "importtime.log"
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", READY]
    with open(log, "w") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                             env=child_env(), cwd=ROOT)
        line = p.stdout.readline()
        dt = time.perf_counter() - t0
        p.communicate(timeout=OP_TIMEOUT_S)
    if p.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up import failed: {log.read_text()[-500:]}")
    return dt, log.read_text() if importtime else ""


def import_seconds(log: str) -> dict[str, float]:
    """numpy and scipy: summed self time of their modules; qmoments: the
    cumulative time of `import qmoments.cli`, numpy and scipy included."""
    out = {"numpy": 0.0, "scipy": 0.0, "qmoments": 0.0}
    for m in re.finditer(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)", log):
        top = m.group(4).split(".", 1)[0]
        if top in ("numpy", "scipy"):
            out[top] += int(m.group(1)) * 1e-6
        elif top == "qmoments" and len(m.group(3)) == 1:
            out["qmoments"] += int(m.group(2)) * 1e-6
    return out


def run_in_process(op):
    from qmoments import cli

    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except (Exception, SystemExit):  # an escaping exception is a failed op, not a crash
        code = -1
        err.write(traceback.format_exc())
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


def run_cold(op, tr, work: Path):
    if tr is None:
        cmd = [sys.executable, "-c", ENTRY, *op.argv]
    else:
        spans_path = work / "child_spans.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(spans_path), *op.argv]
    t0 = time.perf_counter()
    p = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                       timeout=OP_TIMEOUT_S)
    dt = time.perf_counter() - t0
    if tr is not None and spans_path.exists():
        dump = json.loads(spans_path.read_text())
        spans_path.unlink()
        base = len(tr.spans)
        for name, start, end, parent, _ in dump["spans"]:
            tr.spans.append([name, start, end, parent + base if parent >= 0 else -1, tr.op])
        tr.counts.update(dump["counts"])
        tr.dim_max = max(tr.dim_max, dump["dim_max"])
        tr.unwrapped.update(dump["unwrapped"])
    return dt, p.returncode, p.stdout, p.stderr


def blas_facts() -> dict:
    import ctypes
    import numpy as np

    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"name": cfg.get("name"), "version": cfg.get("version"), "threads": None,
             "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                 "MKL_NUM_THREADS") if k in os.environ}}
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "blas" in ln.lower() and ".so" in ln}
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["threads"] = fn()
                facts["library"] = os.path.basename(lib)
                return facts
    return facts


def machine_facts() -> dict:
    model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                     model)
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "python": platform.python_version(), **versions,
            "blas": blas_facts()}


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile with at
    least ten ops beyond it; the maximum when a run has ten ops or fewer."""
    d = sorted(durations)
    n = len(d)
    if n <= 10:
        return d[-1], 100.0
    return d[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qmoments" / "cli.py").is_file():
        print(f"error: no qmoments source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.build(args.workload, args.seed, str(work))

    tr = None
    if wl.in_process:
        import qmoments
        if not Path(qmoments.__file__).resolve().is_relative_to(SRC):
            print(f"error: qmoments imported from {qmoments.__file__}, not {SRC}", file=sys.stderr)
            return 2
    if args.trace:
        tr = tracing.Tracer()
        if wl.in_process:
            tracing.instrument(tr)
            tr.unwrapped.update(tracing.unwrapped_bindings())
    # one unmeasured import fills the bytecode cache
    setup_sample(work, False)
    return run_workload(args, wl, work, tr)


def run_workload(args, wl, work: Path, tr) -> int:
    """The closed loop, the checks and the report for one run."""
    durations, checks, failures, by_class, timeline = [], 0, [], {}, []
    setup, imports = [], []

    def sample_setup():
        # one set-up sample per cycle, so they see the same host phases as the ops
        dt, log = setup_sample(work, bool(args.trace))
        setup.append((len(durations), dt))
        if args.trace:
            imports.append(import_seconds(log))

    attempted = failed = known = cycles = 0
    cycle_s = 0.0
    t_start = last = time.perf_counter()
    # whole cycles; stop where the next cycle would end past the deadline
    # by more than half its length, so a run lasts about --seconds
    while cycles == 0 or time.perf_counter() + 0.5 * cycle_s < t_start + args.seconds:
        cycles += 1
        sample_setup()
        for op in wl.cycle:
            if tr is not None:
                tr.op = attempted
            ref_s = reference.reference_seconds()
            started = time.perf_counter() - t_start
            if wl.in_process:
                dt, code, out, err = run_in_process(op)
            else:
                dt, code, out, err = run_cold(op, tr, work)
            files = {}
            if op.out and os.path.exists(op.out):
                with open(op.out, encoding="utf-8") as fh:
                    files[op.out] = fh.read()
                os.unlink(op.out)
            if tr is not None:
                tr.counts["cli.emit_bytes"] += len(out.encode()) + sum(
                    len(t.encode()) for t in files.values())
            outcome = workloads.Outcome()
            op.check(workloads.OpResult(code, out, err, files), outcome)
            attempted += 1
            durations.append(dt)
            by_class.setdefault(op.cls, []).append(dt)
            timeline.append([round(started, 4), op.cls, dt, ref_s])
            checks += outcome.checks
            if outcome.problems:
                failed += 1
                known += outcome.known_defect_only
                if len(failures) < 20:
                    failures.append({"op": attempted - 1, "class": op.cls,
                                     "argv": " ".join(op.argv), "problems": outcome.problems[:5]})
        cycle_s = time.perf_counter() - last
        last = time.perf_counter()
    wall = time.perf_counter() - t_start
    while len(setup) < MIN_SETUP_SAMPLES:
        sample_setup()

    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # host speed at op i: median of the reference timings of the seven
    # nearest ops over the nominal one; op times and set-up samples are
    # divided by it (reference.py says why)
    refs = [r[3] for r in timeline]
    speed = [statistics.median(refs[max(0, i - 3):i + 4]) / reference.NOMINAL_S
             for i in range(len(refs))]
    scaled = [r[2] / f for r, f in zip(timeline, speed)]
    setup_raw = [dt for _, dt in setup]
    setup_scaled = [dt / speed[min(i, len(speed) - 1)] for i, dt in setup]
    tail_s, tail_pct = tail(scaled)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_facts(),
        "samples": {"runs": 1, "ops": attempted, "cycles": cycles, "ops_per_cycle": len(wl.cycle),
                    "setup_samples": len(setup), "loop_wall_s": wall,
                    "call_tail_percentile": tail_pct, "ops_beyond_tail": min(10, attempted - 1)},
        "classes": {c: {"ops": len(v), "raw_p50_s": statistics.median(v)}
                    for c, v in by_class.items()},
        "speed": {"reference_p50_s": statistics.median(refs),
                  "factor_min": min(speed), "factor_max": max(speed)},
        "raw": {"setup_s": statistics.median(setup_raw), "call_p50_s": statistics.median(durations),
                "call_tail_s": tail(durations)[0], "checks_per_s": checks / sum(durations)},
        "known_defect_ops": known,
        "failures": failures,
    }
    problems = []
    if args.trace:
        m = {f"import.{k}_s": (statistics.median(s[k] for s in imports), "s")
             for k in ("numpy", "scipy", "qmoments")}
        m.update(tracing.summarize(tr.spans, tr.counts, tr.dim_max))
        m["trace.call_p50_s"] = (statistics.median(scaled), "s")
        problems = tracing.nesting_problems(tr.spans)[:5] + sorted(tr.unwrapped)[:5]
        details["trace_problems"] = problems
        details["bypass"] = {
            "quadrature.integrate.calls == 0 on finite_trials":
                args.workload != "finite_trials" or m["quadrature.integrate.calls"][0] == 0,
            "matrixlab.eigendecompose.calls == 0 on catalog_sweep, grid_state":
                args.workload not in ("catalog_sweep", "grid_state")
                or m["matrixlab.eigendecompose.calls"][0] == 0,
        }
        with open(work / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tr.spans}, fh)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "call_p50_s": {"value": statistics.median(scaled), "unit": "s"},
            "call_tail_s": {"value": tail_s, "unit": "s"},
            "checks_per_s": {"value": checks / sum(scaled), "unit": "1/s"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
    result = {"correct": failed == known and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"details": details, "result": result, "setup_samples_s": setup_raw,
                   "ops": {"fields": ["start_s", "class", "wall_s", "reference_s"],
                           "rows": timeline}}, fh)
    for f in failures[:3]:
        print(f"op {f['op']} failed ({f['class']}): {f['problems'][0]}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
