"""The four workloads: seeded op mixes and the checks applied to each op.

An op is one `qmoments` CLI invocation. Each workload is an ordered cycle of
ops; a run repeats whole cycles, so the mix (and the share of ops that hit a
known defect) is the same in every run. The seed picks the (p, q) points
inside fixed ranges, the finite-harness seeds, the holder CSV and the radial
grid files; it never changes which commands run or how often.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles as orc

CATALOG_RTOL = 1e-5   # worst measured: 5e-7 (hydrogen <|p_z|^4.9>)
GRID_RTOL = 1e-4      # worst measured: 6e-6 (r4test grid kinetic energy)
FINITE_RTOL = 1e-8    # Jacobi against LAPACK eigh

MANIFEST_KEYS = {"command", "seed", "tolerances", "constants", "units", "timestamp",
                 "version", "outcomes"}
OUTCOME_KEYS = {"checks", "holds", "violations", "divergent", "notes", "exit_code"}
VERDICT_KEYS = {"lhs", "rhs", "ratio", "margin", "holds", "slack", "label", "inputs"}
ROW_KEYS = {"p", "q", "r_star", "lhs", "rhs", "ratio", "holds", "status", "detail"}
CSV_HEADER = ["p", "q", "r_star", "lhs", "rhs", "ratio", "holds", "status"]

# Known defect (a): on the uniform hydrogen grid the estimated origin power of
# u is 0.97, so every momentum order q >= 2.94 is classified divergent although
# <|p_z|^q> is finite up to q = 5. A cell showing exactly this counts as a
# failed op whose problem lines start with DEFECT_A.
DEFECT_A = "defect-a"


@dataclass
class OpResult:
    code: int
    stdout: str
    stderr: str
    files: dict[str, str] = field(default_factory=dict)  # out path -> contents


@dataclass
class Outcome:
    checks: int = 0                  # manifest.outcomes.checks as reported
    problems: list[str] = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.problems.append(msg)

    @property
    def known_defect_only(self) -> bool:
        return bool(self.problems) and all(p.startswith(DEFECT_A) for p in self.problems)


@dataclass
class Op:
    cls: str
    argv: list[str]
    check: Callable[[OpResult, Outcome], None]
    out: str | None = None


@dataclass
class Workload:
    in_process: bool
    cycle: list[Op]


# ---------------------------------------------------------------------------
# generic report checks


def _report(res: OpResult, o: Outcome):
    if "Traceback" in res.stderr:
        o.fail("traceback on stderr: " + res.stderr.strip().splitlines()[-1][:200])
    try:
        payload = json.loads(res.stdout)
    except ValueError:
        o.fail(f"non-JSON stdout (exit {res.code}): {res.stderr.strip()[:200]}")
        return None
    if not isinstance(payload, dict) or not {"manifest", "results"} <= payload.keys():
        o.fail("report lacks manifest/results")
        return None
    man = payload["manifest"]
    if not MANIFEST_KEYS <= man.keys() or not OUTCOME_KEYS <= man["outcomes"].keys():
        o.fail("manifest lacks contract keys")
        return None
    o.checks = int(man["outcomes"]["checks"])
    if man["outcomes"]["exit_code"] != res.code:
        o.fail(f"manifest exit_code {man['outcomes']['exit_code']} != process exit {res.code}")
    return payload


def _close(x, ref: float, rtol: float, atol: float = 1e-12) -> bool:
    return x is not None and abs(float(x) - ref) <= rtol * abs(ref) + atol


class _Tally:
    """Collects cell-level oracle comparisons into an expected exit code."""

    def __init__(self, allow_divergent: bool):
        self.allow = allow_divergent
        self.violation = False
        self.ambiguous = False
        self.divergent = 0
        self.ok = 0

    def verdict(self, o: Outcome, where: str, lhs, rhs, holds, lhs_o: float, rhs_o: float,
                rtol: float) -> None:
        self.ok += 1
        if not _close(lhs, lhs_o, rtol):
            o.fail(f"{where}: lhs {lhs} != oracle {lhs_o:.12g}")
        if not _close(rhs, rhs_o, rtol):
            o.fail(f"{where}: rhs {rhs} != oracle {rhs_o:.12g}")
        margin = rhs_o - lhs_o
        if abs(margin) > max(orc.HOLDS_TOL * max(1.0, abs(rhs_o)), 10.0 * rtol * abs(rhs_o)):
            if holds != (margin > 0.0):
                o.fail(f"{where}: holds={holds} but oracle margin {margin:.3g}")
            self.violation |= margin < 0.0
        else:
            self.ambiguous = True

    def expect_code(self, o: Outcome, code: int) -> None:
        if self.violation:
            want = {2}
        else:
            want = {3 if self.divergent and not self.allow else 0}
            if self.ambiguous:
                want.add(2)
        if code not in want:
            o.fail(f"exit code {code}, oracle expects {sorted(want)}")


# ---------------------------------------------------------------------------
# command checkers


def check_hydrogen(p: float, q: float):
    def check(res, o):
        payload = _report(res, o)
        if payload is None:
            return
        t = _Tally(False)
        v = payload["results"][0]
        if not VERDICT_KEYS <= v.keys():
            o.fail("verdict lacks contract keys")
            return
        lhs_o, rhs_o = orc.canonical_cell("hydrogen", p, q)
        t.verdict(o, f"hydrogen(p={p},q={q})", v["lhs"], v["rhs"], v["holds"], lhs_o, rhs_o,
                  CATALOG_RTOL)
        coeff = payload.get("coefficient_ratio_pow_p_plus_q")
        if not _close(coeff, (rhs_o / lhs_o) ** (p + q), CATALOG_RTOL * (p + q)):
            o.fail(f"coefficient ratio {coeff} off the oracle")
        if o.checks != 1:
            o.fail(f"manifest counts {o.checks} checks, expected 1")
        t.expect_code(o, res.code)
    return check


def _check_rows(o: Outcome, t: _Tally, rows, state: str, kind: str, rtol: float,
                grid: bool) -> None:
    cell = orc.canonical_cell if kind == "canonical" else orc.reciprocal_cell
    for row in rows:
        p, q = float(row["p"]), float(row["q"])
        where = f"{state}{' grid' if grid else ''} {kind} (p={p:g}, q={q:g})"
        lhs_o, rhs_o = cell(state, p, q)
        if math.isinf(rhs_o):
            t.divergent += 1
            if row["status"] != "divergent":
                o.fail(f"{where}: status {row['status']}, oracle says divergent")
            continue
        if row["status"] == "divergent" and grid and state == "hydrogen" and kind == "canonical" \
                and 2.9 <= q < 5.0:
            t.divergent += 1
            o.fail(f"{DEFECT_A}: {where} reported divergent, oracle value {rhs_o:.9g}")
            continue
        if row["status"] != "ok":
            o.fail(f"{where}: status {row['status']} ({row.get('detail', '')[:120]}), "
                   f"oracle value {rhs_o:.9g}")
            continue
        t.verdict(o, where, row["lhs"], row["rhs"], row["holds"], lhs_o, rhs_o, rtol)


def check_sweep(state: str, kind: str, n_cells: int, allow: bool, grid: bool = False):
    rtol = GRID_RTOL if grid else CATALOG_RTOL

    def check(res, o):
        payload = _report(res, o)
        if payload is None:
            return
        rows = payload["results"]
        if len(rows) != n_cells or any(not ROW_KEYS <= r.keys() for r in rows):
            o.fail(f"sweep returned {len(rows)} rows (want {n_cells}) or rows lack keys")
            return
        t = _Tally(allow)
        _check_rows(o, t, rows, state, kind, rtol, grid)
        for path, text in res.files.items():
            table = list(csv.reader(io.StringIO(text)))
            if not table or table[0] != CSV_HEADER or len(table) != n_cells + 1:
                o.fail(f"CSV {os.path.basename(path)} has a bad header or row count")
                continue
            csv_rows = [{
                "p": r[0], "q": r[1], "status": r[7],
                "lhs": float(r[3]) if r[3] else None, "rhs": float(r[4]) if r[4] else None,
                "holds": {"true": True, "false": False}.get(r[6]),
            } for r in table[1:]]
            _check_rows(o, _Tally(allow), csv_rows, state, kind, rtol, grid)
        if o.checks != t.ok + t.divergent:
            o.fail(f"manifest counts {o.checks} checks, cells give {t.ok + t.divergent}")
        t.expect_code(o, res.code)
    return check


def check_finite(pair: str, dim: int, trials: int, seed: int, p: float, q: float, gate: str):
    def check(res, o):
        payload = _report(res, o)
        if payload is None:
            return
        if pair == "random":
            cases = orc.random_trials(seed, dim, trials)
        else:
            cases = [orc.truncated_pair(dim)]
        want = {}
        for trial, (a, b, psi) in enumerate(cases):
            for label, sides in orc.finite_chain(a, b, psi, p, q).items():
                want[(trial, label)] = sides
        got = payload["results"]
        if len(got) != len(want):
            o.fail(f"{len(got)} verdicts, oracle expects {len(want)}")
            return
        t = _Tally(False)
        gated = 0
        for v in got:
            if not VERDICT_KEYS <= v.keys():
                o.fail("verdict lacks contract keys")
                return
            gates = gate == "both" or v["label"] == "finite_commutator"
            gated += gates
            lhs_o, rhs_o = want[(v["trial"], v["label"])]
            (t if gates else _Tally(False)).verdict(
                o, f"{pair} dim {dim} trial {v['trial']} {v['label']}",
                v["lhs"], v["rhs"], v["holds"], lhs_o, rhs_o, FINITE_RTOL)
        if o.checks != gated:
            o.fail(f"manifest counts {o.checks} checks, expected {gated}")
        if ("counterexample" in payload) != (payload["summary"]["violations"] > 0):
            o.fail("counterexample presence disagrees with the violation count")
        t.expect_code(o, res.code)
    return check


def check_holder(rows, p: float, q: float):
    want = orc.holder_pair(rows, p, q)

    def check(res, o):
        payload = _report(res, o)
        if payload is None:
            return
        t = _Tally(False)
        for v in payload["results"]:
            lhs_o, rhs_o = want[v["label"]]
            t.verdict(o, f"holder {v['label']}", v["lhs"], v["rhs"], v["holds"], lhs_o, rhs_o,
                      1e-10)
        if o.checks != 2:
            o.fail(f"manifest counts {o.checks} checks, expected 2")
        t.expect_code(o, res.code)
    return check


def check_central_power(state: str, grid: bool = False):
    want = orc.central_power_law(state)
    rtol = GRID_RTOL if grid else CATALOG_RTOL

    def check(res, o):
        payload = _report(res, o)
        if payload is None:
            return
        r = payload["results"][0]
        got = {}
        try:
            vir, est, thr = r["virial"], r["ground_energy_estimate"], r["bound_threshold"]
            got = {"mean_T": vir["mean_T"], "mean_V": vir["mean_V"], "total_E": vir["total_E"],
                   "E_formula": vir["E_formula"], "estimate": est["value"],
                   "delta_r2": est["delta_r2"], "radius": thr["radius"]}
        except (KeyError, TypeError):
            o.fail(f"central report lacks virial/estimate/threshold sections: {r}")
            return
        for key, ref in want.items():
            if not _close(got[key], ref, rtol):
                o.fail(f"central {state}: {key} {got[key]} != oracle {ref:.12g}")
        t_, v_ = want["mean_T"], want["mean_V"]
        resid = abs(t_ + 0.5 * v_) / max(abs(t_), abs(v_))
        if not _close(vir["virial_residual"], resid, 0.0, 10.0 * rtol):
            o.fail(f"central {state}: virial residual {vir['virial_residual']} != {resid:.6g}")
        if o.checks != 2 or res.code != 0:
            o.fail(f"central {state}: {o.checks} checks, exit {res.code}; expected 2, 0")
    return check


def check_central_buckingham(state: str):
    want = orc.central_buckingham(state)

    def check(res, o):
        payload = _report(res, o)
        if payload is None:
            return
        b = payload["results"][0].get("buckingham", {})
        if not _close(b.get("bound"), want["bound"], CATALOG_RTOL):
            o.fail(f"buckingham bound {b.get('bound')} != oracle {want['bound']:.12g}")
        if not _close(b.get("actual"), want["actual"], CATALOG_RTOL):
            o.fail(f"buckingham mean {b.get('actual')} != oracle {want['actual']:.12g}")
        if b.get("consistent") is not True or o.checks != 1 or res.code != 0:
            o.fail(f"buckingham: consistent={b.get('consistent')}, {o.checks} checks, "
                   f"exit {res.code}; expected True, 1, 0")
    return check


# ---------------------------------------------------------------------------
# seeded inputs


def _u(rng: random.Random, lo: float, hi: float, nd: int = 3) -> float:
    return round(rng.uniform(lo, hi), nd)


def _fmt(*xs: float) -> str:
    return ",".join(f"{x:g}" for x in xs)


def _write_grid(path: str, r: np.ndarray, u: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# r u (unnormalized; qmoments renormalizes on load)\n")
        fh.writelines(f"{float(a)!r} {float(b)!r}\n" for a, b in zip(r, u))


def _hydrogen_single(rng):
    p, q = _u(rng, 1.0, 4.0), _u(rng, 0.5, 4.9)
    return Op("hydrogen", ["hydrogen", "--p", f"{p:g}", "--q", f"{q:g}"], check_hydrogen(p, q))


def _reciprocal(rng):
    ps = (_u(rng, 0.5, 1.5), _u(rng, 1.5, 4.0))
    qs = (_u(rng, 0.3, 1.5), _u(rng, 1.5, 2.9), 3.0, _u(rng, 3.0, 4.5))
    return Op("reciprocal_sweep",
              ["sweep", "--state", "hydrogen", "--kind", "reciprocal", "--p-grid", _fmt(*ps),
               "--q-grid", _fmt(*qs), "--allow-divergent"],
              check_sweep("hydrogen", "reciprocal", 8, True))


def _central_hydrogen():
    return Op("central_hydrogen", ["central", "--state", "hydrogen", "--alpha", "1", "--beta", "1"],
              check_central_power("hydrogen"))


def _finite(rng, dim: int, trials: int, gate: str, pair: str = "random"):
    seed = rng.randrange(1 << 32)
    p, q = _u(rng, 2.0, 4.0), _u(rng, 1.2, 2.5)
    argv = ["finite", "--dim", str(dim), "--p", f"{p:g}", "--q", f"{q:g}", "--gate", gate]
    if pair == "random":
        argv += ["--trials", str(trials), "--seed", str(seed)]
    else:
        argv += ["--pair", pair]
    return Op(f"finite_{pair}_{dim}x{trials}", argv,
              check_finite(pair, dim, trials, seed, p, q, gate))


def cli_cold(rng: random.Random, work: str) -> Workload:
    """The README examples, one fresh interpreter per op."""
    p, q = _u(rng, 2.0, 4.0), _u(rng, 1.5, 4.5)
    a, b = _u(rng, 1.0, 1.5), _u(rng, 3.5, 4.0)
    c, d = _u(rng, 0.5, 1.0), _u(rng, 4.5, 4.9)
    sweep_csv = os.path.join(work, "table.csv")
    rows = [(_u(rng, -2.0, 2.0, 6), _u(rng, 0.0, 3.0, 6), _u(rng, 0.01, 1.0, 6))
            for _ in range(40)]
    holder_csv = os.path.join(work, "samples.csv")
    with open(holder_csv, "w", encoding="utf-8") as fh:
        fh.write("f,g,weight\n# seeded sample density\n")
        fh.writelines(f"{f!r},{g!r},{w!r}\n" for f, g, w in rows)
    hp, hq = _u(rng, 2.0, 4.0), _u(rng, 1.2, 2.5)
    cycle = [
        Op("hydrogen", ["hydrogen", "--p", f"{p:g}", "--q", f"{q:g}", "--axis", "z"],
           check_hydrogen(p, q)),
        Op("sweep_csv", ["sweep", "--state", "hydrogen", "--p-grid", f"{a:g}:{b:g}:5",
                         "--q-grid", f"{c:g}:{d:g}:5", "--format", "csv", "--out", sweep_csv],
           check_sweep("hydrogen", "canonical", 25, False), out=sweep_csv),
        _reciprocal(rng),
        _finite(rng, 8, 10, "commutator"),
        Op("holder", ["holder", "--data", holder_csv, "--p", f"{hp:g}", "--q", f"{hq:g}"],
           check_holder(rows, hp, hq)),
        _central_hydrogen(),
        Op("central_buckingham", ["central", "--state", "r4test", "--buckingham", "1,1,1"],
           check_central_buckingham("r4test")),
    ]
    return Workload(False, cycle)


def catalog_sweep(rng: random.Random, work: str) -> Workload:
    """Catalog states through in-process cli.main; p50 sits in the single-cell
    hydrogen class (5 of 12 ops), the tail in the r4test class (2 of 12)."""
    cycle = []
    for _ in range(2):
        ps, q0 = (_u(rng, 1.0, 2.0), _u(rng, 2.5, 4.0)), _u(rng, 1.0, 5.0)
        cycle.append(Op("r4test_sweep",
                        ["sweep", "--state", "r4test", "--p-grid", _fmt(*ps),
                         "--q-grid", _fmt(q0, 7.5)],
                        check_sweep("r4test", "canonical", 4, False)))
    for _ in range(2):
        a, b, c = _u(rng, 0.8, 1.2), _u(rng, 3.5, 4.5), _u(rng, 0.5, 1.0)
        cycle.append(Op("hydrogen_sweep48",
                        ["sweep", "--state", "hydrogen", "--p-grid", f"{a:g}:{b:g}:6",
                         "--q-grid", f"{c:g}:4.9:8"],
                        check_sweep("hydrogen", "canonical", 48, False)))
    ps = (_u(rng, 0.8, 1.8), 2.0, _u(rng, 2.5, 4.0))
    qs = (_u(rng, 0.8, 1.8), 2.0, _u(rng, 2.5, 4.0))
    cycle.append(Op("qho_sweep", ["sweep", "--state", "qho", "--i", "x", "--j", "x",
                                  "--p-grid", _fmt(*ps), "--q-grid", _fmt(*qs)],
                    check_sweep("qho", "canonical", 9, False)))
    cycle.append(_reciprocal(rng))
    cycle += [_hydrogen_single(rng) for _ in range(5)]
    cycle.append(_central_hydrogen())
    return Workload(True, cycle)


def grid_state(rng: random.Random, work: str) -> Workload:
    """Radial-grid files: hydrogen on a uniform grid (h = 0.02), r4test on a
    geometric grid with a leading r = 0. The seed sets the amplitude scale of
    each file (qmoments renormalizes it) and jitters the orders; the grid
    geometry is fixed because it sets the cost and the origin-power estimate
    behind defect (a)."""
    h_path = os.path.join(work, "hydrogen_grid.txt")
    r = np.arange(0.0, 40.01, 0.02)
    _write_grid(h_path, r, _u(rng, 0.5, 2.0) * 2.0 * r * np.exp(-r))
    r4_path = os.path.join(work, "r4test_grid.txt")
    r = np.concatenate([[0.0], np.geomspace(1e-3, 45.0, 400)])
    norm = math.sqrt(2.0**9 / math.factorial(8))
    _write_grid(r4_path, r, _u(rng, 0.5, 2.0) * norm * r**4 * np.exp(-r))

    def h_sweep(ps, qs, allow):
        argv = ["sweep", "--grid", h_path, "--p-grid", _fmt(*ps), "--q-grid", _fmt(*qs)]
        return Op("hydrogen_grid_sweep" + ("_q3" if allow else ""),
                  argv + (["--allow-divergent"] if allow else []),
                  check_sweep("hydrogen", "canonical", len(ps) * len(qs), allow, grid=True))

    qs = ((0.9, 1.0), (1.45, 1.55), (2.0, 2.1))
    cycle = [h_sweep([_u(rng, 1.0 + i, 2.0 + i) for i in range(3)],
                     [_u(rng, lo, hi) for lo, hi in qs], False) for _ in range(3)]
    # defect (a): two p values and the three orders above plus q = 3, which
    # costs about as much as a 3x3 sweep, so p50 falls inside these four ops
    cycle.append(h_sweep([_u(rng, 1.0, 2.0), _u(rng, 3.0, 4.0)],
                         [_u(rng, lo, hi) for lo, hi in qs] + [3.0], True))
    cycle.append(Op("central_hydrogen_grid",
                    ["central", "--grid", h_path, "--alpha", "1", "--beta", "1"],
                    check_central_power("hydrogen", grid=True)))
    p, q = _u(rng, 1.5, 3.5), _u(rng, 0.9, 1.0)
    cycle.append(Op("r4test_grid_cell",
                    ["sweep", "--grid", r4_path, "--p-grid", f"{p:g}", "--q-grid", f"{q:g}"],
                    check_sweep("r4test", "canonical", 1, False, grid=True)))
    return Workload(True, cycle)


def finite_trials(rng: random.Random, work: str) -> Workload:
    """Many small, one large and a structured matrix. The dim-40 op runs twice
    per cycle (with its own seed each time), so p50 sits in the middle of that
    class and the tail (11th slowest) inside it too."""
    cycle = [
        _finite(rng, 8, 100, "both"),
        _finite(rng, 40, 1, "both"),
        _finite(rng, 32, 1, "both", pair="truncated-xp"),
        _finite(rng, 40, 1, "both"),
    ]
    return Workload(True, cycle)


WORKLOADS = {f.__name__: f for f in (cli_cold, catalog_sweep, grid_state, finite_trials)}


def build(name: str, seed: int, work: str) -> Workload:
    orc.check_self()
    return WORKLOADS[name](random.Random(seed), work)
