"""Command-line interface: reproducible inequality checks with manifests.

Subcommands
    hydrogen   canonical-pair verdict on the hydrogen ground state
    sweep      verdict table over a (p, q) exponent grid
    finite     finite-dimensional operator harness (seeded trials)
    holder     discrete-density checks on a CSV file
    central    central-force-field analysis of a catalog state

Exit codes: 0 all checks hold; 1 usage/IO/internal error; 2 at least one
inequality violation detected; 3 a required moment diverged and
--allow-divergent was not given.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any

import numpy as np

from . import __version__
from .core import (
    DataFormatError,
    DomainError,
    MomentsError,
    NATURAL,
    PhysicalConstants,
    SI,
    Verdict,
    _require_positive_finite,
    _require_slack,
    make_exponents,
)
from . import centralfield as cf
from . import inequalities as iq
from . import moments as mo
from .matrixlab import (
    FiniteState,
    ground_state,
    matrix_to_json,
    pauli,
    random_hermitian,
    random_state,
    truncated_canonical_pair,
)
from .quadrature import set_default_tolerances
from .rng import SplitMix64
from .states import catalog, load_radial_grid

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2
EXIT_DIVERGENT = 3

_AXES = {"x": 1, "y": 2, "z": 3, "1": 1, "2": 2, "3": 3}

# the CLI refuses exponents and orders where quadrature is known unstable;
# the library itself accepts any positive value
MAX_CLI_ORDER = 64.0
MIN_CLI_ORDER = 0.05


@dataclass
class RunConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    slack: float | None = None
    seed: int = 0
    fmt: str = "json"
    out: str | None = None
    allow_divergent: bool = False
    units: str = "natural"
    constants: PhysicalConstants = NATURAL
    max_evals: int = 1_000_000

    @property
    def si(self) -> bool:
        return self.units == "si"

    @property
    def compute_constants(self) -> PhysicalConstants:
        """Constants used to build states. SI output mode still computes in
        natural units (quadrature at SI magnitudes would underflow); emitted
        quantities are rescaled by their dimension factors instead."""
        return NATURAL if self.si else self.constants


@dataclass
class Outcomes:
    checks: int = 0
    holds: int = 0
    violations: int = 0
    divergent: int = 0
    notes: list[str] = field(default_factory=list)

    def add_check(self, holds: bool) -> None:
        self.checks += 1
        if holds:
            self.holds += 1
        else:
            self.violations += 1

    def add_divergent(self, detail: str) -> None:
        self.checks += 1
        self.divergent += 1
        self.notes.append(detail)

    def exit_code(self, cfg: RunConfig) -> int:
        if self.violations:
            return EXIT_VIOLATION
        if self.divergent and not cfg.allow_divergent:
            return EXIT_DIVERGENT
        return EXIT_OK


def _manifest(cfg: RunConfig, argv: list[str], outcomes: Outcomes, exit_code: int) -> dict[str, Any]:
    return {
        "command": "qmoments " + " ".join(argv),
        "seed": cfg.seed,
        "tolerances": {"rel_tol": cfg.rel_tol, "abs_tol": cfg.abs_tol,
                       "slack": cfg.slack, "max_evals": cfg.max_evals},
        "constants": {"hbar": cfg.constants.hbar, "mass": cfg.constants.mass,
                      "a0": cfg.constants.a0},
        "units": cfg.units,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "outcomes": {"checks": outcomes.checks, "holds": outcomes.holds,
                     "violations": outcomes.violations, "divergent": outcomes.divergent,
                     "notes": outcomes.notes, "exit_code": exit_code},
    }


def _sanitize(obj):
    """Replace non-finite floats with None so emitted JSON stays portable."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _sanitize(float(obj))
    return obj


def _emit(cfg: RunConfig, payload: dict[str, Any], text_body: str | None = None) -> None:
    """Write the report. CSV bodies go to --out (or stdout) with the JSON
    manifest on stdout (or stderr when the CSV itself uses stdout)."""
    if text_body is not None:
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text_body)
            print(json.dumps(_sanitize(payload), indent=2))
        else:
            sys.stdout.write(text_body)
            print(json.dumps(_sanitize(payload), indent=2), file=sys.stderr)
        return
    text = json.dumps(_sanitize(payload), indent=2)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(text)
    else:
        print(text)


def _check_order(name: str, value: float) -> float:
    v = float(value)
    if not (MIN_CLI_ORDER <= v <= MAX_CLI_ORDER):
        raise DomainError(
            f"{name}={v} outside the CLI range [{MIN_CLI_ORDER}, {MAX_CLI_ORDER}] "
            f"(quadrature of extreme orders is unstable; use the library directly)"
        )
    return v


def _scaled_verdict_dict(v: Verdict, cfg: RunConfig, hbar_power: float) -> dict[str, Any]:
    """Verdict as a dict; under --units si both sides scale by hbar^power."""
    d = v.to_dict()
    if cfg.si and hbar_power != 0.0:
        factor = SI.hbar**hbar_power
        d["lhs"] *= factor
        d["rhs"] *= factor
        d["margin"] *= factor
        d["slack"] *= factor
        d["unit"] = f"hbar^{hbar_power:g} (J*s)^{hbar_power:g}"
    return d


# ---------------------------------------------------------------------------
# subcommands


def cmd_hydrogen(args, cfg: RunConfig, argv: list[str]) -> int:
    p = _check_order("p", args.p)
    q = _check_order("q", args.q)
    e = make_exponents(p, q)
    i = _AXES[args.i or args.axis]
    j = _AXES[args.j or args.axis]
    state = catalog(cfg.compute_constants)["hydrogen"]
    out = iq.uncertainty_verdict_canonical(state, i, j, e, cfg.slack)
    outcomes = Outcomes()
    results: list[dict[str, Any]] = []
    extras: dict[str, Any] = {}
    if isinstance(out, iq.DivergenceReport):
        outcomes.add_divergent(out.detail)
        results.append(out.to_dict())
    else:
        outcomes.add_check(out.holds)
        results.append(_scaled_verdict_dict(out, cfg, e.r_star))
        if out.lhs > 0.0:
            coeff = (out.rhs / out.lhs) ** (p + q)
            extras["coefficient_ratio_pow_p_plus_q"] = coeff
            if p + q == 5.0:
                extras["rhs_pow5_over_lhs_pow5"] = coeff
    code = outcomes.exit_code(cfg)
    payload = {"manifest": _manifest(cfg, argv, outcomes, code), "results": results}
    payload.update(extras)
    _emit(cfg, payload)
    return code


def _parse_number(text: str, what: str, kind: type = float):
    try:
        return kind(text)
    except ValueError:
        raise DomainError(f"{what}: {text.strip()!r} is not a valid {kind.__name__}") from None


def _parse_grid(text: str) -> list[float]:
    text = text.strip()
    what = f"grid spec {text!r}"
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"{what} must be start:stop:count or a comma list")
        start, stop = (_parse_number(t, what) for t in parts[:2])
        count = _parse_number(parts[2], what, int)
        if count < 1:
            raise DomainError("grid count must be >= 1")
        return list(np.linspace(start, stop, count))
    vals = [_parse_number(t, what) for t in text.split(",") if t.strip()]
    if not vals:
        raise DomainError("empty grid")
    return vals


def _resolve_state(args, cfg: RunConfig):
    if getattr(args, "grid", None):
        return load_radial_grid(args.grid, constants=cfg.compute_constants)
    states = catalog(cfg.compute_constants)
    name = args.state
    if name not in states:
        raise DomainError(f"unknown state {name!r}; choose from {sorted(states)} or --grid FILE")
    return states[name]


def cmd_sweep(args, cfg: RunConfig, argv: list[str]) -> int:
    p_grid = [_check_order("p", v) for v in _parse_grid(args.p_grid)]
    q_grid = [_check_order("q", v) for v in _parse_grid(args.q_grid)]
    state = _resolve_state(args, cfg)
    i = _AXES[args.i]
    j = _AXES[args.j]
    table = iq.sweep(state, i, j, p_grid, q_grid, kind=args.kind, slack=cfg.slack)
    outcomes = Outcomes()
    failed_cells = 0
    for row in table.rows:
        if row.status == "ok":
            outcomes.add_check(row.holds)
        elif row.status == "divergent":
            outcomes.add_divergent(f"(p={row.p}, q={row.q}): {row.detail}")
        else:
            failed_cells += 1
            outcomes.notes.append(f"cell (p={row.p}, q={row.q}) failed: {row.detail}")
    code = EXIT_ERROR if failed_cells else outcomes.exit_code(cfg)
    payload = {
        "manifest": _manifest(cfg, argv, outcomes, code),
        "results": [_sanitize(r.to_dict()) for r in table.rows],
        "kind": table.kind,
        "state": state.label,
    }
    _emit(cfg, payload, text_body=table.to_csv() if cfg.fmt == "csv" else None)
    return code


def cmd_finite(args, cfg: RunConfig, argv: list[str]) -> int:
    if args.dim > 256:
        raise DomainError("dim is capped at 256")
    p = _check_order("p", args.p)
    q = _check_order("q", args.q)
    e = make_exponents(p, q)
    outcomes = Outcomes()
    results = []
    counterexample = None
    margins = []

    informational_violations = 0

    def run_pair(a, b, psi, trial):
        nonlocal counterexample, informational_violations
        v1, v2 = iq.uncertainty_chain_finite(a, b, psi, e, cfg.slack)
        for v in (v1, v2):
            gates = args.gate == "both" or v.label == "finite_commutator"
            if gates:
                outcomes.add_check(v.holds)
            elif not v.holds:
                informational_violations += 1
            d = v.to_dict()
            d["trial"] = trial
            d["gates_exit"] = gates
            results.append(d)
            margins.append((v.margin, v.label, trial))
            if gates and not v.holds and counterexample is None:
                counterexample = {
                    "trial": trial,
                    "label": v.label,
                    "p": p,
                    "q": q,
                    "A": json.loads(matrix_to_json(a.entries)),
                    "B": json.loads(matrix_to_json(b.entries)),
                    "psi": [[float(z.real), float(z.imag)] for z in psi.amplitudes],
                }

    if args.pair == "pauli-xy":
        psi = ground_state(2) if args.state == "ground" else FiniteState([1, 0])
        run_pair(pauli("x"), pauli("y"), psi, 0)
    elif args.pair == "truncated-xp":
        cc = cfg.compute_constants
        x, pm = truncated_canonical_pair(args.dim, cc.hbar, cc.mass)
        if args.state != "ground":
            raise DomainError("truncated-xp supports --state ground only")
        run_pair(x, pm, ground_state(args.dim), 0)
    elif args.pair == "random":
        rng = SplitMix64(cfg.seed)
        for t in range(args.trials):
            a = random_hermitian(rng, args.dim)
            b = random_hermitian(rng, args.dim)
            psi = random_state(rng, args.dim)
            run_pair(a, b, psi, t)
    else:
        raise DomainError(f"unknown pair {args.pair!r}")

    min_margin = min(margins, key=lambda m: m[0]) if margins else None
    code = outcomes.exit_code(cfg)
    payload = {
        "manifest": _manifest(cfg, argv, outcomes, code),
        "results": results,
        "summary": {
            "trials": args.trials if args.pair == "random" else 1,
            "min_margin": None if min_margin is None else {
                "margin": min_margin[0], "label": min_margin[1], "trial": min_margin[2]},
            "violations": outcomes.violations,
            "informational_violations": informational_violations,
            "gate": args.gate,
        },
    }
    if counterexample is not None:
        payload["counterexample"] = counterexample
    if cfg.fmt == "csv":
        lines = ["trial,label,p,q,r_star,lhs,rhs,ratio,margin,holds"]
        for d in results:
            lines.append(
                f"{d['trial']},{d['label']},{p!r},{q!r},{e.r_star!r},{d['lhs']!r},"
                f"{d['rhs']!r},{d['ratio']!r},{d['margin']!r},{str(d['holds']).lower()}"
            )
        _emit(cfg, payload, text_body="\n".join(lines) + "\n")
    else:
        _emit(cfg, payload)
    return code


def _read_holder_csv(path: str) -> iq.DiscreteDensity:
    rows: list[tuple[float, float, float]] = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot open {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [t.strip() for t in line.split(",")]
            if lineno == 1 and any(not _is_number(t) for t in parts):
                continue  # optional header row
            if len(parts) not in (2, 3):
                raise DataFormatError(f"{path}:{lineno}: expected 2 or 3 columns, got {len(parts)}")
            try:
                f = float(parts[0])
                g = float(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
            if w < 0.0:
                raise DataFormatError(f"{path}:{lineno}: negative weight {w}")
            rows.append((f, g, w))
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return iq.DiscreteDensity.from_points(rows)


def _is_number(t: str) -> bool:
    try:
        float(t)
        return True
    except ValueError:
        return False


def cmd_holder(args, cfg: RunConfig, argv: list[str]) -> int:
    p = _check_order("p", args.p)
    q = _check_order("q", args.q)
    e = make_exponents(p, q)
    density = _read_holder_csv(args.data)
    v1 = iq.holder_verdict(density, e, cfg.slack)
    v2 = iq.schwarz_verdict(density, cfg.slack)
    outcomes = Outcomes()
    outcomes.add_check(v1.holds)
    outcomes.add_check(v2.holds)
    code = outcomes.exit_code(cfg)
    payload = {
        "manifest": _manifest(cfg, argv, outcomes, code),
        "results": [v1.to_dict(), v2.to_dict()],
    }
    _emit(cfg, payload)
    return code


def _parse_params(text: str, names: tuple[str, ...]) -> list[float]:
    what = f"expected {','.join(names)}, got {text!r}"
    parts = [_parse_number(t, what) for t in text.split(",")]
    if len(parts) != len(names):
        raise DomainError(what)
    if any(v <= 0.0 for v in parts):
        raise DomainError(f"{','.join(names)} must all be positive")
    return parts


def cmd_central(args, cfg: RunConfig, argv: list[str]) -> int:
    if args.alpha is None and not args.buckingham and not args.lj:
        raise DomainError("central needs --alpha and/or a potential (--buckingham, --lj)")
    state = _resolve_state(args, cfg)
    c = state.constants
    outcomes = Outcomes()
    report: dict[str, Any] = {"state": state.label}
    energy_unit = SI.hbar**2 / (SI.mass * SI.a0**2) if cfg.si else 1.0
    length_unit = SI.a0 if cfg.si else 1.0

    if args.alpha is not None:
        pot = cf.PowerLawPotential(args.alpha, args.beta)
        try:
            rep = cf.virial_report(state, pot)
            report["virial"] = {
                "mean_T": rep.mean_T * energy_unit,
                "mean_V": rep.mean_V * energy_unit,
                "total_E": rep.total_E * energy_unit,
                "virial_residual": rep.virial_residual,
                "E_formula": rep.e_formula * energy_unit,
                "alpha": rep.alpha,
                "beta": rep.beta,
            }
            outcomes.add_check(True)
        except DomainError as exc:
            outcomes.add_divergent(f"virial: {exc}")
            report["virial"] = {"status": "divergent", "detail": str(exc)}

        r1 = mo.raw_moment(state, mo.radial(), 1.0)
        r2 = mo.raw_moment(state, mo.radial(), 2.0)
        rma = mo.raw_moment(state, mo.radial(), -args.alpha)
        if r1.is_convergent and r2.is_convergent and rma.is_convergent:
            dr2 = r2.value - r1.value**2
            est = cf.ground_energy_estimate(dr2, rma, pot, c)
            report["ground_energy_estimate"] = {
                "value": est * energy_unit,
                "delta_r2": dr2 * length_unit**2,
                "note": "estimate only; compare against 0 in either direction",
                "nonpositive": est <= 0.0,
            }
            b = 8.0 * c.mass * args.beta / c.hbar**2
            root = cf.bound_threshold_radius(r2.value, b)
            report["bound_threshold"] = {
                "b": b,
                "mean_r2": r2.value * length_unit**2,
                "radius": root * length_unit,
                "residual": b * root**2 + root - b * r2.value,
            }
            outcomes.add_check(True)
        else:
            bad = [m for m in (r1, r2, rma) if not m.is_convergent][0]
            outcomes.add_divergent(f"threshold moments: {bad.detail}")

    if args.buckingham:
        g, r0, s_ = _parse_params(args.buckingham, ("gamma", "r0", "sigma"))
        res = cf.buckingham_bound(state, cf.BuckinghamPotential(g, r0, s_))
        entry: dict[str, Any] = {
            "bound": res.bound * energy_unit,
            "consistent": res.consistent,
        }
        if res.actual.is_convergent:
            entry["actual"] = res.actual.value * energy_unit
            outcomes.add_check(res.consistent)
        else:
            entry["actual"] = None
            entry["detail"] = res.actual.detail
            outcomes.add_divergent(f"buckingham: {res.actual.detail}")
        report["buckingham"] = entry

    if args.lj:
        eps, s_ = _parse_params(args.lj, ("eps", "sigma"))
        res = cf.lennard_jones_mean(state, cf.LennardJonesPotential(eps, s_))
        if res.is_convergent:
            report["lennard_jones"] = {"mean": res.value * energy_unit}
            outcomes.add_check(True)
        else:
            report["lennard_jones"] = {"mean": None, "detail": res.detail}
            outcomes.add_divergent(f"lennard-jones: {res.detail}")

    if cfg.si:
        report["units"] = {"energy": "hartree-scaled J", "length": "m",
                           "energy_unit": energy_unit, "length_unit": length_unit}
    code = outcomes.exit_code(cfg)
    payload = {"manifest": _manifest(cfg, argv, outcomes, code), "results": [report]}
    _emit(cfg, payload)
    return code


# ---------------------------------------------------------------------------
# argument plumbing


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    # global flags are accepted both before and after the subcommand; SUPPRESS
    # keeps the subparser from clobbering values parsed by the main parser
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("global options")
    g.add_argument("--config", default=argparse.SUPPRESS, help="JSON config file (flags override it)")
    g.add_argument("--rel-tol", type=float, default=argparse.SUPPRESS)
    g.add_argument("--abs-tol", type=float, default=argparse.SUPPRESS)
    g.add_argument("--slack", type=float, default=argparse.SUPPRESS, help="verdict slack (absolute)")
    g.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    g.add_argument("--out", default=argparse.SUPPRESS, help="output file path")
    g.add_argument("--format", dest="fmt", choices=["json", "csv"], default=argparse.SUPPRESS)
    g.add_argument("--allow-divergent", action="store_true", default=argparse.SUPPRESS)
    g.add_argument("--units", choices=["natural", "si"], default=argparse.SUPPRESS)

    ap = argparse.ArgumentParser(prog="qmoments", description=__doc__, parents=[common],
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    h = sub.add_parser("hydrogen", help="canonical-pair verdict for hydrogen", parents=[common])
    h.add_argument("--p", type=float, required=True)
    h.add_argument("--q", type=float, required=True)
    h.add_argument("--axis", choices=sorted(_AXES), default="z")
    h.add_argument("--i", choices=sorted(_AXES), default=None)
    h.add_argument("--j", choices=sorted(_AXES), default=None)
    h.set_defaults(func=cmd_hydrogen)

    s = sub.add_parser("sweep", help="verdict table over a (p, q) grid", parents=[common])
    s.add_argument("--state", default="hydrogen")
    s.add_argument("--grid", default=None, help="radial grid file instead of a catalog state")
    s.add_argument("--i", choices=sorted(_AXES), default="z")
    s.add_argument("--j", choices=sorted(_AXES), default="z")
    s.add_argument("--p-grid", required=True, help="comma list or start:stop:count")
    s.add_argument("--q-grid", required=True)
    s.add_argument("--kind", choices=[iq.CANONICAL, iq.RECIPROCAL], default=iq.CANONICAL)
    s.set_defaults(func=cmd_sweep)

    f = sub.add_parser("finite", help="finite-dimensional operator harness", parents=[common])
    f.add_argument("--dim", type=int, default=2)
    f.add_argument("--pair", choices=["pauli-xy", "truncated-xp", "random"], default="random")
    f.add_argument("--trials", type=_positive_int, default=1)
    f.add_argument("--p", type=float, required=True)
    f.add_argument("--q", type=float, required=True)
    f.add_argument("--state", default="ground", help="initial state for named pairs")
    f.add_argument("--gate", choices=["commutator", "both"], default="commutator",
                   help="which chain links decide the exit code (all are reported)")
    f.set_defaults(func=cmd_finite)

    ho = sub.add_parser("holder", help="discrete-density checks on CSV data", parents=[common])
    ho.add_argument("--data", required=True, help="CSV with columns f,g[,weight]")
    ho.add_argument("--p", type=float, required=True)
    ho.add_argument("--q", type=float, required=True)
    ho.set_defaults(func=cmd_holder)

    ce = sub.add_parser("central", help="central force field analysis", parents=[common])
    ce.add_argument("--state", default="hydrogen")
    ce.add_argument("--grid", default=None)
    ce.add_argument("--alpha", type=float, default=None)
    ce.add_argument("--beta", type=float, default=1.0)
    ce.add_argument("--buckingham", default=None, metavar="GAMMA,R0,SIGMA")
    ce.add_argument("--lj", default=None, metavar="EPS,SIGMA")
    ce.set_defaults(func=cmd_central)
    return ap


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"bad config file: {exc}") from exc
        if not isinstance(raw, dict) or not isinstance(raw.get("constants", {}), dict):
            raise DataFormatError("bad config file: expected a JSON object")
        try:
            cfg.rel_tol = float(raw.get("rel_tol", cfg.rel_tol))
            cfg.abs_tol = float(raw.get("abs_tol", cfg.abs_tol))
            if raw.get("slack") is not None:
                cfg.slack = float(raw["slack"])
            cfg.seed = int(raw.get("seed", cfg.seed))
            cfg.max_evals = int(raw.get("max_evals", cfg.max_evals))
            if "constants" in raw:
                cc = raw["constants"]
                cfg.constants = PhysicalConstants(
                    hbar=float(cc.get("hbar", 1.0)),
                    mass=float(cc.get("mass", 1.0)),
                    a0=float(cc.get("a0", 1.0)),
                )
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataFormatError(f"bad config file: {exc}") from exc
    for attr, key in (("rel_tol", "rel_tol"), ("abs_tol", "abs_tol"), ("slack", "slack"),
                      ("seed", "seed"), ("fmt", "fmt"), ("out", "out"),
                      ("allow_divergent", "allow_divergent"), ("units", "units")):
        if hasattr(args, attr):
            setattr(cfg, key, getattr(args, attr))
    cfg.rel_tol = _require_positive_finite("rel_tol", cfg.rel_tol)
    cfg.abs_tol = _require_positive_finite("abs_tol", cfg.abs_tol)
    if cfg.slack is not None:
        cfg.slack = _require_slack(cfg.slack)
    return cfg


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(args)
        set_default_tolerances(cfg.rel_tol, cfg.abs_tol, cfg.max_evals)
        return args.func(args, cfg, argv)
    except (DomainError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MomentsError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        set_default_tolerances(1e-10, 1e-14, 1_000_000)


if __name__ == "__main__":
    sys.exit(main())
