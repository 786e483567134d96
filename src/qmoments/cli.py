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

A catalog run and holder load no numpy: states, matrixlab and quadrature are
deferred modules that --grid and finite load on first use.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import datetime, timezone
from typing import Any

from . import __version__
from .core import (
    CapabilityError,
    DataFormatError,
    DEFAULT_TOLERANCES,
    DIVERGENT,
    DomainError,
    Exponents,
    FAILED,
    MomentsError,
    NATURAL,
    OK,
    PhysicalConstants,
    SI,
    Tolerances,
    Verdict,
    _require_normal,
    _require_slack,
    fresh,
    make_exponents,
    record,
)
from . import centralfield as cf
from . import inequalities as iq
from . import matrixlab, states
from . import moments as mo
from .exact import DIM_3D_SPHERICAL, catalog
from .rng import SplitMix64

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2
EXIT_DIVERGENT = 3

_AXES = {"x": 1, "y": 2, "z": 3, "1": 1, "2": 2, "3": 3}

# the CLI refuses exponents and orders where quadrature is known unstable;
# the library itself accepts any positive value
MAX_CLI_ORDER = 64.0
MIN_CLI_ORDER = 0.05

# the most cells of a sweep, and so the most points of a start:stop:count grid
MAX_SWEEP_CELLS = 10_000

SWEEP_CSV = ("p", "q", "r_star", "lhs", "rhs", "ratio", "holds", "status")
FINITE_CSV = ("trial", "label", "p", "q", "r_star", "lhs", "rhs", "ratio", "margin", "holds")


@record(frozen=False)
class RunConfig:
    tol: Tolerances = DEFAULT_TOLERANCES
    slack: float | None = None
    seed: int = 0
    fmt: str = "json"
    out: str | None = None
    allow_divergent: bool = False
    units: str = "natural"
    constants: PhysicalConstants = NATURAL

    @property
    def si(self) -> bool:
        return self.units == "si"


@record(frozen=False)
class Outcomes:
    checks: int = 0
    holds: int = 0
    violations: int = 0
    divergent: int = 0
    failed: int = 0
    notes: list[str] = fresh(list)

    def add(self, v: Verdict, cell: str = "") -> None:
        """Count one verdict; cell names a sweep cell in the notes."""
        if v.status == OK:
            self.add_check(v.holds)
        elif v.status == DIVERGENT:
            self.add_divergent(f"{cell}: {v.detail}" if cell else v.detail)
        else:
            self.failed += 1
            self.notes.append(f"cell {cell} failed: {v.detail}")

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
        if self.failed:
            return EXIT_ERROR
        if self.violations:
            return EXIT_VIOLATION
        if self.divergent and not cfg.allow_divergent:
            return EXIT_DIVERGENT
        return EXIT_OK


def _manifest(cfg: RunConfig, argv: list[str], outcomes: Outcomes, exit_code: int) -> dict[str, Any]:
    return {
        "command": "qmoments " + " ".join(argv),
        "seed": cfg.seed,
        "tolerances": {"rel_tol": cfg.tol.rel_tol, "abs_tol": cfg.tol.abs_tol,
                       "slack": cfg.slack, "max_evals": cfg.tol.max_evals},
        "constants": {"hbar": cfg.constants.hbar, "mass": cfg.constants.mass,
                      "a0": cfg.constants.a0},
        "units": cfg.units,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "outcomes": {"checks": outcomes.checks, "holds": outcomes.holds,
                     "violations": outcomes.violations, "divergent": outcomes.divergent,
                     "notes": outcomes.notes, "exit_code": exit_code},
    }


def _emit(cfg: RunConfig, report: dict[str, Any], csv_text: str | None) -> None:
    """Write the report. The body, the CSV where there is one and else the
    JSON, goes to --out or stdout; the JSON also goes to stdout after --out,
    or to stderr when the CSV holds stdout. A number out of the double range
    is refused where it is computed, so one in the report is a bug."""
    try:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise MomentsError(f"a non-finite number reached the report: {exc}") from None
    body = text if csv_text is None else csv_text
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(body)
        sys.stdout.write(text)
    else:
        sys.stdout.write(body)
        if csv_text is not None:
            sys.stderr.write(text)


def _check_order(name: str, value: float) -> float:
    v = float(value)
    if not (MIN_CLI_ORDER <= v <= MAX_CLI_ORDER):
        raise DomainError(
            f"{name}={v} outside the CLI range [{MIN_CLI_ORDER}, {MAX_CLI_ORDER}] "
            f"(quadrature of extreme orders is unstable; use the library directly)"
        )
    return v


def _exponents(args) -> Exponents:
    """The exponent set of the orders --p and --q, each in the CLI range."""
    return make_exponents(_check_order("p", args.p), _check_order("q", args.q))


def _entry(v: Verdict, cfg: RunConfig, hbar_power: float) -> dict[str, Any]:
    """The result entry of a verdict: v.to_dict(), whose computed sides (and
    margin and slack) --units si scales by hbar^power, adding a unit.
    DomainError where that takes a nonzero side out of the normal double
    range (to 0, a subnormal or inf): such a side is an error, never a
    number."""
    d = v.to_dict()
    if cfg.si and hbar_power != 0.0 and v.status == OK:
        factor = SI.hbar**hbar_power
        for name in ("lhs", "rhs"):
            if d[name] != 0.0:
                _require_normal(f"{name} in SI units (hbar^{hbar_power:g})", abs(d[name] * factor))
        for key in ("lhs", "rhs", "margin", "slack"):
            d[key] *= factor
        d["unit"] = f"hbar^{hbar_power:g} (J*s)^{hbar_power:g}"
    return d


def _csv(keys: tuple[str, ...], rows: list[dict[str, Any]], cfg: RunConfig) -> str:
    """CSV text of rows under the header keys, with a trailing unit column
    under --units si: floats by repr, booleans lower-case, None and a
    missing key (the unit of a dimensionless or not-computed row) empty."""
    def cell(x) -> str:
        return "" if x is None else str(x).lower() if isinstance(x, bool) else str(x)

    if cfg.si:
        keys += ("unit",)
    lines = [",".join(keys)] + [",".join(cell(r.get(k)) for k in keys) for r in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each returns its outcomes, the report's keys after the
# manifest, and a CSV body or None


def cmd_hydrogen(args, cfg: RunConfig):
    e = _exponents(args)
    i = _AXES[args.i or args.axis]
    j = _AXES[args.j or args.axis]
    state = catalog(cfg.constants, cfg.tol)["hydrogen"]
    out = iq.uncertainty_verdict_canonical(state, i, j, e, cfg.slack)
    outcomes = Outcomes()
    outcomes.add(out)
    body: dict[str, Any] = {"results": [_entry(out, cfg, e.r_star)]}
    if out.status == OK and out.lhs > 0.0:
        coeff = (out.rhs / out.lhs) ** (e.p + e.q)
        body["coefficient_ratio_pow_p_plus_q"] = coeff
        if e.p + e.q == 5.0:
            body["rhs_pow5_over_lhs_pow5"] = coeff
    return outcomes, body, None


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
        if not 1 <= count <= MAX_SWEEP_CELLS:
            raise DomainError(f"grid count must be in [1, {MAX_SWEEP_CELLS}], got {count}")
        return _linspace(start, stop, count)
    vals = [_parse_number(t, what) for t in text.split(",") if t.strip()]
    if not vals:
        raise DomainError("empty grid")
    return vals


def _linspace(start: float, stop: float, count: int) -> list[float]:
    """np.linspace(start, stop, count) bit for bit: start + i*step, the last
    point set to stop, and numpy's branch (i/div)*delta for a step that is 0
    (a subnormal difference over many points)."""
    div = count - 1
    delta = stop - start
    if div == 0:
        return [0 * delta + start]
    step = delta / div
    if step == 0:
        out = [i / div * delta + start for i in range(count)]
    else:
        out = [i * step + start for i in range(count)]
    out[-1] = stop
    return out


def _resolve_state(args, cfg: RunConfig):
    if getattr(args, "grid", None):
        return states.load_radial_grid(args.grid, constants=cfg.constants, tol=cfg.tol)
    named = catalog(cfg.constants, cfg.tol)
    name = args.state
    if name not in named:
        raise DomainError(f"unknown state {name!r}; choose from {sorted(named)} or --grid FILE")
    return named[name]


def cmd_sweep(args, cfg: RunConfig):
    p_grid = [_check_order("p", v) for v in _parse_grid(args.p_grid)]
    q_grid = [_check_order("q", v) for v in _parse_grid(args.q_grid)]
    if len(p_grid) * len(q_grid) > MAX_SWEEP_CELLS:
        raise DomainError(f"a sweep takes at most {MAX_SWEEP_CELLS} cells")
    state = _resolve_state(args, cfg)
    axis = "z" if state.dimensionality == DIM_3D_SPHERICAL else "x"  # default: the state's own
    i = _AXES[args.i or axis]
    j = _AXES[args.j or axis]
    canonical = args.kind == iq.CANONICAL  # reciprocal cells are dimensionless
    outcomes = Outcomes()
    rows = []
    for v in iq.sweep(state, i, j, p_grid, q_grid, kind=args.kind, slack=cfg.slack):
        p, q, r_star = (v.inputs[key] for key in ("p", "q", "r_star"))
        try:
            entry = _entry(v, cfg, r_star if canonical else 0.0)
        except DomainError as exc:  # a failed cell, not a failed sweep
            v = Verdict.not_computed(v.label, FAILED, str(exc), v.inputs)
            entry = v.to_dict()
        outcomes.add(v, cell=f"(p={p}, q={q})")
        rows.append({"p": p, "q": q, "r_star": r_star,
                     **{key: entry.get(key) for key in ("lhs", "rhs", "ratio", "holds")},
                     "status": v.status, "detail": v.detail,
                     **({"unit": entry["unit"]} if "unit" in entry else {})})
    body = {"results": rows, "kind": args.kind, "state": state.label}
    return outcomes, body, _csv(SWEEP_CSV, rows, cfg) if cfg.fmt == "csv" else None


def cmd_finite(args, cfg: RunConfig):
    if args.dim > 256:
        raise DomainError("dim is capped at 256")
    e = _exponents(args)
    if args.pair == "pauli-xy":
        triples = [(matrixlab.pauli("x"), matrixlab.pauli("y"), matrixlab.ground_state(2))]
    elif args.pair == "truncated-xp":
        cc = cfg.constants
        triples = [(*matrixlab.truncated_canonical_pair(args.dim, cc.hbar, cc.mass),
                    matrixlab.ground_state(args.dim))]
    elif args.pair == "random":
        rng = SplitMix64(cfg.seed)
        triples = ((matrixlab.random_hermitian(rng, args.dim),  # each trial draws A, B, psi
                    matrixlab.random_hermitian(rng, args.dim),
                    matrixlab.random_state(rng, args.dim)) for _ in range(args.trials))
    else:
        raise DomainError(f"unknown pair {args.pair!r}")

    hbar_power = e.r_star if args.pair == "truncated-xp" else 0.0  # X P carries hbar
    outcomes = Outcomes()
    results = []
    counterexample = None
    informational_violations = 0
    for trial, (a, b, psi) in enumerate(triples):
        for v in iq.uncertainty_chain_finite(a, b, psi, e, cfg.slack):
            gates = args.gate == "both" or v.label == "finite_commutator"
            if gates:
                outcomes.add(v)
            elif not v.holds:
                informational_violations += 1
            results.append({**_entry(v, cfg, hbar_power), "trial": trial, "gates_exit": gates})
            if gates and not v.holds and counterexample is None:
                counterexample = {
                    "trial": trial,
                    "label": v.label,
                    "p": e.p,
                    "q": e.q,
                    "A": json.loads(matrixlab.matrix_to_json(a.entries)),
                    "B": json.loads(matrixlab.matrix_to_json(b.entries)),
                    "psi": [[float(z.real), float(z.imag)] for z in psi.amplitudes],
                }

    least = min(results, key=lambda d: d["margin"])
    body: dict[str, Any] = {
        "results": results,
        "summary": {
            "trials": args.trials if args.pair == "random" else 1,
            "min_margin": {key: least[key] for key in ("margin", "label", "trial")},
            "violations": outcomes.violations,
            "informational_violations": informational_violations,
            "gate": args.gate,
        },
    }
    if counterexample is not None:
        body["counterexample"] = counterexample
    if cfg.fmt != "csv":
        return outcomes, body, None
    return outcomes, body, _csv(FINITE_CSV, [{**d, **d["inputs"]} for d in results], cfg)


def _read_holder_csv(path: str) -> iq.DiscreteDensity:
    """The density of a CSV file with columns f, g and an optional weight
    (default 1); one pass fills the three columns."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataFormatError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError.not_utf8(path, exc) from exc
    f, g, w = [], [], []
    header = True  # the first line with content may be a header row
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [t.strip() for t in line.split(",")]
        if header:
            header = False
            if not all(map(_is_number, parts)):
                continue
        if len(parts) not in (2, 3):
            raise DataFormatError(f"{path}:{lineno}: expected 2 or 3 columns, got {len(parts)}")
        try:
            x, y = float(parts[0]), float(parts[1])
            weight = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        if weight < 0.0:
            raise DataFormatError(f"{path}:{lineno}: negative weight {weight}")
        f.append(x)
        g.append(y)
        w.append(weight)
    if not f:
        raise DataFormatError(f"{path}: no data rows")
    return iq.DiscreteDensity(f, g, w)


def _is_number(t: str) -> bool:
    try:
        float(t)
        return True
    except ValueError:
        return False


def cmd_holder(args, cfg: RunConfig):
    e = _exponents(args)
    density = _read_holder_csv(args.data)
    verdicts = (iq.holder_verdict(density, e, cfg.slack), iq.schwarz_verdict(density, cfg.slack))
    outcomes = Outcomes()
    for v in verdicts:
        outcomes.add(v)
    return outcomes, {"results": [_entry(v, cfg, 0.0) for v in verdicts]}, None


def _parse_params(text: str, names: tuple[str, ...]) -> list[float]:
    what = f"expected {','.join(names)}, got {text!r}"
    parts = [_parse_number(t, what) for t in text.split(",")]
    if len(parts) != len(names):
        raise DomainError(what)
    return parts


# the SI factor of each scaled key of a central report: an energy
# (hbar^2/(m a0^2)), a length^2, a length, or 1/length (b, the coefficient in
# b<r>^2 + <r> - b<r^2> = 0); the other keys are dimensionless
_SI_ENERGY = SI.hbar**2 / (SI.mass * SI.a0**2)
_CENTRAL_SI = {**dict.fromkeys(("mean_T", "mean_V", "total_E", "E_formula", "value", "bound",
                                "actual", "mean"), _SI_ENERGY),
               **dict.fromkeys(("delta_r2", "mean_r2", "residual"), SI.a0**2),
               "radius": SI.a0, "b": 1.0 / SI.a0}


def cmd_central(args, cfg: RunConfig):
    if args.alpha is None and not args.buckingham and not args.lj:
        raise DomainError("central needs --alpha and/or a potential (--buckingham, --lj)")
    state = _resolve_state(args, cfg)
    c = state.constants
    outcomes = Outcomes()
    report: dict[str, Any] = {"state": state.label}
    if args.alpha is not None:
        pot = cf.PowerLawPotential(args.alpha, args.beta)
        rma = mo.raw_moment(state, mo.radial(), -args.alpha)
        if rma.status == DIVERGENT:
            detail = f"moment of order {rma.order} is {rma.status}: {rma.detail}"
            outcomes.add_divergent(f"virial: {detail}")
            report["virial"] = {"status": DIVERGENT, "detail": detail}
        else:
            # <T> out of the double range raises DomainError: an error, not a divergence
            report["virial"] = cf.virial_report(state, pot, rma)
            outcomes.add_check(True)
        r1 = mo.raw_moment(state, mo.radial(), 1.0)
        r2 = mo.raw_moment(state, mo.radial(), 2.0)
        bad = next((m for m in (r1, r2, rma) if not m.is_convergent), None)
        if bad is None:
            dr2 = r2.value - r1.value**2
            est = cf.ground_energy_estimate(dr2, rma, pot, c)
            note = "estimate only; compare against 0 in either direction"
            report["ground_energy_estimate"] = {"value": est, "delta_r2": dr2, "note": note,
                                                "nonpositive": est <= 0.0}
            # b divides by hbar twice: hbar^2 underflows for hbar below about 2e-162;
            # the residual is the equation over b: b root^2 overflows near b = 1e308
            b = 8.0 * c.mass * args.beta / c.hbar / c.hbar
            root = cf.bound_threshold_radius(r2.value, b)
            report["bound_threshold"] = {"b": b, "mean_r2": r2.value, "radius": root,
                                         "residual": root**2 + root / b - r2.value}
            outcomes.add_check(True)
        elif bad.status == DIVERGENT:
            outcomes.add_divergent(f"threshold moments: {bad.detail}")
        else:
            raise MomentsError(f"threshold moments: {bad.detail}")

    if args.buckingham:
        pot = cf.BuckinghamPotential(*_parse_params(args.buckingham, ("gamma", "r0", "sigma")))
        v = cf.buckingham_bound(state, pot, cfg.slack)
        outcomes.add(v, cell="buckingham")
        # a divergent mean is -infinity: the bound holds vacuously
        report["buckingham"] = {"bound": v.rhs, "consistent": v.holds is not False,
                                **({"actual": v.lhs} if v.status == OK else
                                   {"actual": None, "detail": v.detail})}

    if args.lj:
        pot = cf.LennardJonesPotential(*_parse_params(args.lj, ("eps", "sigma")))
        mean = cf.lennard_jones_mean(state, pot)
        report["lennard_jones"] = {"mean": mean.value}
        if mean.is_convergent:
            outcomes.add_check(True)
        else:
            report["lennard_jones"]["detail"] = mean.detail
            outcomes.add_divergent(f"lennard-jones: {mean.detail}")

    # one pass: a number out of the double range is an error, as computed or as SI-scaled
    for section, entries in report.items():
        for key, x in entries.items() if isinstance(entries, dict) else ():
            if isinstance(x, float) and not math.isfinite(x):
                raise DomainError(f"central: {section}.{key} is {x}; the inputs overflow a double")
            if cfg.si and key in _CENTRAL_SI and x:  # neither None nor 0
                entries[key] = x = x * _CENTRAL_SI[key]
                _require_normal(f"central: {section}.{key} in SI units", abs(x))
    if cfg.si:
        report["units"] = {"energy": "hartree-scaled J", "length": "m",
                           "energy_unit": _SI_ENERGY, "length_unit": SI.a0}
    return outcomes, {"results": [report]}, None


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls, and
    # the subcommand tree costs about 2 ms to build
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

    s = sub.add_parser("sweep", help="verdict table over a (p, q) grid", parents=[common])
    s.add_argument("--state", default="hydrogen")
    s.add_argument("--grid", default=None, help="radial grid file instead of a catalog state")
    s.add_argument("--i", choices=sorted(_AXES), default=None, help="default: the state's own axis")
    s.add_argument("--j", choices=sorted(_AXES), default=None)
    s.add_argument("--p-grid", required=True, help="comma list or start:stop:count")
    s.add_argument("--q-grid", required=True)
    s.add_argument("--kind", choices=[iq.CANONICAL, iq.RECIPROCAL], default=iq.CANONICAL)

    f = sub.add_parser("finite", help="finite-dimensional operator harness", parents=[common])
    f.add_argument("--dim", type=_positive_int, default=2)
    f.add_argument("--pair", choices=["pauli-xy", "truncated-xp", "random"], default="random")
    f.add_argument("--trials", type=_positive_int, default=1)
    f.add_argument("--p", type=float, required=True)
    f.add_argument("--q", type=float, required=True)
    f.add_argument("--gate", choices=["commutator", "both"], default="commutator",
                   help="which chain links decide the exit code (all are reported)")

    ho = sub.add_parser("holder", help="discrete-density checks on CSV data", parents=[common])
    ho.add_argument("--data", required=True, help="CSV with columns f,g[,weight]")
    ho.add_argument("--p", type=float, required=True)
    ho.add_argument("--q", type=float, required=True)

    ce = sub.add_parser("central", help="central force field analysis", parents=[common])
    ce.add_argument("--state", default="hydrogen")
    ce.add_argument("--grid", default=None)
    ce.add_argument("--alpha", type=float, default=None)
    ce.add_argument("--beta", type=float, default=1.0)
    ce.add_argument("--buckingham", default=None, metavar="GAMMA,R0,SIGMA")
    ce.add_argument("--lj", default=None, metavar="EPS,SIGMA")
    return ap


_COMMANDS = {"hydrogen": cmd_hydrogen, "sweep": cmd_sweep, "finite": cmd_finite,
             "holder": cmd_holder, "central": cmd_central}


_CONFIG_KEYS = ("rel_tol", "abs_tol", "max_evals", "slack", "seed", "constants")


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    tol: dict[str, Any] = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8-sig") as fh:
                raw = json.load(fh)
        except UnicodeDecodeError as exc:
            raise DataFormatError.not_utf8(args.config, exc) from exc
        except (OSError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"bad config file: {exc}") from exc
        if not isinstance(raw, dict) or not isinstance(raw.get("constants", {}), dict):
            raise DataFormatError("bad config file: expected a JSON object")
        unknown = [key for key in raw if key not in _CONFIG_KEYS]
        unknown += [key for key in raw.get("constants", {}) if key not in ("hbar", "mass", "a0")]
        if unknown:
            raise DataFormatError(f"bad config file: unknown key {unknown[0]!r}")
        try:
            tol = {key: float(raw[key]) for key in ("rel_tol", "abs_tol") if key in raw}
            if "max_evals" in raw:
                tol["max_evals"] = int(raw["max_evals"])
            if raw.get("slack") is not None:
                cfg.slack = float(raw["slack"])
            cfg.seed = int(raw.get("seed", cfg.seed))
            if "constants" in raw:
                cc = raw["constants"]
                cfg.constants = PhysicalConstants(
                    hbar=float(cc.get("hbar", 1.0)),
                    mass=float(cc.get("mass", 1.0)),
                    a0=float(cc.get("a0", 1.0)),
                )
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataFormatError(f"bad config file: {exc}") from exc
    for key in ("rel_tol", "abs_tol"):
        if hasattr(args, key):
            tol[key] = getattr(args, key)
    for key in ("slack", "seed", "fmt", "out", "allow_divergent", "units"):
        if hasattr(args, key):
            setattr(cfg, key, getattr(args, key))
    if cfg.si and cfg.constants != NATURAL:
        raise DomainError("--units si scales results computed in natural units, "
                          "so it takes no config constants")
    cfg.tol = Tolerances(**tol)
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
        outcomes, body, csv_text = _COMMANDS[args.command](args, cfg)
        code = outcomes.exit_code(cfg)
        _emit(cfg, {"manifest": _manifest(cfg, argv, outcomes, code), **body}, csv_text)
        return code
    except (DomainError, DataFormatError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MomentsError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OverflowError as exc:  # float arithmetic on inputs near the double limits
        print(f"error: the inputs overflow a double ({exc.args[-1]})", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
