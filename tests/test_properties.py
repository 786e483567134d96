"""Property tests: the Exponents invariants, the grid file reader, the a:b:n
grid spec, the CLI on fuzzed tolerance, slack, dimension, potential and
config-file values, and on edge floats in holder CSVs, orders, grid specs,
grid files, finite and central runs and config constants, and the discrete
Holder and Schwarz sides against exact rationals. Skipped where hypothesis
is absent."""

import contextlib
import io
import json
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from qmoments.cli import (  # noqa: E402
    EXIT_DIVERGENT,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_VIOLATION,
    MAX_SWEEP_CELLS,
    _parse_grid,
    main,
)
from qmoments.core import DomainError, make_exponents  # noqa: E402
from qmoments.inequalities import DiscreteDensity, holder_verdict, schwarz_verdict  # noqa: E402
from qmoments.states import _read_grid  # noqa: E402

# derandomized so that a tier-1 run never depends on the draw
FIXED = settings(derandomize=True, database=None, deadline=None)

@FIXED
@given(p=st.floats(min_value=1e-3, max_value=1e3), q=st.floats(min_value=1e-3, max_value=1e3))
def test_exponents_invariants(p, q):
    e = make_exponents(p, q)
    assert e.r_inv * e.r_star == pytest.approx(1.0, rel=1e-14)
    assert e.w_f + e.w_g == pytest.approx(1.0, rel=1e-15)
    s = make_exponents(e.q, e.p)
    assert make_exponents(s.q, s.p) == e


# the finite draws stay in a range where one hydrogen run takes milliseconds
tolerances = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]),
                       st.floats(min_value=1e-9, max_value=1e-3))
slacks = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -1e-3]),
                   st.floats(min_value=0.0, max_value=1.0))


@settings(FIXED, max_examples=40)
@given(data=st.data(), flag=st.sampled_from(["--slack", "--rel-tol"]))
def test_cli_never_raises_on_fuzzed_tolerances(data, flag):
    value = data.draw(slacks if flag == "--slack" else tolerances)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["hydrogen", "--p", "3", "--q", "2", f"{flag}={value!r}"])
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_VIOLATION)
    if not math.isfinite(value):
        assert code == EXIT_ERROR
    if code == EXIT_ERROR:
        assert len([ln for ln in err.getvalue().splitlines() if "error:" in ln]) == 1


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == EXIT_ERROR:
        assert len([ln for ln in err.getvalue().splitlines() if "error:" in ln]) == 1
    return code


# dims 9..256 are valid and only slower, so the draws skip them
@settings(FIXED, max_examples=30)
@given(dim=st.one_of(st.integers(min_value=-2, max_value=8), st.integers(max_value=-3),
                    st.integers(min_value=257)))
def test_cli_never_raises_on_fuzzed_dim(dim):
    code = _run(["finite", f"--dim={dim}", "--p", "2", "--q", "2"])
    assert code in (EXIT_OK, EXIT_VIOLATION) if 1 <= dim <= 256 else code == EXIT_ERROR


reals = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0]), st.floats())


@settings(FIXED, max_examples=40)
@given(alpha=reals, beta=reals)
# tiny b = 8 beta: b*b underflows (1e-170, 1e-300), b itself is subnormal (5e-324)
@example(alpha=1.0, beta=1e-170)
@example(alpha=1.0, beta=1e-300)
@example(alpha=1.0, beta=5e-324)
def test_cli_never_raises_on_fuzzed_power_law(alpha, beta):
    code = _run(["central", f"--alpha={alpha!r}", f"--beta={beta!r}"])
    valid = all(math.isfinite(x) and x > 0.0 for x in (alpha, beta))
    assert code in (EXIT_OK, EXIT_DIVERGENT) if valid else code == EXIT_ERROR


# each config key is absent, drawn from values it must refuse or that leave
# the double range on the way, or drawn from valid ones; tolerance draws stay
# in [1e-9, 1e-3] so that one hydrogen run stays fast
_BAD = [math.nan, math.inf, -math.inf, 0.0, -1.0, "abc", [1.0], None, 1e300]
_bad = st.sampled_from(_BAD)
_extreme = st.sampled_from(_BAD + [1e-300])
_config_keys = {
    "rel_tol": st.one_of(_bad, st.floats(min_value=1e-9, max_value=1e-3)),
    "max_evals": st.one_of(_extreme, st.integers(min_value=45, max_value=200_000)),
    "slack": st.one_of(_extreme, st.floats(min_value=0.0, max_value=1.0)),
    "seed": st.one_of(_extreme, st.integers(min_value=0, max_value=2**64)),
}
_constants = st.dictionaries(st.sampled_from(["hbar", "mass", "a0"]),
                             st.one_of(_extreme, st.floats(min_value=0.1, max_value=10.0)))
_configs = st.one_of(
    st.sampled_from([[], "rel_tol", 1.0, None, {"constants": []}, {"constants": 1.0}]),
    st.fixed_dictionaries({}, optional={**_config_keys, "constants": _constants}),
)


@settings(FIXED, max_examples=60)
@given(config=_configs)
# a0 = 1e-300 makes <|z|^3> underflow and a0 = 1e300 makes it overflow;
# hbar = 1e300 overflows <|p_z|^2>, and hbar = 1e-300 underflows it and the
# left side (hbar/2)^r*, which read 0.0 and held vacuously before
@example(config={"constants": {"a0": 1e-300}})
@example(config={"constants": {"a0": 1e300}})
@example(config={"constants": {"hbar": 1e300}})
@example(config={"constants": {"hbar": 1e-300}})
def test_cli_never_raises_on_fuzzed_config(tmp_path_factory, config):
    path = tmp_path_factory.getbasetemp() / "config_property.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(["--config", str(path), "hydrogen", "--p", "3", "--q", "2"])
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_VIOLATION, EXIT_DIVERGENT)
    assert caught == []
    if code == EXIT_ERROR:
        [line] = err.getvalue().splitlines()
        assert line.startswith("error: ")


# ends of an a:b:n grid: magnitudes 1e-300 to 1e300 of either sign, or 0
_magnitudes = st.floats(min_value=1e-300, max_value=1e300)
_ends = st.one_of(st.sampled_from([0.0, -0.0]), _magnitudes, _magnitudes.map(lambda x: -x))


@FIXED
@given(a=_ends, b=_ends, count=st.integers(min_value=1, max_value=50),
       shape=st.sampled_from(["as drawn", "equal", "reversed"]))
# adjacent subnormals: the step delta/(n-1) underflows to 0, numpy's branch
@example(a=5e-324, b=1e-323, count=50, shape="as drawn")
def test_grid_spec_is_numpy_linspace_bit_for_bit(a, b, count, shape):
    if shape == "equal":
        b = a
    elif shape == "reversed":
        a, b = b, a
    got = _parse_grid(f"{a!r}:{b!r}:{count}")
    assert all(type(x) is float for x in got)
    assert np.array(got).tobytes() == np.linspace(a, b, count).tobytes()


def _no_null(x) -> bool:
    if isinstance(x, dict):
        return all(_no_null(v) for v in x.values())
    if isinstance(x, list):
        return all(_no_null(v) for v in x)
    return x is not None


positive_doubles = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(FIXED, max_examples=40)
@given(gamma=positive_doubles, r0=positive_doubles, sigma=positive_doubles)
def test_cli_never_raises_on_fuzzed_buckingham(gamma, r0, sigma):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["central", "--state", "r4test", f"--buckingham={gamma!r},{r0!r},{sigma!r}"])
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_DIVERGENT)
    if code == EXIT_ERROR:
        assert len([ln for ln in err.getvalue().splitlines() if "error:" in ln]) == 1
    if code == EXIT_OK:
        assert _no_null(json.loads(out.getvalue())["results"])


finite_doubles = st.floats(allow_nan=False, allow_infinity=False)
entries = st.tuples(finite_doubles, st.sampled_from([repr, "{:.6e}".format])).map(lambda t: t[1](t[0]))
data_lines = st.builds(
    "{}{}{}{}{}".format,
    st.sampled_from(["", " ", "\t"]), entries, st.sampled_from([" ", "\t", " \t  "]), entries,
    st.sampled_from(["", " ", "\t", " # r u", "#c", "\t# 1 2 3"]),
)
other_lines = st.sampled_from(["", "   ", "\t", "# r u", "  # comment 1 2 3", "#"])


def _float_per_token(text: str) -> tuple[list[float], list[float]]:
    """The reference: float() on each token of each line, comments cut."""
    rs, us = [], []
    for line in text.replace("\r\n", "\n").split("\n"):
        tokens = line.split("#", 1)[0].split()
        if tokens:
            r, u = tokens
            rs.append(float(r))
            us.append(float(u))
    return rs, us


@settings(FIXED, max_examples=60)
@given(lines=st.lists(st.one_of(data_lines, other_lines), max_size=25),
       eol=st.sampled_from(["\n", "\r\n"]), last_eol=st.booleans(), underscore=st.booleans())
def test_grid_reader_matches_float_per_token(tmp_path_factory, lines, eol, last_eol, underscore):
    # an underscore token is float() syntax numpy's reader refuses, so the
    # file then goes through the line reader
    if underscore:
        lines = lines + ["1_000.5 -2_5e-1"]
    text = eol.join(lines) + (eol if last_eol else "")
    path = tmp_path_factory.getbasetemp() / "grid_property.txt"
    path.write_bytes(text.encode("utf-8"))
    r, u = _read_grid(path)
    want_r, want_u = _float_per_token(text)
    assert r.dtype == u.dtype == np.float64
    assert r.tobytes() == np.array(want_r, dtype=float).tobytes()
    assert u.tobytes() == np.array(want_u, dtype=float).tobytes()


# edge floats (0, subnormals, the top of the double range and inf, each of
# either sign), mixed with in-range orders and density values so that most
# draws reach a verdict
_EDGES = [0.0, 5e-324, 1e-310, 1e308, math.inf]
edge_floats = st.sampled_from(_EDGES + [-x for x in _EDGES])
_in_range = st.one_of(st.floats(min_value=0.05, max_value=64.0),
                      st.sampled_from([0.05, 0.5, 1.0, 2.0, 3.0, 64.0]))
edge_orders = st.one_of(_in_range, _in_range, edge_floats)  # mostly orders that compute
edge_counts = st.one_of(st.integers(min_value=1, max_value=4),
                        st.sampled_from([MAX_SWEEP_CELLS, MAX_SWEEP_CELLS + 1]))
_values = st.one_of(st.floats(-10.0, 10.0), edge_floats)
holder_rows = st.lists(st.tuples(_values, _values, st.one_of(st.floats(0.0, 10.0), edge_floats)),
                       min_size=1, max_size=4)


def _grid_spec(draw):
    if draw(st.booleans()):
        return ",".join(repr(x) for x in draw(st.lists(edge_orders, min_size=1, max_size=3)))
    return f"{draw(edge_orders)!r}:{draw(edge_orders)!r}:{draw(edge_counts)}"


_GRID_DEFECTS = ["none"] * 4 + ["few", "tiny r", "huge r", "tiny u", "huge u", "reversed",
                                 "repeated", "edge"]


@st.composite
def grid_texts(draw, many: int):
    """Radial grid file text: many to many + 40 samples of u = x e^-x for x
    in [0, 10], with at most one defect: 1 to 5 samples, radii spread to
    1e-300 or 1e300, u scaled by 1e-300 or 1e300, the rows reversed, one
    radius repeated, or one number an edge float (nan, inf, -inf, -1, 0);
    LF or CRLF line ends, perhaps a BOM."""
    defect = draw(st.sampled_from(_GRID_DEFECTS))
    n = draw(st.integers(1, 5) if defect == "few" else st.integers(many, many + 40))
    r_scale = {"tiny r": 1e-301, "huge r": 1e299}.get(defect, 1.0)
    u_scale = {"tiny u": 1e-300, "huge u": 1e300}.get(defect, 1.0)
    xs = [10.0 * i / max(n - 1, 1) for i in range(n)]
    rows = [[r_scale * x, u_scale * x * math.exp(-x)] for x in xs]
    if defect == "reversed":
        rows.reverse()
    elif defect == "repeated":
        i = draw(st.integers(0, n - 1))
        rows.insert(i, list(rows[i]))
    elif defect == "edge":
        edge = draw(st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0]))
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, 1))] = edge
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return draw(st.sampled_from(["", "\ufeff"])) + "".join(f"{r!r} {u!r}{eol}" for r, u in rows)


_params = st.one_of(st.floats(0.1, 10.0), edge_floats)


@st.composite
def edge_cases(draw):
    """argv, with {data}, {grid} and {config} for the holder CSV, the grid
    file and the config file, and the text of each file it names."""
    command = draw(st.sampled_from(["holder", "hydrogen", "sweep", "finite", "central"]))
    files = {}
    grid = command in ("sweep", "central") and draw(st.booleans())
    if grid:  # <T> of central needs about 200 samples; a sweep's momentum table, fewer
        files["grid"] = draw(grid_texts(200 if command == "central" else 60))
    if command == "holder":
        files["data"] = "".join(f"{f!r},{g!r},{w!r}\n" for f, g, w in draw(holder_rows))
        argv = ["holder", "--data", "{data}"]
    elif command == "sweep":
        argv = ["sweep", "--kind", draw(st.sampled_from(["canonical", "reciprocal"]))]
        if grid:  # one cell: each order of a grid state is a quadrature
            argv += ["--grid", "{grid}", f"--p-grid={draw(edge_orders)!r}",
                     f"--q-grid={draw(edge_orders)!r}"]
        else:
            argv += [f"--p-grid={_grid_spec(draw)}", f"--q-grid={_grid_spec(draw)}"]
    elif command == "finite":
        argv = ["finite", "--pair", draw(st.sampled_from(["pauli-xy", "truncated-xp", "random"])),
                f"--dim={draw(st.integers(2, 8))}", f"--seed={draw(st.integers(0, 2**64 - 1))}"]
    elif command == "central":
        argv = ["central", *(["--grid", "{grid}"] if grid else
                             ["--state", draw(st.sampled_from(["hydrogen", "r4test", "qho"]))])]
        if draw(st.integers(0, 3)) > 0:
            argv += [f"--alpha={draw(edge_orders)!r}", f"--beta={draw(edge_orders)!r}"]
        if draw(st.booleans()):
            argv.append("--buckingham=" + ",".join(repr(draw(_params)) for _ in range(3)))
        if draw(st.booleans()):
            argv.append("--lj=" + ",".join(repr(draw(_params)) for _ in range(2)))
        if draw(st.booleans()):
            argv.append("--allow-divergent")
    else:
        argv = ["hydrogen"]
    if command in ("holder", "hydrogen", "finite"):
        argv += [f"--p={draw(edge_orders)!r}", f"--q={draw(edge_orders)!r}"]
    if draw(st.integers(0, 3)) == 0:
        argv.append(f"--slack={draw(edge_floats)!r}")
    if draw(st.booleans()):
        constants = draw(st.fixed_dictionaries(
            {}, optional={"hbar": edge_floats, "mass": edge_floats, "a0": edge_floats}))
        files["config"] = json.dumps({"constants": constants})
        argv = ["--config", "{config}", *argv]
    return argv, files


def _vacuous(verdict: dict) -> bool:
    """A verdict that holds with a side that is not a number."""
    return verdict.get("holds") is True and (verdict["lhs"] is None or verdict["rhs"] is None)


def _main(argv: list[str]) -> tuple[int, str, str]:
    """main(argv) in-process: its exit code, stdout and stderr, where a
    warning would be written to stderr as the console script does."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return code, out.getvalue(), err.getvalue()


def _untimed(report: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', report)


_HOLDER = ["holder", "--data", "{data}", "--p=3.0", "--q=2.0"]
_XP = ["--config", "{config}", "finite", "--pair", "truncated-xp", "--dim=8", "--p=1.0", "--q=1.0"]


@settings(FIXED, max_examples=300)
@given(case=edge_cases())
# both sides overflow; only the Holder rhs does; the weights sum to inf
@example(case=(_HOLDER, {"data": "1e200,1e200,1\n"}))
@example(case=(_HOLDER, {"data": "1e120,1e-200,1\n1,1,1\n"}))
@example(case=(_HOLDER, {"data": "1.0,2.0,1e308\n2.0,1.0,1e308\n"}))
# hbar/2 underflows to 0, so X = P = 0 and both links read 0 <= 0
@example(case=(_XP, {"config": '{"constants": {"hbar": 5e-324}}'}))
# knots near 1e300: r^(t/2) overflows in the knot sums, once with a numpy
# warning on stderr
@example(case=(["sweep", "--grid", "{grid}", "--p-grid=3.0", "--q-grid=3.0"],
               {"grid": "0 0\n3.3e299 1.2e299\n6.7e299 8.5e297\n1e300 4.5e296\n"}))
def test_cli_on_edge_floats_ends_in_one_line_or_a_real_report(tmp_path_factory, case):
    argv, files = case
    base = tmp_path_factory.getbasetemp()
    paths = {key: base / f"edge_{key}.txt" for key in ("data", "grid", "config")}
    for key, text in files.items():
        paths[key].write_text(text, encoding="utf-8")
    argv = [a.format(**paths) for a in argv]
    code, out, err = _main(argv)
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_VIOLATION, EXIT_DIVERGENT)
    if "random" in argv:  # a seeded run replays byte for byte
        again = _main(argv)
        assert (again[0], _untimed(again[1]), again[2]) == (code, _untimed(out), err)
    if not out:
        [line] = err.splitlines()
        assert code == EXIT_ERROR
        assert line.startswith(("error: ", "internal error: ", "io error: "))
        return
    doc = json.loads(out)
    assert err == ""
    assert doc["manifest"]["outcomes"]["exit_code"] == code
    assert not any(_vacuous(v) for v in doc["results"])
    if "finite" in argv:  # 0 <= 0 is no check of a bound
        assert not any(v["holds"] and v["lhs"] == 0.0 == v["rhs"] for v in doc["results"])
    if code == EXIT_ERROR:  # a report exits 1 only for a sweep with a failed cell
        assert any(row["status"] == "failed" for row in doc["results"])


def _magnitudes(lo: int, hi: int):
    """Signed floats m * 10^k with 1 <= m < 10 and k in [lo, hi]."""
    return st.builds(lambda m, k, sign: sign * m * 10.0**k, st.floats(1.0, 10.0, exclude_max=True),
                     st.integers(lo, hi), st.sampled_from([1.0, -1.0]))


_weights = st.floats(1e-3, 1.0)
# rows with magnitudes from 1e-150 to 1e150
_wide_rows = st.lists(st.tuples(_magnitudes(-150, 149), _magnitudes(-150, 149), _weights),
                      min_size=1, max_size=8)


@st.composite
def _shifted_rows(draw):
    """Rows (f 10^s, g 10^-s, w) with s in [155, 300]: Sum w f^2 overflows a
    double and Sum w g^2 underflows, while every side stays near 1."""
    s = draw(st.integers(155, 300))
    rows = draw(st.lists(st.tuples(_magnitudes(-3, 3), _magnitudes(-3, 3), _weights),
                         min_size=1, max_size=8))
    return [(f * 10.0**s, g * 10.0**-s, w) for f, g, w in rows]


@st.composite
def _apart_rows(draw):
    """Rows whose largest |f| and |g| lie in different rows: (f 10^s, g 10^-t, w)
    and (f 10^-t, g 10^s, w) in turn, with s in [1, 160] and t in [0, 300].
    Where s + t > 308, every |f g| / (max|f| max|g|) is below the normal range."""
    s, t = draw(st.integers(1, 160)), draw(st.integers(0, 300))
    rows = draw(st.lists(st.tuples(_magnitudes(-3, 3), _magnitudes(-3, 3), _weights),
                         min_size=2, max_size=8))
    return [(f * 10.0**s, g * 10.0**-t, w) if i % 2 else (f * 10.0**-t, g * 10.0**s, w)
            for i, (f, g, w) in enumerate(rows)]


# the normal double range, and a relative ulp at 1
_MIN, _MAX, _ULP = Fraction(sys.float_info.min), Fraction(sys.float_info.max), Fraction(2)**-52
_EDGE = Fraction(2)**-40


def _normal(x: Fraction, k: int) -> bool | None:
    """Whether x is the k-th power of a normal double: True inside that
    range by a relative margin of 2^-40, False outside it, None too near an
    end to say."""
    lo, hi = _MIN**k, _MAX**k
    if x < lo or x > hi:
        return False
    return (1 + _EDGE) * lo <= x <= (1 - _EDGE) * hi or None


@settings(FIXED, max_examples=300)
@given(rows=st.one_of(_wide_rows, _shifted_rows(), _apart_rows()))
def test_discrete_sides_at_p_q_2_match_exact_rationals(rows):
    # at p = q = 2 every Schwarz side, the Holder lhs and the square of the
    # Holder rhs are rational in the rows. Computed with fractions, they share
    # no code with the scaled sums. Each side is held to 4 ulps (relative),
    # the Holder rhs through its square, to 8; a verdict with an exact side
    # outside the normal double range is refused
    f, g, w = (tuple(map(Fraction, col)) for col in zip(*rows))
    total = sum(w)
    s1 = sum(wi * abs(fi * gi) for fi, gi, wi in zip(f, g, w)) / total
    sf = sum(wi * fi * fi for fi, wi in zip(f, w)) / total
    sg = sum(wi * gi * gi for gi, wi in zip(g, w)) / total
    d = DiscreteDensity(*zip(*rows))
    for verdict, sides in ((lambda: holder_verdict(d, make_exponents(2.0, 2.0)),
                            ((s1, 1), (sf * sg, 2))),
                           (lambda: schwarz_verdict(d), ((s1 * s1, 1), (sf * sg, 1)))):
        normal = [_normal(exact, k) for exact, k in sides]  # side^k is exact
        if False in normal:
            with pytest.raises(DomainError, match="out of the double range"):
                verdict()
        elif None not in normal:
            v = verdict()
            for side, (exact, k) in zip((v.lhs, v.rhs), sides):
                assert abs(Fraction(side) ** k - exact) <= 4 * k * _ULP * exact
