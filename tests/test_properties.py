"""Property tests: Young's inequality, the Exponents invariants, and the CLI
on fuzzed tolerance and slack values. Skipped where hypothesis is absent."""

import contextlib
import io
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from qmoments.cli import EXIT_ERROR, EXIT_OK, EXIT_VIOLATION, main  # noqa: E402
from qmoments.core import make_exponents, young_gap  # noqa: E402

# derandomized so that a tier-1 run never depends on the draw
FIXED = settings(derandomize=True, database=None, deadline=None)

orders = st.floats(min_value=0.05, max_value=20.0)
points = st.floats(min_value=0.0, max_value=10.0)


@FIXED
@given(c=points, d=points, p=orders, q=orders)
def test_young_gap_is_nonnegative(c, d, p, q):
    e = make_exponents(p, q)
    scale = c**p / p + d**q / q
    assert young_gap(c, d, e) >= -1e-12 * scale


@FIXED
@given(p=st.floats(min_value=1e-3, max_value=1e3), q=st.floats(min_value=1e-3, max_value=1e3))
def test_exponents_invariants(p, q):
    e = make_exponents(p, q)
    assert e.r_inv * e.r_star == pytest.approx(1.0, rel=1e-14)
    assert e.w_f + e.w_g == pytest.approx(1.0, rel=1e-15)
    assert e.swapped().swapped() == e


# the finite draws stay in a range where one hydrogen run takes milliseconds
tolerances = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]),
                       st.floats(min_value=1e-9, max_value=1e-3))
slacks = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -1e-3]),
                   st.floats(min_value=0.0, max_value=1.0))


@settings(FIXED, max_examples=40)
@given(data=st.data(), flag=st.sampled_from(["--slack", "--rel-tol", "--abs-tol"]))
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
