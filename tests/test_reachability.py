"""The CLI is the contract: every module-level function and method of
src/qmoments is entered by some command of the recorded contract.

One fresh interpreter installs sys.setprofile before its first import of
qmoments and replays every record of tests/contract in-process; a function
whose code object no call event names was not entered. The few that no
command reaches are listed in UNREACHED, each with its reason. Run as a
script, this file prints the names that were not entered as JSON.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# "module.function" or "module.Class.method" -> why no command enters it
UNREACHED = {
    "__init__.__dir__": "dir(qmoments) only: no command lists the package's names",
    "core._require_slack": "input validation of --slack or a config slack, which no record sets",
    "exact.ContinuousState.direct_moment": "abstract default: every state a command builds overrides it",
    "exact.ContinuousState.position_mean": "abstract default: every state a command builds overrides it",
    "exact.ContinuousState.momentum_mean": "abstract default: every state a command builds overrides it",
    "exact._Gaussian1D.sigma_x": "oracle: tests/marginals.py builds the normal marginals of the "
                                 "qho and gaussian axis moments from it",
    "exact._Gaussian1D.sigma_p": "oracle: as sigma_x, in momentum; <T> of a packet with p0 != 0 "
                                 "reads it, and no command builds one",
    "inequalities.reciprocal_moment_verdict": "acceptance criterion 06's wrapper of the cell that "
                                              "sweep --kind reciprocal builds",
}


def _defined(package: Path) -> dict:
    """name -> code object of every function and method written in a module
    of the package: the module's own functions, and the functions,
    properties, static and class methods written in its own classes (not
    the closures that core.record installs, nor a NamedTuple's generated
    methods)."""
    import importlib
    import inspect

    out = {}
    for path in sorted(package.glob("*.py")):
        mod = importlib.import_module("qmoments" if path.stem == "__init__" else f"qmoments.{path.stem}")
        mod.__doc__  # a deferred module runs at its first attribute access
        for name, obj in vars(mod).items():
            if not ((inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == mod.__name__ and obj.__qualname__ == name):
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for attr, v in members:
                fn = next((f for f in (getattr(v, "__func__", None), getattr(v, "fget", None),
                                       getattr(v, "func", None), v) if inspect.isfunction(f)), None)
                own = ".".join(filter(None, (name, attr)))
                if (fn is not None and fn.__qualname__ == own
                        and Path(fn.__code__.co_filename).resolve() == path):
                    out[f"{path.stem}.{own}"] = fn.__code__
    return out


def _unentered() -> list:
    """Replay every record under the profiler; the names never entered."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        import qmoments
        from contract.record import CASES, run

        for argv, files in CASES.values():
            run(argv, files)
    finally:
        sys.setprofile(None)
    package = Path(qmoments.__file__).resolve().parent
    return sorted(name for name, code in _defined(package).items() if code not in entered)


def test_every_function_is_entered_by_a_recorded_command():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    out = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    unentered = json.loads(out.stdout)
    assert [n for n in unentered if n not in UNREACHED] == [], "entered by no command"
    assert [n for n in UNREACHED if n not in unentered] == [], "listed but entered, or gone"


if __name__ == "__main__":
    print(json.dumps(_unentered()))
