"""Generalized absolute central moments of quantum states and verdicts for
two-function moment inequalities, canonical-pair uncertainty checks at
arbitrary orders, and central-force-field bounds.

Importing the package runs no numpy. The names below resolve on first use
(PEP 562), and four modules are registered deferred: each runs at the first
access to one of its attributes. The three array modules, quadrature, states
and matrixlab, load numpy then, and a catalog command of the CLI never makes
that access; centralfield runs only for the central command."""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "CapabilityError", "DataFormatError", "DecompositionError", "DomainError", "Exponents",
        "MomentsError", "MomentValue", "NATURAL", "PhysicalConstants", "SI", "Tolerances",
        "Verdict", "make_exponents", "make_verdict", "young_gap",
    ),
    "quadrature": ("QuadResult", "integrate"),
    "exact": (
        "ContinuousState", "GaussianPacket", "HarmonicOscillatorGround", "HydrogenGroundState",
        "PowerExpRadialState", "catalog",
    ),
    "states": ("RadialGridState", "load_radial_grid"),
    "matrixlab": (
        "FiniteState", "HermitianOperator", "abs_central_moment_finite", "commutator",
        "expectation",
    ),
    "moments": (
        "Observable", "abs_central_moment", "custom_radial", "mean", "momentum_axis",
        "position_axis", "radial", "radial_inverse", "raw_moment",
    ),
    "inequalities": (
        "DiscreteDensity", "holder_verdict", "holder_verdict_continuous",
        "reciprocal_moment_verdict", "schwarz_verdict", "sweep", "uncertainty_chain_finite",
        "uncertainty_verdict_canonical",
    ),
    "centralfield": (
        "BuckinghamPotential", "LennardJonesPotential", "PowerLawPotential",
        "bound_threshold_radius", "buckingham_bound", "ground_energy_estimate",
        "lennard_jones_mean", "virial_report",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _defer(name: str) -> None:
    """Register qmoments.<name> in sys.modules, and as an attribute here,
    without running it; importlib's LazyLoader runs it at the first
    attribute access. Code reaches such a module as an attribute
    (quadrature.integrate), so importing its user loads nothing."""
    fullname = f"{__name__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    globals()[name] = sys.modules[fullname]


for _name in ("quadrature", "states", "matrixlab", "centralfield"):
    _defer(_name)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_HOME))
