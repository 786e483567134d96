"""Generalized absolute central moments of quantum states and verdicts for
two-function moment inequalities, canonical-pair uncertainty checks at
arbitrary orders, and central-force-field bounds."""

__version__ = "0.1.0"

from .core import (
    CapabilityError,
    DataFormatError,
    DecompositionError,
    DomainError,
    Exponents,
    MomentsError,
    MomentValue,
    NATURAL,
    PhysicalConstants,
    SI,
    Tolerances,
    Verdict,
    make_exponents,
    make_verdict,
    young_gap,
)
from .quadrature import Domain, QuadResult, integrate
from .states import (
    ContinuousState,
    GaussianPacket,
    HarmonicOscillatorGround,
    HydrogenGroundState,
    PowerExpRadialState,
    RadialGridState,
    catalog,
    load_radial_grid,
)
from .matrixlab import (
    FiniteState,
    HermitianOperator,
    SpectralDecomposition,
    abs_central_moment_finite,
    commutator,
    eigendecompose,
    expectation,
)
from .moments import (
    Observable,
    abs_central_moment,
    custom_radial,
    mean,
    momentum_axis,
    position_axis,
    radial,
    radial_inverse,
    raw_moment,
)
from .inequalities import (
    DiscreteDensity,
    SweepTable,
    holder_verdict,
    holder_verdict_continuous,
    reciprocal_moment_verdict,
    schwarz_verdict,
    sweep,
    uncertainty_chain_finite,
    uncertainty_verdict_canonical,
)
from .centralfield import (
    BuckinghamPotential,
    LennardJonesPotential,
    PowerLawPotential,
    VirialReport,
    bound_threshold_radius,
    buckingham_bound,
    ground_energy_estimate,
    lennard_jones_mean,
    virial_report,
)
