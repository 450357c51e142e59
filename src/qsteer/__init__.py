"""Master-equation dynamics for adiabatically steered two-level systems.

Units: hbar = k_B = 1, so energies, frequencies and rates all carry 1/time.
A spectrum with physical units is recovered via S_X(omega) = hbar^2 S(omega).
"""

from .bath import (
    RateSet,
    SpectralDensity,
    flat,
    ohmic_thermal,
    rates,
    tabulated,
    zero_temperature_ohmic,
)
from .control import (
    AdiabaticFrame,
    ControlPath,
    frame_at,
    hs_norm,
    linear_sweep,
    rotating_cone,
    sampled_path,
)
from .dynamics import (
    BerryPhases,
    DensityState,
    SolverConfig,
    Trajectory,
    berry_phase,
    from_pair,
    integrate,
    phase_shifted_frame,
    rhs_full,
    rhs_nonsteered,
    rhs_secular,
)
from .errors import (
    GapCollapse,
    GaugeUndefined,
    LoopNotClosed,
    NonFiniteState,
    OutOfRange,
    ParseError,
    QSteerError,
    StepRejectionLimit,
    ValidationError,
)

__version__ = "0.1.0"
