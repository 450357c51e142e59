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
    integrate,
    rhs_full,
    rhs_nonsteered,
    rhs_secular,
    rhs_superadiabatic_oracle,
    superadiabatic_elements,
    superadiabatic_oracle_pullback,
    to_superadiabatic,
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
from .gauge import hs_norm, phase_shifted_frame

__version__ = "0.1.0"
