"""Bath spectral densities and the transition rates they induce.

S(omega) is the (one-sided-in-frequency, two-sided-in-sign) power spectrum of
the environment coupling operator in units of 1/time; positive-frequency
weight drives decay, negative-frequency weight drives excitation, and a
thermal bath obeys detailed balance S(-omega) = exp(-omega/T) S(omega)
(k_B = 1). Rate formulas keep only the real parts of the bath integrals;
the principal-value (Lamb shift) contributions are dropped throughout.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import GAP_FLOOR, GapCollapse, OutOfRange


@dataclass(frozen=True)
class SpectralDensity:
    """Callable bath spectrum S(omega) >= 0 with a tagged model and parameters."""

    model: str
    params: dict = field(default_factory=dict)
    _grid: Optional[np.ndarray] = field(default=None, repr=False)
    _values: Optional[np.ndarray] = field(default=None, repr=False)

    def __call__(self, omega: float) -> float:
        if self.model == "flat":
            return self.params["s0"]
        if self.model == "ohmic_thermal":
            eta = self.params["eta"]
            T = self.params["temperature"]
            wc = self.params["cutoff"]
            x = omega / T
            if omega == 0.0 or x == 0.0:  # x underflows for subnormal omega
                return eta * T
            # omega / (1 - exp(-omega/T)) without overflow on either sign
            if x > 0:
                bose_like = omega / (-math.expm1(-x))
            else:
                bose_like = omega * math.exp(x) / math.expm1(x)
            cut = math.exp(-abs(omega) / wc) if math.isfinite(wc) else 1.0
            return eta * bose_like * cut
        if self.model == "zero_temperature_ohmic":
            if omega <= 0.0:
                return 0.0
            eta = self.params["eta"]
            wc = self.params["cutoff"]
            cut = math.exp(-omega / wc) if math.isfinite(wc) else 1.0
            return eta * omega * cut
        if self.model == "tabulated":
            grid = self._grid
            if omega < grid[0] or omega > grid[-1]:
                raise OutOfRange(
                    f"omega = {omega:g} outside tabulated range [{grid[0]:g}, {grid[-1]:g}]"
                )
            return float(np.interp(omega, grid, self._values))
        raise ValueError(f"unknown spectral model {self.model!r}")


def flat(s0: float) -> SpectralDensity:
    """Frequency-independent spectrum S(omega) = s0."""
    if s0 < 0:
        raise ValueError("s0 must be nonnegative")
    return SpectralDensity(model="flat", params={"s0": float(s0)})


def ohmic_thermal(eta: float, temperature: float, cutoff: float = math.inf) -> SpectralDensity:
    """Thermal ohmic spectrum eta * omega / (1 - e^{-omega/T}) * e^{-|omega|/cutoff}.

    S(0) is the continuous extension eta * T. Detailed balance holds exactly
    because the cutoff factor is even in omega.
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if temperature <= 0:
        raise ValueError("temperature must be positive (use zero_temperature_ohmic for T = 0)")
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    return SpectralDensity(
        model="ohmic_thermal",
        params={"eta": float(eta), "temperature": float(temperature), "cutoff": float(cutoff)},
    )


def zero_temperature_ohmic(eta: float, cutoff: float = math.inf) -> SpectralDensity:
    """One-sided ohmic spectrum: eta * omega * e^{-omega/cutoff} for omega > 0, else 0."""
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    return SpectralDensity(
        model="zero_temperature_ohmic", params={"eta": float(eta), "cutoff": float(cutoff)}
    )


def tabulated(omegas, values) -> SpectralDensity:
    """Linear interpolation of (omega, S) samples; queries outside the grid raise OutOfRange."""
    omegas = np.asarray(omegas, dtype=float)
    values = np.asarray(values, dtype=float)
    if omegas.ndim != 1 or omegas.size < 2:
        raise ValueError("tabulated spectrum needs at least 2 samples")
    if np.any(np.diff(omegas) <= 0):
        raise ValueError("tabulated omegas must be strictly increasing")
    if np.any(values < 0):
        raise ValueError("tabulated spectrum must be nonnegative")
    return SpectralDensity(
        model="tabulated",
        params={"omega_min": float(omegas[0]), "omega_max": float(omegas[-1])},
        _grid=omegas,
        _values=values,
    )


def spectrum_from_csv(csv_path) -> SpectralDensity:
    """Tabulated spectrum from CSV rows (omega, S); a header row is skipped if present."""
    om, vals = [], []
    with open(csv_path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                om.append(float(row[0]))
                vals.append(float(row[1]))
            except ValueError:
                continue
    return tabulated(om, vals)


def eval_spectrum(sd: SpectralDensity, omega: float) -> float:
    """S(omega); provided as a free function alongside the callable form."""
    return sd(omega)


@dataclass(frozen=True)
class RateSet:
    """The eight bath-induced rates of the two-level master equation.

    gamma_ge / gamma_eg drive excitation / decay, gamma_phi is pure dephasing,
    and the tilde/alpha/beta members are the nonsecular cross rates that
    couple populations to coherences. All carry units of 1/time.
    """

    gamma_ge: float
    gamma_eg: float
    gamma_tilde0: complex
    gamma_tilde_plus: complex
    gamma_tilde_minus: complex
    gamma_phi: float
    gamma_alpha: complex
    gamma_beta: complex


def rates_from_spectra(m1: float, m2: complex, s_plus: float, s_minus: float, s_zero: float) -> RateSet:
    """Rate set from coupling elements and the three spectrum samples S(+-omega01), S(0)."""
    mod2 = m2.real * m2.real + m2.imag * m2.imag
    return RateSet(
        gamma_ge=mod2 * s_minus,
        gamma_eg=mod2 * s_plus,
        gamma_tilde0=m2.conjugate() * (2.0 * m1) * s_zero,
        gamma_tilde_plus=-m1 * m2 * s_plus,
        gamma_tilde_minus=-m1 * m2 * s_minus,
        gamma_phi=2.0 * m1 * m1 * s_zero,
        gamma_alpha=m2 * m2 * s_plus / 2.0,
        gamma_beta=m2 * m2 * s_minus / 2.0,
    )


def rates(m1: float, m2: complex, omega01: float, sd: SpectralDensity) -> RateSet:
    """Transition rates for gap omega01 under the traceless coupling convention.

    With m1 = <g|A|g> = -<e|A|e> and m2 = <g|A|e>:

        gamma_ge     = |m2|^2 S(-omega01)
        gamma_eg     = |m2|^2 S(+omega01)
        gamma_tilde0 = conj(m2) (2 m1) S(0)
        gamma_tilde+- = -m1 m2 S(+-omega01)
        gamma_phi    = 2 m1^2 S(0)
        gamma_alpha  = m2^2 S(omega01) / 2
        gamma_beta   = m2^2 S(-omega01) / 2
    """
    if omega01 <= GAP_FLOOR:
        raise GapCollapse(f"omega01 = {omega01:.3e} <= gap floor {GAP_FLOOR:.0e}")
    return rates_from_spectra(m1, complex(m2), sd(omega01), sd(-omega01), sd(0.0))


def superadiabatic_elements(m1: float, m2: complex, w_ge: complex, omega01: float):
    """Coupling elements in the first superadiabatic basis, to linear order in alpha.

    Sandwiching the coupling operator between the corrected states
    |g2> = |g> - |e> w_ge*/omega01 and |e2> = |e> + |g> w_ge/omega01 and
    discarding quadratic terms gives

        m1_2 = m1 - 2 Re(m2 conj(w_ge)) / omega01
        m2_2 = m2 + 2 m1 w_ge / omega01

    already traceless at this order. Identity at w_ge = 0 and exactly linear
    in w_ge.
    """
    if omega01 <= GAP_FLOOR:
        raise GapCollapse(f"omega01 = {omega01:.3e} <= gap floor {GAP_FLOOR:.0e}")
    m2 = complex(m2)
    w_ge = complex(w_ge)
    m1_2 = m1 - 2.0 * (m2.real * w_ge.real + m2.imag * w_ge.imag) / omega01
    m2_2 = m2 + 2.0 * m1 * w_ge / omega01
    return m1_2, m2_2


def shifted_rates(
    m1: float,
    m2: complex,
    omega01: float,
    w_gg: float,
    w_ee: float,
    sd: SpectralDensity,
) -> RateSet:
    """Rates with the spectrum sampled at the gauge-corrected gap.

    S(+-omega01) is replaced by S(+-(omega01 + w_ee - w_gg)); S(0) is kept.
    The shift depends on the local gauge of the basis states, so callers own
    that choice; with the optimal phase schedule active the shift vanishes.
    """
    if omega01 <= GAP_FLOOR:
        raise GapCollapse(f"omega01 = {omega01:.3e} <= gap floor {GAP_FLOOR:.0e}")
    shifted = omega01 + (w_ee - w_gg)
    return rates_from_spectra(m1, complex(m2), sd(shifted), sd(-shifted), sd(0.0))
