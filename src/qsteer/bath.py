"""Bath spectral densities and the transition rates they induce.

S(omega) is the (one-sided-in-frequency, two-sided-in-sign) power spectrum of
the environment coupling operator in units of 1/time; positive-frequency
weight drives decay, negative-frequency weight drives excitation, and a
thermal bath obeys detailed balance S(-omega) = exp(-omega/T) S(omega)
(k_B = 1). Rate formulas keep only the real parts of the bath integrals;
the principal-value (Lamb shift) contributions are dropped throughout.
:func:`rates` builds the full RateSet from a frame's coupling elements, and
:func:`_secular_rates` the secular truncation's, whose cross rates are zero.

Every model is pure Python, the tabulated one included: it interpolates by
numpy.interp's own formula on a bisect lookup, so it gives np.interp's floats
without importing numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from .errors import GAP_FLOOR, GapCollapse, OutOfRange


def _flat(s0, omega):
    return s0


def _ohmic_thermal(eta, T, wc, omega):
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


def _zero_temperature_ohmic(eta, wc, omega):
    if omega <= 0.0:
        return 0.0
    cut = math.exp(-omega / wc) if math.isfinite(wc) else 1.0
    return eta * omega * cut


def _tabulated(omegas, values, omega):
    lo, hi = omegas[0], omegas[-1]
    if not lo <= omega <= hi:  # NaN fails both comparisons
        raise OutOfRange(f"omega = {omega:g} outside tabulated range [{lo:g}, {hi:g}]")
    j = bisect_right(omegas, omega) - 1
    if omega == omegas[j]:  # a knot, the last one included, gives its value
        return values[j]
    slope = (values[j + 1] - values[j]) / (omegas[j + 1] - omegas[j])
    s = slope * (omega - omegas[j]) + values[j]
    if s != s:  # 0 * inf on a knot span beyond the float range: np.interp retries from the right
        return slope * (omega - omegas[j + 1]) + values[j + 1]
    return s


# Each model's formula and the params it takes, in argument order; omega comes last
_MODELS = {
    "flat": (_flat, ("s0",)),
    "ohmic_thermal": (_ohmic_thermal, ("eta", "temperature", "cutoff")),
    "zero_temperature_ohmic": (_zero_temperature_ohmic, ("eta", "cutoff")),
    "tabulated": (_tabulated, ("omegas", "values")),
}


@dataclass(frozen=True)
class SpectralDensity:
    """Bath spectrum S(omega) >= 0 with a tagged model and parameters.

    The model's formula is bound to its parameters once, at construction, as
    a partial of a module-level function, so the object pickles; S(omega)
    is ``_formula(omega)``. The params of a tabulated model are its grid and
    its values, as tuples of floats. The library samples S through
    ``at_gap``, which calls the bound formula directly, so a new gap costs two
    formula calls; it keeps S(0) and, for each of the last three distinct
    nonzero gaps, the gap's samples with its difference quotients. The
    bound formula and that memo take no part in equality. The memo is
    unguarded, so one spectrum is not for concurrent threads.
    """

    model: str
    params: dict = field(default_factory=dict)
    _formula: Callable = field(init=False, repr=False, compare=False)
    _memo: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ValueError(f"unknown spectral model {self.model!r}")
        fn, names = _MODELS[self.model]
        object.__setattr__(self, "_formula", partial(fn, *(self.params[k] for k in names)))
        # three (gap, terms) slots, the slot the next new gap takes (the
        # oldest) and S(0), None until first sampled; NaN matches no gap
        object.__setattr__(self, "_memo", [math.nan, None] * 3 + [0, None])

    def at_gap(self, omega: float) -> tuple:
        """S(omega), S(-omega), S(0) and the gap's difference quotients.

        Returns (s_plus, s_minus, s_zero, s_sum, k1, k2x2, k3): the three
        samples a gap's rates need, then the per-gap terms of
        :func:`~qsteer.dynamics.rhs_full`, s_sum = S(-omega) + S(omega),
        k1 = (2 S(0) - s_sum) / omega, k2x2 = 2 ((S(0) - S(omega)) / omega)
        and k3 = (S(-omega) - S(omega)) / omega. A zero gap is never divided
        by: its three quotients are NaN.

        The last three distinct nonzero gaps and their terms are kept, so a
        repeated gap costs nothing: a cone's gap |b| rounds to one to three
        neighbouring floats. A new gap costs two calls of the bound formula,
        S(+-omega), and a fourth gap evicts the oldest. S(0) is sampled
        once, after S(+-omega) of the first gap, so an OutOfRange names
        omega. A zero gap is not kept, since +0.0 == -0.0 while S(+0) and
        S(-0) are separate samples; a lookup that raises leaves the memo as
        it was.
        """
        memo = self._memo
        if omega == memo[0]:
            return memo[1]
        if omega == memo[2]:
            return memo[3]
        if omega == memo[4]:
            return memo[5]
        formula = self._formula
        s_plus, s_minus, s_zero = formula(omega), formula(-omega), memo[7]
        if s_zero is None:
            s_zero = memo[7] = formula(0.0)
        s_sum = s_minus + s_plus
        if not omega:
            return s_plus, s_minus, s_zero, s_sum, math.nan, math.nan, math.nan
        terms = (
            s_plus, s_minus, s_zero, s_sum,
            (2.0 * s_zero - s_sum) / omega,      # k1
            2.0 * ((s_zero - s_plus) / omega),   # k2x2
            (s_minus - s_plus) / omega,          # k3
        )
        i = memo[6]
        memo[i], memo[i + 1], memo[6] = omega, terms, (i + 2) % 6
        return terms


def flat(s0: float) -> SpectralDensity:
    """Frequency-independent spectrum S(omega) = s0."""
    if not 0 <= s0 < math.inf:
        raise ValueError("s0 must be nonnegative and finite")
    return SpectralDensity(model="flat", params={"s0": float(s0)})


def ohmic_thermal(eta: float, temperature: float, cutoff: float = math.inf) -> SpectralDensity:
    """Thermal ohmic spectrum eta * omega / (1 - e^{-omega/T}) * e^{-|omega|/cutoff}.

    S(0) is the continuous extension eta * T. Detailed balance holds exactly
    because the cutoff factor is even in omega.
    """
    if not 0 <= eta < math.inf:
        raise ValueError("eta must be nonnegative and finite")
    if not temperature > 0:
        raise ValueError("temperature must be positive (use zero_temperature_ohmic for T = 0)")
    if temperature == math.inf:
        raise ValueError("temperature must be finite")
    if not cutoff > 0:  # +inf, the default, means no cutoff
        raise ValueError("cutoff must be positive")
    return SpectralDensity(
        model="ohmic_thermal",
        params={"eta": float(eta), "temperature": float(temperature), "cutoff": float(cutoff)},
    )


def zero_temperature_ohmic(eta: float, cutoff: float = math.inf) -> SpectralDensity:
    """One-sided ohmic spectrum: eta * omega * e^{-omega/cutoff} for omega > 0, else 0."""
    if not 0 <= eta < math.inf:
        raise ValueError("eta must be nonnegative and finite")
    if not cutoff > 0:  # +inf, the default, means no cutoff
        raise ValueError("cutoff must be positive")
    return SpectralDensity(
        model="zero_temperature_ohmic", params={"eta": float(eta), "cutoff": float(cutoff)}
    )


def tabulated(omegas, values) -> SpectralDensity:
    """Linear interpolation of (omega, S) samples; queries outside the grid raise OutOfRange.

    Between knots S is numpy.interp's slope * (omega - omega_j) + S_j, and
    at a knot it is the knot's value, so S matches np.interp bit for bit.
    """
    try:
        omegas = tuple(map(float, omegas))
    except TypeError:  # a number, or nested rows
        omegas = ()
    if len(omegas) < 2:
        raise ValueError("tabulated spectrum needs at least 2 samples")
    try:
        values = tuple(map(float, values))
    except TypeError:
        values = ()
    if len(values) != len(omegas):
        raise ValueError("tabulated spectrum needs one value per omega")
    if not all(map(math.isfinite, omegas + values)):
        raise ValueError("tabulated omegas and values must be finite")
    if any(b <= a for a, b in zip(omegas, omegas[1:])):
        raise ValueError("tabulated omegas must be strictly increasing")
    if any(v < 0 for v in values):
        raise ValueError("tabulated spectrum must be nonnegative")
    return SpectralDensity(model="tabulated", params={"omegas": omegas, "values": values})


class RateSet(NamedTuple):
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


def _secular_rates(frame, sd: SpectralDensity) -> RateSet:
    """The secular truncation's RateSet for ``frame``: no cross rates.

    ``frame`` holds AdiabaticFrame's fields in its order, and its m2 is read
    as it is, with no complex() copy; :func:`rates` takes complex(m2) of its
    own argument before it calls this. gamma_ge, gamma_eg and gamma_phi are
    rates()' own, by the same gap check and float operations; the five cross
    rates are 0j.
    """
    omega01, _, _, _, m1, m2 = frame
    if not omega01 > GAP_FLOOR:
        raise GapCollapse(f"omega01 = {omega01:.3e} <= gap floor {GAP_FLOOR:.0e}")
    s_plus, s_minus, s_zero, _, _, _, _ = sd.at_gap(omega01)
    mod2 = m2.real * m2.real + m2.imag * m2.imag
    # in field order; tuple.__new__ skips the NamedTuple's Python-level __new__
    return tuple.__new__(RateSet, (mod2 * s_minus, mod2 * s_plus, 0j, 0j, 0j,
                                   2.0 * m1 * m1 * s_zero, 0j, 0j))


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
    m2 = complex(m2)
    # gamma_ge, gamma_eg and gamma_phi are _secular_rates' own; at_gap then reads its memo
    g_ge, g_eg, _, _, _, g_phi, _, _ = _secular_rates((omega01, 0.0, 0.0, 0j, m1, m2), sd)
    s_plus, s_minus, s_zero, _, _, _, _ = sd.at_gap(omega01)
    cross = -m1 * m2
    m2_sq = m2 * m2
    return tuple.__new__(RateSet, (
        g_ge,
        g_eg,
        m2.conjugate() * (2.0 * m1) * s_zero,  # gamma_tilde0
        cross * s_plus,                      # gamma_tilde_plus
        cross * s_minus,                     # gamma_tilde_minus
        g_phi,
        m2_sq * s_plus / 2.0,                # gamma_alpha
        m2_sq * s_minus / 2.0,               # gamma_beta
    ))
