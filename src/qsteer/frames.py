"""Superadiabatic basis maps and interaction/Schroedinger picture transforms.

The first superadiabatic basis corrects the adiabatic states by the
steering admixture w_ge / omega01; to linear order in the adiabatic
parameter the corrected states are used unnormalized (normalization enters
only at quadratic order). Density-matrix components map affinely between
the two frames, and the map composed with its inverse deviates from the
identity at quadratic order only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GAP_FLOOR, GapCollapse


@dataclass(frozen=True)
class SuperadiabaticBasis:
    """Corrected eigenpair in adiabatic-basis components, with corrected energies.

    Energies assume the traceless field Hamiltonian, E_g = -omega01/2.
    """

    g2: np.ndarray
    e2: np.ndarray
    E_g2: float
    E_e2: float
    omega01_2: float


def superadiabatic_basis(frame) -> SuperadiabaticBasis:
    """First superadiabatic basis of the given adiabatic frame.

    g2 = (1, -conj(w_ge)/omega01), e2 = (w_ge/omega01, 1) in (g, e)
    components; the corrected gap is omega01 + (w_ee - w_gg).
    """
    w01 = frame.omega01
    if w01 <= GAP_FLOOR:
        raise GapCollapse(f"omega01 = {w01:.3e} <= gap floor {GAP_FLOOR:.0e}")
    x = frame.w_ge / w01
    g2 = np.array([1.0, -x.conjugate()], dtype=complex)
    e2 = np.array([x, 1.0], dtype=complex)
    E_g = -w01 / 2
    E_e = +w01 / 2
    return SuperadiabaticBasis(
        g2=g2,
        e2=e2,
        E_g2=E_g + frame.w_gg,
        E_e2=E_e + frame.w_ee,
        omega01_2=w01 + (frame.w_ee - frame.w_gg),
    )


def to_superadiabatic(rho_gg: float, rho_ge: complex, frame):
    """Density components in the superadiabatic frame, to linear order.

    rho_gg2 = rho_gg - 2 Re(conj(w_ge) rho_ge)/omega01,
    rho_ge2 = rho_ge + (w_ge/omega01)(2 rho_gg - 1).
    """
    w01 = frame.omega01
    if w01 <= GAP_FLOOR:
        raise GapCollapse(f"omega01 = {w01:.3e} <= gap floor {GAP_FLOOR:.0e}")
    x = frame.w_ge / w01
    rho_ge = complex(rho_ge)
    rho_gg2 = rho_gg - 2.0 * (x.conjugate() * rho_ge).real
    rho_ge2 = rho_ge + x * (2.0 * rho_gg - 1.0)
    return rho_gg2, rho_ge2


def from_superadiabatic(rho_gg2: float, rho_ge2: complex, frame):
    """Linear-order inverse of :func:`to_superadiabatic`; round trip is O(alpha^2)."""
    w01 = frame.omega01
    if w01 <= GAP_FLOOR:
        raise GapCollapse(f"omega01 = {w01:.3e} <= gap floor {GAP_FLOOR:.0e}")
    x = frame.w_ge / w01
    rho_ge2 = complex(rho_ge2)
    rho_gg = rho_gg2 + 2.0 * (x.conjugate() * rho_ge2).real
    rho_ge = rho_ge2 - x * (2.0 * rho_gg2 - 1.0)
    return rho_gg, rho_ge


def interaction_to_schrodinger(sigma_gg: float, sigma_ge: complex, t: float, omega01: float):
    """Picture transform for a constant gap: populations unchanged, coherence rotated.

    rho_gg = sigma_gg, rho_ge = e^{i omega01 t} sigma_ge.
    """
    rot = complex(math.cos(omega01 * t), math.sin(omega01 * t))
    return sigma_gg, complex(sigma_ge) * rot


def schrodinger_to_interaction(rho_gg: float, rho_ge: complex, t: float, omega01: float):
    """Inverse of :func:`interaction_to_schrodinger`."""
    rot = complex(math.cos(omega01 * t), -math.sin(omega01 * t))
    return rho_gg, complex(rho_ge) * rot
