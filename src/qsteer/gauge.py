"""Phase freedom of the adiabatic basis: the rotations behind the optimal phase.

Multiplying the basis states by e^{i lambda_g(t)}, e^{i lambda_e(t)} shifts
the diagonal w elements by the phase velocities and rotates the off-diagonal
one. The optimal phase lambda = -integral of the w diagonals makes them
vanish, which minimizes the Hilbert-Schmidt norm of w; the integrator
accumulates it along a run (``integrate(track_phases=True)``). Over a closed
control loop its increments are the Berry phases of the branches
(``dynamics.berry_phase``).

Everything here is pure Python: the norm, the phase factor, and
:func:`phase_shifted_frame`, the one rotation of a frame into a shifted
basis. Its phase velocities are explicit: the optimal rates are
(-w_gg, -w_ee).
"""

from __future__ import annotations

import math


def hs_norm(w_gg: float, w_ee: float, w_ge: complex) -> float:
    """Hilbert-Schmidt norm of the Hermitian w matrix, sqrt(w_gg^2 + w_ee^2 + 2|w_ge|^2).

    hypot only where the squares overflow (or NaN).
    """
    re, im = w_ge.real, w_ge.imag
    norm = math.sqrt(w_gg * w_gg + w_ee * w_ee + 2.0 * (re * re + im * im))
    if not norm < math.inf:
        norm = math.hypot(w_gg, w_ee, re, re, im, im)
    return norm


def phase_factor(lam_g: float, lam_e: float) -> complex:
    """e^{i(lambda_e - lambda_g)}: the factor rho_ge, w_ge and m2 pick up under the shift."""
    return complex(math.cos(lam_e - lam_g), math.sin(lam_e - lam_g))


def phase_shifted_frame(frame, lam_g: float, lam_e: float, dlam_g: float, dlam_e: float):
    """Adiabatic frame re-expressed in the basis shifted by the phases (lambda_g, lambda_e).

    The w diagonals pick up the phase velocities (dlam_g, dlam_e); w_ge and
    m2 turn by :func:`phase_factor`; m1 and omega01 are invariant, so |w_ge|
    and |m2| are too, and alpha follows from the new w. The optimal phase
    has dlam = (-w_gg, -w_ee): the diagonals vanish and alpha drops to
    sqrt(2) |w_ge| / omega01.
    """
    turn = phase_factor(lam_g, lam_e)
    return frame._replace(w_gg=frame.w_gg + dlam_g, w_ee=frame.w_ee + dlam_e,
                          w_ge=frame.w_ge * turn, m2=frame.m2 * turn)
