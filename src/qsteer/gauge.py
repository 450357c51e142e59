"""Phase freedom of the adiabatic basis: the optimal phase and Berry phases.

Multiplying the basis states by e^{i lambda_g(t)}, e^{i lambda_e(t)} shifts
the diagonal w elements by the phase velocities and rotates the off-diagonal
one. The optimal phase lambda = -integral of the w diagonals makes them
vanish, which minimizes the Hilbert-Schmidt norm of w; the integrator
accumulates it along a run (``integrate(track_phases=True)``). Over a closed
control loop its increments are the Berry phases of the branches.

Everything here is pure Python: the phase rotations an integration applies
and the Berry quadrature, which sums with ``math.fsum``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import pairwise

from .errors import LoopNotClosed, NonFiniteState, NonUniformGridUnsupported

TWO_PI = 2.0 * math.pi

# Largest |b(t_end) - b(t_start)| that berry_phase accepts as a closed loop.
_LOOP_TOL = 1e-10


def hs_norm(w_gg: float, w_ee: float, w_ge: complex) -> float:
    """Hilbert-Schmidt norm of the Hermitian w matrix, sqrt(w_gg^2 + w_ee^2 + 2|w_ge|^2)."""
    return _hs_norm(w_gg, w_ee, w_ge.real, w_ge.imag)


def _hs_norm(w_gg, w_ee, re, im):
    """:func:`hs_norm` of w_ge = re + i im; hypot only where the squares overflow (or NaN)."""
    norm = math.sqrt(w_gg * w_gg + w_ee * w_ee + 2.0 * (re * re + im * im))
    if not norm < math.inf:
        norm = math.hypot(w_gg, w_ee, re, re, im, im)
    return norm


def phase_factor(lam_g: float, lam_e: float) -> complex:
    """e^{i(lambda_e - lambda_g)}: the factor rho_ge, w_ge and m2 pick up under the shift."""
    return complex(math.cos(lam_e - lam_g), math.sin(lam_e - lam_g))


def apply_phase(w_gg, w_ee, w_ge, lam_g, lam_e, dlam_g, dlam_e):
    """w elements after the basis phase shift (lambda_g, lambda_e).

    Diagonals pick up the phase velocities; the off-diagonal is rotated by
    the phase difference; Hermiticity is preserved.
    """
    return w_gg + dlam_g, w_ee + dlam_e, w_ge * phase_factor(lam_g, lam_e)


def apply_phase_frame(frame, lam_g, lam_e, dlam_g, dlam_e):
    """Adiabatic frame re-expressed in the phase-shifted basis.

    m1 and omega01 are invariant; m2 rotates with w_ge (see
    :func:`apply_phase`), and the frame's alpha follows from its new w.
    """
    w_gg, w_ee, w_ge = apply_phase(frame.w_gg, frame.w_ee, frame.w_ge,
                                   lam_g, lam_e, dlam_g, dlam_e)
    return frame._replace(w_gg=w_gg, w_ee=w_ee, w_ge=w_ge, m2=frame.m2 * phase_factor(lam_g, lam_e))


def phase_shifted_frame(frame, lam_g: float, lam_e: float):
    """Frame in the optimally phase-shifted basis, at the phases accumulated so far.

    The w diagonals vanish, |w_ge| and |m2| are unchanged, and alpha drops
    to sqrt(2) |w_ge| / omega01.
    """
    return apply_phase_frame(frame, lam_g, lam_e, -frame.w_gg, -frame.w_ee)


@dataclass(frozen=True)
class BerryPhases:
    """Accumulated optimal-phase increments over one closed loop, raw and mod 2 pi.

    ``quadrature_error`` estimates the error of the larger increment;
    ``loop_gap`` is |b(t_end) - b(t_start)| of the frame history.
    """

    delta_lambda_g: float
    delta_lambda_e: float
    delta_lambda_g_mod: float
    delta_lambda_e_mod: float
    quadrature_error: float
    loop_gap: float


def _wrap(x: float) -> float:
    """Map to (-pi, pi]."""
    y = math.fmod(x + math.pi, TWO_PI)
    if y <= 0:
        y += TWO_PI
    return y - math.pi


def _uniform_step(times: Sequence[float]) -> float:
    """Spacing of a uniform, strictly increasing grid of at least 3 samples."""
    if len(times) < 3:
        raise NonUniformGridUnsupported("history needs at least 3 samples")
    h = float(times[1] - times[0])
    tol = 1e-9 * (times[-1] - times[0])
    uneven = False
    for a, b in pairwise(times):
        d = b - a
        if d <= 0:
            raise NonUniformGridUnsupported("history times must be strictly increasing")
        if abs(d - h) > tol:
            uneven = True
    if uneven:
        raise NonUniformGridUnsupported("history times must be uniformly spaced")
    return h


def _trapezoid(y: Sequence[float], h: float) -> float:
    """Trapezoid integral of uniform samples with spacing h."""
    return h * (math.fsum(y) - (y[0] + y[-1]) / 2)


def _simpson(y: Sequence[float], h: float) -> tuple[float, float]:
    """Composite Simpson integral of uniform samples and an error estimate.

    An even count integrates its last interval by the quadratic through the
    last three samples. The estimate is |full - half-grid trapezoid| / 3 (odd
    count) or |trapezoid - Simpson| (even count).
    """
    n = len(y)
    m = n if n % 2 else n - 1
    odd, even = math.fsum(y[1:m - 1:2]), math.fsum(y[2:m - 1:2])
    total = h / 3.0 * (y[0] + 4.0 * odd + 2.0 * even + y[m - 1])
    if n % 2 == 0:
        total += h / 12.0 * (-y[-3] + 8.0 * y[-2] + 5.0 * y[-1])
    trap = _trapezoid(y, h)
    if n % 2:
        err = abs(trap - _trapezoid(y[::2], 2 * h)) / 3.0
    else:
        err = abs(trap - total)
    return float(total), float(err)


def berry_phase(history) -> BerryPhases:
    """Berry phases of both branches from the w_gg, w_ee columns of a closed-loop frame history.

    The columns may be any sequences of floats, such as the tuples of
    :func:`sample_history` or arrays a caller built. The history gauge must be
    single valued around the loop (the pointwise anchored gauge is); the
    increments are then - integral of the w diagonals. The sign follows this
    package's branch convention; the opposite convention negates both
    values. An open loop raises LoopNotClosed, a grid other than the uniform
    one of :func:`sample_history` raises NonUniformGridUnsupported, and an
    increment or error estimate beyond the float range raises NonFiniteState.
    """
    gap = math.dist(history.b_end, history.b_start)
    if gap > _LOOP_TOL:
        raise LoopNotClosed(f"|b(t_b) - b(t_a)| = {gap:.3e} > {_LOOP_TOL:.0e}")
    h = _uniform_step(history.times)
    # _simpson's operations are sign-symmetric except that a zero sum reads +0,
    # so 0 - total equals the integral of the negated samples bit for bit
    try:
        int_g, err_g = _simpson(history.w_gg, h)
        int_e, err_e = _simpson(history.w_ee, h)
    except OverflowError:  # fsum's intermediate overflow
        int_g = err_g = int_e = err_e = math.inf
    dg, de, err = 0.0 - int_g, 0.0 - int_e, max(err_g, err_e)
    if not (math.isfinite(dg) and math.isfinite(de) and math.isfinite(err)):
        raise NonFiniteState("the Berry phase quadrature overflows the float range")
    return BerryPhases(dg, de, _wrap(dg), _wrap(de), err, gap)
