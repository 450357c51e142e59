"""Phase freedom of the adiabatic basis: optimal schedules and Berry phases.

Multiplying the basis states by e^{i lambda_g(t)}, e^{i lambda_e(t)} shifts
the diagonal w elements by the phase velocities and rotates the off-diagonal
one. Choosing lambda so the diagonals vanish minimizes the Hilbert-Schmidt
norm of w, and over a closed control loop the accumulated lambda increments
are the Berry phases of the branches.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import LoopNotClosed, NonUniformGridUnsupported

TWO_PI = 2.0 * math.pi


def hs_norm(w_gg: float, w_ee: float, w_ge: complex) -> float:
    """Hilbert-Schmidt norm of the Hermitian w matrix, sqrt(w_gg^2 + w_ee^2 + 2|w_ge|^2)."""
    a = abs(w_ge)
    return math.sqrt(w_gg * w_gg + w_ee * w_ee + 2.0 * a * a)


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

    m1 and omega01 are invariant; m2 and w_ge rotate by the phase difference;
    the w diagonals shift by the phase velocities and alpha is recomputed.
    """
    rot = phase_factor(lam_g, lam_e)
    w_gg = frame.w_gg + dlam_g
    w_ee = frame.w_ee + dlam_e
    w_ge = frame.w_ge * rot
    return dataclasses.replace(
        frame,
        w_gg=w_gg,
        w_ee=w_ee,
        w_ge=w_ge,
        m2=frame.m2 * rot,
        alpha=hs_norm(w_gg, w_ee, w_ge) / frame.omega01,
    )


@dataclass(frozen=True)
class PhaseShiftedFrame:
    """Frame after the optimal phase selection: w diagonals vanish by construction."""

    t: float
    omega01: float
    w_gg: float
    w_ee: float
    w_ge: complex
    m1: float
    m2: complex
    alpha: float
    lambda_g: float
    lambda_e: float


@dataclass
class PhaseSchedule:
    """Cumulative phase functions lambda_g(t), lambda_e(t) on a trajectory grid.

    Built by :func:`optimal_schedule` so that d lambda_g / dt = -w_gg and
    d lambda_e / dt = -w_ee; the derivative samples stored here are exact at
    the grid nodes, the cumulative values carry the quadrature error estimate
    in ``quadrature_error``.
    """

    times: np.ndarray
    lambda_g_values: np.ndarray
    lambda_e_values: np.ndarray
    dlambda_g_values: np.ndarray
    dlambda_e_values: np.ndarray
    lambda_g0: float
    lambda_e0: float
    quadrature_error: float
    _spline_g: object = dataclasses.field(default=None, repr=False)
    _spline_e: object = dataclasses.field(default=None, repr=False)

    def _splines(self):
        if self._spline_g is None:
            from scipy.interpolate import CubicSpline

            self._spline_g = CubicSpline(self.times, self.lambda_g_values)
            self._spline_e = CubicSpline(self.times, self.lambda_e_values)
        return self._spline_g, self._spline_e

    def lambda_g(self, t: float) -> float:
        return float(self._splines()[0](t))

    def lambda_e(self, t: float) -> float:
        return float(self._splines()[1](t))

    def delta(self, t: float) -> float:
        """lambda_e(t) - lambda_g(t)."""
        sg, se = self._splines()
        return float(se(t) - sg(t))


def _cumulative_integral(y: np.ndarray, h: float) -> tuple[np.ndarray, float]:
    """Cumulative integral on a uniform grid with an a-posteriori error estimate.

    Simpson-accurate values (trapezoid refined by Richardson extrapolation);
    the estimate compares the full-grid and half-grid trapezoid end values.
    """
    from scipy.integrate import cumulative_simpson, cumulative_trapezoid

    vals = cumulative_simpson(y, dx=h, initial=0.0)
    fine = cumulative_trapezoid(y, dx=h, initial=0.0)
    coarse_end = np.trapezoid(y[:: 2], dx=2 * h) if y.size % 2 == 1 else np.nan
    if math.isnan(coarse_end):
        err = abs(fine[-1] - vals[-1])
    else:
        err = abs(fine[-1] - coarse_end) / 3.0
    return vals, float(err)


def _uniform_history(times: np.ndarray, w_gg: np.ndarray, w_ee: np.ndarray):
    """Validate the grid; resample to uniform spacing via cubic splines if needed."""
    if times.size < 3:
        raise NonUniformGridUnsupported("history needs at least 3 samples")
    dt = np.diff(times)
    if np.any(dt <= 0):
        raise NonUniformGridUnsupported("history times must be strictly increasing")
    span = times[-1] - times[0]
    if np.max(np.abs(dt - dt[0])) <= 1e-9 * span:
        return times, w_gg, w_ee
    from scipy.interpolate import CubicSpline

    uniform = np.linspace(times[0], times[-1], times.size)
    return uniform, CubicSpline(times, w_gg)(uniform), CubicSpline(times, w_ee)(uniform)


def optimal_schedule(history, lambda_g0: float = 0.0, lambda_e0: float = 0.0) -> PhaseSchedule:
    """Phase schedule that cancels the w diagonals along the given frame history.

    lambda_g(t) = lambda_g0 - int_0^t w_gg, and likewise for the excited
    branch. The history must be sampled under one continuous gauge.
    """
    times = np.asarray(history.times, dtype=float)
    w_gg = np.array([f.w_gg for f in history.frames], dtype=float)
    w_ee = np.array([f.w_ee for f in history.frames], dtype=float)
    times_u, w_gg_u, w_ee_u = _uniform_history(times, w_gg, w_ee)
    h = float(times_u[1] - times_u[0])
    lg, err_g = _cumulative_integral(-w_gg_u, h)
    le, err_e = _cumulative_integral(-w_ee_u, h)
    return PhaseSchedule(
        times=times_u,
        lambda_g_values=lg + lambda_g0,
        lambda_e_values=le + lambda_e0,
        dlambda_g_values=-w_gg_u,
        dlambda_e_values=-w_ee_u,
        lambda_g0=lambda_g0,
        lambda_e0=lambda_e0,
        quadrature_error=max(err_g, err_e),
    )


@dataclass(frozen=True)
class BerryPhases:
    """Accumulated optimal-phase increments over one closed loop, raw and mod 2 pi."""

    delta_lambda_g: float
    delta_lambda_e: float
    delta_lambda_g_mod: float
    delta_lambda_e_mod: float


def _wrap(x: float) -> float:
    """Map to (-pi, pi]."""
    y = math.fmod(x + math.pi, TWO_PI)
    if y <= 0:
        y += TWO_PI
    return y - math.pi


def berry_phase(history, loop_tol: float = 1e-10) -> BerryPhases:
    """Berry phases of both branches from a closed-loop frame history.

    The history gauge must be single valued around the loop (the pointwise
    anchored gauge is); the increments are then - integral of the w diagonals.
    The sign follows this package's branch convention; the opposite
    convention negates both values.
    """
    b0 = np.asarray(history.b_start, dtype=float)
    b1 = np.asarray(history.b_end, dtype=float)
    gap = float(np.linalg.norm(b1 - b0))
    if gap > loop_tol:
        raise LoopNotClosed(f"|b(t_b) - b(t_a)| = {gap:.3e} > {loop_tol:.0e}")
    schedule = optimal_schedule(history)
    dg = float(schedule.lambda_g_values[-1] - schedule.lambda_g_values[0])
    de = float(schedule.lambda_e_values[-1] - schedule.lambda_e_values[0])
    return BerryPhases(dg, de, _wrap(dg), _wrap(de))


def phase_shifted_frame(frame, schedule: PhaseSchedule, t: Optional[float] = None) -> PhaseShiftedFrame:
    """Frame expressed in the optimally phase-shifted basis.

    The schedule must have been built from the same gauge as ``frame``. The
    w diagonals vanish by construction, |w_ge| and |m2| are unchanged, and
    alpha drops to sqrt(2) |w_ge| / omega01.
    """
    if t is None:
        t = frame.t
    lam_g = schedule.lambda_g(t)
    lam_e = schedule.lambda_e(t)
    rot = phase_factor(lam_g, lam_e)
    w_ge = frame.w_ge * rot
    return PhaseShiftedFrame(
        t=frame.t,
        omega01=frame.omega01,
        w_gg=0.0,
        w_ee=0.0,
        w_ge=w_ge,
        m1=frame.m1,
        m2=frame.m2 * rot,
        alpha=math.sqrt(2.0) * abs(w_ge) / frame.omega01,
        lambda_g=lam_g,
        lambda_e=lam_e,
    )
