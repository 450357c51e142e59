"""A second route to Berry phases: Simpson's rule over a tabulated frame history.

``qsteer.berry_phase`` reads a loop's phases off the optimal-phase stepper.
This module computes the same numbers independently, the way the package did
before the stepper took over: :func:`sample_history` tabulates the anchored
frame's w diagonals on a uniform grid with the kernel of ``frame_at``, and
:func:`history_berry_phase` integrates them with the composite Simpson rule
(``math.fsum`` sums). The tests use it as the reference the stepper's loop
phases are checked against.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import pairwise

from qsteer.control import ControlPath, Vec3, _fields, _frame_error, _gap, hs_norm
from qsteer.dynamics import _LOOP_TOL, BerryPhases, _wrap
from qsteer.errors import LoopNotClosed, NonFiniteState, QSteerError


class NonUniformGridUnsupported(QSteerError):
    """Frame-history grid too short, not strictly increasing or not uniform (never resampled)."""


@dataclass(frozen=True)
class FrameHistory:
    """Frame columns on a uniform time grid along a path, for Berry loops.

    ``w_gg``, ``w_ee`` and ``alpha`` are tuples of floats with one entry per
    sample time, equal to those of the general closed form of ``frame_at``
    at that time.
    """

    times: tuple[float, ...]
    w_gg: tuple[float, ...]
    w_ee: tuple[float, ...]
    alpha: tuple[float, ...]
    b_start: Vec3
    b_end: Vec3


def sample_history(path: ControlPath, t0: float, t1: float, num: int) -> FrameHistory:
    """Frame columns on a uniform grid of ``num`` points over [t0, t1].

    The grid is ``np.linspace(t0, t1, num)``'s, built by the same float
    operations. Each sample runs the kernel of ``frame_at``, so each entry
    equals that field of ``frame_at(path, t)`` bit for bit on a path that
    takes the general closed form; the frame law of a rotating cone or a
    linear sweep agrees to rounding. Raises the errors of ``frame_at``, or
    NonFiniteState where alpha overflows, at the first sample that fails.
    """
    if num < 3:
        raise ValueError("history needs at least 3 samples")
    t0, t1 = float(t0), float(t1)
    step = (t1 - t0) / (num - 1)
    times = [k * step + t0 for k in range(num - 1)]
    times.append(t1)
    cg, ce = path.anchors()
    A, fields_at = path._A_traceless, path.fields
    w_gg, w_ee, alpha = [], [], []
    for t in times:
        b, b_dot = fields_at(t)
        r = _gap(t, b)
        try:
            f = _fields(b, b_dot, A, r, b[2] >= 0.0, cg, ce)
        except ZeroDivisionError:  # as in frame_at
            raise _frame_error(t, b, r) from None
        a = hs_norm(f[0], f[1], complex(f[2], f[3])) / r
        if not a < math.inf:  # _gap passed, so |b| is finite: as integrate reports
            raise NonFiniteState(f"the local adiabatic parameter alpha overflows at t = {t:g}")
        w_gg.append(f[0])
        w_ee.append(f[1])
        alpha.append(a)
    return FrameHistory(times=tuple(times), w_gg=tuple(w_gg), w_ee=tuple(w_ee),
                        alpha=tuple(alpha), b_start=path.fields(t0)[0], b_end=path.fields(t1)[0])


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


def history_berry_phase(history) -> BerryPhases:
    """Berry phases of both branches from the w_gg, w_ee columns of a closed-loop frame history.

    The columns may be any sequences of floats, such as the tuples of
    :func:`sample_history` or arrays a caller built. The increments are
    - integral of the w diagonals; ``max_alpha`` and ``work`` are None, as
    nothing is integrated. A loop whose end is farther than
    1e-10 * max(1, |b_start|) from its start, the bound of ``berry_phase``,
    raises LoopNotClosed, a grid other than the uniform one of
    :func:`sample_history` raises NonUniformGridUnsupported, and an increment
    or error estimate beyond the float range raises NonFiniteState.
    """
    gap = math.dist(history.b_end, history.b_start)
    tol = _LOOP_TOL * max(1.0, math.hypot(*history.b_start))
    if gap > tol:
        raise LoopNotClosed(f"|b(t_b) - b(t_a)| = {gap:.3e} > {tol:.3g}")
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
    return BerryPhases(dg, de, _wrap(dg), _wrap(de), err, gap, None, None)
