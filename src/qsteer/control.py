"""Steered two-level Hamiltonians and their adiabatic-frame quantities.

The system Hamiltonian is H(t) = (1/2) b(t) . sigma with a three-component
control field b(t); energies and rates are in units of 1/time (hbar = 1).
A :class:`ControlPath` gives the field with its time derivative, as one call
fields(t) -> (b, b_dot), since a frame needs both at the same instant.
Everything downstream consumes :class:`AdiabaticFrame` snapshots, built here
by :func:`frame_at`: the instantaneous gap, the matrix elements of the
steering generator w = -i D^dag dD/dt in the smooth eigenbasis and the
coupling-operator elements in that basis. Its local adiabatic parameter
alpha = ||w|| / omega01 is derived from its w by :func:`hs_norm`.

Gauge convention
----------------
Eigenvector phases are fixed pointwise: for each branch, the component that
dominates the eigenvector at the path's start (t = 0, or the first sample
time of a sampled path; ties prefer the second component) is rotated to the
positive real axis and that anchor index is kept for all t.  The gauge
therefore depends only on the instantaneous field, is single valued around
closed control loops (so accumulated phases are meaningful Berry phases), and
is C^1 wherever the anchored component stays away from zero.  Near the
antipode of an eigenstate's initial orientation the w diagonals stay bounded
by the azimuthal rate of the field; at the antipode itself the anchored
component is exactly 0, the gauge is undefined and frame evaluation raises
GaugeUndefined.
The parallel-transport gauge, in which the w diagonals vanish, is the
optimal-phase gauge that ``integrate(track_phases=True)`` reports.

Closed form
-----------
No eigenvector is built. With r = |b|, n = sqrt(2 r (r + |b_z|)),
p = (r + |b_z|)/n and q = (b_x + i b_y)/n, the raw eigenpair is
e = (p, q), g = (-conj(q), p) for b_z >= 0 and e = (conj(q), p), g = (-p, q)
for b_z < 0. Every element <g|x.sigma|e> is a short polynomial in p and q,
and the anchored gauge multiplies it by one unit phase: +-1 for a component
+-p, the phase of q for a q-type one. The arithmetic is real throughout.

A rotating cone needs no eigen-algebra per frame. Its field is
b(t) = R_z(phi) b(0) with phi = omega t, so its eigenpair is the spin rotation
of the one at t = 0, up to the anchoring phases. The w diagonals are
constant, and w_ge and m2 turn by e^{ik phi}, where k = s (1 - n_q), s = +1
on the upper branch and -1 on the lower, and n_q counts the anchors on a
q-type component. m2 is that phase times <g|(R_z(-phi) a).sigma|e> at
t = 0, a fixed combination cos phi M_x + sin phi M_y + M_z of three t = 0
elements. omega01 = |b| and m1 = -(a.b)/r are computed per frame as the
closed form computes them, and so is the gap check.

A Landau-Zener sweep needs no eigen-algebra per frame either. Its field
b = (Delta, 0, b_z) stays in the xz plane, so its frame at t is the one at
``t_start`` turned about y by delta = theta(t) - theta(t_start), where
cos theta = b_z/r and sin theta = Delta/r. The eigenvectors stay real, so
there is no anchoring phase. The w diagonals are zero, with the closed
form's zero signs; w_ge = W v Delta / r^2 for the slope v and a constant W;
and m2 is <g|(R_y(-delta) a).sigma|e> at ``t_start``, a fixed combination
a'_x M_x + a_y M_y + a'_z M_z of three elements there. omega01 and m1 are
computed per frame as the closed form computes them. A frame whose |b| comes
near the float range, or whose Delta/|b| comes near underflow, is the closed
form's, and so is every error.

Pure Python
-----------
:class:`ControlPath`, the analytic paths and :func:`frame_at` are pure
Python. numpy and scipy are imported inside :func:`sampled_path` alone, and
its path's gap bound uses them, so a run on an analytic path loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional

from .errors import GAP_FLOOR, GapCollapse, GaugeUndefined, NonFiniteState, OutOfRange, QSteerError

Vec3 = tuple[float, float, float]
Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]


@dataclass
class ControlPath:
    """Time-parametrized control field plus the fixed system coupling operator.

    ``fields`` maps a time t to the pair (b, b_dot): the field vector
    (b_x, b_y, b_z) at t and its time derivative there.  ``coupling_A`` is
    the Hermitian system part of the system-environment coupling, given in
    the fixed basis as any 2x2 nested sequence of numbers (lists, tuples or
    an array) and stored as a tuple of two rows of two complex numbers.
    ``t_start`` is where the path begins: the first sample time of a sampled
    path, 0 for the analytic ones.

    ``_law`` is the frame law, a function of (path, t) that :func:`frame_at`
    calls: the general closed form unless :func:`rotating_cone` or
    :func:`linear_sweep` sets its own. Like ``_anchors`` it is not an init
    argument, so ``dataclasses.replace`` copies get the closed form; as it
    takes the path as an argument, no law holds a reference to its path.
    ``_gap_bound``, likewise, is set by each path constructor: a function
    of (t0, t1) that gives the path's largest gap |b| over that window.
    """

    fields: Callable[[float], tuple[Vec3, Vec3]]
    coupling_A: Matrix2
    duration: float
    t_start: float = 0.0
    _anchors: Optional[tuple[int, int]] = field(default=None, init=False, repr=False)
    _A_traceless: Optional[tuple[complex, complex, complex]] = field(default=None, init=False, repr=False)
    _law: Callable[[ControlPath, float], AdiabaticFrame] = field(init=False, repr=False, compare=False)
    _gap_bound: Optional[Callable[[float, float], float]] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        A = _coupling_matrix(self.coupling_A)
        (a, b), (c, d) = A
        if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in (a, b, c, d)):
            raise ValueError("coupling_A must be finite")
        if _hermitian_residual(A) > _HERMITIAN_TOL:
            raise ValueError(f"coupling_A must be Hermitian to {_HERMITIAN_TOL:.0e}")
        if not (self.duration > 0 and math.isfinite(self.duration)):
            raise ValueError("duration must be positive and finite")
        self.coupling_A = A
        half_trace = (a + d) / 2
        self._A_traceless = (a - half_trace, b, d - half_trace)
        self._law = _closed_form

    def anchors(self) -> tuple[int, int]:
        """Anchor component indices (ground, excited), fixed at the start of the path.

        The start is ``t_start``, so a sampled path is never evaluated outside
        its samples here.
        """
        if self._anchors is None:
            bx, by, bz = b = self.fields(self.t_start)[0]
            r = _gap(self.t_start, b)
            n = math.sqrt(2 * r * (r + abs(bz)))
            p, mq = (r + abs(bz)) / n, _hypot(bx / n, by / n)
            # the larger component of (g, e) = ((-conj q, p), (p, q)) for b_z >= 0 and
            # ((-p, q), (conj q, p)) for b_z < 0; ties go to the second
            cg = 1 if (p >= mq if bz >= 0.0 else mq >= p) else 0
            ce = 1 if (mq >= p if bz >= 0.0 else p >= mq) else 0
            self._anchors = (cg, ce)
        return self._anchors


# Largest entry of |A - A^dag| that a coupling operator may have.
_HERMITIAN_TOL = 1e-14


def _hermitian_residual(A: Matrix2) -> float:
    """The largest entry of |A - A^dag| for two rows of two complex numbers.

    The two off-diagonal entries have one modulus, and a diagonal one is
    2 |Im a|. hypot gives inf where abs() of a huge complex raises
    OverflowError.
    """
    (a, b), (c, d) = A
    residuals = (a - a.conjugate(), b - c.conjugate(), d - d.conjugate())
    return max(math.hypot(z.real, z.imag) for z in residuals)


def _coupling_matrix(A) -> Matrix2:
    """A as two rows of two complex numbers; ValueError unless it is 2x2.

    Entries convert with ``complex()``, so a numeric string parses and any
    other string raises complex()'s ValueError; a non-numeric entry, such as
    a nested row, makes the matrix not 2x2.
    """
    try:
        rows = [list(row) for row in A]
        if len(rows) == 2 and all(len(row) == 2 for row in rows):
            return tuple(tuple(complex(x) for x in row) for row in rows)
    except TypeError:
        pass
    raise ValueError("coupling_A must be a 2x2 matrix")


def rotating_cone(
    Omega: float,
    theta: float,
    omega: float,
    coupling_A,
    duration: Optional[float] = None,
) -> ControlPath:
    """Field of magnitude Omega precessing at angular rate omega on a cone of opening theta.

    Defaults to one full revolution, duration = 2 pi / omega. The field and
    its derivative share one cosine and one sine of omega t. The path carries
    the cone's frame law (see the module notes), built from the closed form
    at t = 0; where that fails, or its values come within a factor 2 of the
    float range, the path keeps the general closed form, so every frame
    raises what the closed form raises. Where omega t overflows, ``fields``
    and the law raise NonFiniteState naming t.
    """
    if not 0 < Omega < math.inf:
        raise ValueError("Omega must be positive and finite")
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if omega == 0 or not math.isfinite(omega):
        raise ValueError("omega must be nonzero and finite")
    if duration is None:
        duration = 2 * math.pi / abs(omega)
    cos, sin = math.cos, math.sin
    st, ct = sin(theta), cos(theta)
    # each component's leading product, evaluated left to right as it would be per call
    r_xy, b_z = Omega * st, Omega * ct
    v_x, v_y = -Omega * omega * st, Omega * omega * st

    def fields(t: float) -> tuple[Vec3, Vec3]:
        try:
            c, s = cos(omega * t), sin(omega * t)
        except ValueError:  # only an infinite phase is outside their domain
            raise _phase_error(omega, t) from None
        return (r_xy * c, r_xy * s, b_z), (v_x * s, v_y * c, 0.0)

    path = ControlPath(fields=fields, coupling_A=coupling_A, duration=duration)
    path._law = _cone_law(path, omega)
    path._gap_bound = lambda t0, t1: Omega
    return path


def linear_sweep(slope: float, gap: float, duration: float, coupling_A) -> ControlPath:
    """Landau-Zener style sweep: b = (gap, 0, slope * (t - duration/2)).

    The avoided crossing of width ``gap`` sits at mid-path, so over a window
    the gap is largest at the end farther from it. The path carries
    the sweep's frame law (see the module notes), built from the closed form
    at t = 0; where that fails there, or a slope of magnitude below 2^-60
    could make its steering product underflow, the path keeps the general
    closed form. Frames outside the law's safe range are the closed form's,
    so every frame raises what the closed form raises.
    """
    if not 0 < gap < math.inf:
        raise ValueError("gap must be positive and finite")
    if not math.isfinite(slope):
        raise ValueError("slope must be finite")

    def fields(t: float) -> tuple[Vec3, Vec3]:
        return (gap, 0.0, slope * (t - duration / 2)), (0.0, 0.0, slope)

    def gap_bound(t0: float, t1: float) -> float:
        mid = duration / 2
        return math.hypot(gap, slope * max(abs(t0 - mid), abs(t1 - mid)))

    path = ControlPath(fields=fields, coupling_A=coupling_A, duration=duration)
    path._law = _sweep_law(path, slope, gap, duration / 2)
    path._gap_bound = gap_bound
    return path


def sampled_path(times, b_values, coupling_A) -> ControlPath:
    """Cubic-spline interpolation of tabulated (t, b) samples; C^1 by construction.

    ``fields`` raises OutOfRange outside the sample times, which are widened
    by 4 ulps of the larger end: a stage at a window's end can land an ulp
    past it. The gap bound is the largest |b| over the window, clipped to the
    sample times. On each spline piece |b|^2 is a polynomial, so its maximum
    lies at the window's ends or at a real root of d|b|^2/dt = 2 b.b_dot, a
    quintic built from the spline's own coefficients.
    """
    import numpy as np
    from scipy.interpolate import CubicSpline, PPoly

    times = np.asarray(times, dtype=float)
    b_values = np.asarray(b_values, dtype=float)
    if times.ndim != 1 or times.size < 4:
        raise ValueError("sampled path needs at least 4 time samples")
    if np.any(np.diff(times) <= 0):
        raise ValueError("sampled path times must be strictly increasing")
    if b_values.shape != (times.size, 3):
        raise ValueError("b_values must have shape (n_times, 3)")
    spline = CubicSpline(times, b_values, axis=0)
    dspline = spline.derivative()
    t0, t_last = float(times[0]), float(times[-1])
    slack = 4 * math.ulp(max(abs(t0), abs(t_last)))
    lo, hi = t0 - slack, t_last + slack

    def fields(t: float) -> tuple[Vec3, Vec3]:
        if not lo <= t <= hi:
            raise OutOfRange(f"t = {t!r} is outside the path's samples [{t0!r}, {t_last!r}]")
        bx, by, bz = spline(t)
        dx, dy, dz = dspline(t)
        return (float(bx), float(by), float(bz)), (float(dx), float(dy), float(dz))

    def gap_bound(t0: float, t1: float) -> float:
        c, dc = spline.c, dspline.c  # highest power first; pieces x components
        dot = np.zeros((6, c.shape[1]))
        for i in range(4):
            for j in range(3):
                dot[i + j] += (c[i] * dc[j]).sum(axis=-1)
        lo, hi = np.clip((t0, t1), spline.x[0], spline.x[-1])
        roots = PPoly(dot, spline.x).roots(discontinuity=False, extrapolate=False)
        ts = np.concatenate((roots[(lo <= roots) & (roots <= hi)], (lo, hi)))  # NaN roots drop out
        return float(np.sqrt((spline(ts) ** 2).sum(axis=-1)).max())

    path = ControlPath(fields=fields, coupling_A=coupling_A, duration=t_last - t0, t_start=t0)
    path._gap_bound = gap_bound
    return path


def hs_norm(w_gg: float, w_ee: float, w_ge: complex) -> float:
    """Hilbert-Schmidt norm of the Hermitian w matrix, sqrt(w_gg^2 + w_ee^2 + 2|w_ge|^2).

    hypot only where the squares overflow (or NaN).
    """
    re, im = w_ge.real, w_ge.imag
    norm = math.sqrt(w_gg * w_gg + w_ee * w_ee + 2.0 * (re * re + im * im))
    if not norm < math.inf:
        norm = math.hypot(w_gg, w_ee, re, re, im, im)
    return norm


class AdiabaticFrame(NamedTuple):
    """One-time snapshot of every frame quantity the master equations consume.

    ``m1`` and ``m2`` are the coupling-operator elements after the traceless
    convention and ``w_ge`` the off-diagonal steering element (w_eg is its
    conjugate). ``alpha`` is read from the fields, so it always agrees with them.
    """

    omega01: float
    w_gg: float
    w_ee: float
    w_ge: complex
    m1: float
    m2: complex

    @property
    def alpha(self) -> float:
        """||w|| / omega01 with the Hilbert-Schmidt norm :func:`hs_norm`."""
        return hs_norm(self.w_gg, self.w_ee, self.w_ge) / self.omega01


# ----------------------------------------------------------------------
# internals: one branch of the closed form
# ----------------------------------------------------------------------

def _gap(t, b):
    """|b| at time t; raises what :func:`_frame_error` gives unless GAP_FLOOR < |b| < inf."""
    bx, by, bz = b
    r = math.sqrt(bx * bx + by * by + bz * bz)
    if not GAP_FLOOR < r < math.inf:
        raise _frame_error(t, b, r)
    return r


def _hypot(x, y):
    """|x + iy| by the C library's hypot, as complex abs() takes it."""
    return abs(complex(x, y))


def _frame_error(t, b, r):
    """The error for a frame that cannot be given at time t, field b and r = |b|.

    A gap at or below GAP_FLOOR collapses. Past it the error names t: a NaN
    field and an overflowing normalisation are not finite; only a finite
    field with a zero anchored component has reached the antipode.
    """
    if r <= GAP_FLOOR:
        return GapCollapse(f"|b| = {r:.3e} <= gap floor {GAP_FLOOR:.0e}")
    if math.isnan(r):
        return NonFiniteState(f"the field magnitude |b| is nan at t = {t:g}")
    if 2.0 * r * (r + abs(b[2])) == math.inf:  # n overflows, so |q| and p read 0 or nan
        return NonFiniteState(
            f"the field magnitude |b| = {math.hypot(*b):.6g} overflows the frame "
            f"normalisation at t = {t:g}"
        )
    return GaugeUndefined(
        f"an anchored eigenvector component vanishes at t = {t:g}: the path reached the "
        "antipode of its start orientation, where the anchored gauge is undefined"
    )


def _phase_error(omega, t):
    """The error for a cone whose drive phase omega t is infinite at time t."""
    return NonFiniteState(f"the drive phase omega t = {omega * t:g} is not finite at t = {t:g}")


def _fields(b, bd, A, r, upper, cg, ce):
    """w_gg, w_ee, Re w_ge, Im w_ge, m1, Re m2 and Im m2 at one sample.

    ``b`` and ``bd`` are the field and its derivative, ``A`` the traceless
    coupling, ``r`` = |b| and ``upper`` = (b_z >= 0); (cg, ce) are the path's
    anchors. The arithmetic is real, and no path value is negated before a
    float operation (a path may give ints). With an anchor on q a zero |q|
    raises ZeroDivisionError.
    """
    bx, by, bz = b
    s = r + bz if upper else r - bz
    n = math.sqrt(2 * r * s)
    p = s / n
    # q_b = a + ic is q = (b_x + i b_y)/n on the upper branch and conj(q) on the lower
    a = bx / n
    c = by / n if upper else -(by / n)
    P, Qr, Qi, Zr, Zi = p * p, a * a - c * c, 2.0 * a * c, 2.0 * p * a, 2.0 * p * c
    # <g|x.sigma|e> with u = x_x + i x_y: u P - conj(u) q_b^2 - x_z 2 p q_b on the
    # upper branch, u q_b^2 - conj(u) P - x_z 2 p q_b on the lower; dH/dt has x = b_dot/2
    ux, uy, xz = 0.5 * bd[0], 0.5 * bd[1], 0.5 * bd[2]
    A00, A01 = A[0], A[1]
    vx, vy, vz = A01.real, -A01.imag, A00.real
    if upper:
        ge_r = ux * P - (ux * Qr + uy * Qi) - xz * Zr
        ge_i = uy * P - (ux * Qi - uy * Qr) - xz * Zi
        m2_r = vx * P - (vx * Qr + vy * Qi) - vz * Zr
        m2_i = vy * P - (vx * Qi - vy * Qr) - vz * Zi
    else:
        ge_r = (ux * Qr - uy * Qi) - ux * P - xz * Zr
        ge_i = (ux * Qi + uy * Qr) + uy * P - xz * Zi
        m2_r = (vx * Qr - vy * Qi) - vx * P - vz * Zr
        m2_i = (vx * Qi + vy * Qr) + vy * P - vz * Zi
    # Each anchored component is p, -p or q-type; the diagonals are
    # sign * p Im(q_b conj(ge)) / (omega01 |component|^2), sign = -1 for anchor 0
    jr = (c * ge_r - a * ge_i) / r
    g_on_p = (cg == 1) == upper
    e_on_p = (ce == 0) == upper
    m = 1.0 if g_on_p and e_on_p else _hypot(a, c)
    w_gg = jr / p if g_on_p else p * jr / m / m
    w_ee = jr / p if e_on_p else p * jr / m / m
    # the anchoring factor conj(f_e) f_g is (-1 for cg = 0) times conj(q_b / |q|)
    # once for each anchor on q
    if cg == 0:
        w_gg, ge_r, ge_i, m2_r, m2_i = -w_gg, -ge_r, -ge_i, -m2_r, -m2_i
    if ce == 0:
        w_ee = -w_ee
    if not (g_on_p and e_on_p):
        fr, fi = a / m, c / m
        for _ in range((not g_on_p) + (not e_on_p)):
            ge_r, ge_i = fr * ge_r + fi * ge_i, fr * ge_i - fi * ge_r
            m2_r, m2_i = fr * m2_r + fi * m2_i, fr * m2_i - fi * m2_r
    # w_ge = -i <g|dH/dt|e> / omega01
    wr, wi = ge_i / r, -(ge_r / r)
    m1 = -(vx * bx + vy * by + vz * bz) / r
    return w_gg, w_ee, wr, wi, m1, m2_r, m2_i


def _cone_law(path, omega) -> Callable[[ControlPath, float], AdiabaticFrame]:
    """The frame law of a cone path at rate omega, whose field at t = 0 is (r_xy, 0, b_z).

    w_gg, w_ee and w_ge(0) are :func:`_fields` at t = 0; M_x, M_y and M_z
    are its m2 there for the couplings (a_x, a_y, 0), (a_y, -a_x, 0) and
    (0, 0, a_z). The closed form where the kernel fails at t = 0, or where
    2 r (r + |b_z|) or a value is within a factor 2 of overflow: the ulps
    by which |b| drifts along the cone can overflow the normalisation at
    some t but not at 0, and the law does not compute it.
    """
    b, bd = path.fields(0.0)
    r_xy, _, b_z = b
    A = path._A_traceless
    v_x, v_y, v_z = A[1].real, -A[1].imag, A[0].real
    upper = b_z >= 0.0
    try:
        r = _gap(0.0, b)
        cg, ce = path.anchors()
        w_gg, w_ee, wr, wi, _, _, _ = _fields(b, bd, A, r, upper, cg, ce)
        m_x, m_y, m_z = [complex(*_fields(b, bd, x, r, upper, cg, ce)[5:])
                         for x in ((0.0, complex(v_x, -v_y)), (0.0, complex(v_y, v_x)), (v_z, 0j))]
    except (ZeroDivisionError, QSteerError):
        return _closed_form
    values = (2.0 * r * (r + abs(b_z)), w_gg, w_ee, wr, wi) + tuple(
        x for z in (m_x, m_y, m_z) for x in (z.real, z.imag))
    if not all(math.isfinite(2.0 * x) for x in values):
        return _closed_form
    n_q = ((cg == 1) != upper) + ((ce == 0) != upper)
    k = (1 - n_q) if upper else (n_q - 1)
    w_ge0 = complex(wr, wi)
    cos, sin, sqrt, inf, new = math.cos, math.sin, math.sqrt, math.inf, tuple.__new__

    def law(path: ControlPath, t: float) -> AdiabaticFrame:
        try:  # the cone's fields(t), inline
            c, s = cos(omega * t), sin(omega * t)
        except ValueError:
            raise _phase_error(omega, t) from None
        bx, by = r_xy * c, r_xy * s
        r = sqrt(bx * bx + by * by + b_z * b_z)  # _gap, inline
        if not GAP_FLOOR < r < inf:
            raise _frame_error(t, (bx, by, b_z), r)
        m2, w_ge = c * m_x + s * m_y + m_z, w_ge0
        if k:  # the anchoring phase e^{ik phi}, k = +-1
            turn = complex(c, k * s)
            m2 *= turn
            w_ge *= turn
        m1 = -(v_x * bx + v_y * by + v_z * b_z) / r
        return new(AdiabaticFrame, (r, w_gg, w_ee, w_ge, m1, m2))

    return law


# A sweep frame is its law's only while Delta/|b| > 2^-1000 and |b| < 2^500:
# there the closed form's |q| is a normal float and its normalisation is far
# from overflow. Below 2^-60 in magnitude, a slope's steering product can
# underflow to a zero of the other sign, so such a sweep keeps the closed form.
_SWEEP_TILT_MIN = 2.0**-1000
_SWEEP_FIELD_MAX = 2.0**500
_SWEEP_SLOPE_MIN = 2.0**-60


def _sweep_law(path, slope, gap, half) -> Callable[[ControlPath, float], AdiabaticFrame]:
    """The frame law of a sweep path with field (gap, 0, slope (t - half)).

    The w diagonals are :func:`_fields`' at ``t_start`` on its branch and
    their negatives on the other, as the closed form's zero signs are;
    M_x, M_y and M_z are its m2 there for the couplings x, y and z, and W
    is +-i/2, the sign read off M_z = -f sin theta(t_start). The closed form
    where the kernel fails at ``t_start``, the start lies outside the safe
    range, the slope is below the floor, or a constant is not finite.
    """
    if 0.0 < abs(slope) < _SWEEP_SLOPE_MIN:
        return _closed_form
    t0 = path.t_start
    b, bd = path.fields(t0)
    b_z = b[2]
    A = path._A_traceless
    v_x, v_y, v_z = A[1].real, -A[1].imag, A[0].real
    upper = b_z >= 0.0
    r_hi = min(_SWEEP_FIELD_MAX, gap / _SWEEP_TILT_MIN)  # Delta/|b| > 2^-1000 below it
    try:
        r0 = _gap(t0, b)
        cg, ce = path.anchors()
        w_gg, w_ee = _fields(b, bd, A, r0, upper, cg, ce)[:2]
        m_x, m_y, m_z = [complex(*_fields(b, bd, x, r0, upper, cg, ce)[5:])
                         for x in ((0.0, 1 + 0j), (0.0, -1j), (1.0, 0j))]
    except (ZeroDivisionError, QSteerError):
        return _closed_form
    if not r0 < r_hi:
        return _closed_form
    c0, s0 = b_z / r0, gap / r0
    # m2 = a'_x M_x + a_y M_y + a'_z M_z with a' = R_y(-delta) a, grouped by cos and sin delta
    k_c, k_s, k_0 = v_x * m_x + v_z * m_z, v_x * m_z - v_z * m_x, v_y * m_y
    w_v = complex(0.0, math.copysign(0.5, -m_z.real)) * slope
    if not all(math.isfinite(2.0 * x) for z in (k_c, k_s, k_0, w_v) for x in (z.real, z.imag)):
        return _closed_form
    here, there = (w_gg, w_ee), (-w_gg, -w_ee)
    up, down = (here, there) if upper else (there, here)
    gg, xg = gap * gap + 0.0 * 0.0, v_x * gap + v_y * 0.0  # the closed form's leading sums
    sqrt, new = math.sqrt, tuple.__new__

    def law(path: ControlPath, t: float) -> AdiabaticFrame:
        bz = slope * (t - half)  # the sweep's fields(t), inline
        r = sqrt(gg + bz * bz)
        if not GAP_FLOOR < r < r_hi:
            return _closed_form(path, t)
        c, s = bz / r, gap / r
        cd, sd = c * c0 + s * s0, s * c0 - c * s0  # cos and sin of delta
        w_gg, w_ee = up if bz >= 0.0 else down
        m1 = -(xg + v_z * bz) / r
        return new(AdiabaticFrame, (r, w_gg, w_ee, w_v * s / r, m1, cd * k_c + sd * k_s + k_0))

    return law


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def frame_at(path: ControlPath, t: float) -> AdiabaticFrame:
    """Full adiabatic-frame snapshot at time t, in the anchored gauge.

    One call of the path's frame law, by default the closed form (see the
    module notes): omega01 = r = |b|, m1 = -(a.b)/r for the traceless
    coupling a.sigma, and <g|dH/dt|e> and m2 = <g|A|e> written out for the
    raw eigenpair, times the anchoring factor conj(f_e) f_g, f the unit
    phase of each anchored component. w_ge = -i <g|dH/dt|e> / omega01; the
    w diagonals keep the anchored components on the real axis. A rotating cone's or a linear sweep's own
    law gives the same omega01 and m1; the cone law makes the same gap
    check, and the sweep law hands each frame outside its safe range to the
    closed form. Raises GapCollapse at |b| <= GAP_FLOOR,
    GaugeUndefined, naming t, where an anchored component is 0, and
    NonFiniteState, naming t, where |b| is NaN, the normalisation
    n = sqrt(2 r (r + |b_z|)) of a huge field overflows or a cone's drive
    phase omega t does. Its alpha may read inf; integrate reports that.
    """
    return path._law(path, t)


def _closed_form(path: ControlPath, t: float) -> AdiabaticFrame:
    """The general closed form on the path's fields at t: every path's frame law by default."""
    cg, ce = path._anchors or path.anchors()
    b, bd = path.fields(t)
    bx, by, bz = b
    r = math.sqrt(bx * bx + by * by + bz * bz)  # _gap, inline
    if not GAP_FLOOR < r < math.inf:  # an overflowing |b| gives _fields a NaN p, not a zero one
        raise _frame_error(t, b, r)
    try:
        w_gg, w_ee, wr, wi, m1, m2_r, m2_i = _fields(b, bd, path._A_traceless, r, bz >= 0.0, cg, ce)
    except ZeroDivisionError:  # only a zero |q| divides by zero
        raise _frame_error(t, b, r) from None
    # tuple.__new__ skips the NamedTuple's Python-level __new__; the result is an AdiabaticFrame
    return tuple.__new__(AdiabaticFrame, (r, w_gg, w_ee, complex(wr, wi), m1, complex(m2_r, m2_i)))


def _frame_provider(path: ControlPath) -> Callable[[float], AdiabaticFrame]:
    """``frame_at(path, t)`` as a function of t alone: the path's frame law bound to the path.

    A partial of ``path._law``, so each frame is one call of the law, with no
    Python-level call between the caller and it; the frames are
    :func:`frame_at`'s bit for bit. It is the frame provider that
    :func:`~qsteer.dynamics.integrate` gets for a steered path.
    """
    return partial(path._law, path)
