"""Steered two-level Hamiltonians and their adiabatic-frame quantities.

The system Hamiltonian is H(t) = (1/2) b(t) . sigma with a three-component
control field b(t); energies and rates are in units of 1/time (hbar = 1).
Everything downstream consumes :class:`AdiabaticFrame` snapshots, built here
by :func:`frame_at`: the instantaneous gap, the matrix elements of the
steering generator w = -i D^dag dD/dt in the smooth eigenbasis, the
coupling-operator elements in that basis, and the local adiabatic parameter
alpha = ||w|| / omega01.

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

Scalars and arrays
------------------
:class:`ControlPath`, the analytic paths and :func:`frame_at` are pure
Python. numpy is imported inside the functions that hold arrays
(:func:`sample_history` and its column helpers, and :func:`sampled_path`,
which also loads scipy), so a run on an analytic path loads neither.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .errors import GAP_FLOOR, GapCollapse, GaugeUndefined

if TYPE_CHECKING:
    import numpy as np

Vec3 = tuple[float, float, float]
Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]


@dataclass
class ControlPath:
    """Time-parametrized control field plus the fixed system coupling operator.

    ``b`` maps time to the field vector (b_x, b_y, b_z) and ``b_dot`` to its
    time derivative; both are required.  ``coupling_A`` is the Hermitian
    system part of the system-environment coupling, given in the fixed basis
    as any 2x2 nested sequence of numbers (lists, tuples or an array) and
    stored as a tuple of two rows of two complex numbers.
    """

    kind: str
    b: Callable[[float], Vec3]
    b_dot: Callable[[float], Vec3]
    coupling_A: Matrix2
    duration: float
    params: dict = field(default_factory=dict)
    _anchors: Optional[tuple[int, int]] = field(default=None, init=False, repr=False)
    _A_traceless: Optional[tuple[complex, complex, complex]] = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self):
        if self.b_dot is None:
            raise ValueError("b_dot is required: frames take w from the field derivative")
        A = _coupling_matrix(self.coupling_A)
        (a, b), (c, d) = A
        # |A - A^dag| entrywise (its two off-diagonal entries have one modulus);
        # hypot gives inf where abs() of a huge complex raises OverflowError
        residuals = (a - a.conjugate(), b - c.conjugate(), d - d.conjugate())
        if any(math.hypot(z.real, z.imag) > 1e-14 for z in residuals):
            raise ValueError("coupling_A must be Hermitian to 1e-14")
        if not (self.duration > 0 and math.isfinite(self.duration)):
            raise ValueError("duration must be positive and finite")
        self.coupling_A = A
        half_trace = (a + d) / 2
        self._A_traceless = (a - half_trace, b, d - half_trace)

    def anchors(self) -> tuple[int, int]:
        """Anchor component indices (ground, excited), fixed at the start of the path.

        The start is ``params["t_start"]`` for sampled paths and t = 0 otherwise,
        so a sampled path is never evaluated outside its samples here.
        """
        if self._anchors is None:
            g, e, _, _ = _eig_raw(*self.b(self.params.get("t_start", 0.0)))
            cg = 1 if abs(g[1]) >= abs(g[0]) else 0
            ce = 1 if abs(e[1]) >= abs(e[0]) else 0
            self._anchors = (cg, ce)
        return self._anchors


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

    Defaults to one full revolution, duration = 2 pi / omega.
    """
    if Omega <= 0:
        raise ValueError("Omega must be positive")
    if omega == 0:
        raise ValueError("omega must be nonzero")
    if duration is None:
        duration = 2 * math.pi / abs(omega)
    st, ct = math.sin(theta), math.cos(theta)

    def b(t: float) -> Vec3:
        return (Omega * st * math.cos(omega * t), Omega * st * math.sin(omega * t), Omega * ct)

    def b_dot(t: float) -> Vec3:
        return (-Omega * omega * st * math.sin(omega * t), Omega * omega * st * math.cos(omega * t), 0.0)

    return ControlPath(
        kind="rotating_cone",
        b=b,
        b_dot=b_dot,
        coupling_A=coupling_A,
        duration=duration,
        params={"Omega": Omega, "theta": theta, "omega": omega},
    )


def linear_sweep(slope: float, gap: float, duration: float, coupling_A) -> ControlPath:
    """Landau-Zener style sweep: b = (gap, 0, slope * (t - duration/2)).

    The avoided crossing of width ``gap`` sits at mid-path.
    """
    if gap <= 0:
        raise ValueError("gap must be positive")

    def b(t: float) -> Vec3:
        return (gap, 0.0, slope * (t - duration / 2))

    def b_dot(t: float) -> Vec3:
        return (0.0, 0.0, slope)

    return ControlPath(
        kind="linear_sweep",
        b=b,
        b_dot=b_dot,
        coupling_A=coupling_A,
        duration=duration,
        params={"slope": slope, "gap": gap},
    )


def sampled_path(times, b_values, coupling_A) -> ControlPath:
    """Cubic-spline interpolation of tabulated (t, b) samples; C^1 by construction."""
    import numpy as np
    from scipy.interpolate import CubicSpline

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
    t0 = float(times[0])

    def b(t: float) -> Vec3:
        bx, by, bz = spline(t)
        return (float(bx), float(by), float(bz))

    def b_dot(t: float) -> Vec3:
        bx, by, bz = dspline(t)
        return (float(bx), float(by), float(bz))

    return ControlPath(
        kind="sampled",
        b=b,
        b_dot=b_dot,
        coupling_A=coupling_A,
        duration=float(times[-1] - t0),
        params={"n_samples": int(times.size), "t_start": t0, "t_end": float(times[-1])},
    )


def path_from_csv(csv_path, coupling_A) -> ControlPath:
    """Sampled path from CSV rows (t, b_x, b_y, b_z).

    The first non-empty row is skipped as a header if it does not parse; any
    later row that does not parse raises ValueError.
    """
    times, vecs = [], []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        for i, row in enumerate(row for row in reader if row):
            try:
                vals = [float(x) for x in row[:4]]
            except ValueError:
                if i == 0:
                    continue  # header
                raise ValueError(f"line {reader.line_num} does not parse: {','.join(row)!r}") from None
            times.append(vals[0])
            vecs.append(vals[1:4])
    return sampled_path(times, vecs, coupling_A)


class AdiabaticFrame(NamedTuple):
    """One-time snapshot of every frame quantity the master equations consume.

    ``m1`` and ``m2`` are the coupling-operator elements after the traceless
    convention, ``w_ge`` the off-diagonal steering element (w_eg is its
    conjugate) and ``alpha`` the local adiabatic parameter.
    """

    t: float
    omega01: float
    w_gg: float
    w_ee: float
    w_ge: complex
    m1: float
    m2: complex
    alpha: float


@dataclass(frozen=True)
class FrameHistory:
    """Frame columns on a uniform time grid along a path, for Berry loops.

    ``w_gg``, ``w_ee`` and ``alpha`` hold one entry per sample time, equal to
    the fields of :func:`frame_at` at that time.
    """

    times: np.ndarray
    w_gg: np.ndarray
    w_ee: np.ndarray
    alpha: np.ndarray
    b_start: Vec3
    b_end: Vec3


# ----------------------------------------------------------------------
# scalar internals (hot path: no numpy)
# ----------------------------------------------------------------------

def _eig_raw(bx: float, by: float, bz: float):
    """Closed-form eigenpair of (1/2) b.sigma, arbitrary phases.

    Returns ((g0, g1), (e0, e1), E_g, E_e). Raises GapCollapse when |b| is
    below GAP_FLOOR. The two algebraic branches avoid cancellation near the
    poles b ~ -+z.
    """
    r = math.sqrt(bx * bx + by * by + bz * bz)
    if r <= GAP_FLOOR:
        raise GapCollapse(f"|b| = {r:.3e} <= gap floor {GAP_FLOOR:.0e}")
    if bz >= 0.0:
        n = math.sqrt(2 * r * (r + bz))
        e = ((r + bz) / n, complex(bx, by) / n)
        g = (complex(-bx, by) / n, (r + bz) / n)
    else:
        n = math.sqrt(2 * r * (r - bz))
        e = (complex(bx, -by) / n, (r - bz) / n)
        g = (-(r - bz) / n, complex(bx, by) / n)
    return g, e, -r / 2, r / 2


def _gauge_undefined(t):
    return GaugeUndefined(
        f"an anchored eigenvector component vanishes at t = {t:g}: the path reached the "
        "antipode of its start orientation, where the anchored gauge is undefined"
    )


def _anchor(vec, c, t):
    """Rotate vec so component c is real positive; raises GaugeUndefined, naming t, if it is 0."""
    vc = vec[c]
    m = abs(vc)
    if m == 0.0:
        raise _gauge_undefined(t)
    ph = vc / m
    return (vec[0] / ph, vec[1] / ph)


# ----------------------------------------------------------------------
# array internals: frame_at's arithmetic over columns of samples
# ----------------------------------------------------------------------
# A value is a pair (re, im) of float arrays, with im None where frame_at
# holds a Python float. As in CPython, a float meeting a complex is promoted
# to (x, 0.0) and complex division is _Py_c_quot's (numpy's multiplies by a
# reciprocal), so every column equals frame_at's floats bit for bit.

def _promote(a):
    return a if a[1] is not None else (a[0], 0.0)


def _neg(a):
    return -a[0], None if a[1] is None else -a[1]


def _conj(a):
    return a[0], None if a[1] is None else -a[1]


def _add(a, b):
    if a[1] is None and b[1] is None:
        return a[0] + b[0], None
    (ar, ai), (br, bi) = _promote(a), _promote(b)
    return ar + br, ai + bi


def _mul(a, b):
    if a[1] is None and b[1] is None:
        return a[0] * b[0], None
    (ar, ai), (br, bi) = _promote(a), _promote(b)
    return ar * br - ai * bi, ar * bi + ai * br


def _div(a, b):
    if a[1] is None and b[1] is None:
        return a[0] / b[0], None
    (ar, ai), (br, bi) = _promote(a), _promote(b)
    if b[1] is None:  # |b.real| >= |b.imag| = 0: _Py_c_quot's first branch
        ratio = bi / br
        denom = br + bi * ratio
        return (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
    import numpy as np

    by_re = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_re, bi / br, br / bi)
    denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
    re = np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom
    im = np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im


def _anchor_columns(vec, c):
    """:func:`_anchor` over columns; also returns the anchor modulus (0 where it is undefined)."""
    import numpy as np

    vc = vec[c]
    m = np.abs(vc[0]) if vc[1] is None else np.hypot(vc[0], vc[1])
    ph = _div(vc, (m, None))
    return (_div(vec[0], ph), _div(vec[1], ph)), m


def _branch_columns(upper, r, b, nb, bd, nbd, cg, ce):
    """w_gg, w_ee, alpha and the anchor moduli on samples of one :func:`_eig_raw` branch.

    ``r`` is |b|; ``nb`` and ``nbd`` are the negated fields, negated before
    the cast to float as Python negates an integer field.
    """
    import numpy as np

    bx, by, bz = b
    if upper:
        n = np.sqrt(2 * r * (r + bz))
        d = ((r + bz) / n, None)
        e = (d, _div((bx, by), (n, None)))
        g = (_div((nb[0], by), (n, None)), d)
    else:
        n = np.sqrt(2 * r * (r - bz))
        d = ((r - bz) / n, None)
        e = (_div((bx, nb[1]), (n, None)), d)
        g = (((-(r - bz)) / n, None), _div((bx, by), (n, None)))
    g, mg = _anchor_columns(g, cg)
    e, me = _anchor_columns(e, ce)
    omega01 = (r / 2 - (-r) / 2, None)  # E_e - E_g
    H00 = (0.5 * bd[2], None)
    H01 = _mul((0.5, None), (bd[0], nbd[1]))
    H11 = (-0.5 * bd[2], None)
    gc0, gc1 = _conj(g[0]), _conj(g[1])
    ge = _add(_mul(gc0, _add(_mul(H00, e[0]), _mul(H01, e[1]))),
              _mul(gc1, _add(_mul(_conj(H01), e[0]), _mul(H11, e[1]))))
    w_ge = _div(_mul((-0.0, -1.0), ge), omega01)
    w_gg = -_div(_mul(_neg(e[cg]), _conj(ge)), omega01)[1] / g[cg][0]
    w_ee = -_div(_mul(g[ce], ge), omega01)[1] / e[ce][0]
    alpha = np.sqrt(w_gg * w_gg + w_ee * w_ee + 2.0 * (w_ge[0] ** 2 + w_ge[1] ** 2)) / omega01[0]
    return w_gg, w_ee, alpha, np.minimum(mg, me)


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def frame_at(path: ControlPath, t: float) -> AdiabaticFrame:
    """Full adiabatic-frame snapshot at time t, in the anchored gauge.

    The eigenpair is closed form. The w elements follow from the field
    derivative ``path.b_dot(t)`` by first-order perturbation theory:
    w_ge = -i <g|dH/dt|e> / omega01, and the diagonals keep the anchored
    components on the real axis. The coupling elements use the traceless
    part of ``path.coupling_A``. Straight-line code: each eigenvector is
    conjugated once and every matrix element is written out.
    """
    cg, ce = path.anchors()
    g, e, E_g, E_e = _eig_raw(*path.b(t))
    g = _anchor(g, cg, t)
    e = _anchor(e, ce, t)
    omega01 = E_e - E_g
    g0, g1 = g
    e0, e1 = e
    gc0, gc1 = g0.conjugate(), g1.conjugate()
    bdx, bdy, bdz = path.b_dot(t)
    # dH/dt = (1/2) b_dot . sigma = [[H00, H01], [conj(H01), H11]]
    H00 = 0.5 * bdz
    H01 = 0.5 * complex(bdx, -bdy)
    H11 = -0.5 * bdz
    ge = gc0 * (H00 * e0 + H01 * e1) + gc1 * (H01.conjugate() * e0 + H11 * e1)  # <g|dH/dt|e>
    w_ge = -1j * ge / omega01
    # d|g>/dt = -|e><e|dH/dt|g>/omega01 + i kappa_g |g>, kappa fixed by the anchor
    w_gg = -(-e[cg] * ge.conjugate() / omega01).imag / g[cg].real
    w_ee = -(g[ce] * ge / omega01).imag / e[ce].real
    A00, A01, A11 = path._A_traceless
    A10 = A01.conjugate()
    m1 = gc0 * (A00 * g0 + A01 * g1) + gc1 * (A10 * g0 + A11 * g1)  # <g|A|g>
    m2 = gc0 * (A00 * e0 + A01 * e1) + gc1 * (A10 * e0 + A11 * e1)  # <g|A|e>
    alpha = math.sqrt(w_gg * w_gg + w_ee * w_ee + 2.0 * (w_ge.real ** 2 + w_ge.imag ** 2)) / omega01
    return AdiabaticFrame(t, omega01, w_gg, w_ee, w_ge, m1.real, m2, alpha)


def sample_history(path: ControlPath, t0: float, t1: float, num: int) -> FrameHistory:
    """Frame columns on a uniform grid of ``num`` points over [t0, t1].

    ``path.b`` and ``path.b_dot`` are evaluated once per sample; the
    eigenpair, its anchoring, w_gg, w_ee and alpha are then numpy columns
    computed with :func:`frame_at`'s float operations, so each entry equals
    that field of ``frame_at(path, t)`` (alpha to within an ulp). Raises
    GapCollapse where |b| is at or below GAP_FLOOR and, like ``frame_at``,
    GaugeUndefined at the first sample where an anchored component is 0.
    """
    import numpy as np

    if num < 3:
        raise ValueError("history needs at least 3 samples")
    times = np.linspace(t0, t1, num)
    ts = times.tolist()
    b = np.array([path.b(t) for t in ts])
    bd = np.array([path.b_dot(t) for t in ts])
    nb, nbd = (np.asarray(-x, dtype=float).T for x in (b, bd))
    b, bd = (np.asarray(x, dtype=float).T for x in (b, bd))
    r = np.sqrt(b[0] * b[0] + b[1] * b[1] + b[2] * b[2])
    if np.any(r <= GAP_FLOOR):
        raise GapCollapse(f"|b| = {r[r <= GAP_FLOOR][0]:.3e} <= gap floor {GAP_FLOOR:.0e}")
    cg, ce = path.anchors()
    w_gg, w_ee, alpha, m = (np.empty(num) for _ in range(4))
    upper = b[2] >= 0.0
    # np.where evaluates both _Py_c_quot branches; a zero anchor modulus is checked below
    with np.errstate(divide="ignore", invalid="ignore"):
        for up, k in ((True, upper), (False, ~upper)):
            if k.any():
                w_gg[k], w_ee[k], alpha[k], m[k] = _branch_columns(
                    up, r[k], b[:, k], nb[:, k], bd[:, k], nbd[:, k], cg, ce)
    zero = np.flatnonzero(m == 0.0)
    if zero.size:
        raise _gauge_undefined(ts[zero[0]])
    return FrameHistory(times=times, w_gg=w_gg, w_ee=w_ee, alpha=alpha,
                        b_start=path.b(t0), b_end=path.b(t1))
