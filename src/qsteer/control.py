"""Steered two-level Hamiltonians and their adiabatic-frame quantities.

The system Hamiltonian is H(t) = (1/2) b(t) . sigma with a three-component
control field b(t); energies and rates are in units of 1/time (hbar = 1).
Everything downstream consumes :class:`AdiabaticFrame` snapshots built here:
the instantaneous gap, the matrix elements of the steering generator
w = -i D^dag dD/dt in the smooth eigenbasis, the coupling-operator elements
in that basis, and the local adiabatic parameter alpha = ||w|| / omega01.

Gauge convention
----------------
Eigenvector phases are fixed pointwise: for each branch, the component that
dominates the eigenvector at the path's start (t = 0, or the first sample
time of a sampled path; ties prefer the second component) is rotated to the
positive real axis and that anchor index is kept for all t.  The gauge
therefore depends only on the instantaneous field, is single valued around
closed control loops (so accumulated phases are meaningful Berry phases), and
is C^1 wherever the anchored component stays away from zero.  Paths that
steer an eigenstate close to the antipode of its initial orientation need the
explicit ``prev`` continuation instead; chaining ``prev`` at small steps
realizes the parallel-transport gauge, in which the w diagonals vanish.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import GAP_FLOOR, GapCollapse, StepTooCoarse
from .gauge import hs_norm

HERMITICITY_TOL = 1e-8

Vec3 = tuple[float, float, float]


@dataclass
class ControlPath:
    """Time-parametrized control field plus the fixed system coupling operator.

    ``b`` maps time to the field vector (b_x, b_y, b_z); ``b_dot`` is its
    analytic derivative when available (None forces central differences in
    :func:`frame_at`).  ``coupling_A`` is the Hermitian system part of the
    system-environment coupling, given in the fixed basis.
    """

    kind: str
    b: Callable[[float], Vec3]
    b_dot: Optional[Callable[[float], Vec3]]
    coupling_A: np.ndarray
    duration: float
    params: dict = field(default_factory=dict)
    _anchors: Optional[tuple[int, int]] = field(default=None, init=False, repr=False)
    _A_traceless: Optional[tuple[complex, complex, complex]] = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self):
        A = np.asarray(self.coupling_A, dtype=complex)
        if A.shape != (2, 2):
            raise ValueError("coupling_A must be a 2x2 matrix")
        if np.max(np.abs(A - A.conj().T)) > 1e-14:
            raise ValueError("coupling_A must be Hermitian to 1e-14")
        if not (self.duration > 0 and math.isfinite(self.duration)):
            raise ValueError("duration must be positive and finite")
        self.coupling_A = A
        half_trace = (A[0, 0] + A[1, 1]) / 2
        self._A_traceless = (
            complex(A[0, 0] - half_trace),
            complex(A[0, 1]),
            complex(A[1, 1] - half_trace),
        )

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
    """Sampled path from CSV rows (t, b_x, b_y, b_z); a header row is skipped if present."""
    times, vecs = [], []
    with open(csv_path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                vals = [float(x) for x in row[:4]]
            except ValueError:
                continue  # header
            times.append(vals[0])
            vecs.append(vals[1:4])
    return sampled_path(times, vecs, coupling_A)


@dataclass(frozen=True)
class EigenFrame:
    """Instantaneous orthonormal eigenpair of H(t) in a fixed gauge."""

    t: float
    ground: np.ndarray
    excited: np.ndarray
    E_g: float
    E_e: float

    @property
    def omega01(self) -> float:
        return self.E_e - self.E_g


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
    """Uniformly sampled frame snapshots along a path, for Berry loops."""

    times: np.ndarray
    frames: list
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


def _anchor(vec, c):
    """Rotate vec so component c is real positive."""
    vc = vec[c]
    m = abs(vc)
    if m == 0.0:
        # anchored gauge undefined here; keep the raw phase rather than inventing one
        return vec
    ph = vc / m
    return (vec[0] / ph, vec[1] / ph)


def _eig_anchored(bx, by, bz, cg, ce):
    g, e, E_g, E_e = _eig_raw(bx, by, bz)
    return _anchor(g, cg), _anchor(e, ce), E_g, E_e


def _sandwich(u, M00, M01, M11, v):
    """<u| M |v> for Hermitian M = [[M00, M01], [conj(M01), M11]]."""
    r0 = M00 * v[0] + M01 * v[1]
    r1 = M01.conjugate() * v[0] + M11 * v[1]
    return u[0].conjugate() * r0 + u[1].conjugate() * r1


def _w_analytic(g, e, omega01, cg, ce, bdx, bdy, bdz):
    """w elements from first-order perturbation theory in the anchored gauge.

    Off-diagonals follow from <g|dH/dt|e> / omega01; diagonals from the
    requirement that the anchored component stays on the real axis.
    """
    H00 = 0.5 * bdz
    H01 = 0.5 * complex(bdx, -bdy)
    H11 = -0.5 * bdz
    ge = _sandwich(g, H00, H01, H11, e)  # <g|Hdot|e>
    w_ge = -1j * ge / omega01
    # d|g>/dt = -|e><e|Hdot|g>/omega01 + i kappa_g |g>, kappa fixed by the anchor
    perp_g_c = -e[cg] * ge.conjugate() / omega01
    perp_e_c = g[ce] * ge / omega01
    w_gg = -perp_g_c.imag / g[cg].real
    w_ee = -perp_e_c.imag / e[ce].real
    return w_gg, w_ee, w_ge


def _coupling(g, e, A00, A01, A11):
    m1c = _sandwich(g, A00, A01, A11, g)
    m2 = _sandwich(g, A00, A01, A11, e)
    return m1c, m2


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def eigensystem(path: ControlPath, t: float, prev: Optional[EigenFrame] = None) -> EigenFrame:
    """Instantaneous eigenpair of H(t) with E_g <= E_e and a fixed gauge.

    Without ``prev`` the pointwise anchored gauge described in the module
    docstring applies. With ``prev`` each eigenvector is instead rotated so
    its overlap with the previous frame's vector is real and positive
    (discrete parallel transport).
    """
    bx, by, bz = path.b(t)
    cg, ce = path.anchors()
    g, e, E_g, E_e = _eig_anchored(bx, by, bz, cg, ce)
    if prev is not None:
        def continue_from(p, vec):
            ov = complex(p[0]).conjugate() * vec[0] + complex(p[1]).conjugate() * vec[1]
            m = abs(ov)
            if m == 0.0:
                return vec
            ph = ov / m
            return (vec[0] / ph, vec[1] / ph)

        g = continue_from(prev.ground, g)
        e = continue_from(prev.excited, e)
    return EigenFrame(
        t=t,
        ground=np.array(g, dtype=complex),
        excited=np.array(e, dtype=complex),
        E_g=E_g,
        E_e=E_e,
    )


def w_from_eigenframes(minus, center, plus, h: float):
    """Central-difference w elements from eigenvector pairs at t-h, t, t+h.

    Each argument is a (ground, excited) pair of 2-vectors sharing one
    continuous gauge. Exposed separately so alternative gauges can be fed in
    directly. Raises StepTooCoarse when the Hermiticity residual of the
    reconstructed w exceeds HERMITICITY_TOL.
    """
    gm, em = minus
    g0, e0 = center
    gp, ep = plus

    def ip(u, v):
        return complex(u[0]).conjugate() * complex(v[0]) + complex(u[1]).conjugate() * complex(v[1])

    inv2h = 1.0 / (2.0 * h)
    w_gg_raw = -1j * (ip(g0, gp) - ip(g0, gm)) * inv2h
    w_ee_raw = -1j * (ip(e0, ep) - ip(e0, em)) * inv2h
    w_ge_raw = -1j * (ip(g0, ep) - ip(g0, em)) * inv2h
    w_eg_raw = -1j * (ip(e0, gp) - ip(e0, gm)) * inv2h
    residual = max(
        abs(w_gg_raw.imag), abs(w_ee_raw.imag), abs(w_eg_raw - w_ge_raw.conjugate())
    )
    if residual > HERMITICITY_TOL:
        raise StepTooCoarse(
            f"central-difference Hermiticity residual {residual:.3e} > {HERMITICITY_TOL:.0e}"
        )
    w_ge = (w_ge_raw + w_eg_raw.conjugate()) / 2
    return w_gg_raw.real, w_ee_raw.real, w_ge


def compute_w(path: ControlPath, t: float, method: str = "analytic", h: Optional[float] = None):
    """w elements (w_gg, w_ee, w_ge) of :func:`frame_at` at time t.

    Unlike :func:`frame_at`, "analytic" requires path.b_dot (no fallback).
    """
    if method == "analytic" and path.b_dot is None:
        raise ValueError("analytic w requires a path with b_dot")
    if method not in ("analytic", "central_difference"):
        raise ValueError(f"unknown method {method!r}")
    f = frame_at(path, t, method=method, h=h)
    return f.w_gg, f.w_ee, f.w_ge


def coupling_elements(A, frame: EigenFrame):
    """(m1, m2) of the coupling operator in the frame's eigenbasis.

    The traceless convention is enforced by subtracting (Tr A)/2 before
    projecting, so <g|A'|g> = -<e|A'|e> identically and m1 is real.
    """
    A = np.asarray(A, dtype=complex)
    if np.max(np.abs(A - A.conj().T)) > 1e-14:
        raise ValueError("coupling operator must be Hermitian to 1e-14")
    half_trace = (A[0, 0] + A[1, 1]) / 2
    g = (complex(frame.ground[0]), complex(frame.ground[1]))
    e = (complex(frame.excited[0]), complex(frame.excited[1]))
    m1c, m2 = _coupling(g, e, A[0, 0] - half_trace, A[0, 1], A[1, 1] - half_trace)
    if abs(m1c.imag) > 1e-12:
        raise ValueError(f"<g|A|g> has imaginary residue {m1c.imag:.3e}")
    return m1c.real, m2


def local_alpha(w_gg: float, w_ee: float, w_ge: complex, omega01: float) -> float:
    """Local adiabatic parameter ||w|| / omega01."""
    if omega01 <= GAP_FLOOR:
        raise GapCollapse(f"omega01 = {omega01:.3e} <= gap floor {GAP_FLOOR:.0e}")
    return hs_norm(w_gg, w_ee, w_ge) / omega01


def frame_at(
    path: ControlPath,
    t: float,
    prev: Optional[EigenFrame] = None,
    method: str = "analytic",
    h: Optional[float] = None,
) -> AdiabaticFrame:
    """Full adiabatic-frame snapshot at time t.

    ``method`` is "analytic" (central differences when the path has no
    derivative) or "central_difference" with step ``h`` (default 1e-4 *
    duration). ``prev`` is honored for the eigenvector gauge (parallel-transport
    continuation), in which case the w elements are produced by central
    differences continued from the same frame.
    """
    if prev is not None:
        ef = eigensystem(path, t, prev)
        if h is None:
            h = 1e-4 * path.duration
        em = eigensystem(path, t - h, ef)
        ep = eigensystem(path, t + h, ef)
        w_gg, w_ee, w_ge = w_from_eigenframes(
            (em.ground, em.excited), (ef.ground, ef.excited), (ep.ground, ep.excited), h
        )
        omega01 = ef.omega01
        m1, m2 = coupling_elements(path.coupling_A, ef)
        return AdiabaticFrame(
            t=t, omega01=omega01, w_gg=w_gg, w_ee=w_ee, w_ge=w_ge, m1=m1, m2=m2,
            alpha=local_alpha(w_gg, w_ee, w_ge, omega01),
        )

    cg, ce = path.anchors()
    bx, by, bz = path.b(t)
    g, e, E_g, E_e = _eig_anchored(bx, by, bz, cg, ce)
    omega01 = E_e - E_g
    if method == "analytic" and path.b_dot is not None:
        w_gg, w_ee, w_ge = _w_analytic(g, e, omega01, cg, ce, *path.b_dot(t))
    else:
        if h is None:
            h = 1e-4 * path.duration
        gm, em_, _, _ = _eig_anchored(*path.b(t - h), cg, ce)
        gp, ep_, _, _ = _eig_anchored(*path.b(t + h), cg, ce)
        w_gg, w_ee, w_ge = w_from_eigenframes((gm, em_), (g, e), (gp, ep_), h)
    A00, A01, A11 = path._A_traceless
    m1c, m2 = _coupling(g, e, A00, A01, A11)
    alpha = math.sqrt(w_gg * w_gg + w_ee * w_ee + 2.0 * (w_ge.real ** 2 + w_ge.imag ** 2)) / omega01
    return AdiabaticFrame(
        t=t, omega01=omega01, w_gg=w_gg, w_ee=w_ee, w_ge=w_ge,
        m1=m1c.real, m2=m2, alpha=alpha,
    )


def sample_history(path: ControlPath, t0: float, t1: float, num: int) -> FrameHistory:
    """Frames on a uniform grid of ``num`` points over [t0, t1]."""
    if num < 3:
        raise ValueError("history needs at least 3 samples")
    times = np.linspace(t0, t1, num)
    frames = [frame_at(path, float(t)) for t in times]
    return FrameHistory(times=times, frames=frames, b_start=path.b(t0), b_end=path.b(t1))
